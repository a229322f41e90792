//! CLOCK — the classic one-bit approximation of LRU (Corbató 1968), and
//! the algorithm PostgreSQL 8.x adopted (the paper's `pgClock` system).
//!
//! This module provides the *locked* trait implementation used for
//! hit-ratio studies and as a policy inside wrappers. The buffer-pool
//! crate additionally provides `ClockManager`, which exploits CLOCK's
//! defining property — hits only set a reference bit — to run the hit
//! path with no lock at all (atomic bit set), exactly as PostgreSQL does.

use crate::frame_table::FrameTable;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// CLOCK replacement: frames arranged in a ring swept by a hand; a hit
/// sets the frame's reference bit; the hand clears bits until it finds an
/// unreferenced, evictable frame.
pub struct Clock {
    referenced: Vec<bool>,
    table: FrameTable,
    hand: usize,
}

impl Clock {
    /// Create a CLOCK policy managing `frames` buffer frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "CLOCK needs at least one frame");
        Clock {
            referenced: vec![false; frames],
            table: FrameTable::new(frames),
            hand: 0,
        }
    }

    /// Current hand position (test aid).
    pub fn hand(&self) -> usize {
        self.hand
    }

    /// Reference bit of `frame` (test aid).
    pub fn referenced(&self, frame: FrameId) -> bool {
        self.referenced[frame as usize]
    }

    fn advance(&mut self) {
        self.hand = (self.hand + 1) % self.table.frames();
    }
}

impl ReplacementPolicy for Clock {
    fn name(&self) -> &'static str {
        "CLOCK"
    }

    fn frames(&self) -> usize {
        self.table.frames()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        if self.table.is_present(frame) {
            self.referenced[frame as usize] = true;
        }
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        if let Some(f) = free {
            self.table.bind(f, page);
            self.referenced[f as usize] = true;
            return MissOutcome::AdmittedFree(f);
        }
        // Two full sweeps suffice (first may clear every bit); a third
        // pass means everything is unevictable.
        let n = self.table.frames();
        let mut steps = 0;
        while steps < 3 * n {
            let f = self.hand as FrameId;
            if self.table.is_present(f) {
                if self.referenced[self.hand] {
                    self.referenced[self.hand] = false;
                } else if evictable(f) {
                    let victim = self.table.rebind(f, page);
                    self.referenced[self.hand] = true;
                    self.advance();
                    return MissOutcome::Evicted { frame: f, victim };
                }
            }
            self.advance();
            steps += 1;
        }
        MissOutcome::NoEvictableFrame
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        self.referenced[frame as usize] = false;
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        assert!(self.hand < self.table.frames());
        for f in 0..self.table.frames() {
            if !self.table.is_present(f as FrameId) {
                assert!(!self.referenced[f], "empty frame {f} has reference bit set");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::miss_full;

    fn fill(c: &mut Clock, pages: &[PageId]) {
        for (i, &p) in pages.iter().enumerate() {
            c.record_miss(p, Some(i as FrameId), &mut |_| true);
        }
    }

    #[test]
    fn second_chance_protects_referenced() {
        let mut c = Clock::new(3);
        fill(&mut c, &[10, 20, 30]);
        // All ref bits set by admission; first sweep clears 0,1,2 then
        // evicts frame 0 on the second pass.
        let out = miss_full(&mut c, 40);
        assert_eq!(out.victim(), Some(10));
        // Now frame 0 holds 40 (ref set), frames 1,2 have cleared bits.
        // A hit on frame 2 protects page 30; next miss takes frame 1.
        c.record_hit(2);
        let out = miss_full(&mut c, 50);
        assert_eq!(out.victim(), Some(20));
        c.check_invariants();
    }

    #[test]
    fn sweep_skips_pinned_frames() {
        let mut c = Clock::new(3);
        fill(&mut c, &[10, 20, 30]);
        let out = c.record_miss(40, None, &mut |f| f == 2);
        assert_eq!(
            out,
            MissOutcome::Evicted {
                frame: 2,
                victim: 30
            }
        );
    }

    #[test]
    fn no_evictable_terminates() {
        let mut c = Clock::new(4);
        fill(&mut c, &[1, 2, 3, 4]);
        let out = c.record_miss(5, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
    }

    #[test]
    fn hand_wraps_around() {
        let mut c = Clock::new(2);
        fill(&mut c, &[1, 2]);
        for p in 3..20 {
            let out = miss_full(&mut c, p);
            assert!(out.victim().is_some());
            c.check_invariants();
        }
        assert_eq!(c.resident_count(), 2);
    }

    #[test]
    fn remove_clears_bit() {
        let mut c = Clock::new(2);
        fill(&mut c, &[1, 2]);
        c.record_hit(1);
        assert!(c.referenced(1));
        assert_eq!(c.remove(1), Some(2));
        assert!(!c.referenced(1));
    }
}
