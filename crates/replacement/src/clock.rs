//! CLOCK — the classic one-bit approximation of LRU (Corbató 1968), and
//! the algorithm PostgreSQL 8.x adopted (the paper's `pgClock` system).
//!
//! There is one CLOCK in this repo. Fig. 8's hit-ratio column replays it
//! through [`CacheSim`](crate::CacheSim), and the buffer pool's
//! `ClockManager` runs the same [`Clock`] under its lock. A hit only sets
//! a reference bit, so the bits are atomics that [`Clock::reference_bits`]
//! shares with the owner: the manager's hit path is one relaxed store
//! with no lock, exactly as in PostgreSQL, and only the sweep on a miss
//! needs the lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::frame_table::FrameTable;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// CLOCK replacement: frames arranged in a ring swept by a hand; a hit
/// sets the frame's reference bit; the hand clears bits until it finds an
/// unreferenced, evictable frame.
pub struct Clock {
    referenced: Arc<[AtomicBool]>,
    table: FrameTable,
    hand: usize,
}

impl Clock {
    /// Create a CLOCK policy managing `frames` buffer frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "CLOCK needs at least one frame");
        Clock {
            referenced: (0..frames).map(|_| AtomicBool::new(false)).collect(),
            table: FrameTable::new(frames),
            hand: 0,
        }
    }

    /// The reference bits, one per frame, shared with this clock. Storing
    /// `true` into a resident frame's bit records a hit on it without
    /// the clock: only the sweep clears a bit, and it runs under whatever
    /// serializes the clock's `&mut` calls.
    pub fn reference_bits(&self) -> Arc<[AtomicBool]> {
        Arc::clone(&self.referenced)
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
            self.referenced[frame as usize].store(true, Ordering::Relaxed);
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
            self.referenced[f as usize].store(true, Ordering::Relaxed);
            return MissOutcome::AdmittedFree(f);
        }
        // Two full sweeps suffice (first may clear every bit); a third
        // pass means everything is unevictable.
        let n = self.table.frames();
        let mut steps = 0;
        while steps < 3 * n {
            let f = self.hand as FrameId;
            if self.table.is_present(f) {
                // Only the sweep clears a bit, so a hit stored between
                // this load and the clear finds the bit set already.
                let bit = &self.referenced[self.hand];
                if bit.load(Ordering::Relaxed) {
                    bit.store(false, Ordering::Relaxed);
                } else if evictable(f) {
                    let victim = self.table.rebind(f, page);
                    bit.store(true, Ordering::Relaxed);
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
        self.referenced[frame as usize].store(false, Ordering::Relaxed);
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        assert!(self.hand < self.table.frames());
        for f in 0..self.table.frames() {
            if !self.table.is_present(f as FrameId) {
                let bit = self.referenced[f].load(Ordering::Relaxed);
                assert!(!bit, "empty frame {f} has reference bit set");
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
        assert!(c.referenced[1].load(Ordering::Relaxed));
        assert_eq!(c.remove(1), Some(2));
        assert!(!c.referenced[1].load(Ordering::Relaxed));
    }
}
