//! LFU with periodic aging (LFU-DA-style). Pure frequency ranking with a
//! decay step that halves all counters every `AGE_EVERY` = 10 000
//! accesses, so formerly-hot pages can leave — the classic fix for LFU's
//! "cache pollution by stale celebrities" failure. LFU is not one of the
//! paper's policies, so the period is this crate's choice, not a
//! published one.
//!
//! Eviction scans for the minimum (count, last-access) pair; O(frames)
//! on the miss path, like the textbook algorithm. Included as the
//! frequency-only endpoint of the policy spectrum (MQ and ARC blend
//! frequency with recency; this is what they improve on).

use crate::frame_table::FrameTable;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// Halve every frequency counter after this many accesses.
const AGE_EVERY: u64 = 10_000;

/// Least-frequently-used replacement with counter aging.
pub struct Lfu {
    count: Vec<u64>,
    last: Vec<u64>,
    table: FrameTable,
    now: u64,
    until_age: u64,
}

impl Lfu {
    /// Create with counters halved every `AGE_EVERY` accesses.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "LFU needs at least one frame");
        Lfu {
            count: vec![0; frames],
            last: vec![0; frames],
            table: FrameTable::new(frames),
            now: 0,
            until_age: AGE_EVERY,
        }
    }

    /// Frequency counter of `frame` (test aid).
    pub fn frequency(&self, frame: FrameId) -> u64 {
        self.count[frame as usize]
    }

    fn tick(&mut self) {
        self.now += 1;
        self.until_age -= 1;
        if self.until_age == 0 {
            self.until_age = AGE_EVERY;
            for c in &mut self.count {
                *c /= 2;
            }
        }
    }
}

impl ReplacementPolicy for Lfu {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn frames(&self) -> usize {
        self.table.frames()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        if !self.table.is_present(frame) {
            return;
        }
        self.tick();
        self.count[frame as usize] += 1;
        self.last[frame as usize] = self.now;
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        self.tick();
        let (frame, outcome) = match free {
            Some(f) => (f, MissOutcome::AdmittedFree(f)),
            None => {
                // Min (count, last-access), ties to least recent. The
                // filter may have side effects, so probe it once per
                // chosen candidate and exclude rejections.
                let n = self.table.frames();
                let mut rejected = vec![false; n];
                let chosen = loop {
                    let mut best: Option<(FrameId, u64, u64)> = None;
                    for f in 0..n as FrameId {
                        if rejected[f as usize] || !self.table.is_present(f) {
                            continue;
                        }
                        let key = (self.count[f as usize], self.last[f as usize]);
                        let better = match best {
                            None => true,
                            Some((_, bc, bl)) => key < (bc, bl),
                        };
                        if better {
                            best = Some((f, key.0, key.1));
                        }
                    }
                    match best {
                        None => break None,
                        Some((f, _, _)) => {
                            if evictable(f) {
                                break Some(f);
                            }
                            rejected[f as usize] = true;
                        }
                    }
                };
                let Some(f) = chosen else {
                    return MissOutcome::NoEvictableFrame;
                };
                let victim = self.table.unbind(f);
                (f, MissOutcome::Evicted { frame: f, victim })
            }
        };
        self.table.bind(frame, page);
        self.count[frame as usize] = 1;
        self.last[frame as usize] = self.now;
        outcome
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        self.count[frame as usize] = 0;
        self.last[frame as usize] = 0;
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        // Aging may take a resident page's count to 0, so only empty
        // frames have a fixed count.
        for f in 0..self.table.frames() {
            if !self.table.is_present(f as FrameId) {
                assert_eq!(self.count[f], 0, "empty frame {f} has a count");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_sim::CacheSim;

    #[test]
    fn frequent_pages_protected() {
        let mut s = CacheSim::new(Lfu::new(3));
        for _ in 0..5 {
            s.access(1);
        }
        s.access(2);
        s.access(3);
        s.access(4); // evicts 2 or 3 (count 1), never 1 (count 5)
        assert!(s.is_resident(1));
        s.check_consistency();
    }

    #[test]
    fn ties_break_by_recency() {
        let mut s = CacheSim::new(Lfu::new(3));
        s.access(1);
        s.access(2);
        s.access(3); // all count 1; 1 is least recent
        s.access(4);
        assert!(!s.is_resident(1));
        s.check_consistency();
    }

    #[test]
    fn aging_lets_stale_celebrities_go() {
        let mut s = CacheSim::new(Lfu::new(4));
        for _ in 0..40 {
            s.access(1); // celebrity: count 40
        }
        // Cold phase up to the aging period: the celebrity keeps its count
        // until the AGE_EVERY-th access halves every counter.
        let f = s.frame_of(1).unwrap();
        for i in 40..AGE_EVERY - 1 {
            s.access(10 + (i % 3));
        }
        assert_eq!(s.policy().frequency(f), 40);
        s.access(10);
        assert_eq!(
            s.policy().frequency(f),
            20,
            "aging must decay the celebrity's count"
        );
        s.check_consistency();
    }

    #[test]
    fn filter_respected() {
        let mut s = CacheSim::new(Lfu::new(2));
        s.access(1);
        s.access(2);
        let out = s.policy_mut().record_miss(3, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
    }
}
