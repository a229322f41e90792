//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003). Cited
//! by the paper as a representative advanced algorithm whose clock
//! approximation (CAR) gives up hit-ratio quality for lock-freedom —
//! exactly the trade-off BP-Wrapper removes.
//!
//! Two resident lists balance recency (`T1`) and frequency (`T2`); two
//! ghost lists (`B1`, `B2`) steer the adaptive target `p` (the desired
//! size of `T1`).

use crate::arena::{Arena, List};
use crate::frame_table::FrameTable;
use crate::linked_set::LinkedSet;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// The ARC replacement policy.
pub struct Arc {
    arena: Arena,
    t1: List, // recency list, front = MRU
    t2: List, // frequency list, front = MRU
    b1: LinkedSet,
    b2: LinkedSet,
    p: usize, // adaptive target size of T1
    table: FrameTable,
}

impl Arc {
    /// Create an ARC policy managing `frames` buffer frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "ARC needs at least one frame");
        let mut arena = Arena::new(frames);
        let t1 = arena.new_list();
        let t2 = arena.new_list();
        Arc {
            arena,
            t1,
            t2,
            b1: LinkedSet::with_capacity(frames),
            b2: LinkedSet::with_capacity(frames),
            p: 0,
            table: FrameTable::new(frames),
        }
    }

    /// Current adaptation target for `|T1|` (test aid).
    pub fn p(&self) -> usize {
        self.p
    }

    /// Sizes of `(T1, T2, B1, B2)` (test aid).
    pub fn list_sizes(&self) -> (usize, usize, usize, usize) {
        (self.t1.len(), self.t2.len(), self.b1.len(), self.b2.len())
    }

    /// True if `page` is remembered in a ghost list (test aid).
    pub fn is_ghost(&self, page: PageId) -> bool {
        self.b1.contains(page) || self.b2.contains(page)
    }

    /// ARC's `REPLACE`: evict from T1 or T2 per the adaptation target,
    /// remembering the victim in the matching ghost list.
    fn replace(
        &mut self,
        in_b2: bool,
        remember_t1: bool,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> Option<(FrameId, PageId)> {
        let prefer_t1 =
            !self.t1.is_empty() && ((in_b2 && self.t1.len() == self.p) || self.t1.len() > self.p);
        for &from_t1 in &[prefer_t1, !prefer_t1] {
            let list = if from_t1 { &self.t1 } else { &self.t2 };
            let found = list.iter_rev(&self.arena).find(|&f| evictable(f));
            if let Some(frame) = found {
                if from_t1 {
                    self.t1.remove(&mut self.arena, frame);
                } else {
                    self.t2.remove(&mut self.arena, frame);
                }
                let victim = self.table.unbind(frame);
                if from_t1 {
                    if remember_t1 {
                        self.b1.insert_front(victim);
                    }
                } else {
                    self.b2.insert_front(victim);
                }
                return Some((frame, victim));
            }
        }
        None
    }
}

impl ReplacementPolicy for Arc {
    fn name(&self) -> &'static str {
        "ARC"
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
        // Case I: any hit moves the page to the MRU of T2.
        if self.t1.contains(&self.arena, frame) {
            self.t1.remove(&mut self.arena, frame);
            self.t2.push_front(&mut self.arena, frame);
        } else {
            self.t2.move_to_front(&mut self.arena, frame);
        }
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        let c = self.table.frames();
        let in_b1 = self.b1.contains(page);
        let in_b2 = !in_b1 && self.b2.contains(page);
        let mut remember_t1 = true;

        if in_b1 {
            // Case II: recency ghosts growing — favor T1.
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(c);
        } else if in_b2 {
            // Case III: frequency ghosts growing — favor T2.
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
        } else {
            // Case IV: bound the directory at 2c.
            if self.t1.len() + self.b1.len() >= c {
                // Case IV(a): make room in the recency half. If B1 has
                // history, age it out; if B1 is empty then T1 fills the
                // cache and its LRU page is discarded outright below.
                if self.b1.pop_oldest().is_none() {
                    remember_t1 = false;
                }
            } else if self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len() >= 2 * c {
                self.b2.pop_oldest();
            }
        }

        let (frame, outcome) = match free {
            Some(f) => (f, MissOutcome::AdmittedFree(f)),
            None => match self.replace(in_b2, remember_t1, evictable) {
                Some((f, victim)) => (f, MissOutcome::Evicted { frame: f, victim }),
                None => return MissOutcome::NoEvictableFrame,
            },
        };

        self.table.bind(frame, page);
        if in_b1 {
            self.b1.remove(page);
            self.t2.push_front(&mut self.arena, frame);
        } else if in_b2 {
            self.b2.remove(page);
            self.t2.push_front(&mut self.arena, frame);
        } else {
            self.t1.push_front(&mut self.arena, frame);
        }
        outcome
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        if self.t1.contains(&self.arena, frame) {
            self.t1.remove(&mut self.arena, frame);
        } else {
            self.t2.remove(&mut self.arena, frame);
        }
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        let c = self.table.frames();
        let t1 = self.t1.check(&self.arena);
        let t2 = self.t2.check(&self.arena);
        self.b1.check();
        self.b2.check();
        assert_eq!(t1 + t2, self.table.resident(), "T1+T2 must cover residents");
        assert!(t1 + t2 <= c, "resident lists exceed cache size");
        assert!(self.p <= c, "adaptation target out of range");
        assert!(
            t1 + t2 + self.b1.len() + self.b2.len() <= 2 * c,
            "ARC directory exceeds 2c"
        );
        assert!(t1 + self.b1.len() <= c, "|T1|+|B1| exceeds c");
        for f in 0..c as FrameId {
            let linked = self.t1.contains(&self.arena, f) || self.t2.contains(&self.arena, f);
            assert_eq!(linked, self.table.is_present(f));
            if let Some(p) = self.table.page_at(f) {
                assert!(!self.is_ghost(p), "resident page {p} in ghost list");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_sim::CacheSim;

    #[test]
    fn new_pages_enter_t1_hits_promote_to_t2() {
        let mut s = CacheSim::new(Arc::new(4));
        s.access(1);
        s.access(2);
        assert_eq!(s.policy().list_sizes().0, 2); // both in T1
        s.access(1); // promote
        let (t1, t2, _, _) = s.policy().list_sizes();
        assert_eq!((t1, t2), (1, 1));
        s.check_consistency();
    }

    #[test]
    fn b1_ghost_hit_raises_p() {
        let mut s = CacheSim::new(Arc::new(4));
        for p in [1, 2, 3, 4] {
            s.access(p);
        }
        s.access(1); // promote 1 to T2 so |T1| < c
        s.access(5); // evicts 2 (LRU of T1) into B1
        assert!(s.policy().is_ghost(2));
        let p_before = s.policy().p();
        s.access(2); // B1 hit: p increases, page admitted to T2
        assert!(s.policy().p() > p_before);
        let (_, t2, _, _) = s.policy().list_sizes();
        assert!(t2 >= 2);
        s.check_consistency();
    }

    #[test]
    fn full_t1_cold_eviction_not_remembered() {
        // ARC Case IV(a): when T1 alone fills the cache and B1 is empty,
        // the evicted page is discarded without history.
        let mut s = CacheSim::new(Arc::new(2));
        s.access(1);
        s.access(2);
        s.access(3);
        assert!(!s.policy().is_ghost(1));
        s.check_consistency();
    }

    #[test]
    fn b2_ghost_hit_lowers_p() {
        let mut s = CacheSim::new(Arc::new(2));
        // Build a T2 page then evict it into B2.
        s.access(1);
        s.access(1); // 1 in T2
        s.access(2);
        s.access(3); // evict from T1 (2) -> B1
        s.access(4); // continue; eventually 1 leaves T2 -> B2
        s.access(5);
        // Force p up first, then a B2 hit must bring it down.
        let ghosted: Vec<PageId> = (1..6).filter(|&p| s.policy().b2.contains(p)).collect();
        if let Some(&g) = ghosted.first() {
            let before = s.policy().p();
            s.access(g);
            assert!(s.policy().p() <= before);
        }
        s.check_consistency();
    }

    #[test]
    fn directory_bounded_under_churn() {
        let mut s = CacheSim::new(Arc::new(8));
        for p in 0..1000u64 {
            s.access(p % 40);
            if p % 100 == 0 {
                s.check_consistency();
            }
        }
        s.check_consistency();
    }

    #[test]
    fn arc_beats_lru_on_mixed_scan() {
        // Hot set + repeated scans: ARC adapts, LRU thrashes.
        let frames = 32;
        let mut trace = Vec::new();
        for round in 0..60u64 {
            for h in 0..16u64 {
                trace.push(h); // hot set fits easily
            }
            for sc in 0..24u64 {
                trace.push(1000 + round * 24 + sc); // one-shot cold pages
            }
        }
        let mut arc = CacheSim::new(Arc::new(frames));
        let mut lru = CacheSim::new(crate::lru::Lru::new(frames));
        let a = arc.run(trace.iter().copied());
        let b = lru.run(trace.iter().copied());
        assert!(
            a.hit_ratio() >= b.hit_ratio(),
            "ARC {:.3} should not lose to LRU {:.3} here",
            a.hit_ratio(),
            b.hit_ratio()
        );
        arc.check_consistency();
    }

    #[test]
    fn pinned_frames_skipped() {
        let mut s = CacheSim::new(Arc::new(2));
        s.access(1);
        s.access(2);
        let f1 = s.frame_of(1).unwrap();
        let out = s.policy_mut().record_miss(9, None, &mut |f| f != f1);
        assert_ne!(out.frame(), Some(f1));
        assert!(out.victim().is_some());
    }

    #[test]
    fn no_evictable_frame() {
        let mut s = CacheSim::new(Arc::new(2));
        s.access(1);
        s.access(2);
        let out = s.policy_mut().record_miss(9, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
    }
}
