//! 2Q (Johnson & Shasha, VLDB 1994) — the "full version" with A1in /
//! A1out / Am. This is the algorithm the paper grafts into PostgreSQL as
//! its representative advanced policy (`pgQ`), and the one PostgreSQL
//! itself used before retreating to CLOCK over lock-contention concerns.
//!
//! The queue sizes are the 2Q paper's recommended ones: A1in targets
//! `KIN_DIVISOR` = a quarter of the frames and the A1out ghost list
//! holds `KOUT_DIVISOR` = half as many pages as there are frames.

use crate::arena::{Arena, List};
use crate::frame_table::FrameTable;
use crate::linked_set::LinkedSet;
use crate::traits::{FrameId, MissOutcome, NodeRegion, PageId, ReplacementPolicy};

/// A1in's target size is `frames / KIN_DIVISOR` (paper: 25%).
const KIN_DIVISOR: usize = 4;
/// A1out's capacity is `frames / KOUT_DIVISOR` (paper: 50%).
const KOUT_DIVISOR: usize = 2;

/// The full 2Q algorithm: newly-referenced pages sit in the A1in FIFO;
/// pages evicted from A1in are remembered in the A1out ghost list; only a
/// page re-referenced while in A1out is promoted into the long-term LRU
/// list Am. Correlated references are thereby filtered out of Am.
pub struct TwoQ {
    arena: Arena,
    am: List,   // LRU list of "hot" pages, front = MRU
    a1in: List, // FIFO of recently-admitted pages, front = newest
    a1out: LinkedSet,
    kin: usize,
    kout: usize,
    table: FrameTable,
}

impl TwoQ {
    /// Create a 2Q policy with the paper's Kin and Kout.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "2Q needs at least one frame");
        let mut arena = Arena::new(frames);
        let am = arena.new_list();
        let a1in = arena.new_list();
        let kin = (frames / KIN_DIVISOR).max(1);
        let kout = (frames / KOUT_DIVISOR).max(1);
        TwoQ {
            arena,
            am,
            a1in,
            a1out: LinkedSet::with_capacity(kout),
            kin,
            kout,
            table: FrameTable::new(frames),
        }
    }

    /// Number of pages currently in the A1in FIFO (test aid).
    #[cfg(test)]
    fn a1in_len(&self) -> usize {
        self.a1in.len()
    }

    /// Number of pages currently in the Am list (test aid).
    #[cfg(test)]
    fn am_len(&self) -> usize {
        self.am.len()
    }

    /// True if `page` is remembered in the A1out ghost list (test aid).
    #[cfg(test)]
    fn in_a1out(&self, page: PageId) -> bool {
        self.a1out.contains(page)
    }

    /// Reclaim a frame for a new page, following 2Q's `reclaimfor`.
    fn reclaim(&mut self, evictable: &mut dyn FnMut(FrameId) -> bool) -> Option<(FrameId, PageId)> {
        // Prefer draining A1in once it exceeds its target share.
        let from_a1in_first = self.a1in.len() > self.kin || self.am.is_empty();
        let orders: [bool; 2] = if from_a1in_first {
            [true, false]
        } else {
            [false, true]
        };
        for &use_a1in in &orders {
            let list = if use_a1in { &self.a1in } else { &self.am };
            let found = list.iter_rev(&self.arena).find(|&f| evictable(f));
            if let Some(frame) = found {
                if use_a1in {
                    self.a1in.remove(&mut self.arena, frame);
                } else {
                    self.am.remove(&mut self.arena, frame);
                }
                let victim = self.table.unbind(frame);
                if use_a1in {
                    // Only A1in evictions are remembered: a page that fell
                    // out of Am has proven cold twice and is forgotten.
                    self.a1out.insert_front(victim);
                    while self.a1out.len() > self.kout {
                        self.a1out.pop_oldest();
                    }
                }
                return Some((frame, victim));
            }
        }
        None
    }
}

impl ReplacementPolicy for TwoQ {
    fn name(&self) -> &'static str {
        "2Q"
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
        if self.am.contains(&self.arena, frame) {
            self.am.move_to_front(&mut self.arena, frame);
        }
        // A hit in A1in deliberately does nothing: 2Q treats bursts of
        // correlated references as a single reference.
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        let ghost_hit = self.a1out.remove(page);
        let (frame, outcome) = match free {
            Some(f) => (f, MissOutcome::AdmittedFree(f)),
            None => match self.reclaim(evictable) {
                Some((f, victim)) => (f, MissOutcome::Evicted { frame: f, victim }),
                None => {
                    // Not admitted; restore the ghost entry we removed.
                    if ghost_hit {
                        self.a1out.insert_front(page);
                    }
                    return MissOutcome::NoEvictableFrame;
                }
            },
        };
        self.table.bind(frame, page);
        if ghost_hit {
            // Re-reference within the A1out window: page is hot.
            self.am.push_front(&mut self.arena, frame);
        } else {
            self.a1in.push_front(&mut self.arena, frame);
        }
        outcome
    }

    fn evict(&mut self, evictable: &mut dyn FnMut(FrameId) -> bool) -> Option<(FrameId, PageId)> {
        self.reclaim(evictable)
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        if self.am.contains(&self.arena, frame) {
            self.am.remove(&mut self.arena, frame);
        } else {
            self.a1in.remove(&mut self.arena, frame);
        }
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn node_region(&self) -> Option<NodeRegion> {
        let (base, stride) = self.arena.raw_parts();
        Some(NodeRegion {
            base,
            stride,
            count: self.frames(),
        })
    }

    fn check_invariants(&self) {
        let am = self.am.check(&self.arena);
        let a1in = self.a1in.check(&self.arena);
        assert_eq!(
            am + a1in,
            self.table.resident(),
            "Am + A1in must cover residents"
        );
        assert!(self.a1out.len() <= self.kout, "A1out over capacity");
        self.a1out.check();
        for f in 0..self.table.frames() as FrameId {
            let linked = self.am.contains(&self.arena, f) || self.a1in.contains(&self.arena, f);
            assert_eq!(
                linked,
                self.table.is_present(f),
                "frame {f} residency mismatch"
            );
            if let Some(p) = self.table.page_at(f) {
                assert!(!self.a1out.contains(p), "resident page {p} also in A1out");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::miss_full;

    fn admit(q: &mut TwoQ, page: PageId, frame: FrameId) {
        let out = q.record_miss(page, Some(frame), &mut |_| true);
        assert_eq!(out.frame(), Some(frame));
    }

    #[test]
    fn new_pages_enter_a1in() {
        let mut q = TwoQ::new(8);
        admit(&mut q, 1, 0);
        admit(&mut q, 2, 1);
        assert_eq!(q.a1in_len(), 2);
        assert_eq!(q.am_len(), 0);
        q.check_invariants();
    }

    #[test]
    fn ghost_rereference_promotes_to_am() {
        let mut q = TwoQ::new(4); // kin = 1
        for (i, p) in (0..4).zip([1, 2, 3, 4]) {
            admit(&mut q, p, i as FrameId);
        }
        // A1in = [4,3,2,1] exceeds kin=1; miss on 5 evicts 1 into A1out.
        let out = miss_full(&mut q, 5);
        assert_eq!(out.victim(), Some(1));
        assert!(q.in_a1out(1));
        // Re-reference 1 while ghosted: promoted to Am.
        let out = miss_full(&mut q, 1);
        assert!(out.victim().is_some());
        assert!(!q.in_a1out(1));
        assert_eq!(q.am_len(), 1);
        q.check_invariants();
    }

    #[test]
    fn evict_follows_reclaim_order_and_remembers_a1in_victims() {
        let mut ahead = TwoQ::new(4); // kin = 1
        let mut sim = TwoQ::new(4);
        for (i, p) in (0..4).zip([1, 2, 3, 4]) {
            admit(&mut ahead, p, i as FrameId);
            admit(&mut sim, p, i as FrameId);
        }
        // The victim `evict` takes is the one a miss would have taken.
        let want = miss_full(&mut sim, 5).victim();
        let (frame, victim) = ahead.evict(&mut |_| true).expect("a victim");
        assert_eq!(Some(victim), want);
        assert_eq!(ahead.page_at(frame), None);
        assert!(ahead.in_a1out(victim), "A1in victims become ghosts");
        assert_eq!(ahead.resident_count(), 3);
        ahead.check_invariants();
        admit(&mut ahead, 5, frame);
        ahead.check_invariants();
    }

    #[test]
    fn a1in_hit_does_not_promote() {
        let mut q = TwoQ::new(4);
        admit(&mut q, 1, 0);
        q.record_hit(0); // hit in A1in: no movement
        assert_eq!(q.a1in_len(), 1);
        assert_eq!(q.am_len(), 0);
    }

    #[test]
    fn am_eviction_not_remembered() {
        let mut q = TwoQ::new(1);
        // kin = 1: A1in never exceeds target, so eviction falls to Am...
        // but Am is empty, so A1in is drained anyway (orders fallback).
        admit(&mut q, 1, 0);
        let out = miss_full(&mut q, 2);
        // A1in not over target and Am empty: falls back to A1in path.
        assert_eq!(out.victim(), Some(1));
        assert!(q.in_a1out(1), "an A1in victim is remembered");
        q.check_invariants();
    }

    #[test]
    fn scan_resistance_protects_am() {
        // Pages promoted to Am survive a long one-shot scan.
        let q = TwoQ::new(8); // kin = 2, kout = 4
                              // Build up hot pages 1 and 2 in Am via ghost re-reference.
        let mut sim = crate::cache_sim::CacheSim::new(q);
        for &p in &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2] {
            sim.access(p);
        }
        assert!(sim.policy().am_len() >= 2, "hot pages should be in Am");
        // One-shot scan of 100 cold pages.
        for p in 100..200 {
            sim.access(p);
        }
        // Hot pages 1 and 2 must still be resident.
        assert!(sim.is_resident(1), "page 1 evicted by scan");
        assert!(sim.is_resident(2), "page 2 evicted by scan");
        sim.policy().check_invariants();
    }

    #[test]
    fn a1out_capacity_bounded() {
        let q = TwoQ::new(4); // kout = 2
        let mut sim = crate::cache_sim::CacheSim::new(q);
        for p in 0..100 {
            sim.access(p);
        }
        sim.policy().check_invariants();
    }

    #[test]
    fn no_evictable_restores_ghost() {
        let q = TwoQ::new(2);
        let mut sim = crate::cache_sim::CacheSim::new(q);
        for p in [1, 2, 3] {
            sim.access(p);
        }
        let ghost: Vec<PageId> = (0..10).filter(|p| sim.policy().in_a1out(*p)).collect();
        assert!(!ghost.is_empty());
        let g = ghost[0];
        let out = sim.policy_mut().record_miss(g, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
        assert!(
            sim.policy().in_a1out(g),
            "ghost entry must survive failed admission"
        );
    }
}
