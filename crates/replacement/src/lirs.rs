//! LIRS — Low Inter-reference Recency Set (Jiang & Zhang, SIGMETRICS
//! 2002). One of the advanced policies the paper cites as having no
//! faithful clock approximation and therefore needing BP-Wrapper to be
//! deployable in a highly concurrent DBMS.
//!
//! Pages are classified by *inter-reference recency* (IRR): LIR (low-IRR,
//! "hot") pages own most of the cache; HIR pages get a small allocation
//! (`lhirs`, `HIR_PERCENT` = 1% of frames, at least one, the paper's
//! setting) and are evicted quickly — but their history stays on the
//! LIRS stack `S`, so a re-reference with small reuse distance promotes
//! them to LIR.
//!
//! # Structures
//!
//! * Stack `S`: recency-ordered, holds LIR pages, resident HIR pages, and
//!   *non-resident* HIR pages (ghosts). Its bottom entry is always LIR
//!   (maintained by *stack pruning*).
//! * Queue `Q`: resident HIR pages in last-access order; the front is the
//!   eviction candidate.
//!
//! The number of non-resident entries retained in `S` is bounded
//! (`ghost_cap`, `GHOST_MULTIPLE` = 2× frames), as in all practical LIRS
//! deployments; the oldest ghost is dropped on overflow. Ghost creation
//! order matches stack order (evictions pop the minimum last-access time
//! in `Q`), so a FIFO of ghosts identifies the lowest one in `S` in O(1).

use std::collections::HashMap;

use crate::arena::{Arena, GhostSlots, List};
use crate::frame_table::FrameTable;
use crate::linked_set::LinkedSet;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// Percent of frames allocated to resident HIR pages (paper: 1%).
const HIR_PERCENT: usize = 1;
/// Ghost (non-resident HIR) capacity as a multiple of frames.
const GHOST_MULTIPLE: usize = 2;

/// The LIRS replacement policy.
pub struct Lirs {
    arena: Arena,
    /// Recency stack. Node ids: `f` for frame `f`, ghost slots above `2*frames`.
    s: List,
    /// Resident-HIR queue. Node ids: `frames + f` for frame `f`.
    q: List,
    is_lir: Vec<bool>,
    lir_count: usize,
    llirs: usize,
    ghost_slots: GhostSlots,
    ghost_page: Vec<PageId>,        // indexed by slot - ghost_base
    ghost_of: HashMap<PageId, u32>, // page -> ghost node
    ghost_order: LinkedSet,         // ghost pages, newest first
    table: FrameTable,
}

impl Lirs {
    /// Create a LIRS policy with the paper's 1% HIR allocation.
    pub fn new(frames: usize) -> Self {
        assert!(frames >= 2, "LIRS needs at least two frames");
        let lhirs = (frames * HIR_PERCENT / 100).clamp(1, frames - 1);
        let ghost_cap = frames * GHOST_MULTIPLE;
        let mut arena = Arena::new(2 * frames + ghost_cap);
        let s = arena.new_list();
        let q = arena.new_list();
        Lirs {
            arena,
            s,
            q,
            is_lir: vec![false; frames],
            lir_count: 0,
            llirs: frames - lhirs,
            ghost_slots: GhostSlots::new(2 * frames as u32, ghost_cap),
            ghost_page: vec![0; ghost_cap],
            ghost_of: HashMap::with_capacity(ghost_cap),
            ghost_order: LinkedSet::with_capacity(ghost_cap),
            table: FrameTable::new(frames),
        }
    }

    fn nframes(&self) -> usize {
        self.table.frames()
    }

    /// Q node id for frame `f`.
    fn qnode(&self, f: FrameId) -> u32 {
        self.nframes() as u32 + f
    }

    fn is_ghost_node(&self, node: u32) -> bool {
        node >= self.ghost_slots.base()
    }

    fn is_frame_node(&self, node: u32) -> bool {
        (node as usize) < self.nframes()
    }

    /// True if page `p` has a non-resident (ghost) entry on the stack.
    pub fn is_ghost(&self, p: PageId) -> bool {
        self.ghost_of.contains_key(&p)
    }

    /// Number of LIR pages (test aid).
    #[cfg(test)]
    fn lir_count(&self) -> usize {
        self.lir_count
    }

    /// LIR capacity (test aid).
    #[cfg(test)]
    fn llirs(&self) -> usize {
        self.llirs
    }

    /// True if `frame` currently holds a LIR page (test aid).
    #[cfg(test)]
    fn is_lir_frame(&self, frame: FrameId) -> bool {
        self.table.is_present(frame) && self.is_lir[frame as usize]
    }

    /// Remove HIR entries (resident or ghost) from the stack bottom until
    /// the bottom is LIR.
    fn prune(&mut self) {
        while let Some(bottom) = self.s.back() {
            if self.is_frame_node(bottom) && self.is_lir[bottom as usize] {
                break;
            }
            self.s.remove(&mut self.arena, bottom);
            if self.is_ghost_node(bottom) {
                self.drop_ghost_record(bottom);
            }
            // A resident HIR pruned off S stays in Q, just loses history.
        }
    }

    fn drop_ghost_record(&mut self, node: u32) {
        let page = self.ghost_page[(node - self.ghost_slots.base()) as usize];
        self.ghost_of.remove(&page);
        self.ghost_order.remove(page);
        self.ghost_slots.dealloc(node);
    }

    /// Turn the page just evicted from frame `f` into a ghost entry at
    /// `f`'s stack position (if `f` was on the stack).
    fn ghostify(&mut self, f: FrameId, page: PageId) {
        if !self.s.contains(&self.arena, f) {
            return; // pruned off the stack: history already gone
        }
        // Make room in the ghost pool, dropping the lowest ghost on S.
        let slot = match self.ghost_slots.alloc() {
            Some(s) => s,
            None => {
                let oldest = self
                    .ghost_order
                    .peek_oldest()
                    .expect("ghost pool exhausted but no ghosts recorded");
                let node = self.ghost_of[&oldest];
                self.s.remove(&mut self.arena, node);
                self.drop_ghost_record(node);
                self.ghost_slots.alloc().expect("slot just freed")
            }
        };
        self.s.insert_before(&mut self.arena, f, slot);
        self.s.remove(&mut self.arena, f);
        self.ghost_page[(slot - self.ghost_slots.base()) as usize] = page;
        self.ghost_of.insert(page, slot);
        self.ghost_order.insert_front(page);
    }

    /// Demote the stack-bottom LIR page to resident HIR (end of Q).
    fn demote_bottom(&mut self) {
        let bottom = self.s.back().expect("demote on empty stack");
        debug_assert!(self.is_frame_node(bottom) && self.is_lir[bottom as usize]);
        self.s.remove(&mut self.arena, bottom);
        self.is_lir[bottom as usize] = false;
        self.lir_count -= 1;
        let qn = self.qnode(bottom as FrameId);
        self.q.push_back(&mut self.arena, qn);
        self.prune();
    }

    /// Free a frame for a new page: take `free`, else evict the resident
    /// HIR at the front of Q, else (pins permitting) a LIR page.
    fn secure_frame(
        &mut self,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> Option<(FrameId, Option<PageId>)> {
        if let Some(f) = free {
            return Some((f, None));
        }
        // Normal path: oldest resident HIR.
        let hit = self
            .q
            .iter(&self.arena)
            .map(|n| (n - self.nframes() as u32) as FrameId)
            .find(|&f| evictable(f));
        if let Some(f) = hit {
            let qn = self.qnode(f);
            self.q.remove(&mut self.arena, qn);
            let victim = self.table.unbind(f);
            self.ghostify(f, victim);
            return Some((f, Some(victim)));
        }
        // Emergency path (all HIR pinned): evict the oldest evictable LIR.
        let lir = self
            .s
            .iter_rev(&self.arena)
            .filter(|&n| self.is_frame_node(n) && self.is_lir[n as usize])
            .map(|n| n as FrameId)
            .find(|&f| evictable(f));
        if let Some(f) = lir {
            self.s.remove(&mut self.arena, f);
            self.is_lir[f as usize] = false;
            self.lir_count -= 1;
            let victim = self.table.unbind(f);
            self.prune();
            return Some((f, Some(victim)));
        }
        None
    }
}

impl ReplacementPolicy for Lirs {
    fn name(&self) -> &'static str {
        "LIRS"
    }

    fn frames(&self) -> usize {
        self.nframes()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        if !self.table.is_present(frame) {
            return;
        }
        let node = frame;
        if self.is_lir[frame as usize] {
            let was_bottom = self.s.back() == Some(node);
            self.s.move_to_front(&mut self.arena, node);
            if was_bottom {
                self.prune();
            }
        } else if self.s.contains(&self.arena, node) {
            // Resident HIR with small reuse distance: promote to LIR.
            self.s.move_to_front(&mut self.arena, node);
            let qn = self.qnode(frame);
            self.q.remove(&mut self.arena, qn);
            self.is_lir[frame as usize] = true;
            self.lir_count += 1;
            if self.lir_count > self.llirs {
                self.demote_bottom();
            }
        } else {
            // Resident HIR not on stack: refresh recency in both structures.
            self.s.push_front(&mut self.arena, node);
            let qn = self.qnode(frame);
            self.q.move_to_back(&mut self.arena, qn);
        }
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        // Warmup: LIR set not yet full, every miss becomes LIR.
        if let (true, Some(f)) = (self.lir_count < self.llirs, free) {
            self.table.bind(f, page);
            self.is_lir[f as usize] = true;
            self.lir_count += 1;
            self.s.push_front(&mut self.arena, f);
            // A ghost may exist if the page was evicted before warmup
            // completed (e.g. after an invalidation); clear it.
            if let Some(node) = self.ghost_of.get(&page).copied() {
                self.s.remove(&mut self.arena, node);
                self.drop_ghost_record(node);
            }
            return MissOutcome::AdmittedFree(f);
        }

        let Some((f, victim)) = self.secure_frame(free, evictable) else {
            return MissOutcome::NoEvictableFrame;
        };
        self.table.bind(f, page);

        if let Some(node) = self.ghost_of.get(&page).copied() {
            // Non-resident HIR re-referenced: IRR beat the LIR set — promote.
            self.s.remove(&mut self.arena, node);
            self.drop_ghost_record(node);
            self.is_lir[f as usize] = true;
            self.lir_count += 1;
            self.s.push_front(&mut self.arena, f);
            if self.lir_count > self.llirs {
                self.demote_bottom();
            }
        } else {
            // Cold page: resident HIR on stack top and rear of Q.
            self.is_lir[f as usize] = false;
            self.s.push_front(&mut self.arena, f);
            let qn = self.qnode(f);
            self.q.push_back(&mut self.arena, qn);
        }

        match victim {
            Some(v) => MissOutcome::Evicted {
                frame: f,
                victim: v,
            },
            None => MissOutcome::AdmittedFree(f),
        }
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        if self.is_lir[frame as usize] {
            self.s.remove(&mut self.arena, frame);
            self.is_lir[frame as usize] = false;
            self.lir_count -= 1;
            self.prune();
        } else {
            let qn = self.qnode(frame);
            self.q.remove(&mut self.arena, qn);
            if self.s.contains(&self.arena, frame) {
                self.s.remove(&mut self.arena, frame);
            }
        }
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        self.s.check(&self.arena);
        self.q.check(&self.arena);
        self.ghost_order.check();
        assert!(self.lir_count <= self.llirs, "LIR set over capacity");
        assert_eq!(self.ghost_of.len(), self.ghost_order.len());
        assert_eq!(self.ghost_of.len(), self.ghost_slots.in_use());
        // Bottom of a non-empty stack must be LIR.
        if let Some(bottom) = self.s.back() {
            assert!(
                self.is_frame_node(bottom) && self.is_lir[bottom as usize],
                "stack bottom must be LIR"
            );
        }
        let mut lir_seen = 0;
        for f in 0..self.nframes() as FrameId {
            let present = self.table.is_present(f);
            if self.is_lir[f as usize] {
                assert!(present, "LIR frame {f} not resident");
                lir_seen += 1;
                assert!(
                    self.s.contains(&self.arena, f),
                    "LIR frame {f} not on stack"
                );
                assert!(
                    !self.q.contains(&self.arena, self.qnode(f)),
                    "LIR frame {f} in Q"
                );
            } else if present {
                assert!(
                    self.q.contains(&self.arena, self.qnode(f)),
                    "HIR frame {f} not in Q"
                );
            } else {
                assert!(!self.s.contains(&self.arena, f), "empty frame {f} on stack");
                assert!(
                    !self.q.contains(&self.arena, self.qnode(f)),
                    "empty frame {f} in Q"
                );
            }
        }
        assert_eq!(lir_seen, self.lir_count);
        // Ghost set consistency: every ghost node on stack, order matches S.
        for (&page, &node) in &self.ghost_of {
            assert!(self.s.contains(&self.arena, node), "ghost {page} off stack");
            assert!(self.ghost_order.contains(page));
            assert_eq!(
                self.ghost_page[(node - self.ghost_slots.base()) as usize],
                page
            );
        }
        // ghost_order must track the stack's ghost *set*. (Exact order
        // normally matches too, but pinned-frame evictions — which skip
        // the front of Q — can legally perturb it, so the invariant is
        // set equality; the overflow path only needs an approximately
        // lowest ghost.)
        let mut on_stack: Vec<PageId> = self
            .s
            .iter(&self.arena)
            .filter(|&n| self.is_ghost_node(n))
            .map(|n| self.ghost_page[(n - self.ghost_slots.base()) as usize])
            .collect();
        let mut in_order: Vec<PageId> = self.ghost_order.iter().collect();
        on_stack.sort_unstable();
        in_order.sort_unstable();
        assert_eq!(on_stack, in_order, "ghost set diverged from stack");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_sim::CacheSim;

    fn sim(frames: usize) -> CacheSim<Lirs> {
        CacheSim::new(Lirs::new(frames))
    }

    #[test]
    fn warmup_fills_lir_first() {
        let mut s = sim(10); // llirs = 9, lhirs = 1
        for p in 0..9 {
            s.access(p);
        }
        assert_eq!(s.policy().lir_count(), 9);
        s.access(9); // LIR full: becomes resident HIR
        assert_eq!(s.policy().lir_count(), 9);
        s.check_consistency();
    }

    #[test]
    fn ghost_rereference_promotes() {
        let mut s = sim(10); // llirs = 9, lhirs = 1
        for p in 0..10 {
            s.access(p);
        }
        // 9 is the resident HIR. Miss on 10 evicts 9 (front of Q) -> ghost.
        s.access(10);
        assert!(!s.is_resident(9));
        assert!(s.policy().is_ghost(9));
        // Re-access 9 while ghosted: must be promoted to LIR on return.
        s.access(9);
        assert!(s.is_resident(9));
        let f = s.frame_of(9).unwrap();
        assert!(
            s.policy().is_lir_frame(f),
            "ghost re-reference must yield LIR"
        );
        s.check_consistency();
    }

    #[test]
    fn resident_hir_promotion_on_stack_hit() {
        let mut s = sim(10);
        for p in 0..10 {
            s.access(p);
        }
        let f9 = s.frame_of(9).unwrap();
        assert!(!s.policy().is_lir_frame(f9));
        s.access(9); // resident HIR on stack: promote, demote a LIR page
        assert!(s.policy().is_lir_frame(f9));
        assert_eq!(s.policy().lir_count(), s.policy().llirs());
        s.check_consistency();
    }

    #[test]
    fn scan_resistance() {
        // LIRS's signature property: a one-shot scan cannot displace the
        // LIR working set.
        let mut s = sim(100); // one resident HIR frame
        let hot: Vec<PageId> = (0..90).collect();
        for _ in 0..3 {
            for &p in &hot {
                s.access(p);
            }
        }
        // Long scan of cold pages.
        for p in 1000..2000 {
            s.access(p);
        }
        let resident_hot = hot.iter().filter(|&&p| s.is_resident(p)).count();
        assert!(
            resident_hot >= 85,
            "scan displaced hot set: only {resident_hot}/90 survive"
        );
        s.check_consistency();
    }

    #[test]
    fn lirs_beats_lru_on_loop_slightly_larger_than_cache() {
        // A cyclic access pattern one page larger than the cache gives
        // LRU a 0% hit ratio; LIRS keeps most of the loop resident.
        let frames = 50;
        let loop_len = 55u64;
        let trace: Vec<PageId> = (0..20 * loop_len).map(|i| i % loop_len).collect();
        let mut lirs = CacheSim::new(Lirs::new(frames));
        let mut lru = CacheSim::new(crate::lru::Lru::new(frames));
        let a = lirs.run(trace.iter().copied());
        let b = lru.run(trace.iter().copied());
        assert!(
            a.hit_ratio() > b.hit_ratio() + 0.3,
            "LIRS {:.3} should beat LRU {:.3} on a loop",
            a.hit_ratio(),
            b.hit_ratio()
        );
        lirs.check_consistency();
    }

    #[test]
    fn ghost_pool_overflow_drops_oldest() {
        let mut s = sim(4); // ghost cap = 8
        for p in 0..100 {
            s.access(p);
            s.check_consistency();
        }
    }

    #[test]
    fn eviction_filter_respected() {
        let mut s = sim(4); // llirs = 3
        for p in 0..4 {
            s.access(p);
        }
        // Pin everything: no eviction possible.
        let out = s.policy_mut().record_miss(99, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
        s.check_consistency();
    }

    #[test]
    fn remove_lir_page_keeps_stack_legal() {
        let mut s = sim(6);
        for p in 0..6 {
            s.access(p);
        }
        // Invalidate a LIR page via the policy directly.
        let f = s.frame_of(0).unwrap();
        if s.policy().is_lir_frame(f) {
            s.policy_mut().remove(f);
            s.policy().check_invariants();
        }
    }

    #[test]
    fn random_trace_consistency() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut s = sim(16);
        for _ in 0..3000 {
            let p = rng.gen_range(0..64u64);
            s.access(p);
        }
        s.check_consistency();
        assert!(s.stats().hits > 0);
    }
}
