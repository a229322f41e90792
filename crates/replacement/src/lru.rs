//! Least Recently Used — the canonical stack algorithm and the baseline
//! every other policy in the paper is defined against.

use crate::arena::{Arena, List};
use crate::frame_table::FrameTable;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// Classic LRU over a fixed set of frames. A single list, MRU at the
/// front; eviction takes the least recently used evictable frame.
pub struct Lru {
    arena: Arena,
    list: List, // front = MRU, back = LRU
    table: FrameTable,
}

impl Lru {
    /// Create an LRU policy managing `frames` buffer frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "LRU needs at least one frame");
        let mut arena = Arena::new(frames);
        let list = arena.new_list();
        Lru {
            arena,
            list,
            table: FrameTable::new(frames),
        }
    }

    /// Frames in eviction order (LRU first). Test aid.
    pub fn eviction_order(&self) -> Vec<FrameId> {
        self.list.iter_rev(&self.arena).collect()
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn frames(&self) -> usize {
        self.table.frames()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        if self.table.is_present(frame) {
            self.list.move_to_front(&mut self.arena, frame);
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
            self.list.push_front(&mut self.arena, f);
            return MissOutcome::AdmittedFree(f);
        }
        let Some(frame) = self.list.iter_rev(&self.arena).find(|&f| evictable(f)) else {
            return MissOutcome::NoEvictableFrame;
        };
        let victim = self.table.rebind(frame, page);
        self.list.move_to_front(&mut self.arena, frame);
        MissOutcome::Evicted { frame, victim }
    }

    fn evict(&mut self, evictable: &mut dyn FnMut(FrameId) -> bool) -> Option<(FrameId, PageId)> {
        let frame = self.list.iter_rev(&self.arena).find(|&f| evictable(f))?;
        self.list.remove(&mut self.arena, frame);
        Some((frame, self.table.unbind(frame)))
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        self.list.remove(&mut self.arena, frame);
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        assert_eq!(self.list.check(&self.arena), self.table.resident());
        for f in self.list.iter(&self.arena) {
            assert!(self.table.is_present(f), "linked frame {f} not resident");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::miss_full;

    fn fill(lru: &mut Lru, pages: &[PageId]) {
        for (i, &p) in pages.iter().enumerate() {
            let out = lru.record_miss(p, Some(i as FrameId), &mut |_| true);
            assert_eq!(out, MissOutcome::AdmittedFree(i as FrameId));
        }
    }

    #[test]
    fn evicts_least_recent() {
        let mut lru = Lru::new(3);
        fill(&mut lru, &[10, 20, 30]);
        // access order now 30, 20, 10 (MRU..LRU)
        let out = miss_full(&mut lru, 40);
        assert_eq!(out.victim(), Some(10));
        lru.check_invariants();
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = Lru::new(3);
        fill(&mut lru, &[10, 20, 30]);
        lru.record_hit(0); // page 10 becomes MRU
        let out = miss_full(&mut lru, 40);
        assert_eq!(out.victim(), Some(20));
        lru.check_invariants();
    }

    #[test]
    fn eviction_filter_skips_pinned() {
        let mut lru = Lru::new(3);
        fill(&mut lru, &[10, 20, 30]);
        // Frame 0 (page 10, LRU) is pinned: next-oldest 20 goes.
        let out = lru.record_miss(40, None, &mut |f| f != 0);
        assert_eq!(out.victim(), Some(20));
    }

    #[test]
    fn evict_takes_the_victim_a_miss_would_and_admits_nothing() {
        let mut lru = Lru::new(3);
        fill(&mut lru, &[10, 20, 30]);
        assert_eq!(lru.evict(&mut |f| f != 0), Some((1, 20)));
        assert_eq!(lru.page_at(1), None);
        assert_eq!(lru.resident_count(), 2);
        assert_eq!(lru.evict(&mut |_| false), None);
        // The untracked frame is a free frame to the next miss.
        let out = lru.record_miss(40, Some(1), &mut |_| true);
        assert_eq!(out, MissOutcome::AdmittedFree(1));
        lru.check_invariants();
    }

    #[test]
    fn all_pinned_reports_no_victim() {
        let mut lru = Lru::new(2);
        fill(&mut lru, &[1, 2]);
        let out = lru.record_miss(3, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
        assert_eq!(lru.resident_count(), 2);
    }

    #[test]
    fn remove_frees_frame() {
        let mut lru = Lru::new(2);
        fill(&mut lru, &[1, 2]);
        assert_eq!(lru.remove(0), Some(1));
        assert_eq!(lru.remove(0), None);
        assert_eq!(lru.resident_count(), 1);
        // freed frame can be re-supplied as free
        let out = lru.record_miss(3, Some(0), &mut |_| true);
        assert_eq!(out, MissOutcome::AdmittedFree(0));
        lru.check_invariants();
    }

    #[test]
    fn hit_on_evicted_frame_is_ignored() {
        let mut lru = Lru::new(1);
        fill(&mut lru, &[1]);
        lru.remove(0);
        lru.record_hit(0); // must not panic or corrupt state
        lru.check_invariants();
        assert_eq!(lru.resident_count(), 0);
    }

    #[test]
    fn eviction_order_matches_accesses() {
        let mut lru = Lru::new(3);
        fill(&mut lru, &[10, 20, 30]);
        lru.record_hit(1); // 20 MRU
        lru.record_hit(0); // 10 MRU
        assert_eq!(lru.eviction_order(), vec![2, 1, 0]); // 30 oldest
    }
}
