//! CAR — Clock with Adaptive Replacement (Bansal & Modha, FAST 2004).
//! The clock approximation of ARC, cited by the paper as the kind of
//! lock-friendly transformation that "usually cannot achieve the high hit
//! ratio" of its original. It is included both for the hit-ratio
//! comparisons and because its hit path (set a reference bit) needs no
//! lock, like CLOCK.

use crate::arena::{Arena, List};
use crate::frame_table::FrameTable;
use crate::linked_set::LinkedSet;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// The CAR replacement policy: two clocks `T1` (recency) and `T2`
/// (frequency) plus ghost lists `B1`/`B2` driving the adaptive target `p`.
pub struct Car {
    arena: Arena,
    t1: List, // clock: front = hand position, back = insertion point
    t2: List,
    referenced: Vec<bool>,
    b1: LinkedSet,
    b2: LinkedSet,
    p: usize,
    table: FrameTable,
}

impl Car {
    /// Create a CAR policy managing `frames` buffer frames.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "CAR needs at least one frame");
        let mut arena = Arena::new(frames);
        let t1 = arena.new_list();
        let t2 = arena.new_list();
        Car {
            arena,
            t1,
            t2,
            referenced: vec![false; frames],
            b1: LinkedSet::with_capacity(frames),
            b2: LinkedSet::with_capacity(frames),
            p: 0,
            table: FrameTable::new(frames),
        }
    }

    /// Current adaptation target (test aid).
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

    /// CAR's `replace()`: sweep the two clocks until an unreferenced,
    /// evictable page is found. Referenced `T1` pages earn promotion to
    /// `T2`; referenced `T2` pages get a second chance at the tail.
    fn replace(
        &mut self,
        remember_t1: bool,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> Option<(FrameId, PageId)> {
        // Each full pass clears reference bits, so a victim emerges within
        // two sweeps; pinned pages may force extra rotations, so bound the
        // loop and bail out if nothing is evictable.
        let total = self.t1.len() + self.t2.len();
        let mut steps = 0usize;
        let max_steps = 4 * total.max(1);
        while steps < max_steps {
            steps += 1;
            if self.t1.len() >= self.p.max(1) && !self.t1.is_empty() {
                let head = self.t1.front().expect("t1 non-empty");
                if self.referenced[head as usize] {
                    self.referenced[head as usize] = false;
                    self.t1.remove(&mut self.arena, head);
                    self.t2.push_back(&mut self.arena, head);
                } else if evictable(head) {
                    self.t1.remove(&mut self.arena, head);
                    let victim = self.table.unbind(head);
                    if remember_t1 {
                        self.b1.insert_front(victim);
                    }
                    return Some((head, victim));
                } else {
                    self.t1.move_to_back(&mut self.arena, head);
                }
            } else if !self.t2.is_empty() {
                let head = self.t2.front().expect("t2 non-empty");
                if self.referenced[head as usize] {
                    self.referenced[head as usize] = false;
                    self.t2.move_to_back(&mut self.arena, head);
                } else if evictable(head) {
                    self.t2.remove(&mut self.arena, head);
                    let victim = self.table.unbind(head);
                    self.b2.insert_front(victim);
                    return Some((head, victim));
                } else {
                    self.t2.move_to_back(&mut self.arena, head);
                }
            } else if !self.t1.is_empty() {
                // p may exceed |T1|; fall back to sweeping T1.
                let head = self.t1.front().expect("t1 non-empty");
                if self.referenced[head as usize] {
                    self.referenced[head as usize] = false;
                    self.t1.remove(&mut self.arena, head);
                    self.t2.push_back(&mut self.arena, head);
                } else if evictable(head) {
                    self.t1.remove(&mut self.arena, head);
                    let victim = self.table.unbind(head);
                    if remember_t1 {
                        self.b1.insert_front(victim);
                    }
                    return Some((head, victim));
                } else {
                    self.t1.move_to_back(&mut self.arena, head);
                }
            } else {
                return None;
            }
        }
        None
    }
}

impl ReplacementPolicy for Car {
    fn name(&self) -> &'static str {
        "CAR"
    }

    fn frames(&self) -> usize {
        self.table.frames()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        // CLOCK-like hit path: set the bit, move nothing.
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
        let c = self.table.frames();
        let in_b1 = self.b1.contains(page);
        let in_b2 = !in_b1 && self.b2.contains(page);
        let mut remember_t1 = true;

        if in_b1 {
            let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
            self.p = (self.p + delta).min(c);
        } else if in_b2 {
            let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
            self.p = self.p.saturating_sub(delta);
        } else {
            // History bound maintenance (CAR lines 12-15). When B1 is
            // empty the T1 eviction below is discarded, not remembered,
            // to preserve |T1|+|B1| <= c. Unlike ARC, both checks must
            // run: the sweep below may promote referenced T1 pages into
            // T2 and then evict into B2, so `|T1|+|B1| >= c` does not
            // imply the total directory has slack.
            if self.t1.len() + self.b1.len() >= c && self.b1.pop_oldest().is_none() {
                remember_t1 = false;
            }
            if self.t1.len() + self.t2.len() + self.b1.len() + self.b2.len() >= 2 * c {
                self.b2.pop_oldest();
            }
        }

        let (frame, outcome) = match free {
            Some(f) => (f, MissOutcome::AdmittedFree(f)),
            None => match self.replace(remember_t1, evictable) {
                Some((f, victim)) => (f, MissOutcome::Evicted { frame: f, victim }),
                None => return MissOutcome::NoEvictableFrame,
            },
        };

        self.table.bind(frame, page);
        self.referenced[frame as usize] = false;
        if in_b1 {
            self.b1.remove(page);
            self.t2.push_back(&mut self.arena, frame);
        } else if in_b2 {
            self.b2.remove(page);
            self.t2.push_back(&mut self.arena, frame);
        } else {
            self.t1.push_back(&mut self.arena, frame);
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
        self.referenced[frame as usize] = false;
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
        assert_eq!(t1 + t2, self.table.resident());
        assert!(t1 + t2 <= c);
        assert!(self.p <= c);
        assert!(t1 + self.b1.len() <= c, "|T1|+|B1| exceeds c");
        assert!(
            t1 + t2 + self.b1.len() + self.b2.len() <= 2 * c,
            "directory exceeds 2c"
        );
        for f in 0..c as FrameId {
            let linked = self.t1.contains(&self.arena, f) || self.t2.contains(&self.arena, f);
            assert_eq!(linked, self.table.is_present(f));
            if !self.table.is_present(f) {
                assert!(!self.referenced[f as usize]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_sim::CacheSim;

    #[test]
    fn hit_sets_bit_only() {
        let mut s = CacheSim::new(Car::new(4));
        s.access(1);
        let f = s.frame_of(1).unwrap();
        assert!(!s.policy().referenced[f as usize]);
        s.access(1);
        assert!(s.policy().referenced[f as usize]);
        assert_eq!(s.policy().list_sizes().0, 1); // still in T1
        s.check_consistency();
    }

    #[test]
    fn referenced_t1_promotes_to_t2_on_sweep() {
        let mut s = CacheSim::new(Car::new(2));
        s.access(1);
        s.access(1); // bit set
        s.access(2);
        s.access(3); // sweep: 1 (referenced) promoted to T2, victim found
        assert!(s.is_resident(1), "referenced page must survive sweep");
        let (_, t2, _, _) = s.policy().list_sizes();
        assert!(t2 >= 1);
        s.check_consistency();
    }

    #[test]
    fn ghost_hits_adapt_p() {
        let mut s = CacheSim::new(Car::new(4));
        s.access(1);
        s.access(1); // reference bit set: survives the first sweep into T2
        for p in [2, 3, 4] {
            s.access(p);
        }
        s.access(5); // sweep promotes 1, evicts 2 unremembered (|T1|=c case)
        s.access(6); // now |T1|+|B1| < c: this eviction lands in B1
        let ghost: Vec<PageId> = (1..7).filter(|&p| s.policy().b1.contains(p)).collect();
        assert!(!ghost.is_empty(), "expected a B1 ghost");
        let before = s.policy().p();
        s.access(ghost[0]);
        assert!(s.policy().p() >= before.max(1), "B1 hit must raise p");
        s.check_consistency();
    }

    #[test]
    fn bounded_under_churn() {
        let mut s = CacheSim::new(Car::new(8));
        for i in 0..2000u64 {
            s.access(i % 30);
            if i % 250 == 0 {
                s.check_consistency();
            }
        }
        s.check_consistency();
    }

    #[test]
    fn pinned_pages_rotate_not_evict() {
        let mut s = CacheSim::new(Car::new(3));
        for p in [1, 2, 3] {
            s.access(p);
        }
        let f1 = s.frame_of(1).unwrap();
        let out = s.policy_mut().record_miss(9, None, &mut |f| f != f1);
        assert_ne!(out.frame(), Some(f1));
        assert!(out.victim().is_some());
    }

    #[test]
    fn all_pinned_gives_up() {
        let mut s = CacheSim::new(Car::new(2));
        s.access(1);
        s.access(2);
        let out = s.policy_mut().record_miss(9, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
        s.check_consistency();
    }
}
