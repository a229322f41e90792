//! Single-threaded cache simulator: the one replay loop of this repo.
//! [`CacheSim`] keeps the page table (page → frame) and free-frame list a
//! real buffer pool would, and replays a page reference string into a
//! [`Recorder`]: a bare [`ReplacementPolicy`], or a BP-Wrapper access
//! handle (`bpw-core` implements the trait for it), so the wrapped and the
//! bare policy run the same loop. This is the harness behind hit-ratio
//! experiments (paper Fig. 8) and most tests.

use std::collections::HashMap;

use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// Aggregate access counts for a simulation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Accesses satisfied from the cache.
    pub hits: u64,
    /// Accesses requiring a (simulated) disk read.
    pub misses: u64,
}

impl SimStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 for an empty run.
    pub fn hit_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// What a [`CacheSim`] replays accesses into. Every policy is one (the
/// blanket impl below); so is anything that forwards to a policy, such as
/// a wrapper's access handle.
pub trait Recorder {
    /// Frames the recorder places pages in; a simulator starts with every
    /// one of them free, so the recorder must track no page yet.
    fn capacity(&self) -> usize;

    /// `page`, resident in `frame`, was accessed.
    fn hit(&mut self, page: PageId, frame: FrameId);

    /// `page` missed; place it in `free` if given, else evict any frame
    /// (see [`ReplacementPolicy::record_miss`]).
    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome;
}

impl<P: ReplacementPolicy> Recorder for P {
    fn capacity(&self) -> usize {
        self.frames()
    }

    fn hit(&mut self, _page: PageId, frame: FrameId) {
        self.record_hit(frame);
    }

    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome {
        self.record_miss(page, free, &mut |_| true)
    }
}

/// Drives a [`Recorder`] with page accesses, maintaining the page table
/// (page → frame) and free-frame list that a real buffer pool would.
pub struct CacheSim<R: Recorder> {
    policy: R,
    map: HashMap<PageId, FrameId>,
    free: Vec<FrameId>,
    stats: SimStats,
    evictions: Option<Vec<PageId>>,
}

impl<R: Recorder> CacheSim<R> {
    /// Replay into `policy` (a policy or a wrapper handle), with all
    /// frames free.
    pub fn new(policy: R) -> Self {
        let frames = policy.capacity();
        CacheSim {
            policy,
            map: HashMap::with_capacity(frames),
            free: (0..frames as FrameId).rev().collect(),
            stats: SimStats::default(),
            evictions: None,
        }
    }

    /// Opt into recording the victim page of every eviction, in order.
    /// The log is what the live-vs-shadow property tests compare.
    pub fn with_eviction_log(mut self) -> Self {
        self.evictions = Some(Vec::new());
        self
    }

    /// Victim pages in eviction order (empty unless
    /// [`CacheSim::with_eviction_log`] was used).
    pub fn eviction_log(&self) -> &[PageId] {
        self.evictions.as_deref().unwrap_or(&[])
    }

    /// Access `page`; returns `true` on a hit.
    pub fn access(&mut self, page: PageId) -> bool {
        if let Some(&frame) = self.map.get(&page) {
            self.policy.hit(page, frame);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let free = self.free.pop();
        match self.policy.miss(page, free) {
            MissOutcome::AdmittedFree(f) => {
                self.map.insert(page, f);
            }
            MissOutcome::Evicted { frame, victim } => {
                let removed = self.map.remove(&victim);
                debug_assert_eq!(removed, Some(frame), "victim {victim} map mismatch");
                self.map.insert(page, frame);
                if let Some(log) = self.evictions.as_mut() {
                    log.push(victim);
                }
            }
            MissOutcome::NoEvictableFrame => {
                // All-evictable filter means this is a policy bug.
                panic!("the policy failed to evict with a permissive filter");
            }
        }
        false
    }

    /// Run a whole reference string, returning final stats.
    pub fn run<I: IntoIterator<Item = PageId>>(&mut self, trace: I) -> SimStats {
        for page in trace {
            self.access(page);
        }
        self.stats
    }

    /// True if `page` is currently cached.
    pub fn is_resident(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Frame holding `page`, if resident.
    pub fn frame_of(&self, page: PageId) -> Option<FrameId> {
        self.map.get(&page).copied()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The policy or handle accesses are replayed into.
    pub fn policy(&self) -> &R {
        &self.policy
    }

    /// Mutable access to the policy or handle (bypasses the simulator's
    /// page table, so only use it for probing, or to flush a handle).
    pub fn policy_mut(&mut self) -> &mut R {
        &mut self.policy
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.map.len()
    }
}

impl<P: ReplacementPolicy> CacheSim<P> {
    /// Cross-check simulator and policy agree on the resident set.
    pub fn check_consistency(&self) {
        self.policy.check_invariants();
        assert_eq!(self.map.len(), self.policy.resident_count());
        for (&page, &frame) in &self.map {
            assert_eq!(
                self.policy.page_at(frame),
                Some(page),
                "frame {frame} should hold page {page}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Lru;

    #[test]
    fn counts_hits_and_misses() {
        let mut sim = CacheSim::new(Lru::new(2));
        assert!(!sim.access(1));
        assert!(!sim.access(2));
        assert!(sim.access(1));
        assert!(!sim.access(3)); // evicts 2
        assert!(!sim.access(2)); // miss again
        let s = sim.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 4);
        assert!((s.hit_ratio() - 0.2).abs() < 1e-12);
        sim.check_consistency();
    }

    #[test]
    fn run_trace() {
        let mut sim = CacheSim::new(Lru::new(3));
        let stats = sim.run([1, 2, 3, 1, 2, 3, 4, 4, 4]);
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn empty_stats() {
        let s = SimStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.total(), 0);
    }
}
