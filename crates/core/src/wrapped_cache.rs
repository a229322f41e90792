//! A self-contained cache driver over a wrapped policy: page table,
//! free-frame list, and a private access queue, mirroring
//! [`CacheSim`](bpw_replacement::CacheSim) but routing every access
//! through the BP-Wrapper protocol.
//!
//! Its main purpose is verifying the paper's correctness claims:
//!
//! * delaying the bookkeeping "will not affect the threads getting
//!   correct data from the buffer" (§III-A), and
//! * "our techniques do not hurt hit ratios" (§IV-F, Fig. 8) — in fact,
//!   for a single thread the committed operation sequence is *identical*
//!   to the unwrapped policy's, because queued hits are always applied,
//!   in order, before any miss decision.

use std::collections::HashMap;
use std::sync::Arc;

use bpw_replacement::{FrameId, MissOutcome, PageId, ReplacementPolicy, SimStats};

use crate::config::WrapperConfig;
use crate::wrapper::{ArcAccessHandle, BpWrapper};

/// Single-threaded cache driver over a BP-wrapped policy.
pub struct WrappedCache<P: ReplacementPolicy> {
    handle: ArcAccessHandle<P>,
    map: HashMap<PageId, FrameId>,
    free: Vec<FrameId>,
    stats: SimStats,
    evictions: Option<Vec<PageId>>,
}

impl<P: ReplacementPolicy> WrappedCache<P> {
    /// Wrap `policy` with `config` and build a driver around it.
    pub fn new(policy: P, config: WrapperConfig) -> Self {
        let frames = policy.frames();
        assert_eq!(
            policy.resident_count(),
            0,
            "WrappedCache requires an empty policy"
        );
        let wrapper = Arc::new(BpWrapper::new(policy, config));
        WrappedCache {
            handle: wrapper.handle_arc(),
            map: HashMap::with_capacity(frames),
            free: (0..frames as FrameId).rev().collect(),
            stats: SimStats::default(),
            evictions: None,
        }
    }

    /// Opt into recording the victim page of every eviction, in order
    /// (mirrors [`CacheSim::with_eviction_log`](bpw_replacement::CacheSim::with_eviction_log)).
    pub fn with_eviction_log(mut self) -> Self {
        self.evictions = Some(Vec::new());
        self
    }

    /// Victim pages in eviction order (empty unless opted in).
    pub fn eviction_log(&self) -> &[PageId] {
        self.evictions.as_deref().unwrap_or(&[])
    }

    /// Access `page`; returns `true` on a hit.
    pub fn access(&mut self, page: PageId) -> bool {
        if let Some(&frame) = self.map.get(&page) {
            self.handle.record_hit(page, frame);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let free = self.free.pop();
        match self.handle.record_miss(page, free, &mut |_| true) {
            MissOutcome::AdmittedFree(f) => {
                self.map.insert(page, f);
            }
            MissOutcome::Evicted { frame, victim } => {
                self.map.remove(&victim);
                self.map.insert(page, frame);
                if let Some(log) = self.evictions.as_mut() {
                    log.push(victim);
                }
            }
            MissOutcome::NoEvictableFrame => {
                panic!("wrapped policy failed to evict with a permissive filter");
            }
        }
        false
    }

    /// Run a whole reference string.
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

    /// Hit/miss statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The underlying wrapper (lock stats, counters).
    pub fn wrapper(&self) -> &Arc<BpWrapper<P>> {
        self.handle.wrapper()
    }

    /// Commit any queued accesses.
    pub fn flush(&mut self) {
        self.handle.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_replacement::{CacheSim, PolicyKind};

    /// A skewed synthetic trace mixing a hot set with cold churn.
    fn mixed_trace(len: usize) -> Vec<PageId> {
        (0..len as u64)
            .map(|i| {
                if i % 3 == 0 {
                    1000 + (i * 7919) % 500 // cold-ish
                } else {
                    i % 24 // hot set
                }
            })
            .collect()
    }

    #[test]
    fn single_thread_equivalence_all_policies() {
        // The headline correctness property: with one thread, a
        // BP-wrapped policy makes byte-identical decisions to the bare
        // policy — batching only changes *when* bookkeeping runs, never
        // its order relative to miss decisions.
        let trace = mixed_trace(4000);
        for kind in PolicyKind::ALL {
            let mut bare = CacheSim::new(kind.build(32));
            let mut wrapped = WrappedCache::new(kind.build(32), WrapperConfig::default());
            for &p in &trace {
                let a = bare.access(p);
                let b = wrapped.access(p);
                assert_eq!(a, b, "{kind}: hit/miss diverged on page {p}");
            }
            assert_eq!(bare.stats(), wrapped.stats(), "{kind}");
        }
    }

    #[test]
    fn equivalence_holds_for_every_queue_size() {
        let trace = mixed_trace(2000);
        for s in [1usize, 2, 3, 7, 16, 64, 128] {
            let cfg = WrapperConfig {
                queue_size: s,
                batch_threshold: (s / 2).max(1),
                prefetching: s % 2 == 0, // exercise both prefetch settings
                combining: crate::Combining::Off,
            };
            let mut bare = CacheSim::new(PolicyKind::TwoQ.build(16));
            let mut wrapped = WrappedCache::new(PolicyKind::TwoQ.build(16), cfg);
            let a = bare.run(trace.iter().copied());
            let b = wrapped.run(trace.iter().copied());
            assert_eq!(a, b, "queue size {s}");
        }
    }

    #[test]
    fn batching_reduces_lock_acquisitions() {
        let trace: Vec<PageId> = (0..10_000u64).map(|i| i % 16).collect();
        let mut wrapped = WrappedCache::new(PolicyKind::Lirs.build(16), WrapperConfig::default());
        wrapped.run(trace.iter().copied());
        wrapped.flush();
        let acq = wrapped.wrapper().lock_stats().snapshot().acquisitions;
        // ~10k hit accesses in batches of >= 32: far fewer than 10k locks.
        assert!(
            acq < 500,
            "expected batched commits, got {acq} acquisitions"
        );
        let mut unbatched =
            WrappedCache::new(PolicyKind::Lirs.build(16), WrapperConfig::lock_per_access());
        unbatched.run(trace.iter().copied());
        let acq2 = unbatched.wrapper().lock_stats().snapshot().acquisitions;
        assert!(
            acq2 >= 10_000,
            "lock-per-access must lock every hit, got {acq2}"
        );
    }

    #[test]
    fn no_accesses_lost() {
        let mut wrapped = WrappedCache::new(PolicyKind::Mq.build(8), WrapperConfig::default());
        wrapped.run((0..1000u64).map(|i| i % 12));
        wrapped.flush();
        let c = wrapped.wrapper().counters();
        assert_eq!(c.accesses.get(), 1000);
        // hits committed (none stale in single-thread use) + misses
        let snap = wrapped.stats();
        assert_eq!(c.committed.get(), snap.hits);
        assert_eq!(c.stale_skipped.get(), 0);
    }
}
