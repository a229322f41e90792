//! Property tests that `CacheSim` forecasts the live wrapped pool
//! exactly: the shadow [`CacheSim`] replay of a reference string must be
//! *behaviorally identical* to the live policy driven through
//! `BpWrapper` — not just the same hit/miss verdicts, but the same
//! **eviction sequence**, page for page, in order. This is what lets
//! Fig. 8, `compare_policies` and perfbench's `replacement.sim_hit_ratio`
//! quote a `CacheSim` hit ratio for the wrapped pool.

use bpw_core::{WrappedCache, WrapperConfig};
use bpw_replacement::{CacheSim, PolicyKind};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop::sample::select(PolicyKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every policy, arbitrary traces, and arbitrary batching
    /// parameters, the shadow simulation and the wrapped live policy
    /// evict exactly the same victims in exactly the same order.
    #[test]
    fn shadow_replay_matches_live_eviction_sequence(
        kind in any_policy(),
        frames in 2usize..16,
        queue_size in 1usize..64,
        threshold_frac in 1usize..=100,
        trace in prop::collection::vec(0u64..64, 1..600),
    ) {
        let threshold = ((queue_size * threshold_frac) / 100).clamp(1, queue_size);
        let cfg = WrapperConfig {
            queue_size,
            batch_threshold: threshold,
        };
        let mut shadow = CacheSim::new(kind.build(frames)).with_eviction_log();
        let mut live = WrappedCache::new(kind.build(frames), cfg).with_eviction_log();
        for &p in &trace {
            let a = shadow.access(p);
            let b = live.access(p);
            prop_assert_eq!(a, b, "{} hit/miss diverged on page {}", kind, p);
        }
        prop_assert_eq!(
            shadow.eviction_log(),
            live.eviction_log(),
            "{} eviction sequences diverged", kind
        );
        prop_assert_eq!(shadow.stats(), live.stats());
    }

    /// The same equivalence holds under eviction pressure with repeated
    /// phases (phase-change workloads), using default wrapper
    /// parameters.
    #[test]
    fn shadow_replay_matches_live_across_phases(
        kind in any_policy(),
        frames in 2usize..12,
        hot in prop::collection::vec(0u64..8, 1..100),
        scan_len in 1u64..64,
    ) {
        let cfg = WrapperConfig::default();
        let mut shadow = CacheSim::new(kind.build(frames)).with_eviction_log();
        let mut live = WrappedCache::new(kind.build(frames), cfg).with_eviction_log();
        // Phase 1: hot-set reuse. Phase 2: a scan. Phase 3: hot again.
        let trace: Vec<u64> = hot
            .iter()
            .copied()
            .chain((100..100 + scan_len).chain(hot.iter().copied()))
            .collect();
        for &p in &trace {
            prop_assert_eq!(shadow.access(p), live.access(p), "{} diverged", kind);
        }
        prop_assert_eq!(shadow.eviction_log(), live.eviction_log(), "{kind}");
    }
}
