//! Property tests for the BP-Wrapper protocol.
//!
//! The central theorem being exercised: for a single thread, the wrapped
//! policy commits its queued hits in recording order before every miss
//! decision, so the composed system is **observationally identical** to
//! the bare policy for any trace, any policy, and any (S, T) setting.

use bpw_core::{WrappedCache, WrapperConfig};
use bpw_replacement::{CacheSim, PolicyKind};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop::sample::select(PolicyKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact hit/miss equivalence with the bare policy for arbitrary
    /// traces, cache sizes, and batching parameters.
    #[test]
    fn wrapped_equals_bare(
        kind in any_policy(),
        frames in 2usize..24,
        queue_size in 1usize..96,
        threshold_frac in 1usize..=100,
        trace in prop::collection::vec(0u64..64, 1..600),
    ) {
        let threshold = ((queue_size * threshold_frac) / 100).clamp(1, queue_size);
        let cfg = WrapperConfig {
            queue_size,
            batch_threshold: threshold,
        };
        let mut bare = CacheSim::new(kind.build(frames));
        let mut wrapped = WrappedCache::new(kind.build(frames), cfg);
        for &p in &trace {
            let a = bare.access(p);
            let b = wrapped.access(p);
            prop_assert_eq!(a, b, "{} diverged on page {} (cfg {:?})", kind, p, cfg);
        }
        prop_assert_eq!(bare.stats(), wrapped.stats());
    }

    /// Lock accounting is conserved: every recorded access is either
    /// committed to the policy or (single-threaded: never) skipped, and
    /// the batch count never exceeds the access count.
    #[test]
    fn accounting_is_conserved(
        kind in any_policy(),
        frames in 2usize..16,
        trace in prop::collection::vec(0u64..32, 1..400),
    ) {
        let mut wrapped = WrappedCache::new(kind.build(frames), WrapperConfig::default());
        let stats = wrapped.run(trace.iter().copied());
        wrapped.flush();
        let c = wrapped.wrapper().counters();
        prop_assert_eq!(c.accesses.get(), trace.len() as u64);
        prop_assert_eq!(c.committed.get(), stats.hits);
        prop_assert_eq!(c.stale_skipped.get(), 0);
        prop_assert!(c.batches.get() <= c.accesses.get());
    }

    /// The effective batch size achieved is at least the configured
    /// threshold on a hit-only workload (no premature commits besides
    /// the final flush).
    #[test]
    fn batch_amortization_holds(
        s_exp in 1u32..7, // queue sizes 2..128
    ) {
        let queue_size = 1usize << s_exp;
        let threshold = (queue_size / 2).max(1);
        let cfg = WrapperConfig {
            queue_size,
            batch_threshold: threshold,
        };
        let frames = 16;
        let mut wrapped = WrappedCache::new(PolicyKind::Lru.build(frames), cfg);
        // Warm up, then hit-only phase.
        for p in 0..frames as u64 {
            wrapped.access(p);
        }
        let before = wrapped.wrapper().lock_stats().snapshot();
        let hits = 10_000u64;
        for i in 0..hits {
            wrapped.access(i % frames as u64);
        }
        wrapped.flush();
        let after = wrapped.wrapper().lock_stats().snapshot();
        let delta = after.since(&before);
        let per_acq = delta.accesses_per_acquisition();
        prop_assert!(
            per_acq >= threshold as f64 * 0.99,
            "expected >= {} accesses/lock, got {per_acq}",
            threshold
        );
    }
}

/// Multi-threaded smoke property (fixed seeds, not proptest-driven): the
/// wrapper under concurrent hits never corrupts the policy and never
/// loses an access.
#[test]
fn concurrent_hits_conserve_accounting() {
    use bpw_core::BpWrapper;
    for kind in PolicyKind::ALL {
        let frames = 128usize;
        let wrapper = BpWrapper::new(kind.build(frames), WrapperConfig::default());
        wrapper.with_locked(|p| {
            for i in 0..frames as u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        let threads = 4;
        let per_thread = 20_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wrapper = &wrapper;
                s.spawn(move || {
                    let mut h = wrapper.handle();
                    let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t + 1);
                    for _ in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let page = x % frames as u64;
                        h.record_hit(page, page as u32);
                    }
                });
            }
        });
        let c = wrapper.counters();
        assert_eq!(c.accesses.get(), threads * per_thread, "{kind}");
        assert_eq!(
            c.committed.get() + c.stale_skipped.get(),
            threads * per_thread,
            "{kind}: accesses lost"
        );
        // Hit-only workload: no evictions, so nothing can be stale.
        assert_eq!(c.stale_skipped.get(), 0, "{kind}");
        wrapper.with_locked(|p| {
            p.check_invariants();
            assert_eq!(p.resident_count(), frames);
        });
    }
}
