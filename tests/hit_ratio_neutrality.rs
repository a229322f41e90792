//! The paper's §IV-F guarantee — "our techniques do not hurt hit ratios"
//! — verified end-to-end: on real workload traces, a BP-wrapped policy's
//! hit ratio equals the bare policy's exactly (single stream), and the
//! distributed-lock alternative from §V-A *does* hurt, which is why the
//! paper rejects it. Fig. 8 sets pgClock beside them: the live pool's
//! CLOCK manager must hit exactly where the simulated CLOCK does.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bench::{interleaved_trace, PartitionedCache};
use bpw_bufferpool::{BufferPool, ClockManager, SimDisk};
use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::{CacheSim, Clock, PolicyKind};
use bpw_workloads::{WorkloadKind, ZipfWorkload};

fn workload_trace(kind: WorkloadKind, txns: usize) -> Vec<u64> {
    interleaved_trace(&*kind.build(), 4, txns, 0xFEED)
}

/// Table I's commit configurations: one lock per access (`pgQ`) and
/// batching (`pgBat`).
fn commit_configs() -> [(&'static str, WrapperConfig); 2] {
    [
        ("pgQ", WrapperConfig::lock_per_access()),
        ("pgBat", WrapperConfig::default()),
    ]
}

#[test]
fn wrapped_hit_ratio_is_identical_on_paper_workloads() {
    for kind in WorkloadKind::ALL {
        let trace = workload_trace(kind, 150);
        for policy in [PolicyKind::TwoQ, PolicyKind::Lirs, PolicyKind::Mq] {
            // Neutrality must hold whatever the commit configuration:
            // a lock per access, or batches committed at the threshold.
            for (system, cfg) in commit_configs() {
                let frames = 1024;
                let w = BpWrapper::new(policy.build(frames), cfg);
                let mut bare = CacheSim::new(policy.build(frames));
                let mut wrapped = CacheSim::new(w.handle());
                let a = bare.run(trace.iter().copied());
                let b = wrapped.run(trace.iter().copied());
                assert_eq!(
                    a, b,
                    "{kind}/{policy}/{system}: wrapped hit/miss stats must be identical"
                );
            }
        }
    }
}

#[test]
fn live_pg_clock_hits_exactly_where_cache_sim_clock_does() {
    // One thread through a `BufferPool<ClockManager>` against Fig. 8's
    // `CacheSim<Clock>` column, on 100 000-access Zipf traces: small,
    // middling and large pools, each its own seed and page universe.
    for (frames, pages, seed) in [(64, 1_000, 0xC10C), (256, 8_000, 7), (1_024, 20_000, 42)] {
        let trace = interleaved_trace(&ZipfWorkload::new(pages, 0.9, 20), 4, 1_250, seed);
        let pool = BufferPool::new(
            frames,
            64,
            ClockManager::new(frames),
            Arc::new(SimDisk::instant()),
        );
        let mut session = pool.session();
        for &p in &trace {
            drop(session.fetch(p).expect("storage I/O failed"));
        }
        let live = (
            pool.stats().hits.load(Ordering::Relaxed),
            pool.stats().misses.load(Ordering::Relaxed),
        );
        let sim = CacheSim::new(Clock::new(frames)).run(trace.iter().copied());
        assert_eq!(live.0 + live.1, trace.len() as u64);
        assert_eq!(live, (sim.hits, sim.misses), "{frames} frames");
    }
}

#[test]
fn distributed_locks_hurt_hit_ratio() {
    // §V-A: partitioning the buffer localizes history and divides
    // capacity. The crisp failure mode: a working set that exactly fits
    // the global cache. Hashing spreads its pages unevenly over the
    // partitions, so some partitions overflow and thrash while others
    // sit half empty — capacity that a global policy would have used.
    let frames = 1024usize;
    let trace: Vec<u64> = (0..frames as u64).cycle().take(frames * 10).collect();

    let mut global = CacheSim::new(PolicyKind::TwoQ.build(frames));
    let global_hr = global.run(trace.iter().copied()).hit_ratio();

    let mut partitioned = PartitionedCache::new(16, frames / 16, bpw_replacement::TwoQ::new);
    for &p in &trace {
        partitioned.access(p);
    }
    let part_hr = partitioned.stats().hit_ratio();
    assert!(
        global_hr > 0.85,
        "global cache must hold an exact-fit working set ({global_hr:.4})"
    );
    assert!(
        part_hr < global_hr - 0.05,
        "partitioned ({part_hr:.4}) should clearly trail the global cache ({global_hr:.4})"
    );
}

#[test]
fn order_preservation_across_batch_boundaries() {
    // §III-A: "the order in which the batched operations are executed
    // does not change". Check with an order-sensitive trace: the state
    // after wrapped execution must equal the bare policy's exactly
    // (same resident set), not merely the same hit count.
    let trace = workload_trace(WorkloadKind::Dbt2, 60);
    let frames = 512;
    for (system, cfg) in commit_configs() {
        let w = BpWrapper::new(PolicyKind::Lirs.build(frames), cfg);
        let mut bare = CacheSim::new(PolicyKind::Lirs.build(frames));
        let mut wrapped = CacheSim::new(w.handle());
        for &p in &trace {
            bare.access(p);
            wrapped.access(p);
        }
        wrapped.policy_mut().flush();
        // Identical resident sets page-for-page.
        for &p in &trace {
            assert_eq!(
                bare.is_resident(p),
                wrapped.is_resident(p),
                "residency diverged for page {p} ({system})"
            );
        }
    }
}
