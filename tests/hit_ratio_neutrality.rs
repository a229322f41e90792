//! The paper's §IV-F guarantee — "our techniques do not hurt hit ratios"
//! — verified end-to-end: on real workload traces, a BP-wrapped policy's
//! hit ratio equals the bare policy's exactly (single stream), and the
//! distributed-lock alternative from §V-A *does* hurt, which is why the
//! paper rejects it.

use bpw_bench::{interleaved_trace, PartitionedCache};
use bpw_core::{WrappedCache, WrapperConfig};
use bpw_replacement::{CacheSim, PolicyKind};
use bpw_workloads::WorkloadKind;

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
                let mut bare = CacheSim::new(policy.build(frames));
                let mut wrapped = WrappedCache::new(policy.build(frames), cfg);
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
        let mut bare = CacheSim::new(PolicyKind::Lirs.build(frames));
        let mut wrapped = WrappedCache::new(PolicyKind::Lirs.build(frames), cfg);
        for &p in &trace {
            bare.access(p);
            wrapped.access(p);
        }
        wrapped.flush();
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
