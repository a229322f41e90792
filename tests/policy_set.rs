//! Every policy in `bpw-replacement` earns its place. The paper's claim
//! is about its advanced five (LRU, 2Q, LIRS, MQ, ARC); any other policy
//! must be a baseline an experiment needs, or carry a *witness*: a trace
//! and a frame count on which it beats the five's best hit ratio by more
//! than `WIN_MARGIN` relative. A policy added without either fails here
//! by name.

use bpw_bench::{interleaved_trace, WIN_MARGIN};
use bpw_replacement::{CacheSim, PolicyKind};
use bpw_workloads::ZipfWorkload;

/// Kept without a hit-ratio win, each for the experiment it serves.
const BASELINES: [(PolicyKind, &str); 2] = [
    (
        PolicyKind::Clock,
        "the paper's pgClock: the lock-free hit path the wrapped policies are measured against",
    ),
    (
        PolicyKind::SeqLru,
        "ablation_queue_design's order-sensitive policy: why the access queue is per thread",
    ),
];

/// Frame counts on `compare_policies`' Zipf-0.9 trace where the policy
/// wins (CAR 0.5020 vs ARC 0.4983; LFU 0.3824 vs ARC 0.3752).
const WITNESSES: [(PolicyKind, usize); 2] = [(PolicyKind::Car, 1_000), (PolicyKind::Lfu, 250)];

fn hit_ratio(kind: PolicyKind, frames: usize, trace: &[u64]) -> f64 {
    CacheSim::new(kind.build(frames))
        .run(trace.iter().copied())
        .hit_ratio()
}

#[test]
fn every_policy_is_advanced_a_baseline_or_wins_somewhere() {
    let zipf = interleaved_trace(&ZipfWorkload::new(50_000, 0.9, 20), 4, 2_000, 0xCAFE);
    let mut unearned = Vec::new();
    for kind in PolicyKind::ALL {
        if PolicyKind::ADVANCED.contains(&kind) || BASELINES.iter().any(|&(k, _)| k == kind) {
            continue;
        }
        let Some(&(_, frames)) = WITNESSES.iter().find(|&&(k, _)| k == kind) else {
            unearned.push(format!("{kind}: no witness"));
            continue;
        };
        let hr = hit_ratio(kind, frames, &zipf);
        let (best, best_hr) = PolicyKind::ADVANCED
            .iter()
            .map(|&k| (k, hit_ratio(k, frames, &zipf)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("five advanced policies");
        if hr <= best_hr * (1.0 + WIN_MARGIN) {
            unearned.push(format!(
                "{kind}: {hr:.4} at {frames} frames does not beat {best}'s {best_hr:.4} by {WIN_MARGIN}"
            ));
        }
    }
    assert!(
        unearned.is_empty(),
        "policies that win nowhere: {unearned:?}"
    );
}
