//! Inputs come from the seed alone, and with one thread so do the pool's
//! decisions.

mod common;

use std::time::Instant;

use bpw_perfbench::spec::SPECS;
use bpw_perfbench::workload::{pool_trace_hash, pool_traces, server_trace, server_trace_hash};

#[test]
fn the_seed_fixes_the_inputs() {
    for spec in &SPECS {
        let hash = |seed| {
            let spec = common::tiny(spec.name, seed, false).spec;
            (
                pool_trace_hash(&pool_traces(&spec, seed)),
                server_trace_hash(&server_trace(&spec, 0, seed)),
            )
        };
        assert_eq!(hash(7), hash(7), "{}", spec.name);
        let ((pool_a, srv_a), (pool_b, srv_b)) = (hash(7), hash(8));
        assert_ne!(pool_a, pool_b, "{}", spec.name);
        assert_ne!(srv_a, srv_b, "{}", spec.name);
    }
}

#[test]
fn one_thread_repeats_its_hits_and_misses() {
    let run = |seed| {
        let mut cfg = common::tiny("pool_miss_rw", seed, false);
        cfg.spec.threads = 1;
        let report = bpw_perfbench::run(&cfg, Instant::now());
        assert!(report.correct(), "{:?}", report.problems);
        (report.trace_hash, report.hits, report.misses)
    };
    let first = run(3);
    assert!(first.2 > 0, "the miss row misses");
    assert_eq!(first, run(3));
    assert_ne!(first.0, run(4).0);
}

#[test]
fn the_server_rows_repeat_their_hits_and_misses() {
    // One connection and one worker: requests reach the pool in trace order.
    let run = || {
        let report = bpw_perfbench::run(&common::tiny("srv_mixed_miss", 5, false), Instant::now());
        assert!(report.correct(), "{:?}", report.problems);
        (report.trace_hash, report.hits, report.misses)
    };
    assert_eq!(run(), run());
}
