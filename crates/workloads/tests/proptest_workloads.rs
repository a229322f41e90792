//! Property tests for the workload generators: every stream must stay
//! inside its declared page universe, be deterministic per seed, and
//! produce non-empty transactions — for any thread id and any number of
//! transactions.

use bpw_workloads::{
    SequentialLoop, TableScan, TableScanConfig, Tpcc, TpccConfig, Tpcw, TpcwConfig, Trace, Uniform,
    Workload, WorkloadKind, ZipfWorkload,
};
use proptest::prelude::*;

fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Tpcw::new(TpcwConfig {
            items: 2_000,
            customers: 10_000,
            item_theta: 0.8,
        })),
        Box::new(Tpcc::new(TpccConfig { warehouses: 2 })),
        Box::new(TableScan::new(TableScanConfig {
            tables: 4,
            rows_per_table: 1_000,
            row_bytes: 100,
            page_bytes: 8192,
        })),
        Box::new(Uniform::new(500, 10)),
        Box::new(ZipfWorkload::new(500, 0.9, 10)),
        Box::new(SequentialLoop::new(100, 25)),
    ]
}

/// Named replay of a case proptest once shrank to (thread = 4,
/// seed = 639): TPC-C's shared append tails made two fresh instances
/// diverge for the same (thread, seed). Kept as a plain test instead of
/// a `.proptest-regressions` file so the case is visible, documented,
/// and runs everywhere by name.
#[test]
fn regression_determinism_thread4_seed639() {
    let (thread, seed) = (4usize, 639u64);
    for kind in WorkloadKind::ALL {
        let mut a = kind.build().stream(thread, seed);
        let ta = Trace::capture(&mut *a, 5);
        let mut b = kind.build().stream(thread, seed);
        let tb = Trace::capture(&mut *b, 5);
        assert_eq!(
            ta, tb,
            "{kind} not deterministic for thread {thread}, seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pages stay inside the universe; transactions are never empty.
    #[test]
    fn streams_respect_their_universe(
        thread in 0usize..16,
        seed in 0u64..1000,
        txns in 1usize..40,
    ) {
        for w in all_workloads() {
            let universe = w.page_universe();
            let mut stream = w.stream(thread, seed);
            let mut buf = Vec::new();
            for _ in 0..txns {
                let before = buf.len();
                stream.next_transaction(&mut buf);
                prop_assert!(buf.len() > before, "{}: empty transaction", w.name());
            }
            for &p in &buf {
                prop_assert!(p < universe, "{}: page {} outside universe {}", w.name(), p, universe);
            }
        }
    }

    /// Identical (thread, seed) produce identical streams across fresh
    /// workload instances. (Two streams drawn from the *same* instance
    /// may interact through shared state — TPC-C/TPC-W model shared
    /// append tails with atomic cursors — so determinism is defined per
    /// instance, like re-running a benchmark from a clean database.)
    #[test]
    fn determinism_per_seed(
        thread in 0usize..8,
        seed in 0u64..1000,
    ) {
        for kind in WorkloadKind::ALL {
            let mut a = kind.build().stream(thread, seed);
            let ta = Trace::capture(&mut *a, 5);
            let mut b = kind.build().stream(thread, seed);
            let tb = Trace::capture(&mut *b, 5);
            prop_assert_eq!(ta, tb, "{} not deterministic", kind);
        }
    }

    /// The Zipf sampler's most popular rank always dominates a uniform
    /// share for real skew values.
    #[test]
    fn zipf_rank_zero_dominates(
        theta in 0.5f64..0.99,
        n in 10u64..1000,
    ) {
        use rand::SeedableRng;
        let z = bpw_workloads::Zipf::new(n, theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let draws = 20_000;
        let zeros = (0..draws).filter(|_| z.sample(&mut rng) == 0).count();
        let uniform_share = draws as f64 / n as f64;
        prop_assert!(
            zeros as f64 > uniform_share,
            "rank 0 drew {} times, uniform share {:.1}",
            zeros,
            uniform_share
        );
    }
}
