//! Tiny runs for the self-tests: a few thousand operations per epoch.

use bpw_perfbench::spec::{spec, Kind};
use bpw_perfbench::RunConfig;

pub fn tiny(workload: &str, seed: u64, traced: bool) -> RunConfig {
    let mut spec = spec(workload).expect("a workload of BENCHMARK.json");
    spec.trace_len = 1 << 16;
    RunConfig {
        spec,
        seed,
        ops_per_epoch: match spec.kind {
            Kind::Pool => 1 << 15,
            Kind::Server => 1 << 13,
        },
        epochs: 3,
        traced_epochs: if traced { 2 } else { 0 },
        out_dir: None,
    }
}
