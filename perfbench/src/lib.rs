//! The repo's benchmark: four closed-loop workloads over the buffer pool
//! and the page server, six end-to-end metrics, and a traced run that
//! attributes them to layers. `README.md` says what is measured and why;
//! `../BENCHMARK.json` is the contract the driver checks it against.
//!
//! Every layer is measured from outside, through `pub` items of the
//! repository's crates; nothing in the repository changes.

pub mod calibrate;
pub mod layers;
pub mod pool_run;
pub mod probes;
pub mod report;
pub mod spans;
pub mod spec;
pub mod srv_run;
pub mod stats;
pub mod sys;
pub mod workload;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use spec::{Kind, Spec, EPOCHS, NOMINAL_SECONDS, TRACE_EPOCHS};

/// One (workload, seed) run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub spec: Spec,
    pub seed: u64,
    /// Operations per epoch; rounded down to whole transactions per
    /// thread (pool rows) or whole pipelines (server rows).
    pub ops_per_epoch: u64,
    /// Measured epochs without spans.
    pub epochs: usize,
    /// Epochs with spans after those; 0 for an untraced run.
    pub traced_epochs: usize,
    /// Where a traced run writes its Chrome trace; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl RunConfig {
    /// The run the driver asks for: `seconds` scales the fixed operation
    /// count of an epoch, so that the measured epochs take about that long
    /// on the host the counts were sized on. A traced run spends the time
    /// on fewer epochs plus the probes.
    pub fn from_cli(spec: Spec, seed: u64, seconds: u64, trace: bool) -> RunConfig {
        RunConfig {
            spec,
            seed,
            ops_per_epoch: (spec.ops_per_epoch * seconds / NOMINAL_SECONDS).max(1),
            epochs: if trace { TRACE_EPOCHS } else { EPOCHS },
            traced_epochs: if trace { TRACE_EPOCHS } else { 0 },
            out_dir: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")),
        }
    }
}

/// Run one workload. `started` is when the process started: set-up time
/// runs from there to the end of the warm-up epoch.
pub fn run(cfg: &RunConfig, started: Instant) -> Report {
    match cfg.spec.kind {
        Kind::Pool => pool_run::run(cfg, started),
        Kind::Server => srv_run::run(cfg, started),
    }
}

fn write_trace_file(cfg: &RunConfig, json: &str) {
    let Some(dir) = &cfg.out_dir else { return };
    let path = dir.join(format!("trace-{}-{}.json", cfg.spec.name, cfg.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json));
    if let Err(e) = written {
        // The trace file is for people; the run's numbers do not need it.
        eprintln!("could not write {}: {e}", path.display());
    }
}
