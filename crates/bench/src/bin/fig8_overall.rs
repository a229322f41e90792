//! **Figure 8**: overall performance with buffers *smaller* than the
//! data set — "hit ratios and normalized throughputs of three postgresql
//! systems (pgClock, pgQ, pgBatPre) with workloads DBT-1 and DBT-2 on
//! the PowerEdge 1900 when the number of processors is 8", buffer size
//! swept from small to nearly data-sized.
//!
//! Two-stage reproduction:
//! 1. **Hit ratios** come from the real replacement algorithms (CLOCK vs
//!    2Q) running on traces captured from the workload generators —
//!    the BP-wrapped 2Q is *proven* access-equivalent to bare 2Q
//!    (see `bpw-core` property tests), so `pgQ` and `pgBatPre` share a
//!    curve, exactly as the paper observes ("the hit ratio curves of
//!    pgQ and pgBatPre overlap very well").
//! 2. **Throughput** comes from the multiprocessor simulator at 8 CPUs
//!    with each system's measured miss ratio driving the I/O model.

use std::sync::Arc;

use bpw_bench::{fmt, Table};
use bpw_core::{BpWrapper, SystemKind, WrapperConfig};
use bpw_replacement::{CacheSim, Clock, TwoQ};
use bpw_sim::{simulate, HardwareProfile, SimParams, SystemSpec, WorkloadParams};
use bpw_workloads::{Trace, WorkloadKind};

/// Interleave per-thread streams transaction-by-transaction into one
/// reference string, as concurrent backends would produce.
fn capture_trace(kind: WorkloadKind, threads: usize, accesses: usize) -> Vec<u64> {
    let w = kind.build();
    let txns_per_thread = 1_500;
    let traces = Trace::capture_per_thread(&*w, threads, txns_per_thread, 0xF168);
    let mut flat = Vec::with_capacity(accesses);
    let iters: Vec<_> = traces
        .iter()
        .map(|t| t.transactions().collect::<Vec<_>>())
        .collect();
    let mut round = 0;
    'outer: loop {
        let mut progressed = false;
        for txns in &iters {
            if let Some(txn) = txns.get(round) {
                flat.extend_from_slice(txn);
                progressed = true;
                if flat.len() >= accesses {
                    break 'outer;
                }
            }
        }
        if !progressed {
            break;
        }
        round += 1;
    }
    flat
}

fn main() {
    let threads = 8;
    let target_accesses = 400_000;
    for kind in [WorkloadKind::Dbt1, WorkloadKind::Dbt2] {
        let trace = capture_trace(kind, threads, target_accesses);
        let universe = kind.build().page_universe();
        println!(
            "{}: {} accesses over {} distinct pages (page universe {})\n",
            kind.name(),
            trace.len(),
            {
                let mut v = trace.clone();
                v.sort_unstable();
                v.dedup();
                v.len()
            },
            universe
        );

        let mut table = Table::new(
            &format!(
                "Fig. 8 ({}, PowerEdge 1900, 8 cpus): hit ratio and normalized throughput",
                kind.name()
            ),
            &[
                "buffer_MB",
                "frames",
                "hit%_pgClock",
                "hit%_pgQ",
                "hit%_pgBatPre",
                "ntput_pgClock",
                "ntput_pgQ",
                "ntput_pgBatPre",
            ],
        );

        for frac in [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32] {
            let frames = ((universe as f64 * frac) as usize).max(64);
            // Stage 1: real hit ratios, measured on a second pass over
            // the trace after a full warm-up pass — the paper pre-warms
            // the buffer before measuring.
            let second_pass = |mut hit: Box<dyn FnMut(u64) -> bool>| {
                for &p in &trace {
                    hit(p); // warm-up pass
                }
                let mut hits = 0u64;
                for &p in &trace {
                    if hit(p) {
                        hits += 1;
                    }
                }
                hits as f64 / trace.len() as f64
            };
            let clock_hr = {
                let mut sim = CacheSim::new(Clock::new(frames));
                second_pass(Box::new(move |p| sim.access(p)))
            };
            let q_hr = {
                let mut sim = CacheSim::new(TwoQ::new(frames));
                second_pass(Box::new(move |p| sim.access(p)))
            };
            let batpre_hr = {
                let wrapper = BpWrapper::new(TwoQ::new(frames), WrapperConfig::default());
                let mut sim = CacheSim::new(Arc::new(wrapper).handle_arc());
                second_pass(Box::new(move |p| sim.access(p)))
            };

            // Stage 2: simulated 8-cpu throughput with each miss ratio.
            let tput = |sys: SystemKind, hr: f64| {
                let wl = WorkloadParams::for_kind(kind)
                    .with_misses((1.0 - hr).clamp(0.0, 1.0), 1_500_000);
                let mut p = SimParams::new(
                    HardwareProfile::poweredge1900(),
                    8,
                    SystemSpec::new(sys),
                    wl,
                );
                p.horizon_ms = 800;
                simulate(p).throughput_tps
            };
            let t_clock = tput(SystemKind::Clock, clock_hr);
            let t_q = tput(SystemKind::LockPerAccess, q_hr);
            let t_batpre = tput(SystemKind::BatchingPrefetching, batpre_hr);
            let norm = t_batpre.max(1e-9);

            let mb = frames as f64 * 8192.0 / 1e6;
            table.row(vec![
                fmt(mb),
                frames.to_string(),
                fmt(clock_hr * 100.0),
                fmt(q_hr * 100.0),
                fmt(batpre_hr * 100.0),
                fmt(t_clock / norm),
                fmt(t_q / norm),
                fmt(1.0),
            ]);
        }
        table.print();
        table.write_csv(&format!(
            "fig8_{}",
            kind.name().to_lowercase().replace('-', "")
        ));
    }
    println!(
        "Paper's observations (Fig. 8): (1) pgQ/pgBatPre hit-ratio curves overlap —\n\
         BP-Wrapper does not hurt hit ratios; (2) with small buffers the 2Q systems\n\
         beat pgClock on hit ratio (I/O-bound regime); (3) as the buffer grows, pgQ's\n\
         lock contention drags it below pgClock, while pgBatPre keeps both advantages."
    );
}
