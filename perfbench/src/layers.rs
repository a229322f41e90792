//! Numbers that pool rows and server rows derive the same way: per-epoch
//! medians, the pool's and the replacement lock's counters, the process's
//! resource use, and the single-threaded reference cache.

use std::sync::atomic::Ordering;
use std::time::Instant;

use bpw_metrics::LockSnapshot;
use bpw_replacement::{CacheSim, TwoQ};
use bpw_server::DynPool;

use crate::report::{select, select_layers, Report, Values};
use crate::spec::{self, Kind};
use crate::stats::{iqr_over_median, median, sorted_quantile_ns};
use crate::sys::{self, Rusage};

/// Wall and process-CPU time of each epoch; every epoch holds `ops`
/// operations.
#[derive(Debug, Default)]
pub struct Epochs {
    pub ops: u64,
    wall_ns: Vec<u64>,
    cpu_ns: Vec<u64>,
}

/// The clocks at an epoch's start.
pub struct EpochStart {
    wall: Instant,
    cpu_ns: u64,
}

impl Epochs {
    pub fn new(ops: u64) -> Epochs {
        Epochs {
            ops,
            ..Epochs::default()
        }
    }

    pub fn start() -> EpochStart {
        EpochStart {
            wall: Instant::now(),
            cpu_ns: sys::process_cpu_ns(),
        }
    }

    pub fn finish(&mut self, start: EpochStart) {
        self.wall_ns.push(start.wall.elapsed().as_nanos() as u64);
        self.cpu_ns.push(sys::process_cpu_ns() - start.cpu_ns);
    }

    pub fn count(&self) -> usize {
        self.wall_ns.len()
    }

    pub fn throughputs(&self) -> Vec<f64> {
        self.wall_ns
            .iter()
            .map(|&ns| self.ops as f64 * 1e9 / ns as f64)
            .collect()
    }

    /// Median over epochs of operations per second: never total over
    /// elapsed, which one slow stretch of the host moves.
    pub fn throughput_ops_s(&self) -> f64 {
        median(&self.throughputs())
    }

    pub fn cpu_ns_per_op(&self) -> Vec<f64> {
        self.cpu_ns
            .iter()
            .map(|&ns| ns as f64 / self.ops as f64)
            .collect()
    }

    /// Median over epochs of process CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        median(&self.cpu_ns_per_op()) / 1e3
    }

    /// Interquartile distance of epoch throughput over its median: whether
    /// the run is trustworthy at all.
    pub fn spread(&self) -> f64 {
        let t = self.throughputs();
        if t.len() < 2 {
            0.0
        } else {
            iqr_over_median(&t)
        }
    }
}

/// The counters of a pool and of its replacement and miss locks.
#[derive(Debug, Clone, Copy)]
pub struct PoolSnap {
    pub hits: u64,
    pub misses: u64,
    writebacks: u64,
    io_retries: u64,
    io_errors: u64,
    pin_cas_retries: u64,
    fallback_reads: u64,
    steals: u64,
    lock: LockSnapshot,
    miss_lock: LockSnapshot,
}

impl PoolSnap {
    pub fn take(pool: &DynPool) -> PoolSnap {
        let s = pool.stats();
        PoolSnap {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            writebacks: s.writebacks.load(Ordering::Relaxed),
            io_retries: s.io_retries.load(Ordering::Relaxed),
            io_errors: s.io_errors.load(Ordering::Relaxed),
            pin_cas_retries: s.pin_cas_retries.load(Ordering::Relaxed),
            fallback_reads: pool.page_table_fallback_reads(),
            steals: pool.free_list_steals(),
            lock: pool.manager().lock_snapshot(),
            miss_lock: pool.miss_lock_snapshot(),
        }
    }

    pub fn fetches(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Hits over fetches between two snapshots.
fn hit_ratio(before: &PoolSnap, after: &PoolSnap) -> f64 {
    let hits = after.hits - before.hits;
    hits as f64 / (after.fetches() - before.fetches()) as f64
}

/// The `core.lock_*` and counter-derived `bufferpool.*` values of the
/// window between two snapshots in which `ops` operations ran.
pub fn set_pool_counters(v: &mut Values, before: &PoolSnap, after: &PoolSnap, ops: u64) {
    let ops = ops as f64;
    let accesses = (after.fetches() - before.fetches()) as f64;
    let misses = (after.misses - before.misses) as f64;
    let lock = after.lock.since(&before.lock);
    let acqs = lock.acquisitions as f64;
    v.set_ratio("core.lock_acqs_per_kaccess", acqs * 1e3, accesses);
    v.set_ratio(
        "core.accesses_per_acquisition",
        lock.accesses_covered as f64,
        acqs,
    );
    v.set_ratio(
        "core.lock_contentions_per_maccess",
        lock.contentions as f64 * 1e6,
        accesses,
    );
    v.set_ratio(
        "core.lock_wait_ns_per_access",
        lock.wait_ns as f64,
        accesses,
    );
    v.set_ratio(
        "core.lock_hold_ns_per_access",
        lock.hold_ns as f64,
        accesses,
    );

    v.set_ratio("bufferpool.misses_per_kop", misses * 1e3, ops);
    v.set_ratio(
        "bufferpool.writebacks_per_kop",
        (after.writebacks - before.writebacks) as f64 * 1e3,
        ops,
    );
    v.set_ratio(
        "bufferpool.pin_cas_retries_per_mop",
        (after.pin_cas_retries - before.pin_cas_retries) as f64 * 1e6,
        ops,
    );
    v.set_ratio(
        "bufferpool.page_table_fallback_reads_per_mop",
        (after.fallback_reads - before.fallback_reads) as f64 * 1e6,
        ops,
    );
    v.set_ratio(
        "bufferpool.free_list_steals_per_kmiss",
        (after.steals - before.steals) as f64 * 1e3,
        misses,
    );
    let miss_lock = after.miss_lock.since(&before.miss_lock);
    v.set_ratio(
        "bufferpool.miss_lock_acqs_per_miss",
        miss_lock.acquisitions as f64,
        misses,
    );
    v.set_ratio(
        "bufferpool.miss_lock_contentions_per_mmiss",
        miss_lock.contentions as f64 * 1e6,
        misses,
    );
    v.set_ratio(
        "bufferpool.miss_lock_wait_ns_per_miss",
        miss_lock.wait_ns as f64,
        misses,
    );
    v.set_ratio(
        "bufferpool.miss_lock_hold_ns_per_miss",
        miss_lock.hold_ns as f64,
        misses,
    );
    v.set(
        "bufferpool.io_retries",
        (after.io_retries - before.io_retries) as f64,
    );
    v.set(
        "bufferpool.io_errors",
        (after.io_errors - before.io_errors) as f64,
    );
}

/// Resource use of the process at one instant.
pub struct ProcessSnap {
    rusage: Rusage,
    allocs: (u64, u64),
}

impl ProcessSnap {
    pub fn take() -> ProcessSnap {
        ProcessSnap {
            rusage: Rusage::now(),
            allocs: sys::alloc_counts(),
        }
    }
}

/// The `process.*` counts of the window between two snapshots.
pub fn set_process_counters(v: &mut Values, before: &ProcessSnap, after: &ProcessSnap, ops: u64) {
    let ops = ops as f64;
    let ru = after.rusage.since(&before.rusage);
    v.set_ratio(
        "process.allocs_per_op",
        (after.allocs.0 - before.allocs.0) as f64,
        ops,
    );
    v.set_ratio(
        "process.alloc_bytes_per_op",
        (after.allocs.1 - before.allocs.1) as f64,
        ops,
    );
    v.set_ratio(
        "process.vol_ctx_switches_per_kop",
        ru.vol_ctx_switches as f64 * 1e3,
        ops,
    );
    v.set_ratio(
        "process.invol_ctx_switches_per_kop",
        ru.invol_ctx_switches as f64 * 1e3,
        ops,
    );
    v.set_ratio(
        "process.minor_faults_per_kop",
        ru.minor_faults as f64 * 1e3,
        ops,
    );
    v.set_ratio(
        "process.sys_cpu_share",
        ru.sys_ns as f64,
        (ru.user_ns + ru.sys_ns) as f64,
    );
}

/// What the replacement policy alone makes of an access string: 2Q over
/// `frames` frames, one thread, no pool. The first quarter warms the cache
/// and is not counted.
struct SimResult {
    hit_ratio: f64,
    ns_per_access: f64,
}

fn reference_cache(frames: usize, accesses: &[u64]) -> SimResult {
    let mut sim = CacheSim::new(TwoQ::new(frames));
    let (warm, counted) = accesses.split_at(accesses.len() / 4);
    sim.run(warm.iter().copied());
    let before = sim.stats();
    let t0 = Instant::now();
    let after = sim.run(counted.iter().copied());
    let elapsed = t0.elapsed();
    SimResult {
        hit_ratio: (after.hits - before.hits) as f64 / counted.len() as f64,
        ns_per_access: elapsed.as_nanos() as f64 / counted.len() as f64,
    }
}

/// How far the pool's hit ratio may lie from the reference cache's before
/// the run fails: BP-Wrapper must not change what the policy decides.
const HIT_RATIO_TOLERANCE: f64 = 0.02;

/// What a row knows once its epochs are over.
pub struct Measured<'a> {
    pub setup_s: f64,
    /// The untraced measured epochs.
    pub plain: &'a Epochs,
    /// Latency samples of those epochs, nanoseconds.
    pub samples: &'a mut [u32],
    /// Pool counters before and after those epochs.
    pub window: (&'a PoolSnap, &'a PoolSnap),
    pub pool: &'a DynPool,
    /// The page accesses of one cycle of the run's inputs, in order.
    pub accesses: &'a [u64],
}

/// Set the values every row derives from its untraced epochs — the
/// end-to-end metrics but `peak_rss_mib`, and what is printed beside them —
/// and run the checks on the pool that every row shares.
pub fn set_measured(v: &mut Values, problems: &mut Vec<String>, m: Measured, traced: bool) {
    let frames = m.pool.frames();
    let (free, resident) = (m.pool.free_frames(), m.pool.resident_count());
    if free + resident != frames {
        problems.push(format!(
            "free {free} + resident {resident} != frames {frames}"
        ));
    }
    let measured_ratio = hit_ratio(m.window.0, m.window.1);
    let sim = reference_cache(frames, m.accesses);
    if (measured_ratio - sim.hit_ratio).abs() > HIT_RATIO_TOLERANCE {
        problems.push(format!(
            "hit ratio {measured_ratio:.4} is not within {HIT_RATIO_TOLERANCE} of the reference cache's {:.4}",
            sim.hit_ratio
        ));
    }
    // For whoever wonders why a run's median sits where it does.
    eprintln!(
        "epoch throughput, ops/s: {:?}",
        m.plain
            .throughputs()
            .iter()
            .map(|t| t.round())
            .collect::<Vec<_>>()
    );
    eprintln!("epoch cpu, ns/op: {:?}", m.plain.cpu_ns_per_op());
    m.samples.sort_unstable();
    let quantile_us = |q| f64::from(sorted_quantile_ns(m.samples, q)) / 1e3;
    v.set("setup_s", m.setup_s);
    v.set("throughput_ops_s", m.plain.throughput_ops_s());
    v.set("cpu_us_per_op", m.plain.cpu_us_per_op());
    v.set("latency_p50_us", quantile_us(0.5));
    v.set("hit_ratio", measured_ratio);
    v.set("process.epoch_spread", m.plain.spread());
    v.set("replacement.sim_hit_ratio", sim.hit_ratio);
    v.set("replacement.policy_ns_per_access", sim.ns_per_access);
    v.set("latency_samples", m.samples.len() as f64);
    v.set("epochs", m.plain.count() as f64);
    v.set("ops_per_epoch", m.plain.ops as f64);
    if traced {
        // Tails come from the untraced epochs: spans slow the sampled
        // transactions and batches down.
        v.set("client.latency_p99_us", quantile_us(0.99));
        v.set("client.latency_p999_us", quantile_us(0.999));
        v.set("client.latency_max_us", quantile_us(1.0));
    }
}

/// The operation counts and whole-run checks of a finished run.
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub trace_hash: u64,
}

/// Close a run: the mode's metrics in `BENCHMARK.json` order, and beside
/// them the values named in `extra_info` plus those every row prints.
pub fn report(
    mut v: Values,
    kind: Kind,
    traced: bool,
    extra_info: &[(&'static str, &'static str)],
    checks: Checks,
    window: (&PoolSnap, &PoolSnap),
) -> Report {
    // Last, so that it is the high-water mark of everything before.
    v.set("peak_rss_mib", sys::peak_rss_mib());
    let mut info = vec![
        ("epochs", "count"),
        ("ops_per_epoch", "count"),
        ("latency_samples", "count"),
    ];
    if traced {
        info.extend([("spans_recorded", "count"), ("spans_dropped", "count")]);
    } else {
        info.extend([
            ("process.epoch_spread", "ratio"),
            ("replacement.sim_hit_ratio", "ratio"),
        ]);
    }
    info.extend_from_slice(extra_info);
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        metrics: if traced {
            select_layers(&v, kind)
        } else {
            select(&v, &spec::END_TO_END)
        },
        info: select(&v, &info),
        trace_hash: checks.trace_hash,
        hits: window.1.hits - window.0.hits,
        misses: window.1.misses - window.0.misses,
    }
}
