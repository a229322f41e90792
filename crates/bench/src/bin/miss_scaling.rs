//! Scaling experiment for the two contended paths the wrapper owns:
//!
//! * **commit path** (hit-heavy, working set = pool): every access is a
//!   recorded hit, so the replacement lock is the only shared resource
//!   and the combining modes differ visibly — `off` blocks at
//!   queue-full, `flat` publishes on any contended threshold crossing
//!   and drains whole slates.
//! * **miss path** (miss-heavy, working set = 4x pool): coarse (one
//!   global miss lock, the seed design) vs sharded (one miss lock per
//!   page-table shard, up to 16 free-list stripes).
//!
//! Three row kinds land in `results/miss_path_scaling.jsonl`:
//!
//! * `measured` — real threads on this host, 1/2/4/8(/16) of them. The
//!   *counts* are scheduling-robust anywhere (publishes, drains,
//!   per-shard spread, free-list steals); the *wall clock* only shows
//!   parallel speedup when the host has cores to run on.
//! * `freelist` — the Treiber-stack churn microbench over the padded
//!   stripe heads.
//! * `simulated` — the bpw-sim discrete-event model at 8/16/32 CPUs,
//!   where the combining modes separate deterministically regardless of
//!   the host. These rows replace the old closed-form `modeled` rows.
//!
//! `--quick` runs a reduced sweep and exits nonzero unless the sharded
//! miss path projects >= 2x the coarse baseline at 8 threads
//! (operational-law calibration from the measured single-thread run) —
//! the CI regression gate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bpw_bufferpool::{BufferPool, SimDisk, StripedFreeList, WrappedManager};
use bpw_core::{Combining, SystemKind, WrapperConfig};
use bpw_metrics::JsonObject;
use bpw_replacement::TwoQ;
use bpw_sim::{simulate, HardwareProfile, RunReport, SimParams, SystemSpec, WorkloadParams};

const FRAMES: usize = 512;
/// Miss workload: working set 4x the pool; uniform access gives ~25%
/// hits, well under the <=50% the experiment calls for.
const MISS_WORKING_SET: u64 = 4 * FRAMES as u64;
/// Commit workload: working set == pool, so after warmup every access
/// is a hit and only the commit path is exercised.
const COMMIT_WORKING_SET: u64 = FRAMES as u64;

struct Measured {
    accesses: u64,
    hits: u64,
    misses: u64,
    wall_ns: u64,
    throughput_maccs: f64,
    shards: usize,
    lock_total_acquisitions: u64,
    lock_total_contentions: u64,
    lock_total_wait_ns: u64,
    lock_total_hold_ns: u64,
    lock_max_wait_ns: u64,
    shards_touched: usize,
    free_list_steals: u64,
    published: u64,
    publish_fallbacks: u64,
    reclaimed: u64,
    combined_batches: u64,
    combined_entries: u64,
    combine_passes: u64,
    combine_depth_peak: u64,
}

fn run_measured(
    mode: &str,
    combining: Combining,
    threads: u64,
    total_accesses: u64,
    working_set: u64,
) -> Measured {
    let cfg = WrapperConfig::default().with_combining_mode(combining);
    let mut pool: BufferPool<WrappedManager<TwoQ>> = BufferPool::new(
        FRAMES,
        64,
        WrappedManager::new(TwoQ::new(FRAMES), cfg),
        Arc::new(SimDisk::instant()),
    );
    if mode == "coarse" {
        pool = pool.with_miss_shards(1);
    }
    let warm_hits;
    let warm_misses;
    {
        // Warm the pool so a pool-sized working set runs at ~100% hits.
        let mut session = pool.session();
        for page in 0..working_set.min(FRAMES as u64) {
            drop(session.fetch(page).expect("instant disk cannot fail"));
        }
        let stats = pool.stats();
        warm_hits = stats.hits.load(Ordering::Relaxed);
        warm_misses = stats.misses.load(Ordering::Relaxed);
    }
    let per_thread = total_accesses / threads;
    let done = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for th in 0..threads {
            let pool = &pool;
            let done = &done;
            s.spawn(move || {
                let mut session = pool.session();
                let mut x = 0x2545_F491_4F6C_DD1Du64.wrapping_mul(th + 1);
                for _ in 0..per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % working_set;
                    let p = session.fetch(page).expect("instant disk cannot fail");
                    drop(p);
                }
                done.fetch_add(per_thread, Ordering::Relaxed);
            });
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let accesses = done.load(Ordering::Relaxed);
    let stats = pool.stats();
    let summary = pool.miss_lock_summary();
    let shard_snaps = pool.miss_lock_shard_snapshots();
    let counters = pool.manager().wrapper().counters();
    Measured {
        accesses,
        hits: stats.hits.load(Ordering::Relaxed) - warm_hits,
        misses: stats.misses.load(Ordering::Relaxed) - warm_misses,
        wall_ns,
        throughput_maccs: accesses as f64 / (wall_ns as f64 / 1e9) / 1e6,
        shards: summary.shards,
        lock_total_acquisitions: summary.total_acquisitions,
        lock_total_contentions: summary.total_contentions,
        lock_total_wait_ns: summary.total_wait_ns,
        lock_total_hold_ns: summary.total_hold_ns,
        lock_max_wait_ns: summary.max_wait_ns,
        shards_touched: shard_snaps.iter().filter(|s| s.acquisitions > 0).count(),
        free_list_steals: pool.free_list_steals(),
        published: counters.published.get(),
        publish_fallbacks: counters.publish_fallbacks.get(),
        reclaimed: counters.reclaimed.get(),
        combined_batches: counters.combined_batches.get(),
        combined_entries: counters.combined_entries.get(),
        combine_passes: counters.combine_passes.get(),
        combine_depth_peak: counters.combine_depth.peak(),
    }
}

/// Calibration extracted from a single-thread measured run.
struct Costs {
    /// Mean per-access time, ns (everything: hit path, miss path, I/O).
    t1_ns: f64,
    /// Mean miss-lock critical section, ns (victim selection +
    /// rebinding; the I/O runs outside the lock).
    c_miss_ns: f64,
    /// Miss fraction of the workload.
    miss_fraction: f64,
}

impl Costs {
    fn from(m: &Measured) -> Costs {
        Costs {
            t1_ns: m.wall_ns as f64 / m.accesses as f64,
            c_miss_ns: m.lock_total_hold_ns as f64 / m.misses.max(1) as f64,
            miss_fraction: m.misses as f64 / m.accesses as f64,
        }
    }

    /// Bottleneck projection: threads add capacity until the miss-lock
    /// partition saturates.
    fn modeled_maccs(&self, threads: u64, shards: usize) -> f64 {
        let cpu_bound = threads as f64 / self.t1_ns;
        let serial_demand = self.miss_fraction * self.c_miss_ns;
        let lock_bound = shards as f64 / serial_demand.max(1e-9);
        cpu_bound.min(lock_bound) * 1e3 // accesses/ns -> M accesses/s
    }
}

fn measured_row(
    workload: &str,
    mode: &str,
    combining: Combining,
    threads: u64,
    working_set: u64,
    m: &Measured,
) -> String {
    let mut lock = JsonObject::new();
    lock.field_u64("shards", m.shards as u64)
        .field_u64("total_acquisitions", m.lock_total_acquisitions)
        .field_u64("total_contentions", m.lock_total_contentions)
        .field_u64("total_wait_ns", m.lock_total_wait_ns)
        .field_u64("total_hold_ns", m.lock_total_hold_ns)
        .field_u64("max_wait_ns", m.lock_max_wait_ns)
        .field_u64("shards_touched", m.shards_touched as u64);
    let mut o = JsonObject::new();
    o.field_str("kind", "measured")
        .field_str("workload", workload)
        .field_str("mode", mode)
        .field_str("combining", combining.name())
        .field_u64("threads", threads)
        .field_u64("frames", FRAMES as u64)
        .field_u64("working_set", working_set)
        .field_u64("accesses", m.accesses)
        .field_u64("hits", m.hits)
        .field_u64("misses", m.misses)
        .field_f64("hit_ratio", m.hits as f64 / m.accesses.max(1) as f64)
        .field_u64("wall_ns", m.wall_ns)
        .field_f64("throughput_maccs", m.throughput_maccs)
        .field_raw("miss_locks", &lock.finish())
        .field_u64("free_list_steals", m.free_list_steals)
        .field_u64("combining_published", m.published)
        .field_u64("combining_publish_fallbacks", m.publish_fallbacks)
        .field_u64("combining_reclaimed", m.reclaimed)
        .field_u64("combining_batches", m.combined_batches)
        .field_u64("combining_entries", m.combined_entries)
        .field_u64("combining_passes", m.combine_passes)
        .field_u64("combining_depth_peak", m.combine_depth_peak);
    o.finish()
}

/// Treiber-stack churn: every thread hammers pop/push on its home
/// stripe (each stripe head owns a cache line).
fn run_freelist(threads: u64, total_ops: u64) -> (u64, u64) {
    const STRIPES: usize = 8;
    let list = StripedFreeList::new(FRAMES, STRIPES);
    let per_thread = total_ops / threads;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for th in 0..threads {
            let list = &list;
            s.spawn(move || {
                let home = th as usize % STRIPES;
                for _ in 0..per_thread {
                    if let Some(frame) = list.pop(home) {
                        list.push(home, frame);
                    }
                }
            });
        }
    });
    (t0.elapsed().as_nanos() as u64, per_thread * threads)
}

fn freelist_row(threads: u64, ops: u64, wall_ns: u64) -> String {
    let mut o = JsonObject::new();
    o.field_str("kind", "freelist")
        .field_str("heads", "padded")
        .field_u64("threads", threads)
        .field_u64("ops", ops)
        .field_u64("wall_ns", wall_ns)
        .field_f64("throughput_mops", ops as f64 / (wall_ns as f64 / 1e9) / 1e6);
    o.finish()
}

/// One discrete-event run: the full wrapper (batching + prefetching)
/// with small queues (S=8, T=4) on the scan workload, where the
/// replacement lock is the bottleneck and the combining modes separate.
fn run_sim(cpus: usize, mode: Combining, horizon_ms: u64) -> RunReport {
    let spec =
        SystemSpec::with_batching(SystemKind::BatchingPrefetching, 8, 4).with_combining(mode);
    let mut p = SimParams::new(
        HardwareProfile::altix350(),
        cpus,
        spec,
        WorkloadParams::tablescan(),
    );
    p.horizon_ms = horizon_ms;
    simulate(p)
}

fn sim_row(cpus: usize, mode: Combining, r: &RunReport) -> String {
    let mut o = JsonObject::new();
    o.field_str("kind", "simulated")
        .field_str("combining", mode.name())
        .field_u64("cpus", cpus as u64)
        .field_f64("throughput_tps", r.throughput_tps)
        .field_f64("contentions_per_million", r.contentions_per_million)
        .field_f64("accesses_per_acquisition", r.accesses_per_acquisition)
        .field_u64("publishes", r.publishes)
        .field_u64("combined_batches", r.combined_batches)
        .field_u64("trylock_failures", r.trylock_failures);
    o.finish()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/miss_path_scaling.jsonl".into());

    let commit_threads: &[u64] = if quick { &[1, 8] } else { &[1, 2, 4, 8] };
    let miss_threads: &[u64] = if quick { &[1, 8] } else { &[1, 2, 4, 8, 16] };
    let total_accesses: u64 = if quick { 60_000 } else { 200_000 };
    let sim_horizon_ms: u64 = if quick { 150 } else { 300 };

    println!(
        "host: {} hardware threads | {FRAMES} frames, {total_accesses} accesses per run",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let mut lines = Vec::new();

    // --- commit path: hit-heavy, combining ablation -------------------
    println!(
        "\ncommit path (working set = pool, ~100% hits):\n\
         {:<9} {:>7} {:>10} {:>9} {:>9} {:>9} {:>7} {:>6}",
        "combining", "threads", "meas_Macc", "published", "fallback", "combined", "passes", "depth"
    );
    for mode in [Combining::Off, Combining::Flat] {
        for &threads in commit_threads {
            let m = run_measured("sharded", mode, threads, total_accesses, COMMIT_WORKING_SET);
            println!(
                "{:<9} {:>7} {:>10.3} {:>9} {:>9} {:>9} {:>7} {:>6}",
                mode.name(),
                threads,
                m.throughput_maccs,
                m.published,
                m.publish_fallbacks,
                m.combined_batches,
                m.combine_passes,
                m.combine_depth_peak
            );
            assert!(
                m.hits as f64 / m.accesses.max(1) as f64 > 0.99,
                "commit workload must stay hit-heavy"
            );
            lines.push(measured_row(
                "commit",
                "sharded",
                mode,
                threads,
                COMMIT_WORKING_SET,
                &m,
            ));
        }
    }

    // --- miss path: coarse vs sharded ---------------------------------
    println!(
        "\nmiss path (working set = 4x pool, ~25% hits):\n\
         {:<8} {:<9} {:>7} {:>9} {:>10} {:>7} {:>8} {:>9}",
        "mode", "combining", "threads", "hit_ratio", "meas_Macc", "shards", "touched", "steals"
    );
    let mut quick_gate: Vec<(String, f64)> = Vec::new(); // (mode, modeled@8)
    for mode in ["coarse", "sharded"] {
        for combining in [Combining::Off, Combining::Flat] {
            let mut costs: Option<Costs> = None;
            for &threads in miss_threads {
                let m = run_measured(mode, combining, threads, total_accesses, MISS_WORKING_SET);
                if threads == 1 {
                    costs = Some(Costs::from(&m));
                }
                println!(
                    "{:<8} {:<9} {:>7} {:>9.3} {:>10.3} {:>7} {:>8} {:>9}",
                    mode,
                    combining.name(),
                    threads,
                    m.hits as f64 / m.accesses.max(1) as f64,
                    m.throughput_maccs,
                    m.shards,
                    m.shards_touched,
                    m.free_list_steals,
                );
                assert!(
                    m.hits as f64 / m.accesses.max(1) as f64 <= 0.5,
                    "workload must stay miss-heavy (<=50% hits)"
                );
                lines.push(measured_row(
                    "miss",
                    mode,
                    combining,
                    threads,
                    MISS_WORKING_SET,
                    &m,
                ));
                if threads == 8 && combining == Combining::Off {
                    let c = costs.as_ref().expect("thread sweep starts at 1");
                    quick_gate.push((mode.to_string(), c.modeled_maccs(8, m.shards)));
                }
            }
        }
    }

    // --- free list churn ----------------------------------------------
    println!(
        "\nfree-list churn (Treiber heads):\n{:>7} {:>10}",
        "threads", "meas_Mops"
    );
    for &threads in commit_threads {
        let (wall_ns, ops) = run_freelist(threads, total_accesses);
        println!(
            "{:>7} {:>10.3}",
            threads,
            ops as f64 / (wall_ns as f64 / 1e9) / 1e6
        );
        lines.push(freelist_row(threads, ops, wall_ns));
    }

    // --- simulated 8/16/32 CPUs ---------------------------------------
    println!(
        "\nsimulated (bpw-sim, S=8 T=4, tablescan):\n\
         {:<9} {:>5} {:>12} {:>8} {:>10} {:>9}",
        "combining", "cpus", "tps", "cpm", "publishes", "combined"
    );
    for mode in [Combining::Off, Combining::Flat] {
        for cpus in [8usize, 16, 32] {
            let r = run_sim(cpus, mode, sim_horizon_ms);
            println!(
                "{:<9} {:>5} {:>12.0} {:>8.1} {:>10} {:>9}",
                mode.name(),
                cpus,
                r.throughput_tps,
                r.contentions_per_million,
                r.publishes,
                r.combined_batches
            );
            lines.push(sim_row(cpus, mode, &r));
        }
    }

    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(&out, lines.join("\n") + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {} rows to {out}", lines.len());

    // Gate: the partitioned miss path must project at least 2x the
    // coarse baseline at 8 threads (operational-law calibration from
    // the measured single-thread run; on a many-core host the measured
    // rows show the same shape).
    let coarse8 = quick_gate
        .iter()
        .find(|(m, _)| m == "coarse")
        .map(|(_, x)| *x);
    let sharded8 = quick_gate
        .iter()
        .find(|(m, _)| m == "sharded")
        .map(|(_, x)| *x);
    if let (Some(c8), Some(s8)) = (coarse8, sharded8) {
        println!(
            "modeled @8 threads: sharded {s8:.3} Macc/s vs coarse {c8:.3} Macc/s ({:.1}x)",
            s8 / c8
        );
        if s8 < 2.0 * c8 {
            eprintln!("FAIL: sharded miss path must model >= 2x coarse at 8 threads");
            std::process::exit(1);
        }
    }
}
