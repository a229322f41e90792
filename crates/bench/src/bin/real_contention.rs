//! Real-thread measurement on **this host**: lock acquisitions, failed
//! try-locks, blocked acquisitions (the paper's "contentions") and
//! throughput for the three Table I systems that run live — `pgClock`,
//! `pgQ` and `pgBat` — on the hit-only scalability workload through the
//! actual `bpw-core` implementation. `pgPre` and `pgBatPre` add
//! prefetching, which only `bpw-sim` models.
//!
//! Unlike wall-clock scaling (which needs the simulator on a small
//! host), these *counts* are scheduling-robust: batching divides lock
//! acquisitions by the batch size no matter how threads interleave.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bpw_bench::{fmt, Table};
use bpw_bufferpool::{ClockManager, ReplacementManager};
use bpw_core::{BpWrapper, SystemKind, WrapperConfig};
use bpw_replacement::{ReplacementPolicy, TwoQ};

const FRAMES: usize = 8192;
const THREADS: u64 = 4;
const PER_THREAD: u64 = 500_000;

struct Row {
    acquisitions: u64,
    contentions: u64,
    trylock_failures: u64,
    throughput_maccs: f64,
}

fn run_wrapped(cfg: WrapperConfig) -> Row {
    let wrapper = BpWrapper::new(TwoQ::new(FRAMES), cfg);
    wrapper.with_locked(|p| {
        for i in 0..FRAMES as u64 {
            p.record_miss(i, Some(i as u32), &mut |_| true);
        }
    });
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for th in 0..THREADS {
            let wrapper = &wrapper;
            s.spawn(move || {
                let mut h = wrapper.handle();
                let mut x = 0xABCD_EF01_2345_6789u64 ^ th;
                for _ in 0..PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % FRAMES as u64;
                    h.record_hit(page, page as u32);
                }
            });
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    let snap = wrapper.lock_stats().snapshot();
    Row {
        acquisitions: snap.acquisitions,
        contentions: snap.contentions,
        trylock_failures: snap.trylock_failures,
        throughput_maccs: (THREADS * PER_THREAD) as f64 / dt / 1e6,
    }
}

fn run_clock() -> Row {
    let clock = ClockManager::new(FRAMES);
    let t0 = Instant::now();
    let dummy = AtomicU64::new(0);
    std::thread::scope(|s| {
        for th in 0..THREADS {
            let clock = &clock;
            let dummy = &dummy;
            s.spawn(move || {
                let mut h = clock.handle();
                let mut x = 0xABCD_EF01_2345_6789u64 ^ th;
                let mut local = 0u64;
                for _ in 0..PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % FRAMES as u64;
                    h.on_hit(page, page as u32);
                    local ^= page;
                }
                dummy.fetch_xor(local, Ordering::Relaxed);
            });
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    Row {
        acquisitions: 0,
        contentions: 0,
        trylock_failures: 0,
        throughput_maccs: (THREADS * PER_THREAD) as f64 / dt / 1e6,
    }
}

fn main() {
    let total = THREADS * PER_THREAD;
    println!(
        "host: {} hardware threads | {} worker threads x {} hit accesses on a 2Q of {} frames\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        THREADS,
        PER_THREAD,
        FRAMES
    );
    let mut t = Table::new(
        "Real-thread lock behaviour (2Q policy, hit-only workload)",
        &[
            "system",
            "lock_acquisitions",
            "contentions",
            "contentions_per_M",
            "trylock_failures",
            "throughput_Macc_per_s",
        ],
    );
    let systems = [
        (SystemKind::Clock, None),
        (
            SystemKind::LockPerAccess,
            Some(WrapperConfig::lock_per_access()),
        ),
        (SystemKind::Batching, Some(WrapperConfig::default())),
    ];
    for (kind, cfg) in systems {
        let row = match cfg {
            None => run_clock(),
            Some(cfg) => run_wrapped(cfg),
        };
        t.row(vec![
            kind.name().to_owned(),
            row.acquisitions.to_string(),
            row.contentions.to_string(),
            fmt(row.contentions as f64 * 1e6 / total as f64),
            row.trylock_failures.to_string(),
            fmt(row.throughput_maccs),
        ]);
    }
    t.print();
    t.write_csv("real_contention");
    println!(
        "Expected (any host): pgQ acquires the lock once per access ({total});\n\
         pgBat acquires ~1/32nd as often and blocks orders of magnitude less."
    );
}
