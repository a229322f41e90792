//! An OLTP (TPC-C-like) workload through the buffer pool with a buffer
//! smaller than the data set: the Fig. 8 regime. Shows that the wrapped
//! advanced policy keeps its hit-ratio advantage over CLOCK while doing
//! a fraction of the locking.
//!
//! Run with: `cargo run --release --example oltp`

use std::sync::Arc;

use bpw_bufferpool::{BufferPool, ClockManager, ReplacementManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::TwoQ;
use bpw_workloads::{Tpcc, TpccConfig, Workload};

fn drive<M: ReplacementManager>(
    pool: &BufferPool<M>,
    workload: &Tpcc,
    threads: usize,
    txns: usize,
) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            let mut stream = workload.stream(t, 7);
            s.spawn(move || {
                let mut session = pool.session();
                let mut buf = Vec::new();
                for _ in 0..txns {
                    buf.clear();
                    stream.next_transaction(&mut buf);
                    for &page in &buf {
                        let pinned = session.fetch(page).expect("storage I/O failed");
                        pinned.read(|bytes| std::hint::black_box(bytes[0]));
                    }
                }
            });
        }
    });
}

struct Outcome {
    name: &'static str,
    hit_ratio: f64,
    acquisitions: u64,
    contentions: u64,
}

fn main() {
    let workload = Tpcc::new(TpccConfig { warehouses: 2 });
    // Buffer = 10% of the database: misses matter.
    let frames = (workload.page_universe() / 10) as usize;
    let threads = 4;
    let txns = 2_000;
    println!(
        "TPC-C-like: {} pages database, {} frames buffer, {} threads x {} txns\n",
        workload.page_universe(),
        frames,
        threads,
        txns
    );

    let mut outcomes = Vec::new();

    {
        let pool = BufferPool::new(
            frames,
            256,
            ClockManager::new(frames),
            Arc::new(SimDisk::instant()),
        );
        drive(&pool, &workload, threads, txns);
        let snap = pool.manager().lock_snapshot();
        outcomes.push(Outcome {
            name: "pgClock   (CLOCK, lock-free hits)",
            hit_ratio: pool.stats().hit_ratio(),
            acquisitions: snap.acquisitions,
            contentions: snap.contentions,
        });
    }
    // pgQ and pgBat are one wrapper: a queue of one locks per access.
    for (name, config) in [
        (
            "pgQ       (2Q, lock per access)",
            WrapperConfig::lock_per_access(),
        ),
        ("pgBat     (2Q under BP-Wrapper)", WrapperConfig::default()),
    ] {
        let pool = BufferPool::new(
            frames,
            256,
            WrappedManager::new(TwoQ::new(frames), config),
            Arc::new(SimDisk::instant()),
        );
        drive(&pool, &workload, threads, txns);
        let snap = pool.manager().lock_snapshot();
        outcomes.push(Outcome {
            name,
            hit_ratio: pool.stats().hit_ratio(),
            acquisitions: snap.acquisitions,
            contentions: snap.contentions,
        });
    }

    for o in &outcomes {
        println!(
            "{:<36} hit ratio {:>6.2}%  lock acquisitions {:>9}  contended {:>5}",
            o.name,
            o.hit_ratio * 100.0,
            o.acquisitions,
            o.contentions
        );
    }
    let clock = outcomes[0].hit_ratio;
    let q = outcomes[1].hit_ratio;
    let wrapped = outcomes[2].hit_ratio;
    println!();
    println!(
        "2Q beats CLOCK on hit ratio by {:+.2} points; the wrapped 2Q matches the",
        (q - clock) * 100.0
    );
    println!(
        "unwrapped 2Q ({:+.3} points) while acquiring the lock ~{:.0}x less often.",
        (wrapped - q) * 100.0,
        outcomes[1].acquisitions as f64 / outcomes[2].acquisitions.max(1) as f64,
    );
}
