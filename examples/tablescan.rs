//! The paper's TableScan scenario end-to-end through the buffer pool:
//! concurrent threads each scanning whole tables, with the pool backed
//! by a simulated disk. Compares 2Q behind BP-Wrapper with a queue of
//! one (a lock per access, the paper's pgQ) against its batching
//! default (pgBat) on real lock counts.
//!
//! Run with: `cargo run --release --example tablescan`

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, ReplacementManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::TwoQ;
use bpw_workloads::{TableScan, TableScanConfig, Workload};

fn drive<M: ReplacementManager>(
    pool: &BufferPool<M>,
    workload: &TableScan,
    threads: usize,
    scans: usize,
) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            let mut stream = workload.stream(t, 42);
            s.spawn(move || {
                let mut session = pool.session();
                let mut buf = Vec::new();
                for _ in 0..scans {
                    buf.clear();
                    stream.next_transaction(&mut buf);
                    for &page in &buf {
                        let pinned = session.fetch(page).expect("storage I/O failed");
                        // Touch the data like a scan would.
                        pinned.read(|bytes| std::hint::black_box(bytes[0]));
                    }
                }
            });
        }
    });
}

fn main() {
    // Paper dimensions: tables of 10,000 rows x 100 bytes. The buffer
    // holds the whole working set (the paper's scalability setup).
    let workload = TableScan::new(TableScanConfig::default());
    let frames = workload.page_universe() as usize;
    let threads = 4;
    let scans = 200;

    println!(
        "TableScan: {} tables x {} pages, {} threads x {} scans\n",
        workload.page_universe() / workload.pages_per_table(),
        workload.pages_per_table(),
        threads,
        scans
    );

    for (label, config) in [
        (
            "2Q, lock per access (pgQ)",
            WrapperConfig::lock_per_access(),
        ),
        ("BP-wrapped 2Q (pgBat)", WrapperConfig::default()),
    ] {
        let pool = BufferPool::new(
            frames,
            512,
            WrappedManager::new(TwoQ::new(frames), config),
            Arc::new(SimDisk::instant()),
        );
        drive(&pool, &workload, threads, scans);
        let hits = pool.stats().hits.load(Ordering::Relaxed);
        let misses = pool.stats().misses.load(Ordering::Relaxed);
        let snap = pool.manager().lock_snapshot();
        let total = hits + misses;
        println!("{label}");
        println!("  accesses          : {total} ({hits} hits, {misses} misses)");
        println!("  lock acquisitions : {}", snap.acquisitions);
        println!(
            "  blocked (contended): {} ({:.2}/M accesses)",
            snap.contentions,
            snap.contentions as f64 * 1e6 / total as f64
        );
        println!(
            "  accesses/acquisition: {:.1}\n",
            snap.accesses_per_acquisition()
        );
    }
    println!("Same workload, same hit ratio — batching divides the lock traffic by ~32.");
}
