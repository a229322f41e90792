//! Quickstart: wrap an unmodified LIRS policy with BP-Wrapper and hammer
//! it from several threads. Hits are recorded in private per-thread FIFO
//! queues and committed in batches, so the lock is (almost) never
//! contended.
//!
//! Run with: `cargo run --release --example quickstart`

use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::{Lirs, ReplacementPolicy};

fn main() {
    let frames = 4096;
    // 1. Any ReplacementPolicy works unmodified; LIRS here.
    let policy = Lirs::new(frames);

    // 2. Wrap it. Defaults: queue size S = 64, batch threshold T = 32:
    //    the paper's batching technique (pgBat).
    let wrapper = BpWrapper::new(policy, WrapperConfig::default());

    // 3. Pre-warm the buffer (the paper's scalability setup: the working
    //    set fits, so every access is a hit).
    wrapper.with_locked(|p| {
        for i in 0..frames as u64 {
            p.record_miss(i, Some(i as u32), &mut |_| true);
        }
    });

    // 4. Worker threads record hits through private handles.
    let threads = 4;
    let per_thread = 1_000_000u64;
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let wrapper = &wrapper;
            s.spawn(move || {
                let mut handle = wrapper.handle();
                let mut x = 0x243F_6A88_85A3_08D3u64 ^ t; // pi digits as seed
                for _ in 0..per_thread {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % frames as u64;
                    handle.record_hit(page, page as u32);
                }
            }); // handle drop flushes the remaining queue
        }
    });
    let elapsed = t0.elapsed();

    // 5. Inspect what the lock saw.
    let total = threads * per_thread;
    let snap = wrapper.lock_stats().snapshot();
    let counters = wrapper.counters();
    println!("accesses recorded      : {total}");
    println!(
        "throughput             : {:.1} M accesses/s",
        total as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "lock acquisitions      : {} (1 per {:.1} accesses)",
        snap.acquisitions,
        total as f64 / snap.acquisitions as f64
    );
    println!(
        "blocked acquisitions   : {} ({:.2} per million accesses)",
        snap.contentions,
        wrapper.contentions_per_million()
    );
    println!("failed try-locks       : {}", snap.trylock_failures);
    println!("accesses committed     : {}", counters.committed.get());
    println!("stale entries skipped  : {}", counters.stale_skipped.get());

    // The policy is intact and internally consistent.
    wrapper.with_locked(|p| {
        p.check_invariants();
        assert_eq!(p.resident_count(), frames);
    });
    println!("policy invariants      : OK ({} resident pages)", frames);
}
