//! Recording hits under a busy policy lock touches no heap: every
//! threshold crossing's `TryLock()` fails and the hits stay queued, in
//! the queue allocated with the handle. One row of the cost table
//! (`costs/mod.rs`).

mod costs;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::{Lru, ReplacementPolicy};

#[test]
fn deferred_hits_do_not_allocate() {
    // S = 64, T = 8: 2T − 1 hits cross the threshold T times while a
    // parked thread holds the policy lock, and accumulate in the queue.
    const FRAMES: u64 = 64;
    const THRESHOLD: usize = 8;
    let cfg = WrapperConfig::default()
        .with_queue_size(64)
        .with_batch_threshold(THRESHOLD);
    let w = Arc::new(BpWrapper::new(Lru::new(FRAMES as usize), cfg));
    w.with_locked(|p| {
        for f in 0..FRAMES {
            p.record_miss(f, Some(f as u32), &mut |_| true);
        }
    });
    let mut h = w.handle_arc();
    h.record_hit(0, 0);
    h.flush();

    let acquired = w.lock_stats().snapshot().acquisitions;
    let hold = Arc::new(AtomicBool::new(true));
    let holder = {
        let (w, hold) = (Arc::clone(&w), Arc::clone(&hold));
        std::thread::spawn(move || {
            w.with_locked(|_| {
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })
        })
    };
    while w.lock_stats().snapshot().acquisitions == acquired {
        std::hint::spin_loop();
    }
    let failures = w.lock_stats().snapshot().trylock_failures;
    let recorded = costs::cost(|| {
        for page in 0..2 * THRESHOLD as u64 - 1 {
            h.record_hit(page, page as u32);
        }
    });
    let failed = w.lock_stats().snapshot().trylock_failures - failures;
    hold.store(false, Ordering::Release);
    holder.join().unwrap();
    // Every crossing found the lock busy, and the hits accumulated.
    assert_eq!((failed, h.queued()), (THRESHOLD as u64, 2 * THRESHOLD - 1));
    drop(h);
    assert_eq!(w.counters().committed.get(), 2 * THRESHOLD as u64);
    w.with_locked(|p| p.check_invariants());
    costs::check(&[(
        // 2T − 1 hits, T failed `TryLock()`s, nothing allocated or freed.
        "record_hit, lock held (T = 8)",
        2 * THRESHOLD as u64 - 1,
        [Some(0), Some(0), Some(0), None],
        recorded,
    )]);
}
