//! The lock-free hit, proven by census: a cache hit that reads its page
//! (page-table lookup + pin + `read` + unpin) performs **zero
//! mutex/rwlock acquisitions**.
//!
//! Every lock in the workspace routes through the vendored
//! `parking_lot` shim, which keeps a thread-local census of successful
//! acquisitions (`parking_lot::thread_acquisitions`). The test warms a
//! pool, then drives a window of guaranteed hits on the same thread,
//! each reading its page, and asserts the thread's acquisition count
//! did not move — covering the page table's partition locks (optimistic
//! probe instead), the descriptor latch (a hit pins through its
//! session's slot line and a header load), the page's bytes (the pin is their read latch; they have no
//! lock of their own), and, by construction, the policy/miss
//! `InstrumentedLock`s (BP-Wrapper defers bookkeeping below its batch
//! threshold).
//!
//! A control test locks a bare `parking_lot::Mutex` twice (what the
//! seed's mutex descriptor paid per pin/unpin pair) and asserts the same
//! census *does* see both acquisitions — proving the instrument can't
//! silently go blind.

#![cfg(not(feature = "dst"))]

use std::sync::Arc;

use bpw_bufferpool::{BufferPool, ReplacementManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::TwoQ;

const FRAMES: usize = 64;
const HITS: u64 = 1_000;

fn wrapped_pool() -> BufferPool<WrappedManager<TwoQ>> {
    // Queue sized so the measured window (HITS accesses) stays below
    // the batch threshold: no commit or blocking Lock() can fire
    // mid-window. The flush at session drop happens after the
    // measurement.
    let cfg = WrapperConfig {
        queue_size: 2 * HITS as usize,
        batch_threshold: 2 * HITS as usize,
        ..WrapperConfig::default()
    };
    BufferPool::new(
        FRAMES,
        128,
        WrappedManager::new(TwoQ::new(FRAMES), cfg),
        Arc::new(SimDisk::instant()),
    )
}

#[test]
fn cache_hit_takes_zero_lock_acquisitions() {
    let pool = wrapped_pool();
    let mut session = pool.session();
    // Warm: every page resident, all misses done.
    for page in 0..8u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    let hits_before = pool.stats().hits.load(std::sync::atomic::Ordering::Relaxed);

    let base = parking_lot::thread_acquisitions();
    for i in 0..HITS {
        let page = i % 8;
        let pin = session.fetch(page).expect("resident page cannot error");
        let stamp = pin.read(|d| u64::from_le_bytes(d[..8].try_into().unwrap()));
        drop(pin);
        assert_eq!(stamp, page);
    }
    let taken = parking_lot::thread_acquisitions() - base;

    assert_eq!(
        pool.stats().hits.load(std::sync::atomic::Ordering::Relaxed) - hits_before,
        HITS,
        "window must have been all hits"
    );
    assert_eq!(
        taken, 0,
        "a cache hit that reads its page must perform zero mutex/rwlock \
         acquisitions, but {HITS} hits took {taken}"
    );
    assert_eq!(
        pool.page_table_fallback_reads(),
        0,
        "quiescent lookups must never leave the optimistic path"
    );
    assert_eq!(
        pool.stats()
            .pin_cas_retries
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "slot pins make no CAS, so no CAS can retry"
    );
}

#[test]
fn fetch_resident_takes_zero_lock_acquisitions_hit_or_not() {
    // The entry point a frontend thread answers GETs through: resident
    // pages pin exactly like `fetch`'s hit, and a page that is not
    // there costs one optimistic lookup — not the partition lock a
    // `fetch` of it would take.
    let pool = wrapped_pool();
    let mut session = pool.session();
    for page in 0..8u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    let stats = pool.stats();
    let counted = || {
        let relaxed = std::sync::atomic::Ordering::Relaxed;
        (stats.hits.load(relaxed), stats.misses.load(relaxed))
    };
    let before = counted();

    let base = parking_lot::thread_acquisitions();
    for i in 0..HITS {
        drop(session.fetch_resident(i % 8).expect("resident page"));
        assert!(session.fetch_resident(1_000 + i).is_none());
    }
    let taken = parking_lot::thread_acquisitions() - base;

    assert_eq!(
        taken, 0,
        "{HITS} resident and {HITS} absent fetch_resident calls took {taken} locks"
    );
    assert_eq!(
        counted(),
        (before.0 + HITS, before.1),
        "every resident call is one hit; an absent one counts nothing"
    );
    assert_eq!(pool.page_table_fallback_reads(), 0);
}

#[test]
fn fetch_resident_at_the_default_threshold_locks_once_per_batch() {
    // Same window with the shipped configuration: the only lock left
    // is the batch commit's `try_lock`, once per 32 recorded hits.
    let cfg = WrapperConfig::default();
    let pool = BufferPool::new(
        FRAMES,
        128,
        WrappedManager::new(TwoQ::new(FRAMES), cfg),
        Arc::new(SimDisk::instant()),
    );
    let mut session = pool.session();
    for page in 0..8u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    session.flush();

    let base = parking_lot::thread_acquisitions();
    for i in 0..HITS {
        drop(session.fetch_resident(i % 8).expect("resident page"));
        assert!(session.fetch_resident(1_000 + i).is_none());
    }
    let taken = parking_lot::thread_acquisitions() - base;
    assert_eq!(
        taken,
        HITS / cfg.batch_threshold as u64,
        "one commit per {} hits and nothing else",
        cfg.batch_threshold
    );
}

#[test]
fn concurrent_hits_still_take_zero_locks() {
    // Same proof under real contention: 8 threads hammering the same
    // hot pages. Pins may need CAS retries (that's the lock-free
    // slow-down mode) but no thread may ever fall back to a lock.
    let pool = wrapped_pool();
    {
        let mut warm = pool.session();
        for page in 0..8u64 {
            drop(warm.fetch(page).expect("instant disk"));
        }
    }
    std::thread::scope(|sc| {
        for t in 0..8u64 {
            let pool = &pool;
            sc.spawn(move || {
                let mut session = pool.session();
                let base = parking_lot::thread_acquisitions();
                for i in 0..HITS {
                    let page = (i + t) % 8;
                    let pin = session.fetch(page).expect("resident");
                    pin.read(|d| assert_eq!(d[..8], page.to_le_bytes()));
                }
                let taken = parking_lot::thread_acquisitions() - base;
                assert_eq!(
                    taken, 0,
                    "thread {t}: contended hits took {taken} lock acquisitions"
                );
            });
        }
    });
}

#[test]
fn a_miss_on_a_full_pool_takes_no_free_list_lock() {
    // A full pool's free list is empty, and a miss learns that from one
    // load of its count, not under its lock. The census of a window of
    // clean misses is then exactly: per miss, its page's partition lock
    // (re-check, eviction and mapping under one guard), one victim's
    // partition lock to unmap it, and one `SimDisk` stripe lock to read
    // the page; plus the replacement lock's share, one acquisition per
    // k victims evicted ahead. A free list that locked on its empty path
    // would add one per miss.
    const MISSES: u64 = 256;
    let cfg = WrapperConfig::default();
    let pool = BufferPool::new(
        FRAMES,
        128,
        WrappedManager::new(TwoQ::new(FRAMES), cfg),
        Arc::new(SimDisk::instant()),
    );
    let mut session = pool.session();
    for page in 0..2 * FRAMES as u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    assert_eq!(pool.free_frames(), 0, "the pool must be full");
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    let misses_before = pool.stats().misses.load(relaxed);
    let replacement_before = pool.manager().lock_snapshot().acquisitions;

    let base = parking_lot::thread_acquisitions();
    for page in 10_000..10_000 + MISSES {
        drop(session.fetch(page).expect("instant disk"));
    }
    let taken = parking_lot::thread_acquisitions() - base;

    assert_eq!(pool.stats().misses.load(relaxed) - misses_before, MISSES);
    assert_eq!(
        pool.stats().writebacks.load(relaxed),
        0,
        "clean misses only"
    );
    let replacement = pool.manager().lock_snapshot().acquisitions - replacement_before;
    assert_eq!(replacement, MISSES / cfg.evict_batch() as u64);
    assert_eq!(taken, 3 * MISSES + replacement);
    assert_eq!(
        taken, 800,
        "{MISSES} misses on a full pool took {taken} locks"
    );
}

#[test]
fn mutex_baseline_is_visible_to_the_census() {
    // Control experiment: a mutex-guarded descriptor pays one lock per
    // pin and another per unpin, and the census sees both — so the
    // zero-acquisition assertions above cannot pass vacuously.
    let latch = parking_lot::Mutex::new(0u32);
    let base = parking_lot::thread_acquisitions();
    *latch.lock() += 1; // pin
    *latch.lock() -= 1; // unpin
    assert_eq!(
        parking_lot::thread_acquisitions() - base,
        2,
        "a mutex descriptor must cost exactly two acquisitions per hit"
    );
}
