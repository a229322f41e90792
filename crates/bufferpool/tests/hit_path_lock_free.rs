//! The tentpole's acceptance proof: a cache hit (page-table lookup +
//! pin + unpin) performs **zero mutex/rwlock acquisitions**.
//!
//! Every lock in the workspace routes through the vendored
//! `parking_lot` shim, which keeps a thread-local census of successful
//! acquisitions (`parking_lot::thread_acquisitions`). The test warms a
//! pool, then drives a window of guaranteed hits on the same thread and
//! asserts the thread's acquisition count did not move — covering the
//! page-table shard `RwLock` (optimistic probe instead), the descriptor
//! latch (pin/unpin are header CAS loops), and, by construction, the
//! policy/miss `InstrumentedLock`s (BP-Wrapper defers bookkeeping below
//! its batch threshold). `PinnedPage::read` still takes the frame's
//! data mutex, so the window pins and drops without reading — the
//! hit *path* is lock-free; content access is a separate latch by
//! design (page I/O can't be seqlocked).
//!
//! A control test locks a bare `parking_lot::Mutex` twice (what the
//! seed's mutex descriptor paid per pin/unpin pair) and asserts the same
//! census *does* see both acquisitions — proving the instrument can't
//! silently go blind.

#![cfg(not(feature = "dst"))]

use std::sync::Arc;

use bpw_bufferpool::{BufferPool, SimDisk, WrappedManager};
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
        let pin = session.fetch(i % 8).expect("resident page cannot error");
        drop(pin);
    }
    let taken = parking_lot::thread_acquisitions() - base;

    assert_eq!(
        pool.stats().hits.load(std::sync::atomic::Ordering::Relaxed) - hits_before,
        HITS,
        "window must have been all hits"
    );
    assert_eq!(
        taken, 0,
        "a cache hit must perform zero mutex/rwlock acquisitions, \
         but {HITS} hits took {taken}"
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
        "single-threaded pins must land on the first CAS"
    );
}

#[test]
fn fetch_resident_takes_zero_lock_acquisitions_hit_or_not() {
    // The entry point a frontend thread answers GETs through: resident
    // pages pin exactly like `fetch`'s hit, and a page that is not
    // there costs one optimistic lookup — not the miss lock a `fetch`
    // of it would take.
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
                    drop(session.fetch((i + t) % 8).expect("resident"));
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
