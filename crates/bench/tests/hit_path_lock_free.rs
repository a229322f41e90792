//! The buffer pool's lock census, per operation: a hit, read or write,
//! takes no lock and touches no heap; a miss on a full pool or an
//! `invalidate` takes a fixed number of locks; pgQ (a queue of one) adds
//! the replacement lock to every access; building a pool allocates
//! the same at any size. Each test pins its rows of
//! the cost table (`costs/mod.rs`). The cells they pin are thread-local,
//! so the tests run side by side.

mod costs;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{
    BufferPool, InvalidateOutcome, ReplacementManager, SimDisk, Storage, WrappedManager,
};
use bpw_core::WrapperConfig;
use bpw_replacement::TwoQ;
use costs::{check, cost, Pinned};

const FRAMES: usize = 64;
const HITS: u64 = 1_000;
const MISSES: u64 = 256;
/// Pages a miss row fetches before its window: two pool-fulls, so the
/// pool is full and the policy's lists are at their steady size.
const WARM_PAGES: u64 = 2 * FRAMES as u64;

/// Pins the measuring thread's cells.
const fn local(locks: u64, allocs: u64, frees: u64) -> Pinned {
    [Some(locks), Some(allocs), Some(frees), None]
}

fn pool_with(cfg: WrapperConfig) -> BufferPool<WrappedManager<TwoQ>> {
    let manager = WrappedManager::new(TwoQ::new(FRAMES), cfg);
    BufferPool::new(FRAMES, 128, manager, Arc::new(SimDisk::instant()))
}

/// A pool whose threshold is above every window, so no commit fires
/// mid-window, with pages 0..8 resident.
fn hot_pool() -> BufferPool<WrappedManager<TwoQ>> {
    let pool = pool_with(WrapperConfig {
        queue_size: 2 * HITS as usize,
        batch_threshold: 2 * HITS as usize,
    });
    let mut session = pool.session();
    for page in 0..8u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    drop(session);
    pool
}

fn hits_and_misses(pool: &BufferPool<WrappedManager<TwoQ>>) -> (u64, u64) {
    let s = pool.stats();
    (
        s.hits.load(Ordering::Relaxed),
        s.misses.load(Ordering::Relaxed),
    )
}

#[test]
fn cache_hit_takes_zero_lock_acquisitions() {
    let pool = hot_pool();
    let mut session = pool.session();
    let before = hits_and_misses(&pool);
    let read = cost(|| {
        for i in 0..HITS {
            let pin = session.fetch(i % 8).expect("resident");
            let stamp = pin.read(|d| u64::from_le_bytes(d[..8].try_into().unwrap()));
            assert_eq!(stamp, i % 8);
        }
    });
    let retries = pool.stats().pin_cas_retries.load(Ordering::Relaxed);
    assert_eq!(retries, 0, "slot pins make no CAS, so none can retry");
    // Each window starts with an empty queue, so it stays below T.
    session.flush();
    let write = cost(|| {
        for i in 0..HITS {
            let pin = session.fetch(i % 8).expect("resident");
            pin.write(|d| d[8] = d[8].wrapping_add(1));
        }
    });
    assert_eq!(hits_and_misses(&pool), (before.0 + 2 * HITS, before.1));
    assert_eq!(pool.page_table_fallback_reads(), 0);
    #[rustfmt::skip]
    check(&[
        // No lock: an optimistic page-table read, a slot pin, bytes whose
        // latch is the pin, bookkeeping queued below T.
        ("hit: fetch, read, unpin (below T)", HITS, local(0, 0, 0), read),
        // No lock: moving the pin to the header and the write latch are CASes.
        ("write hit: fetch, write, unpin (below T)", HITS, local(0, 0, 0), write),
    ]);
}

#[test]
fn fetch_resident_takes_zero_lock_acquisitions_hit_or_not() {
    let pool = hot_pool();
    let mut session = pool.session();
    let before = hits_and_misses(&pool);
    let resident = cost(|| {
        for i in 0..HITS {
            drop(session.fetch_resident(i % 8).expect("resident"));
        }
    });
    let absent = cost(|| {
        for i in 0..HITS {
            assert!(session.fetch_resident(1_000 + i).is_none());
        }
    });
    // Every resident call counted one hit; an absent one counts nothing.
    assert_eq!(hits_and_misses(&pool), (before.0 + HITS, before.1));
    assert_eq!(pool.page_table_fallback_reads(), 0);
    #[rustfmt::skip]
    check(&[
        // Pins like `fetch`'s hit.
        ("fetch_resident, resident page (below T)", HITS, local(0, 0, 0), resident),
        // One optimistic lookup, not the partition lock a `fetch` would take.
        ("fetch_resident, absent page", HITS, local(0, 0, 0), absent),
    ]);
}

#[test]
fn fetch_resident_at_the_default_threshold_locks_once_per_batch() {
    let cfg = WrapperConfig::default();
    assert_eq!((cfg.batch_threshold, cfg.evict_batch()), (32, 8));
    let pool = pool_with(cfg);
    let mut session = pool.session();
    for page in 0..8u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    session.flush();
    let both = cost(|| {
        for i in 0..HITS {
            drop(session.fetch_resident(i % 8).expect("resident"));
            assert!(session.fetch_resident(1_000 + i).is_none());
        }
    });
    #[rustfmt::skip]
    check(&[
        // The batch commit's `try_lock`, once per T = 32 recorded hits.
        ("fetch_resident, resident + absent (T = 32)", HITS, local(31, 0, 0), both),
    ]);
}

#[test]
fn concurrent_hits_still_take_zero_locks() {
    let pool = hot_pool();
    let summed = std::thread::scope(|sc| {
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let pool = &pool;
                sc.spawn(move || {
                    let mut session = pool.session();
                    cost(|| {
                        for i in 0..HITS {
                            let page = (i + t) % 8;
                            let pin = session.fetch(page).expect("resident");
                            pin.read(|d| assert_eq!(d[..8], page.to_le_bytes()));
                        }
                    })
                })
            })
            .collect();
        let costs = threads.into_iter().map(|h| h.join().unwrap());
        costs.fold([0; 4], |sum, c| std::array::from_fn(|i| sum[i] + c[i]))
    });
    #[rustfmt::skip]
    check(&[
        // No thread falls back to a lock.
        ("hit, 8 threads contending (summed)", 8 * HITS, local(0, 0, 0), summed),
    ]);
}

#[test]
fn a_miss_on_a_full_pool_takes_no_free_list_lock() {
    let pool = pool_with(WrapperConfig::default());
    let mut session = pool.session();
    for page in 0..WARM_PAGES {
        drop(session.fetch(page).expect("instant disk"));
    }
    assert_eq!(pool.free_frames(), 0, "the pool must be full");
    let before = hits_and_misses(&pool);
    let replacement = pool.manager().lock_snapshot().acquisitions;
    let misses = cost(|| {
        for page in 10_000..10_000 + MISSES {
            drop(session.fetch(page).expect("instant disk"));
        }
    });
    assert_eq!(hits_and_misses(&pool), (before.0, before.1 + MISSES));
    assert_eq!(pool.stats().writebacks.load(Ordering::Relaxed), 0);
    let replacement = pool.manager().lock_snapshot().acquisitions - replacement;
    assert_eq!(replacement, MISSES / 8);
    #[rustfmt::skip]
    check(&[
        // 3 per miss (its page's partition lock, the victim's to unmap it, a
        // `SimDisk` stripe to read) + 1 per k = 8 victims evicted ahead: the
        // free list of a full pool answers "empty" from its count.
        ("clean miss, full pool (k = 8)", MISSES, local(800, 0, 0), misses),
    ]);
}

#[test]
fn pgq_takes_the_replacement_lock_on_every_access() {
    // pgQ is the wrapper at a queue of one: every access commits under a
    // blocking lock of its own.
    let pool = pool_with(WrapperConfig::lock_per_access());
    let mut session = pool.session();
    let fills = cost(|| {
        for page in 0..FRAMES as u64 {
            drop(session.fetch(page).expect("instant disk"));
        }
    });
    assert_eq!(pool.free_frames(), 0, "the pool must be full");
    let hits = cost(|| {
        for i in 0..HITS {
            let pin = session.fetch(i % 8).expect("resident");
            pin.read(|d| assert_eq!(d[..8], (i % 8).to_le_bytes()));
        }
    });
    for page in FRAMES as u64..WARM_PAGES {
        drop(session.fetch(page).expect("instant disk"));
    }
    let before = hits_and_misses(&pool);
    let replacement = pool.manager().lock_snapshot().acquisitions;
    let misses = cost(|| {
        for page in 10_000..10_000 + MISSES {
            drop(session.fetch(page).expect("instant disk"));
        }
    });
    assert_eq!(hits_and_misses(&pool), (before.0, before.1 + MISSES));
    assert_eq!(pool.stats().writebacks.load(Ordering::Relaxed), 0);
    let replacement = pool.manager().lock_snapshot().acquisitions - replacement;
    assert_eq!(replacement, MISSES, "k = 1: one victim per acquisition");
    #[rustfmt::skip]
    check(&[
        // Its partition lock, the free list's, a `SimDisk` stripe, the replacement lock.
        ("pgQ miss into a free frame", FRAMES as u64, local(256, 0, 0), fills),
        // The replacement lock alone: S = 1 commits every hit at once.
        ("pgQ hit: fetch, read, unpin", HITS, local(1000, 0, 0), hits),
        // A clean miss's 3 (partition, victim's unmap, stripe) + the replacement lock.
        ("pgQ clean miss, full pool (k = 1)", MISSES, local(1024, 0, 0), misses),
    ]);
}

#[test]
fn a_dirty_victim_adds_one_stripe_lock_and_no_heap() {
    // Every page the test touches is on the device and every victim is
    // dirty, so each write-back overwrites a stored copy.
    let pool = pool_with(WrapperConfig::default());
    let mut session = pool.session();
    for page in (0..WARM_PAGES).chain(10_000..10_000 + MISSES) {
        pool.storage().write_page(page, &[0; 128]).unwrap();
    }
    for page in 0..WARM_PAGES {
        session.fetch(page).unwrap().write(|d| d[0] = 1);
    }
    let before = hits_and_misses(&pool);
    let writebacks = pool.stats().writebacks.load(Ordering::Relaxed);
    let misses = cost(|| {
        for page in 10_000..10_000 + MISSES {
            session.fetch(page).unwrap().write(|d| d[0] = 1);
        }
    });
    assert_eq!(hits_and_misses(&pool), (before.0, before.1 + MISSES));
    let writebacks = pool.stats().writebacks.load(Ordering::Relaxed) - writebacks;
    assert_eq!(writebacks, MISSES, "every victim dirty");
    #[rustfmt::skip]
    check(&[
        // A clean miss's 3 + 1/8, plus the stripe lock of the victim's write-back.
        ("dirty miss: fetch, write, unpin (k = 8)", MISSES, local(1056, 0, 0), misses),
    ]);
}

#[test]
fn invalidate_takes_three_locks_and_no_heap() {
    let pool = pool_with(WrapperConfig::default());
    let mut session = pool.session();
    for page in 0..FRAMES as u64 {
        drop(session.fetch(page).expect("instant disk"));
    }
    session.flush();
    let invalidated = cost(|| {
        for page in 0..32 {
            assert_eq!(pool.invalidate(page), InvalidateOutcome::Invalidated);
        }
    });
    #[rustfmt::skip]
    check(&[
        // Its partition lock, the replacement lock, the free list's.
        ("invalidate a resident page", 32, local(96, 0, 0), invalidated),
    ]);
}

#[test]
fn building_a_pool_allocates_the_same_at_any_size() {
    let build = |frames: usize| {
        let manager = WrappedManager::new(TwoQ::new(frames), WrapperConfig::default());
        let storage: Arc<dyn Storage> = Arc::new(SimDisk::instant());
        let mut pool = None;
        let built = cost(|| pool = Some(BufferPool::new(frames, 4096, manager, storage)));
        assert_eq!(pool.map(|p| p.frames()), Some(frames));
        built
    };
    let (small, large) = (build(64), build(8_192));
    #[rustfmt::skip]
    check(&[
        // Descriptors, shards, free list, slot lines: one allocation each.
        ("BufferPool::new, 64 frames", 1, local(0, 4, 0), small),
        // The same at 128× the frames: their bytes are one mapping, faulted in on use.
        ("BufferPool::new, 8 192 frames", 1, local(0, 4, 0), large),
    ]);
}
