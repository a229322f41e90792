//! Regression tests for the pool's two delicate cross-thread paths:
//! `invalidate` racing concurrently pinned fetches, and write-back
//! through `SimDisk` under concurrent writers. The "recovery" in the
//! name dates from the pool's deleted log; the name is kept so the
//! test ids stay stable.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, SimDisk, Storage, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::{Lirs, TwoQ};

/// `invalidate` racing a herd of fetching/pinning threads must never
/// corrupt contents, lose frames, or invalidate a pinned page.
///
/// Guarantees exercised:
/// * a fetch that overlaps an invalidation either sees the old valid
///   copy or reloads from storage — both carry the page's bytes;
/// * `invalidate` refuses pages currently pinned (returns `false`);
/// * every frame freed by `invalidate` is reusable: at the end,
///   `free_frames + resident_count == frames`.
#[test]
fn invalidate_races_concurrent_pins_without_corruption() {
    let frames = 32;
    let pool: BufferPool<WrappedManager<TwoQ>> = BufferPool::new(
        frames,
        64,
        WrappedManager::new(TwoQ::new(frames), WrapperConfig::default()),
        Arc::new(SimDisk::instant()),
    );
    let pages = 48u64; // more than frames: eviction + invalidation mix
    let stop = AtomicBool::new(false);
    let invalidations = AtomicU64::new(0);
    let rejected_while_pinned = AtomicU64::new(0);

    std::thread::scope(|sc| {
        // Fetchers: pin, verify, hold briefly.
        for t in 0..4u64 {
            let pool = &pool;
            let stop = &stop;
            sc.spawn(move || {
                let mut s = pool.session();
                let mut x = 0x1234_5678u64.wrapping_add(t);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % pages;
                    let p = s.fetch(page).unwrap();
                    p.read(|data| {
                        assert_eq!(
                            u64::from_le_bytes(data[..8].try_into().unwrap()),
                            page,
                            "fetch raced invalidate into wrong content"
                        );
                    });
                    // Invalidate the page we ourselves hold pinned: must
                    // always be refused.
                    if x % 7 == 0 {
                        assert!(
                            !pool.invalidate(page).is_invalidated(),
                            "invalidate succeeded on a pinned page"
                        );
                    }
                    drop(p);
                }
            });
        }
        // Invalidator: sweeps the page set continuously.
        {
            let pool = &pool;
            let stop = &stop;
            let invalidations = &invalidations;
            let rejected = &rejected_while_pinned;
            sc.spawn(move || {
                for round in 0..400u64 {
                    for page in 0..pages {
                        if pool.invalidate(page).is_invalidated() {
                            invalidations.fetch_add(1, Ordering::Relaxed);
                        } else {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if round % 32 == 0 {
                        std::thread::yield_now();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });

    assert!(
        invalidations.load(Ordering::Relaxed) > 0,
        "invalidator never won a race"
    );
    // No frame leaked: everything is either resident or on the free list.
    assert_eq!(
        pool.resident_count() + pool.free_frames(),
        frames,
        "frames leaked by racing invalidations"
    );
    // The pool still works after the storm.
    let mut s = pool.session();
    for page in 0..pages {
        s.fetch(page).unwrap().read(|d| {
            assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), page);
        });
    }
}

/// SimDisk under concurrent writers: page contents are exactly the last
/// version each owning thread wrote, regardless of interleaving — the
/// property the server's PUT path and the pool's write-back both lean
/// on.
#[test]
fn simdisk_concurrent_writeback_is_deterministic() {
    let disk = Arc::new(SimDisk::instant());
    let threads = 4u64;
    let pages_per_thread = 16u64;
    let versions = 50u64;
    std::thread::scope(|sc| {
        for t in 0..threads {
            let disk = Arc::clone(&disk);
            sc.spawn(move || {
                let mut buf = vec![0u8; 64];
                for v in 1..=versions {
                    for i in 0..pages_per_thread {
                        let page = t * pages_per_thread + i;
                        buf[..8].copy_from_slice(&page.to_le_bytes());
                        buf[8..16].copy_from_slice(&v.to_le_bytes());
                        buf[16..].fill((v % 251) as u8);
                        disk.write_page(page, &buf).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(disk.written_pages(), (threads * pages_per_thread) as usize);
    assert_eq!(disk.writes(), threads * pages_per_thread * versions);
    let mut buf = vec![0u8; 64];
    for page in 0..threads * pages_per_thread {
        disk.read_page(page, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), page);
        assert_eq!(
            u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            versions,
            "page {page} does not hold its last-written version"
        );
        assert!(buf[16..].iter().all(|&b| b == (versions % 251) as u8));
    }
}

/// The same determinism through the full pool stack: concurrent
/// sessions writing disjoint pages, churned through a pool smaller than
/// the working set, must read back exactly what they last wrote.
#[test]
fn pool_writeback_roundtrip_under_concurrent_writers() {
    let frames = 16;
    let pool: BufferPool<WrappedManager<Lirs>> = BufferPool::new(
        frames,
        64,
        WrappedManager::new(Lirs::new(frames), WrapperConfig::default()),
        Arc::new(SimDisk::instant()),
    );
    let threads = 4u64;
    let pages_per_thread = 12u64; // 48 pages through 16 frames: heavy churn
    std::thread::scope(|sc| {
        for t in 0..threads {
            let pool = &pool;
            sc.spawn(move || {
                let mut s = pool.session();
                for round in 1..=40u8 {
                    for i in 0..pages_per_thread {
                        let page = t * pages_per_thread + i;
                        let p = s.fetch(page).unwrap();
                        p.write(|d| {
                            d[20] = round;
                            d[21] = t as u8;
                        });
                    }
                }
            });
        }
    });
    let mut s = pool.session();
    for t in 0..threads {
        for i in 0..pages_per_thread {
            let page = t * pages_per_thread + i;
            s.fetch(page).unwrap().read(|d| {
                assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), page);
                assert_eq!(d[20], 40, "page {page} lost its final write");
                assert_eq!(d[21], t as u8);
            });
        }
    }
}
