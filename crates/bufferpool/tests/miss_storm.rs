//! Miss-storm stress test: many threads over a working set far larger
//! than the pool, so nearly every fetch takes the partitioned miss path
//! (per-shard partition locks + the free list) concurrently. The test
//! asserts the accounting and structural invariants that partitioning
//! must not break:
//!
//! * `hits + misses == completed fetches` — no access lost or double
//!   counted across partition locks;
//! * `free_frames + resident_count == frames` — no frame leaked between
//!   the free list and the table;
//! * no two pages map to the same frame — shard-local rebinding never
//!   produced a duplicate mapping;
//! * with writes, no write is lost — every page carries a counter each
//!   write increments, and the counters read back through the pool sum
//!   to the writes made (ROADMAP item 0's 100-seed gate).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, CoarseManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::{Lirs, TwoQ};

/// Zipf-ish skew: square a uniform draw so low page ids dominate, with
/// a uniform tail mixed in — a miss-heavy blend of hot and cold pages.
fn skewed_page(x: &mut u64, universe: u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    if (*x).is_multiple_of(4) {
        // Uniform cold tail: almost always a miss.
        (*x >> 16) % universe
    } else {
        // Skewed hot head.
        let u = (*x >> 8) as f64 / u64::MAX as f64 * 256.0;
        ((u * u) as u64 * universe) >> 16
    }
}

/// The write counter's bytes in a page body (after the page id).
const COUNTER: std::ops::Range<usize> = 8..16;

fn counter(d: &[u8]) -> u64 {
    u64::from_le_bytes(d[COUNTER].try_into().unwrap())
}

fn storm<M: bpw_bufferpool::ReplacementManager + Sync>(
    pool: &BufferPool<M>,
    threads: u64,
    per_thread: u64,
    universe: u64,
    seed: u64,
    write_percent: u64,
) {
    let completed = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    std::thread::scope(|sc| {
        for t in 0..threads {
            let pool = &pool;
            let completed = &completed;
            let writes = &writes;
            sc.spawn(move || {
                let mut s = pool.session();
                let mut x = seed.wrapping_mul(t + 1);
                for i in 0..per_thread {
                    let page = if i % 3 == 0 {
                        // Uniform component.
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(t);
                        (x >> 20) % universe
                    } else {
                        skewed_page(&mut x, universe)
                    };
                    let p = s.fetch(page).unwrap();
                    p.read(|d| {
                        assert_eq!(
                            u64::from_le_bytes(d[..8].try_into().unwrap()),
                            page,
                            "wrong bytes under miss storm"
                        );
                    });
                    if (x >> 40) % 100 < write_percent {
                        p.write(|d| {
                            let n = counter(d).wrapping_add(1);
                            d[COUNTER].copy_from_slice(&n.to_le_bytes());
                        });
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(p);
                    completed.fetch_add(1, Ordering::Relaxed);
                    if write_percent == 0 && i % 97 == 0 {
                        // Sprinkle invalidations into the storm: they take
                        // the same partition locks and push to the free list.
                        // (Not with writes: invalidate discards dirty bytes.)
                        pool.invalidate(page.wrapping_add(1) % universe);
                    }
                }
            });
        }
    });
    let st = pool.stats();
    assert_eq!(
        st.hits.load(Ordering::Relaxed) + st.misses.load(Ordering::Relaxed),
        completed.load(Ordering::Relaxed),
        "hits + misses must equal completed fetches"
    );
    assert_eq!(
        pool.free_frames() + pool.resident_count(),
        pool.frames(),
        "frames leaked between free list and table"
    );
    pool.check_mapping_invariants();
    // The storm must actually have exercised the miss path heavily.
    assert!(
        st.misses.load(Ordering::Relaxed) > st.hits.load(Ordering::Relaxed) / 4,
        "working set did not overwhelm the pool; test is vacuous"
    );
    if write_percent > 0 {
        assert!(
            st.writebacks.load(Ordering::Relaxed) > 0,
            "seed {seed:#x}: no dirty eviction; the lost-write check is vacuous"
        );
        // A page never written back holds its fill byte in every counter
        // byte; what the storm added is the difference.
        let mut s = pool.session();
        let found: u64 = (0..universe)
            .map(|page| {
                let fresh = u64::from_le_bytes([SimDisk::fill_byte(page); 8]);
                s.fetch(page).unwrap().read(counter).wrapping_sub(fresh)
            })
            .sum();
        assert_eq!(
            found,
            writes.load(Ordering::Relaxed),
            "seed {seed:#x}: lost writes"
        );
    }
}

#[test]
fn miss_storm_wrapped_pool_invariants_hold() {
    let frames = 64;
    let pool: BufferPool<WrappedManager<Lirs>> = BufferPool::new(
        frames,
        64,
        WrappedManager::new(Lirs::new(frames), WrapperConfig::default()),
        Arc::new(SimDisk::instant()),
    );
    // Working set 16x the pool.
    storm(&pool, 8, 4000, 1024, 0x9E3779B9, 0);
    let summary = pool.miss_lock_summary();
    assert!(summary.shards > 1);
    assert!(
        pool.miss_lock_shard_snapshots()
            .iter()
            .filter(|s| s.acquisitions > 0)
            .count()
            > 1,
        "storm must spread misses over multiple partition locks"
    );
    assert_eq!(
        summary.total_acquisitions,
        pool.miss_lock_snapshot().acquisitions
    );
}

#[test]
fn miss_storm_coarse_single_shard_invariants_hold() {
    // The same storm against the coarse-lock manager: the correctness
    // properties are manager-independent.
    let frames = 32;
    let pool = BufferPool::new(
        frames,
        64,
        CoarseManager::new(TwoQ::new(frames)),
        Arc::new(SimDisk::instant()),
    );
    storm(&pool, 4, 3000, 512, 0x9E3779B9, 0);
}

#[test]
fn miss_storm_loses_no_write_over_100_seeds() {
    // ROADMAP item 0's gate, in the `pool_miss_rw` manager: 64 frames,
    // 512 pages, 2 threads, half the accesses writes, 100 seeds.
    for k in 1..=100u64 {
        let frames = 64;
        let pool: BufferPool<WrappedManager<TwoQ>> = BufferPool::new(
            frames,
            64,
            WrappedManager::new(TwoQ::new(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let seed = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        storm(&pool, 2, 4000, 512, seed, 50);
    }
}

#[test]
fn miss_storm_with_free_list_churn_conserves_frames() {
    // Invalidation-heavy storm: frames cycle through the free list
    // constantly, pushed by invalidations and popped by misses.
    let frames = 16;
    let pool: BufferPool<WrappedManager<TwoQ>> = BufferPool::new(
        frames,
        64,
        WrappedManager::new(TwoQ::new(frames), WrapperConfig::default()),
        Arc::new(SimDisk::instant()),
    );
    std::thread::scope(|sc| {
        for t in 0..4u64 {
            let pool = &pool;
            sc.spawn(move || {
                let mut s = pool.session();
                for i in 0..4000u64 {
                    let page = (i.wrapping_mul(t + 1)) % 256;
                    drop(s.fetch(page).unwrap());
                    if i % 5 == 0 {
                        pool.invalidate((page + t) % 256);
                    }
                }
            });
        }
    });
    assert_eq!(pool.free_frames() + pool.resident_count(), frames);
    pool.check_mapping_invariants();
}
