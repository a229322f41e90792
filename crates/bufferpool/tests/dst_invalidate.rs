//! Deterministic-simulation coverage for the invalidate/fetch race and
//! the `InvalidateOutcome::Busy` retry loop: a page is pinned by one
//! virtual thread, re-fetched by another, and invalidated by a third
//! that retries on `Busy` until it gets a definitive answer. Under
//! every schedule the retry loop must converge to `Invalidated` or
//! `NotResident` (never spin forever — the step budget would abort the
//! run), and the pool must end with `free + resident == frames`.
//!
//! A hit's pin lives in its session's slot line, not in the frame's
//! header, so invalidate must scan the slots too: the
//! `dst_mutation = "invalidate_ignores_slots"` mutant frees a page a
//! hit is still reading, and `dst_invalidate_never_frees_a_page_a_hit_reads`
//! catches the refill under the reader.

#![cfg(feature = "dst")]

use std::sync::Arc;

use bpw_bufferpool::{BufferPool, InvalidateOutcome, ReplacementManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_dst::check::check_free_list;
use bpw_dst::{Op, Sim};
use bpw_replacement::Lru;

const FRAMES: usize = 2;
const PAGE: u64 = 5;

type Pool = BufferPool<WrappedManager<Lru>>;

fn make_pool() -> Arc<Pool> {
    Arc::new(BufferPool::new(
        FRAMES,
        64,
        WrappedManager::new(
            Lru::new(FRAMES),
            WrapperConfig::default()
                .with_queue_size(2)
                .with_batch_threshold(1),
        ),
        Arc::new(SimDisk::instant()),
    ))
}

/// Retry `invalidate(page)` through transient `Busy` answers until it
/// resolves; panics if the loop cannot resolve within the simulation's
/// step budget (which would mean `Busy` is not actually transient).
fn invalidate_converging(pool: &Pool, page: u64) -> InvalidateOutcome {
    loop {
        let out = pool.invalidate(page);
        if !out.is_retryable() {
            return out;
        }
        bpw_dst::yield_now();
    }
}

#[test]
fn dst_invalidate_retry_loop_converges_under_pin_races() {
    let mut busy_seen = 0u64;
    let mut invalidated_seen = 0u64;
    for (i, seed) in bpw_dst::seed_corpus(0x1BAD, 40).iter().enumerate() {
        let pool = make_pool();
        let mut sim = if i % 4 == 1 {
            Sim::new(*seed).with_pct(2)
        } else {
            Sim::new(*seed)
        };
        {
            // Pinner: holds PAGE pinned across yields, then releases
            // and touches it once more.
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                let p = s.fetch(PAGE).unwrap();
                for _ in 0..4 {
                    bpw_dst::yield_now();
                }
                drop(p);
                drop(s.fetch(PAGE).unwrap());
            });
        }
        {
            // Fetcher: races fetches of PAGE (and a neighbour, to force
            // eviction pressure on the 2-frame pool) against the
            // invalidation.
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                for k in 0..3u64 {
                    drop(s.fetch(PAGE).unwrap());
                    drop(s.fetch(PAGE + 1 + (k % 2)).unwrap());
                }
            });
        }
        {
            // Invalidator: must get a definitive outcome despite pins.
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let out = invalidate_converging(&pool, PAGE);
                assert!(
                    matches!(
                        out,
                        InvalidateOutcome::Invalidated | InvalidateOutcome::NotResident
                    ),
                    "retry loop ended on a transient outcome: {out:?}"
                );
            });
        }
        let out = sim.run();
        out.expect_clean();
        out.check(|o| {
            assert_eq!(pool.free_frames() + pool.resident_count(), FRAMES);
            pool.check_mapping_invariants();
            let fr = check_free_list(&o.history, FRAMES as u32, true);
            assert_eq!(fr.free_at_end as usize, pool.free_frames());
        });
        // Tally invalidate outcomes from the recorded history
        // (0 = Invalidated, 1 = NotResident, 2 = Busy).
        for e in &out.history {
            match e.op {
                Op::Invalidate { outcome: 2, .. } => busy_seen += 1,
                Op::Invalidate { outcome: 0, .. } => invalidated_seen += 1,
                _ => {}
            }
        }
    }
    // The corpus must actually explore both the contended and the
    // successful paths, or the retry loop was never under test.
    assert!(busy_seen > 0, "no schedule ever answered Busy; vacuous");
    assert!(
        invalidated_seen > 0,
        "no schedule ever invalidated; vacuous"
    );
}

/// One frame. The reader warms `PAGE`, then holds hit guards on it and
/// reads it before and after a run of yields; the antagonist invalidates
/// `PAGE` whenever it can and refills the frame with another page at
/// once. Invalidate must answer `Busy` while a hit's slot pins the
/// page; under the `invalidate_ignores_slots` mutant it frees the
/// frame, the refill overwrites it, and the reader's second read sees
/// the other page.
#[test]
fn dst_invalidate_never_frees_a_page_a_hit_reads() {
    const OTHER: u64 = PAGE + 1;
    const ROUNDS: u64 = 6;
    let stamp = |d: &[u8]| u64::from_le_bytes(d[..8].try_into().unwrap());
    let (mut busy_seen, mut hits) = (0u64, 0u64);
    for (i, seed) in bpw_dst::seed_corpus(0x5107, 40).iter().enumerate() {
        let pool = Arc::new(BufferPool::new(
            1,
            64,
            WrappedManager::new(Lru::new(1), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        ));
        let mut sim = if i % 4 == 1 {
            Sim::new(*seed).with_pct(3)
        } else {
            Sim::new(*seed)
        };
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                drop(s.fetch(PAGE).unwrap());
                for _ in 0..ROUNDS {
                    let p = s.fetch(PAGE).unwrap();
                    assert_eq!(p.read(stamp), PAGE);
                    for _ in 0..4 {
                        bpw_dst::yield_now();
                    }
                    assert_eq!(
                        p.read(stamp),
                        PAGE,
                        "the page was invalidated and its frame refilled under a reader's pin"
                    );
                }
            });
        }
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                for _ in 0..4 * ROUNDS {
                    if pool.invalidate(PAGE).is_invalidated() {
                        drop(s.fetch(OTHER).unwrap());
                    }
                    bpw_dst::yield_now();
                }
            });
        }
        let out = sim.run();
        out.expect_clean();
        out.check(|_| {
            assert_eq!(pool.free_frames() + pool.resident_count(), 1);
            pool.check_mapping_invariants();
        });
        busy_seen += out
            .history
            .iter()
            .filter(|e| matches!(e.op, Op::Invalidate { outcome: 2, .. }))
            .count() as u64;
        hits += pool.stats().hits.load(std::sync::atomic::Ordering::Relaxed);
    }
    assert!(
        busy_seen > 0 && hits > 0,
        "no invalidate met a hit's pin ({busy_seen} Busy, {hits} hits); vacuous"
    );
}

/// Invalidate racing a *queued admission*: the admitter fills a
/// four-frame pool, misses once more so it evicts a frame ahead (k = 2
/// at S = 16), and reads `PAGE` into that stashed frame — its admission
/// now waits in the FIFO (T = 16). The invalidator drops `PAGE` as soon
/// as it can and refills the freed frame with another page. Whichever
/// commit lands first, at quiescence the policy must hold exactly what
/// the pool holds, frame for frame. The `dst_mutation = "stale_admit"`
/// mutant skips the admission-generation check and binds `PAGE` into a
/// frame the pool has freed or refilled.
#[test]
fn dst_invalidate_makes_a_queued_admission_stale() {
    const PAGE: u64 = 20;
    const ADMIT_FRAMES: usize = 4;
    let mut stale = 0u64;
    for (i, seed) in bpw_dst::seed_corpus(0x57A1E, 40).iter().enumerate() {
        let pool = Arc::new(BufferPool::new(
            ADMIT_FRAMES,
            64,
            WrappedManager::new(
                Lru::new(ADMIT_FRAMES),
                WrapperConfig::default()
                    .with_queue_size(16)
                    .with_batch_threshold(16),
            ),
            Arc::new(SimDisk::instant()),
        ));
        let mut sim = if i % 4 == 1 {
            Sim::new(*seed).with_pct(2)
        } else {
            Sim::new(*seed)
        };
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                for page in 10..15 {
                    drop(s.fetch(page).unwrap());
                }
                drop(s.fetch(PAGE).unwrap());
                for _ in 0..4 {
                    bpw_dst::yield_now();
                }
                s.flush();
            });
        }
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                while pool.invalidate(PAGE) != InvalidateOutcome::Invalidated {
                    bpw_dst::yield_now();
                }
                for _ in 0..2 {
                    bpw_dst::yield_now();
                }
                drop(pool.session().fetch(PAGE + 1).unwrap());
            });
        }
        let out = sim.run();
        out.expect_clean();
        out.check(|_| {
            assert_eq!(pool.free_frames() + pool.resident_count(), ADMIT_FRAMES);
            pool.check_mapping_invariants();
        });
        stale += pool.manager().stale_admissions();
    }
    assert!(
        stale > 0,
        "no schedule invalidated a page with its admission queued; vacuous"
    );
}

#[test]
fn dst_invalidate_same_seed_same_outcome() {
    // Replay determinism for the raciest scenario in the suite.
    let seed = 0x1BAD_5EEDu64;
    let run = || {
        let pool = make_pool();
        let mut sim = Sim::new(seed);
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                let p = s.fetch(PAGE).unwrap();
                bpw_dst::yield_now();
                drop(p);
            });
        }
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let _ = invalidate_converging(&pool, PAGE);
            });
        }
        sim.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.history, b.history);
}
