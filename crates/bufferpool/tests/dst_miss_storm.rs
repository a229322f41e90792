//! Deterministic-simulation port of the miss-storm stress test: a few
//! virtual threads hammer a tiny pool whose working set is three times
//! its frame count, so fetches constantly take the partitioned miss
//! path — free-list pops, victim eviction, table rebinding — at
//! schedule points chosen by the seeded scheduler instead of by OS
//! timing. Each task fetches a disjoint page range (a precondition of
//! the commit-order checker) and sprinkles invalidations of its own
//! pages into the storm. A queue of 16 makes each eviction take one
//! victim ahead (k = 2), so sessions stash frames and queue admissions.

#![cfg(feature = "dst")]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_dst::check::{check_commit_order, check_free_list};
use bpw_dst::{Op, RunOutcome, Sim};
use bpw_replacement::{Lru, ReplacementPolicy};

const FRAMES: usize = 4;
const TASKS: u64 = 3;
const PAGES_PER: u64 = 4;
const FETCHES: u64 = 8;

type Pool = BufferPool<WrappedManager<Lru>>;

fn make_pool() -> Arc<Pool> {
    Arc::new(BufferPool::new(
        FRAMES,
        64,
        WrappedManager::new(
            Lru::new(FRAMES),
            WrapperConfig::default()
                .with_queue_size(16)
                .with_batch_threshold(2),
        ),
        Arc::new(SimDisk::instant()),
    ))
}

fn run_storm(seed: u64, pct: bool) -> (RunOutcome, Arc<Pool>) {
    let pool = make_pool();
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    for t in 0..TASKS {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            let mut x = bpw_dst::splitmix64(seed ^ t);
            for i in 0..FETCHES {
                x = bpw_dst::splitmix64(x);
                // Disjoint per-task range, 3x the pool across all tasks.
                let page = t * PAGES_PER + x % PAGES_PER;
                let p = s.fetch(page).unwrap();
                p.read(|d| {
                    assert_eq!(
                        u64::from_le_bytes(d[..8].try_into().unwrap()),
                        page,
                        "wrong bytes under dst miss storm"
                    );
                });
                drop(p);
                if i % 3 == 2 {
                    // Invalidate one of this task's own pages; Busy is
                    // fine mid-storm (someone may hold a pin).
                    pool.invalidate(t * PAGES_PER + (x >> 8) % PAGES_PER);
                }
            }
        });
    }
    (sim.run(), pool)
}

fn check_storm(out: &RunOutcome, pool: &Pool) {
    out.expect_clean();
    out.check(|o| {
        // Accounting: every fetch completed exactly one way.
        let st = pool.stats();
        let done: Vec<bool> = o
            .history
            .iter()
            .filter_map(|e| match e.op {
                Op::FetchDone { hit, .. } => Some(hit),
                _ => None,
            })
            .collect();
        assert_eq!(done.len() as u64, TASKS * FETCHES);
        assert_eq!(
            st.hits.load(Ordering::Relaxed),
            done.iter().filter(|h| **h).count() as u64
        );
        assert_eq!(
            st.misses.load(Ordering::Relaxed),
            done.iter().filter(|h| !**h).count() as u64
        );
        // Structure: no frame leaked between free list, stashes and
        // table (every session has ended, so every stash is back on the
        // free list — the `stash_leak` mutant's drop forgets it), no
        // duplicate mappings, the policy holds what the pool holds, and
        // the recorded free-list history is conservation-clean and
        // agrees with the live count.
        assert_eq!(pool.stashed_frames(), 0);
        assert_eq!(pool.free_frames() + pool.resident_count(), FRAMES);
        pool.check_mapping_invariants();
        let fr = check_free_list(&o.history, FRAMES as u32, true);
        assert_eq!(fr.free_at_end as usize, pool.free_frames());
        // Wrapper: program order + exactly-once commit under the storm.
        check_commit_order(&o.history);
        pool.manager()
            .wrapper()
            .with_locked(|p| p.check_invariants());
    });
}

#[test]
fn dst_miss_storm_invariants_hold_under_all_schedules() {
    let mut misses = 0;
    let mut evicted_ahead = 0;
    // 256 seeds: only about 1.5 % of schedules let an eviction take a
    // frame a hit is reading, so 32 seeds may miss the
    // `evict_ignores_slots` mutant.
    for (i, seed) in bpw_dst::seed_corpus(0x3155, 256).iter().enumerate() {
        let (out, pool) = run_storm(*seed, i % 4 == 3);
        check_storm(&out, &pool);
        misses += pool.stats().misses.load(Ordering::Relaxed);
        evicted_ahead += out
            .history
            .iter()
            .filter(|e| matches!(e.op, Op::EvictAhead { .. }))
            .count();
    }
    assert!(
        misses > 0,
        "storm never missed; the miss path was not under test"
    );
    assert!(
        evicted_ahead > 0,
        "no miss evicted ahead; the stash was not under test"
    );
}

#[test]
fn dst_miss_storm_same_seed_same_history() {
    for seed in [0x0031_5701_u64, 0x0031_5702] {
        let (a, pa) = run_storm(seed, false);
        let (b, pb) = run_storm(seed, false);
        assert_eq!(
            a.schedule, b.schedule,
            "schedule diverged for seed {seed:#x}"
        );
        assert_eq!(a.history, b.history, "history diverged for seed {seed:#x}");
        assert_eq!(
            pa.stats().hits.load(Ordering::Relaxed),
            pb.stats().hits.load(Ordering::Relaxed)
        );
        assert_eq!(pa.free_frames(), pb.free_frames());
    }
}

#[test]
fn dst_two_misses_on_one_page_read_it_once() {
    // The storm's tasks share no page. Here two tasks fetch the same
    // cold pages in the same order, so their misses race page by page;
    // the loser's re-check under the partition lock finds the winner's
    // mapping, so each page is read once.
    for seed in bpw_dst::seed_corpus(0x3158, 64) {
        let pool = make_pool();
        let mut sim = Sim::new(seed);
        for _ in 0..2 {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                for page in 0..FRAMES as u64 {
                    drop(s.fetch(page).unwrap());
                }
            });
        }
        sim.run().check(|o| {
            let missed = o
                .history
                .iter()
                .filter(|e| matches!(e.op, Op::FetchDone { hit: false, .. }));
            assert_eq!(
                missed.count(),
                FRAMES,
                "seed {seed:#x}: a page was missed twice"
            );
            assert_eq!(pool.storage().reads(), FRAMES as u64);
            pool.check_mapping_invariants();
        });
    }
}
