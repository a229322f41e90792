//! Deterministic-simulation coverage for replacement-manager hot-swap
//! (DESIGN.md §16): swaps race pinned pages, misses, invalidations, and
//! combining drains, and under every schedule the swap epoch must be
//! well-formed (no access applied to a retired manager), residency must
//! be conserved (`free + resident == frames`), and every recorded hit
//! must be committed exactly once — published batches stranded on a
//! retired manager's board are the classic way to lose advice, which is
//! exactly what the `dst_mutation = "swap_no_drain"` mutant reintroduces
//! and this suite must catch.

#![cfg(feature = "dst")]

use std::sync::Arc;

use bpw_bufferpool::{
    BufferPool, InvalidateOutcome, ReplacementManager, SimDisk, SwapManager, WrappedManager,
};
use bpw_core::WrapperConfig;
use bpw_dst::check::{check_free_list, check_hit_conservation, check_swap_epoch};
use bpw_dst::{Op, Sim};
use bpw_replacement::{Lru, TwoQ};

const FRAMES: usize = 6;
/// Swaps the storm's swapper task performs per run.
const SWAPS: u64 = 2;

fn wrapper_cfg() -> WrapperConfig {
    WrapperConfig::default()
        .with_queue_size(2)
        .with_batch_threshold(1)
        .with_combining(true)
}

fn wrapped_lru(frames: usize) -> Box<dyn ReplacementManager> {
    Box::new(WrappedManager::new(Lru::new(frames), wrapper_cfg()))
}

fn wrapped_two_q(frames: usize) -> Box<dyn ReplacementManager> {
    Box::new(WrappedManager::new(TwoQ::new(frames), wrapper_cfg()))
}

type Pool = BufferPool<SwapManager>;

fn make_pool() -> Arc<Pool> {
    Arc::new(BufferPool::new(
        FRAMES,
        64,
        SwapManager::new(wrapped_lru(FRAMES)),
        Arc::new(SimDisk::instant()),
    ))
}

/// Retry `invalidate(page)` through transient `Busy` answers.
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
fn dst_swap_under_storm_preserves_invariants() {
    let mut busy_seen = 0u64;
    let mut enters_seen = 0u64;
    let mut records_seen = 0u64;
    for (i, seed) in bpw_dst::seed_corpus(0x5FAB, 24).iter().enumerate() {
        let pool = make_pool();
        let mut sim = if i % 4 == 1 {
            Sim::new(*seed).with_pct(2)
        } else {
            Sim::new(*seed)
        };
        {
            // Pinner: holds a page pinned across yields so invalidation
            // meets `Busy`, then keeps touching the hot set.
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                let p = s.fetch(0).unwrap();
                for _ in 0..4 {
                    bpw_dst::yield_now();
                }
                drop(p);
                for k in 0..4u64 {
                    drop(s.fetch(k % 3).unwrap());
                }
            });
        }
        for t in 0..2u64 {
            // Fetchers: a working set slightly over capacity, so hits,
            // misses, and evictions all race the swaps.
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                for k in 0..8u64 {
                    drop(s.fetch((k + 3 * t) % 8).unwrap());
                }
            });
        }
        {
            // Invalidator: must converge to a definitive outcome even
            // with a swap mid-flight (the swapper holds every miss-shard
            // lock, so invalidation simply waits its turn).
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let out = invalidate_converging(&pool, 0);
                assert!(
                    matches!(
                        out,
                        InvalidateOutcome::Invalidated | InvalidateOutcome::NotResident
                    ),
                    "retry loop ended on a transient outcome: {out:?}"
                );
            });
        }
        {
            // Swapper: hot-swaps the manager twice under the storm.
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                for s in 0..SWAPS {
                    for _ in 0..3 {
                        bpw_dst::yield_now();
                    }
                    let next = if s % 2 == 0 {
                        wrapped_two_q(FRAMES)
                    } else {
                        wrapped_lru(FRAMES)
                    };
                    let report = pool.swap_manager(next).expect("SwapManager always swaps");
                    assert_eq!(report.generation, s + 1);
                }
            });
        }
        let out = sim.run();
        out.check(|o| {
            assert_eq!(pool.free_frames() + pool.resident_count(), FRAMES);
            pool.check_mapping_invariants();
            let fr = check_free_list(&o.history, FRAMES as u32, true);
            assert_eq!(fr.free_at_end as usize, pool.free_frames());
            let ep = check_swap_epoch(&o.history);
            assert_eq!(ep.installs, SWAPS);
            assert_eq!(ep.retires, SWAPS);
            assert_eq!(ep.max_gen, SWAPS);
            let cons = check_hit_conservation(&o.history);
            assert_eq!(cons.records, cons.commits);
            enters_seen += ep.enters;
            records_seen += cons.records;
        });
        assert_eq!(pool.manager().swaps(), SWAPS);
        for e in &out.history {
            if let Op::Invalidate { outcome: 2, .. } = e.op {
                busy_seen += 1;
            }
        }
    }
    // Anti-vacuity: the corpus must actually exercise epoch entries,
    // recorded advice, and the contended invalidate path.
    assert!(
        enters_seen > 0,
        "no schedule ever entered the epoch; vacuous"
    );
    assert!(
        records_seen > 0,
        "no schedule ever recorded advice; vacuous"
    );
    assert!(busy_seen > 0, "no schedule ever answered Busy; vacuous");
}

/// The dedicated mutant target: a batch is *published* to the combining
/// board (not just queued) when the swap lands, so the coordinator's
/// retirement drain is the only thing standing between that advice and
/// oblivion. Normal build: drained, replayed, conserved. With
/// `RUSTFLAGS='--cfg dst_mutation="swap_no_drain"'` the drain is
/// skipped and `check_hit_conservation` must panic.
#[test]
fn dst_swap_drain_recovers_published_advice() {
    let wrapped = Arc::new(WrappedManager::new(
        Lru::new(4),
        WrapperConfig::default()
            .with_queue_size(2)
            .with_batch_threshold(2)
            .with_combining(true),
    ));
    let mgr = Arc::new(SwapManager::new(Box::new(Arc::clone(&wrapped))));
    let mut sim = Sim::new(0xD12A);
    {
        let wrapped = Arc::clone(&wrapped);
        let mgr = Arc::clone(&mgr);
        sim.spawn(move || {
            let mut h = mgr.handle();
            for i in 0..4u64 {
                h.on_admit(i, i as u32);
            }
            // Fill the queue to threshold while *holding* the wrapper
            // lock, so the commit attempt's try-lock fails and the batch
            // is published to the board instead of applied.
            wrapped.wrapper().with_locked(|_| {
                h.on_hit(0, 0);
                h.on_hit(1, 1);
            });
            // Swap with the batch still on the old board. Retirement
            // must drain it into the successor.
            mgr.swap(wrapped_lru(4));
            drop(h);
        });
    }
    let out = sim.run();
    out.check(|o| {
        let cons = check_hit_conservation(&o.history);
        assert!(cons.records >= 2, "the batch was never published; vacuous");
        assert_eq!(cons.records, cons.commits);
    });
    #[cfg(not(dst_mutation = "swap_no_drain"))]
    assert_eq!(mgr.advice_recovered(), 2);
}

#[test]
fn dst_adaptive_same_seed_same_outcome() {
    // Replay determinism for the raciest scenario: hits and a swap.
    let seed = 0x5FAB_5EEDu64;
    let run = || {
        let pool = make_pool();
        let mut sim = Sim::new(seed);
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let mut s = pool.session();
                for k in 0..6u64 {
                    drop(s.fetch(k % 4).unwrap());
                }
            });
        }
        {
            let pool = Arc::clone(&pool);
            sim.spawn(move || {
                let _ = pool.swap_manager(wrapped_two_q(FRAMES));
            });
        }
        sim.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.history, b.history);
}
