//! Deterministic-simulation suite for the lock-free hit path: slot pins
//! and tag-validated header pins racing invalidation, eviction, and
//! miss-fill.
//!
//! A hit publishes its pin in its session's slot line and then checks
//! the frame's header; an evictor latches the header and then scans the
//! slots. Between publication and check there is a schedule point: the
//! CI-verified mutant `dst_mutation = "slot_published_late"` checks
//! first and publishes after, so an eviction fits in between, and
//! `fetch_resident` racing an eviction of the page it pins catches it
//! (as it catches `evict_ignores_slots`, the victim filter that never
//! scans).
//!
//! A session with no free slot pins through the header, where the
//! schedule point that matters sits inside [`BufferDesc::try_pin`],
//! between the tag read and the header CAS. Under the seeded scheduler
//! a *complete* invalidate + refill of the same frame can execute in
//! that window; the pin must then fail (the slow path bumped the header
//! version, so the CAS misses) rather than land on a frame that now
//! holds a different page. The CI-verified mutant
//! `dst_mutation = "no_version_check"` removes exactly that
//! re-verification — this suite is what catches it, via the wrong-bytes
//! read assertions below: at the descriptor level, and through
//! `PoolSession::fetch_resident` of a session whose slots are all held,
//! racing an eviction of the page it pins.
//!
//! Unlike `dst_miss_storm`, tasks here deliberately *share* pages (so
//! `check_commit_order` does not apply) — shared hot pages are what
//! make pin/invalidate/refill collisions dense enough to matter.
//!
//! The page's bytes have no lock: a pin is the read latch, and a write
//! waits until every other pin is a writer's. Three more mutants are
//! caught here: `write_ignores_readers` (the writer skips that wait; a
//! reader sees a torn page), `write_ignores_slots` (it waits for header
//! pins only, so a hit's slot pin does not hold it off) and
//! `writer_counts_itself_only` (it waits for its own pin alone, so
//! writers queued behind it never let it start; the scheduler reports
//! the livelock).

#![cfg(feature = "dst")]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_dst::check::{check_free_list, check_pin_balance};
use bpw_dst::{Op, RunOutcome, Sim};
use bpw_replacement::{Lru, ReplacementPolicy};

type Pool = BufferPool<WrappedManager<Lru>>;

fn make_pool(frames: usize) -> Arc<Pool> {
    Arc::new(BufferPool::new(
        frames,
        64,
        WrappedManager::new(
            Lru::new(frames),
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(2),
        ),
        Arc::new(SimDisk::instant()),
    ))
}

fn assert_page_bytes(d: &[u8], page: u64) {
    assert_eq!(
        u64::from_le_bytes(d[..8].try_into().unwrap()),
        page,
        "pinned frame holds another page's bytes: the pin's tag \
         validation let a retag slip through"
    );
}

// --- storm: fetchers × invalidator on shared hot pages ---------------------

const FRAMES: usize = 2;
const PAGES: u64 = 4;
const FETCHES: u64 = 10;
const FETCHERS: u64 = 2;

fn run_hit_storm(seed: u64, pct: bool) -> (RunOutcome, Arc<Pool>) {
    let pool = make_pool(FRAMES);
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    for t in 0..FETCHERS {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            let mut x = bpw_dst::splitmix64(seed ^ (t + 1));
            for _ in 0..FETCHES {
                x = bpw_dst::splitmix64(x);
                // Both fetchers draw from the SAME page set: hits race
                // hits, and every page is an invalidation target.
                let page = x % PAGES;
                let p = s.fetch(page).unwrap();
                p.read(|d| assert_page_bytes(d, page));
                drop(p);
            }
        });
    }
    {
        // The antagonist: invalidates hot pages so resident mappings
        // vanish (and frames retag) between a fetcher's lookup and pin.
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut x = bpw_dst::splitmix64(seed ^ 0xA57);
            for _ in 0..2 * FETCHES {
                x = bpw_dst::splitmix64(x);
                // Busy is fine: someone holds a pin right now.
                pool.invalidate(x % PAGES);
                bpw_dst::yield_now();
            }
        });
    }
    (sim.run(), pool)
}

fn check_hit_storm(out: &RunOutcome, pool: &Pool) {
    out.check(|o| {
        // Every fetch completed exactly one way, and the pool's own
        // counters agree with the recorded history.
        let st = pool.stats();
        let done: Vec<bool> = o
            .history
            .iter()
            .filter_map(|e| match e.op {
                Op::FetchDone { hit, .. } => Some(hit),
                _ => None,
            })
            .collect();
        assert_eq!(done.len() as u64, FETCHERS * FETCHES);
        assert_eq!(
            st.hits.load(Ordering::Relaxed),
            done.iter().filter(|h| **h).count() as u64
        );
        assert_eq!(
            st.misses.load(Ordering::Relaxed),
            done.iter().filter(|h| !**h).count() as u64
        );
        // Pin conservation: every recorded pin has a matching unpin and
        // nothing is held once all sessions ended. Sound even though
        // tasks share pages — a pinned frame's tag is stable, so the
        // per-page balance is well-defined.
        let pr = check_pin_balance(&o.history, true);
        assert!(pr.pins > 0, "storm never pinned; hit path not under test");
        assert_eq!(pr.pins, pr.unpins);
        // Structure: no frame leaked between free list and table, no
        // duplicate mappings, free-list history conservation-clean.
        assert_eq!(pool.free_frames() + pool.resident_count(), FRAMES);
        pool.check_mapping_invariants();
        let fr = check_free_list(&o.history, FRAMES as u32, true);
        assert_eq!(fr.free_at_end as usize, pool.free_frames());
        pool.manager()
            .wrapper()
            .with_locked(|p| p.check_invariants());
    });
}

#[test]
fn dst_hit_path_invariants_hold_under_all_schedules() {
    let mut hits = 0;
    for (i, seed) in bpw_dst::seed_corpus(0x417_BA7, 32).iter().enumerate() {
        let (out, pool) = run_hit_storm(*seed, i % 4 == 3);
        check_hit_storm(&out, &pool);
        hits += pool.stats().hits.load(Ordering::Relaxed);
    }
    assert!(hits > 0, "storm never hit; the hit path was not under test");
}

// --- descriptor-level race: the mutant catcher -----------------------------

/// The distilled hazard, at the descriptor level where the retag is
/// only a couple of schedule points long (through the pool a retag is a
/// full invalidate + miss-fill — dozens of yields — so a schedule that
/// fits one inside `try_pin`'s window is astronomically rare; here it
/// is common, which is what makes the `no_version_check` mutant
/// reliably catchable).
///
/// Task B flips one descriptor between pages 1 and 2 under the slow-path
/// latch — respecting pins, exactly like eviction — keeping a stand-in
/// "frame content" cell in sync. Task A spins `try_pin(1)` and asserts
/// that whenever the pin lands, the content is page 1's. A successful
/// CAS against the tag-validated header proves no retag intervened; the
/// mutant CASes against a *fresh* header instead, so a retag landing in
/// the window pins page 2's bytes under page 1's name.
#[test]
fn dst_pin_version_validation_blocks_tag_slippage() {
    use std::sync::atomic::AtomicU64;

    let mut caught_pins = 0u64;
    for (i, seed) in bpw_dst::seed_corpus(0xDE5C, 24).iter().enumerate() {
        let desc = Arc::new(bpw_bufferpool::BufferDesc::new());
        let content = Arc::new(AtomicU64::new(1));
        {
            let mut s = desc.lock();
            s.tag = 1;
            s.valid = true;
        }
        let mut sim = if i % 4 == 3 {
            Sim::new(*seed).with_pct(3)
        } else {
            Sim::new(*seed)
        };
        {
            let desc = Arc::clone(&desc);
            let content = Arc::clone(&content);
            sim.spawn(move || {
                let mut pins = 0u64;
                for _ in 0..200 {
                    let a = desc.try_pin(1);
                    if a.pinned {
                        pins += 1;
                        assert_eq!(
                            content.load(Ordering::Relaxed),
                            1,
                            "pinned page 1 but the frame holds page 2's \
                             bytes: a retag slipped past the pin's \
                             version validation"
                        );
                        desc.unpin();
                    }
                    bpw_dst::yield_now();
                }
                // Smuggle the count out through the history so the
                // outer loop can prove the test is not vacuous.
                bpw_dst::record(move || Op::FetchDone {
                    page: pins,
                    frame: 0,
                    hit: true,
                });
            });
        }
        {
            let desc = Arc::clone(&desc);
            sim.spawn(move || {
                let mut page = 1u64;
                for _ in 0..100 {
                    {
                        let mut s = desc.lock();
                        if s.pins == 0 {
                            // Retag, like eviction: only unpinned frames.
                            page = 3 - page; // 1 <-> 2
                            s.tag = page;
                            content.store(page, Ordering::Relaxed);
                        }
                    }
                    bpw_dst::yield_now();
                }
            });
        }
        let out = sim.run();
        out.check(|o| {
            let pr = check_pin_balance(&o.history, true);
            assert_eq!(pr.pins, pr.unpins);
            caught_pins += o
                .history
                .iter()
                .filter_map(|e| match e.op {
                    Op::FetchDone { page, .. } => Some(page),
                    _ => None,
                })
                .sum::<u64>();
        });
    }
    assert!(
        caught_pins > 0,
        "pins never landed; the race was not under test"
    );
}

// --- targeted race: pin vs invalidate + refill on ONE frame ----------------

/// One frame, two pages: task A hammers page 1 while task B cycles
/// `invalidate(1)` → `fetch(2)` → `invalidate(2)`, so the *only* frame
/// is constantly retagged 1 → 2 → 1. Maximizes the probability that a
/// full retag lands inside A's tag-read → CAS window; the read
/// assertions then distinguish the real pin (version-checked CAS: the
/// pin fails and A refetches) from the mutant (pin lands on page 2's
/// bytes). With `resident_first`, A goes through `fetch_resident` — the
/// entry point a non-blocking caller uses — and falls back to `fetch`
/// on `None`, as the server's frontends do.
/// Returns the run, the pool, and how many of A's accesses
/// `fetch_resident` pinned.
fn run_refill_race(seed: u64, pct: bool, resident_first: bool) -> (RunOutcome, Arc<Pool>, u64) {
    let pool = make_pool(1);
    let in_place = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    {
        let pool = Arc::clone(&pool);
        let in_place = Arc::clone(&in_place);
        sim.spawn(move || {
            let mut s = pool.session();
            for _ in 0..REFILL_FETCHES {
                let resident = if resident_first {
                    s.fetch_resident(1)
                } else {
                    None
                };
                let p = match resident {
                    Some(p) => {
                        in_place.fetch_add(1, Ordering::Relaxed);
                        p
                    }
                    None => s.fetch(1).unwrap(),
                };
                p.read(|d| assert_page_bytes(d, 1));
                drop(p);
            }
        });
    }
    {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            for _ in 0..REFILL_FETCHES / 2 {
                pool.invalidate(1);
                let p = s.fetch(2).unwrap();
                p.read(|d| assert_page_bytes(d, 2));
                drop(p);
                pool.invalidate(2);
                bpw_dst::yield_now();
            }
        });
    }
    let out = sim.run();
    (out, pool, in_place.load(Ordering::Relaxed))
}

const REFILL_FETCHES: u64 = 12;

#[test]
fn dst_pin_validation_survives_invalidate_refill_races() {
    // `DST_SEEDS` (the soak) overrides the corpus size.
    let seeds = bpw_dst::seed_corpus(0x9E7A6, 32);
    let mut in_place = 0;
    for resident_first in [false, true] {
        for (i, seed) in seeds.iter().enumerate() {
            let (out, pool, pinned) = run_refill_race(*seed, i % 2 == 1, resident_first);
            in_place += pinned;
            out.check(|o| {
                let pr = check_pin_balance(&o.history, true);
                assert_eq!(pr.pins, pr.unpins);
                assert_eq!(pool.free_frames() + pool.resident_count(), 1);
                pool.check_mapping_invariants();
                // A `fetch_resident` that came back `None` counted
                // nothing: every access is one hit or one miss.
                let st = pool.stats();
                assert_eq!(
                    st.hits.load(Ordering::Relaxed) + st.misses.load(Ordering::Relaxed),
                    REFILL_FETCHES + REFILL_FETCHES / 2
                );
            });
        }
    }
    assert!(
        in_place > 0 && in_place < seeds.len() as u64 * REFILL_FETCHES,
        "fetch_resident must both pin and give up across the corpus, pinned {in_place}"
    );
}

// --- targeted race: fetch_resident vs eviction of the page it pins ----------

const EVICTION_ROUNDS: u64 = 120;
/// The page task A holds pinned in every slot of its session (and once
/// more through the header, its miss) in the header-pin variant.
const FILLER: u64 = 3;
/// Pin slots per session: `FILLER` guards beyond these pin through the
/// header.
const SLOTS: u64 = 15;

/// One frame for the race, but the retag is a plain eviction and the
/// pinner comes in through `fetch_resident`. Task B alternates
/// `fetch(1)` / `fetch(2)`, each evicting the other; task A asks
/// `fetch_resident(1)` and checks the bytes whenever it gets a pin.
/// Both `yield_now` after every operation, so under PCT they take
/// strict turns — except at a change point, which parks A wherever it
/// stands. Enough change points (depth 64 over a run a few thousand
/// steps long) put one inside A's pin while page 1 is resident; B's
/// next turn is then exactly one whole eviction, and A resumes against
/// a valid frame that holds page 2.
///
/// A pins through a slot, whose window is between the check and the
/// publication under the `slot_published_late` mutant: the check passed
/// against page 1, the eviction's scan found no slot, and A reads page
/// 2's bytes. With `through_header`, A first fills its slots with
/// guards of a second page (one more frame), so its pins go through
/// `try_pin`: there the window is between the tag read and the CAS.
/// The version-checked CAS fails and A reports `None`; the
/// `no_version_check` mutant pins, and the byte assertion fires.
fn run_resident_vs_eviction(seed: u64, through_header: bool) -> (RunOutcome, Arc<Pool>, u64) {
    let pool = make_pool(1 + usize::from(through_header));
    let in_place = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let filled = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut sim = Sim::new(seed).with_pct(64);
    {
        let pool = Arc::clone(&pool);
        let in_place = Arc::clone(&in_place);
        let filled = Arc::clone(&filled);
        sim.spawn(move || {
            let mut s = pool.session();
            // One miss (a header pin) and a hit per slot.
            let fillers = if through_header { SLOTS + 1 } else { 0 };
            let _held: Vec<_> = (0..fillers).map(|_| s.fetch(FILLER).unwrap()).collect();
            filled.store(true, Ordering::Relaxed);
            for _ in 0..EVICTION_ROUNDS {
                if let Some(p) = s.fetch_resident(1) {
                    in_place.fetch_add(1, Ordering::Relaxed);
                    p.read(|d| assert_page_bytes(d, 1));
                }
                bpw_dst::yield_now();
            }
        });
    }
    {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            // The race starts once the filler holds its frame.
            while !filled.load(Ordering::Relaxed) {
                bpw_dst::yield_now();
            }
            for round in 0..EVICTION_ROUNDS {
                drop(s.fetch(1 + round % 2).unwrap());
                bpw_dst::yield_now();
            }
        });
    }
    let out = sim.run();
    (out, pool, in_place.load(Ordering::Relaxed))
}

fn check_resident_vs_eviction(through_header: bool) {
    let mut in_place = 0;
    // About one seed in ten lands a change point in the window.
    let seeds = bpw_dst::seed_corpus(0xE71C7, 32);
    let frames = 1 + usize::from(through_header);
    for &seed in &seeds {
        let (out, pool, pinned) = run_resident_vs_eviction(seed, through_header);
        in_place += pinned;
        out.check(|o| {
            let pr = check_pin_balance(&o.history, true);
            assert_eq!(pr.pins, pr.unpins);
            assert_eq!(pool.free_frames() + pool.resident_count(), frames);
            pool.check_mapping_invariants();
            // Every access is one hit or one miss, and A's `None`s
            // count nothing. B misses every round while A's fillers
            // hold the second frame (each fetch evicts the other page);
            // once A is done, B may find both pages resident.
            let fillers = if through_header { SLOTS + 1 } else { 0 };
            let st = pool.stats();
            let (hits, misses) = (
                st.hits.load(Ordering::Relaxed),
                st.misses.load(Ordering::Relaxed),
            );
            assert_eq!(hits + misses, EVICTION_ROUNDS + fillers + pinned);
            if !through_header {
                assert_eq!(misses, EVICTION_ROUNDS);
            }
        });
    }
    assert!(
        in_place > 0 && in_place < seeds.len() as u64 * EVICTION_ROUNDS,
        "fetch_resident must both pin and give up, pinned {in_place}"
    );
}

#[test]
fn dst_fetch_resident_never_pins_an_evicted_page() {
    check_resident_vs_eviction(false);
}

#[test]
fn dst_fetch_resident_through_the_header_never_pins_an_evicted_page() {
    check_resident_vs_eviction(true);
}

// --- determinism -----------------------------------------------------------

#[test]
fn dst_hit_path_same_seed_same_history() {
    for seed in [0x417_01u64, 0x417_02] {
        let (a, pa) = run_hit_storm(seed, false);
        let (b, pb) = run_hit_storm(seed, false);
        assert_eq!(a.schedule, b.schedule, "schedule diverged for {seed:#x}");
        assert_eq!(a.history, b.history, "history diverged for {seed:#x}");
        assert_eq!(
            pa.stats().hits.load(Ordering::Relaxed),
            pb.stats().hits.load(Ordering::Relaxed)
        );
        assert_eq!(pa.free_frames(), pb.free_frames());
    }
}

// --- the pin as a read latch: torn reads and queued writers ----------------

const WRITTEN_PAGE: u64 = 0;
const HALF: usize = 32;

/// A pool whose page 0 is resident, zeroed, and has no session open.
fn pool_with_zeroed_page() -> Arc<Pool> {
    let pool = make_pool(2);
    let mut s = pool.session();
    s.fetch(WRITTEN_PAGE).unwrap().write(|d| d.fill(0));
    drop(s);
    pool
}

/// Fill the page with `byte`, half by half, with a schedule point
/// between the halves: a reader let in mid-write sees two values.
fn write_in_halves(d: &mut [u8], byte: u8) {
    d[..HALF].fill(byte);
    bpw_dst::yield_point();
    d[HALF..].fill(byte);
}

fn run_torn_read_race(seed: u64, pct: bool) -> (RunOutcome, Arc<Pool>) {
    let pool = pool_with_zeroed_page();
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    for w in 0..2u8 {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            for i in 0..6u8 {
                let p = s.fetch(WRITTEN_PAGE).unwrap();
                p.write(|d| write_in_halves(d, 1 + w * 16 + i));
                drop(p);
                bpw_dst::yield_now();
            }
        });
    }
    for _ in 0..2 {
        let pool = Arc::clone(&pool);
        sim.spawn(move || {
            let mut s = pool.session();
            for _ in 0..8 {
                let p = s.fetch(WRITTEN_PAGE).unwrap();
                p.read(|d| {
                    let low = d[..HALF].to_vec();
                    bpw_dst::yield_point();
                    let high = &d[HALF..];
                    assert!(
                        low.iter().chain(high).all(|&b| b == low[0]),
                        "torn read: a write ran under a reader's pin \
                         (low half {low:?}, high half {high:?})"
                    );
                });
                drop(p);
            }
        });
    }
    (sim.run(), pool)
}

#[test]
fn dst_a_read_never_sees_half_a_write() {
    for (i, seed) in bpw_dst::seed_corpus(0x7E4D, 32).iter().enumerate() {
        let (out, pool) = run_torn_read_race(*seed, i % 2 == 1);
        out.check(|o| {
            let pr = check_pin_balance(&o.history, true);
            assert_eq!(pr.pins, pr.unpins);
            // Writes set DIRTY without the descriptor latch; the page is
            // dirty and its bytes are the last write's.
            let mut s = pool.session();
            let p = s.fetch(WRITTEN_PAGE).unwrap();
            p.read(|d| assert!(d.iter().all(|&b| b == d[0] && b != 0)));
        });
    }
}

/// Three tasks pin the page first and only then write it, so their pins
/// overlap: each write waits for the others' pins, which are writers'.
fn run_concurrent_writers(seed: u64, pct: bool) -> (RunOutcome, Arc<Pool>, u64) {
    let pool = pool_with_zeroed_page();
    let finished = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    // A clean run takes a few hundred steps; a livelock is reported
    // well before the default budget.
    sim = sim.with_max_steps(20_000);
    for w in 1..=3u8 {
        let pool = Arc::clone(&pool);
        let finished = Arc::clone(&finished);
        sim.spawn(move || {
            let mut s = pool.session();
            let p = s.fetch(WRITTEN_PAGE).unwrap();
            bpw_dst::yield_now();
            p.write(|d| write_in_halves(d, w));
            finished.fetch_add(1, Ordering::Relaxed);
        });
    }
    let out = sim.run();
    (out, pool, finished.load(Ordering::Relaxed))
}

#[test]
fn dst_concurrent_writers_each_finish_and_one_wins_whole() {
    for (i, seed) in bpw_dst::seed_corpus(0x3E17E5, 32).iter().enumerate() {
        let (out, pool, finished) = run_concurrent_writers(*seed, i % 2 == 1);
        out.check(|o| {
            assert_eq!(finished, 3, "every write finishes");
            let pr = check_pin_balance(&o.history, true);
            assert_eq!(pr.pins, pr.unpins);
            let mut s = pool.session();
            let p = s.fetch(WRITTEN_PAGE).unwrap();
            p.read(|d| {
                assert!((1..=3).contains(&d[0]), "page holds no writer's bytes");
                assert!(d.iter().all(|&b| b == d[0]), "two writers' bytes mixed");
            });
        });
    }
}
