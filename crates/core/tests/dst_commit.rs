//! Deterministic-simulation tests for the wrapper's batched commit path
//! (the paper's §III-A ordering contract), driven by the vendored
//! bpw-dst scheduler.
//!
//! Every test explores many seeded schedules. For each schedule the
//! recorded history must satisfy:
//!
//! * **program order** — each thread's recorded hits commit in its own
//!   FIFO order, exactly once ([`check_commit_order`]);
//! * **serial witness** — replaying the *global* commit order against a
//!   fresh, unwrapped policy reproduces the same placements, victims,
//!   stale skips, and final recency order: the concurrent execution is
//!   equivalent to some serial interleaving of committed batches.
//!
//! Failures print the seed and the full schedule; re-running the same
//! seed replays the identical execution. The `dst_mutation =
//! "commit_reorder"` mutant (a batch's last entry applied first) must
//! fail the program-order check.

#![cfg(feature = "dst")]

use std::sync::Arc;

use bpw_core::{BpWrapper, WrapperConfig};
use bpw_dst::check::{check_commit_order, CommitReport};
use bpw_dst::{Event, Op, RunOutcome, Sim};
use bpw_replacement::{Lru, ReplacementPolicy, SeqLru};

const FRAMES: usize = 12;
const WORKERS: u64 = 3;
const PAGES_PER: u64 = 4;
const ROUNDS: u64 = 3;

/// An Lru wrapper with a tiny queue (S = 4, T = 2) so threshold
/// crossings that find the lock busy are frequent, pre-warmed so page
/// `i` sits in frame `i`.
fn warmed_wrapper() -> Arc<BpWrapper<Lru>> {
    let w = BpWrapper::new(
        Lru::new(FRAMES),
        WrapperConfig::default()
            .with_queue_size(4)
            .with_batch_threshold(2),
    );
    w.with_locked(|p| {
        for i in 0..FRAMES as u64 {
            p.record_miss(i, Some(i as u32), &mut |_| true);
        }
    });
    Arc::new(w)
}

/// The serial witness (checker (c)): replay the global commit order into
/// a fresh warmed policy. Every committed access must behave exactly as
/// it did live — same admitted frame, same victim, same stale verdict —
/// and the final state must match `live`'s.
fn replay_serially(history: &[Event], live: &Arc<BpWrapper<Lru>>) {
    let mut p = Lru::new(FRAMES);
    for i in 0..FRAMES as u64 {
        p.record_miss(i, Some(i as u32), &mut |_| true);
    }
    for ev in history {
        match ev.op {
            Op::CommitHit {
                page,
                frame,
                applied,
            } => {
                let resident = p.page_at(frame) == Some(page);
                assert_eq!(
                    resident, applied,
                    "serial replay disagrees on staleness of hit ({page}, frame {frame})"
                );
                if applied {
                    p.record_hit(frame);
                }
            }
            Op::MissApply {
                page,
                free,
                frame,
                victim,
            } => {
                let out = p.record_miss(page, free, &mut |_| true);
                assert_eq!(
                    out.frame(),
                    frame,
                    "serial replay admitted page {page} into a different frame"
                );
                assert_eq!(
                    out.victim(),
                    victim,
                    "serial replay evicted a different victim for page {page}"
                );
            }
            _ => {}
        }
    }
    p.check_invariants();
    let live_order = live.with_locked(|lp| {
        lp.check_invariants();
        lp.eviction_order()
    });
    assert_eq!(
        p.eviction_order(),
        live_order,
        "committed history is not serially equivalent to the live policy state"
    );
}

/// Threshold crossings whose `TryLock()` failed, so the batch kept
/// accumulating (or, on a full queue, blocked in `Lock()`).
fn deferred(w: &BpWrapper<impl ReplacementPolicy>) -> u64 {
    w.lock_stats().snapshot().trylock_failures
}

/// One schedule of the standard storm: one task parks on the policy
/// lock (so worker threshold crossings find it busy and defer) while
/// `WORKERS` tasks record hits — and optionally one miss each — on
/// disjoint page sets.
fn run_storm(seed: u64, pct: bool, with_misses: bool) -> (RunOutcome, Arc<BpWrapper<Lru>>) {
    let w = warmed_wrapper();
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    {
        let w = Arc::clone(&w);
        sim.spawn(move || {
            for _ in 0..4 {
                w.with_locked(|_| {
                    for _ in 0..6 {
                        bpw_dst::yield_now();
                    }
                });
                bpw_dst::yield_now();
            }
        });
    }
    for t in 0..WORKERS {
        let w = Arc::clone(&w);
        sim.spawn(move || {
            let mut h = w.handle_arc();
            for round in 0..ROUNDS {
                for k in 0..PAGES_PER {
                    let page = t * PAGES_PER + k;
                    h.record_hit(page, page as u32);
                }
                if with_misses && round == 1 {
                    // A miss mid-stream: commits this task's queue in
                    // order, then evicts through the policy.
                    h.record_miss(100 + t, None, &mut |_| true);
                }
            }
            // Dropping the handle flushes the queue, so no recorded
            // access is lost.
        });
    }
    (sim.run(), w)
}

fn check_storm(out: &RunOutcome, w: &Arc<BpWrapper<Lru>>) -> CommitReport {
    out.expect_clean();
    let mut report = CommitReport::default();
    out.check(|o| {
        report = check_commit_order(&o.history);
        replay_serially(&o.history, w);
    });
    report
}

#[test]
fn dst_commit_preserves_program_order() {
    // Hits only: every recorded access must commit exactly once, in its
    // thread's order, and the global order must be serially realizable.
    let mut deferrals = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xC0B1, 48).iter().enumerate() {
        let (out, w) = run_storm(*seed, i % 4 == 3, false);
        let report = check_storm(&out, &w);
        assert_eq!(report.records, WORKERS * PAGES_PER * ROUNDS);
        deferrals += deferred(&w);
    }
    // The corpus as a whole must defer commits past a busy lock —
    // otherwise every batch committed at its first threshold crossing
    // and the accumulate-then-commit order was never under test.
    assert!(
        deferrals > 0,
        "no threshold crossing found the lock busy; corpus vacuous"
    );
}

#[test]
fn dst_commit_with_misses_replays_serially() {
    // Hits + evicting misses: stale commits now occur (a queued hit's
    // page can be evicted before its commit); the serial witness must
    // agree on every stale verdict and every victim.
    let mut stale = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xC0B2, 40).iter().enumerate() {
        let (out, w) = run_storm(*seed, i % 4 == 1, true);
        let report = check_storm(&out, &w);
        assert_eq!(report.records, WORKERS * PAGES_PER * ROUNDS);
        stale += report.stale_commits;
    }
    assert!(
        stale > 0,
        "no schedule produced a stale commit; eviction raced nothing"
    );
}

#[test]
fn dst_seq_run_detection_survives_deferred_commits() {
    // A single thread scans pages 0..8 while another task holds and
    // releases the policy lock at schedule-chosen moments. Whatever the
    // schedule — a commit at the threshold, or a failed `TryLock()`
    // followed by a blocking `Lock()` on the full queue — the scan must
    // reach the policy as ONE run, because each batch commits in FIFO
    // order.
    let mut deferrals = 0;
    for (i, seed) in bpw_dst::seed_corpus(0x5E9, 40).iter().enumerate() {
        let w = Arc::new(BpWrapper::new(
            SeqLru::new(32),
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(4),
        ));
        w.with_locked(|p| {
            for i in 0..32u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        let warm_runs = w.with_locked(|p| p.detected_runs());
        let mut sim = if i % 3 == 2 {
            Sim::new(*seed).with_pct(2)
        } else {
            Sim::new(*seed)
        };
        {
            let w = Arc::clone(&w);
            sim.spawn(move || {
                for _ in 0..3 {
                    w.with_locked(|_| {
                        for _ in 0..5 {
                            bpw_dst::yield_now();
                        }
                    });
                    bpw_dst::yield_now();
                }
            });
        }
        {
            let w = Arc::clone(&w);
            sim.spawn(move || {
                let mut h = w.handle_arc();
                for p in 0..8u64 {
                    h.record_hit(p, p as u32);
                }
            });
        }
        let out = sim.run();
        out.expect_clean();
        out.check(|o| {
            check_commit_order(&o.history);
            let runs = w.with_locked(|p| p.detected_runs());
            assert_eq!(
                runs,
                warm_runs + 1,
                "a scan whose commits waited on the lock must still commit as one run"
            );
        });
        deferrals += deferred(&w);
    }
    assert!(
        deferrals > 0,
        "the scan never found the lock busy; corpus vacuous"
    );
}

#[test]
fn dst_handle_churn_applies_every_entry_exactly_once() {
    // Handle churn: each worker tears its handle down and opens a new
    // one every round, so a handle is often dropped with a deferred
    // batch still queued. Exactly-once commit (check_commit_order) must
    // survive the churn: the drop's flush commits what the threshold
    // crossings could not.
    let mut deferrals = 0u64;
    for (i, seed) in bpw_dst::seed_corpus(0xC4C4, 40).iter().enumerate() {
        let w = warmed_wrapper();
        let mut sim = if i % 3 == 1 {
            Sim::new(*seed).with_pct(3)
        } else {
            Sim::new(*seed)
        };
        {
            let w = Arc::clone(&w);
            sim.spawn(move || {
                for _ in 0..3 {
                    w.with_locked(|_| {
                        for _ in 0..5 {
                            bpw_dst::yield_now();
                        }
                    });
                    bpw_dst::yield_now();
                }
            });
        }
        for t in 0..WORKERS {
            let w = Arc::clone(&w);
            sim.spawn(move || {
                for round in 0..ROUNDS {
                    let mut h = w.handle_arc();
                    for k in 0..PAGES_PER {
                        let page = t * PAGES_PER + (round + k) % PAGES_PER;
                        h.record_hit(page, page as u32);
                    }
                    drop(h); // flush whatever is still queued
                }
            });
        }
        let (out, w) = (sim.run(), w);
        out.expect_clean();
        out.check(|o| {
            let report = check_commit_order(&o.history);
            assert_eq!(report.records, WORKERS * PAGES_PER * ROUNDS);
            replay_serially(&o.history, &w);
        });
        deferrals += deferred(&w);
    }
    assert!(
        deferrals > 0,
        "no churned handle found the lock busy; corpus vacuous"
    );
}

#[test]
fn dst_same_seed_replays_identical_schedule_and_history() {
    // The harness's core promise: a seed IS the execution. Two runs of
    // the same seed must agree byte-for-byte on schedule, history, and
    // verdict — this is what makes a printed failing seed replayable.
    let mut deferrals = 0;
    for seed in [0x00DE_7E12_u64, 0x00DE_7E13, 0x00DE_7E14] {
        let (a, wa) = run_storm(seed, false, true);
        let (b, wb) = run_storm(seed, false, true);
        assert_eq!(
            a.schedule, b.schedule,
            "schedule diverged for seed {seed:#x}"
        );
        assert_eq!(a.history, b.history, "history diverged for seed {seed:#x}");
        assert_eq!(a.failure, b.failure);
        assert_eq!(a.steps, b.steps);
        assert_eq!(
            wa.with_locked(|p| p.eviction_order()),
            wb.with_locked(|p| p.eviction_order()),
            "final policy state diverged for seed {seed:#x}"
        );
        assert_eq!(deferred(&wa), deferred(&wb));
        deferrals += deferred(&wa);
        // PCT mode must be just as reproducible.
        let (c, _) = run_storm(seed, true, true);
        let (d, _) = run_storm(seed, true, true);
        assert_eq!(c.schedule, d.schedule);
        assert_eq!(c.history, d.history);
    }
    assert!(
        deferrals > 0,
        "no replayed schedule deferred a commit; replay compared trivial runs"
    );
}
