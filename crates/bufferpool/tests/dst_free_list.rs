//! Deterministic-simulation tests for the striped lock-free free list.
//!
//! Every head load, `next` read, and CAS in [`StripedFreeList`] is a
//! schedule point under the dst harness, so the window where ABA lives
//! — between reading a head word and CASing it — is explorable. The
//! free-list checker replays the recorded pop/push history and panics
//! on a double allocation (the classic untagged-Treiber failure) or a
//! lost frame.

#![cfg(feature = "dst")]

use std::sync::Arc;

use bpw_bufferpool::StripedFreeList;
use bpw_dst::check::check_free_list;
use bpw_dst::{splitmix64, RunOutcome, Sim};

/// Random churn: `tasks` virtual threads pop one or two frames, hold
/// them across a yield, and push them back (sometimes cold). Every
/// frame is owned between pop and push, so the checker must never see
/// a frame popped twice without an intervening push.
fn run_churn(
    seed: u64,
    pct: bool,
    frames: usize,
    stripes: usize,
    tasks: u64,
) -> (RunOutcome, Arc<StripedFreeList>) {
    let fl = Arc::new(StripedFreeList::new(frames, stripes));
    let mut sim = if pct {
        Sim::new(seed).with_pct(3)
    } else {
        Sim::new(seed)
    };
    for t in 0..tasks {
        let fl = Arc::clone(&fl);
        sim.spawn(move || {
            let mut rng = splitmix64(seed ^ (t + 1).wrapping_mul(0xA5A5_5A5A));
            let mut held: Vec<u32> = Vec::new();
            for _ in 0..8 {
                rng = splitmix64(rng);
                if let Some(f) = fl.pop(t as usize) {
                    held.push(f);
                }
                if rng % 2 == 0 {
                    if let Some(f) = fl.pop(t as usize + 1) {
                        held.push(f);
                    }
                }
                bpw_dst::yield_now();
                while let Some(f) = held.pop() {
                    if rng % 5 == 0 {
                        fl.push_cold(f);
                    } else {
                        fl.push(t as usize, f);
                    }
                }
            }
        });
    }
    (sim.run(), fl)
}

#[test]
fn dst_free_list_churn_conserves_frames() {
    let mut pops = 0;
    let mut cold = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xF4EE, 40).iter().enumerate() {
        let frames = 4;
        let stripes = 1 + i % 2; // alternate single-stripe and striped
        let (out, fl) = run_churn(*seed, i % 4 == 2, frames, stripes, 3);
        out.expect_clean();
        out.check(|o| {
            let report = check_free_list(&o.history, frames as u32, true);
            assert_eq!(
                report.free_at_end, frames as u32,
                "every frame must be back on the list when all tasks finish"
            );
            pops += report.pops;
            cold += report.cold_pushes;
            assert_eq!(
                fl.len(),
                frames,
                "live count disagrees with the replayed history"
            );
            // Post-run drain on the main thread: frames must be unique.
            let mut seen = std::collections::HashSet::new();
            while let Some(f) = fl.pop(0) {
                assert!(seen.insert(f), "duplicate frame {f} after churn");
                assert!(seen.len() <= frames, "list yields more frames than exist");
            }
            assert_eq!(seen.len(), frames);
        });
    }
    assert!(pops > 0, "corpus never popped a frame; vacuous");
    assert!(cold > 0, "corpus never exercised the cold stack");
}

#[test]
fn dst_free_list_none_is_never_wrong() {
    // Three tasks over two frames: the list is empty most of the time,
    // so pops keep landing on either side of a push's count bump and
    // CAS, and of a pop's CAS and count drop. `check_free_list` holds
    // every `None` against the history: a frame whose push had returned
    // before the pop began, and that nobody took since, was linked all
    // along — the count may run ahead of the frames linked, never
    // behind.
    let mut empty = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xE3917, 40).iter().enumerate() {
        let frames = 2;
        let (out, fl) = run_churn(*seed, i % 4 == 2, frames, 2, 3);
        out.expect_clean();
        out.check(|o| {
            let report = check_free_list(&o.history, frames as u32, true);
            assert_eq!(report.free_at_end, frames as u32);
            assert_eq!(fl.len(), frames, "count is exact at quiescence");
            empty += report.empty_pops;
        });
    }
    assert!(empty > 0, "corpus never found the list empty; vacuous");
}

#[test]
fn dst_free_list_aba_adversary() {
    // The targeted ABA shape on one stripe: a slow popper reads the
    // head and its `next` link, gets suspended in that window, while a
    // fast churner pops the same frame, pops its successor, and pushes
    // the first frame back — reinstalling the head index the slow
    // popper observed. Without the tag bump the stale CAS succeeds and
    // the churner's still-owned successor leaks onto the list; the
    // checker reports the resulting double allocation.
    for (i, seed) in bpw_dst::seed_corpus(0xABA, 48).iter().enumerate() {
        let frames = 3;
        let fl = Arc::new(StripedFreeList::new(frames, 1));
        let mut sim = if i % 3 == 1 {
            Sim::new(*seed).with_pct(2)
        } else {
            Sim::new(*seed)
        };
        {
            // Slow popper: single pop-push cycles with pauses.
            let fl = Arc::clone(&fl);
            sim.spawn(move || {
                for _ in 0..4 {
                    if let Some(f) = fl.pop(0) {
                        bpw_dst::yield_now();
                        fl.push(0, f);
                    }
                    bpw_dst::yield_now();
                }
            });
        }
        for _ in 0..2 {
            // Churners: pop two, push both back in pop order (the
            // first-popped frame returns first — the ABA reinstall).
            let fl = Arc::clone(&fl);
            sim.spawn(move || {
                for _ in 0..5 {
                    let a = fl.pop(0);
                    let b = fl.pop(0);
                    if let Some(a) = a {
                        fl.push(0, a);
                    }
                    bpw_dst::yield_now();
                    if let Some(b) = b {
                        fl.push(0, b);
                    }
                }
            });
        }
        let out = sim.run();
        out.expect_clean();
        out.check(|o| {
            let report = check_free_list(&o.history, frames as u32, true);
            assert_eq!(report.free_at_end, frames as u32);
            assert_eq!(report.pops, report.pushes);
            assert_eq!(
                fl.len(),
                frames,
                "live count disagrees with the replayed history"
            );
        });
    }
}
