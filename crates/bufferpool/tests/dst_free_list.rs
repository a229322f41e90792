//! Deterministic-simulation tests for the free list.
//!
//! The count in [`FreeList`] is a dst shim atomic, so its lock-free
//! load in `pop` and its updates in `push` and `pop` are schedule
//! points: a pop can land between a push's append and its count
//! update. The free-list checker replays the recorded pop/push history
//! and panics on a double allocation, a duplicate free, or a `None`
//! answered past a frame that was on the list throughout.

#![cfg(feature = "dst")]

use std::sync::Arc;

use bpw_bufferpool::FreeList;
use bpw_dst::check::check_free_list;
use bpw_dst::{splitmix64, RunOutcome, Sim};

/// Random churn: `tasks` virtual threads pop one or two frames, hold
/// them across a yield, and push them back. Every frame is owned
/// between pop and push, so the checker must never see a frame popped
/// twice without an intervening push.
fn run_churn(seed: u64, pct: bool, frames: usize, tasks: u64) -> (RunOutcome, Arc<FreeList>) {
    let fl = Arc::new(FreeList::new(frames));
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
                if let Some(f) = fl.pop() {
                    held.push(f);
                }
                if rng.is_multiple_of(2) {
                    if let Some(f) = fl.pop() {
                        held.push(f);
                    }
                }
                bpw_dst::yield_now();
                while let Some(f) = held.pop() {
                    fl.push(f);
                }
            }
        });
    }
    (sim.run(), fl)
}

#[test]
fn dst_free_list_churn_conserves_frames() {
    let mut pops = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xF4EE, 40).iter().enumerate() {
        let frames = 4;
        let (out, fl) = run_churn(*seed, i % 4 == 2, frames, 3);
        out.expect_clean();
        out.check(|o| {
            let report = check_free_list(&o.history, frames as u32, true);
            assert_eq!(
                report.free_at_end, frames as u32,
                "every frame must be back on the list when all tasks finish"
            );
            assert_eq!(report.pops, report.pushes);
            pops += report.pops;
            assert_eq!(
                fl.len(),
                frames,
                "live count disagrees with the replayed history"
            );
            // Post-run drain on the main thread: frames must be unique.
            let mut seen = std::collections::HashSet::new();
            while let Some(f) = fl.pop() {
                assert!(seen.insert(f), "duplicate frame {f} after churn");
                assert!(seen.len() <= frames, "list yields more frames than exist");
            }
            assert_eq!(seen.len(), frames);
        });
    }
    assert!(pops > 0, "corpus never popped a frame; vacuous");
}

#[test]
fn dst_free_list_none_is_never_wrong() {
    // Three tasks over two frames: the list is empty most of the time,
    // so pops keep landing on either side of a push's append and count
    // update. `check_free_list` holds every `None` against the history:
    // a frame whose push had returned before the pop began, and that
    // nobody took since, was on the list all along, so a push must
    // raise the count before it returns.
    let mut empty = 0;
    for (i, seed) in bpw_dst::seed_corpus(0xE3917, 40).iter().enumerate() {
        let frames = 2;
        let (out, fl) = run_churn(*seed, i % 4 == 2, frames, 3);
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
