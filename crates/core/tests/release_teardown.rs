//! Regression tests for the publication-slot release hole, meant to run
//! in BOTH profiles (CI runs them under `--release`).
//!
//! The original `PublicationBoard::release` only `debug_assert!`ed the
//! slot empty. In a release build the assert compiles away, so a handle
//! torn down with a batch still published would hand the slot — batch
//! and all — to the next registrant: the stranded accesses either
//! vanished or were committed under the wrong owner. Debug-only tests
//! cannot catch that; these run the exact scenario in whatever profile
//! the harness was built with.

#![cfg(not(feature = "dst"))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bpw_core::{AccessEntry, BpWrapper, PublicationBoard, WrapperConfig};
use bpw_replacement::{Lru, ReplacementPolicy};

/// Board-level: releasing a slot with a pending batch must hand the
/// batch back, and the recycled slot must start clean for its next
/// owner.
#[test]
fn release_returns_pending_batch_and_recycles_clean() {
    let board = PublicationBoard::new(2, 8);
    let slot = board.register().expect("slot");
    let mut batch: Vec<AccessEntry> = (0..5).map(|i| AccessEntry::hit(i, i as u32)).collect();
    assert!(board.publish(slot, &mut batch));
    assert!(batch.is_empty(), "publish must take the entries");

    let orphan = board
        .release(slot)
        .expect("release must return the pending batch, not drop it");
    assert_eq!(orphan.len(), 5);
    assert_eq!(orphan[0].page, 0);
    assert_eq!(orphan[4].frame, 4);

    // The recycled slot must be empty and fully usable by a new owner.
    let slot2 = board.register().expect("recycled slot");
    assert!(!board.is_published(slot2));
    let mut fresh: Vec<AccessEntry> = vec![AccessEntry::hit(9, 9)];
    assert!(board.publish(slot2, &mut fresh));
    let taken = board.take(slot2).expect("fresh owner's batch");
    assert_eq!(taken.len(), 1);
    assert_eq!(taken[0].page, 9);
    drop(taken);
    assert_eq!(board.release(slot2).map(|b| b.len()), None);
}

/// Wrapper-level: a handle dropped while its batch sits published (the
/// lock holder never drained it) must still commit every access. Before
/// the fix the batch was silently leaked in release builds.
#[test]
fn handle_teardown_commits_published_batch() {
    const FRAMES: usize = 16;
    let w = BpWrapper::new(
        Lru::new(FRAMES),
        WrapperConfig::default()
            .with_queue_size(4)
            .with_batch_threshold(4)
            .with_combining(true),
    );
    w.with_locked(|p| {
        for f in 0..FRAMES as u64 {
            p.record_miss(f, Some(f as u32), &mut |_| true);
        }
    });
    let w = Arc::new(w);

    // The warm-up above already counted an acquisition, so wait for the
    // holder relative to a baseline — not for a nonzero count.
    let baseline = w.lock_stats().snapshot().acquisitions;
    let hold = Arc::new(AtomicBool::new(true));
    let holder = {
        let w = Arc::clone(&w);
        let hold = Arc::clone(&hold);
        std::thread::spawn(move || {
            w.with_locked(|_| {
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            })
        })
    };
    while w.lock_stats().snapshot().acquisitions == baseline {
        std::hint::spin_loop();
    }

    let mut h = w.handle_arc();
    for p in 0..4u64 {
        h.record_hit(p, p as u32); // fills the queue -> publishes
    }
    assert_eq!(
        w.combining_snapshot().published,
        1,
        "setup failed: the queue never published"
    );

    // Tear the handle down on its own thread: its Drop finds the batch
    // still published (queue empty, so flush is a no-op), takes it back
    // via release, and blocks to commit it — it can only finish after
    // the holder lets go.
    let dropper = std::thread::spawn(move || drop(h));
    hold.store(false, Ordering::Release);
    holder.join().unwrap();
    dropper.join().unwrap();

    let accesses = w.counters().accesses.get();
    let committed = w.counters().committed.get() + w.counters().stale_skipped.get();
    assert_eq!(
        accesses,
        committed,
        "teardown stranded {} recorded access(es) in the released slot",
        accesses - committed
    );
    w.with_locked(|p| p.check_invariants());
}
