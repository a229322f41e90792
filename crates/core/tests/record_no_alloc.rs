//! Allocation audit for the recording path under a busy lock.
//!
//! A handle's FIFO queue is allocated once, at capacity `S`, when the
//! handle is made. Recording a hit, crossing the threshold, failing the
//! `TryLock()` and keeping the batch queued must then touch no heap.
//! This test pins that with a counting global allocator: any `Box::new`
//! or `Vec` growth slipped into the window shows up as a nonzero delta.
//!
//! Not compiled under `--features dst`: the shim scheduler allocates
//! for its own bookkeeping inside the window.

#![cfg(not(feature = "dst"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bpw_core::{BpWrapper, WrapperConfig};
use bpw_replacement::{Lru, ReplacementPolicy};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const FRAMES: usize = 64;
const QUEUE: usize = 64;
const THRESHOLD: usize = 8;

#[test]
fn deferred_hits_do_not_allocate() {
    // S = 64, T = 8: 2T − 1 hits cross the threshold T times, each
    // `TryLock()` fails on the parked holder, and the hits accumulate.
    // Stops well short of a full queue so the handle never blocks.
    let w = BpWrapper::new(
        Lru::new(FRAMES),
        WrapperConfig::default()
            .with_queue_size(QUEUE)
            .with_batch_threshold(THRESHOLD),
    );
    w.with_locked(|p| {
        for f in 0..FRAMES as u64 {
            p.record_miss(f, Some(f as u32), &mut |_| true);
        }
    });
    let w = Arc::new(w);
    // Warm the handle and the per-thread first-touch paths outside the
    // window: the queue is the handle's one allocation.
    let mut h = w.handle_arc();
    h.record_hit(0, 0);
    h.flush();

    // Park a thread inside the policy lock for the whole window, so
    // every threshold crossing sees a busy lock. The warm-up above
    // already counted an acquisition, so wait relative to a baseline.
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

    let failures = w.lock_stats().snapshot().trylock_failures;

    let before = ALLOCS.load(Ordering::SeqCst);
    for k in 0..(2 * THRESHOLD as u64 - 1) {
        let page = k % FRAMES as u64;
        h.record_hit(page, page as u32);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    let failed = w.lock_stats().snapshot().trylock_failures - failures;

    hold.store(false, Ordering::Release);
    holder.join().unwrap();

    assert_eq!(
        failed, THRESHOLD as u64,
        "every threshold crossing must have found the lock busy"
    );
    assert_eq!(h.queued(), 2 * THRESHOLD - 1, "the hits accumulated");
    assert_eq!(
        after - before,
        0,
        "recording under a busy lock allocated {} time(s)",
        after - before
    );

    drop(h);
    assert_eq!(
        w.counters().committed.get(),
        2 * THRESHOLD as u64,
        "the drop flushed the deferred batch"
    );
    w.with_locked(|p| p.check_invariants());
}
