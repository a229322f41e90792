//! Tracing compiled in but switched off records nothing: a pool session
//! that hits, misses, evicts dirty pages and commits batches leaves the
//! collector exactly as it found it — no ring registered, no event
//! buffered, none dropped. The same session with tracing on records
//! every kind the miss and hit paths are instrumented with, so the
//! "off" half cannot pass by the sites having gone missing.
//!
//! Its own test binary: the collector is process-global, and this file's
//! single test is the only thing in the process that touches it.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::TwoQ;
use bpw_trace::EventKind;

/// A wrapped-2Q session on a fresh thread (so any ring it registers is
/// its own): a hot set of 8 pages that stays resident, a cold stream
/// four times the pool that keeps evicting, half of each a write.
fn session_on_fresh_thread() {
    std::thread::spawn(|| {
        let frames = 16;
        let pool = BufferPool::new(
            frames,
            64,
            WrappedManager::new(TwoQ::new(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let mut s = pool.session();
        for i in 0..2_000u64 {
            let page = if i % 2 == 0 { i % 8 } else { 8 + i % 64 };
            let p = s.fetch(page).unwrap();
            if i % 4 < 2 {
                p.write(|d| d[8] ^= 1);
            }
        }
        drop(s);
        let st = pool.stats();
        assert!(st.hits.load(Ordering::Relaxed) > 0);
        assert!(st.writebacks.load(Ordering::Relaxed) > 0);
    })
    .join()
    .unwrap();
}

fn collector_state() -> (usize, usize, u64) {
    (
        bpw_trace::thread_count(),
        bpw_trace::buffered(),
        bpw_trace::dropped(),
    )
}

#[test]
fn disabled_tracing_records_nothing_and_enabled_records_every_site() {
    assert!(!bpw_trace::enabled());
    let before = collector_state();
    session_on_fresh_thread();
    assert_eq!(
        collector_state(),
        before,
        "tracing off: the session registered a ring or recorded an event"
    );

    bpw_trace::set_enabled(true);
    session_on_fresh_thread();
    bpw_trace::set_enabled(false);
    assert_eq!(bpw_trace::thread_count(), before.0 + 1);
    let seen: HashSet<EventKind> = bpw_trace::drain().iter().map(|e| e.kind).collect();
    for kind in [
        EventKind::HitPin,
        EventKind::Eviction,
        EventKind::MissIo,
        EventKind::BatchCommit,
        EventKind::LockHold,
    ] {
        assert!(seen.contains(&kind), "tracing on: no {kind:?} event");
    }
}
