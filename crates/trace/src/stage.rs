//! Per-thread stage-latency scratch.
//!
//! Attributing a request's end-to-end latency to stages (pin/hit vs
//! miss I/O vs batch commit) would normally force the buffer pool and
//! the wrapper to know about the server's metrics registry. Instead,
//! the layers that *spend* the time credit it into these thread-local
//! accumulators, and the worker that owns the request resets the
//! scratch before executing and reads it after — no cross-crate
//! coupling, no shared state, no hot-path allocation.
//!
//! Accumulation granularity differs by stage, deliberately:
//!
//! * **Miss I/O** is credited unconditionally (a miss already does
//!   storage I/O; two clock reads are noise there).
//! * **Batch commit** piggybacks on the existing enabled-gated trace
//!   span ([`crate::collector::span_end_staged`]): commits sit on the
//!   paper's hit-only hot path, where an unconditional pair of clock
//!   reads per batch would violate the disabled-tracing overhead
//!   budget. The stage histogram is therefore only populated while
//!   tracing is on.

use std::cell::Cell;

use crate::event::EventKind;

thread_local! {
    static MISS_IO_NS: Cell<u64> = const { Cell::new(0) };
    static BATCH_COMMIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// What the calling thread accumulated since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageScratch {
    /// Nanoseconds spent in miss-path storage I/O.
    pub miss_io_ns: u64,
    /// Nanoseconds spent committing access batches into the policy.
    pub batch_commit_ns: u64,
}

/// Zero the calling thread's accumulators (the worker does this when it
/// picks up a request).
#[inline]
pub fn reset() {
    MISS_IO_NS.with(|c| c.set(0));
    BATCH_COMMIT_NS.with(|c| c.set(0));
}

/// Credit miss-path storage I/O time to the current request.
#[inline]
pub fn add_miss_io(ns: u64) {
    MISS_IO_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Credit batch-commit time to the current request.
#[inline]
fn add_batch_commit(ns: u64) {
    BATCH_COMMIT_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Route a finished span's duration to the stage its kind belongs to
/// (no-op for kinds that are not stages).
#[inline]
pub fn add_for_kind(kind: EventKind, dur_ns: u64) {
    match kind {
        EventKind::BatchCommit => add_batch_commit(dur_ns),
        EventKind::MissIo => add_miss_io(dur_ns),
        _ => {}
    }
}

/// Read and zero the calling thread's accumulators (the worker does
/// this after executing a request).
#[inline]
pub fn take() -> StageScratch {
    StageScratch {
        miss_io_ns: MISS_IO_NS.with(|c| c.replace(0)),
        batch_commit_ns: BATCH_COMMIT_NS.with(|c| c.replace(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_accumulates_and_takes_per_thread() {
        reset();
        add_miss_io(100);
        add_miss_io(50);
        add_batch_commit(7);
        add_for_kind(EventKind::BatchCommit, 3);
        add_for_kind(EventKind::LockWait, 999); // not a stage: ignored
        let s = take();
        assert_eq!(s.miss_io_ns, 150);
        assert_eq!(s.batch_commit_ns, 10);
        assert_eq!(take(), StageScratch::default(), "take must reset");

        // Another thread's scratch is independent.
        std::thread::spawn(|| {
            add_miss_io(1);
            assert_eq!(take().miss_io_ns, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        reset();
        add_miss_io(u64::MAX - 1);
        add_miss_io(100);
        assert_eq!(take().miss_io_ns, u64::MAX);
    }
}
