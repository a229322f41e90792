//! Per-thread miss-I/O scratch.
//!
//! Attributing a request's end-to-end latency to miss I/O would
//! normally force the buffer pool to know about the server's metrics
//! registry. Instead, the pool credits the storage time of each miss
//! into a thread-local accumulator, and the worker that owns the
//! request resets the scratch before executing and reads it after — no
//! cross-crate coupling, no shared state, no hot-path allocation. A
//! miss already does storage I/O, so its two clock reads are noise.

use std::cell::Cell;

thread_local! {
    static MISS_IO_NS: Cell<u64> = const { Cell::new(0) };
}

/// What the calling thread accumulated since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageScratch {
    /// Nanoseconds spent in miss-path storage I/O.
    pub miss_io_ns: u64,
}

/// Zero the calling thread's accumulator (the worker does this when it
/// picks up a request).
#[inline]
pub fn reset() {
    MISS_IO_NS.with(|c| c.set(0));
}

/// Credit miss-path storage I/O time to the current request.
#[inline]
pub fn add_miss_io(ns: u64) {
    MISS_IO_NS.with(|c| c.set(c.get().saturating_add(ns)));
}

/// Read and zero the calling thread's accumulator (the worker does
/// this after executing a request).
#[inline]
pub fn take() -> StageScratch {
    StageScratch {
        miss_io_ns: MISS_IO_NS.with(|c| c.replace(0)),
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
        assert_eq!(take().miss_io_ns, 150);
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
