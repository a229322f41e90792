//! The per-thread event ring: a fixed-capacity single-producer /
//! single-consumer buffer.
//!
//! The producer is the owning thread's record path; the only consumer
//! is the collector's drain (serialized by the collector's registry
//! lock). The record path touches no shared lock — one relaxed load of
//! the read index, one slot write, one release store of the write
//! index — so tracing follows the same discipline as BP-Wrapper
//! itself: per-thread buffering with deferred draining.
//!
//! Overflow never blocks and never overwrites unread events: the push
//! is dropped and counted, so exporters can report exactly how much of
//! the stream is missing.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;

use crate::event::TraceEvent;

/// A fixed-capacity SPSC ring of [`TraceEvent`]s.
///
/// Safety contract: [`push`](Ring::push) is only called by the owning
/// thread; [`drain_into`](Ring::drain_into) calls are serialized by
/// the caller (the collector holds its registry lock while draining).
pub struct Ring {
    slots: Box<[UnsafeCell<TraceEvent>]>,
    mask: usize,
    /// Next write position (monotonic; slot = head & mask).
    head: CachePadded<AtomicUsize>,
    /// Next read position (monotonic).
    tail: CachePadded<AtomicUsize>,
    /// Events dropped because the ring was full.
    drops: AtomicU64,
    /// Trace thread id of the owning thread.
    tid: u32,
}

// The UnsafeCell slots are only written by the producer before a
// release store of `head` and only read by the consumer after an
// acquire load of `head`, on disjoint index ranges.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    /// A ring of at least `capacity` slots (rounded up to a power of
    /// two, minimum 8) owned by trace thread `tid`.
    pub fn new(capacity: usize, tid: u32) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Ring {
            slots: (0..cap)
                .map(|_| UnsafeCell::new(TraceEvent::EMPTY))
                .collect(),
            mask: cap - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            drops: AtomicU64::new(0),
            tid,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// The owning thread's trace id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Events dropped on overflow so far.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Events currently buffered (racy estimate from a third thread;
    /// exact from the producer or consumer).
    pub fn len(&self) -> usize {
        self.head
            .load(Ordering::Acquire)
            .saturating_sub(self.tail.load(Ordering::Acquire))
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `ev`, or count a drop if the ring is full. Producer-only.
    #[inline]
    pub fn push(&self, ev: TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail > self.mask {
            // Full: dropping (not overwriting) keeps the consumer's
            // in-flight reads valid and makes loss observable.
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        unsafe { *self.slots[head & self.mask].get() = ev };
        self.head.store(head + 1, Ordering::Release);
    }

    /// Move every buffered event into `out` (oldest first).
    /// Consumer-only; callers serialize.
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        out.reserve(head - tail);
        while tail < head {
            out.push(unsafe { *self.slots[tail & self.mask].get() });
            tail += 1;
        }
        self.tail.store(tail, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::sync::Arc;

    fn ev(start_ns: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::BatchCommit,
            tid: 1,
            start_ns,
            dur_ns: 5,
            arg: 32,
            req: 9,
        }
    }

    #[test]
    fn push_then_drain_preserves_order() {
        let r = Ring::new(8, 1);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 5);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(
            out.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(r.is_empty());
        assert_eq!(r.drops(), 0);
    }

    #[test]
    fn overflow_drops_and_counts_without_corruption() {
        let r = Ring::new(8, 1);
        for i in 0..20 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 8, "capacity bounds buffered events");
        assert_eq!(r.drops(), 12);
        let mut out = Vec::new();
        r.drain_into(&mut out);
        // The *oldest* events survive; late ones were dropped.
        assert_eq!(
            out.iter().map(|e| e.start_ns).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5, 6, 7]
        );
        // Space is available again after the drain.
        r.push(ev(99));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(Ring::new(0, 0).capacity(), 8);
        assert_eq!(Ring::new(9, 0).capacity(), 16);
        assert_eq!(Ring::new(16, 0).capacity(), 16);
    }

    #[test]
    fn concurrent_producer_consumer_loses_nothing_it_accepted() {
        let r = Arc::new(Ring::new(1 << 10, 7));
        let total = 100_000u64;
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..total {
                    r.push(ev(i));
                }
            })
        };
        let mut seen = Vec::new();
        while !producer.is_finished() {
            r.drain_into(&mut seen);
        }
        producer.join().unwrap();
        r.drain_into(&mut seen);
        assert_eq!(seen.len() as u64 + r.drops(), total);
        // Within the accepted stream, order is intact and values are
        // a strictly increasing subsequence of the input.
        assert!(seen.windows(2).all(|w| w[0].start_ns < w[1].start_ns));
        for e in &seen {
            assert_eq!(e.tid, 1);
            assert_eq!(e.arg, 32);
        }
    }
}
