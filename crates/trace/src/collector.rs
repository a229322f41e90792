//! The global collector: a registry of per-thread rings behind one
//! runtime on/off flag.
//!
//! The record path is contention-free by construction: a relaxed load
//! of the enabled flag (the *entire* cost when tracing is off), then a
//! push into the calling thread's own ring. The registry mutex is
//! touched only when a thread records its first event (ring creation)
//! and when an exporter drains — never per event.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::{EventKind, TraceEvent};
use crate::ring::Ring;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

/// The on/off flag, a plain static outside the lazily built collector:
/// a disabled site costs one inlined relaxed load and a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct Collector {
    epoch: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
    next_tid: AtomicU32,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        rings: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(0),
    })
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
    /// The request id the calling thread is currently working for
    /// (0 = none). Every recorded event is stamped with it, so request
    /// attribution costs one thread-local read on the enabled path and
    /// nothing at all while tracing is off.
    static CURRENT_REQUEST: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Install `id` as the calling thread's current request: every event
/// this thread records until the next call carries it. Pass 0 to
/// return the thread to unattributed recording.
#[inline]
pub fn set_current_request(id: u64) {
    CURRENT_REQUEST.with(|c| c.set(id));
}

/// The calling thread's current request id (0 = none).
#[inline]
pub fn current_request() -> u64 {
    CURRENT_REQUEST.with(|c| c.get())
}

/// Is tracing on? One relaxed atomic load — the full record-path cost
/// while tracing is disabled. Call this before doing *any* work to
/// build an event (including reading the clock).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off at runtime. Buffered events survive a
/// disable; [`drain`] collects them whenever convenient.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Nanoseconds since the collector's epoch (process-wide, monotonic).
#[inline]
pub fn now_ns() -> u64 {
    collector().epoch.elapsed().as_nanos() as u64
}

fn with_local_ring(f: impl FnOnce(&Ring)) {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let c = collector();
            let tid = c.next_tid.fetch_add(1, Ordering::Relaxed);
            let ring = Arc::new(Ring::new(DEFAULT_RING_CAPACITY, tid));
            c.rings
                .lock()
                .expect("trace registry")
                .push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// Record a fully-formed event into the calling thread's ring. No-op
/// when tracing is disabled. Callers normally use [`instant`],
/// [`span_start`] + [`span_end`], or [`span_backdated`] instead.
#[inline]
pub fn record(kind: EventKind, start_ns: u64, dur_ns: u64, arg: u64) {
    if !enabled() {
        return;
    }
    let req = current_request();
    with_local_ring(|ring| {
        ring.push(TraceEvent {
            kind,
            tid: ring.tid(),
            start_ns,
            dur_ns,
            arg,
            req,
        })
    });
}

/// Record an instant event at the current time. Only the flag check
/// is inlined into the call site.
#[inline]
pub fn instant(kind: EventKind, arg: u64) {
    if enabled() {
        record_instant(kind, arg);
    }
}

#[inline(never)]
fn record_instant(kind: EventKind, arg: u64) {
    record(kind, now_ns(), 0, arg);
}

/// Start a span: returns `Some(start_ns)` when tracing is on, `None`
/// (for free) when off. Pass the token to [`span_end`].
#[inline]
pub fn span_start() -> Option<u64> {
    if enabled() {
        Some(now_ns())
    } else {
        None
    }
}

/// Finish a span started with [`span_start`].
#[inline]
pub fn span_end(kind: EventKind, start: Option<u64>, arg: u64) {
    if let Some(start_ns) = start {
        record(kind, start_ns, now_ns().saturating_sub(start_ns), arg);
    }
}

/// Record a span whose duration was measured independently (e.g. by an
/// `Instant` the caller already keeps): the span is backdated so it
/// *ends* now and lasted `dur_ns`.
#[inline]
pub fn span_backdated(kind: EventKind, dur_ns: u64, arg: u64) {
    if enabled() {
        record_backdated(kind, dur_ns, arg);
    }
}

#[inline(never)]
fn record_backdated(kind: EventKind, dur_ns: u64, arg: u64) {
    let end = now_ns();
    record(kind, end.saturating_sub(dur_ns), dur_ns, arg);
}

/// Finish a span started with [`span_start`], additionally crediting
/// its duration to the calling thread's per-stage latency scratch (see
/// [`crate::stage`]). Used by instrumentation sites whose time is a
/// named request stage (batch commit), so the worker can attribute the
/// request's total without re-measuring.
#[inline]
pub fn span_end_staged(kind: EventKind, start: Option<u64>, arg: u64) {
    if let Some(start_ns) = start {
        let dur_ns = now_ns().saturating_sub(start_ns);
        record(kind, start_ns, dur_ns, arg);
        crate::stage::add_for_kind(kind, dur_ns);
    }
}

/// Drain every thread's ring, returning all buffered events sorted by
/// start time. Safe to call while recording continues (events recorded
/// during the drain land in the next one).
pub fn drain() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    let rings = collector().rings.lock().expect("trace registry");
    for ring in rings.iter() {
        ring.drain_into(&mut out);
    }
    drop(rings);
    out.sort_by_key(|e| (e.start_ns, e.tid));
    out
}

/// Drain and discard everything buffered (reset between runs). Returns
/// how many events were thrown away. Drop counters are *not* reset —
/// they are cumulative for the process, like every other counter here.
pub fn clear() -> usize {
    drain().len()
}

/// Total events dropped on ring overflow, across all threads.
pub fn dropped() -> u64 {
    collector()
        .rings
        .lock()
        .expect("trace registry")
        .iter()
        .map(|r| r.drops())
        .sum()
}

/// Per-ring overflow counters as `(trace thread id, events dropped)`,
/// in registration order. A ring that dropped events explains a gap in
/// any span chain drained from it, so exporters surface these
/// individually rather than only in aggregate.
pub fn ring_drops() -> Vec<(u32, u64)> {
    collector()
        .rings
        .lock()
        .expect("trace registry")
        .iter()
        .map(|r| (r.tid(), r.drops()))
        .collect()
}

/// Number of threads that have recorded at least one event (registered
/// rings, including threads that have since exited).
pub fn thread_count() -> usize {
    collector().rings.lock().expect("trace registry").len()
}

/// Events currently buffered across all rings (racy estimate).
pub fn buffered() -> usize {
    collector()
        .rings
        .lock()
        .expect("trace registry")
        .iter()
        .map(|r| r.len())
        .sum()
}
