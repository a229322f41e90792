//! # bpw-trace
//!
//! Contention-free event tracing for the BP-Wrapper stack.
//!
//! The paper's argument is measured in lock contentions and lock time
//! per access, so the tracing layer must follow the paper's own
//! discipline: observing the system may not reintroduce the shared
//! lock traffic BP-Wrapper removes. Accordingly:
//!
//! * Events are recorded into fixed-capacity **per-thread ring
//!   buffers** ([`ring::Ring`]) — the record path is one relaxed flag
//!   load, a slot write, and a release store; no shared lock, ever.
//! * When tracing is **disabled** (the default), the entire cost at
//!   every instrumentation site is a single relaxed atomic load
//!   ([`enabled`]).
//! * Ring overflow **drops and counts** instead of blocking or
//!   overwriting: exporters report exactly how much is missing.
//! * Draining ([`drain`]) is deferred to exporters, off the hot path.
//!
//! Events are **request-attributed**: each carries the recording
//! thread's current request id ([`set_current_request`]), set once per
//! request by whichever thread owns it, so a drained stream holds
//! every request's span chain keyed by id. On top of that rides the
//! per-stage latency scratch ([`stage`]).
//!
//! Two exporters consume the stream:
//!
//! * [`chrome::chrome_trace_json`] — Chrome trace-event JSON, loadable
//!   in Perfetto or `chrome://tracing`.
//! * [`prom::PromWriter`] — Prometheus-style text exposition of
//!   counters, histograms (with per-bucket counts), and lock
//!   snapshots; served by `bpw-server`'s `METRICS` request.

pub mod chrome;
pub mod collector;
pub mod event;
pub mod prom;
pub mod ring;
pub mod stage;

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use collector::{
    buffered, clear, current_request, drain, dropped, enabled, instant, now_ns, record, ring_drops,
    set_current_request, set_enabled, span_backdated, span_end, span_end_staged, span_start,
    thread_count, DEFAULT_RING_CAPACITY,
};
pub use event::{EventKind, TraceEvent};
pub use prom::{validate_exposition, PromWriter};
