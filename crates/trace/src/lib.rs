//! # bpw-trace
//!
//! Request attribution and exposition for the BP-Wrapper stack, in two
//! modules that add no shared state to the paths they observe:
//!
//! * [`stage`] — the per-thread miss-I/O scratch: the buffer pool
//!   credits each miss's storage time to the calling thread, and the
//!   server's worker reads it back to attribute a request's latency.
//! * [`prom`] — [`PromWriter`], a Prometheus-style text exposition of
//!   counters, histograms (with per-bucket counts) and lock snapshots,
//!   served by `bpw-server`'s `METRICS` request, and
//!   [`validate_exposition`], which checks one.

pub mod prom;
pub mod stage;

pub use prom::{validate_exposition, PromWriter};
