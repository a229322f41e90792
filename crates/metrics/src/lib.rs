//! # bpw-metrics
//!
//! Instrumentation shared by the BP-Wrapper reproduction: padded atomic
//! counters, lock-behaviour statistics matching the paper's metrics
//! (contentions per million accesses, lock time per access), and a
//! log2-bucketed histogram for response times.

pub mod counters;
pub mod histogram;
pub mod json;
pub mod lock_stats;

pub use counters::{Counter, Gauge, HeldCounter, MaxGauge, StripedCounter};
pub use histogram::Histogram;
pub use json::{JsonError, JsonObject, JsonValue};
pub use lock_stats::{LockShardSummary, LockSnapshot, LockStats};
