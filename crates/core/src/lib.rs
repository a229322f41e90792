//! # bpw-core — BP-Wrapper
//!
//! A Rust reproduction of **"BP-Wrapper: A System Framework Making Any
//! Replacement Algorithms (Almost) Lock Contention Free"** (Ding, Jiang &
//! Zhang, ICDE 2009).
//!
//! The framework wraps any [`ReplacementPolicy`](bpw_replacement::ReplacementPolicy)
//! with the paper's **batching** technique (§III-A), which removes nearly
//! all lock contention from the buffer-hit path **without modifying the
//! algorithm**: each thread records hits in a private FIFO queue and
//! commits them in one lock acquisition once a threshold is reached —
//! via a non-blocking `TryLock`, falling back to a blocking `Lock` only
//! when the queue is full.
//!
//! The paper's second technique, prefetching (§III-B), is modelled only
//! by `bpw-sim`: on the real pool, turning it off moved no end-to-end
//! benchmark metric (DESIGN.md §2 gives the pairs), so the live wrapper
//! does not carry it.
//!
//! ## Quick example
//!
//! ```
//! use bpw_core::{BpWrapper, WrapperConfig};
//! use bpw_replacement::{Lirs, ReplacementPolicy};
//!
//! // Wrap an unmodified LIRS instance; S = 64, T = 32.
//! let wrapper = BpWrapper::new(Lirs::new(1024), WrapperConfig::default());
//!
//! // Pre-warm: bind pages 0..1024 to frames 0..1024.
//! wrapper.with_locked(|policy| {
//!     for i in 0..1024u64 {
//!         policy.record_miss(i, Some(i as u32), &mut |_| true);
//!     }
//! });
//!
//! // Worker threads get private handles; hits almost never lock.
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let wrapper = &wrapper;
//!         s.spawn(move || {
//!             let mut handle = wrapper.handle();
//!             for i in 0..100_000u64 {
//!                 let page = i % 1024;
//!                 handle.record_hit(page, page as u32);
//!             }
//!         });
//!     }
//! });
//! println!("contentions/M: {:.1}", wrapper.contentions_per_million());
//! ```

pub mod config;
pub mod lock;
pub mod pad;
pub mod queue;
pub mod wrapper;

pub use config::WrapperConfig;
pub use lock::{InstrumentedLock, LockGuard};
pub use pad::CachePadded;
pub use queue::{AccessEntry, AccessQueue};
pub use wrapper::{AccessHandle, ArcAccessHandle, BpWrapper, WrapperCounters};

/// The five systems of the paper's Table I. `bpw-sim` models all five;
/// the live wrapper runs `pgQ` ([`WrapperConfig::lock_per_access`]) and
/// `pgBat` ([`WrapperConfig::default`]), and `pgClock` is the pool's
/// CLOCK manager. The two prefetching systems exist only in simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// `pgClock`: stock PostgreSQL 8.2.3 — CLOCK, lock-free hit path.
    Clock,
    /// `pgQ`: an advanced policy with one lock acquisition per access.
    LockPerAccess,
    /// `pgBat`: batching only.
    Batching,
    /// `pgPre`: prefetching only.
    Prefetching,
    /// `pgBatPre`: batching and prefetching (full BP-Wrapper).
    BatchingPrefetching,
}

impl SystemKind {
    /// All five systems in the paper's presentation order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::Clock,
        SystemKind::LockPerAccess,
        SystemKind::Batching,
        SystemKind::Prefetching,
        SystemKind::BatchingPrefetching,
    ];

    /// The paper's system name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Clock => "pgClock",
            SystemKind::LockPerAccess => "pgQ",
            SystemKind::Batching => "pgBat",
            SystemKind::Prefetching => "pgPre",
            SystemKind::BatchingPrefetching => "pgBatPre",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_kinds_cover_table_one() {
        assert_eq!(SystemKind::ALL.len(), 5);
        assert_eq!(SystemKind::Clock.name(), "pgClock");
        assert_eq!(SystemKind::BatchingPrefetching.to_string(), "pgBatPre");
    }
}
