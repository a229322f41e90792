//! # bpw-core — BP-Wrapper
//!
//! A Rust reproduction of **"BP-Wrapper: A System Framework Making Any
//! Replacement Algorithms (Almost) Lock Contention Free"** (Ding, Jiang &
//! Zhang, ICDE 2009).
//!
//! The framework wraps any [`ReplacementPolicy`](bpw_replacement::ReplacementPolicy)
//! with two techniques that remove nearly all lock contention from the
//! buffer-hit path **without modifying the algorithm**:
//!
//! * **Batching** (§III-A): each thread records hits in a private FIFO
//!   queue and commits them in one lock acquisition once a threshold is
//!   reached — via a non-blocking `TryLock`, falling back to a blocking
//!   `Lock` only when the queue is full.
//! * **Prefetching** (§III-B): immediately before requesting the lock,
//!   the thread issues hardware prefetch hints for the lock word and the
//!   list nodes the critical section will touch, moving cache-miss
//!   stalls out of the lock-holding period.
//!
//! ## Quick example
//!
//! ```
//! use bpw_core::{BpWrapper, WrapperConfig};
//! use bpw_replacement::{Lirs, ReplacementPolicy};
//!
//! // Wrap an unmodified LIRS instance; S = 64, T = 32, both techniques on.
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
pub mod prefetch;
pub mod queue;
pub mod wrapped_cache;
pub mod wrapper;

pub use config::WrapperConfig;
pub use lock::{InstrumentedLock, LockGuard};
pub use pad::CachePadded;
pub use prefetch::{prefetch_line, prefetch_span, Prefetcher};
pub use queue::{AccessEntry, AccessQueue};
pub use wrapped_cache::WrappedCache;
pub use wrapper::{AccessHandle, ArcAccessHandle, BpWrapper, WrapperCounters};

/// The five systems of the paper's Table I, as wrapper configurations
/// plus the clock baseline.
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

    /// Wrapper configuration for this system (`None` for `pgClock`,
    /// which bypasses the wrapper entirely).
    pub fn wrapper_config(&self) -> Option<WrapperConfig> {
        match self {
            SystemKind::Clock => None,
            SystemKind::LockPerAccess => Some(WrapperConfig::lock_per_access()),
            SystemKind::Batching => Some(WrapperConfig::batching_only()),
            SystemKind::Prefetching => Some(WrapperConfig::prefetching_only()),
            SystemKind::BatchingPrefetching => Some(WrapperConfig::batching_and_prefetching()),
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
        assert!(SystemKind::Clock.wrapper_config().is_none());
        let full = SystemKind::BatchingPrefetching.wrapper_config().unwrap();
        assert!(full.batching() && full.prefetching);
        let bat = SystemKind::Batching.wrapper_config().unwrap();
        assert!(bat.batching() && !bat.prefetching);
        let pre = SystemKind::Prefetching.wrapper_config().unwrap();
        assert!(!pre.batching() && pre.prefetching);
        let lpa = SystemKind::LockPerAccess.wrapper_config().unwrap();
        assert!(!lpa.batching() && !lpa.prefetching);
        for k in SystemKind::ALL {
            if let Some(c) = k.wrapper_config() {
                c.validate();
            }
        }
    }
}
