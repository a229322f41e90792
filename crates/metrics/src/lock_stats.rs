//! Lock-behaviour statistics matching the paper's measurements.
//!
//! The paper reports two lock metrics:
//!
//! * **Average lock contention** (§IV-C): "a lock contention happens when
//!   a lock request cannot be immediately satisfied", normalized to
//!   contentions **per million page accesses** — [`LockStats::contentions_per_million`].
//! * **Lock acquisition and holding time per access** (Fig. 2):
//!   [`LockStats::hold_ns`] plus [`LockStats::wait_ns`] divided by the
//!   accesses they covered.

use std::time::Duration;

use crate::counters::Counter;

/// Shared, thread-safe lock statistics. One instance is attached to each
/// replacement-algorithm lock; every wrapper implementation reports into
/// it.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Successful lock acquisitions (blocking or try-lock).
    pub acquisitions: Counter,
    /// Acquisitions that could not be satisfied immediately
    /// (the paper's "lock contention" events).
    pub contentions: Counter,
    /// Non-blocking `try_lock` attempts that failed.
    pub trylock_failures: Counter,
    /// Total nanoseconds spent waiting for the lock.
    pub wait_ns: Counter,
    /// Total nanoseconds the lock was held.
    pub hold_ns: Counter,
    /// Page accesses whose bookkeeping the lock protected.
    pub accesses_covered: Counter,
}

/// An owned copy of [`LockStats`] at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockSnapshot {
    /// Successful lock acquisitions.
    pub acquisitions: u64,
    /// Blocked acquisitions (paper's contention events).
    pub contentions: u64,
    /// Failed try-lock attempts.
    pub trylock_failures: u64,
    /// Nanoseconds spent waiting.
    pub wait_ns: u64,
    /// Nanoseconds spent holding.
    pub hold_ns: u64,
    /// Accesses covered.
    pub accesses_covered: u64,
}

impl LockStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one successful acquisition.
    #[inline]
    pub fn record_acquisition(&self, contended: bool, wait: Duration) {
        self.acquisitions.incr();
        if contended {
            self.contentions.incr();
        }
        // Uncontended acquisitions wait zero: skip the RMW on a line
        // of its own.
        if !wait.is_zero() {
            self.wait_ns.add(wait.as_nanos() as u64);
        }
    }

    /// Record a failed try-lock.
    #[inline]
    pub fn record_trylock_failure(&self) {
        self.trylock_failures.incr();
    }

    /// Record a completed critical section covering `accesses` page
    /// accesses.
    #[inline]
    pub fn record_release(&self, held: Duration, accesses: u64) {
        self.hold_ns.add(held.as_nanos() as u64);
        self.accesses_covered.add(accesses);
    }

    /// Copy out the current values.
    pub fn snapshot(&self) -> LockSnapshot {
        LockSnapshot {
            acquisitions: self.acquisitions.get(),
            contentions: self.contentions.get(),
            trylock_failures: self.trylock_failures.get(),
            wait_ns: self.wait_ns.get(),
            hold_ns: self.hold_ns.get(),
            accesses_covered: self.accesses_covered.get(),
        }
    }

    /// The paper's "average lock contention": blocked acquisitions per
    /// million page accesses. `total_accesses` is the workload's access
    /// count (hits + misses), not just those that took the lock.
    pub fn contentions_per_million(&self, total_accesses: u64) -> f64 {
        if total_accesses == 0 {
            return 0.0;
        }
        self.contentions.get() as f64 * 1e6 / total_accesses as f64
    }
}

/// Aggregate view over a family of sharded locks (e.g. the buffer
/// pool's per-shard miss locks): totals across shards plus the worst
/// single shard's wait, which totals alone would hide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockShardSummary {
    /// Number of shards aggregated.
    pub shards: usize,
    /// Acquisitions summed over all shards.
    pub total_acquisitions: u64,
    /// Contentions summed over all shards.
    pub total_contentions: u64,
    /// Wait time summed over all shards.
    pub total_wait_ns: u64,
    /// Hold time summed over all shards.
    pub total_hold_ns: u64,
    /// The largest per-shard cumulative wait (hotspot indicator).
    pub max_wait_ns: u64,
}

impl LockShardSummary {
    /// Aggregate a family of per-shard snapshots.
    pub fn from_snapshots(shards: &[LockSnapshot]) -> Self {
        let mut s = LockShardSummary {
            shards: shards.len(),
            ..Self::default()
        };
        for snap in shards {
            s.total_acquisitions += snap.acquisitions;
            s.total_contentions += snap.contentions;
            s.total_wait_ns += snap.wait_ns;
            s.total_hold_ns += snap.hold_ns;
            s.max_wait_ns = s.max_wait_ns.max(snap.wait_ns);
        }
        s
    }
}

impl LockSnapshot {
    /// Element-wise sum with another snapshot (aggregating a lock
    /// family into the legacy single-lock view).
    pub fn merge(&self, other: &LockSnapshot) -> LockSnapshot {
        LockSnapshot {
            acquisitions: self.acquisitions + other.acquisitions,
            contentions: self.contentions + other.contentions,
            trylock_failures: self.trylock_failures + other.trylock_failures,
            wait_ns: self.wait_ns + other.wait_ns,
            hold_ns: self.hold_ns + other.hold_ns,
            accesses_covered: self.accesses_covered + other.accesses_covered,
        }
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &LockSnapshot) -> LockSnapshot {
        LockSnapshot {
            acquisitions: self.acquisitions - earlier.acquisitions,
            contentions: self.contentions - earlier.contentions,
            trylock_failures: self.trylock_failures - earlier.trylock_failures,
            wait_ns: self.wait_ns - earlier.wait_ns,
            hold_ns: self.hold_ns - earlier.hold_ns,
            accesses_covered: self.accesses_covered - earlier.accesses_covered,
        }
    }

    /// Fig. 2's metric: (wait + hold) time per covered access.
    pub fn lock_time_per_access_ns(&self) -> f64 {
        if self.accesses_covered == 0 {
            return 0.0;
        }
        (self.wait_ns + self.hold_ns) as f64 / self.accesses_covered as f64
    }

    /// Mean accesses committed per lock acquisition (the effective batch
    /// size achieved).
    pub fn accesses_per_acquisition(&self) -> f64 {
        if self.acquisitions == 0 {
            return 0.0;
        }
        self.accesses_covered as f64 / self.acquisitions as f64
    }

    /// Blocked acquisitions per million covered accesses.
    pub fn contentions_per_million(&self, total_accesses: u64) -> f64 {
        if total_accesses == 0 {
            return 0.0;
        }
        self.contentions as f64 * 1e6 / total_accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = LockStats::new();
        s.record_acquisition(false, Duration::from_nanos(100));
        s.record_acquisition(true, Duration::from_nanos(900));
        s.record_trylock_failure();
        s.record_release(Duration::from_nanos(500), 16);
        s.record_release(Duration::from_nanos(300), 1);
        let snap = s.snapshot();
        assert_eq!(snap.acquisitions, 2);
        assert_eq!(snap.contentions, 1);
        assert_eq!(snap.trylock_failures, 1);
        assert_eq!(snap.wait_ns, 1000);
        assert_eq!(snap.hold_ns, 800);
        assert_eq!(snap.accesses_covered, 17);
    }

    #[test]
    fn per_million_normalization() {
        let s = LockStats::new();
        for _ in 0..5 {
            s.record_acquisition(true, Duration::ZERO);
        }
        assert_eq!(s.contentions_per_million(1_000_000), 5.0);
        assert_eq!(s.contentions_per_million(500_000), 10.0);
        assert_eq!(s.contentions_per_million(0), 0.0);
    }

    #[test]
    fn snapshot_delta_and_derived() {
        let s = LockStats::new();
        s.record_acquisition(false, Duration::from_nanos(10));
        s.record_release(Duration::from_nanos(90), 10);
        let a = s.snapshot();
        s.record_acquisition(true, Duration::from_nanos(40));
        s.record_release(Duration::from_nanos(60), 10);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.acquisitions, 1);
        assert_eq!(d.contentions, 1);
        assert!((d.lock_time_per_access_ns() - 10.0).abs() < 1e-9);
        assert!((d.accesses_per_acquisition() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = LockSnapshot {
            acquisitions: 1,
            contentions: 2,
            trylock_failures: 3,
            wait_ns: 4,
            hold_ns: 5,
            accesses_covered: 6,
        };
        let b = LockSnapshot {
            acquisitions: 10,
            contentions: 20,
            trylock_failures: 30,
            wait_ns: 40,
            hold_ns: 50,
            accesses_covered: 60,
        };
        let m = a.merge(&b);
        assert_eq!(m.acquisitions, 11);
        assert_eq!(m.contentions, 22);
        assert_eq!(m.trylock_failures, 33);
        assert_eq!(m.wait_ns, 44);
        assert_eq!(m.hold_ns, 55);
        assert_eq!(m.accesses_covered, 66);
    }

    #[test]
    fn shard_summary_totals_and_max() {
        let shards = vec![
            LockSnapshot {
                acquisitions: 5,
                contentions: 1,
                wait_ns: 100,
                hold_ns: 10,
                ..Default::default()
            },
            LockSnapshot {
                acquisitions: 7,
                contentions: 2,
                wait_ns: 900,
                hold_ns: 20,
                ..Default::default()
            },
            LockSnapshot::default(),
        ];
        let s = LockShardSummary::from_snapshots(&shards);
        assert_eq!(s.shards, 3);
        assert_eq!(s.total_acquisitions, 12);
        assert_eq!(s.total_contentions, 3);
        assert_eq!(s.total_wait_ns, 1000);
        assert_eq!(s.total_hold_ns, 30);
        assert_eq!(s.max_wait_ns, 900);
        assert_eq!(LockShardSummary::from_snapshots(&[]).shards, 0);
    }

    #[test]
    fn empty_snapshot_derived_are_zero() {
        let d = LockSnapshot::default();
        assert_eq!(d.lock_time_per_access_ns(), 0.0);
        assert_eq!(d.accesses_per_acquisition(), 0.0);
        assert_eq!(d.contentions_per_million(100), 0.0);
    }
}
