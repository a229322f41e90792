//! Tuning parameters for the BP-Wrapper framework.

/// How the wrapper handles a commit attempt that finds the replacement
/// lock busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Combining {
    /// The paper's pseudo-code: keep accumulating past the threshold and
    /// block in `Lock()` when the queue is full.
    #[default]
    Off,
    /// Full flat combining: *any* contended threshold crossing publishes
    /// and returns, and every lock holder drains all pending slots per
    /// critical section. The lock is acquired by whoever wins it; the
    /// losers never block on the hit path at all.
    Flat,
}

impl Combining {
    /// Does this mode use the publication board at all?
    pub fn is_enabled(self) -> bool {
        !matches!(self, Combining::Off)
    }

    /// Stable lower-case name (used in STATS and bench rows).
    pub fn name(self) -> &'static str {
        match self {
            Combining::Off => "off",
            Combining::Flat => "flat",
        }
    }
}

impl std::fmt::Display for Combining {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Combining {
    type Err = String;

    /// Accepts the mode names plus `true`/`false` for compatibility with
    /// the old boolean `--combining` flag (`true` means full flat
    /// combining, the strongest mode).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" | "false" | "none" => Ok(Combining::Off),
            "flat" | "true" | "on" => Ok(Combining::Flat),
            other => Err(format!(
                "unknown combining mode {other:?} (expected off|flat)"
            )),
        }
    }
}

/// Configuration of one [`BpWrapper`](crate::BpWrapper) instance.
///
/// The defaults are the values the paper uses in its evaluation (§IV-C):
/// FIFO queue size 64, batch threshold 32, both techniques enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrapperConfig {
    /// `S` — capacity of each thread's private FIFO queue. When the queue
    /// is full a blocking `Lock()` is unavoidable, so `S = 1` is one
    /// lock acquisition per access: the paper's `pgQ` baseline with
    /// prefetching off, `pgPre` with it on.
    pub queue_size: usize,
    /// `T` — number of queued accesses that triggers a non-blocking
    /// `TryLock()` commit attempt. Must satisfy `1 <= T <= S`; the paper
    /// shows `T = S/2` works well and `T = S` (no try-lock headroom)
    /// hurts (§IV-E, Table III).
    pub batch_threshold: usize,
    /// Enable the prefetching technique: read the lock word and the
    /// policy metadata of queued accesses into the processor cache
    /// immediately before requesting the lock (§III-B).
    pub prefetching: bool,
    /// Combining commit mode: a thread that finds the lock busy
    /// *publishes* its batch to a per-handle slot and returns, and
    /// whichever thread next holds the lock applies published batches on
    /// the publishers' behalf. [`Combining::Off`] by default — it trades
    /// commit latency for fewer lock acquisitions and only pays off
    /// under contention.
    pub combining: Combining,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            queue_size: 64,
            batch_threshold: 32,
            prefetching: true,
            combining: Combining::Off,
        }
    }
}

impl WrapperConfig {
    /// The paper's `pgQ` baseline: lock on every access, no prefetch.
    pub fn lock_per_access() -> Self {
        WrapperConfig {
            queue_size: 1,
            batch_threshold: 1,
            prefetching: false,
            combining: Combining::Off,
        }
    }

    /// The paper's `pgBat`: batching only.
    pub fn batching_only() -> Self {
        WrapperConfig {
            prefetching: false,
            ..Self::default()
        }
    }

    /// The paper's `pgPre`: prefetching only.
    pub fn prefetching_only() -> Self {
        WrapperConfig {
            prefetching: true,
            ..Self::lock_per_access()
        }
    }

    /// The paper's `pgBatPre`: both techniques (the default).
    pub fn batching_and_prefetching() -> Self {
        Self::default()
    }

    /// Set queue size `S` (clamping threshold to stay valid).
    pub fn with_queue_size(mut self, s: usize) -> Self {
        assert!(s >= 1, "queue size must be at least 1");
        self.queue_size = s;
        self.batch_threshold = self.batch_threshold.min(s);
        self
    }

    /// Set batch threshold `T`.
    pub fn with_batch_threshold(mut self, t: usize) -> Self {
        assert!(t >= 1, "batch threshold must be at least 1");
        assert!(t <= self.queue_size, "threshold cannot exceed queue size");
        self.batch_threshold = t;
        self
    }

    /// Enable or disable combining commit (`true` selects flat combining).
    pub fn with_combining(self, on: bool) -> Self {
        self.with_combining_mode(if on { Combining::Flat } else { Combining::Off })
    }

    /// Select a combining mode explicitly.
    pub fn with_combining_mode(mut self, mode: Combining) -> Self {
        self.combining = mode;
        self
    }

    /// Is the batching technique in effect? A queue of one has nothing
    /// to batch: every access commits under its own blocking `Lock()`.
    pub fn batching(&self) -> bool {
        self.queue_size > 1
    }

    /// `k` — victims a miss on a full pool evicts per replacement-lock
    /// acquisition: its own plus `k − 1` ahead of need, whose frames
    /// the next misses fill with admissions queued like hits. Derived
    /// from `S`, never set: 8 at the paper's `S = 64`, and 1 — a miss
    /// evicts only its own victim — at `S = 1` (`pgQ`, `pgPre`) and for
    /// any queue under 16.
    pub fn evict_batch(&self) -> usize {
        (self.queue_size / 8).max(1)
    }

    /// Validate the parameter combination, panicking if inconsistent.
    pub fn validate(&self) {
        assert!(self.queue_size >= 1, "queue size must be at least 1");
        assert!(
            (1..=self.queue_size).contains(&self.batch_threshold),
            "batch threshold {} out of range 1..={}",
            self.batch_threshold,
            self.queue_size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = WrapperConfig::default();
        assert_eq!(c.queue_size, 64);
        assert_eq!(c.batch_threshold, 32);
        assert!(c.batching());
        assert!(c.prefetching);
        c.validate();
    }

    #[test]
    fn presets_are_valid() {
        for c in [
            WrapperConfig::lock_per_access(),
            WrapperConfig::batching_only(),
            WrapperConfig::prefetching_only(),
            WrapperConfig::batching_and_prefetching(),
        ] {
            c.validate();
        }
        assert!(!WrapperConfig::lock_per_access().batching());
        assert!(!WrapperConfig::prefetching_only().batching());
        assert!(WrapperConfig::batching_only().batching());
        assert!(!WrapperConfig::batching_only().prefetching);
        assert!(WrapperConfig::prefetching_only().prefetching);
    }

    #[test]
    fn evict_batch_follows_queue_size() {
        assert_eq!(WrapperConfig::default().evict_batch(), 8);
        assert_eq!(WrapperConfig::lock_per_access().evict_batch(), 1);
        assert_eq!(WrapperConfig::prefetching_only().evict_batch(), 1);
        for (s, k) in [(2, 1), (15, 1), (16, 2), (128, 16)] {
            assert_eq!(WrapperConfig::default().with_queue_size(s).evict_batch(), k);
        }
    }

    #[test]
    fn builders_keep_consistency() {
        let c = WrapperConfig::default().with_queue_size(16);
        assert_eq!(c.batch_threshold, 16);
        let c = c.with_batch_threshold(8);
        assert_eq!(c.batch_threshold, 8);
        c.validate();
    }

    #[test]
    fn combining_is_opt_in() {
        assert_eq!(WrapperConfig::default().combining, Combining::Off);
        let c = WrapperConfig::default().with_combining(true);
        assert_eq!(
            c.combining,
            Combining::Flat,
            "bool opt-in means full flat combining"
        );
        c.validate();
    }

    #[test]
    fn combining_mode_parses() {
        for (s, want) in [
            ("off", Combining::Off),
            ("false", Combining::Off),
            ("flat", Combining::Flat),
            ("true", Combining::Flat),
        ] {
            assert_eq!(s.parse::<Combining>().unwrap(), want);
        }
        assert!("sideways".parse::<Combining>().is_err());
        assert!("overflow".parse::<Combining>().is_err());
        assert_eq!(Combining::Flat.to_string(), "flat");
    }

    #[test]
    #[should_panic(expected = "threshold cannot exceed queue size")]
    fn threshold_above_size_panics() {
        let _ = WrapperConfig::default()
            .with_queue_size(4)
            .with_batch_threshold(5);
    }
}
