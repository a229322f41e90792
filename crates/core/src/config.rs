//! Tuning parameters for the BP-Wrapper framework.

/// Configuration of one [`BpWrapper`](crate::BpWrapper) instance.
///
/// The defaults are the values the paper uses in its evaluation (§IV-C):
/// FIFO queue size 64, batch threshold 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrapperConfig {
    /// `S` — capacity of each thread's private FIFO queue. When the queue
    /// is full a blocking `Lock()` is unavoidable, so `S = 1` is one
    /// lock acquisition per access: the paper's `pgQ` baseline.
    pub queue_size: usize,
    /// `T` — number of queued accesses that triggers a non-blocking
    /// `TryLock()` commit attempt. Must satisfy `1 <= T <= S`; the paper
    /// shows `T = S/2` works well and `T = S` (no try-lock headroom)
    /// hurts (§IV-E, Table III).
    pub batch_threshold: usize,
}

impl Default for WrapperConfig {
    fn default() -> Self {
        WrapperConfig {
            queue_size: 64,
            batch_threshold: 32,
        }
    }
}

impl WrapperConfig {
    /// The paper's `pgQ` baseline: lock on every access.
    pub fn lock_per_access() -> Self {
        WrapperConfig {
            queue_size: 1,
            batch_threshold: 1,
        }
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

    /// Is the batching technique in effect? A queue of one has nothing
    /// to batch: every access commits under its own blocking `Lock()`.
    pub fn batching(&self) -> bool {
        self.queue_size > 1
    }

    /// `k` — victims a miss on a full pool evicts per replacement-lock
    /// acquisition: its own plus `k − 1` ahead of need, whose frames
    /// the next misses fill with admissions queued like hits. Derived
    /// from `S`, never set: 8 at the paper's `S = 64`, and 1 — a miss
    /// evicts only its own victim — at `S = 1` (`pgQ`) and for
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
        c.validate();
    }

    #[test]
    fn presets_are_valid() {
        let c = WrapperConfig::lock_per_access();
        c.validate();
        assert!(!c.batching());
    }

    #[test]
    fn evict_batch_follows_queue_size() {
        assert_eq!(WrapperConfig::default().evict_batch(), 8);
        assert_eq!(WrapperConfig::lock_per_access().evict_batch(), 1);
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
    #[should_panic(expected = "threshold cannot exceed queue size")]
    fn threshold_above_size_panics() {
        let _ = WrapperConfig::default()
            .with_queue_size(4)
            .with_batch_threshold(5);
    }
}
