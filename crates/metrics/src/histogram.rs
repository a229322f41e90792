//! A log2-bucketed histogram for latency-style measurements.
//!
//! Values are binned by their bit length, giving ~2× resolution across
//! the full `u64` range with a fixed 64-slot footprint — adequate for
//! response-time distributions where we report means and coarse
//! percentiles, and cheap enough for hot paths.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-size concurrent histogram over `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; 64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(v: u64) -> usize {
        64 - v.leading_zeros() as usize // 0 -> bucket 0, 1 -> 1, 2..3 -> 2, ...
    }

    /// Lowest value that lands in bucket `i` (its representative).
    fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = Self::bucket_index(v).min(63);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact arithmetic mean of all samples (sum is tracked exactly).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts: `(lower, upper, count)` for each of the 64
    /// buckets, bounds inclusive. Bucket 0 holds only the value 0;
    /// bucket `i` holds `[2^(i-1), 2^i - 1]`; bucket 63 additionally
    /// absorbs the clamp of 64-bit values (so its upper bound is
    /// `u64::MAX`).
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        (0..64)
            .map(|i| {
                let upper = match i {
                    0 => 0,
                    63 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                (
                    Self::bucket_floor(i),
                    upper,
                    self.buckets[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Approximate quantile (`q` in `[0,1]`): lower bound of the bucket
    /// containing the q-th sample. Exact to within one power of two.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        self.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(2), 2);
        assert_eq!(Histogram::bucket_floor(3), 4);
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 25.0).abs() < 1e-12);
        assert_eq!(h.max(), 40);
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let median = h.quantile(0.5);
        // 500 lives in bucket [256, 512): floor 256.
        assert_eq!(median, 256);
        let p99 = h.quantile(0.99);
        assert_eq!(p99, 512); // 990 in [512, 1024)
        assert_eq!(h.quantile(0.0), 1); // rank clamps to 1 -> smallest sample's bucket
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn quantile_edge_values_zero_and_max() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), 0, "a lone 0 lives in bucket 0");
        h.record(u64::MAX);
        // u64::MAX clamps into bucket 63 (floor 2^62).
        assert_eq!(h.quantile(1.0), 1u64 << 62);
        assert_eq!(h.max(), u64::MAX);
        // Out-of-range q is clamped, not a panic.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 1u64 << 62);
    }

    #[test]
    fn bucket_63_clamp_merges_top_two_bit_lengths() {
        // Values of bit length 63 land in bucket 63 naturally; bit
        // length 64 is clamped into the same bucket.
        let h = Histogram::new();
        h.record(1u64 << 62); // bit length 63 -> index 63
        h.record(u64::MAX); // bit length 64 -> clamped to 63
        let b = h.buckets();
        assert_eq!(b[63], (1u64 << 62, u64::MAX, 2));
        assert_eq!(b.iter().map(|&(_, _, c)| c).sum::<u64>(), 2);
    }

    #[test]
    fn buckets_report_bounds_and_counts() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        let b = h.buckets();
        assert_eq!(b.len(), 64);
        assert_eq!(b[0], (0, 0, 1));
        assert_eq!(b[1], (1, 1, 1));
        assert_eq!(b[2], (2, 3, 2));
        assert_eq!(b[3], (4, 7, 2));
        assert_eq!(b[4], (8, 15, 1));
        // Bounds tile the u64 range with no gaps.
        for w in b.windows(2) {
            assert_eq!(w[0].1.wrapping_add(1), w[1].0);
        }
        assert_eq!(
            b.iter().map(|&(_, _, c)| c).sum::<u64>(),
            h.count(),
            "bucket counts must total the sample count"
        );
    }
}
