//! The distributed-lock baseline the paper compares against,
//! [`PartitionedCache`] (§V-A, as in Oracle Universal Server / ADABAS /
//! Mr.LRU): hash pages into partitions, each with a private policy and
//! lock. Contention drops, but history is fragmented and hot partitions
//! still collide. The other baseline, `pgClock`'s lock-free hit path, is
//! `bpw_bufferpool::ClockManager`, the one the pool and server run.

use bpw_core::InstrumentedLock;
use bpw_metrics::LockSnapshot;
use bpw_replacement::{CacheSim, PageId, ReplacementPolicy, SimStats};

/// The distributed-lock baseline: `n` independent policy instances, each
/// guarding `1/n`-th of the frames behind its own lock; pages are hashed
/// to partitions so the same page always lands in the same partition
/// (the Mr.LRU fix that keeps ghost-list policies functional).
pub struct PartitionedCache<P: ReplacementPolicy> {
    parts: Vec<InstrumentedLock<CacheSim<P>>>,
}

impl<P: ReplacementPolicy> PartitionedCache<P> {
    /// Build `partitions` caches of `frames_per_partition` frames each,
    /// using `make` to construct each partition's policy.
    pub fn new(
        partitions: usize,
        frames_per_partition: usize,
        mut make: impl FnMut(usize) -> P,
    ) -> Self {
        assert!(partitions >= 1, "need at least one partition");
        let parts = (0..partitions)
            .map(|_| InstrumentedLock::new(CacheSim::new(make(frames_per_partition))))
            .collect();
        PartitionedCache { parts }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Lock statistics summed over the partition locks.
    pub fn lock_snapshot(&self) -> LockSnapshot {
        self.parts.iter().fold(LockSnapshot::default(), |sum, p| {
            sum.merge(&p.stats().snapshot())
        })
    }

    /// Partition a page hashes to (splitmix64, so consecutive page ids
    /// spread uniformly).
    fn partition_of(&self, page: PageId) -> usize {
        let mut x = page.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.parts.len() as u64) as usize
    }

    /// Access `page` through its partition's lock; returns `true` on hit.
    pub fn access(&self, page: PageId) -> bool {
        let part = self.partition_of(page);
        let mut guard = self.parts[part].lock();
        let hit = guard.access(page);
        guard.cover_accesses(1);
        hit
    }

    /// Aggregate hit/miss statistics over all partitions.
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for p in &self.parts {
            let s = p.lock();
            total.hits += s.stats().hits;
            total.misses += s.stats().misses;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_replacement::{Lru, TwoQ};

    #[test]
    fn partition_is_deterministic_and_uniformish() {
        let pc = PartitionedCache::new(8, 4, |_| Lru::new(4));
        let mut counts = [0usize; 8];
        for page in 0..8000u64 {
            assert_eq!(pc.partition_of(page), pc.partition_of(page));
            counts[pc.partition_of(page)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "partition skew: {counts:?}");
        }
    }

    #[test]
    fn partitioned_cache_hits_and_misses() {
        let pc = PartitionedCache::new(4, 8, |_| TwoQ::new(8));
        for page in 0..16u64 {
            assert!(!pc.access(page));
        }
        for page in 0..16u64 {
            assert!(pc.access(page), "page {page} should still be cached");
        }
        // Each partition lock counts its own holds: four threads'
        // accesses through all four locks sum exactly.
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let pc = &pc;
                sc.spawn(move || {
                    for i in 0..2_000u64 {
                        pc.access((t + i) % 16);
                    }
                });
            }
        });
        let locks = pc.lock_snapshot();
        assert_eq!(locks.acquisitions, 32 + 8_000);
        assert_eq!(locks.accesses_covered, 32 + 8_000);
        let s = pc.stats();
        assert_eq!(s.hits, 16 + 8_000);
        assert_eq!(s.misses, 16);
    }

    #[test]
    fn partitioned_history_is_fragmented() {
        // The paper's §V-A criticism: partitioning divides capacity, so a
        // working set that fits a global cache may thrash partitions.
        // With 4 partitions x 4 frames, a 16-page working set only fits
        // if hashing spreads it 4/4/4/4 — generally it does not.
        let pc = PartitionedCache::new(4, 4, |_| Lru::new(4));
        let mut global = CacheSim::new(Lru::new(16));
        let trace: Vec<u64> = (0..16u64).cycle().take(160).collect();
        for &p in &trace {
            pc.access(p);
            global.access(p);
        }
        let part_ratio = pc.stats().hit_ratio();
        let global_ratio = global.stats().hit_ratio();
        assert!(
            part_ratio <= global_ratio,
            "partitioned ({part_ratio:.3}) cannot beat global ({global_ratio:.3}) on a cyclic fit"
        );
    }
}
