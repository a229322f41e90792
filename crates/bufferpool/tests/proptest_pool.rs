//! Property tests for the buffer pool: driven single-threaded, the pool
//! (page table + descriptors + manager) must agree exactly with the
//! plain `CacheSim` reference for any policy and any trace, and content
//! must always round-trip through eviction.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, CoarseManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::{CacheSim, PolicyKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-threaded pool behaviour == CacheSim for every policy.
    #[test]
    fn pool_matches_cache_sim(
        kind in prop::sample::select(PolicyKind::ALL.to_vec()),
        frames in 2usize..24,
        trace in prop::collection::vec(0u64..48, 1..300),
    ) {
        let pool = BufferPool::new(
            frames,
            32,
            CoarseManager::new(kind.build(frames)),
            Arc::new(SimDisk::instant()),
        );
        let mut reference = CacheSim::new(kind.build(frames));
        let mut session = pool.session();
        for &page in &trace {
            let before_hits = pool.stats().hits.load(Ordering::Relaxed);
            let pinned = session.fetch(page).unwrap();
            pinned.read(|bytes| {
                prop_assert_eq!(
                    u64::from_le_bytes(bytes[..8].try_into().unwrap()),
                    page
                );
                Ok(())
            })?;
            drop(pinned);
            let pool_hit = pool.stats().hits.load(Ordering::Relaxed) > before_hits;
            let ref_hit = reference.access(page);
            prop_assert_eq!(pool_hit, ref_hit, "{} diverged on page {}", kind, page);
        }
        prop_assert_eq!(
            pool.stats().hits.load(Ordering::Relaxed),
            reference.stats().hits
        );
        prop_assert_eq!(pool.resident_count(), reference.resident_count());
    }

    /// Dirty data survives eviction: write a marker, evict via churn,
    /// re-fetch — the simulated disk must have persisted the write-back.
    /// (SimDisk regenerates content on read, so we check the write-back
    /// *count* matches the dirty evictions exactly.)
    #[test]
    fn every_dirty_eviction_writes_back(
        frames in 2usize..12,
        dirty_pages in prop::collection::btree_set(0u64..20, 1..8),
        churn in 20u64..60,
    ) {
        let pool = BufferPool::new(
            frames,
            32,
            CoarseManager::new(PolicyKind::Lru.build(frames)),
            Arc::new(SimDisk::instant()),
        );
        let mut session = pool.session();
        for &p in &dirty_pages {
            let pinned = session.fetch(p).unwrap();
            pinned.write(|bytes| bytes[9] = 0xEE);
        }
        // Churn through cold pages to force the dirty ones out.
        for p in 0..churn {
            drop(session.fetch(1_000 + p).unwrap());
        }
        let wrote = pool.storage().writes();
        let wb = pool.stats().writebacks.load(Ordering::Relaxed);
        prop_assert_eq!(wrote, wb, "every write-back must reach storage");
        prop_assert!(wb as usize <= dirty_pages.len(), "cannot write back more than was dirtied");
        // All dirty pages evicted (churn >> frames): each wrote back once.
        if churn as usize > frames + dirty_pages.len() {
            prop_assert_eq!(wb as usize, dirty_pages.len());
        }
    }

    /// Invalidations interleaved with fetches keep pool and policy in
    /// agreement about the resident count.
    #[test]
    fn invalidate_keeps_consistency(
        frames in 2usize..12,
        ops in prop::collection::vec((0u64..24, any::<bool>()), 1..200),
    ) {
        let pool = BufferPool::new(
            frames,
            32,
            WrappedManager::new(PolicyKind::TwoQ.build(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let mut session = pool.session();
        for &(page, invalidate) in &ops {
            if invalidate {
                pool.invalidate(page);
            } else {
                drop(session.fetch(page).unwrap());
            }
        }
        session.flush();
        let policy_resident =
            pool.manager().wrapper().with_locked(|p| {
                p.check_invariants();
                p.resident_count()
            });
        prop_assert_eq!(policy_resident, pool.resident_count());
    }
}
