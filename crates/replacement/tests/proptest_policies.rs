//! Property-based tests over every replacement policy: random reference
//! strings must never violate structural invariants, and LRU must agree
//! with an executable specification.

use std::collections::VecDeque;

use bpw_replacement::{CacheSim, Lru, PolicyKind};
use proptest::prelude::*;

/// Strategy: a reference string with tunable skew (small page universe
/// produces hits, large produces churn).
fn trace(universe: u64, len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0..universe, 1..=len)
}

/// Named replay of a case proptest once shrank to (frames = 2, trace
/// below): a tiny cache with a heavily colliding 64-page trace caught a
/// policy whose internal structure drifted out of sync with the
/// simulator's page table. Kept as a plain test instead of a
/// `.proptest-regressions` file so the case is visible, documented, and
/// runs everywhere by name.
#[test]
fn regression_consistency_frames2_colliding_trace() {
    let frames = 2usize;
    let pages: [u64; 125] = [
        0, 0, 29, 53, 0, 29, 53, 59, 59, 57, 14, 19, 50, 58, 27, 17, 49, 16, 53, 45, 49, 34, 49,
        17, 21, 11, 60, 55, 55, 22, 57, 3, 60, 8, 34, 19, 40, 40, 43, 7, 61, 19, 38, 42, 56, 40,
        52, 6, 4, 17, 0, 54, 1, 60, 15, 43, 41, 50, 40, 33, 45, 62, 6, 54, 45, 2, 54, 5, 4, 9, 13,
        49, 22, 5, 20, 52, 44, 0, 32, 33, 5, 14, 53, 5, 57, 21, 32, 50, 56, 52, 29, 35, 43, 34, 16,
        59, 40, 1, 48, 59, 61, 13, 18, 30, 42, 49, 13, 3, 39, 29, 56, 50, 34, 22, 44, 31, 38, 59,
        11, 49, 49, 34, 56, 49, 32,
    ];
    for kind in PolicyKind::ALL {
        let mut sim = CacheSim::new(kind.build(frames));
        for &p in &pages {
            sim.access(p);
        }
        sim.check_consistency();
        assert!(sim.resident_count() <= frames, "{kind}");
        assert_eq!(sim.stats().total(), pages.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy keeps its invariants and the simulator's page table
    /// in sync over arbitrary traces and cache sizes.
    #[test]
    fn policies_stay_consistent(
        frames in 2usize..40,
        pages in trace(64, 400),
    ) {
        for kind in PolicyKind::ALL {
            let mut sim = CacheSim::new(kind.build(frames));
            for &p in &pages {
                sim.access(p);
            }
            sim.check_consistency();
            prop_assert!(sim.resident_count() <= frames, "{kind}");
            prop_assert_eq!(sim.stats().total(), pages.len() as u64);
        }
    }

    /// The most recently accessed page is always resident afterwards.
    #[test]
    fn last_access_is_resident(
        frames in 2usize..20,
        pages in trace(50, 200),
    ) {
        for kind in PolicyKind::ALL {
            let mut sim = CacheSim::new(kind.build(frames));
            for &p in &pages {
                sim.access(p);
                prop_assert!(sim.is_resident(p), "{kind}: page {p} not resident after access");
            }
        }
    }

    /// Once the cache has warmed past `frames` distinct pages, the
    /// resident count equals the frame count for every policy (no frame
    /// leaks, no over-allocation).
    #[test]
    fn cache_fills_and_stays_full(
        frames in 2usize..16,
        seed_pages in trace(200, 300),
    ) {
        for kind in PolicyKind::ALL {
            let mut sim = CacheSim::new(kind.build(frames));
            // Guaranteed distinct warm-up.
            for p in 0..frames as u64 {
                sim.access(1_000_000 + p);
            }
            prop_assert_eq!(sim.resident_count(), frames, "{}", kind);
            for &p in &seed_pages {
                sim.access(p);
                prop_assert_eq!(sim.resident_count(), frames, "{}", kind);
            }
        }
    }

    /// LRU agrees exactly with an executable specification (a VecDeque of
    /// page ids, most recent at the front).
    #[test]
    fn lru_matches_reference_model(
        frames in 1usize..24,
        pages in trace(48, 500),
    ) {
        let mut sim = CacheSim::new(Lru::new(frames));
        let mut model: VecDeque<u64> = VecDeque::new();
        for &p in &pages {
            let model_hit = model.contains(&p);
            let sim_hit = sim.access(p);
            prop_assert_eq!(model_hit, sim_hit, "hit/miss diverged on page {}", p);
            if model_hit {
                let pos = model.iter().position(|&x| x == p).unwrap();
                model.remove(pos);
            } else if model.len() == frames {
                model.pop_back();
            }
            model.push_front(p);
            // Resident sets must agree.
            for &m in &model {
                prop_assert!(sim.is_resident(m), "model page {} missing", m);
            }
            prop_assert_eq!(model.len(), sim.resident_count());
        }
    }

    /// Hit ratios are trace-deterministic: two runs of the same trace
    /// give identical statistics for every policy.
    #[test]
    fn deterministic_replay(
        frames in 2usize..16,
        pages in trace(32, 200),
    ) {
        for kind in PolicyKind::ALL {
            let mut a = CacheSim::new(kind.build(frames));
            let mut b = CacheSim::new(kind.build(frames));
            let sa = a.run(pages.iter().copied());
            let sb = b.run(pages.iter().copied());
            prop_assert_eq!(sa, sb, "{} replay diverged", kind);
        }
    }

    /// The `evictable` filter contract: the buffer pool's filter has a
    /// side effect (it invalidates the frame it accepts), so a policy
    /// must evict exactly the frame the filter accepted — one acceptance
    /// per decision, and it is the victim. (LRU-K and LFU once violated
    /// this with keep-scanning min-searches; LFU's O(frames) victim scan
    /// is the one that still exercises it, and this test pins the fix
    /// for every policy.)
    #[test]
    fn filter_acceptance_is_the_victim(
        frames in 2usize..16,
        warm in trace(64, 80),
        miss_page in 1_000_000u64..1_000_100,
        pinned_mask in any::<u32>(),
    ) {
        for kind in PolicyKind::ALL {
            let mut sim = CacheSim::new(kind.build(frames));
            for &p in &warm {
                sim.access(p);
            }
            if sim.resident_count() < frames {
                continue; // not full: no eviction decision to test
            }
            let mut accepted = Vec::new();
            let out = sim.policy_mut().record_miss(miss_page, None, &mut |f| {
                // Reject a pseudo-random subset (as pins would), accept
                // the rest — recording every acceptance.
                if pinned_mask & (1 << (f % 31)) != 0 {
                    false
                } else {
                    accepted.push(f);
                    true
                }
            });
            match out.frame() {
                Some(victim_frame) => {
                    prop_assert_eq!(
                        &accepted,
                        &vec![victim_frame],
                        "{}: filter accepted {:?} but evicted {:?}",
                        kind,
                        accepted.clone(),
                        victim_frame
                    );
                }
                None => {
                    prop_assert!(
                        accepted.is_empty(),
                        "{}: accepted {:?} but evicted nothing",
                        kind,
                        accepted.clone()
                    );
                }
            }
        }
    }

    /// Invalidation (`remove`) never corrupts a policy: after removing a
    /// random resident frame, invariants still hold and the page misses
    /// on next access.
    #[test]
    fn invalidation_is_clean(
        frames in 2usize..16,
        pages in trace(32, 120),
        victim_idx in 0usize..16,
    ) {
        for kind in PolicyKind::ALL {
            let mut sim = CacheSim::new(kind.build(frames));
            for &p in &pages {
                sim.access(p);
            }
            let residents = sim.policy().resident_pages();
            if residents.is_empty() {
                continue;
            }
            let (frame, _page) = residents[victim_idx % residents.len()];
            sim.policy_mut().remove(frame);
            sim.policy().check_invariants();
            prop_assert_eq!(sim.policy().page_at(frame), None, "{}", kind);
        }
    }
}
