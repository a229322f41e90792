//! Cross-crate integration: workloads → buffer pool → BP-wrapped
//! policies → metrics, all running together under real concurrency.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_bufferpool::{BufferPool, ClockManager, ReplacementManager, SimDisk, WrappedManager};
use bpw_core::WrapperConfig;
use bpw_replacement::{PolicyKind, ReplacementPolicy};
use bpw_workloads::{Workload, WorkloadKind};

/// Drive a pool with a real workload from several threads; return
/// (hits, misses).
fn drive<M: ReplacementManager>(
    pool: &BufferPool<M>,
    workload: &dyn Workload,
    threads: usize,
    txns: usize,
) -> (u64, u64) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            let mut stream = workload.stream(t, 99);
            s.spawn(move || {
                let mut session = pool.session();
                let mut buf = Vec::new();
                for _ in 0..txns {
                    buf.clear();
                    stream.next_transaction(&mut buf);
                    for &page in &buf {
                        let pinned = session.fetch(page).expect("storage I/O failed");
                        // Verify the substrate delivered the right page.
                        pinned.read(|bytes| {
                            assert_eq!(
                                u64::from_le_bytes(bytes[..8].try_into().unwrap()),
                                page,
                                "pool returned wrong content"
                            );
                        });
                    }
                }
            });
        }
    });
    (
        pool.stats().hits.load(Ordering::Relaxed),
        pool.stats().misses.load(Ordering::Relaxed),
    )
}

#[test]
fn every_workload_through_wrapped_pool() {
    for kind in WorkloadKind::ALL {
        let workload = kind.build();
        let frames = (workload.page_universe() as usize / 8).clamp(256, 20_000);
        let pool = BufferPool::new(
            frames,
            64,
            WrappedManager::new(PolicyKind::TwoQ.build(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let (hits, misses) = drive(&pool, &*workload, 3, 60);
        assert!(hits + misses > 0, "{kind}: no accesses");
        assert!(hits > 0, "{kind}: no hits at 12.5% buffer");
        pool.manager()
            .wrapper()
            .with_locked(|p| p.check_invariants());
        // No access may be lost by the wrapper.
        let c = pool.manager().wrapper().counters();
        assert_eq!(
            c.accesses.get(),
            hits + misses,
            "{kind}: wrapper access count"
        );
    }
}

#[test]
fn every_policy_survives_concurrent_pool_traffic() {
    for kind in PolicyKind::ALL {
        let frames = 128;
        let pool = BufferPool::new(
            frames,
            64,
            WrappedManager::new(kind.build(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = &pool;
                s.spawn(move || {
                    let mut session = pool.session();
                    let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..2_500 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let page = x % 300; // > frames: constant eviction
                        let pinned = session.fetch(page).expect("storage I/O failed");
                        pinned.read(|bytes| {
                            assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), page);
                        });
                    }
                });
            }
        });
        // Frames the sessions evicted ahead went back to the free list
        // when they ended; none may be lost.
        let resident = pool.manager().wrapper().with_locked(|p| {
            p.check_invariants();
            p.resident_count()
        });
        assert_eq!(pool.resident_count(), resident, "{kind}");
        assert_eq!(resident + pool.free_frames(), frames, "{kind}");
        assert!(
            resident >= frames - 4 * 7,
            "{kind}: at most k - 1 per session"
        );
        pool.check_mapping_invariants();
    }
}

#[test]
fn three_manager_styles_agree_on_content() {
    // Same workload through all three synchronization schemes (pgQ is
    // the wrapper at a queue of one): identical page content, sensible
    // hit ratios.
    let workload = WorkloadKind::Dbt1.build();
    let frames = 2048;

    let coarse = BufferPool::new(
        frames,
        64,
        WrappedManager::new(
            PolicyKind::TwoQ.build(frames),
            WrapperConfig::lock_per_access(),
        ),
        Arc::new(SimDisk::instant()),
    );
    let clock = BufferPool::new(
        frames,
        64,
        ClockManager::new(frames),
        Arc::new(SimDisk::instant()),
    );
    let wrapped = BufferPool::new(
        frames,
        64,
        WrappedManager::new(PolicyKind::TwoQ.build(frames), WrapperConfig::default()),
        Arc::new(SimDisk::instant()),
    );

    let (h1, m1) = drive(&coarse, &*workload, 2, 80);
    let (h2, m2) = drive(&clock, &*workload, 2, 80);
    let (h3, m3) = drive(&wrapped, &*workload, 2, 80);
    assert_eq!(h1 + m1, h2 + m2);
    assert_eq!(h1 + m1, h3 + m3);
    let hr = |h: u64, m: u64| h as f64 / (h + m) as f64;
    // All three must achieve real caching; 2Q variants should be close.
    assert!(hr(h1, m1) > 0.5 && hr(h2, m2) > 0.5 && hr(h3, m3) > 0.5);
    assert!(
        (hr(h1, m1) - hr(h3, m3)).abs() < 0.05,
        "wrapped 2Q hit ratio should track coarse 2Q: {} vs {}",
        hr(h1, m1),
        hr(h3, m3)
    );
    // Lock economics: wrapped acquires far less often than coarse.
    let a_coarse = coarse.manager().lock_snapshot().acquisitions;
    let a_wrapped = wrapped.manager().lock_snapshot().acquisitions;
    assert!(
        a_wrapped * 4 < a_coarse,
        "wrapped ({a_wrapped}) must lock far less than coarse ({a_coarse})"
    );
}

#[test]
fn invalidation_under_load() {
    let frames = 64;
    let pool = BufferPool::new(
        frames,
        64,
        WrappedManager::new(PolicyKind::Lirs.build(frames), WrapperConfig::default()),
        Arc::new(SimDisk::instant()),
    );
    std::thread::scope(|s| {
        // Readers.
        for t in 0..2u64 {
            let pool = &pool;
            s.spawn(move || {
                let mut session = pool.session();
                let mut x = t + 1;
                for _ in 0..3_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = x % 128;
                    drop(session.fetch(page).expect("storage I/O failed"));
                }
            });
        }
        // Invalidator (e.g. relation truncation racing queries).
        let pool2 = &pool;
        s.spawn(move || {
            for i in 0..600u64 {
                pool2.invalidate(i % 128);
                std::hint::spin_loop();
            }
        });
    });
    pool.manager()
        .wrapper()
        .with_locked(|p| p.check_invariants());
}
