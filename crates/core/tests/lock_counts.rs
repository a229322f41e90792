//! The lock's statistics are written by whoever holds the lock, with
//! plain stores, so they are exact only if every count is stored before
//! the unlock that hands the lock on. These tests hold them to that:
//! counts stay exact under four threads, the hold-time estimator times
//! one hold in 16 and credits it 16 times, and (under `bpw-dst`) every
//! holder sees the counts of every earlier hold. CI runs this file in
//! the release profile too, and the `dst_mutation = "stats_after_unlock"`
//! mutant (a release recorded after the unlock) must fail it.

use std::time::Duration;

use bpw_core::InstrumentedLock;

#[test]
fn counts_are_exact_under_four_threads() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 50_000;
    let lock = InstrumentedLock::new(0u64);
    let try_acquired: u64 = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                sc.spawn(|| {
                    let mut acquired = 0;
                    for _ in 0..ROUNDS {
                        let mut g = lock.lock();
                        *g += 1;
                        g.cover_accesses(3);
                        drop(g);
                        if let Some(mut g) = lock.try_lock() {
                            *g += 1;
                            g.cover_accesses(3);
                            acquired += 1;
                        }
                    }
                    acquired
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let s = lock.stats().snapshot();
    let acquisitions = THREADS * ROUNDS + try_acquired;
    assert_eq!(*lock.try_lock().unwrap(), acquisitions);
    assert_eq!(s.acquisitions, acquisitions);
    assert_eq!(s.accesses_covered, 3 * acquisitions);
    assert_eq!(s.trylock_failures, THREADS * ROUNDS - try_acquired);
    assert!(s.contentions <= THREADS * ROUNDS);
}

#[test]
fn hold_time_is_sampled_one_hold_in_sixteen() {
    let lock = InstrumentedLock::new(());
    let hold = |d: Duration| {
        let _g = lock.lock();
        std::thread::sleep(d);
    };
    let hold_ns = || lock.stats().snapshot().hold_ns;
    // Acquisition 1 is timed and stands for 16 holds.
    hold(Duration::from_millis(2));
    let first = hold_ns();
    assert!(first >= 16 * 2_000_000, "hold_ns {first}");
    // 2..=16 are not timed, however long they hold.
    for _ in 2..=16 {
        hold(Duration::from_micros(200));
        assert_eq!(hold_ns(), first);
    }
    // 17 is.
    hold(Duration::from_millis(2));
    assert!(hold_ns() >= first + 16 * 2_000_000, "hold_ns {}", hold_ns());
    assert_eq!(lock.stats().snapshot().acquisitions, 17);
}

/// Three tasks take the lock four times each, yielding while they hold
/// it. A holder must find exactly the accesses of the holds before it:
/// a release recorded after the unlock is missing when the next holder
/// looks.
#[cfg(feature = "dst")]
#[test]
fn dst_every_holder_sees_every_earlier_release() {
    use std::sync::Arc;
    for seed in bpw_dst::seed_corpus(0x10C5, 40) {
        let lock = Arc::new(InstrumentedLock::new(()));
        let mut sim = bpw_dst::Sim::new(seed);
        for _ in 0..3 {
            let lock = Arc::clone(&lock);
            sim.spawn(move || {
                for _ in 0..4 {
                    let mut g = lock.lock();
                    let s = lock.stats().snapshot();
                    assert_eq!(
                        s.accesses_covered,
                        3 * (s.acquisitions - 1),
                        "a holder sees an earlier release missing"
                    );
                    g.cover_accesses(3);
                    bpw_dst::yield_now();
                }
            });
        }
        let out = sim.run();
        out.expect_clean();
        let s = lock.stats().snapshot();
        assert_eq!((s.acquisitions, s.accesses_covered), (12, 36));
    }
}
