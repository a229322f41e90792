//! Cache-line-padded atomic counters for hot-path instrumentation.
//!
//! The paper's whole subject is cross-processor cache-line traffic, so
//! the instrumentation must not introduce false sharing of its own:
//! every counter lives on its own cache line (`crossbeam`'s
//! `CachePadded`), and all updates are `Relaxed` — we only ever read
//! aggregates after a run quiesces.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// A monotonically increasing event counter, safe to bump from any
/// thread without synchronization overhead beyond the atomic add.
#[derive(Debug, Default)]
pub struct Counter {
    value: CachePadded<AtomicU64>,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// A count that only the holder of one lock adds to, read by anyone.
/// An add is a relaxed load and a store, not an atomic
/// read-modify-write: the lock serialises the adders, and its release
/// publishes each add to the next holder. Unpadded, so it can share the
/// line its lock's holder writes anyway. Adds made outside that lock
/// may be lost.
#[derive(Debug, Default)]
pub struct HeldCounter {
    value: AtomicU64,
}

impl HeldCounter {
    /// Add `n`. The caller holds the lock this counter belongs to.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.store(
            self.value.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Add one. The caller holds the lock this counter belongs to.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Cells per [`StripedCounter`]: cell [`SHARED`] and 15 that a thread
/// each can own.
const STRIPES: usize = 16;

/// The cell every thread may add to, with `fetch_add`: threads that
/// found no free cell, and adds made while a thread's locals are being
/// destroyed.
const SHARED: usize = 0;

/// Not yet claimed: the thread has not added to a striped counter.
const UNCLAIMED: usize = usize::MAX;

/// Bit `i` set: a live thread owns cell `i` of every [`StripedCounter`].
/// Bit [`SHARED`] is set for good, so no thread claims it.
static OWNED: AtomicU32 = AtomicU32::new(1 << SHARED);

/// The calling thread's cell index in every [`StripedCounter`]; gives
/// the cell back when the thread exits.
struct Stripe(Cell<usize>);

impl Drop for Stripe {
    fn drop(&mut self) {
        let cell = self.0.get();
        if cell != UNCLAIMED && cell != SHARED {
            // Release: this thread's last store to the cell comes before
            // the next owner's first load of it.
            OWNED.fetch_and(!(1 << cell), Ordering::Release);
        }
    }
}

thread_local! {
    static STRIPE: Stripe = const { Stripe(Cell::new(UNCLAIMED)) };
}

/// Claim the lowest free cell, or [`SHARED`] if every one is owned.
fn claim() -> usize {
    let all = (1u32 << STRIPES) - 1;
    let mut owned = OWNED.load(Ordering::Relaxed);
    while owned != all {
        let cell = (!owned).trailing_zeros();
        match OWNED.compare_exchange_weak(
            owned,
            owned | 1 << cell,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => return cell as usize,
            Err(seen) => owned = seen,
        }
    }
    SHARED
}

#[inline]
fn stripe() -> usize {
    STRIPE
        .try_with(|s| {
            if s.0.get() == UNCLAIMED {
                s.0.set(claim());
            }
            s.0.get()
        })
        .unwrap_or(SHARED)
}

/// An event counter for per-access hot paths: each thread adds to its
/// own cache-line-padded cell, readers sum the cells. A [`Counter`]
/// bumped on every access from every thread is itself the write-shared
/// hot spot the paper removes; this keeps the add on a line no other
/// running thread writes. A thread claims a cell at its first add and
/// is then its only writer, so an add is a relaxed load and a store,
/// not an atomic read-modify-write; the cell goes back when the thread
/// exits, its count kept for the next owner to add to. Beyond 15 live
/// threads the rest share one cell and `fetch_add` it. Nothing is
/// buffered, so the sum is exact as soon as an `incr` returns.
#[derive(Default)]
pub struct StripedCounter {
    cells: [CachePadded<AtomicU64>; STRIPES],
}

impl StripedCounter {
    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n` (wrapping).
    #[inline]
    pub fn add(&self, n: u64) {
        let i = stripe();
        let cell = &self.cells[i];
        if i == SHARED {
            cell.fetch_add(n, Ordering::Relaxed);
        } else {
            // This thread is the cell's only writer.
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        }
    }

    /// Subtract `n`, for a population count (a gauge). The thread that
    /// subtracts need not own the cell that was added to, so one cell
    /// may wrap below zero; the cells' wrapping sum is still exact.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.add(n.wrapping_neg());
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }

    /// Current value, each cell loaded with `order` (the `AtomicU64`
    /// spelling, so a striped field reads like a plain atomic one).
    pub fn load(&self, order: Ordering) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |sum, c| sum.wrapping_add(c.load(order)))
    }
}

impl fmt::Debug for StripedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("StripedCounter").field(&self.get()).finish()
    }
}

/// An up/down gauge for population counts (open connections, in-flight
/// requests): increments on entry, decrements on exit, and remembers
/// its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: CachePadded<AtomicU64>,
    peak: CachePadded<AtomicU64>,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// One more member in the population.
    #[inline]
    pub fn incr(&self) {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// One fewer. Saturates at zero rather than wrapping, so a stray
    /// double-decrement corrupts one reading, not every later one.
    #[inline]
    pub fn decr(&self) {
        let mut cur = self.value.load(Ordering::Relaxed);
        while cur > 0 {
            match self.value.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record an instantaneous sample (e.g. a per-critical-section
    /// depth): replaces the current value and raises the peak.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current population.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest population ever observed.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A gauge tracking a maximum observed value.
#[derive(Debug, Default)]
pub struct MaxGauge {
    value: CachePadded<AtomicU64>,
}

impl MaxGauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation, keeping the maximum.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Largest observation so far.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basic() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.take(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_concurrent_sum() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    /// The tests that add to a striped counter run one at a time: some
    /// reason about which cells are free, and the claims are
    /// process-wide. Each adds only on threads it joins, so every cell
    /// it claimed is free again when it returns: a thread gives its cell
    /// back in a thread-local destructor, which a scope's end does not
    /// wait for and a test harness thread runs after the next test has
    /// started.
    static CLAIMS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn claims() -> std::sync::MutexGuard<'static, ()> {
        CLAIMS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn striped_counter_is_exact_under_concurrent_adders() {
        // Every adder lives until all have claimed, so at least three
        // find no free cell and share the overflow cell.
        let _serial = claims();
        let c = StripedCounter::default();
        let threads = STRIPES + 2;
        let claimed = std::sync::Barrier::new(threads);
        let on_shared = AtomicU64::new(0);
        std::thread::scope(|sc| {
            let adders: Vec<_> = (0..threads)
                .map(|_| {
                    sc.spawn(|| {
                        c.incr();
                        claimed.wait();
                        if stripe() == SHARED {
                            on_shared.fetch_add(1, Ordering::Relaxed);
                        }
                        for _ in 0..4_999 {
                            c.incr();
                        }
                    })
                })
                .collect();
            adders.into_iter().for_each(|a| a.join().unwrap());
        });
        assert!(on_shared.load(Ordering::Relaxed) >= 3);
        assert_eq!(c.get(), threads as u64 * 5_000);
        assert_eq!(c.load(Ordering::Acquire), c.get());
    }

    #[test]
    fn striped_counter_is_exact_when_a_new_thread_takes_over_a_cell() {
        let _serial = claims();
        let c = StripedCounter::default();
        let on = |n: u64| {
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    c.add(n);
                    stripe()
                })
                .join()
                .unwrap()
            })
        };
        let first = on(7);
        assert_ne!(first, SHARED, "the cells are free between tests");
        // The exited thread gave its cell back: the next one claims it
        // and adds to the count the first one left there.
        assert_eq!(on(5), first);
        assert_eq!(c.get(), 12);
        for n in 0..40 {
            assert_eq!(on(n), first, "an exited thread keeps no cell");
        }
        assert_eq!(c.get(), 12 + (0..40).sum::<u64>());
    }

    #[test]
    fn striped_counter_adds_are_visible_when_they_return() {
        let _serial = claims();
        let c = StripedCounter::default();
        std::thread::scope(|sc| {
            let adders: Vec<_> = (0..4)
                .map(|_| {
                    sc.spawn(|| {
                        for _ in 0..5_000 {
                            let before = c.get();
                            c.incr();
                            assert!(c.get() > before, "own adds must be visible");
                        }
                    })
                })
                .collect();
            adders.into_iter().for_each(|a| a.join().unwrap());
        });
        assert_eq!(c.get(), 20_000);
    }

    #[test]
    fn striped_counter_counts_a_population_across_threads() {
        // Frames go in on one thread and come out on another: the
        // second thread's cell wraps below zero, the sum does not.
        let _serial = claims();
        let c = StripedCounter::default();
        std::thread::scope(|sc| {
            sc.spawn(|| c.add(7)).join().unwrap();
            sc.spawn(|| c.sub(5)).join().unwrap();
            assert_eq!(c.get(), 2);
            sc.spawn(|| c.sub(2)).join().unwrap();
        });
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn gauge_tracks_population_and_peak() {
        let g = Gauge::new();
        g.incr();
        g.incr();
        g.incr();
        g.decr();
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 3);
        g.decr();
        g.decr();
        g.decr(); // extra decrement saturates instead of wrapping
        assert_eq!(g.get(), 0);
        assert_eq!(g.peak(), 3);
    }

    #[test]
    fn max_gauge_keeps_peak() {
        let g = MaxGauge::new();
        g.observe(5);
        g.observe(3);
        g.observe(9);
        g.observe(1);
        assert_eq!(g.get(), 9);
    }
}
