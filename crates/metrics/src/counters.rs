//! Cache-line-padded atomic counters for hot-path instrumentation.
//!
//! The paper's whole subject is cross-processor cache-line traffic, so
//! the instrumentation must not introduce false sharing of its own:
//! every counter lives on its own cache line (`crossbeam`'s
//! `CachePadded`), and all updates are `Relaxed` — we only ever read
//! aggregates after a run quiesces.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

/// Cells per [`StripedCounter`]. Threads take cells round-robin at their
/// first add; threads that land on the same cell stay exact and only pay
/// for sharing the line.
const STRIPES: usize = 16;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's cell index in every [`StripedCounter`].
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
        }
        s.get()
    })
}

/// An event counter for per-access hot paths: each thread adds to its
/// own cache-line-padded cell, readers sum the cells. A [`Counter`]
/// bumped on every access from every thread is itself the write-shared
/// hot spot the paper removes; this keeps the add on a line no other
/// running thread writes. Nothing is buffered, so the sum is exact as
/// soon as an `incr` returns.
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

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, for a population count (a gauge). The thread that
    /// subtracts need not own the cell that was added to, so one cell
    /// may wrap below zero; the cells' wrapping sum is still exact.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.cells[stripe()].fetch_sub(n, Ordering::Relaxed);
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

    #[test]
    fn striped_counter_is_exact_under_concurrent_adders() {
        // More adders than cells, so some cells are shared: the sum
        // must still be exact, and exact for each adder the moment its
        // own add returns (no per-thread buffering).
        let c = StripedCounter::default();
        let threads = STRIPES as u64 + 3;
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(|| {
                    for _ in 0..5_000 {
                        let before = c.get();
                        c.incr();
                        assert!(c.get() > before, "own adds must be visible");
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * 5_000);
        assert_eq!(c.load(Ordering::Acquire), c.get());
    }

    #[test]
    fn striped_counter_counts_a_population_across_threads() {
        // Frames go in on one thread and come out on another: the
        // second thread's cell wraps below zero, the sum does not.
        let c = StripedCounter::default();
        std::thread::scope(|sc| {
            sc.spawn(|| c.add(7)).join().unwrap();
            sc.spawn(|| c.sub(5)).join().unwrap();
        });
        assert_eq!(c.get(), 2);
        c.sub(2);
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
