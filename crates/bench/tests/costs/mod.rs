//! The cost tests' shared half: the one counting allocator, and the check
//! that prints measured costs as a table and asserts their pinned cells.
//! Each test binary in this directory pins the exact cost of the
//! operations it is named after; a change that moves a cost edits its
//! row and says why.
//!
//! A cost has four cells, counted while the measured operation runs:
//! - **locks**: successful lock acquisitions on the measuring thread,
//!   from the thread-local census the `parking_lot` shim keeps (every
//!   lock in the workspace goes through it, so the census is complete);
//! - **allocs** and **frees** on the measuring thread;
//! - **≥ 1 KiB elsewhere**: allocations of at least 1 KiB on every thread
//!   that has not measured — a server's, while its client measures.
//!   Other tests' threads count there too, so only a binary that runs
//!   one test pins it.
//!
//! A row shows "—" for a cell it does not pin. CI runs these tests in the
//! release profile, the one the benchmark counts `process.allocs_per_op`
//! in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smaller allocations elsewhere — a SCAN's 12-byte payload, a policy's
/// list node — are not what a server's page buffers are about.
const LARGE: usize = 1024;

static LARGE_ELSEWHERE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread being torn down still allocates.
    let _ = cell.try_with(|c| c.set(c.get() + 1));
}

fn count_alloc(size: usize) {
    bump(&ALLOCS);
    if size >= LARGE && !MEASURING.try_with(Cell::get).unwrap_or(false) {
        LARGE_ELSEWHERE.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; counting
// touches only an atomic and `const` thread-locals without destructors,
// none of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Locks, allocations, frees, allocations of at least 1 KiB elsewhere.
pub type Cost = [u64; 4];
/// A row's pinned cells; `None` is a cell it does not pin.
pub type Pinned = [Option<u64>; 4];

/// What `op` costs, run on this thread.
pub fn cost(op: impl FnOnce()) -> Cost {
    MEASURING.with(|m| m.set(true));
    let count = || {
        [
            parking_lot::thread_acquisitions(),
            ALLOCS.with(Cell::get),
            FREES.with(Cell::get),
            LARGE_ELSEWHERE.load(Ordering::SeqCst),
        ]
    };
    let before = count();
    op();
    let after = count();
    std::array::from_fn(|i| after[i] - before[i])
}

/// Prints the rows — operation, times its window ran it, measured cost —
/// and asserts every pinned cell, showing the pinned ones beside a row
/// that differs.
pub fn check(rows: &[(&str, u64, Pinned, Cost)]) {
    let line = |op: &str, times: &str, [l, a, f, e]: [String; 4]| {
        format!("{op:<46} {times:>6} {l:>6} {a:>6} {f:>6}  {e}")
    };
    let header = ["locks", "allocs", "frees", "≥ 1 KiB elsewhere"];
    let mut table = line("operation", "times", header.map(String::from));
    let mut wrong = Vec::new();
    for (op, times, pinned, cost) in rows {
        let shown: Pinned = std::array::from_fn(|i| pinned[i].map(|_| cost[i]));
        let cells = shown.map(|n| n.map_or_else(|| "—".to_owned(), |n| n.to_string()));
        table += &format!("\n{}", line(op, &times.to_string(), cells));
        if shown != *pinned {
            table += &format!("   pinned {pinned:?}");
            wrong.push(*op);
        }
    }
    println!("{table}");
    assert!(
        wrong.is_empty(),
        "not their pinned cost: {wrong:?}\n{table}"
    );
}
