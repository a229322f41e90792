//! Allocation audit for the write-back path's device half.
//!
//! `SimDisk::write_page` overwrites the stored copy in place when the
//! page has been stored before at the same length — every write-back
//! after a page's first, in a pool of fixed-size pages. This test pins
//! that with a counting global allocator: a `to_vec` per write (one
//! allocation, one free of the old box) shows up as a nonzero delta.
//! CI runs it in the release profile, the one the benchmark counts
//! `process.allocs_per_op` in.

#![cfg(not(feature = "dst"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bpw_bufferpool::{SimDisk, Storage};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn heap_traffic() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), FREES.load(Ordering::SeqCst))
}

#[test]
fn rewriting_a_stored_page_touches_no_heap() {
    const PAGES: u64 = 64;
    let disk = SimDisk::instant();
    let mut page = vec![0u8; 4096];
    for p in 0..PAGES {
        disk.write_page(p, &page).unwrap();
    }
    assert_eq!(disk.written_pages(), PAGES as usize);

    let before = heap_traffic();
    for round in 1..=4u8 {
        page.fill(round);
        for p in 0..PAGES {
            disk.write_page(p, &page).unwrap();
        }
    }
    let after = heap_traffic();
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, 0),
        "(allocations, frees) over {} overwrites",
        4 * PAGES
    );

    // The overwrites landed, in the copies stored the first time round.
    assert_eq!(disk.written_pages(), PAGES as usize);
    assert_eq!(disk.writes(), 5 * PAGES);
    let mut back = vec![0u8; 4096];
    disk.read_page(PAGES - 1, &mut back).unwrap();
    assert_eq!(back, page);

    // A different length is a different box: that does allocate.
    let before = heap_traffic();
    disk.write_page(0, &page[..128]).unwrap();
    let after = heap_traffic();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
}
