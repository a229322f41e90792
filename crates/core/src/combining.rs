//! Publication slots for the flat-combining commit path.
//!
//! When a thread crosses its batch threshold while the replacement lock
//! is busy, the paper's pseudo-code either keeps accumulating or blocks
//! in `Lock()`. Combining commit (opt-in via
//! [`WrapperConfig::combining`](crate::WrapperConfig)) instead lets the
//! thread *publish* its batch to a per-handle slot and return
//! immediately; whichever thread holds the lock drains every pending
//! slot in the same critical section. One lock acquisition retires many
//! threads' batches — flat combining applied to BP-Wrapper's commit.
//!
//! Order contract (paper §III-A): entries inside one published batch
//! stay in FIFO order, and a thread never commits newer accesses while
//! an older batch of its own is still published — the wrapper reclaims
//! the pending batch and applies it first. Batches from *different*
//! threads carry no mutual order, exactly like independently racing
//! `Lock()` calls.
//!
//! ## Buffer recycling
//!
//! Publishing must not allocate: it sits on the hit fast path. Each
//! slot owns **two** preallocated batch buffers (`Vec<AccessEntry>`
//! with the queue's capacity reserved) parked in a two-cell *rack*. A
//! publish pops a buffer from the rack, swaps the queue's backing
//! storage into it (an O(1) `Vec` internals exchange), and CASes the
//! buffer pointer into the slot's `published` cell. A consumer — the
//! owner reclaiming, or a lock holder combining — swaps `published`
//! back to null, applies the entries, clears the buffer, and returns it
//! to the rack. Two buffers suffice: at most one can be published and
//! at most one held by a consumer at any instant (consumers are
//! serialized by the replacement lock), so a rack push always finds a
//! free cell and a publish that sees `published == null` always finds a
//! buffer.
//!
//! Every slot is [`CachePadded`] so one thread's publish CAS does not
//! bounce the cache line under its neighbours' — with 64 dense
//! `AtomicPtr` slots, eight would share each line.

use std::ptr;
use std::sync::atomic::Ordering;

// The slot cells and the registration list go through the dst shims:
// under the harness every pointer swap/CAS on a slot — publish, owner
// reclaim, combiner drain, rack exchange — is a schedule point, so the
// races between them are explorable. In normal builds these are the
// bare primitives.
use bpw_dst::shim::{AtomicPtr, AtomicUsize, Mutex};

use crate::pad::CachePadded;
use crate::queue::AccessEntry;

/// Index of a handle's publication slot within a [`PublicationBoard`].
pub type SlotId = usize;

/// One handle's publication slot: the published-batch cell plus the
/// two-cell rack of idle buffers. All three cells hold owned pointers
/// to heap `Vec`s created at board construction; null means empty.
struct Slot {
    published: AtomicPtr<Vec<AccessEntry>>,
    rack: [AtomicPtr<Vec<AccessEntry>>; 2],
}

impl Slot {
    fn with_buffers(capacity: usize) -> Self {
        let buf = || Box::into_raw(Box::new(Vec::with_capacity(capacity)));
        Slot {
            published: AtomicPtr::new(ptr::null_mut()),
            rack: [AtomicPtr::new(buf()), AtomicPtr::new(buf())],
        }
    }

    /// Take an idle buffer out of the rack, if one is parked.
    fn pop_rack(&self) -> Option<*mut Vec<AccessEntry>> {
        for cell in &self.rack {
            let p = cell.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                return Some(p);
            }
        }
        None
    }

    /// Park an idle buffer. By the two-buffer invariant a cell is
    /// always free; if that is ever violated the buffer is dropped
    /// (degrading recycling, never correctness) in release builds.
    fn push_rack(&self, buf: *mut Vec<AccessEntry>) {
        for cell in &self.rack {
            if cell
                .compare_exchange(ptr::null_mut(), buf, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
        debug_assert!(false, "publication rack overflow: more than two buffers");
        drop(unsafe { Box::from_raw(buf) });
    }
}

/// A published batch taken out of a slot by a consumer. Dereferences to
/// the entries; on drop the buffer is cleared and returned to its
/// slot's rack, completing the recycling cycle without an allocation.
pub struct TakenBatch<'a> {
    slot: &'a Slot,
    buf: *mut Vec<AccessEntry>,
}

impl std::ops::Deref for TakenBatch<'_> {
    type Target = [AccessEntry];

    fn deref(&self) -> &[AccessEntry] {
        // SAFETY: `buf` was swapped out of the `published` cell, so this
        // TakenBatch is its unique owner until dropped.
        unsafe { &*self.buf }
    }
}

impl Drop for TakenBatch<'_> {
    fn drop(&mut self) {
        // SAFETY: unique owner (see Deref). Clearing keeps the buffer's
        // reserved capacity, so the next publish into it stays
        // allocation-free.
        unsafe { (*self.buf).clear() };
        self.slot.push_rack(self.buf);
    }
}

impl std::fmt::Debug for TakenBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TakenBatch")
            .field("len", &self.len())
            .finish()
    }
}

/// A fixed array of single-batch publication slots, one per registered
/// access handle. Publishing and draining are lock-free pointer swaps;
/// only slot registration (handle creation/teardown, cold path) takes a
/// mutex.
pub struct PublicationBoard {
    slots: Vec<CachePadded<Slot>>,
    free: Mutex<Vec<SlotId>>,
    batch_capacity: usize,
    /// Upper bound on currently published slots, maintained so lock
    /// holders can skip the 64-slot drain scan when nothing is pending
    /// (the overwhelmingly common case on an uncontended commit).
    /// Incremented *before* the publish CAS and decremented after a
    /// successful take, so it never under-counts a visible batch; a
    /// transient over-count only costs one wasted scan.
    pending: CachePadded<AtomicUsize>,
}

impl std::fmt::Debug for PublicationBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublicationBoard")
            .field("slots", &self.slots.len())
            .field("batch_capacity", &self.batch_capacity)
            .finish()
    }
}

impl PublicationBoard {
    /// A board with `slots` publication slots whose recycled buffers
    /// each reserve `batch_capacity` entries (the wrapper passes its
    /// queue size `S`, the largest batch a handle can publish). Handles
    /// beyond the slot count simply fall back to blocking commits.
    pub fn new(slots: usize, batch_capacity: usize) -> Self {
        PublicationBoard {
            slots: (0..slots)
                .map(|_| CachePadded::new(Slot::with_buffers(batch_capacity)))
                .collect(),
            free: Mutex::new((0..slots).rev().collect()),
            batch_capacity,
            pending: CachePadded::new(AtomicUsize::default()),
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries each recycled batch buffer has reserved.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Claim a slot for a new handle, if any remain.
    pub fn register(&self) -> Option<SlotId> {
        self.free.lock().pop()
    }

    /// Return a slot after its handle is done, reclaiming any batch
    /// still published there. The caller receives the orphaned entries
    /// (if any) and must commit them itself — silently recycling the
    /// slot would attribute the batch to its next owner, violating the
    /// §III-A per-thread order contract.
    pub fn release(&self, slot: SlotId) -> Option<Vec<AccessEntry>> {
        let pending = self.take(slot).map(|batch| batch.to_vec());
        self.free.lock().push(slot);
        pending
    }

    /// Publish the queue storage behind `batch` to `slot`, leaving
    /// equally-large empty storage in its place. Fails — without
    /// touching `batch` — when the slot still holds an undrained
    /// earlier batch (publishing over it would reorder one thread's
    /// accesses) or, transiently, when both buffers are in flight.
    pub fn publish(&self, slot: SlotId, batch: &mut Vec<AccessEntry>) -> bool {
        let slot = &*self.slots[slot];
        // Owner-only cell: nobody else publishes to this slot, so a
        // non-null observation is stable until we reclaim it ourselves.
        if !slot.published.load(Ordering::Acquire).is_null() {
            return false;
        }
        let Some(buf) = slot.pop_rack() else {
            return false;
        };
        // SAFETY: popped from the rack, so `buf` is exclusively ours.
        // The swap trades the queue's full storage for the buffer's
        // empty (equal-capacity) storage — no copy, no allocation.
        unsafe { std::ptr::swap(buf, batch) };
        self.pending.fetch_add(1, Ordering::Release);
        match slot.published.compare_exchange(
            ptr::null_mut(),
            buf,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => true,
            Err(_) => {
                // Unreachable for a well-behaved owner (checked null
                // above and only the owner publishes); undo the swap so
                // the caller keeps its batch either way.
                self.pending.fetch_sub(1, Ordering::Release);
                unsafe { std::ptr::swap(buf, batch) };
                slot.push_rack(buf);
                false
            }
        }
    }

    /// Does `slot` currently hold an undrained batch? Advisory only —
    /// a combiner may drain it between this check and any follow-up.
    /// (For a slot's *owner* the answer can only flip published→empty,
    /// which is what flush uses it for.)
    pub fn is_published(&self, slot: SlotId) -> bool {
        !self.slots[slot].published.load(Ordering::Acquire).is_null()
    }

    /// Take back whatever `slot` holds (the owner reclaiming its own
    /// pending batch, or a combiner claiming one slot). Dropping the
    /// returned batch recycles its buffer into the slot's rack.
    pub fn take(&self, slot: SlotId) -> Option<TakenBatch<'_>> {
        let slot = &*self.slots[slot];
        let p = slot.published.swap(ptr::null_mut(), Ordering::AcqRel);
        if p.is_null() {
            None
        } else {
            self.pending.fetch_sub(1, Ordering::Release);
            Some(TakenBatch { slot, buf: p })
        }
    }

    /// One combining pass: visit every slot except `skip` (the caller's
    /// own, reclaimed separately to keep its own ordering), feed each
    /// published batch to `apply`, and recycle its buffer. Returns the
    /// number of batches drained. The caller loops for multi-pass
    /// combining and enforces the fairness bound.
    pub fn drain_pass(&self, skip: Option<SlotId>, mut apply: impl FnMut(&[AccessEntry])) -> usize {
        if self.pending.load(Ordering::Acquire) == 0 {
            // Nothing published anywhere: skip the per-slot scan (it
            // touches one cache line per slot, which would tax every
            // uncontended commit).
            return 0;
        }
        let mut drained = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            // Cheap null check before the expensive swap: most slots
            // are empty most of the time.
            if slot.published.load(Ordering::Acquire).is_null() {
                continue;
            }
            if let Some(batch) = self.take(i) {
                apply(&batch);
                drained += 1;
            }
        }
        drained
    }
}

impl Drop for PublicationBoard {
    fn drop(&mut self) {
        for slot in &self.slots {
            for cell in std::iter::once(&slot.published).chain(slot.rack.iter()) {
                let p = cell.swap(ptr::null_mut(), Ordering::AcqRel);
                if !p.is_null() {
                    drop(unsafe { Box::from_raw(p) });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(page: u64) -> AccessEntry {
        AccessEntry::hit(page, page as u32)
    }

    fn batch(pages: &[u64]) -> Vec<AccessEntry> {
        let mut v = Vec::with_capacity(8.max(pages.len()));
        v.extend(pages.iter().map(|&p| entry(p)));
        v
    }

    #[test]
    fn publish_take_roundtrip() {
        let board = PublicationBoard::new(4, 8);
        let slot = board.register().unwrap();
        let mut b = batch(&[1, 2]);
        assert!(board.publish(slot, &mut b));
        assert!(b.is_empty(), "publish must leave empty storage behind");
        assert!(b.capacity() >= 8, "returned storage must keep capacity");
        let got = board.take(slot).unwrap();
        assert_eq!(got.iter().map(|e| e.page).collect::<Vec<_>>(), vec![1, 2]);
        drop(got);
        assert!(board.take(slot).is_none());
        assert_eq!(board.release(slot), None);
    }

    #[test]
    fn double_publish_rejected_with_batch_untouched() {
        let board = PublicationBoard::new(2, 8);
        let slot = board.register().unwrap();
        let mut first = batch(&[1]);
        assert!(board.publish(slot, &mut first));
        let mut second = batch(&[2]);
        assert!(!board.publish(slot, &mut second));
        assert_eq!(second[0].page, 2, "rejected batch must be left in place");
        assert_eq!(board.take(slot).unwrap()[0].page, 1);
        board.release(slot);
    }

    #[test]
    fn publish_reuses_the_two_slot_buffers() {
        // Round-tripping publish/take many times must cycle the same two
        // preallocated buffers (observable: storage pointers repeat).
        let board = PublicationBoard::new(1, 8);
        let slot = board.register().unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut b = batch(&[9]);
        for round in 0..6u64 {
            b.push(entry(round));
            assert!(board.publish(slot, &mut b));
            seen.insert(board.take(slot).unwrap().as_ptr() as usize);
        }
        assert!(
            seen.len() <= 2,
            "publish allocated fresh buffers instead of recycling ({} distinct)",
            seen.len()
        );
    }

    #[test]
    fn drain_pass_skips_own_slot() {
        let board = PublicationBoard::new(4, 8);
        let mine = board.register().unwrap();
        let theirs = board.register().unwrap();
        assert!(board.publish(mine, &mut batch(&[10])));
        assert!(board.publish(theirs, &mut batch(&[20])));
        let mut pages = Vec::new();
        let drained = board.drain_pass(Some(mine), |b| pages.extend(b.iter().map(|e| e.page)));
        assert_eq!(drained, 1);
        assert_eq!(pages, vec![20]);
        assert_eq!(board.take(mine).unwrap()[0].page, 10);
    }

    #[test]
    fn registration_exhausts_and_recycles() {
        let board = PublicationBoard::new(2, 4);
        let a = board.register().unwrap();
        let _b = board.register().unwrap();
        assert!(board.register().is_none());
        board.release(a);
        assert!(board.register().is_some());
    }

    #[test]
    fn release_returns_the_pending_batch() {
        // The release-hole regression (ISSUE 8 satellite): a handle torn
        // down with a batch still published must get the batch back so
        // the caller can commit it, and the next owner of the slot must
        // see it empty. The old code only debug_assert'ed, so release
        // builds silently handed the batch to the next owner.
        let board = PublicationBoard::new(1, 8);
        let slot = board.register().unwrap();
        assert!(board.publish(slot, &mut batch(&[41, 42])));
        let orphan = board.release(slot).expect("pending batch must be returned");
        assert_eq!(
            orphan.iter().map(|e| e.page).collect::<Vec<_>>(),
            vec![41, 42]
        );
        let next = board.register().unwrap();
        assert_eq!(next, slot, "slot must be recycled");
        assert!(
            board.take(next).is_none(),
            "next owner must see an empty slot"
        );
        assert!(
            board.publish(next, &mut batch(&[7])),
            "recycled slot must still have its buffers"
        );
        board.release(next);
    }

    #[test]
    fn dropping_board_frees_published_batches() {
        let board = PublicationBoard::new(1, 128);
        let slot = board.register().unwrap();
        assert!(board.publish(slot, &mut batch(&[7; 128])));
        drop(board); // must not leak (checked under miri/asan if available)
    }

    #[test]
    fn concurrent_publishers_and_one_drainer() {
        let board = std::sync::Arc::new(PublicationBoard::new(8, 4));
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let board = std::sync::Arc::clone(&board);
                    s.spawn(move || {
                        let slot = board.register().unwrap();
                        let mut kept = 0usize;
                        let mut b = Vec::with_capacity(4);
                        for round in 0..100u64 {
                            b.extend_from_slice(&[entry(round); 4]);
                            if !board.publish(slot, &mut b) {
                                kept += b.len();
                                b.clear();
                            }
                        }
                        if let Some(batch) = board.take(slot) {
                            kept += batch.len();
                        }
                        assert_eq!(board.release(slot), None);
                        kept
                    })
                })
                .collect();
            let drainer = {
                let board = std::sync::Arc::clone(&board);
                s.spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..2000 {
                        board.drain_pass(None, |b| seen += b.len());
                        std::thread::yield_now();
                    }
                    seen
                })
            };
            let direct: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            direct + drainer.join().unwrap()
        });
        // Every published or rejected entry is accounted exactly once:
        // 4 threads x 100 rounds x 4 entries.
        let mut leftover = 0usize;
        board.drain_pass(None, |b| leftover += b.len());
        assert_eq!(total + leftover, 4 * 100 * 4);
    }
}
