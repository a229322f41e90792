//! The per-thread private FIFO access queue (paper §III-A, Fig. 4).
//!
//! Each transaction-processing thread records its buffer hits here
//! instead of taking the replacement lock. An entry mirrors the paper's
//! PostgreSQL implementation: "each entry in the FIFO queues consists of
//! two fields: one is a pointer to the meta-data of a buffer page
//! (BufferDesc structure), and the other stores BufferTag" (§IV-B) — for
//! us, a frame id and a page id. The page id is compared against the
//! frame's current occupant at commit time so accesses to pages that were
//! evicted or invalidated in the meantime are skipped.
//!
//! A miss that found a frame its session had evicted ahead queues the
//! new page's *admission* here too, in the padding beside the frame id:
//! it commits in FIFO order with the hits around it.

use bpw_replacement::{FrameId, PageId};

/// Marks an entry as an admission; the other 31 bits are the frame's
/// admission generation when it was queued.
const ADMIT: u32 = 1 << 31;

/// One recorded page access: a hit, or the admission of a page read
/// into a frame no policy tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEntry {
    /// The page that was hit or admitted (the `BufferTag`).
    pub page: PageId,
    /// The frame it occupied at access time (the `BufferDesc` pointer).
    pub frame: FrameId,
    /// 0 for a hit; `ADMIT | generation` for an admission.
    admit: u32,
}

impl AccessEntry {
    /// A hit on `page` in `frame`.
    pub fn hit(page: PageId, frame: FrameId) -> Self {
        AccessEntry {
            page,
            frame,
            admit: 0,
        }
    }

    /// The admission of `page` into `frame`, queued while the frame's
    /// admission generation was `generation` (only its low 31 bits are
    /// kept; an admission would have to stay queued across 2^31
    /// invalidations of its frame to be mistaken for a fresh one).
    pub fn admit(page: PageId, frame: FrameId, generation: u32) -> Self {
        AccessEntry {
            page,
            frame,
            admit: ADMIT | generation,
        }
    }

    /// Is this an admission rather than a hit?
    pub fn is_admission(&self) -> bool {
        self.admit & ADMIT != 0
    }

    /// Is this an admission queued under `generation`?
    pub fn admission_is_current(&self, generation: u32) -> bool {
        self.admit == ADMIT | generation
    }
}

/// A fixed-capacity FIFO of recorded accesses, owned by one thread.
/// Never shared: the paper chooses private queues precisely to avoid
/// synchronization and coherence cost on the recording path.
#[derive(Debug)]
pub struct AccessQueue {
    entries: Vec<AccessEntry>,
    capacity: usize,
}

impl AccessQueue {
    /// Create a queue with capacity `S`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        AccessQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Queue capacity `S`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of recorded accesses (`Tail` in the paper's pseudo-code).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no accesses are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the queue cannot accept another access.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Record an access. Panics if full — callers must commit first
    /// (the paper's pseudo-code guarantees this by committing whenever
    /// `Tail >= S`).
    pub fn push(&mut self, entry: AccessEntry) {
        assert!(
            !self.is_full(),
            "access queue overflow: commit before pushing"
        );
        self.entries.push(entry);
    }

    /// The recorded accesses in FIFO order.
    pub fn entries(&self) -> &[AccessEntry] {
        &self.entries
    }

    /// Remove and return all recorded accesses in FIFO order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, AccessEntry> {
        self.entries.drain(..)
    }

    /// Discard all recorded accesses (the `Tail = 0` reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = AccessQueue::new(4);
        q.push(AccessEntry::hit(10, 0));
        q.push(AccessEntry::hit(20, 1));
        q.push(AccessEntry::hit(30, 2));
        let order: Vec<PageId> = q.drain().map(|e| e.page).collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_tracking() {
        let mut q = AccessQueue::new(2);
        assert!(!q.is_full());
        q.push(AccessEntry::hit(1, 0));
        q.push(AccessEntry::hit(2, 1));
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn admissions_carry_their_generation() {
        let a = AccessEntry::admit(5, 2, 7);
        assert!(a.is_admission());
        assert!(a.admission_is_current(7));
        assert!(!a.admission_is_current(8));
        // Only the low 31 bits are kept, on both sides.
        assert!(AccessEntry::admit(5, 2, u32::MAX).admission_is_current(u32::MAX));
        assert_eq!((a.page, a.frame), (5, 2));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = AccessQueue::new(1);
        q.push(AccessEntry::hit(1, 0));
        q.push(AccessEntry::hit(2, 1));
    }

    #[test]
    fn entries_view() {
        let mut q = AccessQueue::new(3);
        q.push(AccessEntry::hit(5, 2));
        assert_eq!(q.entries(), &[AccessEntry::hit(5, 2)]);
        assert!(!q.entries()[0].is_admission());
    }
}
