//! The operation vocabulary recorded by instrumented code.
//!
//! Because exactly one virtual thread runs at a time, the order of
//! events in a run's history *is* the real-time order of the underlying
//! operations — recording happens in the same scheduler tenure as the
//! operation itself, with no yield point in between. Checkers can
//! therefore treat the history as a linearization.

/// One recorded operation. Field types mirror the production crates:
/// pages are `u64`, frames `u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Wrapper fast path: an access was appended to a thread-local
    /// queue (the paper's "record"), deferring policy bookkeeping.
    RecordHit { page: u64, frame: u32 },
    /// A queued access was drained under the policy lock. `applied` is
    /// false when the frame had been rebound to another page since the
    /// access was recorded, so the hit was discarded as stale.
    CommitHit {
        page: u64,
        frame: u32,
        applied: bool,
    },
    /// A miss was applied to the policy under the lock. `frame` is the
    /// admitted frame (None when no frame was evictable, or when a
    /// queued admission into `free` was found stale at commit),
    /// `victim` the evicted page if the admission displaced one.
    MissApply {
        page: u64,
        free: Option<u32>,
        frame: Option<u32>,
        victim: Option<u64>,
    },
    /// A miss evicted `victim` from `frame` ahead of need, under the
    /// same lock acquisition, leaving the frame to its session's stash.
    EvictAhead { frame: u32, victim: u64 },
    /// A frame was pushed onto the striped free list (`cold` = onto the
    /// cold stack rather than a per-thread stripe).
    FreePush { frame: u32, cold: bool },
    /// A frame was popped (allocated) from the striped free list, via
    /// the home stripe, a steal, or the cold stack.
    FreePop { frame: u32 },
    /// A free-list pop answered `None`: it read a zero count, or found
    /// every stack empty.
    FreePopEmpty,
    /// A pool fetch completed.
    FetchDone { page: u64, frame: u32, hit: bool },
    /// A pool invalidation completed with the given outcome
    /// (0 = Invalidated, 1 = NotResident, 2 = Busy).
    Invalidate { page: u64, outcome: u8 },
    /// A lock-free pin landed on a descriptor (the CAS succeeded).
    /// `pins` is the count *after* the increment; `page` the tag the
    /// pin validated against.
    Pin { page: u64, pins: u32 },
    /// A lock-free unpin landed. `pins` is the count *after* the
    /// decrement; `page` the descriptor's tag at release time.
    Unpin { page: u64, pins: u32 },
    /// A test wrote `stamp` into a pinned page. Recorded by the test
    /// inside `PinnedPage::write`'s closure — under the frame's content
    /// lock, with no yield point between the bytes and the record.
    PageWrite { page: u64, stamp: u64 },
    /// A test read `stamp` out of a pinned page; recorded inside
    /// `PinnedPage::read`'s closure, like [`Op::PageWrite`].
    PageRead { page: u64, stamp: u64 },
}

/// An [`Op`] attributed to the virtual thread that performed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub task: usize,
    pub op: Op,
}
