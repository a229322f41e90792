//! Core vocabulary types shared by every replacement policy.
//!
//! A policy manages a fixed set of buffer *frames*. The buffer pool performs
//! the page-table lookup, so a **hit** is reported by frame id (no hash
//! lookup inside the policy), while a **miss** is reported by page id so
//! that policies with ghost lists (2Q, LIRS, MQ, ARC, CAR) can
//! consult their history of evicted pages.
//!
//! This frame-centric design mirrors how PostgreSQL embeds replacement
//! metadata in each `BufferDesc`: a queued hit needs only the frame id to
//! reach its metadata when the batch commits.

/// Identifier of an on-disk page (what the paper calls a `BufferTag`,
/// flattened to one integer).
pub type PageId = u64;

/// Index of a buffer frame (slot) in the pool, `0..frames`.
pub type FrameId = u32;

/// Result of reporting a miss to a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissOutcome {
    /// The page was admitted into the supplied free frame.
    AdmittedFree(FrameId),
    /// The page was admitted into `frame` after evicting `victim` from it.
    Evicted { frame: FrameId, victim: PageId },
    /// Every candidate frame was rejected by the `evictable` filter
    /// (e.g. all pinned). The page was *not* admitted.
    NoEvictableFrame,
}

impl MissOutcome {
    /// Frame the page was admitted into, if it was admitted.
    pub fn frame(&self) -> Option<FrameId> {
        match *self {
            MissOutcome::AdmittedFree(f) => Some(f),
            MissOutcome::Evicted { frame, .. } => Some(frame),
            MissOutcome::NoEvictableFrame => None,
        }
    }

    /// Page that was evicted, if any.
    pub fn victim(&self) -> Option<PageId> {
        match *self {
            MissOutcome::Evicted { victim, .. } => Some(victim),
            _ => None,
        }
    }
}

/// A page-replacement algorithm over a fixed set of frames.
///
/// Implementations are **not** internally synchronized: that is the whole
/// point of the paper. Callers either serialize access with a lock
/// (`LockPerAccess`), or wrap the policy in
/// [`BpWrapper`](../../bpw_core/index.html) to batch accesses.
///
/// # Contract
///
/// * `free` passed to [`record_miss`](Self::record_miss) must be `Some`
///   if and only if `resident_count() < frames()`, and must name a frame
///   the policy is not currently tracking.
/// * [`record_hit`](Self::record_hit) must only be called for frames that
///   currently hold a resident page. Hits on untracked frames are ignored
///   (this tolerance is required by delayed batched commits: the page may
///   have been evicted between recording and committing).
pub trait ReplacementPolicy: Send {
    /// Human-readable algorithm name (e.g. `"2Q"`).
    fn name(&self) -> &'static str;

    /// Total number of frames managed.
    fn frames(&self) -> usize;

    /// Number of frames currently holding a resident page.
    fn resident_count(&self) -> usize;

    /// Record a buffer hit on `frame`.
    fn record_hit(&mut self, frame: FrameId);

    /// Record a buffer miss on `page` and choose where to place it.
    ///
    /// `evictable` filters candidate victims (the pool rejects pinned
    /// frames). Policies consider candidates in their natural eviction
    /// order and take the first accepted one.
    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome;

    /// Evict one page ahead of need, admitting nothing: take the first
    /// candidate `evictable` accepts, in the order a miss would, forget
    /// it, and leave its frame untracked for a later
    /// [`record_miss`](Self::record_miss) with that frame as `free`.
    /// `None` means no candidate was accepted — or, the default, that
    /// the policy does not evict ahead, so every eviction happens inside
    /// `record_miss`.
    fn evict(&mut self, _evictable: &mut dyn FnMut(FrameId) -> bool) -> Option<(FrameId, PageId)> {
        None
    }

    /// Forget the page in `frame` (explicit invalidation, e.g. table drop).
    /// Returns the page that was resident there, if any.
    fn remove(&mut self, frame: FrameId) -> Option<PageId>;

    /// Page currently resident in `frame`, if any.
    fn page_at(&self, frame: FrameId) -> Option<PageId>;

    /// All `(frame, page)` pairs currently resident. Intended for tests
    /// and invariant checks; O(frames).
    fn resident_pages(&self) -> Vec<(FrameId, PageId)> {
        (0..self.frames() as FrameId)
            .filter_map(|f| self.page_at(f).map(|p| (f, p)))
            .collect()
    }

    /// Validate internal invariants, panicking on violation.
    /// No-op by default; every policy in this crate overrides it.
    fn check_invariants(&self) {}
}

/// Convenience: record a miss with no free frame and no eviction filter.
pub fn miss_full(policy: &mut dyn ReplacementPolicy, page: PageId) -> MissOutcome {
    policy.record_miss(page, None, &mut |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_outcome_accessors() {
        assert_eq!(MissOutcome::AdmittedFree(3).frame(), Some(3));
        assert_eq!(MissOutcome::AdmittedFree(3).victim(), None);
        let e = MissOutcome::Evicted {
            frame: 7,
            victim: 42,
        };
        assert_eq!(e.frame(), Some(7));
        assert_eq!(e.victim(), Some(42));
        assert_eq!(MissOutcome::NoEvictableFrame.frame(), None);
        assert_eq!(MissOutcome::NoEvictableFrame.victim(), None);
    }
}
