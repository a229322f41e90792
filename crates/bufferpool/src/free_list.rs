//! The free list: one FIFO of frame ids behind a lock, as in
//! PostgreSQL's `freelist.c`.
//!
//! A pool's frames start here in ascending order and leave it for good
//! once the pool fills: a full pool's victims go to the evicting
//! session's stash, not back here. Frames come back only from
//! invalidation, from repair after a failed read, and from a dropped
//! session's stash. So the list's one hot question is "is anything
//! free?", and `pop` answers it from one load of the count without
//! taking the lock.
//!
//! `push` appends at the back, so a frame repaired after a failed read
//! is reused after every other free frame: a page whose reads keep
//! failing rotates through the frames instead of churning one.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

// The count goes through the dst shim: under the dst harness its loads
// and updates are schedule points, so the window between a push's
// append and its count update is explorable. In normal builds the shim
// is the bare std atomic.
use bpw_dst::shim::AtomicUsize;
use bpw_replacement::FrameId;
use parking_lot::{Mutex, MutexGuard};

/// Free frames in FIFO order, with a count `pop` reads lock-free.
pub struct FreeList {
    frames: Mutex<VecDeque<FrameId>>,
    /// The frames on the list. Changed only under the lock, and before
    /// a push records its frame, so a zero seen by `pop` means every
    /// push that has returned was popped since.
    count: AtomicUsize,
}

impl FreeList {
    /// A free list holding frames `0..frames`, handed out in that order.
    pub fn new(frames: usize) -> Self {
        FreeList {
            frames: Mutex::new((0..frames as FrameId).collect()),
            count: AtomicUsize::new(frames),
        }
    }

    /// Frames currently free.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// True when no frame is free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The list's lock. The count's updates are schedule points under
    /// the dst harness, so a virtual thread may be suspended holding
    /// the lock: spin on `try_lock` there, yielding, so the holder gets
    /// scheduled (as `InstrumentedLock::lock` does).
    fn lock(&self) -> MutexGuard<'_, VecDeque<FrameId>> {
        if bpw_dst::in_task() {
            loop {
                if let Some(g) = self.frames.try_lock() {
                    return g;
                }
                bpw_dst::yield_now();
            }
        }
        self.frames.lock()
    }

    /// Return `frame` to the back of the list.
    pub fn push(&self, frame: FrameId) {
        let mut frames = self.lock();
        frames.push_back(frame);
        // MUTANT (CI-verified) `freelist`: raise the count only after
        // unlocking, so a pop in between reads zero past a frame that is
        // on the list and recorded there.
        let late = cfg!(dst_mutation = "freelist");
        if !late {
            self.count.fetch_add(1, Ordering::AcqRel);
        }
        bpw_dst::record(|| bpw_dst::Op::FreePush { frame });
        drop(frames);
        if late {
            self.count.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Take the frame at the front of the list. Answers `None` after
    /// one load, without locking, when the list is empty.
    pub fn pop(&self) -> Option<FrameId> {
        if self.count.load(Ordering::Acquire) == 0 {
            bpw_dst::record(|| bpw_dst::Op::FreePopEmpty);
            return None;
        }
        let mut frames = self.lock();
        let Some(frame) = frames.pop_front() else {
            // A racing pop took the last frame after our load.
            bpw_dst::record(|| bpw_dst::Op::FreePopEmpty);
            return None;
        };
        self.count.fetch_sub(1, Ordering::AcqRel);
        bpw_dst::record(|| bpw_dst::Op::FreePop { frame });
        Some(frame)
    }
}

impl std::fmt::Debug for FreeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreeList")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn starts_full_and_drains_unique() {
        // Unique and ascending: the order `CacheSim` allocates frames in.
        let fl = FreeList::new(64);
        assert_eq!(fl.len(), 64);
        for f in 0..64 {
            assert_eq!(fl.pop(), Some(f));
        }
        assert!(fl.pop().is_none());
        assert!(fl.is_empty());
    }

    #[test]
    fn cold_frames_reused_last() {
        // A frame just returned (say, by repair after a failed read) is
        // handed out after every frame that was already free.
        let fl = FreeList::new(4);
        let failed = fl.pop().unwrap();
        fl.push(failed);
        let order: Vec<_> = std::iter::from_fn(|| fl.pop()).collect();
        assert_eq!(order, [1, 2, 3, failed]);
    }

    #[test]
    fn push_pop_roundtrip_conserves_frames() {
        let fl = FreeList::new(16);
        let held: Vec<_> = (0..10).map(|_| fl.pop().unwrap()).collect();
        assert_eq!(fl.len(), 6);
        for f in held {
            fl.push(f);
        }
        assert_eq!(fl.len(), 16);
    }

    #[test]
    fn concurrent_churn_never_duplicates_a_frame() {
        // 4 threads pop and push; every popped frame is owned until it
        // is pushed back, so no frame may be popped twice concurrently.
        // Ownership is tracked with an atomic claim map.
        let frames = 32usize;
        let fl = FreeList::new(frames);
        let claimed: Vec<AtomicU32> = (0..frames).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let fl = &fl;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..5_000usize {
                        if let Some(f) = fl.pop() {
                            let was = claimed[f as usize].swap(1, Ordering::AcqRel);
                            assert_eq!(was, 0, "frame {f} popped while owned");
                            local.push(f);
                        }
                        assert!(fl.len() <= frames, "count ran past the frames");
                        if (i % 3 == 0 || fl.is_empty()) && !local.is_empty() {
                            let f = local.swap_remove(i % local.len());
                            claimed[f as usize].store(0, Ordering::Release);
                            fl.push(f);
                        }
                    }
                    for f in local {
                        claimed[f as usize].store(0, Ordering::Release);
                        fl.push(f);
                    }
                });
            }
        });
        assert_eq!(fl.len(), frames, "frames leaked or duplicated");
        let seen: HashSet<_> = std::iter::from_fn(|| fl.pop()).collect();
        assert_eq!(seen.len(), frames);
        assert_eq!(fl.len(), 0);
    }
}
