//! Striped lock-free free list.
//!
//! The seed pool kept free frames in one `Mutex<Vec<FrameId>>` — a
//! single point of serialization on every miss and every frame repair,
//! defeating the per-shard miss locks. This replaces it with a few
//! Treiber stacks (stripes) plus a *cold* stack:
//!
//! * `pop(home)` answers `None` after one load when nothing is linked —
//!   the state a full pool's list is always in. Otherwise it tries the
//!   caller's home stripe first, then steals from the other stripes,
//!   and drains the cold stack only when everything else is empty.
//! * `push(home, f)` returns a frame to its shard's stripe (eviction,
//!   invalidation).
//! * `push_cold(f)` parks a frame at the coldest point of the rotation
//!   — used for frames freed by I/O-failure repair, so a fault-prone
//!   frame is the *last* candidate for reuse instead of the first (the
//!   LIFO pathology: a persistently failing page would otherwise churn
//!   one frame forever).
//!
//! Each stack head packs a 32-bit ABA tag with the frame index; every
//! successful CAS bumps the tag, so a pop that observed head `A` cannot
//! succeed after a concurrent pop-push cycle reinstalls `A`. Per-frame
//! `next` links live in one atomic array — a frame is on at most one
//! stack at a time, so its link is owned by whichever stack holds it.

use std::sync::atomic::Ordering;

// Head words, next links and the count go through the dst shims: under
// the dst harness every load/CAS on them is a schedule point, so the
// window between reading a head and CASing it — where ABA lives — and
// the windows between a count update and its CAS are explorable. In
// normal builds the shims are the bare std atomics.
use bpw_core::CachePadded;
use bpw_dst::shim::{AtomicU32, AtomicU64, AtomicUsize};
use bpw_replacement::FrameId;

use std::sync::atomic::AtomicU64 as StdAtomicU64;

/// Empty-stack sentinel in the index half of a head word.
const NIL: u32 = u32::MAX;

/// The most stripes a pool gives its list. Stripes spread concurrent
/// pushes and pops, so they follow threads (the same 16 as
/// `StripedCounter`), not frames: a nearly-empty list is scanned in at
/// most 17 head loads however large the pool.
pub const MAX_STRIPES: usize = 16;

fn pack(tag: u32, idx: u32) -> u64 {
    ((tag as u64) << 32) | idx as u64
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Lock-free striped free list with work stealing and a cold stack.
pub struct StripedFreeList {
    /// One Treiber head per stripe; head `stripes` is the cold stack.
    /// Each head owns a cache line: packed densely, eight heads share a
    /// 64-byte line and every CAS on one stripe invalidates it under the
    /// seven neighbours — false sharing that serializes exactly the
    /// cross-shard traffic the striping exists to spread.
    heads: Vec<CachePadded<AtomicU64>>,
    /// Per-frame successor link (index into itself, `NIL` at the end).
    next: Vec<AtomicU32>,
    /// Regular stripe count (excluding the cold stack).
    stripes: usize,
    /// An upper bound on the frames linked on any stack, exact when
    /// quiescent: a push adds one *before* its CAS links the frame, a
    /// pop takes one off *after* its CAS unlinks it. Zero therefore
    /// means nothing is linked, and `pop` answers `None` on it without
    /// looking at a head.
    count: AtomicUsize,
    /// Pops satisfied by a stripe other than the caller's home.
    steals: StdAtomicU64,
    /// Frames parked on the cold stack.
    cold_pushes: StdAtomicU64,
}

impl StripedFreeList {
    /// A free list over frames `0..frames`, striped `stripes` ways,
    /// with every frame initially free (frame `f` starts on stripe
    /// `f % stripes`).
    pub fn new(frames: usize, stripes: usize) -> Self {
        assert!(stripes >= 1, "need at least one stripe");
        let heads = (0..=stripes)
            .map(|_| CachePadded::new(AtomicU64::new(pack(0, NIL))))
            .collect();
        let list = StripedFreeList {
            heads,
            next: (0..frames).map(|_| AtomicU32::new(NIL)).collect(),
            stripes,
            count: AtomicUsize::new(0),
            steals: StdAtomicU64::new(0),
            cold_pushes: StdAtomicU64::new(0),
        };
        // Reverse order so low frame ids pop first, like the seed's Vec.
        for f in (0..frames as u32).rev() {
            list.push(f as usize % stripes, f);
        }
        list
    }

    /// Regular stripe count (the cold stack is extra).
    pub fn stripes(&self) -> usize {
        self.stripes
    }

    /// Frames currently free: exact when no pops/pushes race it, never
    /// less than the frames linked while they do.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// True when no frame is free (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-stripe steals served so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Frames parked cold (repair path) so far.
    pub fn cold_pushes(&self) -> u64 {
        self.cold_pushes.load(Ordering::Relaxed)
    }

    /// The ABA defence: every successful CAS bumps the head's tag.
    ///
    /// The `dst_mutation = "freelist"` mutant disables the bump — on
    /// *both* CAS sites, not just pop's. Skipping only pop's bump is
    /// provably undetectable: completing the ABA cycle (pop A, pop B,
    /// push A) always includes a push, whose bump alone keeps the head
    /// word from ever repeating. Disabling both recreates the classic
    /// untagged Treiber stack, whose double-allocation the dst free-list
    /// checker must catch.
    #[inline]
    fn bump(tag: u32) -> u32 {
        #[cfg(not(dst_mutation = "freelist"))]
        {
            tag.wrapping_add(1)
        }
        #[cfg(dst_mutation = "freelist")]
        {
            tag
        }
    }

    fn push_stack(&self, stack: usize, frame: u32) {
        let head = &self.heads[stack];
        self.count.fetch_add(1, Ordering::AcqRel);
        loop {
            let old = head.load(Ordering::Acquire);
            let (tag, idx) = unpack(old);
            self.next[frame as usize].store(idx, Ordering::Release);
            if head
                .compare_exchange_weak(
                    old,
                    pack(Self::bump(tag), frame),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                bpw_dst::record(|| bpw_dst::Op::FreePush {
                    frame,
                    cold: stack == self.stripes,
                });
                return;
            }
        }
    }

    fn pop_stack(&self, stack: usize) -> Option<u32> {
        let head = &self.heads[stack];
        loop {
            let old = head.load(Ordering::Acquire);
            let (tag, idx) = unpack(old);
            if idx == NIL {
                return None;
            }
            // A racing pop may free `idx` and a push may relink it
            // elsewhere before our CAS; the tag bump makes the CAS fail
            // then, so a stale `next` read is never acted on.
            let next = self.next[idx as usize].load(Ordering::Acquire);
            if head
                .compare_exchange_weak(
                    old,
                    pack(Self::bump(tag), next),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                bpw_dst::record(|| bpw_dst::Op::FreePop { frame: idx });
                self.count.fetch_sub(1, Ordering::AcqRel);
                return Some(idx);
            }
        }
    }

    /// Return `frame` to its home stripe.
    pub fn push(&self, home: usize, frame: FrameId) {
        self.push_stack(home % self.stripes, frame);
    }

    /// Park `frame` on the cold stack: it is reused only after every
    /// regular stripe is empty.
    pub fn push_cold(&self, frame: FrameId) {
        self.cold_pushes.fetch_add(1, Ordering::Relaxed);
        self.push_stack(self.stripes, frame);
    }

    /// Take a free frame, preferring the caller's `home` stripe, then
    /// stealing round-robin from the other stripes, then draining the
    /// cold stack. Returns `None` when nothing is linked (one load) or
    /// every stack was observed empty.
    pub fn pop(&self, home: usize) -> Option<FrameId> {
        if self.count.load(Ordering::Acquire) == 0 {
            bpw_dst::record(|| bpw_dst::Op::FreePopEmpty);
            return None;
        }
        let home = home % self.stripes;
        if let Some(f) = self.pop_stack(home) {
            return Some(f);
        }
        for i in 1..self.stripes {
            let s = (home + i) % self.stripes;
            if let Some(f) = self.pop_stack(s) {
                self.steals.fetch_add(1, Ordering::Relaxed);
                bpw_trace::instant(bpw_trace::EventKind::FreeListSteal, s as u64);
                return Some(f);
            }
        }
        if let Some(f) = self.pop_stack(self.stripes) {
            self.steals.fetch_add(1, Ordering::Relaxed);
            bpw_trace::instant(bpw_trace::EventKind::FreeListSteal, self.stripes as u64);
            return Some(f);
        }
        bpw_dst::record(|| bpw_dst::Op::FreePopEmpty);
        None
    }
}

impl std::fmt::Debug for StripedFreeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedFreeList")
            .field("stripes", &self.stripes)
            .field("len", &self.len())
            .field("steals", &self.steals())
            .field("cold_pushes", &self.cold_pushes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn starts_full_and_drains_unique() {
        let fl = StripedFreeList::new(64, 4);
        assert_eq!(fl.len(), 64);
        let mut seen = HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(fl.pop(0).expect("frame available")));
        }
        assert!(fl.pop(0).is_none());
        assert!(fl.is_empty());
    }

    #[test]
    fn home_stripe_preferred_no_steal() {
        let fl = StripedFreeList::new(8, 4);
        // Frame f sits on stripe f % 4: popping home=1 gets 1 or 5 first.
        let f = fl.pop(1).unwrap();
        assert!(f % 4 == 1, "home stripe must serve first (got {f})");
        assert_eq!(fl.steals(), 0);
    }

    #[test]
    fn dry_stripe_steals_and_counts() {
        let fl = StripedFreeList::new(4, 4);
        assert_eq!(fl.pop(2).unwrap() % 4, 2);
        // Stripe 2 is now dry; next pop from it must steal.
        let f = fl.pop(2).unwrap();
        assert!(f % 4 != 2);
        assert_eq!(fl.steals(), 1);
    }

    #[test]
    fn one_frame_on_a_far_stripe_is_found_from_any_home() {
        let stripes = MAX_STRIPES;
        for home in 0..stripes {
            let fl = StripedFreeList::new(stripes, stripes);
            while fl.pop(home).is_some() {}
            assert_eq!(fl.len(), 0);
            for h in 0..stripes {
                assert!(fl.pop(h).is_none(), "a drained list answers None");
            }
            let steals = fl.steals();
            let far = (home + stripes - 1) % stripes;
            fl.push(far, 3);
            assert_eq!(fl.len(), 1);
            assert_eq!(fl.pop(home), Some(3));
            assert_eq!(fl.steals() - steals, u64::from(far != home));
            assert!(fl.pop(home).is_none());
        }
    }

    #[test]
    fn cold_frames_reused_last() {
        let fl = StripedFreeList::new(4, 2);
        let victim = fl.pop(0).unwrap();
        fl.push_cold(victim);
        assert_eq!(fl.cold_pushes(), 1);
        // Three regular frames remain; the cold one must come out last.
        let mut order = Vec::new();
        while let Some(f) = fl.pop(0) {
            order.push(f);
        }
        assert_eq!(order.len(), 4);
        assert_eq!(*order.last().unwrap(), victim, "cold frame reused first");
    }

    #[test]
    fn padded_heads_live_on_distinct_cache_lines() {
        let fl = StripedFreeList::new(8, 8);
        for pair in fl.heads.windows(2) {
            let a = &pair[0] as *const _ as usize;
            let b = &pair[1] as *const _ as usize;
            assert!(b - a >= 64, "stripe heads share a cache line");
        }
    }

    #[test]
    fn push_pop_roundtrip_conserves_frames() {
        let fl = StripedFreeList::new(16, 4);
        let mut held = Vec::new();
        for _ in 0..10 {
            held.push(fl.pop(3).unwrap());
        }
        assert_eq!(fl.len(), 6);
        for f in held.drain(..) {
            fl.push(f as usize, f);
        }
        assert_eq!(fl.len(), 16);
    }

    #[test]
    fn concurrent_churn_never_duplicates_a_frame() {
        // 4 threads pop/push against 2 stripes; every popped frame is
        // "owned" until pushed back, so no frame may be popped twice
        // concurrently. Ownership is tracked with an atomic claim map.
        let frames = 32usize;
        let fl = StripedFreeList::new(frames, 2);
        let claimed: Vec<AtomicU32> = (0..frames).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let fl = &fl;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..5_000usize {
                        if let Some(f) = fl.pop(t) {
                            let was = claimed[f as usize].swap(1, Ordering::AcqRel);
                            assert_eq!(was, 0, "frame {f} popped while owned");
                            local.push(f);
                        }
                        // Counted before it is linked, uncounted after it
                        // is unlinked: a racing reader never sees the
                        // count wrap below zero.
                        assert!(fl.len() <= frames, "count ran below the frames linked");
                        if (i % 3 == 0 || fl.is_empty()) && !local.is_empty() {
                            let f = local.swap_remove(i % local.len());
                            claimed[f as usize].store(0, Ordering::Release);
                            if i % 7 == 0 {
                                fl.push_cold(f);
                            } else {
                                fl.push(t, f);
                            }
                        }
                    }
                    for f in local {
                        claimed[f as usize].store(0, Ordering::Release);
                        fl.push(t, f);
                    }
                });
            }
        });
        assert_eq!(fl.len(), frames, "frames leaked or duplicated");
        let mut seen = HashSet::new();
        while let Some(f) = fl.pop(0) {
            assert!(seen.insert(f), "duplicate frame {f}");
        }
        assert_eq!(seen.len(), frames);
        assert_eq!(fl.len(), 0, "count is exact once the churn has stopped");
    }
}
