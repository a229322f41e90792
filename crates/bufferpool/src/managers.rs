//! Replacement managers: how the pool talks to its replacement
//! algorithm. Three synchronization styles, matching the paper's tested
//! systems:
//!
//! * [`CoarseManager`] — any policy behind one lock, acquired on every
//!   access (the `pgQ` baseline).
//! * [`ClockManager`] — CLOCK with PostgreSQL's lock-free hit path
//!   (atomic reference bits); the lock is taken only on misses
//!   (`pgClock`, the scalability gold standard).
//! * [`WrappedManager`] — any policy behind BP-Wrapper (`pgBat`, and
//!   with `S = 1` the same lock-per-access commits as `pgQ`).

use std::sync::atomic::{AtomicU8, Ordering};

use bpw_core::{BpWrapper, InstrumentedLock, WrapperConfig};
use bpw_metrics::LockSnapshot;
use bpw_replacement::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// How a pool thread reports accesses to the replacement algorithm.
/// One handle per thread; handles hold whatever per-thread state the
/// scheme needs (BP-Wrapper's private FIFO queue, in particular).
pub trait ManagerHandle {
    /// A pinned page was found in `frame`.
    fn on_hit(&mut self, page: PageId, frame: FrameId);

    /// `page` was read into `frame`, a frame the manager does not track
    /// (popped from the free list or from the session's stash of frames
    /// evicted ahead): record its admission. A wrapped handle queues it
    /// like a hit; the others record it under the lock at once.
    fn on_admit(&mut self, page: PageId, frame: FrameId);

    /// `page` missed on a full pool: choose a victim among the frames
    /// `evictable` accepts, and admit `page` in its place. A handle may
    /// evict ahead of need under the same lock acquisition, pushing each
    /// extra `(frame, victim)` onto `extra`; those frames are the
    /// caller's, to fill through [`on_admit`](Self::on_admit).
    fn on_evict(
        &mut self,
        page: PageId,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        extra: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome;

    /// Admit `page` into `frame`, a frame the last `on_evict` took, as
    /// part of that eviction rather than as an access of its own: the
    /// pool gives a victim that a pin still held its frame back, or
    /// moves the miss into another victim's frame. A wrapped handle
    /// leaves it out of its access count; the others admit as usual.
    fn on_readmit(&mut self, page: PageId, frame: FrameId) {
        self.on_admit(page, frame);
    }

    /// Commit any deferred bookkeeping (end of a thread's run).
    fn flush(&mut self) {}
}

/// A replacement algorithm plus its synchronization scheme.
pub trait ReplacementManager: Send + Sync {
    /// Scheme name for reports.
    fn name(&self) -> String;

    /// Per-thread access handle.
    fn handle(&self) -> Box<dyn ManagerHandle + '_>;

    /// Forget `frame` entirely (invalidation path; rare, takes the lock),
    /// including any admission into it a handle still has queued.
    fn invalidate(&self, frame: FrameId);

    /// Lock statistics for the replacement lock.
    fn lock_snapshot(&self) -> LockSnapshot;

    /// Queued admissions dropped at commit because their frame was
    /// invalidated meanwhile (0 for managers that admit at once).
    fn stale_admissions(&self) -> u64 {
        0
    }

    /// The resident `(frame, page)` set this manager believes in, for
    /// [`BufferPool::check_mapping_invariants`](crate::BufferPool::check_mapping_invariants)
    /// to compare with the page table; meaningful only while no miss is
    /// in flight.
    fn export_state(&self) -> Vec<(FrameId, PageId)> {
        Vec::new()
    }
}

// Boxed managers forward, so a pool's synchronization scheme can be
// chosen at runtime: `BufferPool<Box<dyn ReplacementManager>>`.
impl<M: ReplacementManager + ?Sized> ReplacementManager for Box<M> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn handle(&self) -> Box<dyn ManagerHandle + '_> {
        (**self).handle()
    }

    fn invalidate(&self, frame: FrameId) {
        (**self).invalidate(frame)
    }

    fn lock_snapshot(&self) -> LockSnapshot {
        (**self).lock_snapshot()
    }

    fn stale_admissions(&self) -> u64 {
        (**self).stale_admissions()
    }

    fn export_state(&self) -> Vec<(FrameId, PageId)> {
        (**self).export_state()
    }
}

// --- Coarse: one lock, acquired per access -------------------------------

/// Any policy behind a single lock taken on every hit and miss.
pub struct CoarseManager<P: ReplacementPolicy> {
    lock: InstrumentedLock<P>,
    /// The policy's name, read at construction so that naming the
    /// manager takes no lock the lock statistics would count.
    policy: &'static str,
}

impl<P: ReplacementPolicy> CoarseManager<P> {
    /// Wrap `policy`.
    pub fn new(policy: P) -> Self {
        CoarseManager {
            policy: policy.name(),
            lock: InstrumentedLock::new(policy),
        }
    }
}

impl<P: ReplacementPolicy> ReplacementManager for CoarseManager<P> {
    fn name(&self) -> String {
        format!("coarse({})", self.policy)
    }

    fn handle(&self) -> Box<dyn ManagerHandle + '_> {
        Box::new(CoarseHandle { mgr: self })
    }

    fn invalidate(&self, frame: FrameId) {
        self.lock.lock().remove(frame);
    }

    fn lock_snapshot(&self) -> LockSnapshot {
        self.lock.stats().snapshot()
    }

    fn export_state(&self) -> Vec<(FrameId, PageId)> {
        self.lock.lock().resident_pages()
    }
}

struct CoarseHandle<'m, P: ReplacementPolicy> {
    mgr: &'m CoarseManager<P>,
}

impl<'m, P: ReplacementPolicy> ManagerHandle for CoarseHandle<'m, P> {
    fn on_hit(&mut self, _page: PageId, frame: FrameId) {
        let mut g = self.mgr.lock.lock();
        g.record_hit(frame);
        g.cover_accesses(1);
    }

    fn on_admit(&mut self, page: PageId, frame: FrameId) {
        let mut g = self.mgr.lock.lock();
        let out = g.record_miss(page, Some(frame), &mut |_| true);
        debug_assert_eq!(out, MissOutcome::AdmittedFree(frame));
        g.cover_accesses(1);
    }

    fn on_evict(
        &mut self,
        page: PageId,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        _extra: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome {
        let mut g = self.mgr.lock.lock();
        let out = g.record_miss(page, None, evictable);
        g.cover_accesses(1);
        out
    }
}

// --- Clock: lock-free hit path --------------------------------------------

struct ClockCore {
    page_of: Vec<PageId>,
    present: Vec<bool>,
    hand: usize,
    resident: usize,
}

/// PostgreSQL-style CLOCK: hits set an atomic reference bit (no lock);
/// the sweep on a miss runs under the lock.
pub struct ClockManager {
    referenced: Vec<AtomicU8>,
    lock: InstrumentedLock<ClockCore>,
}

impl ClockManager {
    /// A clock over `frames` frames.
    pub fn new(frames: usize) -> Self {
        ClockManager {
            referenced: (0..frames).map(|_| AtomicU8::new(0)).collect(),
            lock: InstrumentedLock::new(ClockCore {
                page_of: vec![0; frames],
                present: vec![false; frames],
                hand: 0,
                resident: 0,
            }),
        }
    }

    fn frames(&self) -> usize {
        self.referenced.len()
    }
}

impl ReplacementManager for ClockManager {
    fn name(&self) -> String {
        "clock(lock-free hits)".to_owned()
    }

    fn handle(&self) -> Box<dyn ManagerHandle + '_> {
        Box::new(ClockHandle { mgr: self })
    }

    fn invalidate(&self, frame: FrameId) {
        let mut g = self.lock.lock();
        if g.present[frame as usize] {
            g.present[frame as usize] = false;
            g.resident -= 1;
        }
        self.referenced[frame as usize].store(0, Ordering::Relaxed);
    }

    fn lock_snapshot(&self) -> LockSnapshot {
        self.lock.stats().snapshot()
    }

    fn export_state(&self) -> Vec<(FrameId, PageId)> {
        let g = self.lock.lock();
        (0..self.frames())
            .filter(|&f| g.present[f])
            .map(|f| (f as FrameId, g.page_of[f]))
            .collect()
    }
}

struct ClockHandle<'m> {
    mgr: &'m ClockManager,
}

impl<'m> ManagerHandle for ClockHandle<'m> {
    fn on_hit(&mut self, _page: PageId, frame: FrameId) {
        // The whole point of pgClock: no latch, one relaxed store.
        self.mgr.referenced[frame as usize].store(1, Ordering::Relaxed);
    }

    fn on_admit(&mut self, page: PageId, frame: FrameId) {
        let f = frame as usize;
        let mut g = self.mgr.lock.lock();
        g.cover_accesses(1);
        debug_assert!(!g.present[f], "admission into occupied frame {frame}");
        g.page_of[f] = page;
        g.present[f] = true;
        g.resident += 1;
        self.mgr.referenced[f].store(1, Ordering::Relaxed);
    }

    fn on_evict(
        &mut self,
        page: PageId,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        _extra: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome {
        let n = self.mgr.frames();
        let mut g = self.mgr.lock.lock();
        g.cover_accesses(1);
        let mut steps = 0;
        while steps < 3 * n {
            let f = g.hand;
            g.hand = (g.hand + 1) % n;
            steps += 1;
            if !g.present[f] {
                continue;
            }
            if self.mgr.referenced[f].swap(0, Ordering::Relaxed) != 0 {
                continue; // second chance
            }
            if evictable(f as FrameId) {
                let victim = g.page_of[f];
                g.page_of[f] = page;
                self.mgr.referenced[f].store(1, Ordering::Relaxed);
                return MissOutcome::Evicted {
                    frame: f as FrameId,
                    victim,
                };
            }
        }
        MissOutcome::NoEvictableFrame
    }
}

// --- Wrapped: BP-Wrapper ---------------------------------------------------

/// Any policy behind the BP-Wrapper framework.
pub struct WrappedManager<P: ReplacementPolicy> {
    wrapper: BpWrapper<P>,
}

impl<P: ReplacementPolicy> WrappedManager<P> {
    /// Wrap `policy` with `config`.
    pub fn new(policy: P, config: WrapperConfig) -> Self {
        WrappedManager {
            wrapper: BpWrapper::new(policy, config),
        }
    }

    /// The underlying wrapper (counters, config).
    pub fn wrapper(&self) -> &BpWrapper<P> {
        &self.wrapper
    }
}

impl<P: ReplacementPolicy> ReplacementManager for WrappedManager<P> {
    fn name(&self) -> String {
        let c = self.wrapper.config();
        format!(
            "bp-wrapper(batch={}, S={}, T={})",
            c.batching(),
            c.queue_size,
            c.batch_threshold
        )
    }

    fn handle(&self) -> Box<dyn ManagerHandle + '_> {
        Box::new(WrappedHandle {
            handle: self.wrapper.handle(),
        })
    }

    fn invalidate(&self, frame: FrameId) {
        self.wrapper.invalidate(frame);
    }

    fn lock_snapshot(&self) -> LockSnapshot {
        self.wrapper.lock_stats().snapshot()
    }

    fn stale_admissions(&self) -> u64 {
        self.wrapper.counters().stale_admissions.get()
    }

    fn export_state(&self) -> Vec<(FrameId, PageId)> {
        self.wrapper.with_locked(|p| p.resident_pages())
    }
}

struct WrappedHandle<'m, P: ReplacementPolicy> {
    handle: bpw_core::AccessHandle<'m, P>,
}

impl<'m, P: ReplacementPolicy> ManagerHandle for WrappedHandle<'m, P> {
    fn on_hit(&mut self, page: PageId, frame: FrameId) {
        self.handle.record_hit(page, frame);
    }

    fn on_admit(&mut self, page: PageId, frame: FrameId) {
        self.handle.record_admit(page, frame);
    }

    fn on_readmit(&mut self, page: PageId, frame: FrameId) {
        self.handle.record_readmit(page, frame);
    }

    fn on_evict(
        &mut self,
        page: PageId,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        extra: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome {
        self.handle.record_miss_ahead(page, evictable, extra)
    }

    fn flush(&mut self) {
        self.handle.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_replacement::TwoQ;

    #[test]
    fn coarse_manager_locks_per_access() {
        let m = CoarseManager::new(TwoQ::new(4));
        let mut h = m.handle();
        for i in 0..4u64 {
            h.on_admit(i, i as u32);
        }
        h.on_hit(0, 0);
        h.on_hit(1, 1);
        drop(h);
        let snap = m.lock_snapshot();
        assert_eq!(snap.acquisitions, 6);
        assert_eq!(snap.accesses_covered, 6);
    }

    #[test]
    fn clock_manager_hits_without_lock() {
        let m = ClockManager::new(4);
        let mut h = m.handle();
        for i in 0..4u64 {
            h.on_admit(i, i as u32);
        }
        let before = m.lock_snapshot().acquisitions;
        for _ in 0..100 {
            h.on_hit(0, 0);
        }
        assert_eq!(m.lock_snapshot().acquisitions, before, "hits must not lock");
        let out = h.on_evict(10, &mut |_| true, &mut Vec::new());
        assert!(out.victim().is_some());
    }

    #[test]
    fn clock_manager_second_chance() {
        let m = ClockManager::new(3);
        let mut h = m.handle();
        for i in 1..=3u64 {
            h.on_admit(i, (i - 1) as u32);
        }
        // All ref bits set by admission; this miss clears them, evicts
        // frame 0 and leaves the hand at frame 1.
        let out = h.on_evict(10, &mut |_| true, &mut Vec::new());
        assert_eq!(
            out,
            MissOutcome::Evicted {
                frame: 0,
                victim: 1
            }
        );
        // Protect frame 1 (page 2): the next sweep must skip it and take
        // frame 2 (page 3) instead.
        h.on_hit(2, 1);
        let out = h.on_evict(11, &mut |_| true, &mut Vec::new());
        assert_eq!(
            out,
            MissOutcome::Evicted {
                frame: 2,
                victim: 3
            }
        );
    }

    #[test]
    fn clock_invalidate_and_refill() {
        let m = ClockManager::new(2);
        let mut h = m.handle();
        h.on_admit(1, 0);
        m.invalidate(0);
        h.on_admit(2, 0);
        assert_eq!(m.export_state(), [(0, 2)]);
    }

    #[test]
    fn wrapped_manager_batches() {
        let m = WrappedManager::new(TwoQ::new(8), WrapperConfig::default());
        let mut h = m.handle();
        for i in 0..8u64 {
            h.on_admit(i, i as u32);
        }
        let before = m.lock_snapshot().acquisitions;
        for k in 0..16u64 {
            h.on_hit(k % 8, (k % 8) as u32);
        }
        // 8 admissions and 16 hits with T=32: still queued, no lock
        // taken.
        assert_eq!(m.lock_snapshot().acquisitions, before);
        h.flush();
        assert!(m.lock_snapshot().acquisitions > before);
        drop(h);
        assert_eq!(m.wrapper().counters().committed.get(), 8 + 16);
    }

    #[test]
    fn eviction_ahead_leaves_the_policy_half_the_pool() {
        let m = WrappedManager::new(TwoQ::new(4), WrapperConfig::default());
        let mut h = m.handle();
        for i in 0..4u64 {
            h.on_admit(i, i as u32);
        }
        let mut extra = Vec::new();
        assert!(h
            .on_evict(100, &mut |_| true, &mut extra)
            .victim()
            .is_some());
        assert_eq!(
            extra.len(),
            2,
            "stops once the policy tracks half the frames"
        );
        assert_eq!(m.export_state().len(), 2);
    }

    #[test]
    fn names_are_informative() {
        let coarse = CoarseManager::new(TwoQ::new(2));
        assert!(coarse.name().contains("2Q"));
        assert_eq!(
            coarse.lock_snapshot().acquisitions,
            0,
            "naming the manager takes no counted lock"
        );
        assert!(ClockManager::new(2).name().contains("clock"));
        let w = WrappedManager::new(TwoQ::new(2), WrapperConfig::default());
        assert!(w.name().contains("S=64"));
    }
}
