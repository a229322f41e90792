//! The BP-Wrapper framework (paper §III, Fig. 4): batching around an
//! *unmodified* replacement policy.
//!
//! ```text
//! replacement_for_page_hit(p):            replacement_for_page_miss(p):
//!   Queue[Tail++] = p                       Lock()
//!   if Tail >= batch_threshold:             for each q in Queue: commit(q)
//!     if TryLock() fails:                   run policy miss path for p
//!       if Tail < S: return                 UnLock(); Tail = 0
//!       Lock()
//!     commit all queued accesses
//!     UnLock(); Tail = 0
//! ```
//!
//! The policy is wrapped, not changed: any [`ReplacementPolicy`] gains an
//! (almost) lock-contention-free hit path.
//!
//! A miss can batch too ([`AccessHandle::record_miss_ahead`]): under the
//! one acquisition it evicts up to `k − 1` more victims than it needs
//! ([`WrapperConfig::evict_batch`]), and the misses that fill those
//! frames queue their admissions in the FIFO like hits
//! ([`AccessHandle::record_admit`]).

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use bpw_metrics::{HeldCounter, LockStats, StripedCounter};
use bpw_replacement::{FrameId, MissOutcome, PageId, Recorder, ReplacementPolicy};

use crate::config::WrapperConfig;
use crate::lock::{InstrumentedLock, LockGuard};
use crate::queue::{AccessEntry, AccessQueue};

/// Counters specific to the wrapper (beyond the lock statistics). All
/// but `accesses` are written only by the commit loop, under the policy
/// lock, so they are held counters, unpadded beside each other.
#[derive(Debug, Default)]
pub struct WrapperCounters {
    /// Page accesses recorded through any handle (hits + misses).
    /// Striped: this is the one wrapper counter bumped per access rather
    /// than per batch, and a hit must not write a line other threads
    /// write.
    pub accesses: StripedCounter,
    /// Queued entries applied to the policy at commit time.
    pub committed: HeldCounter,
    /// Queued entries skipped at commit because the frame no longer held
    /// the recorded page (eviction/invalidation raced the delayed commit).
    pub stale_skipped: HeldCounter,
    /// Queued admissions dropped at commit because their frame was
    /// invalidated after they were queued.
    pub stale_admissions: HeldCounter,
    /// Commit rounds (batches) executed.
    pub batches: HeldCounter,
}

/// A replacement policy wrapped with the paper's batching technique.
/// Clone an [`AccessHandle`] per worker thread via
/// [`BpWrapper::handle`].
pub struct BpWrapper<P: ReplacementPolicy> {
    lock: InstrumentedLock<P>,
    config: WrapperConfig,
    counters: WrapperCounters,
    /// Per-frame admission generation: [`invalidate`](Self::invalidate)
    /// bumps it under the lock, each queued admission carries the value
    /// it was queued under, and a commit admits only if the two agree —
    /// so an admission queued before its frame was invalidated (and
    /// perhaps reused) is dropped instead of binding a page the pool no
    /// longer holds there.
    admit_gens: Box<[AtomicU32]>,
}

impl<P: ReplacementPolicy> BpWrapper<P> {
    /// Wrap `policy` with the given configuration.
    pub fn new(policy: P, config: WrapperConfig) -> Self {
        config.validate();
        let admit_gens = (0..policy.frames()).map(|_| AtomicU32::new(0)).collect();
        BpWrapper {
            lock: InstrumentedLock::new(policy),
            config,
            counters: WrapperCounters::default(),
            admit_gens,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> WrapperConfig {
        self.config
    }

    /// Lock statistics (acquisitions, contentions, hold/wait time).
    pub fn lock_stats(&self) -> &LockStats {
        self.lock.stats()
    }

    /// Wrapper counters (accesses, commits, stale skips).
    pub fn counters(&self) -> &WrapperCounters {
        &self.counters
    }

    /// Create a per-thread access handle with its own private FIFO queue.
    pub fn handle(&self) -> AccessHandle<'_, P> {
        AccessHandle::new(self)
    }

    /// Like [`handle`](Self::handle) but owning an `Arc` to the wrapper,
    /// for threads that outlive a borrow scope.
    pub fn handle_arc(self: &Arc<Self>) -> ArcAccessHandle<P> {
        AccessHandle::new(Arc::clone(self))
    }

    /// The paper's contention metric: blocked lock acquisitions per
    /// million recorded page accesses.
    pub fn contentions_per_million(&self) -> f64 {
        self.lock
            .stats()
            .contentions_per_million(self.counters.accesses.get())
    }

    /// Run `f` with the policy locked (for inspection, warm-up). Counts
    /// as an ordinary acquisition.
    pub fn with_locked<R>(&self, f: impl FnOnce(&mut P) -> R) -> R {
        let mut guard = self.lock.lock();
        f(&mut guard)
    }

    /// Forget `frame` (the pool dropped or repaired its page), and make
    /// any admission into it still queued somewhere stale. Returns the
    /// page the policy held there, if any.
    pub fn invalidate(&self, frame: FrameId) -> Option<PageId> {
        let mut guard = self.lock.lock();
        self.admit_gens[frame as usize].fetch_add(1, Ordering::Relaxed);
        guard.remove(frame)
    }

    /// One critical section's commit: apply this thread's queue, then
    /// reset it (`Tail = 0`).
    fn commit_locked(&self, guard: &mut LockGuard<'_, P>, queue: &mut AccessQueue) {
        self.apply_batch(guard, queue.entries());
        queue.clear();
    }

    /// The commit loop: apply one batch of recorded accesses in order. A
    /// hit is skipped when its frame no longer holds the recorded page;
    /// an admission when its frame is tracked already or was invalidated
    /// since it was queued.
    fn apply_batch(&self, guard: &mut LockGuard<'_, P>, entries: &[AccessEntry]) {
        let n = entries.len() as u64;
        let (mut applied, mut stale_admissions) = (0u64, 0u64);
        // The `dst_mutation = "commit_reorder"` mutant applies a
        // multi-entry batch's last entry first: the program-order bug
        // the dst commit-order checker must catch.
        #[cfg(dst_mutation = "commit_reorder")]
        let rotated = {
            let mut v = entries.to_vec();
            v.rotate_right(entries.len().min(1));
            v
        };
        #[cfg(dst_mutation = "commit_reorder")]
        let entries = &rotated[..];
        for entry in entries {
            let (page, frame) = (entry.page, entry.frame);
            if entry.is_admission() {
                // The `dst_mutation = "stale_admit"` mutant trusts an
                // untracked frame without the generation check: an
                // admission queued before its frame was invalidated then
                // binds a page the pool no longer holds there, which the
                // dst policy-agrees-with-pool check must catch.
                let current = cfg!(dst_mutation = "stale_admit")
                    || entry.admission_is_current(
                        self.admit_gens[frame as usize].load(Ordering::Relaxed),
                    );
                let fresh = current && guard.page_at(frame).is_none();
                if fresh {
                    guard.record_miss(page, Some(frame), &mut |_| true);
                    applied += 1;
                } else {
                    stale_admissions += 1;
                }
                bpw_dst::record(|| bpw_dst::Op::MissApply {
                    page,
                    free: Some(frame),
                    frame: fresh.then_some(frame),
                    victim: None,
                });
                continue;
            }
            let hit = guard.page_at(frame) == Some(page);
            if hit {
                guard.record_hit(frame);
                applied += 1;
            }
            bpw_dst::record(|| bpw_dst::Op::CommitHit {
                page,
                frame,
                applied: hit,
            });
        }
        guard.cover_accesses(n);
        self.counters.committed.add(applied);
        self.counters
            .stale_skipped
            .add(n - applied - stale_admissions);
        self.counters.stale_admissions.add(stale_admissions);
        self.counters.batches.incr();
    }
}

/// A thread's private interface to a [`BpWrapper`]: records hits into the
/// thread's FIFO queue and commits them in batches per the paper's
/// pseudo-code. `W` is how the handle holds the wrapper: a borrow
/// ([`BpWrapper::handle`]) or an `Arc` ([`BpWrapper::handle_arc`]).
pub struct AccessHandle<
    'w,
    P: ReplacementPolicy,
    W: Deref<Target = BpWrapper<P>> = &'w BpWrapper<P>,
> {
    wrapper: W,
    queue: AccessQueue,
    /// `'w` and `P` reach the fields only through `W`.
    _holds: PhantomData<fn() -> (&'w (), P)>,
}

/// An [`AccessHandle`] that owns an `Arc` to the wrapper, so it can move
/// into long-lived threads or self-contained drivers.
pub type ArcAccessHandle<P> = AccessHandle<'static, P, Arc<BpWrapper<P>>>;

impl<'w, P: ReplacementPolicy, W: Deref<Target = BpWrapper<P>>> AccessHandle<'w, P, W> {
    fn new(wrapper: W) -> Self {
        AccessHandle {
            queue: AccessQueue::new(wrapper.config.queue_size),
            wrapper,
            _holds: PhantomData,
        }
    }

    /// Record a buffer **hit** on `page` residing in `frame`
    /// (`replacement_for_page_hit` in the paper).
    pub fn record_hit(&mut self, page: PageId, frame: FrameId) {
        bpw_dst::yield_point();
        self.wrapper.counters.accesses.incr();
        self.queue.push(AccessEntry::hit(page, frame));
        bpw_dst::record(|| bpw_dst::Op::RecordHit { page, frame });
        self.commit_at_threshold();
    }

    /// Record that `page` was read into `frame`, a frame no policy
    /// tracks — one this thread evicted ahead
    /// ([`record_miss_ahead`](Self::record_miss_ahead)) or one freed by
    /// invalidation. The admission is one access, queued and committed
    /// like a hit, so it takes no lock of its own; it commits as
    /// `record_miss(page, Some(frame), ..)` unless the frame was
    /// [invalidated](BpWrapper::invalidate) meanwhile.
    pub fn record_admit(&mut self, page: PageId, frame: FrameId) {
        bpw_dst::yield_point();
        self.wrapper.counters.accesses.incr();
        self.record_readmit(page, frame);
    }

    /// [`record_admit`](Self::record_admit) for an admission that is not
    /// an access of its own, so `accesses` does not count it: a frame
    /// that [`record_miss_ahead`](Self::record_miss_ahead) took goes back
    /// to its page, or the miss it served moves into another of them.
    pub fn record_readmit(&mut self, page: PageId, frame: FrameId) {
        let w = &*self.wrapper;
        let generation = w.admit_gens[frame as usize].load(Ordering::Relaxed);
        self.queue.push(AccessEntry::admit(page, frame, generation));
        self.commit_at_threshold();
    }

    /// The paper's threshold logic, run after every recorded access.
    fn commit_at_threshold(&mut self) {
        let w = &*self.wrapper;
        if self.queue.len() < w.config.batch_threshold {
            return;
        }
        let acquired = if w.config.batching() {
            w.lock.try_lock()
        } else {
            // S = 1, the lock-per-access baseline: a blocking Lock()
            // every time.
            Some(w.lock.lock())
        };
        match acquired {
            Some(mut guard) => w.commit_locked(&mut guard, &mut self.queue),
            // TryLock() failed on a full queue: block in Lock().
            None if self.queue.is_full() => {
                let mut guard = w.lock.lock();
                w.commit_locked(&mut guard, &mut self.queue);
            }
            // Otherwise keep accumulating; try again at the next
            // threshold crossing (i.e. the next access).
            None => {}
        }
    }

    /// Record a buffer **miss** on `page`
    /// (`replacement_for_page_miss`): takes the lock, commits any queued
    /// accesses first (preserving this thread's access order), then runs
    /// the policy's miss path.
    pub fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        self.miss(page, free, evictable, None)
    }

    /// [`record_miss`](Self::record_miss) with no free frame, evicting
    /// ahead of need: under the same acquisition, after the miss has
    /// its victim, evict up to `k − 1` more
    /// ([`WrapperConfig::evict_batch`]) into `ahead` as `(frame, page)`
    /// pairs. Their frames are the caller's to fill through
    /// [`record_admit`](Self::record_admit). Eviction ahead stops once
    /// the policy tracks half its frames or fewer, so the frames parked
    /// this way can never starve another miss of a victim in a small
    /// pool.
    pub fn record_miss_ahead(
        &mut self,
        page: PageId,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        ahead: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome {
        self.miss(page, None, evictable, Some(ahead))
    }

    fn miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        ahead: Option<&mut Vec<(FrameId, PageId)>>,
    ) -> MissOutcome {
        let w = &*self.wrapper;
        bpw_dst::yield_point();
        w.counters.accesses.incr();
        let mut guard = w.lock.lock();
        w.commit_locked(&mut guard, &mut self.queue);
        let out = guard.record_miss(page, free, evictable);
        bpw_dst::record(|| bpw_dst::Op::MissApply {
            page,
            free,
            frame: out.frame(),
            victim: out.victim(),
        });
        guard.cover_accesses(1);
        let Some(ahead) = ahead.filter(|_| out.frame().is_some()) else {
            return out;
        };
        for _ in 1..w.config.evict_batch() {
            if guard.resident_count() * 2 <= guard.frames() {
                break;
            }
            let Some((frame, victim)) = guard.evict(evictable) else {
                break;
            };
            bpw_dst::record(|| bpw_dst::Op::EvictAhead { frame, victim });
            ahead.push((frame, victim));
        }
        out
    }

    /// Force-commit any queued accesses (blocking). Call when a thread
    /// finishes its work so no history is lost.
    pub fn flush(&mut self) {
        if self.queue.is_empty() {
            return;
        }
        let w = &*self.wrapper;
        let mut guard = w.lock.lock();
        w.commit_locked(&mut guard, &mut self.queue);
    }

    /// Number of accesses currently waiting in this thread's queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The wrapper this handle feeds, as the handle holds it.
    pub fn wrapper(&self) -> &W {
        &self.wrapper
    }
}

/// A handle replays through [`CacheSim`](bpw_replacement::CacheSim) like
/// a bare policy. For a single thread the committed operation sequence is
/// *identical* to the bare policy's, because queued hits are applied, in
/// order, before any miss decision: the paper's "our techniques do not
/// hurt hit ratios" (§IV-F, Fig. 8), exactly.
impl<'w, P: ReplacementPolicy, W: Deref<Target = BpWrapper<P>>> Recorder
    for AccessHandle<'w, P, W>
{
    fn capacity(&self) -> usize {
        self.wrapper.admit_gens.len()
    }

    fn hit(&mut self, page: PageId, frame: FrameId) {
        self.record_hit(page, frame);
    }

    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome {
        self.record_miss(page, free, &mut |_| true)
    }
}

impl<'w, P: ReplacementPolicy, W: Deref<Target = BpWrapper<P>>> Drop for AccessHandle<'w, P, W> {
    fn drop(&mut self) {
        // Never lose recorded history: commit leftovers on teardown.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_replacement::{CacheSim, Lru, PolicyKind};

    /// Pre-warm a policy: pages 0..n bound to frames 0..n.
    fn warmed(n: usize, cfg: WrapperConfig) -> BpWrapper<Lru> {
        let w = BpWrapper::new(Lru::new(n), cfg);
        w.with_locked(|p| {
            for i in 0..n as u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        w
    }

    #[test]
    fn hits_are_deferred_until_threshold() {
        let w = warmed(
            8,
            WrapperConfig::default()
                .with_queue_size(8)
                .with_batch_threshold(4),
        );
        let mut h = w.handle();
        let base = w.lock_stats().snapshot().acquisitions; // warmup acq
        h.record_hit(0, 0);
        h.record_hit(1, 1);
        h.record_hit(2, 2);
        assert_eq!(h.queued(), 3);
        assert_eq!(
            w.lock_stats().snapshot().acquisitions,
            base,
            "no lock before threshold"
        );
        h.record_hit(3, 3); // threshold: commit
        assert_eq!(h.queued(), 0);
        assert_eq!(w.lock_stats().snapshot().acquisitions, base + 1);
        assert_eq!(w.counters().committed.get(), 4);
    }

    #[test]
    fn commit_preserves_access_order() {
        // After commit, LRU order must reflect the recorded hit order.
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(4),
        );
        let mut h = w.handle();
        // Hit order: 2, 0, 3, 1 -> LRU eviction order 0-frames: 2 oldest hit... order of hits applied: 2,0,3,1 so LRU stack MRU..LRU = 1,3,0,2
        for (page, frame) in [(2u64, 2u32), (0, 0), (3, 3), (1, 1)] {
            h.record_hit(page, frame);
        }
        w.with_locked(|p| {
            assert_eq!(p.eviction_order(), vec![2, 0, 3, 1]);
        });
    }

    #[test]
    fn miss_drains_queue_first() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(8)
                .with_batch_threshold(8),
        );
        let mut h = w.handle();
        h.record_hit(0, 0); // 0 becomes MRU once committed
                            // Miss must commit the hit *before* evicting, so victim is 1 not 0.
        let out = h.record_miss(99, None, &mut |_| true);
        assert_eq!(out.victim(), Some(1));
        assert_eq!(h.queued(), 0);
    }

    #[test]
    fn stale_entries_skipped() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(8)
                .with_batch_threshold(8),
        );
        let mut h = w.handle();
        h.record_hit(0, 0);
        // Invalidate page 0 out from under the queued entry.
        w.with_locked(|p| {
            p.remove(0);
        });
        h.flush();
        assert_eq!(w.counters().stale_skipped.get(), 1);
        assert_eq!(w.counters().committed.get(), 0);
    }

    /// Pages 0..3 in frames 0..3 of a 4-frame LRU; frame 3 untracked.
    fn three_of_four(cfg: WrapperConfig) -> BpWrapper<Lru> {
        let w = BpWrapper::new(Lru::new(4), cfg);
        w.with_locked(|p| {
            for i in 0..3u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        w
    }

    #[test]
    fn admit_then_hit_in_one_fifo_commits_in_that_order() {
        let w = three_of_four(
            WrapperConfig::default()
                .with_queue_size(8)
                .with_batch_threshold(8),
        );
        let base = w.lock_stats().snapshot().acquisitions;
        let mut h = w.handle();
        h.record_admit(30, 3);
        h.record_hit(30, 3); // stale unless the admission lands first
        h.record_hit(0, 0);
        assert_eq!(h.queued(), 3);
        assert_eq!(
            w.lock_stats().snapshot().acquisitions,
            base,
            "queued, not locked"
        );
        h.flush();
        assert_eq!(w.counters().accesses.get(), 3, "an admission is one access");
        assert_eq!(w.counters().committed.get(), 3);
        assert_eq!(w.counters().stale_skipped.get(), 0);
        w.with_locked(|p| {
            assert_eq!(p.page_at(3), Some(30));
            assert_eq!(p.eviction_order(), vec![1, 2, 3, 0]);
        });
    }

    #[test]
    fn admit_queued_before_invalidate_is_stale_and_the_reused_frame_binds_anew() {
        let cfg = WrapperConfig::default()
            .with_queue_size(8)
            .with_batch_threshold(8);
        let w = three_of_four(cfg);
        let mut a = w.handle();
        a.record_admit(30, 3);
        // The pool drops page 30 before the admission commits, and
        // another thread reuses the frame for page 40.
        assert_eq!(w.invalidate(3), None, "not yet tracked");
        let mut b = w.handle();
        b.record_admit(40, 3);
        a.flush();
        assert_eq!(w.counters().stale_admissions.get(), 1);
        assert_eq!(w.with_locked(|p| p.page_at(3)), None);
        b.flush();
        assert_eq!(w.counters().stale_admissions.get(), 1);
        assert_eq!(w.with_locked(|p| p.page_at(3)), Some(40));
        w.with_locked(|p| p.check_invariants());
    }

    #[test]
    fn miss_ahead_evicts_k_victims_under_one_acquisition() {
        let w = warmed(16, WrapperConfig::default()); // k = 8
        let base = w.lock_stats().snapshot().acquisitions;
        let mut h = w.handle();
        let mut ahead = Vec::new();
        let out = h.record_miss_ahead(100, &mut |_| true, &mut ahead);
        assert_eq!(out.victim(), Some(0));
        let victims: Vec<PageId> = ahead.iter().map(|&(_, v)| v).collect();
        assert_eq!(
            victims,
            [1, 2, 3, 4, 5, 6, 7],
            "in the order misses would evict"
        );
        assert_eq!(w.lock_stats().snapshot().acquisitions, base + 1);
        for &(frame, _) in &ahead {
            h.record_admit(200 + u64::from(frame), frame);
        }
        assert_eq!(w.lock_stats().snapshot().acquisitions, base + 1);
        h.flush();
        w.with_locked(|p| {
            assert_eq!(p.resident_count(), 16);
            p.check_invariants();
        });
    }

    #[test]
    fn lock_per_access_config_locks_every_hit() {
        // S = 1 takes the lock once per hit, S >= 2 does not.
        for cfg in [WrapperConfig::lock_per_access(), WrapperConfig::default()] {
            let w = warmed(4, cfg);
            let base = w.lock_stats().snapshot().acquisitions;
            let mut h = w.handle();
            for i in 0..10u64 {
                h.record_hit(i % 4, (i % 4) as u32);
                let locked = w.lock_stats().snapshot().acquisitions - base;
                if cfg.queue_size == 1 {
                    assert_eq!(h.queued(), 0, "{cfg:?}: committed before returning");
                    assert_eq!(locked, i + 1, "{cfg:?}");
                } else {
                    assert_eq!(locked, 0, "{cfg:?}: below the threshold");
                }
            }
            assert_eq!(w.lock_stats().snapshot().trylock_failures, 0, "{cfg:?}");
        }
    }

    #[test]
    fn handle_drop_flushes() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(16)
                .with_batch_threshold(16),
        );
        {
            let mut h = w.handle();
            h.record_hit(0, 0);
            h.record_hit(1, 1);
        } // dropped with 2 queued
        assert_eq!(w.counters().committed.get(), 2);
    }

    #[test]
    fn trylock_failure_defers_commit() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(8)
                .with_batch_threshold(2),
        );
        let held = w.lock.lock(); // block the lock externally
        let mut h = w.handle();
        h.record_hit(0, 0);
        h.record_hit(1, 1); // threshold: TryLock fails, queue not full -> defer
        assert_eq!(h.queued(), 2);
        assert!(w.lock_stats().snapshot().trylock_failures >= 1);
        drop(held);
        h.record_hit(2, 2); // past threshold again: TryLock succeeds now
        assert_eq!(h.queued(), 0);
    }

    #[test]
    fn full_queue_forces_blocking_lock() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(3)
                .with_batch_threshold(2),
        );
        let held = w.lock.lock();
        let mut h = w.handle();
        let flusher = std::thread::scope(|s| {
            h.record_hit(0, 0);
            h.record_hit(1, 1); // trylock fails, defer
            assert_eq!(h.queued(), 2);
            // Third hit fills the queue: must block until lock released.
            let t = s.spawn(move || {
                let mut h = h;
                h.record_hit(2, 2);
                h.queued()
            });
            // The spawned hit try-locks at the threshold, fails (we
            // hold the lock), and falls through to a blocking Lock().
            // Wait for that observable failure — the second recorded
            // one — rather than sleeping a fixed interval.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while w.lock_stats().snapshot().trylock_failures < 2 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "spawned hit never attempted the lock"
                );
                std::thread::yield_now();
            }
            drop(held);
            t.join().unwrap()
        });
        assert_eq!(flusher, 0, "queue must be committed after blocking lock");
    }

    #[test]
    fn concurrent_hits_all_accounted() {
        let w = warmed(64, WrapperConfig::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let w = &w;
                s.spawn(move || {
                    let mut h = w.handle();
                    for i in 0..10_000u64 {
                        let page = (t * 16 + i % 16) % 64;
                        h.record_hit(page, page as u32);
                    }
                });
            }
        });
        assert_eq!(w.counters().accesses.get(), 40_000);
        assert_eq!(
            w.counters().committed.get() + w.counters().stale_skipped.get(),
            40_000,
            "every recorded access must be committed or skipped"
        );
        w.with_locked(|p| p.check_invariants());
    }

    /// A skewed synthetic trace mixing a hot set with cold churn.
    fn mixed_trace(len: usize) -> Vec<PageId> {
        (0..len as u64)
            .map(|i| {
                if i % 3 == 0 {
                    1000 + (i * 7919) % 500 // cold-ish
                } else {
                    i % 24 // hot set
                }
            })
            .collect()
    }

    #[test]
    fn single_thread_equivalence_all_policies() {
        // The headline correctness property: with one thread, a
        // BP-wrapped policy makes byte-identical decisions to the bare
        // policy — batching only changes *when* bookkeeping runs, never
        // its order relative to miss decisions.
        let trace = mixed_trace(4000);
        for kind in PolicyKind::ALL {
            let w = BpWrapper::new(kind.build(32), WrapperConfig::default());
            let mut bare = CacheSim::new(kind.build(32));
            let mut wrapped = CacheSim::new(w.handle());
            for &p in &trace {
                let a = bare.access(p);
                let b = wrapped.access(p);
                assert_eq!(a, b, "{kind}: hit/miss diverged on page {p}");
            }
            assert_eq!(bare.stats(), wrapped.stats(), "{kind}");
        }
    }

    #[test]
    fn equivalence_holds_for_every_queue_size() {
        let trace = mixed_trace(2000);
        for s in [1usize, 2, 3, 7, 16, 64, 128] {
            let cfg = WrapperConfig {
                queue_size: s,
                batch_threshold: (s / 2).max(1),
            };
            let w = BpWrapper::new(PolicyKind::TwoQ.build(16), cfg);
            let mut bare = CacheSim::new(PolicyKind::TwoQ.build(16));
            let mut wrapped = CacheSim::new(w.handle());
            let a = bare.run(trace.iter().copied());
            let b = wrapped.run(trace.iter().copied());
            assert_eq!(a, b, "queue size {s}");
        }
    }

    #[test]
    fn batching_reduces_lock_acquisitions() {
        let trace: Vec<PageId> = (0..10_000u64).map(|i| i % 16).collect();
        let w = BpWrapper::new(PolicyKind::Lirs.build(16), WrapperConfig::default());
        let mut wrapped = CacheSim::new(w.handle());
        wrapped.run(trace.iter().copied());
        wrapped.policy_mut().flush();
        let acq = w.lock_stats().snapshot().acquisitions;
        // ~10k hit accesses in batches of >= 32: far fewer than 10k locks.
        assert!(
            acq < 500,
            "expected batched commits, got {acq} acquisitions"
        );
        let w = BpWrapper::new(PolicyKind::Lirs.build(16), WrapperConfig::lock_per_access());
        CacheSim::new(w.handle()).run(trace.iter().copied());
        let acq2 = w.lock_stats().snapshot().acquisitions;
        assert!(
            acq2 >= 10_000,
            "lock-per-access must lock every hit, got {acq2}"
        );
    }

    #[test]
    fn no_accesses_lost() {
        let w = BpWrapper::new(PolicyKind::Mq.build(8), WrapperConfig::default());
        let mut wrapped = CacheSim::new(w.handle());
        let snap = wrapped.run((0..1000u64).map(|i| i % 12));
        wrapped.policy_mut().flush();
        let c = w.counters();
        assert_eq!(c.accesses.get(), 1000);
        // hits committed (none stale in single-thread use) + misses
        assert_eq!(c.committed.get(), snap.hits);
        assert_eq!(c.stale_skipped.get(), 0);
    }
}
