//! The BP-Wrapper framework (paper §III, Fig. 4): batching + prefetching
//! around an *unmodified* replacement policy.
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

use bpw_metrics::{Counter, Gauge, LockStats, StripedCounter};
use bpw_replacement::{FrameId, MissOutcome, PageId, ReplacementPolicy};

use crate::combining::{PublicationBoard, SlotId};
use crate::config::{Combining, WrapperConfig};
use crate::lock::{InstrumentedLock, LockGuard};
use crate::prefetch::Prefetcher;
use crate::queue::{AccessEntry, AccessQueue};

/// Publication slots a combining-enabled wrapper provides; handles
/// beyond this many concurrent threads fall back to blocking commits.
const COMBINING_SLOTS: usize = 64;

/// Fairness bound: at most this many drain passes per critical section.
/// A combiner drains whatever is pending, and gives fresh publications
/// arriving *while it drains* one more chance — then it must release
/// the lock, or a steady stream of publishers could pin one thread in
/// the critical section indefinitely (combiner starvation). The
/// `dst_mutation = "fairness"` mutant removes the bound; the dst
/// fairness checker must catch the unbounded tenure.
pub const MAX_COMBINE_PASSES: u32 = 2;

/// A point-in-time copy of the combining counters, for STATS/METRICS.
#[derive(Debug, Clone, Copy, Default)]
pub struct CombiningSnapshot {
    /// Configured combining mode.
    pub mode: Combining,
    /// Batches published instead of blocking (or waiting) on the lock.
    pub published: u64,
    /// Publish attempts that failed (slot busy or none) and fell back
    /// to accumulating or blocking.
    pub publish_fallbacks: u64,
    /// Published batches reclaimed by their own thread before newer
    /// accesses were committed.
    pub reclaimed: u64,
    /// Other threads' batches applied by lock holders.
    pub combined_batches: u64,
    /// Entries inside those combined batches.
    pub combined_entries: u64,
    /// Drain passes executed across all critical sections.
    pub combine_passes: u64,
    /// Batches drained in the most recent combining critical section.
    pub combine_depth_last: u64,
    /// Most batches ever drained in one critical section.
    pub combine_depth_peak: u64,
}

/// Counters specific to the wrapper (beyond the lock statistics).
#[derive(Debug, Default)]
pub struct WrapperCounters {
    /// Page accesses recorded through any handle (hits + misses).
    /// Striped: this is the one wrapper counter bumped per access rather
    /// than per batch, and a hit must not write a line other threads
    /// write.
    pub accesses: StripedCounter,
    /// Queued entries applied to the policy at commit time.
    pub committed: Counter,
    /// Queued entries skipped at commit because the frame no longer held
    /// the recorded page (eviction/invalidation raced the delayed commit).
    pub stale_skipped: Counter,
    /// Queued admissions dropped at commit because their frame was
    /// invalidated after they were queued. Striped like `accesses`: the
    /// commit that counts one may run on any thread.
    pub stale_admissions: StripedCounter,
    /// Commit rounds (batches) executed.
    pub batches: Counter,
    /// Contended commits turned into publications instead of blocking
    /// (or deferred) `Lock()` calls (combining only).
    pub published: Counter,
    /// Publish attempts that found the slot occupied or both buffers in
    /// flight and fell back to accumulating/blocking (combining only).
    pub publish_fallbacks: Counter,
    /// Published batches a thread took back and applied itself before
    /// committing newer accesses (order preservation; combining only).
    pub reclaimed: Counter,
    /// Other threads' published batches applied while holding the lock
    /// (combining only).
    pub combined_batches: Counter,
    /// Entries inside those combined batches (combining only).
    pub combined_entries: Counter,
    /// Drain passes executed by combining critical sections (at most
    /// [`MAX_COMBINE_PASSES`] each; combining only).
    pub combine_passes: Counter,
    /// Batches drained per combining critical section: last observed
    /// value and all-time peak (combining only).
    pub combine_depth: Gauge,
}

/// A replacement policy wrapped with the paper's batching and prefetching
/// techniques. Clone an [`AccessHandle`] per worker thread via
/// [`BpWrapper::handle`].
pub struct BpWrapper<P: ReplacementPolicy> {
    lock: InstrumentedLock<P>,
    config: WrapperConfig,
    prefetcher: Prefetcher,
    counters: WrapperCounters,
    board: Option<PublicationBoard>,
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
        let region = policy.node_region();
        // A policy that is its own header moves with the wrapper, so its
        // address is taken at each commit; one behind a pointer (a boxed
        // policy) reports the heap struct, which stays put.
        let (header, header_len) = policy.header_span();
        let behind_pointer = header != &policy as *const P as usize;
        let admit_gens = (0..policy.frames()).map(|_| AtomicU32::new(0)).collect();
        let lock = InstrumentedLock::new(policy, Arc::new(LockStats::new()));
        let prefetcher = if config.prefetching {
            Prefetcher::new(
                std::mem::size_of::<P>(),
                behind_pointer.then_some((header, header_len)),
                region,
            )
        } else {
            Prefetcher::disabled()
        };
        BpWrapper {
            lock,
            config,
            prefetcher,
            counters: WrapperCounters::default(),
            board: config
                .combining
                .is_enabled()
                .then(|| PublicationBoard::new(COMBINING_SLOTS, config.queue_size)),
            admit_gens,
        }
    }

    /// Wrap with the paper's default configuration (S=64, T=32, both
    /// techniques on).
    pub fn with_defaults(policy: P) -> Self {
        Self::new(policy, WrapperConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> WrapperConfig {
        self.config
    }

    /// Lock statistics (acquisitions, contentions, hold/wait time).
    pub fn lock_stats(&self) -> &Arc<LockStats> {
        self.lock.stats()
    }

    /// Wrapper counters (accesses, commits, stale skips).
    pub fn counters(&self) -> &WrapperCounters {
        &self.counters
    }

    /// Snapshot of the combining-commit counters (all zero with
    /// combining off).
    pub fn combining_snapshot(&self) -> CombiningSnapshot {
        CombiningSnapshot {
            mode: self.config.combining,
            published: self.counters.published.get(),
            publish_fallbacks: self.counters.publish_fallbacks.get(),
            reclaimed: self.counters.reclaimed.get(),
            combined_batches: self.counters.combined_batches.get(),
            combined_entries: self.counters.combined_entries.get(),
            combine_passes: self.counters.combine_passes.get(),
            combine_depth_last: self.counters.combine_depth.get(),
            combine_depth_peak: self.counters.combine_depth.peak(),
        }
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

    /// Warm the lock and the policy for a commit of `entries`.
    #[inline]
    fn prefetch(&self, entries: &[AccessEntry]) {
        self.prefetcher
            .prefetch_for_commit(self.lock.data_addr(), entries);
    }

    /// Drain every published-but-undrained batch off the publication
    /// board **without applying it** and return the entries. This is
    /// the manager hot-swap retirement path: when this wrapper is being
    /// replaced, handles abandon their slots (see
    /// [`AccessHandle::take_for_swap`]) and the swap coordinator moves
    /// the stranded advice into the successor manager. Returns an empty
    /// vec when combining is off.
    pub fn drain_published(&self) -> Vec<AccessEntry> {
        let Some(board) = self.board.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        loop {
            let drained = board.drain_pass(None, |batch| out.extend_from_slice(batch));
            if drained == 0 {
                break;
            }
        }
        out
    }

    /// Combining publish path: hand the queue's storage to this handle's
    /// publication slot instead of blocking. Returns `true` when the
    /// batch was published (the queue is then empty, backed by the
    /// slot's recycled buffer — an O(1) pointer swap, no allocation and
    /// no entry copies). Fails — leaving the queue untouched — when
    /// combining is off, the handle has no slot, or the slot still
    /// holds an older undrained batch: publishing over it would let the
    /// combiner apply batches of one thread out of order.
    fn try_publish(&self, queue: &mut AccessQueue, slot: Option<SlotId>) -> bool {
        let (Some(board), Some(slot)) = (self.board.as_ref(), slot) else {
            return false;
        };
        let len = queue.len() as u32;
        if board.publish(slot, queue.storage_mut()) {
            self.counters.published.incr();
            bpw_dst::record(|| bpw_dst::Op::PublishBatch { len });
            true
        } else {
            self.counters.publish_fallbacks.incr();
            false
        }
    }

    /// Hold the policy lock directly (tests: simulate a busy lock).
    #[cfg(test)]
    pub(crate) fn lock_for_test(&self) -> LockGuard<'_, P> {
        self.lock.lock()
    }

    /// One critical section's worth of commit work: first this thread's
    /// pending published batch (older accesses must land before newer
    /// ones), then its queue, then — combining only — every other
    /// thread's published batch.
    fn commit_locked(
        &self,
        guard: &mut LockGuard<'_, P>,
        queue: &mut AccessQueue,
        slot: Option<SlotId>,
    ) {
        // Reclaim-before-commit (§III-A): this thread's published batch
        // holds *older* accesses than its queue, so it must be applied
        // first or the thread's program order is reordered. The
        // `dst_mutation = "combining"` mutant defers the reclaimed batch
        // until after the queue commit — exactly the ordering bug the
        // dst commit-order checker must catch.
        #[cfg(dst_mutation = "combining")]
        let mut deferred: Option<crate::combining::TakenBatch<'_>> = None;
        if let (Some(board), Some(slot)) = (self.board.as_ref(), slot) {
            if let Some(batch) = board.take(slot) {
                self.counters.reclaimed.incr();
                bpw_dst::record(|| bpw_dst::Op::ReclaimBatch {
                    len: batch.len() as u32,
                });
                #[cfg(not(dst_mutation = "combining"))]
                self.apply_batch(guard, &batch);
                #[cfg(dst_mutation = "combining")]
                {
                    deferred = Some(batch);
                }
            }
        }
        self.apply_batch(guard, queue.entries());
        queue.clear();
        #[cfg(dst_mutation = "combining")]
        if let Some(batch) = deferred {
            self.apply_batch(guard, &batch);
        }
        if let Some(board) = self.board.as_ref() {
            self.combine_published(guard, board, slot);
        }
    }

    /// The commit loop: apply one batch of recorded accesses — a
    /// thread's own queue or a published batch — in order. A hit is
    /// skipped when its frame no longer holds the recorded page; an
    /// admission when its frame is tracked already or was invalidated
    /// since it was queued.
    fn apply_batch(&self, guard: &mut LockGuard<'_, P>, entries: &[AccessEntry]) {
        let n = entries.len() as u64;
        let span = bpw_trace::span_start();
        let (mut applied, mut stale_admissions) = (0u64, 0u64);
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
        if stale_admissions > 0 {
            self.counters.stale_admissions.add(stale_admissions);
        }
        self.counters.batches.incr();
        // Staged: the commit's duration is also credited to the calling
        // thread's batch-commit stage scratch, so the server can
        // attribute it to the owning request.
        bpw_trace::span_end_staged(bpw_trace::EventKind::BatchCommit, span, n);
    }

    /// Drain other threads' published batches while we hold the lock —
    /// the combining side of flat combining. Runs repeated passes so
    /// publications that land *while* we drain are also retired, but at
    /// most [`MAX_COMBINE_PASSES`] of them: an unbounded loop would let
    /// a steady publisher stream pin this thread in the critical
    /// section (the `dst_mutation = "fairness"` mutant does exactly
    /// that, and the dst fairness checker must flag it).
    fn combine_published(
        &self,
        guard: &mut LockGuard<'_, P>,
        board: &PublicationBoard,
        own: Option<SlotId>,
    ) {
        let span = bpw_trace::span_start();
        let mut entries = 0u64;
        let mut batches = 0u64;
        let mut passes = 0u32;
        loop {
            let drained = board.drain_pass(own, |batch| {
                entries += batch.len() as u64;
                batches += 1;
                bpw_dst::record(|| bpw_dst::Op::CombineBatch {
                    len: batch.len() as u32,
                });
                self.apply_batch(guard, batch);
            });
            if drained == 0 {
                break;
            }
            passes += 1;
            #[cfg(not(dst_mutation = "fairness"))]
            if passes >= MAX_COMBINE_PASSES {
                break;
            }
        }
        if batches > 0 {
            self.counters.combined_batches.add(batches);
            self.counters.combined_entries.add(entries);
            self.counters.combine_passes.add(passes as u64);
            self.counters.combine_depth.observe(batches);
            bpw_dst::record(|| bpw_dst::Op::CombineDrain {
                passes,
                batches: batches as u32,
            });
            bpw_trace::span_end(bpw_trace::EventKind::CombinedCommit, span, entries);
        }
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
    slot: Option<SlotId>,
    /// `'w` and `P` reach the fields only through `W`.
    _holds: PhantomData<fn() -> (&'w (), P)>,
}

/// An [`AccessHandle`] that owns an `Arc` to the wrapper, so it can move
/// into long-lived threads or self-contained drivers.
pub type ArcAccessHandle<P> = AccessHandle<'static, P, Arc<BpWrapper<P>>>;

impl<'w, P: ReplacementPolicy, W: Deref<Target = BpWrapper<P>>> AccessHandle<'w, P, W> {
    fn new(wrapper: W) -> Self {
        AccessHandle {
            slot: wrapper.board.as_ref().and_then(PublicationBoard::register),
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
        let w = &*self.wrapper;
        w.counters.accesses.incr();
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
        w.prefetch(self.queue.entries());
        let acquired = if w.config.batching() {
            w.lock.try_lock()
        } else {
            // S = 1, the lock-per-access baseline: a blocking Lock()
            // every time.
            Some(w.lock.lock())
        };
        match acquired {
            Some(mut guard) => w.commit_locked(&mut guard, &mut self.queue, self.slot),
            None => {
                // Flat combining: *any* contended threshold crossing
                // publishes and returns — the lock holder retires the
                // batch. (With combining off there is no board and
                // `try_publish` fails without side effects.)
                if w.try_publish(&mut self.queue, self.slot) {
                    return;
                }
                if self.queue.is_full() {
                    // The paper blocks in Lock() here; flat combining
                    // retries the publication first because the slot
                    // may have been drained since the threshold
                    // attempt.
                    if w.try_publish(&mut self.queue, self.slot) {
                        return;
                    }
                    let mut guard = w.lock.lock();
                    w.commit_locked(&mut guard, &mut self.queue, self.slot);
                }
                // Otherwise: keep accumulating; try again at the next
                // threshold crossing (i.e. the next access).
            }
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
        w.prefetch(self.queue.entries());
        let mut guard = w.lock.lock();
        w.commit_locked(&mut guard, &mut self.queue, self.slot);
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

    /// Force-commit any queued accesses (blocking), and reclaim and
    /// apply this handle's published-but-undrained batch, if any. Call
    /// when a thread finishes its work so no history is lost.
    pub fn flush(&mut self) {
        let w = &*self.wrapper;
        let pending = match (w.board.as_ref(), self.slot) {
            (Some(board), Some(slot)) => board.is_published(slot),
            _ => false,
        };
        if self.queue.is_empty() && !pending {
            return;
        }
        w.prefetch(self.queue.entries());
        let mut guard = w.lock.lock();
        w.commit_locked(&mut guard, &mut self.queue, self.slot);
    }

    /// Number of accesses currently waiting in this thread's queue.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Manager hot-swap: surrender this handle's queued accesses and
    /// abandon its publication slot, *without* committing anything into
    /// the (retiring) wrapper. The returned entries must be re-queued
    /// into the successor via [`AccessHandle::absorb`]; they travel as
    /// hits, so a handle that may be swapped must not leave admissions
    /// queued (a swappable pool commits each one as it records it). Any
    /// batch this handle already published stays on the board — the swap
    /// coordinator retires the whole board with
    /// [`BpWrapper::drain_published`]; touching it here would race that
    /// drain. The leaked slot is harmless: the board retires with the
    /// old manager.
    pub fn take_for_swap(&mut self) -> Vec<(PageId, FrameId)> {
        self.slot = None;
        self.queue.drain().map(|e| (e.page, e.frame)).collect()
    }

    /// Manager hot-swap: quietly adopt accesses recorded against a
    /// predecessor manager: no access counter increment and no
    /// `RecordHit` history op (each entry was recorded exactly once by
    /// its original thread — the eventual commit supplies the matching
    /// `CommitHit`). Flushes whenever the queue fills so arbitrarily
    /// large transfers fit; the rest commits with this wrapper's next
    /// batch.
    pub fn absorb(&mut self, entries: &[(PageId, FrameId)]) {
        for &(page, frame) in entries {
            if self.queue.is_full() {
                self.flush();
            }
            self.queue.push(AccessEntry::hit(page, frame));
        }
    }

    /// The wrapper this handle feeds, as the handle holds it.
    pub fn wrapper(&self) -> &W {
        &self.wrapper
    }
}

impl<'w, P: ReplacementPolicy, W: Deref<Target = BpWrapper<P>>> Drop for AccessHandle<'w, P, W> {
    fn drop(&mut self) {
        // Never lose recorded history: commit leftovers on teardown.
        // Flushing also reclaims any published batch, so the slot is
        // empty by the time it is recycled; `release` returning a batch
        // anyway (a publish raced teardown somehow) is handled by
        // committing the orphan here rather than leaking it to the
        // slot's next owner.
        self.flush();
        let w = &*self.wrapper;
        if let (Some(board), Some(slot)) = (w.board.as_ref(), self.slot.take()) {
            if let Some(orphan) = board.release(slot) {
                let mut guard = w.lock.lock();
                w.apply_batch(&mut guard, &orphan);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_replacement::Lru;

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
    fn a_published_batch_applies_its_admissions_in_program_order() {
        let w = BpWrapper::new(
            Lru::new(4),
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(4)
                .with_combining_mode(Combining::Flat),
        );
        w.with_locked(|p| {
            for i in 0..2u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        let held = w.lock_for_test();
        let mut h = w.handle();
        h.record_admit(20, 2);
        h.record_hit(20, 2);
        h.record_admit(30, 3);
        h.record_hit(0, 0); // threshold, lock busy: publish all four
        assert_eq!(h.queued(), 0);
        assert_eq!(w.counters().published.get(), 1);
        drop(held);
        let mut combiner = w.handle();
        for _ in 0..4 {
            combiner.record_hit(1, 1); // commits, then combines h's batch
        }
        assert_eq!(w.counters().combined_batches.get(), 1);
        assert_eq!(w.counters().committed.get(), 8);
        assert_eq!(w.counters().stale_skipped.get(), 0);
        assert_eq!(w.counters().stale_admissions.get(), 0);
        w.with_locked(|p| {
            assert_eq!((p.page_at(2), p.page_at(3)), (Some(20), Some(30)));
            assert_eq!(p.eviction_order(), vec![1, 2, 3, 0]);
        });
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
    fn prefetcher_warms_a_boxed_policy_where_it_lives() {
        use bpw_replacement::TwoQ;
        let policy: Box<dyn ReplacementPolicy> = Box::new(TwoQ::new(64));
        let inner = &*policy as *const dyn ReplacementPolicy as *const u8 as usize;
        let w = BpWrapper::new(policy, WrapperConfig::default());
        assert_eq!(
            w.prefetcher.header(),
            Some((inner, std::mem::size_of::<TwoQ>().min(256))),
            "the boxed TwoQ, not the fat pointer beside the lock word"
        );
        // A policy held by value is its own header and moves with the
        // wrapper: it is warmed at the lock's address, taken per commit.
        let by_value = BpWrapper::new(TwoQ::new(64), WrapperConfig::default());
        assert_eq!(by_value.prefetcher.header(), None);
    }

    #[test]
    fn lock_per_access_config_locks_every_hit() {
        // For every preset: S = 1 takes the lock once per hit (with or
        // without a publication board), S >= 2 does not.
        for cfg in [
            WrapperConfig::lock_per_access(),
            WrapperConfig::prefetching_only(),
            WrapperConfig::lock_per_access().with_combining(true),
            WrapperConfig::batching_only(),
            WrapperConfig::batching_and_prefetching(),
        ] {
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
    fn combining_publishes_instead_of_blocking() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(2)
                .with_batch_threshold(2)
                .with_combining(true),
        );
        let held = w.lock.lock();
        let base = w.lock_stats().snapshot().acquisitions;
        let mut h = w.handle();
        h.record_hit(0, 0);
        h.record_hit(1, 1); // TryLock fails, queue full: publish, don't block
        assert_eq!(h.queued(), 0, "full queue must be published");
        assert_eq!(w.counters().published.get(), 1);
        assert_eq!(
            w.lock_stats().snapshot().acquisitions,
            base,
            "publishing must not acquire the lock"
        );
        drop(held);
        // The thread's next commit must apply the older published batch
        // before the newer queue, or its access order is corrupted.
        h.record_hit(2, 2);
        h.record_hit(3, 3);
        assert_eq!(w.counters().reclaimed.get(), 1);
        assert_eq!(
            w.counters().committed.get() + w.counters().stale_skipped.get(),
            4
        );
        w.with_locked(|p| assert_eq!(p.eviction_order(), vec![0, 1, 2, 3]));
    }

    #[test]
    fn flat_combining_publishes_at_threshold_not_just_full() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(2)
                .with_combining_mode(Combining::Flat),
        );
        let held = w.lock_for_test();
        let mut h = w.handle();
        h.record_hit(0, 0);
        h.record_hit(1, 1); // threshold crossing, lock busy: publish
        assert_eq!(h.queued(), 0, "flat mode must publish at the threshold");
        assert_eq!(w.counters().published.get(), 1);
        // Next threshold crossing finds the slot still occupied: fall
        // back to accumulating (the queue is not full yet).
        h.record_hit(2, 2);
        h.record_hit(3, 3);
        assert_eq!(h.queued(), 2);
        assert_eq!(w.counters().publish_fallbacks.get(), 1);
        drop(held);
        h.flush();
        // Reclaim-before-commit: the published [0,1] lands before [2,3].
        assert_eq!(w.counters().reclaimed.get(), 1);
        w.with_locked(|p| assert_eq!(p.eviction_order(), vec![0, 1, 2, 3]));
    }

    #[test]
    fn handle_churn_loses_nothing_with_flat_combining() {
        // Register/release cycles under contention: every recorded
        // access must be committed or stale-skipped by the time the
        // handles are gone, regardless of which slot each short-lived
        // handle got.
        let w = warmed(
            64,
            WrapperConfig::default()
                .with_queue_size(8)
                .with_batch_threshold(4)
                .with_combining(true),
        );
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = &w;
                s.spawn(move || {
                    for round in 0..50u64 {
                        let mut h = w.handle();
                        for i in 0..20u64 {
                            let page = (t * 16 + (round + i) % 16) % 64;
                            h.record_hit(page, page as u32);
                        }
                    } // drop: flush + release, every round
                });
            }
        });
        assert_eq!(w.counters().accesses.get(), 4 * 50 * 20);
        assert_eq!(
            w.counters().committed.get() + w.counters().stale_skipped.get(),
            4 * 50 * 20,
            "handle churn lost or duplicated accesses"
        );
        // Slots must all have been recycled: a fresh wave of handles
        // can still publish (i.e. they all got slots with live buffers).
        let held = w.lock_for_test();
        let mut fresh: Vec<_> = (0..8).map(|_| w.handle()).collect();
        let before = w.counters().published.get();
        for (i, h) in fresh.iter_mut().enumerate() {
            for j in 0..4u64 {
                let page = (i as u64 * 4 + j) % 64;
                h.record_hit(page, page as u32);
            }
        }
        assert_eq!(
            w.counters().published.get(),
            before + 8,
            "recycled slots must still publish"
        );
        drop(held);
        drop(fresh);
        w.with_locked(|p| p.check_invariants());
    }

    #[test]
    fn combining_snapshot_reflects_counters() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(2)
                .with_batch_threshold(2)
                .with_combining(true),
        );
        assert_eq!(w.combining_snapshot().mode, Combining::Flat);
        let held = w.lock_for_test();
        let mut publisher = w.handle();
        publisher.record_hit(0, 0);
        publisher.record_hit(1, 1); // published
        drop(held);
        let mut committer = w.handle();
        committer.record_hit(2, 2);
        committer.record_hit(3, 3); // commits, combines the published batch
        let snap = w.combining_snapshot();
        assert_eq!(snap.published, 1);
        assert_eq!(snap.combined_batches, 1);
        assert_eq!(snap.combined_entries, 2);
        assert_eq!(snap.combine_passes, 1);
        assert_eq!(snap.combine_depth_last, 1);
        assert_eq!(snap.combine_depth_peak, 1);
        assert!(snap.combine_passes <= MAX_COMBINE_PASSES as u64 * snap.combined_batches);
    }

    #[test]
    fn combiner_drains_other_threads_batches() {
        let w = warmed(
            4,
            WrapperConfig::default()
                .with_queue_size(2)
                .with_batch_threshold(2)
                .with_combining(true),
        );
        let held = w.lock.lock();
        let mut publisher = w.handle();
        publisher.record_hit(0, 0);
        publisher.record_hit(1, 1); // published
        drop(held);
        let mut committer = w.handle();
        committer.record_hit(2, 2);
        committer.record_hit(3, 3); // commits own queue, then combines
        assert_eq!(w.counters().combined_batches.get(), 1);
        assert_eq!(w.counters().combined_entries.get(), 2);
        assert_eq!(w.counters().committed.get(), 4);
        w.with_locked(|p| assert_eq!(p.eviction_order(), vec![2, 3, 0, 1]));
        // Nothing left for the publisher to reclaim.
        publisher.flush();
        assert_eq!(w.counters().reclaimed.get(), 0);
    }

    #[test]
    fn combining_preserves_seq_run_detection() {
        // The §III-A requirement, against an order-sensitive policy: a
        // thread's contiguous scan must still be detected as one run
        // even when part of it travels through a publication slot.
        use bpw_replacement::SeqLru;
        let w = BpWrapper::new(
            SeqLru::new(32),
            WrapperConfig::default()
                .with_queue_size(4)
                .with_batch_threshold(4)
                .with_combining(true),
        );
        w.with_locked(|p| {
            for i in 0..32u64 {
                p.record_miss(i, Some(i as u32), &mut |_| true);
            }
        });
        let warm_runs = w.with_locked(|p| p.detected_runs());
        let held = w.lock_for_test();
        let mut h = w.handle();
        for p in 0..4u64 {
            h.record_hit(p, p as u32); // overflows into a publication
        }
        assert_eq!(w.counters().published.get(), 1);
        drop(held);
        for p in 4..8u64 {
            h.record_hit(p, p as u32); // commit: reclaimed batch first
        }
        let runs = w.with_locked(|p| p.detected_runs());
        assert_eq!(
            runs,
            warm_runs + 1,
            "published-then-reclaimed accesses must replay in FIFO order"
        );
    }

    #[test]
    fn concurrent_hits_all_accounted_with_combining() {
        let w = warmed(64, WrapperConfig::default().with_combining(true));
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
            "published batches must all be applied by drop time"
        );
        w.with_locked(|p| p.check_invariants());
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
}
