//! The buffer pool: page table + descriptors + frames + storage +
//! replacement manager, with the fetch path of Fig. 1/Fig. 3 in the
//! paper — concurrent hash-table lookup, per-frame pinning, and
//! replacement bookkeeping routed through a [`ReplacementManager`].

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bpw_core::{CachePadded, InstrumentedLock};
use bpw_metrics::{LockShardSummary, LockSnapshot, LockStats, StripedCounter};
use bpw_replacement::{FrameId, MissOutcome, PageId};
use parking_lot::Mutex;

use crate::desc::{BufferDesc, UnpinOutcome};
use crate::free_list::{StripedFreeList, MAX_STRIPES};
use crate::managers::{ManagerHandle, ReplacementManager};
use crate::page_table::PageTable;
use crate::storage::Storage;

/// Why [`BufferPool::invalidate`] did or did not drop a page.
/// `NotResident` is permanent (until someone re-fetches the page);
/// `Busy` is transient and worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidateOutcome {
    /// The page was resident and is now dropped; its frame is free.
    Invalidated,
    /// The page is not in the buffer — nothing to drop.
    NotResident,
    /// The page is resident but pinned, mid-I/O, or mid-eviction; retry
    /// after the current user releases it.
    Busy,
}

impl InvalidateOutcome {
    /// Did the call actually drop the page?
    pub fn is_invalidated(self) -> bool {
        matches!(self, InvalidateOutcome::Invalidated)
    }

    /// Could a retry succeed where this call did not?
    pub fn is_retryable(self) -> bool {
        matches!(self, InvalidateOutcome::Busy)
    }
}

/// Aggregate pool statistics. `hits` and `misses` are bumped once per
/// fetch, so they are striped per thread; the rest move only on the
/// miss and fault paths. The striped cells give the struct a cache-line
/// alignment, so none of these writes invalidate the line holding the
/// pool's read-mostly fields.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Fetches satisfied from the buffer.
    pub hits: StripedCounter,
    /// Fetches that read from storage.
    pub misses: StripedCounter,
    /// Dirty victims written back.
    pub writebacks: AtomicU64,
    /// Storage operations retried after a transient fault.
    pub io_retries: AtomicU64,
    /// Storage operations that failed after exhausting their retry
    /// budget (each surfaced an error to the caller or re-dirtied the
    /// frame; none wedged a frame).
    pub io_errors: AtomicU64,
    /// CAS retries inside `try_pin` beyond the first attempt — the
    /// lock-free hit path's contention signal (each retry is one more
    /// loop iteration, not a blocked thread).
    pub pin_cas_retries: AtomicU64,
    /// Unpins that found the pin count already at zero (pin/unpin
    /// imbalance). The count saturates instead of wrapping; this should
    /// stay 0 outside deliberate fault injection.
    pub pin_underflows: AtomicU64,
}

/// How the pool retries failed storage operations before giving up:
/// bounded attempts with exponential backoff, the standard treatment
/// for transient device faults.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub max_retries: u32,
    /// Sleep before retry `k` is `base_backoff * 2^k`.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(50),
        }
    }
}

impl RetryPolicy {
    /// No retries: every fault surfaces immediately (tests).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        self.base_backoff.saturating_mul(1u32 << attempt.min(10))
    }
}

impl PoolStats {
    /// Hit ratio over all fetches so far.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// One buffer frame: its descriptor and the latch guarding its bytes.
/// Together they fill less than one cache line, so a hit's pin → latch →
/// unlatch → unpin dirties exactly one line, and that line holds nothing
/// of a neighbouring frame.
struct Frame {
    desc: BufferDesc,
    data: Mutex<Box<[u8]>>,
}

const _: () = assert!(std::mem::size_of::<CachePadded<Frame>>() == 64);
const _: () = assert!(std::mem::size_of::<BufferDesc>() == 16);
const _: () = assert!(std::mem::align_of::<PoolStats>() >= 64);

/// A DBMS-style buffer pool generic over its replacement manager.
pub struct BufferPool<M: ReplacementManager> {
    table: PageTable,
    frames: Vec<CachePadded<Frame>>,
    free: StripedFreeList,
    /// Serialize victim selection + table rebinding (not the I/O), one
    /// lock per page-table shard: misses on pages in different shards
    /// run their whole slow path concurrently. Instrumented: misses are
    /// where lock contention concentrates once BP-Wrapper removes it
    /// from the hit path. A miss only ever holds the one lock its page
    /// hashes to — no ordering between shard locks exists, so no
    /// deadlock can.
    miss_locks: Vec<InstrumentedLock<()>>,
    manager: M,
    storage: Arc<dyn Storage>,
    stats: PoolStats,
    /// Frames held in sessions' stashes: evicted ahead of need, not yet
    /// refilled. A gauge, striped because a miss moves it.
    stashed: StripedCounter,
    page_size: usize,
    retry: RetryPolicy,
}

impl<M: ReplacementManager> BufferPool<M> {
    /// Build a pool of `frames` frames of `page_size` bytes each, with
    /// one miss lock per page-table shard and as many free-list stripes,
    /// up to [`MAX_STRIPES`].
    pub fn new(frames: usize, page_size: usize, manager: M, storage: Arc<dyn Storage>) -> Self {
        assert!(frames >= 1);
        let table = PageTable::new(frames / 4);
        let shards = table.shards();
        BufferPool {
            table,
            frames: (0..frames)
                .map(|_| {
                    CachePadded::new(Frame {
                        desc: BufferDesc::new(),
                        data: Mutex::new(vec![0u8; page_size].into_boxed_slice()),
                    })
                })
                .collect(),
            free: StripedFreeList::new(frames, shards.min(MAX_STRIPES)),
            miss_locks: Self::build_miss_locks(shards),
            manager,
            storage,
            stats: PoolStats::default(),
            stashed: StripedCounter::default(),
            page_size,
            retry: RetryPolicy::default(),
        }
    }

    fn build_miss_locks(shards: usize) -> Vec<InstrumentedLock<()>> {
        (0..shards)
            .map(|i| {
                InstrumentedLock::with_wait_event(
                    (),
                    Arc::new(LockStats::new()),
                    bpw_trace::EventKind::MissShardWait,
                    i as u64,
                )
            })
            .collect()
    }

    /// Override the miss-path partition width (builder style; call
    /// before the first fetch). `1` is a single global miss lock + free
    /// list: frames are then handed out in one ascending order, which
    /// `tests/proptest_pool.rs` needs to compare the pool against
    /// `CacheSim` step by step. Values above the page-table shard
    /// count are clamped to it (extra locks could never be indexed).
    pub fn with_miss_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one miss shard");
        assert_eq!(
            self.free.len(),
            self.frames(),
            "with_miss_shards must be called before any fetch"
        );
        let n = shards.min(self.table.shards());
        self.miss_locks = Self::build_miss_locks(n);
        self.free = StripedFreeList::new(self.frames(), n.min(MAX_STRIPES));
        self
    }

    /// The shard lock index `page`'s miss path serializes on: the page
    /// table's shard function, folded onto the miss-lock count.
    fn miss_shard(&self, page: PageId) -> usize {
        self.table.shard_index(page) % self.miss_locks.len()
    }

    /// Set the storage retry policy (builder style).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The storage retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pool statistics.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The replacement manager.
    pub fn manager(&self) -> &M {
        &self.manager
    }

    /// Aggregate contention profile of the miss path (victim selection
    /// and rebinding), summed over every shard lock — the legacy
    /// single-lock view.
    pub fn miss_lock_snapshot(&self) -> LockSnapshot {
        self.miss_lock_shard_snapshots()
            .iter()
            .fold(LockSnapshot::default(), |acc, s| acc.merge(s))
    }

    /// Number of miss-path shard locks.
    pub fn miss_lock_shards(&self) -> usize {
        self.miss_locks.len()
    }

    /// Per-shard miss-lock snapshots, in shard order.
    pub fn miss_lock_shard_snapshots(&self) -> Vec<LockSnapshot> {
        self.miss_locks
            .iter()
            .map(|l| l.stats().snapshot())
            .collect()
    }

    /// Shard-aware miss-lock summary (totals + hottest shard).
    pub fn miss_lock_summary(&self) -> LockShardSummary {
        LockShardSummary::from_snapshots(&self.miss_lock_shard_snapshots())
    }

    /// Free-list pops served by a stripe other than the asker's home
    /// (work-stealing rebalances).
    pub fn free_list_steals(&self) -> u64 {
        self.free.steals()
    }

    /// Frames parked on the free list's cold stack by frame repair.
    pub fn free_list_cold_pushes(&self) -> u64 {
        self.free.cold_pushes()
    }

    /// Page-table lookups that retried through the locked fallback path
    /// (torn optimistic read or a spilled shard).
    pub fn page_table_fallback_reads(&self) -> u64 {
        self.table.fallback_reads()
    }

    /// The storage device.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// Create a per-thread session (carries the manager handle, i.e. the
    /// BP-Wrapper private queue for wrapped managers).
    pub fn session(&self) -> PoolSession<'_, M> {
        PoolSession {
            pool: self,
            handle: self.manager.handle(),
            stash: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// Drop `page` from the buffer (e.g. relation truncation),
    /// distinguishing "nothing to drop" from "in use right now" so
    /// callers know whether a retry can help. Serializes on the page's
    /// own shard lock only.
    pub fn invalidate(&self, page: PageId) -> InvalidateOutcome {
        let out = self.invalidate_inner(page);
        bpw_dst::record(|| bpw_dst::Op::Invalidate {
            page,
            outcome: match out {
                InvalidateOutcome::Invalidated => 0,
                InvalidateOutcome::NotResident => 1,
                InvalidateOutcome::Busy => 2,
            },
        });
        out
    }

    fn invalidate_inner(&self, page: PageId) -> InvalidateOutcome {
        let shard = self.miss_shard(page);
        let _g = self.miss_locks[shard].lock();
        bpw_dst::yield_point();
        let Some(frame) = self.table.get(page) else {
            return InvalidateOutcome::NotResident;
        };
        bpw_dst::yield_point();
        {
            let mut s = self.desc(frame).lock();
            if s.pins > 0 || s.io_in_progress || !(s.valid && s.tag == page) {
                return InvalidateOutcome::Busy;
            }
            s.valid = false;
            s.dirty = false;
        }
        self.table.remove(page);
        self.manager.invalidate(frame);
        self.free.push(shard, frame);
        InvalidateOutcome::Invalidated
    }

    /// Frame `f`'s descriptor.
    #[inline]
    pub(crate) fn desc(&self, f: FrameId) -> &BufferDesc {
        &self.frames[f as usize].desc
    }

    /// Lock frame `f`'s content.
    #[inline]
    pub(crate) fn data_lock(&self, f: FrameId) -> parking_lot::MutexGuard<'_, Box<[u8]>> {
        let data = &self.frames[f as usize].data;
        // `PinnedPage::write` takes the descriptor latch — a yield point
        // — under this lock, so under the dst harness two tasks pinning
        // one page meet here: spin with a voluntary yield, never block
        // the OS thread that holds the scheduler token.
        while bpw_dst::in_task() {
            if let Some(guard) = data.try_lock() {
                return guard;
            }
            bpw_dst::yield_now();
        }
        data.lock()
    }

    /// Run `op` with bounded retries and exponential backoff per the
    /// pool's [`RetryPolicy`]. Emits an `IoRetry` trace event per retry
    /// and an `IoError` (plus the `io_errors` counter) on exhaustion.
    pub(crate) fn io_with_retries(
        &self,
        page: PageId,
        mut op: impl FnMut() -> io::Result<()>,
    ) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempt >= self.retry.max_retries {
                        self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                        bpw_trace::instant(bpw_trace::EventKind::IoError, page);
                        return Err(e);
                    }
                    self.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                    bpw_trace::instant(bpw_trace::EventKind::IoRetry, page);
                    let backoff = self.retry.backoff(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Undo a failed miss: the frame was claimed for `page` (tagged,
    /// pinned once, `io_in_progress`) but the I/O never completed. Put
    /// everything back the way it was — mapping removed, replacement
    /// state forgotten, frame on the free list — so no frame is ever
    /// wedged and a later fetch of `page` starts from scratch.
    fn repair_failed_frame(&self, page: PageId, frame: FrameId) {
        let _g = self.miss_locks[self.miss_shard(page)].lock();
        {
            let mut s = self.desc(frame).lock();
            debug_assert!(s.io_in_progress, "repair of a frame not in I/O");
            debug_assert_eq!(s.tag, page, "repair of a re-tagged frame");
            debug_assert_eq!(s.pins, 1, "only the failed fetch may hold a pin");
            s.valid = false;
            s.dirty = false;
            s.io_in_progress = false;
            s.pins = 0; // the caller gets an error, not a guard
        }
        bpw_dst::record(|| bpw_dst::Op::Unpin { page, pins: 0 });
        self.table.remove(page);
        self.manager.invalidate(frame);
        // Cold push: the frame just hosted a failing I/O; a plain LIFO
        // push would hand it straight to the next miss, so one bad page
        // could monopolize a single frame indefinitely.
        self.free.push_cold(frame);
    }

    /// Number of valid resident pages (O(frames); tests).
    pub fn resident_count(&self) -> usize {
        self.frames
            .iter()
            .filter(|f| f.desc.snapshot().valid)
            .count()
    }

    /// Frames currently on the free list (never used or freed by
    /// [`invalidate`](Self::invalidate)).
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Frames sessions hold evicted ahead of need, to fill on their next
    /// misses. Between fetches, `free_frames() + stashed_frames() +
    /// resident_count() == frames()`.
    pub fn stashed_frames(&self) -> usize {
        self.stashed.get() as usize
    }

    /// Check that no two pages map to the same frame, and that the
    /// replacement manager tracks exactly the resident pages, each in
    /// the frame the page table maps it to (O(table); tests). Only valid
    /// while no miss is in flight — during a dirty victim's write-back
    /// the victim and its successor both map to the frame — and once
    /// every session has flushed its queued admissions.
    pub fn check_mapping_invariants(&self) {
        let mut owner = vec![None::<PageId>; self.frames()];
        self.table.for_each(|page, frame| {
            if let Some(prev) = owner[frame as usize].replace(page) {
                panic!("frame {frame} mapped by both page {prev} and page {page}");
            }
        });
        let mut tracked = self.manager.export_state();
        tracked.sort_unstable();
        let resident: Vec<(FrameId, PageId)> = (0..self.frames() as FrameId)
            .filter_map(|f| {
                let s = self.desc(f).snapshot();
                s.valid.then_some((f, s.tag))
            })
            .collect();
        assert_eq!(
            tracked, resident,
            "the replacement manager disagrees with the pool about what is resident where"
        );
        for &(frame, page) in &resident {
            assert_eq!(
                owner[frame as usize],
                Some(page),
                "resident page {page} in frame {frame} is not mapped there"
            );
        }
    }
}

/// A thread's session against the pool.
pub struct PoolSession<'p, M: ReplacementManager> {
    pool: &'p BufferPool<M>,
    handle: Box<dyn ManagerHandle + 'p>,
    /// Frames this session evicted ahead of need: invalid, unmapped,
    /// tracked by no manager. Its next misses fill them before touching
    /// the free list or the replacement lock; drop returns the rest to
    /// the free list.
    stash: Vec<FrameId>,
    /// Scratch for the victims one `on_evict` took ahead of need.
    evicted: Vec<(FrameId, PageId)>,
}

impl<'p, M: ReplacementManager> PoolSession<'p, M> {
    /// Fetch `page`, pinning it in the buffer. Blocks on storage I/O for
    /// a miss. Returns a guard that unpins on drop, or the storage error
    /// once the miss path has exhausted its retry budget — in which case
    /// the claimed frame has been repaired (back on the free list after a
    /// failed read, back with its dirty victim after a failed
    /// write-back) and the fetch may simply be retried.
    pub fn fetch(&mut self, page: PageId) -> io::Result<PinnedPage<'p, M>> {
        loop {
            // Fast path: concurrent hash lookup + pin. The yield between
            // lookup and pin is where eviction/invalidation can rebind
            // the frame under the dst harness.
            bpw_dst::yield_point();
            if let Some(frame) = self.pool.table.get(page) {
                bpw_dst::yield_point();
                if let Some(pinned) = self.pin_hit(page, frame) {
                    return Ok(pinned);
                }
                // Mapping present but unpinnable: I/O in progress or a
                // stale mapping mid-eviction. Yield and retry. (A failed
                // I/O removes the mapping, so this cannot spin forever.)
                bpw_dst::yield_now();
                continue;
            }
            // Miss path.
            if let Some(pinned) = self.fetch_miss(page)? {
                return Ok(pinned);
            }
            bpw_dst::yield_now();
        }
    }

    /// Pin `page` only if it is resident right now: one page-table
    /// lookup and one pin attempt — never the miss lock, never storage,
    /// never a wait on a frame that is mid-I/O or mid-eviction. For a
    /// caller that must not block (an event loop) and has somewhere else
    /// to send a miss. `Some` is exactly [`fetch`](Self::fetch)'s hit;
    /// `None` counts nothing, so a fallback `fetch` of the same page
    /// counts the access once.
    pub fn fetch_resident(&mut self, page: PageId) -> Option<PinnedPage<'p, M>> {
        bpw_dst::yield_point();
        let frame = self.pool.table.get(page)?;
        bpw_dst::yield_point();
        self.pin_hit(page, frame)
    }

    /// The hit: pin `frame` if it still holds `page`, and account it
    /// (striped counter, replacement advice, dst record).
    #[inline]
    fn pin_hit(&mut self, page: PageId, frame: FrameId) -> Option<PinnedPage<'p, M>> {
        let attempt = self.pool.desc(frame).try_pin(page);
        if attempt.retries > 0 {
            // Off the common path: only contended pins pay this
            // shared RMW (an unconditional fetch_add here would
            // reintroduce per-hit cache-line traffic).
            self.pool
                .stats
                .pin_cas_retries
                .fetch_add(u64::from(attempt.retries), Ordering::Relaxed);
        }
        if !attempt.pinned {
            return None;
        }
        bpw_trace::instant(bpw_trace::EventKind::HitPin, page);
        self.pool.stats.hits.incr();
        self.handle.on_hit(page, frame);
        bpw_dst::record(|| bpw_dst::Op::FetchDone {
            page,
            frame,
            hit: true,
        });
        Some(PinnedPage {
            pool: self.pool,
            frame,
            page,
        })
    }

    /// Slow path. Returns `Ok(None)` when the state changed underfoot
    /// (the caller retries), `Err` when storage failed after retries.
    fn fetch_miss(&mut self, page: PageId) -> io::Result<Option<PinnedPage<'p, M>>> {
        let pool = self.pool;
        let shard = pool.miss_shard(page);
        let mut guard = pool.miss_locks[shard].lock();
        bpw_dst::yield_point();
        // Re-check: another thread may have loaded the page while we
        // waited for this shard's miss lock.
        if pool.table.get(page).is_some() {
            drop(guard);
            return Ok(None); // retry via the hit path
        }
        guard.cover_accesses(1);
        // A frame no manager tracks — this session's stash first, then
        // the free list — is admitted once its read succeeds. Only when
        // there is none does the manager evict.
        let stashed = self.stash.pop();
        let popped = stashed.or_else(|| pool.free.pop(shard));
        let (frame, victim) = match popped {
            Some(f) => (f, None),
            // Victim filter: pinned or in-I/O frames are rejected; each
            // accepted frame is atomically invalidated under its latch
            // so no new pin can slip in after selection.
            None => match self.handle.on_evict(
                page,
                &mut |f| {
                    let mut s = pool.desc(f).lock();
                    if s.pins == 0 && !s.io_in_progress && s.valid {
                        s.valid = false;
                        true
                    } else {
                        false
                    }
                },
                &mut self.evicted,
            ) {
                MissOutcome::Evicted { frame, victim } => (frame, Some(victim)),
                MissOutcome::AdmittedFree(_) => unreachable!("on_evict has no free frame"),
                // Everything pinned: let the caller retry. No miss is
                // counted: the logical miss has not completed, and a
                // retry would otherwise double-count it.
                MissOutcome::NoEvictableFrame => return Ok(None),
            },
        };
        if stashed.is_some() {
            pool.stashed.sub(1);
        }
        // Claim the frame for the new page, marked in-I/O.
        let was_dirty = {
            let mut s = pool.desc(frame).lock();
            debug_assert_eq!(s.pins, 0, "evicted frame had pins");
            let was_dirty = s.dirty && victim.is_some();
            s.tag = page;
            s.valid = true;
            s.dirty = false;
            s.io_in_progress = true;
            s.pins = 1; // pinned for the caller
            was_dirty
        };
        bpw_dst::record(|| bpw_dst::Op::Pin { page, pins: 1 });
        if let Some(v) = victim {
            bpw_trace::instant(bpw_trace::EventKind::Eviction, v);
            // A dirty victim stays mapped to this (now unpinnable) frame
            // until its bytes are durable: a re-fetch of `v` then spins
            // on the mapping like a same-page fetcher during I/O instead
            // of reading the stale copy from storage. (The
            // `dst_mutation = "early_unmap"` mutant unmaps here and
            // writes back after the lock is gone, which the dst
            // read-your-writes checker must catch.)
            if !was_dirty || cfg!(dst_mutation = "early_unmap") {
                pool.table.remove(v);
            }
        }
        pool.table.insert(page, frame);
        // I/O happens outside the miss lock: other misses proceed.
        drop(guard);
        // The frame is now mapped with io_in_progress set and the shard
        // lock released — the window where concurrent fetchers of the
        // same page spin on the unpinnable mapping and invalidate must
        // report Busy.
        bpw_dst::yield_point();
        self.stash_evicted();
        // Miss I/O is timed unconditionally (not just when tracing is
        // on): the stage scratch is how the server attributes a
        // request's latency to disk time, and two clock reads are noise
        // next to a storage round trip. The `MissIo` span reuses them.
        let io_t0 = std::time::Instant::now();
        let mut data = pool.data_lock(frame);
        if was_dirty {
            let v = victim.expect("dirty implies eviction");
            let written = pool.io_with_retries(v, || pool.storage.write_page(v, &data));
            bpw_dst::yield_point();
            if let Err(e) = written {
                drop(data);
                bpw_trace::stage::add_miss_io(io_t0.elapsed().as_nanos() as u64);
                self.keep_victim(page, v, frame);
                return Err(e);
            }
            // Only now may a fetch of `v` go to storage. Nobody can have
            // rebound `v` meanwhile: a miss on `v` backs off while any
            // mapping for it exists.
            if !cfg!(dst_mutation = "early_unmap") {
                pool.table.remove(v);
            }
            pool.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        let buf = &mut **data;
        let read = pool.io_with_retries(page, || pool.storage.read_page(page, &mut *buf));
        drop(data);
        if let Err(e) = read {
            bpw_trace::stage::add_miss_io(io_t0.elapsed().as_nanos() as u64);
            pool.repair_failed_frame(page, frame);
            return Err(e);
        }
        bpw_dst::yield_point();
        if victim.is_none() {
            self.handle.on_admit(page, frame);
            if stashed.is_none() {
                // A free-list frame is admitted now, not queued: a
                // session that then idles must not keep frames from
                // every other session's victim search. Frames it
                // evicted ahead are few (k − 1) and its own.
                self.handle.flush();
            }
        }
        pool.desc(frame).lock().io_in_progress = false;
        // Count the miss only now that it has completed: a retry after
        // NoEvictableFrame or an I/O failure must not count twice.
        pool.stats.misses.incr();
        let io_ns = io_t0.elapsed().as_nanos() as u64;
        bpw_trace::span_backdated(bpw_trace::EventKind::MissIo, io_ns, page);
        bpw_trace::stage::add_miss_io(io_ns);
        bpw_dst::record(|| bpw_dst::Op::FetchDone {
            page,
            frame,
            hit: false,
        });
        Ok(Some(PinnedPage { pool, frame, page }))
    }

    /// Settle the victims the last `on_evict` took ahead of need, and
    /// stash their frames. The filter left each invalid; a clean one is
    /// unmapped now, a dirty one stays mapped — so a re-fetch waits —
    /// until its write-back returns. A write-back that fails leaves the
    /// victim in its frame, dirty, re-admitted.
    fn stash_evicted(&mut self) {
        let pool = self.pool;
        while let Some((frame, v)) = self.evicted.pop() {
            bpw_trace::instant(bpw_trace::EventKind::Eviction, v);
            if pool.desc(frame).lock().dirty {
                let data = pool.data_lock(frame);
                let written = pool.io_with_retries(v, || pool.storage.write_page(v, &data));
                drop(data);
                bpw_dst::yield_point();
                if written.is_err() {
                    // Admit before revalidating: until the descriptor is
                    // valid again, invalidate answers Busy and cannot
                    // free the frame under the admission.
                    self.handle.on_admit(v, frame);
                    pool.desc(frame).lock().valid = true;
                    continue;
                }
                pool.desc(frame).lock().dirty = false;
                pool.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            pool.table.remove(v);
            self.stash.push(frame);
            pool.stashed.add(1);
        }
    }

    /// Undo a miss whose dirty victim `v` could not be written back:
    /// `v` is still mapped to `frame` and its bytes are still there, so
    /// hand the frame back to it — dirty, to be written at its next
    /// eviction — and forget `page`'s claim. The replacement state is
    /// rebuilt the way a free-frame miss builds it: `page` forgotten,
    /// `v` admitted.
    fn keep_victim(&mut self, page: PageId, v: PageId, frame: FrameId) {
        let pool = self.pool;
        let _g = pool.miss_locks[pool.miss_shard(page)].lock();
        pool.table.remove(page);
        pool.manager.invalidate(frame);
        self.handle.on_admit(v, frame);
        {
            let mut s = pool.desc(frame).lock();
            debug_assert!(s.valid && s.io_in_progress && s.tag == page && s.pins == 1);
            s.tag = v;
            s.dirty = true;
            s.io_in_progress = false;
            s.pins = 0; // the caller gets an error, not a guard
        }
        bpw_dst::record(|| bpw_dst::Op::Unpin { page, pins: 0 });
    }

    /// Commit any deferred replacement bookkeeping (BP-Wrapper queue,
    /// queued admissions included). The frames this session evicted
    /// ahead stay stashed for its next misses — a server worker flushes
    /// each time it goes idle — and return to the free list when the
    /// session is dropped.
    pub fn flush(&mut self) {
        self.handle.flush();
    }
}

impl<'p, M: ReplacementManager> Drop for PoolSession<'p, M> {
    fn drop(&mut self) {
        self.handle.flush();
        // The `dst_mutation = "stash_leak"` mutant forgets the stash here:
        // its frames then belong to nobody, which the dst miss storm's
        // frame accounting must catch.
        if cfg!(dst_mutation = "stash_leak") {
            return;
        }
        self.pool.stashed.sub(self.stash.len() as u64);
        for frame in self.stash.drain(..) {
            self.pool.free.push(frame as usize, frame);
        }
    }
}

/// A pinned page: read/write access to the frame contents; unpins on
/// drop.
pub struct PinnedPage<'p, M: ReplacementManager> {
    pool: &'p BufferPool<M>,
    frame: FrameId,
    page: PageId,
}

impl<'p, M: ReplacementManager> PinnedPage<'p, M> {
    /// The page id this guard pins.
    pub fn page(&self) -> PageId {
        self.page
    }

    /// The frame holding the page.
    pub fn frame(&self) -> FrameId {
        self.frame
    }

    /// Read the page contents.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let data = self.pool.data_lock(self.frame);
        f(&data)
    }

    /// Mutate the page contents and mark the page dirty.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut data = self.pool.data_lock(self.frame);
        let r = f(&mut data);
        self.pool.desc(self.frame).lock().dirty = true;
        r
    }
}

impl<'p, M: ReplacementManager> std::fmt::Debug for PinnedPage<'p, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPage")
            .field("page", &self.page)
            .field("frame", &self.frame)
            .finish()
    }
}

impl<'p, M: ReplacementManager> Drop for PinnedPage<'p, M> {
    fn drop(&mut self) {
        bpw_dst::yield_point();
        if self.pool.desc(self.frame).unpin() == UnpinOutcome::Underflow {
            self.pool
                .stats
                .pin_underflows
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::{ClockManager, CoarseManager, WrappedManager};
    use crate::storage::SimDisk;
    use bpw_core::WrapperConfig;
    use bpw_replacement::{Lirs, ReplacementPolicy, TwoQ};

    fn pool_2q(frames: usize) -> BufferPool<CoarseManager<TwoQ>> {
        BufferPool::new(
            frames,
            128,
            CoarseManager::new(TwoQ::new(frames)),
            Arc::new(SimDisk::instant()),
        )
    }

    #[test]
    fn fetch_reads_correct_content() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        let p = s.fetch(42).unwrap();
        p.read(|data| {
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 42);
        });
        drop(p);
        assert_eq!(pool.stats().misses.load(Ordering::Relaxed), 1);
        let p = s.fetch(42).unwrap();
        drop(p);
        assert_eq!(pool.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(pool.storage().reads(), 1, "second fetch must not hit disk");
    }

    #[test]
    fn eviction_and_reload() {
        let pool = pool_2q(2);
        let mut s = pool.session();
        for p in [1u64, 2, 3] {
            drop(s.fetch(p).unwrap());
        }
        // One of 1, 2 was evicted; fetch both again -> at least one miss.
        drop(s.fetch(1).unwrap());
        drop(s.fetch(2).unwrap());
        let st = pool.stats();
        assert!(st.misses.load(Ordering::Relaxed) >= 4);
        assert_eq!(pool.resident_count(), 2);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = pool_2q(2);
        let mut s = pool.session();
        let held = s.fetch(1).unwrap(); // stays pinned
        drop(s.fetch(2).unwrap());
        for p in 10..20u64 {
            drop(s.fetch(p).unwrap()); // must always evict the *other* frame
        }
        held.read(|data| {
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), 1);
        });
        drop(held);
    }

    #[test]
    fn dirty_pages_written_back() {
        let pool = pool_2q(2);
        let mut s = pool.session();
        let p = s.fetch(1).unwrap();
        p.write(|data| data[9] = 0xAB);
        drop(p);
        for q in [2u64, 3, 4] {
            drop(s.fetch(q).unwrap()); // force eviction of page 1
        }
        assert!(
            pool.storage().writes() >= 1,
            "dirty page must be written back"
        );
        assert!(pool.stats().writebacks.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn invalidate_frees_frame() {
        let pool = pool_2q(2);
        let mut s = pool.session();
        drop(s.fetch(1).unwrap());
        drop(s.fetch(2).unwrap());
        assert_eq!(pool.invalidate(1), InvalidateOutcome::Invalidated);
        assert_eq!(pool.invalidate(1), InvalidateOutcome::NotResident);
        assert_eq!(pool.resident_count(), 1);
        drop(s.fetch(3).unwrap()); // takes the freed frame, no eviction
        assert_eq!(pool.resident_count(), 2);
    }

    #[test]
    fn wrapped_pool_concurrent_correctness() {
        // Many threads hammering a small pool through BP-Wrapper: every
        // fetch must return the right bytes, and accounting must add up.
        let frames = 32;
        let pool: BufferPool<WrappedManager<Lirs>> = BufferPool::new(
            frames,
            64,
            WrappedManager::new(Lirs::new(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let threads = 4;
        let per_thread = 3000u64;
        std::thread::scope(|sc| {
            for t in 0..threads {
                let pool = &pool;
                sc.spawn(move || {
                    let mut s = pool.session();
                    let mut x = 0xDEADBEEFu64.wrapping_add(t);
                    for _ in 0..per_thread {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let page = x % 64; // 2x the pool size
                        let p = s.fetch(page).unwrap();
                        p.read(|data| {
                            assert_eq!(
                                u64::from_le_bytes(data[..8].try_into().unwrap()),
                                page,
                                "wrong content for page {page}"
                            );
                        });
                    }
                });
            }
        });
        let st = pool.stats();
        assert_eq!(
            st.hits.load(Ordering::Relaxed) + st.misses.load(Ordering::Relaxed),
            threads * per_thread
        );
        pool.manager()
            .wrapper()
            .with_locked(|p| p.check_invariants());
    }

    #[test]
    fn fetch_counts_are_exact_while_sessions_are_live() {
        // The per-access counters are striped per thread, not buffered
        // per session: with every session still open (queues unflushed)
        // a reader already sees every completed fetch.
        let frames = 16;
        let pool: BufferPool<WrappedManager<Lirs>> = BufferPool::new(
            frames,
            64,
            WrappedManager::new(Lirs::new(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let (threads, per_thread) = (4u64, 500u64);
        let fetched = std::sync::Barrier::new(threads as usize + 1);
        let checked = std::sync::Barrier::new(threads as usize + 1);
        std::thread::scope(|sc| {
            for _ in 0..threads {
                sc.spawn(|| {
                    let mut s = pool.session();
                    for i in 0..per_thread {
                        drop(s.fetch(i % 8).unwrap());
                    }
                    fetched.wait();
                    checked.wait();
                });
            }
            fetched.wait();
            let st = pool.stats();
            assert_eq!(
                st.hits.load(Ordering::Relaxed) + st.misses.load(Ordering::Relaxed),
                threads * per_thread
            );
            assert_eq!(st.misses.load(Ordering::Relaxed), 8);
            assert_eq!(
                pool.manager().wrapper().counters().accesses.get(),
                threads * per_thread
            );
            checked.wait();
        });
    }

    #[test]
    fn clock_pool_concurrent_correctness() {
        let frames = 16;
        let pool = BufferPool::new(
            frames,
            64,
            ClockManager::new(frames),
            Arc::new(SimDisk::instant()),
        );
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let pool = &pool;
                sc.spawn(move || {
                    let mut s = pool.session();
                    for i in 0..2000u64 {
                        let page = (i * (t + 1)) % 40;
                        let p = s.fetch(page).unwrap();
                        p.read(|data| {
                            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), page);
                        });
                    }
                });
            }
        });
        assert_eq!(pool.resident_count(), frames);
    }

    #[test]
    fn written_data_survives_eviction() {
        // Write a marker, churn the page out, fetch it back: the
        // write-back + SimDisk retention must round-trip the bytes.
        let pool = pool_2q(2);
        let mut s = pool.session();
        let p = s.fetch(1).unwrap();
        p.write(|data| data[20] = 0xC4);
        drop(p);
        for q in 10..20u64 {
            drop(s.fetch(q).unwrap());
        }
        assert!(pool.table.get(1).is_none() || pool.frames() == 2);
        let p = s.fetch(1).unwrap();
        p.read(|data| assert_eq!(data[20], 0xC4, "write lost through eviction"));
    }

    #[test]
    fn all_frames_pinned_misses_not_double_counted() {
        // Regression for the miss double-count: with every frame pinned
        // the miss path retries (NoEvictableFrame); each retry must NOT
        // count another miss, so hits + misses == completed fetches.
        let frames = 4usize;
        let pool = Arc::new(pool_2q(frames));
        let mut s = pool.session();
        let held: Vec<_> = (0..frames as u64).map(|p| s.fetch(p).unwrap()).collect();
        let base = pool.miss_lock_snapshot().acquisitions;
        let pool2 = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            let mut s = pool2.session();
            // Spins through NoEvictableFrame until a pin drops below.
            drop(s.fetch(100).unwrap());
        });
        // Each failed attempt takes page 100's miss shard lock once;
        // wait until several such acquisitions are on the books instead
        // of sleeping a fixed interval.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.miss_lock_snapshot().acquisitions < base + 3 {
            assert!(
                std::time::Instant::now() < deadline,
                "fetcher never retried the miss path"
            );
            std::thread::yield_now();
        }
        drop(held);
        t.join().unwrap();
        let st = pool.stats();
        let completed = frames as u64 + 1; // N initial loads + page 100
        assert_eq!(
            st.hits.load(Ordering::Relaxed) + st.misses.load(Ordering::Relaxed),
            completed,
            "hits + misses must equal completed fetches"
        );
        assert_eq!(st.misses.load(Ordering::Relaxed), completed);
    }

    #[test]
    fn failed_read_repairs_frame_and_recovers() {
        // Persistent read fault: fetch errors (no wedge), the frame goes
        // back on the free list, and once the fault clears the same page
        // fetches fine.
        let frames = 4usize;
        let disk = Arc::new(crate::storage::FaultyDisk::new(
            Arc::new(SimDisk::instant()),
            crate::storage::FaultPlan::default(),
        ));
        let pool = BufferPool::new(
            frames,
            128,
            CoarseManager::new(TwoQ::new(frames)),
            Arc::clone(&disk) as Arc<dyn Storage>,
        )
        .with_retry_policy(RetryPolicy::none());
        disk.break_page_reads(7);
        let mut s = pool.session();
        let err = s.fetch(7).expect_err("broken page must error");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(pool.stats().io_errors.load(Ordering::Relaxed), 1);
        assert_eq!(pool.free_frames(), frames, "frame returned to free list");
        assert_eq!(pool.resident_count(), 0);
        assert_eq!(
            pool.stats().misses.load(Ordering::Relaxed),
            0,
            "failed miss must not count"
        );
        // Unrelated pages unaffected.
        drop(s.fetch(1).unwrap());
        // Fault clears: page 7 now loads.
        disk.clear_faults();
        let p = s.fetch(7).unwrap();
        p.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), 7));
        drop(p);
        assert_eq!(pool.free_frames() + pool.resident_count(), frames);
    }

    #[test]
    fn transient_fault_retried_transparently() {
        let disk = Arc::new(crate::storage::FaultyDisk::new(
            Arc::new(SimDisk::instant()),
            crate::storage::FaultPlan::default(),
        ));
        let pool = BufferPool::new(
            4,
            128,
            CoarseManager::new(TwoQ::new(4)),
            Arc::clone(&disk) as Arc<dyn Storage>,
        )
        .with_retry_policy(RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::ZERO,
        });
        disk.fail_next_reads(2); // fewer than the retry budget
        let mut s = pool.session();
        let p = s.fetch(9).expect("transient faults must be retried");
        p.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), 9));
        drop(p);
        assert_eq!(pool.stats().io_retries.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats().io_errors.load(Ordering::Relaxed), 0);
        assert_eq!(pool.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_writeback_surfaces_but_repairs() {
        // Dirty victim whose write-back fails persistently: the fetch
        // that tried to evict it errors, the victim keeps its frame and
        // its write, and the pool's frame accounting stays intact.
        let disk = Arc::new(crate::storage::FaultyDisk::new(
            Arc::new(SimDisk::instant()),
            crate::storage::FaultPlan::default(),
        ));
        let pool = BufferPool::new(
            1,
            128,
            CoarseManager::new(TwoQ::new(1)),
            Arc::clone(&disk) as Arc<dyn Storage>,
        )
        .with_retry_policy(RetryPolicy::none());
        let mut s = pool.session();
        let p = s.fetch(1).unwrap();
        p.write(|d| d[9] = 0xEE);
        drop(p);
        disk.break_page_writes(1);
        let err = s.fetch(2).expect_err("write-back failure must surface");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert_eq!(pool.free_frames() + pool.resident_count(), 1);
        s.fetch(1).unwrap().read(|d| assert_eq!(d[9], 0xEE));
        assert_eq!(counts(&pool), (1, 1), "page 1 stayed resident");
        disk.clear_faults();
        // Both pages reachable again once the device heals, and page 1's
        // write reaches storage when page 2 evicts it.
        drop(s.fetch(2).unwrap());
        s.fetch(1)
            .unwrap()
            .read(|d| assert_eq!(d[9], 0xEE, "failed write-back lost the victim's write"));
        assert_eq!(pool.stats().writebacks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_fetchers_survive_failed_io() {
        // Threads racing on a page whose read fails must all get an
        // error or a correct page — and nobody may livelock on the
        // yield-and-retry loop (the pre-fix wedge).
        let disk = Arc::new(crate::storage::FaultyDisk::new(
            Arc::new(SimDisk::instant()),
            crate::storage::FaultPlan::default(),
        ));
        let pool = BufferPool::new(
            8,
            64,
            CoarseManager::new(TwoQ::new(8)),
            Arc::clone(&disk) as Arc<dyn Storage>,
        )
        .with_retry_policy(RetryPolicy::none());
        disk.fail_next_reads(6);
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let pool = &pool;
                sc.spawn(move || {
                    let mut s = pool.session();
                    for i in 0..200u64 {
                        let page = (i + t) % 16;
                        // Err means an injected fault; the next fetch retries.
                        if let Ok(p) = s.fetch(page) {
                            p.read(|d| {
                                assert_eq!(
                                    u64::from_le_bytes(d[..8].try_into().unwrap()),
                                    page,
                                    "wrong bytes served"
                                );
                            });
                        }
                    }
                });
            }
        });
        assert_eq!(
            pool.free_frames() + pool.resident_count(),
            8,
            "no frame may be wedged or leaked"
        );
    }

    #[test]
    fn invalidate_distinguishes_busy_from_absent() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        let pinned = s.fetch(8).unwrap();
        assert_eq!(
            pool.invalidate(8),
            InvalidateOutcome::Busy,
            "pinned page must report Busy, not NotResident"
        );
        assert!(pool.invalidate(8).is_retryable());
        drop(pinned);
        assert_eq!(pool.invalidate(8), InvalidateOutcome::Invalidated);
        assert_eq!(pool.invalidate(8), InvalidateOutcome::NotResident);
        assert!(!pool.invalidate(8).is_retryable());
        assert_eq!(pool.invalidate(99), InvalidateOutcome::NotResident);
    }

    #[test]
    fn failing_page_rotates_through_frames_not_one() {
        // A page whose read always fails must not monopolize a single
        // frame: repair parks the failed frame on the free list's cold
        // stack, so the next attempt claims a different (regular-stripe)
        // frame. The repair leaves the frame's tag as a remnant, which
        // lets the test count distinct frames the bad page touched.
        let frames = 4usize;
        let disk = Arc::new(crate::storage::FaultyDisk::new(
            Arc::new(SimDisk::instant()),
            crate::storage::FaultPlan::default(),
        ));
        let pool = BufferPool::new(
            frames,
            128,
            CoarseManager::new(TwoQ::new(frames)),
            Arc::clone(&disk) as Arc<dyn Storage>,
        )
        .with_retry_policy(RetryPolicy::none());
        let bad = 7u64;
        disk.break_page_reads(bad);
        let mut s = pool.session();
        for _ in 0..frames - 1 {
            s.fetch(bad).expect_err("broken page must error");
        }
        let touched = (0..frames)
            .filter(|&f| pool.desc(f as FrameId).snapshot().tag == bad)
            .count();
        assert!(
            touched >= 2,
            "bad page churned only {touched} frame(s); cold rotation broken"
        );
        assert_eq!(pool.free_list_cold_pushes(), frames as u64 - 1);
        assert_eq!(pool.free_frames(), frames, "every failure fully repaired");
    }

    #[test]
    fn miss_shards_partition_and_aggregate() {
        // 64 cold pages through 16 frames, and the `pool_miss_rw` shape:
        // 2 048 frames, a seeded uniform trace over 16 384 pages, one
        // thread. Only the second has enough misses per shard (~100) for
        // the even-spread bound; the first's hottest of 16 shards takes
        // 9 of 64.
        let uniform = uniform_trace(60_000, 16_384);
        let cold: Vec<u64> = (0..64).collect();
        for (frames, trace, even) in [(16, &cold, false), (2048, &uniform, true)] {
            for one_lock in [false, true] {
                let mut pool = pool_2q(frames);
                if one_lock {
                    pool = pool.with_miss_shards(1);
                }
                let mut s = pool.session();
                for &p in trace {
                    drop(s.fetch(p).unwrap());
                }
                drop(s);
                pool.check_mapping_invariants();
                let misses = counts(&pool).1;
                let acqs: Vec<u64> = pool
                    .miss_lock_shard_snapshots()
                    .iter()
                    .map(|s| s.acquisitions)
                    .collect();
                // One miss-shard lock acquisition per miss, and the
                // merged views agree with the per-shard ones.
                assert_eq!(acqs.iter().sum::<u64>(), misses);
                assert_eq!(pool.miss_lock_snapshot().acquisitions, misses);
                let summary = pool.miss_lock_summary();
                assert_eq!(summary.shards, acqs.len());
                assert_eq!(summary.total_acquisitions, misses);
                if one_lock {
                    assert_eq!(acqs, [misses]);
                    continue;
                }
                let touched = acqs.iter().filter(|&&a| a > 0).count();
                assert!(touched > 1, "misses must spread over multiple shards");
                if even {
                    let fair = misses / acqs.len() as u64;
                    let hottest = *acqs.iter().max().unwrap();
                    assert!(
                        hottest <= 2 * fair,
                        "hottest shard took {hottest} misses, fair share {fair}"
                    );
                }
            }
        }
    }

    /// A seeded uniform trace of `len` accesses over `universe` pages.
    fn uniform_trace(len: usize, universe: u64) -> Vec<u64> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % universe
            })
            .collect()
    }

    #[test]
    fn miss_path_lock_census_with_eviction_ahead() {
        // The `pool_miss_rw` shape on one thread: wrapped 2Q over 2 048
        // frames, uniform over 16 384 pages. A full pool's misses take
        // the replacement lock once per k; everything else commits at T.
        let frames = 2048;
        let cfg = WrapperConfig::default();
        let (k, t) = (cfg.evict_batch() as u64, cfg.batch_threshold as u64);
        let pool = BufferPool::new(
            frames,
            64,
            WrappedManager::new(TwoQ::new(frames), cfg),
            Arc::new(SimDisk::instant()),
        );
        let trace = uniform_trace(100_000, 16_384);
        let mut s = pool.session();
        for &p in &trace {
            drop(s.fetch(p).unwrap());
            assert_eq!(
                pool.free_frames() + pool.stashed_frames() + pool.resident_count(),
                frames
            );
        }
        let (hits, misses) = counts(&pool);
        let acqs = pool.manager().lock_snapshot().acquisitions;
        assert!(
            acqs <= misses.div_ceil(k) + (hits + misses).div_ceil(t),
            "{acqs} replacement-lock acquisitions for {misses} misses in {} accesses",
            hits + misses
        );
        assert_eq!(pool.miss_lock_snapshot().acquisitions, misses);
        assert!(
            pool.stashed_frames() > 0,
            "nothing was evicted ahead; vacuous"
        );
        let mut sim = bpw_replacement::CacheSim::new(TwoQ::new(frames));
        let reference = sim.run(trace.iter().copied()).hit_ratio();
        let measured = pool.stats().hit_ratio();
        assert!(
            (measured - reference).abs() <= 0.002,
            "hit ratio {measured:.4} against CacheSim's {reference:.4}"
        );
        drop(s);
        assert_eq!(
            pool.stashed_frames(),
            0,
            "a dropped session returns its stash"
        );
        assert_eq!(pool.free_frames() + pool.resident_count(), frames);
        pool.check_mapping_invariants();
    }

    #[test]
    fn free_list_stripes_follow_threads_not_frames() {
        // One miss lock per table shard, but a miss on a full pool must
        // not pay for a free-list head per shard.
        let pool = pool_2q(2048);
        assert!(pool.miss_lock_shards() > MAX_STRIPES);
        assert_eq!(pool.free.stripes(), MAX_STRIPES);
        let pool = pool.with_miss_shards(64);
        assert_eq!(pool.miss_lock_shards(), 64);
        assert_eq!(pool.free.stripes(), MAX_STRIPES);
        assert_eq!(pool_2q(16).free.stripes(), pool_2q(16).miss_lock_shards());
    }

    #[test]
    fn coarse_baseline_single_shard() {
        let pool = pool_2q(8).with_miss_shards(1);
        assert_eq!(pool.miss_lock_shards(), 1);
        assert_eq!(pool.free.stripes(), 1);
        let mut s = pool.session();
        for p in 0..32u64 {
            drop(s.fetch(p).unwrap());
        }
        assert_eq!(pool.miss_lock_snapshot().acquisitions, 32);
        assert_eq!(pool.free_frames() + pool.resident_count(), 8);
    }

    #[test]
    fn hit_ratio_reported() {
        let pool = pool_2q(8);
        let mut s = pool.session();
        for p in 0..8u64 {
            drop(s.fetch(p).unwrap());
        }
        for _ in 0..3 {
            for p in 0..8u64 {
                drop(s.fetch(p).unwrap());
            }
        }
        assert!((pool.stats().hit_ratio() - 0.75).abs() < 1e-9);
    }

    fn counts<M: ReplacementManager>(pool: &BufferPool<M>) -> (u64, u64) {
        let st = pool.stats();
        (
            st.hits.load(Ordering::Relaxed),
            st.misses.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn fetch_resident_pins_only_resident_pages_and_counts_each_access_once() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        assert!(s.fetch_resident(7).is_none(), "a cold page is not pinned");
        assert_eq!(counts(&pool), (0, 0), "None counts nothing");
        assert_eq!(pool.storage().reads(), 0, "and reads nothing");
        drop(s.fetch(7).unwrap());
        assert_eq!(counts(&pool), (0, 1), "the fallback fetch is the one miss");

        let p = s.fetch_resident(7).expect("resident now");
        assert_eq!(p.page(), 7);
        p.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), 7));
        drop(p);
        assert_eq!(counts(&pool), (1, 1), "Some is one hit");
        assert_eq!(pool.storage().reads(), 1);

        // Callers that fall back to `fetch` on None — evictions included
        // (9 pages through 4 frames) — keep hits + misses exact.
        let mut accesses = 2;
        for page in [7u64, 8, 7, 9, 8, 10, 11, 12, 7, 13, 9] {
            match s.fetch_resident(page) {
                Some(p) => drop(p),
                None => drop(s.fetch(page).unwrap()),
            }
            accesses += 1;
            let (hits, misses) = counts(&pool);
            assert_eq!(hits + misses, accesses);
        }
        assert_eq!(pool.free_frames() + pool.resident_count(), pool.frames());
    }

    #[test]
    fn fetch_resident_does_not_wait_for_a_frame_in_io() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        drop(s.fetch(5).unwrap());
        // What a miss in flight looks like to everyone else: the page is
        // mapped, its frame marked in-I/O. A `fetch` would spin on it.
        let frame = pool.table.get(5).expect("resident");
        pool.desc(frame).lock().io_in_progress = true;
        assert!(s.fetch_resident(5).is_none());
        assert_eq!(counts(&pool), (0, 1), "None counts nothing");
        pool.desc(frame).lock().io_in_progress = false;
        assert!(s.fetch_resident(5).is_some());
        assert_eq!(counts(&pool), (1, 1));
    }
}
