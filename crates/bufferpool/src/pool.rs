//! The buffer pool: page table + descriptors + frames + storage +
//! replacement manager, with the fetch path of Fig. 1/Fig. 3 in the
//! paper — concurrent hash-table lookup, per-frame pinning, and
//! replacement bookkeeping routed through a [`ReplacementManager`].

use std::cell::{Cell, RefCell};
use std::io;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use bpw_core::CachePadded;
use bpw_metrics::{LockShardSummary, LockSnapshot, StripedCounter};
use bpw_replacement::{FrameId, MissOutcome, PageId};

use crate::desc::{BufferDesc, UnpinOutcome};
use crate::frame_bytes::FrameBytes;
use crate::free_list::FreeList;
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
/// fetch and `writebacks` once per dirty eviction, on whichever thread
/// missed, so they are striped per thread; the rest move rarely. The striped cells give the struct a cache-line
/// alignment, so none of these writes invalidate the line holding the
/// pool's read-mostly fields.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Fetches satisfied from the buffer.
    pub hits: StripedCounter,
    /// Fetches that read from storage.
    pub misses: StripedCounter,
    /// Dirty victims written back.
    pub writebacks: StripedCounter,
    /// Storage operations retried after a transient fault.
    pub io_retries: AtomicU64,
    /// Storage operations that failed after exhausting their retry
    /// budget (each surfaced an error to the caller or re-dirtied the
    /// frame; none wedged a frame).
    pub io_errors: AtomicU64,
    /// CAS retries inside `try_pin` beyond the first attempt — the
    /// header pin's contention signal (each retry is one more loop
    /// iteration, not a blocked thread). A hit that pins through its
    /// session's slot line makes no CAS, so this counts only hits whose
    /// session had no free slot.
    pub pin_cas_retries: AtomicU64,
    /// Unpins that found the pin count already at zero (pin/unpin
    /// imbalance). The count saturates instead of wrapping; this should
    /// stay 0 outside deliberate fault injection.
    pub pin_underflows: AtomicU64,
}

/// Retries of a failed storage operation before its error surfaces:
/// bounded attempts with exponential backoff, the standard treatment
/// for transient device faults.
const MAX_IO_RETRIES: u32 = 3;
/// Sleep before retry `k` is `IO_BASE_BACKOFF * 2^k`.
const IO_BASE_BACKOFF: Duration = Duration::from_micros(50);

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

// A frame's descriptor fills less than one cache line, so a hit's pin →
// unpin dirties exactly one line, and that line holds nothing of a
// neighbouring frame. The frame's bytes are in `FrameBytes`, and have no
// lock of their own: a pin is a read latch, and a write first waits
// until no other pin but a writer's is left (`BufferDesc::write_latch`).
const _: () = assert!(std::mem::size_of::<CachePadded<BufferDesc>>() == 64);
const _: () = assert!(std::mem::size_of::<BufferDesc>() == 16);
const _: () = assert!(std::mem::align_of::<PoolStats>() >= 64);

/// Lines of pin slots: at most this many live sessions pin through a
/// slot; later ones pin through the frame header.
const SLOT_LINES: usize = 64;
/// Slots per line: a session holding this many slot pins pins its next
/// page through the frame header.
const SLOTS: usize = 15;

/// One session's pin slots, one cache line. A slot holds `frame + 1`
/// while its holder's guard pins `frame`, and 0 when free.
#[derive(Default)]
struct SlotLine {
    /// Slots `used..` are zero, so a scan reads only `0..used`: a
    /// session that holds one guard at a time costs a scan two loads.
    /// Only the owner raises it, SeqCst and before it first stores into
    /// the new slot, so a scan that reads the old value comes before
    /// that store in the SeqCst order. A claim of an all-clear line
    /// resets it.
    used: AtomicU32,
    slots: [AtomicU32; SLOTS],
}

impl SlotLine {
    /// A free slot for the owner's next pin: a clear one among the used
    /// ones, else the next unused one, or `None` when all are held.
    #[inline]
    fn free_slot(&self) -> Option<&AtomicU32> {
        // Relaxed: only the owner writes `used`, and a claim's reset
        // came before the owner's session existed.
        let used = self.used.load(Ordering::Relaxed) as usize;
        let slots = &self.slots[..used];
        if let Some(slot) = slots.iter().find(|s| s.load(Ordering::Relaxed) == 0) {
            return Some(slot);
        }
        let slot = self.slots.get(used)?;
        self.used.store(used as u32 + 1, Ordering::SeqCst);
        Some(slot)
    }

    /// The slots that may be set. SeqCst loads: see [`PinSlots::scan`].
    fn scan(&self) -> impl Iterator<Item = u32> + '_ {
        let used = self.used.load(Ordering::SeqCst) as usize;
        self.slots[..used].iter().map(|s| s.load(Ordering::SeqCst))
    }
}

const _: () = assert!(std::mem::size_of::<CachePadded<SlotLine>>() == 64);
const _: () = assert!(SLOT_LINES <= u64::BITS as usize);

/// Where hits publish their pins: one line per session, written only by
/// the session that owns it (a nonzero value) and by the guards it
/// handed out (a zero). A hit's pin and unpin therefore write no line
/// another thread writes. Paths that need a frame to have no readers
/// make the frame unpinnable on its header first and then scan the live
/// lines ([`BufferPool::slot_pinned`]).
struct PinSlots {
    lines: Box<[CachePadded<SlotLine>]>,
    /// Bit `i` set: a live session owns line `i`. Claims and releases
    /// serialize on this lock; a session lives as long as its thread or
    /// connection, so no per-operation path takes it.
    owned: Mutex<u64>,
    /// Bit `i` set: line `i` may hold a pin — a live session owns it, or
    /// a guard that outlived its session still holds a slot there. The
    /// scans read only these lines, so their cost follows the sessions
    /// live now, not the most that ever were. Written under `owned`.
    live: AtomicU64,
}

impl PinSlots {
    fn new() -> Self {
        PinSlots {
            lines: (0..SLOT_LINES)
                .map(|_| CachePadded::new(Default::default()))
                .collect(),
            owned: Mutex::new(0),
            live: AtomicU64::new(0),
        }
    }

    fn owned(&self) -> std::sync::MutexGuard<'_, u64> {
        // Nothing panics under the lock; a poisoned one is still sound.
        self.owned.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the lowest free line, if there is one. The line joins `live`
    /// before its owner's first slot store: a scan that reads `live`
    /// without it comes before that store in the SeqCst order, so its
    /// latch came first too and the owner's hit sees it.
    fn claim(&self) -> Option<usize> {
        let mut owned = self.owned();
        let line = (!*owned).trailing_zeros() as usize;
        if line >= SLOT_LINES {
            return None;
        }
        *owned |= 1 << line;
        // With no slot set (none can be set until the new owner pins),
        // the new owner's scans start from nothing.
        let slots = &self.lines[line];
        if slots.scan().all(|s| s == 0) {
            slots.used.store(0, Ordering::SeqCst);
        }
        self.live.fetch_or(1 << line, Ordering::SeqCst);
        Some(line)
    }

    /// Give `line` up, and drop from `live` every line that no session
    /// owns and no slot of which is set. Such a line stays all zero
    /// until a claim, which takes this lock and sets its bit again: an
    /// unowned line's slots only ever clear.
    fn release(&self, line: usize) {
        let mut owned = self.owned();
        *owned &= !(1 << line);
        let live = (0..SLOT_LINES)
            .filter(|&i| *owned & 1 << i != 0 || self.lines[i].scan().any(|s| s != 0))
            .fold(0, |live, i| live | 1 << i);
        self.live.store(live, Ordering::SeqCst);
    }

    /// The slots of every line that may hold a pin. SeqCst loads: the
    /// caller made the frame unpinnable with a SeqCst CAS or fence,
    /// which pairs with a hit's SeqCst slot store and header load.
    fn scan(&self) -> impl Iterator<Item = u32> + '_ {
        let live = self.live.load(Ordering::SeqCst);
        self.lines
            .iter()
            .enumerate()
            .filter(move |&(i, _)| live & 1 << i != 0)
            .flat_map(|(_, line)| line.scan())
    }
}

/// A DBMS-style buffer pool generic over its replacement manager.
pub struct BufferPool<M: ReplacementManager> {
    /// Page → frame map. A shard's partition lock serializes victim
    /// selection and rebinding (not the I/O) for the pages that hash
    /// there, and is the miss path's only lock: misses on pages in
    /// different shards run their whole slow path concurrently. No
    /// thread holds two partition locks, so no deadlock can arise.
    table: PageTable,
    /// Frame `f`'s descriptor, on a line of its own.
    descs: Vec<CachePadded<BufferDesc>>,
    /// Every frame's bytes, backed only once first touched.
    data: FrameBytes,
    free: FreeList,
    manager: M,
    storage: Arc<dyn Storage>,
    stats: PoolStats,
    /// Frames held in sessions' stashes: evicted ahead of need, not yet
    /// refilled. A gauge, striped because a miss moves it.
    stashed: StripedCounter,
    slots: PinSlots,
    page_size: usize,
}

impl<M: ReplacementManager> BufferPool<M> {
    /// Build a pool of `frames` frames of `page_size` bytes each, with
    /// one page-table shard per four frames.
    pub fn new(frames: usize, page_size: usize, manager: M, storage: Arc<dyn Storage>) -> Self {
        assert!(frames >= 1);
        BufferPool {
            table: PageTable::new(frames / 4),
            descs: (0..frames)
                .map(|_| CachePadded::new(BufferDesc::new()))
                .collect(),
            data: FrameBytes::new(frames, page_size),
            free: FreeList::new(frames),
            manager,
            storage,
            stats: PoolStats::default(),
            stashed: StripedCounter::default(),
            slots: PinSlots::new(),
            page_size,
        }
    }

    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.descs.len()
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

    /// Aggregate contention profile of the miss path, summed over the
    /// page table's partition locks: a miss's guard, each victim's
    /// unmap, invalidations, repairs, and the rare page-table read that
    /// falls back to the lock.
    pub fn miss_lock_snapshot(&self) -> LockSnapshot {
        self.miss_lock_shard_snapshots()
            .iter()
            .fold(LockSnapshot::default(), |acc, s| acc.merge(s))
    }

    /// Per-shard partition-lock snapshots, in shard order.
    pub fn miss_lock_shard_snapshots(&self) -> Vec<LockSnapshot> {
        self.table.lock_snapshots()
    }

    /// Shard-aware partition-lock summary (totals + hottest shard).
    pub fn miss_lock_summary(&self) -> LockShardSummary {
        LockShardSummary::from_snapshots(&self.miss_lock_shard_snapshots())
    }

    /// Always 0: the free list is one FIFO and has nothing to steal
    /// from. Kept only for the benchmark's layer report, which reads it.
    #[doc(hidden)]
    pub fn free_list_steals(&self) -> u64 {
        0
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
    /// BP-Wrapper private queue for wrapped managers, and a line of pin
    /// slots while fewer than 64 other sessions hold one).
    pub fn session(&self) -> PoolSession<'_, M> {
        PoolSession {
            pool: self,
            handle: self.manager.handle(),
            stash: Vec::new(),
            evicted: Vec::new(),
            pinned: Vec::new(),
            slots: self
                .slots
                .claim()
                .map(|line| (line, &*self.slots.lines[line])),
        }
    }

    /// Does a hit's slot pin frame `f`? Only meaningful while the caller
    /// holds `f`'s `LK` latch or `WRITING` bit: then a hit that this
    /// scan misses sees the bit and gives its slot up.
    fn slot_pinned(&self, f: FrameId) -> bool {
        self.slots.scan().any(|s| s == f + 1)
    }

    /// Every pin on frame `f`: its header pins and the slots that hold
    /// it (a racy count; tests).
    pub(crate) fn pin_count(&self, f: FrameId) -> u32 {
        self.desc(f).pins() + self.slots.scan().filter(|&s| s == f + 1).count() as u32
    }

    /// Drop `page` from the buffer (e.g. relation truncation),
    /// distinguishing "nothing to drop" from "in use right now" so
    /// callers know whether a retry can help. Serializes on the page's
    /// own partition lock only.
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
        let mut guard = self.table.lock(page);
        bpw_dst::yield_point();
        let Some(frame) = guard.get(page) else {
            return InvalidateOutcome::NotResident;
        };
        bpw_dst::yield_point();
        {
            let mut s = self.desc(frame).lock();
            if s.pins > 0 || s.io_in_progress || !(s.valid && s.tag == page) {
                return InvalidateOutcome::Busy;
            }
            // MUTANT (CI-verified) `invalidate_ignores_slots`: free a
            // frame a hit still reads.
            if !cfg!(dst_mutation = "invalidate_ignores_slots") && self.slot_pinned(frame) {
                return InvalidateOutcome::Busy;
            }
            s.valid = false;
            s.dirty = false;
        }
        guard.remove(page);
        self.manager.invalidate(frame);
        self.free.push(frame);
        InvalidateOutcome::Invalidated
    }

    /// Frame `f`'s descriptor.
    #[inline]
    pub(crate) fn desc(&self, f: FrameId) -> &BufferDesc {
        &self.descs[f as usize]
    }

    /// Frame `f`'s bytes, to read.
    ///
    /// # Safety
    /// No writer may hold the bytes while the slice lives: the caller
    /// holds a pin of `f`, or `f` cannot be pinned (see [`bytes_mut`]).
    ///
    /// [`bytes_mut`]: Self::bytes_mut
    #[inline]
    unsafe fn bytes(&self, f: FrameId) -> &[u8] {
        // SAFETY: frame `f`'s `page_size` bytes are inside the mapping,
        // and the caller excludes writers, so no `&mut` to them exists
        // while this one lives.
        unsafe { std::slice::from_raw_parts(self.data.frame(f), self.page_size) }
    }

    /// Frame `f`'s bytes, to write.
    ///
    /// # Safety
    /// No one else may reach the bytes while the slice lives: the caller
    /// holds `f`'s write latch, or `f` cannot be pinned — `IO` is set
    /// with the caller's pin the only one, or `f` is invalid with no
    /// pins — and the caller is the one thread working on it.
    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusion is the caller's, per `# Safety`
    unsafe fn bytes_mut(&self, f: FrameId) -> &mut [u8] {
        // SAFETY: frame `f`'s `page_size` bytes are inside the mapping,
        // and the caller's exclusion makes this the only reference.
        unsafe { std::slice::from_raw_parts_mut(self.data.frame(f), self.page_size) }
    }

    /// Run `op` with up to `MAX_IO_RETRIES` retries and exponential
    /// backoff, counting each retry in `io_retries` and an exhausted
    /// run in `io_errors`.
    pub(crate) fn io_with_retries(&self, mut op: impl FnMut() -> io::Result<()>) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempt >= MAX_IO_RETRIES {
                        self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    self.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(IO_BASE_BACKOFF * (1 << attempt));
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
        let mut guard = self.table.lock(page);
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
        guard.remove(page);
        self.manager.invalidate(frame);
        // To the back of the list: the frame just hosted a failing I/O,
        // and handing it straight to the next miss would let one bad
        // page monopolize a single frame.
        self.free.push(frame);
    }

    /// Number of valid resident pages (O(frames); tests).
    pub fn resident_count(&self) -> usize {
        self.descs.iter().filter(|d| d.snapshot().valid).count()
    }

    /// Frames currently on the free list: never used, or returned by
    /// [`invalidate`](Self::invalidate), by repair after a failed read,
    /// or from a dropped session's stash.
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
    /// Scratch for the frames the victim check's slot scan found pinned.
    pinned: Vec<FrameId>,
    /// The line of pin slots this session owns, and its index; `None`
    /// when every line was taken, and then hits pin through the header.
    slots: Option<(usize, &'p SlotLine)>,
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
    /// lookup and one pin attempt — never a partition lock, never storage,
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
    /// (striped counter, replacement advice, dst record). The pin goes
    /// into a free slot of this session's line; with none free, into
    /// the frame's header.
    #[inline]
    fn pin_hit(&mut self, page: PageId, frame: FrameId) -> Option<PinnedPage<'p, M>> {
        let desc = self.pool.desc(frame);
        let free = self.slots.and_then(|(_, line)| line.free_slot());
        let slot = match free {
            Some(slot) => {
                // Publish, then validate: SeqCst store before the SeqCst
                // header load, the reader's half of the Dekker pairing
                // with the scans (`check_slot_pin`). The MUTANT
                // `slot_published_late` (CI-verified) swaps the two, so
                // an evictor's scan can pass between them.
                let late = cfg!(dst_mutation = "slot_published_late");
                if !late {
                    slot.store(frame + 1, Ordering::SeqCst);
                    bpw_dst::yield_point();
                }
                let valid = desc.check_slot_pin(page);
                if late {
                    bpw_dst::yield_point();
                    slot.store(frame + 1, Ordering::SeqCst);
                }
                if !valid {
                    slot.store(0, Ordering::Release);
                    return None;
                }
                bpw_dst::record(|| bpw_dst::Op::Pin {
                    page,
                    pins: self.pool.pin_count(frame),
                });
                Some(slot)
            }
            None => {
                let attempt = desc.try_pin(page);
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
                None
            }
        };
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
            slot: Cell::new(slot),
            access: RefCell::new(()),
        })
    }

    /// Slow path. Returns `Ok(None)` when the state changed underfoot
    /// (the caller retries), `Err` when storage failed after retries.
    fn fetch_miss(&mut self, page: PageId) -> io::Result<Option<PinnedPage<'p, M>>> {
        let pool = self.pool;
        let mut guard = pool.table.lock(page);
        bpw_dst::yield_point();
        // Re-check: another thread may have loaded the page while we
        // waited for its partition lock. (MUTANT, CI-verified:
        // `unguarded_recheck` trusts `fetch`'s lock-free lookup instead,
        // so two misses on one page both claim a frame.)
        if !cfg!(dst_mutation = "unguarded_recheck") && guard.get(page).is_some() {
            return Ok(None); // retry via the hit path
        }
        guard.cover_accesses(1);
        // A frame no manager tracks — this session's stash first, then
        // the free list — is admitted once its read succeeds. Only when
        // there is none does the manager evict.
        let stashed = self.stash.pop();
        let popped = stashed.or_else(|| pool.free.pop());
        let (frame, victim) = match popped {
            Some(f) => (f, None),
            // Victim filter: frames with header pins or in I/O are
            // rejected; each accepted frame is atomically invalidated
            // under its latch so no new pin can slip in after selection.
            // Slot pins are checked once the replacement lock is gone,
            // in one scan for all the victims (`check_victims`).
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
                MissOutcome::Evicted { frame, victim } => {
                    match self.check_victims(page, frame, victim) {
                        Some((frame, victim)) => (frame, Some(victim)),
                        // A hit holds every victim: retry, as when no
                        // frame was evictable.
                        None => return Ok(None),
                    }
                }
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
        guard.insert(page, frame);
        // I/O happens outside the partition lock: other misses proceed.
        drop(guard);
        // The frame is now mapped with io_in_progress set and the
        // partition lock released — the window where concurrent
        // fetchers of the same page spin on the unpinnable mapping and
        // invalidate must report Busy. The victim still maps to the
        // frame too, so a re-fetch of it spins the same way.
        bpw_dst::yield_point();
        if let Some(v) = victim {
            // A clean victim leaves the table now, under its own
            // partition lock and before any I/O, so no error return
            // leaves it mapped. A dirty one stays mapped to this (now
            // unpinnable) frame until its bytes are durable: a re-fetch
            // of `v` then spins on the mapping like a same-page fetcher
            // during I/O instead of reading the stale copy from storage.
            // (The `dst_mutation = "early_unmap"` mutant unmaps it here,
            // before the write-back, which the dst read-your-writes
            // checker must catch.)
            if !was_dirty || cfg!(dst_mutation = "early_unmap") {
                pool.table.lock(v).remove(v);
            }
        }
        self.stash_evicted();
        // Miss I/O is timed on every miss: the stage scratch is how the
        // server attributes a request's latency to disk time, and two
        // clock reads are noise next to a storage round trip.
        let io_t0 = std::time::Instant::now();
        // SAFETY: `IO` is set and the pin is this call's own, so every
        // other pin fails (`try_pin` and `check_slot_pin` reject `IO`)
        // and nobody can read or write the bytes until the miss
        // completes or is repaired.
        let data = unsafe { pool.bytes_mut(frame) };
        if was_dirty {
            let v = victim.expect("dirty implies eviction");
            let written = pool.io_with_retries(|| pool.storage.write_page(v, data));
            bpw_dst::yield_point();
            if let Err(e) = written {
                bpw_trace::stage::add_miss_io(io_t0.elapsed().as_nanos() as u64);
                self.keep_victim(page, v, frame);
                return Err(e);
            }
            // Only now may a fetch of `v` go to storage. Nobody can have
            // rebound `v` meanwhile: a miss on `v` backs off while any
            // mapping for it exists.
            if !cfg!(dst_mutation = "early_unmap") {
                pool.table.lock(v).remove(v);
            }
            pool.stats.writebacks.incr();
        }
        let read = pool.io_with_retries(|| pool.storage.read_page(page, &mut *data));
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
        bpw_trace::stage::add_miss_io(io_t0.elapsed().as_nanos() as u64);
        bpw_dst::record(|| bpw_dst::Op::FetchDone {
            page,
            frame,
            hit: false,
        });
        Ok(Some(PinnedPage {
            pool,
            frame,
            page,
            slot: Cell::new(None),
            access: RefCell::new(()),
        }))
    }

    /// The slot check of the victims the last `on_evict` took: `frame`,
    /// which the manager filled with `page`, and those ahead of need in
    /// `self.evicted`. One scan covers them all. A victim that a pin
    /// still holds gets its page back, the way a failed write-back does,
    /// and leaves `self.evicted`. Returns the frame and victim this miss
    /// fills: `frame`'s, or if a pin holds it, an ahead victim's, which
    /// the manager is told `page` moved into; `None` if a pin holds
    /// every victim.
    fn check_victims(
        &mut self,
        page: PageId,
        frame: FrameId,
        victim: PageId,
    ) -> Option<(FrameId, PageId)> {
        // The filter cleared each victim's VALID before this fence,
        // which pairs with a hit's SeqCst slot store and header load:
        // either the scan below sees the hit's slot, or the hit sees
        // the frame invalid and gives the slot up. (MUTANT, CI-verified:
        // `evict_ignores_slots` skips the scan.)
        fence(Ordering::SeqCst);
        self.pinned.clear();
        if !cfg!(dst_mutation = "evict_ignores_slots") {
            let slots = self.pool.slots.scan().filter(|&s| s != 0);
            self.pinned.extend(slots.map(|s| s - 1));
        }
        let mut i = 0;
        while i < self.evicted.len() {
            let (f, v) = self.evicted[i];
            if self.victim_held(f) {
                self.evicted.swap_remove(i);
                self.readmit(v, f);
            } else {
                i += 1;
            }
        }
        if !self.victim_held(frame) {
            return Some((frame, victim));
        }
        self.pool.manager.invalidate(frame);
        self.readmit(victim, frame);
        let (f, v) = self.evicted.pop()?;
        self.handle.on_readmit(page, f);
        Some((f, v))
    }

    /// Does a pin hold victim `f`, by the last scan or by its header? The
    /// header is read after the scan: a writer moves its slot pin to the
    /// header before it clears the slot (all SeqCst), so a scan that
    /// missed the slot is followed by a header load that sees the pin.
    fn victim_held(&self, f: FrameId) -> bool {
        self.pinned.contains(&f) || self.pool.desc(f).pins() > 0
    }

    /// Give evicted frame `frame` back to its page `v`: its bytes and
    /// mapping are still there.
    fn readmit(&mut self, v: PageId, frame: FrameId) {
        // Admit before revalidating: until the descriptor is valid
        // again, invalidate answers Busy and cannot free the frame under
        // the admission.
        self.handle.on_readmit(v, frame);
        self.pool.desc(frame).lock().valid = true;
    }

    /// Settle the victims the last `on_evict` took ahead of need, and
    /// stash their frames. The filter left each invalid; a clean one is
    /// unmapped now, a dirty one stays mapped — so a re-fetch waits —
    /// until its write-back returns. A write-back that fails leaves the
    /// victim in its frame, dirty, re-admitted.
    fn stash_evicted(&mut self) {
        let pool = self.pool;
        while let Some((frame, v)) = self.evicted.pop() {
            if pool.desc(frame).lock().dirty {
                // SAFETY: the victim filter left the frame invalid with no
                // pins of either kind, and both kinds reject an invalid
                // frame: nobody can write the bytes while they are stored.
                let data = unsafe { pool.bytes(frame) };
                let written = pool.io_with_retries(|| pool.storage.write_page(v, data));
                bpw_dst::yield_point();
                if written.is_err() {
                    self.readmit(v, frame);
                    continue;
                }
                pool.desc(frame).lock().dirty = false;
                pool.stats.writebacks.incr();
            }
            pool.table.lock(v).remove(v);
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
        let mut guard = pool.table.lock(page);
        guard.remove(page);
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
        // Guards that outlive the session still clear their own slots;
        // the line's next owner uses only the zero ones.
        if let Some((line, _)) = self.slots {
            self.pool.slots.release(line);
        }
        // The `dst_mutation = "stash_leak"` mutant forgets the stash here:
        // its frames then belong to nobody, which the dst miss storm's
        // frame accounting must catch.
        if cfg!(dst_mutation = "stash_leak") {
            return;
        }
        self.pool.stashed.sub(self.stash.len() as u64);
        for frame in self.stash.drain(..) {
            self.pool.free.push(frame);
        }
    }
}

/// A pinned page: read/write access to the frame contents; unpins on
/// drop. The pin is the read latch, so a read locks nothing.
pub struct PinnedPage<'p, M: ReplacementManager> {
    pool: &'p BufferPool<M>,
    frame: FrameId,
    page: PageId,
    /// The slot holding this guard's pin, or `None` for a header pin.
    /// The guard clears it itself, so it may outlive its session or be
    /// dropped on another thread.
    slot: Cell<Option<&'p AtomicU32>>,
    /// Nested access through this one guard (a write inside a read, or a
    /// read inside a write) would alias the bytes under one pin: it
    /// panics instead. Also keeps the guard to one thread at a time.
    access: RefCell<()>,
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

    /// Read the page contents, under this guard's pin alone.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let _shared = self.access.borrow();
        // SAFETY: this guard's pin is held, and a writer waits for every
        // pin that is not a writer's before it touches the bytes.
        f(unsafe { self.pool.bytes(self.frame) })
    }

    /// Mutate the page contents and mark the page dirty.
    ///
    /// A write waits for the page's other pins: readers finish, other
    /// writers go one at a time, and no new pin lands until it is done.
    /// So a thread must not write a page through one guard while it
    /// holds a second guard of the same page — the write would wait for
    /// that pin forever.
    pub fn write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let _exclusive = self.access.borrow_mut();
        let desc = self.pool.desc(self.frame);
        if let Some(slot) = self.slot.take() {
            // A writer's pin is a header pin: move it there first, so
            // the write never waits on its own slot. SeqCst, like the
            // header CAS before it: a victim check whose scan reads the
            // cleared slot then sees the header pin.
            desc.add_pin_held();
            slot.store(0, Ordering::SeqCst);
        }
        let _latch = desc.write_latch(|| self.pool.slot_pinned(self.frame));
        // SAFETY: the write latch holds the bytes: every other pin of the
        // frame is a writer's queued behind this one, and no pin can land.
        f(unsafe { self.pool.bytes_mut(self.frame) })
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
        if let Some(slot) = self.slot.get() {
            // Release: this guard's reads come before a writer's or an
            // evictor's scan that finds the slot free.
            slot.store(0, Ordering::Release);
            bpw_dst::record(|| bpw_dst::Op::Unpin {
                page: self.page,
                pins: self.pool.pin_count(self.frame),
            });
        } else if self.pool.desc(self.frame).unpin() == UnpinOutcome::Underflow {
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
    #[should_panic(expected = "already borrowed")]
    fn a_write_inside_a_read_of_the_same_guard_panics_instead_of_aliasing() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        let p = s.fetch(3).unwrap();
        p.read(|_| p.write(|d| d[0] = 1));
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
        // Each failed attempt takes page 100's partition lock once;
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
        );
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

        // On a full pool the failing miss evicts a clean victim first,
        // which leaves the table before any I/O: the failure must not
        // leave it mapped to the repaired frame, where a re-fetch spins.
        for page in 10..10 + frames as PageId {
            drop(s.fetch(page).unwrap());
        }
        assert_eq!(pool.free_frames(), 0, "the pool must be full");
        disk.break_page_reads(99);
        s.fetch(99).expect_err("broken page must error");
        let victim = (10..10 + frames as PageId)
            .find(|&p| pool.table.get(p).is_none())
            .expect("the failed miss left its victim mapped");
        assert_eq!(pool.table.get(99), None);
        pool.check_mapping_invariants();
        let live = pool.free_frames() + pool.stashed_frames() + pool.resident_count();
        assert_eq!(live, frames);
        let p = s.fetch(victim).unwrap();
        p.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), victim));
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
        );
        let stats = pool.stats();
        disk.fail_next_reads(MAX_IO_RETRIES as u64); // the whole retry budget
        let mut s = pool.session();
        let p = s.fetch(9).expect("transient faults must be retried");
        p.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), 9));
        drop(p);
        assert_eq!(stats.io_retries.load(Ordering::Relaxed), 3);
        assert_eq!(stats.io_errors.load(Ordering::Relaxed), 0);
        assert_eq!(stats.misses.load(Ordering::Relaxed), 1);
        // One fault more than the budget surfaces, and repairs the frame.
        disk.fail_next_reads(MAX_IO_RETRIES as u64 + 1);
        s.fetch(10)
            .expect_err("a fault past the budget must surface");
        assert_eq!(stats.io_errors.load(Ordering::Relaxed), 1);
        assert_eq!(pool.free_frames() + pool.resident_count(), pool.frames());
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
        );
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
        );
        // Only the reads in flight when the faults run out (one per
        // thread, at most MAX_IO_RETRIES faults each) can succeed after a
        // fault; every other read that meets one uses up its budget and
        // errs, so these many faults make at least one fetch err.
        disk.fail_next_reads(4 * (MAX_IO_RETRIES as u64 + 1));
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
        assert!(pool.stats().io_errors.load(Ordering::Relaxed) >= 1);
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
        // frame: repair returns the failed frame to the back of the free
        // list, so every attempt claims a fresh frame. The repair leaves
        // the frame's tag as a remnant, which lets the test count
        // distinct frames the bad page touched.
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
        );
        let bad = 7u64;
        disk.break_page_reads(bad);
        let mut s = pool.session();
        for _ in 0..frames - 1 {
            s.fetch(bad).expect_err("broken page must error");
        }
        let touched = (0..frames)
            .filter(|&f| pool.desc(f as FrameId).snapshot().tag == bad)
            .count();
        assert_eq!(
            touched,
            frames - 1,
            "each of {} failures must land on a fresh frame",
            frames - 1
        );
        assert_eq!(pool.free_frames(), frames, "every failure fully repaired");
    }

    #[test]
    fn miss_shards_partition_and_aggregate() {
        // 64 cold pages through 16 frames, and the `pool_miss_rw` shape:
        // 2 048 frames, a seeded uniform trace over 16 384 pages, one
        // thread. Only the second has enough acquisitions per shard
        // (~200) for the even-spread bound; the first's hottest of 16
        // shards takes 16 of 112.
        let uniform = uniform_trace(60_000, 16_384);
        let cold: Vec<u64> = (0..64).collect();
        for (frames, trace, even) in [(16, &cold, false), (2048, &uniform, true)] {
            let pool = pool_2q(frames);
            let mut s = pool.session();
            for &p in trace {
                drop(s.fetch(p).unwrap());
            }
            drop(s);
            let misses = counts(&pool).1;
            let acqs: Vec<u64> = pool
                .miss_lock_shard_snapshots()
                .iter()
                .map(|s| s.acquisitions)
                .collect();
            // One partition-lock acquisition per miss, its guard, and
            // one per victim, its unmap; every miss on the full pool
            // evicts one. The merged views agree with the per-shard ones.
            let locked = 2 * misses - frames as u64;
            assert_eq!(acqs.iter().sum::<u64>(), locked);
            assert_eq!(pool.miss_lock_snapshot().acquisitions, locked);
            let summary = pool.miss_lock_summary();
            assert_eq!(summary.shards, acqs.len());
            assert_eq!(summary.total_acquisitions, locked);
            pool.check_mapping_invariants();
            let touched = acqs.iter().filter(|&&a| a > 0).count();
            assert!(touched > 1, "misses must spread over multiple shards");
            if even {
                let fair = locked / acqs.len() as u64;
                let hottest = *acqs.iter().max().unwrap();
                assert!(
                    hottest <= 2 * fair,
                    "hottest shard took {hottest} acquisitions, fair share {fair}"
                );
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
        // Every miss past the first `frames` fills a victim's frame, and
        // the stash holds the victims evicted ahead and not filled yet.
        let victims = misses - frames as u64 + pool.stashed_frames() as u64;
        assert!(
            acqs <= misses.div_ceil(k) + (hits + misses).div_ceil(t),
            "{acqs} replacement-lock acquisitions for {misses} misses in {} accesses",
            hits + misses
        );
        assert_eq!(pool.miss_lock_snapshot().acquisitions, misses + victims);
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

    /// The header pins and all pins of the frame holding `page`.
    fn pins_of<M: ReplacementManager>(pool: &BufferPool<M>, page: PageId) -> (u32, u32) {
        let frame = pool.table.get(page).expect("resident");
        (pool.desc(frame).snapshot().pins, pool.pin_count(frame))
    }

    #[test]
    fn a_hit_pins_through_its_session_slot_and_leaves_the_header_alone() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        let miss = s.fetch(1).unwrap();
        assert_eq!(pins_of(&pool, 1), (1, 1), "a miss pins through the header");
        let hit = s.fetch(1).unwrap();
        assert_eq!(pins_of(&pool, 1), (1, 2), "a hit writes no header");
        drop(miss);
        assert_eq!(pins_of(&pool, 1), (0, 1));
        hit.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), 1));
        drop(hit);
        assert_eq!(pins_of(&pool, 1), (0, 0));
        assert_eq!(pool.stats().pin_cas_retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_65th_session_and_a_16th_guard_pin_through_the_header() {
        let pool = pool_2q(4);
        drop(pool.session().fetch(1).unwrap());
        let sessions: Vec<_> = (0..SLOT_LINES).map(|_| pool.session()).collect();
        assert!(sessions.iter().all(|s| s.slots.is_some()));
        let mut extra = pool.session();
        assert!(extra.slots.is_none(), "every line is owned");
        let held = extra.fetch(1).unwrap();
        assert_eq!(
            pins_of(&pool, 1),
            (1, 1),
            "a session without a line pins the header"
        );
        drop(held);
        drop(sessions);
        drop(extra);

        let mut s = pool.session();
        let guards: Vec<_> = (0..SLOTS).map(|_| s.fetch(1).unwrap()).collect();
        assert_eq!(pins_of(&pool, 1), (0, SLOTS as u32), "one slot per guard");
        let seventeenth = s.fetch(1).unwrap();
        assert_eq!(pins_of(&pool, 1), (1, SLOTS as u32 + 1));
        drop(guards);
        assert_eq!(pins_of(&pool, 1), (1, 1));
        drop(seventeenth);
        assert_eq!(pins_of(&pool, 1), (0, 0));
    }

    #[test]
    fn eviction_invalidate_and_writes_respect_slot_and_header_pins() {
        for slot in [true, false] {
            let pool = pool_2q(2);
            let mut s = pool.session();
            if slot {
                drop(s.fetch(1).unwrap());
            }
            // A hit of a warm page pins a slot, a miss the header.
            let held = s.fetch(1).unwrap();
            assert_eq!(pins_of(&pool, 1), (u32::from(!slot), 1));
            assert_eq!(pool.invalidate(1), InvalidateOutcome::Busy, "slot {slot}");
            for p in 10..20u64 {
                drop(s.fetch(p).unwrap()); // must always evict the other frame
            }
            assert_eq!(held.frame(), pool.table.get(1).unwrap(), "slot {slot}");
            let wrote = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    let mut w = pool.session();
                    w.fetch(1).unwrap().write(|d| d[9] = 0x5A);
                    wrote.store(true, Ordering::Release);
                });
                std::thread::sleep(Duration::from_millis(20));
                assert!(!wrote.load(Ordering::Acquire), "a write ran under a pin");
                held.read(|d| assert_ne!(d[9], 0x5A));
                drop(held);
            });
            assert!(wrote.load(Ordering::Acquire));
            assert_eq!(pins_of(&pool, 1), (0, 0));
            assert_eq!(pool.invalidate(1), InvalidateOutcome::Invalidated);
        }
    }

    #[test]
    fn a_write_through_a_slot_pin_moves_the_pin_to_the_header() {
        let pool = pool_2q(2);
        let mut s = pool.session();
        drop(s.fetch(1).unwrap());
        let p = s.fetch(1).unwrap();
        assert_eq!(pins_of(&pool, 1), (0, 1));
        p.write(|d| d[9] = 7);
        assert_eq!(
            pins_of(&pool, 1),
            (1, 1),
            "the writer's pin is a header pin"
        );
        assert!(pool.desc(p.frame()).snapshot().dirty);
        drop(p);
        assert_eq!(pins_of(&pool, 1), (0, 0));
    }

    #[test]
    fn a_guard_frees_its_slot_after_its_session_or_on_another_thread() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        for p in [1u64, 2] {
            drop(s.fetch(p).unwrap());
        }
        let (outlives, travels) = (s.fetch(1).unwrap(), s.fetch(2).unwrap());
        drop(s);
        assert_eq!(pins_of(&pool, 1), (0, 1));
        drop(outlives);
        assert_eq!(pins_of(&pool, 1), (0, 0));
        std::thread::scope(|sc| {
            sc.spawn(move || drop(travels));
        });
        assert_eq!(pins_of(&pool, 2), (0, 0));
        assert_eq!(pool.invalidate(1), InvalidateOutcome::Invalidated);
        assert_eq!(pool.invalidate(2), InvalidateOutcome::Invalidated);
    }

    #[test]
    fn the_slot_scan_reads_only_the_lines_live_now() {
        let pool = pool_2q(4);
        let live = || pool.slots.live.load(Ordering::Relaxed);
        let sessions: Vec<_> = (0..SLOT_LINES).map(|_| pool.session()).collect();
        assert_eq!(live(), u64::MAX);
        drop(sessions);
        assert_eq!(live(), 0, "the bound falls with the sessions");

        // A line whose guard outlived its session stays scanned until a
        // later release finds it clear.
        let mut s = pool.session();
        drop(s.fetch(1).unwrap());
        let outlives = s.fetch(1).unwrap();
        let other = pool.session();
        drop(s);
        assert_eq!(live(), 0b11, "line 0 still holds a slot");
        assert_eq!(pool.invalidate(1), InvalidateOutcome::Busy);
        drop(outlives);
        drop(other);
        assert_eq!(live(), 0);
    }

    #[test]
    fn one_scan_per_eviction_keeps_every_slot_pinned_victim() {
        // Wrapped 2Q evicts k frames per replacement-lock acquisition;
        // whichever of them a hit still reads goes back to its page, and
        // the wrapper counts each access once.
        let frames = 16;
        let pool = BufferPool::new(
            frames,
            64,
            WrappedManager::new(TwoQ::new(frames), WrapperConfig::default()),
            Arc::new(SimDisk::instant()),
        );
        let mut reader = pool.session();
        let held: Vec<_> = (0..4u64)
            .map(|p| {
                drop(reader.fetch(p).unwrap());
                reader.fetch(p).unwrap()
            })
            .collect();
        assert!(held.iter().all(|g| g.slot.get().is_some()));
        let mut s = pool.session();
        let mut evicted_ahead = false;
        for p in 100..400u64 {
            drop(s.fetch(p).unwrap());
            evicted_ahead |= pool.stashed_frames() > 0;
        }
        assert!(evicted_ahead, "nothing was evicted ahead; vacuous");
        let (hits, misses) = counts(&pool);
        s.flush();
        assert_eq!(
            pool.manager().wrapper().counters().accesses.get(),
            hits + misses,
            "a victim given back is no access of its own"
        );
        for (p, g) in (0..4u64).zip(&held) {
            assert_eq!(
                pool.table.get(p),
                Some(g.frame()),
                "page {p} lost its frame"
            );
            g.read(|d| assert_eq!(u64::from_le_bytes(d[..8].try_into().unwrap()), p));
        }
        drop(held);
        drop((reader, s));
        assert_eq!(pool.free_frames() + pool.resident_count(), frames);
        pool.check_mapping_invariants();
    }

    #[test]
    fn a_new_session_reuses_a_line_that_still_has_a_live_slot() {
        let pool = pool_2q(4);
        let mut s = pool.session();
        for p in [1u64, 2] {
            drop(s.fetch(p).unwrap());
        }
        let old = s.fetch(1).unwrap();
        let line = s.slots.unwrap().0;
        drop(s);
        let mut s = pool.session();
        assert_eq!(s.slots.unwrap().0, line, "the freed line is taken again");
        let new = s.fetch(2).unwrap();
        assert_eq!(pins_of(&pool, 1), (0, 1), "the old guard's slot is kept");
        assert_eq!(pins_of(&pool, 2), (0, 1));
        drop(old);
        assert_eq!(pins_of(&pool, 1), (0, 0));
        assert_eq!(pins_of(&pool, 2), (0, 1));
        drop(new);
        assert_eq!(pins_of(&pool, 2), (0, 0));
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

    extern "C" {
        fn mincore(addr: *mut std::ffi::c_void, len: usize, vec: *mut u8) -> i32;
    }

    #[test]
    fn a_pool_keeps_resident_only_the_frames_it_filled() {
        let (frames, page_size, filled) = (1024, 4096, 256);
        let pool = BufferPool::new(
            frames,
            page_size,
            CoarseManager::new(TwoQ::new(frames)),
            Arc::new(SimDisk::instant()),
        );
        let mut s = pool.session();
        for page in 0..filled as u64 {
            drop(s.fetch(page).unwrap());
        }
        let (base, len) = pool.data.mapping();
        let mut pages = vec![0u8; len.div_ceil(4096)];
        // SAFETY: `base..base + len` is mapped, and `pages` holds one
        // byte per 4 KiB page of it.
        let ret = unsafe { mincore(base.cast(), len, pages.as_mut_ptr()) };
        assert_eq!(ret, 0, "mincore: {}", io::Error::last_os_error());
        let resident = pages.iter().filter(|&&p| p & 1 != 0).count() * 4096;
        // The free list hands out frames 0, 1, ... in order, so the
        // filled frames are the mapping's first `filled` strides: one
        // huge page when the kernel backs them with one.
        let bound = (filled * (len / frames)).next_multiple_of(2 << 20);
        assert!(
            (filled * page_size..=bound).contains(&resident),
            "{resident} of the mapping's {len} bytes resident with {filled} of \
             {frames} frames filled; expected at most {bound}"
        );
    }
}
