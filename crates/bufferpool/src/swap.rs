//! Hot-swapping the replacement manager under live traffic.
//!
//! [`SwapManager`] wraps any [`ReplacementManager`] and adds one
//! capability: atomically replacing it with a successor while worker
//! threads keep hitting the pool, without adding a single lock
//! acquisition to the steady-state hit path. The protocol (DESIGN.md
//! §16) is a generation-stamped epoch scheme:
//!
//! * Every per-thread [`SwapHandle`] owns a cache-padded epoch **cell**.
//!   Before touching the inner manager it *enters*: publish
//!   `generation + 1` into the cell, then re-read the generation
//!   (a Dekker-style store/load handshake against the swapper's
//!   install). On exit the cell returns to 0. Steady state is two
//!   relaxed-cost atomic loads and two stores — no locks.
//! * The swapper installs the successor (new generation), then waits
//!   for **quiescence**: every cell either idle or entered under the
//!   *new* generation. Only then is the old manager retired.
//! * Retirement drains the old manager's combining publication board
//!   ([`ReplacementManager::take_published`]) and replays the stranded
//!   advice into the successor — the coordinator is the *only*
//!   retirement path for published batches across a swap, which is
//!   exactly what the `dst_mutation = "swap_no_drain"` mutant breaks
//!   and the dst conservation checker catches.
//! * Handles lazily migrate: the first enter after a swap moves the
//!   thread's queued advice into a successor handle
//!   ([`ManagerHandle::take_for_swap`] / [`ManagerHandle::absorb`]).
//!
//! Residency safety is the *caller's* job:
//! [`BufferPool::swap_manager`](crate::BufferPool::swap_manager) holds
//! every miss-shard lock across the swap, freezing every residency
//! mutation but one (misses, invalidations, frame repair), so
//! `export_state`/`import_state` transfer a resident set that can only
//! grow: a page's admission comes after its read, outside the miss
//! locks. A [`SwapHandle`] commits each admission before returning, and
//! the swap carries over whatever reached the old manager after the
//! export once quiescence proves no admission is still in flight.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bpw_core::{CachePadded, CombiningSnapshot};
use bpw_dst::shim::{AtomicU64, Mutex};
use bpw_metrics::LockSnapshot;
use bpw_replacement::{FrameId, MissOutcome, PageId};

use crate::managers::{ManagerHandle, ReplacementManager};

/// What a completed hot-swap did, for STATS and bench reports.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// Name of the retired manager.
    pub from: String,
    /// Name of the installed manager.
    pub to: String,
    /// Generation the successor was installed under.
    pub generation: u64,
    /// Resident pages transferred via `export_state`/`import_state`.
    pub pages_transferred: usize,
    /// Stranded published accesses recovered off the old board.
    pub advice_recovered: usize,
}

/// One installed manager generation. Handles hold an `Arc` to the
/// generation they entered, so a retired manager stays alive until the
/// last straggler has migrated off it.
struct Generation {
    gen: u64,
    mgr: Box<dyn ReplacementManager>,
}

type EpochCell = Arc<CachePadded<AtomicU64>>;

/// A [`ReplacementManager`] that can be hot-swapped for another at
/// runtime. See the module docs for the protocol.
pub struct SwapManager {
    /// Current generation number; handles validate against this.
    gen: AtomicU64,
    /// Current generation slot (swapped under `slot` + `swap_lock`).
    slot: Mutex<Arc<Generation>>,
    /// Every live handle's epoch cell (0 = idle, `g + 1` = entered
    /// under generation `g`).
    cells: Mutex<Vec<EpochCell>>,
    /// Serializes swappers.
    swap_lock: Mutex<()>,
    swaps: AtomicU64,
    migrations: AtomicU64,
    pages_transferred: AtomicU64,
    advice_recovered: AtomicU64,
}

impl SwapManager {
    /// Wrap `initial` as generation 0.
    pub fn new(initial: Box<dyn ReplacementManager>) -> Self {
        SwapManager {
            gen: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(Generation {
                gen: 0,
                mgr: initial,
            })),
            cells: Mutex::new(Vec::new()),
            swap_lock: Mutex::new(()),
            swaps: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            pages_transferred: AtomicU64::new(0),
            advice_recovered: AtomicU64::new(0),
        }
    }

    /// Completed swaps.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Lazy handle migrations performed after swaps.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Resident pages transferred across all swaps.
    pub fn pages_transferred(&self) -> u64 {
        self.pages_transferred.load(Ordering::Relaxed)
    }

    /// Stranded published accesses recovered across all swaps.
    pub fn advice_recovered(&self) -> u64 {
        self.advice_recovered.load(Ordering::Relaxed)
    }

    /// Name of the currently installed inner manager.
    pub fn current_name(&self) -> String {
        self.current_generation().mgr.name()
    }

    fn current_generation(&self) -> Arc<Generation> {
        Arc::clone(&self.slot.lock())
    }

    fn unregister(&self, cell: &EpochCell) {
        self.cells.lock().retain(|c| !Arc::ptr_eq(c, cell));
    }

    /// Replace the live manager with `next`. The caller must have
    /// frozen residency (all pool miss-shard locks held) — use
    /// [`BufferPool::swap_manager`](crate::BufferPool::swap_manager)
    /// unless you know no concurrent residency mutation is possible.
    pub fn swap(&self, next: Box<dyn ReplacementManager>) -> SwapReport {
        let _exclusive = self.swap_lock.lock();
        let old = self.current_generation();
        let from = old.mgr.name();
        let to = next.name();

        // Seed the successor with the (frozen) resident set before any
        // thread can reach it.
        let state = old.mgr.export_state();
        next.import_state(&state);

        // Install: new generation becomes visible, then the gen counter
        // publishes it to the handles' Dekker handshake. The install op
        // is recorded *before* the store so no MgrEnter{new} can
        // precede it in a dst history.
        let new_gen = old.gen + 1;
        let new_slot = Arc::new(Generation {
            gen: new_gen,
            mgr: next,
        });
        *self.slot.lock() = Arc::clone(&new_slot);
        bpw_dst::record(|| bpw_dst::Op::SwapInstall { gen: new_gen });
        self.gen.store(new_gen, Ordering::SeqCst);
        bpw_dst::yield_point();

        // Quiescence: wait until no handle is still entered under the
        // old (or any older) generation. A cell holding `v` is inside
        // generation `v - 1`; anything `<= old.gen + 1` still blocks
        // retirement.
        loop {
            let busy = {
                let cells = self.cells.lock();
                cells.iter().any(|c| {
                    let v = c.load(Ordering::SeqCst);
                    v != 0 && v <= old.gen + 1
                })
            };
            if !busy {
                break;
            }
            if bpw_dst::in_task() {
                bpw_dst::yield_now();
            } else {
                std::thread::yield_now();
            }
        }
        // An admission lands after its page's read, outside the pool's
        // miss locks, so one may have reached the old manager after its
        // state was exported. Quiescence means none is still running:
        // carry the late ones over. (Nothing leaves the old resident set
        // meanwhile — evictions and invalidations hold miss locks.)
        let exported: HashSet<(FrameId, PageId)> = state.iter().copied().collect();
        let late: Vec<_> = old
            .mgr
            .export_state()
            .into_iter()
            .filter(|e| !exported.contains(e))
            .collect();
        new_slot.mgr.import_state(&late);
        bpw_dst::record(|| bpw_dst::Op::SwapRetire { gen: old.gen });

        // Retire: the old board's published batches have exactly one
        // surviving owner — this coordinator. Handles abandoned their
        // slots on migration (`take_for_swap` never touches the board),
        // so skipping this drain strands the advice forever; the
        // `swap_no_drain` mutant proves the dst tier notices.
        #[cfg(not(dst_mutation = "swap_no_drain"))]
        let recovered = {
            let stranded = old.mgr.take_published();
            if !stranded.is_empty() {
                let mut h = new_slot.mgr.handle();
                h.absorb(&stranded);
                h.flush();
            }
            stranded.len()
        };
        #[cfg(dst_mutation = "swap_no_drain")]
        let recovered = 0usize;

        self.swaps.fetch_add(1, Ordering::Relaxed);
        self.pages_transferred
            .fetch_add((state.len() + late.len()) as u64, Ordering::Relaxed);
        self.advice_recovered
            .fetch_add(recovered as u64, Ordering::Relaxed);
        SwapReport {
            from,
            to,
            generation: new_gen,
            pages_transferred: state.len() + late.len(),
            advice_recovered: recovered,
        }
    }
}

impl ReplacementManager for SwapManager {
    fn name(&self) -> String {
        format!("adaptive({})", self.current_name())
    }

    fn handle(&self) -> Box<dyn ManagerHandle + '_> {
        let slot = self.current_generation();
        let inner = unsafe { make_inner(&slot) };
        let cell: EpochCell = Arc::new(CachePadded::new(AtomicU64::new(0)));
        self.cells.lock().push(Arc::clone(&cell));
        Box::new(SwapHandle {
            inner,
            slot,
            cell,
            mgr: self,
        })
    }

    fn invalidate(&self, frame: FrameId) {
        // Not on the hit path; excluded from racing a swap by the pool
        // miss-shard locks (invalidation holds one, the swapper all).
        self.current_generation().mgr.invalidate(frame);
    }

    fn lock_snapshot(&self) -> LockSnapshot {
        self.current_generation().mgr.lock_snapshot()
    }

    fn combining_snapshot(&self) -> Option<CombiningSnapshot> {
        self.current_generation().mgr.combining_snapshot()
    }

    fn export_state(&self) -> Vec<(FrameId, PageId)> {
        self.current_generation().mgr.export_state()
    }

    fn import_state(&self, state: &[(FrameId, PageId)]) {
        self.current_generation().mgr.import_state(state)
    }

    fn take_published(&self) -> Vec<(PageId, FrameId)> {
        self.current_generation().mgr.take_published()
    }

    fn swap_to(&self, next: Box<dyn ReplacementManager>) -> Option<SwapReport> {
        Some(self.swap(next))
    }
}

/// Borrow-erase a handle of the generation's inner manager. Sound
/// because every `Box<dyn ManagerHandle + 'static>` produced here lives
/// in a struct that also holds the backing `Arc<Generation>`, declared
/// *after* the box so the borrower drops first — and migration replaces
/// the box before releasing the old `Arc`.
unsafe fn make_inner(slot: &Arc<Generation>) -> Box<dyn ManagerHandle + 'static> {
    let h: Box<dyn ManagerHandle + '_> = slot.mgr.handle();
    unsafe { std::mem::transmute(h) }
}

/// Per-thread handle over the current generation's manager. Field order
/// matters: `inner` borrows (via [`make_inner`]) from `slot` and must
/// be declared first so it drops first.
struct SwapHandle<'m> {
    inner: Box<dyn ManagerHandle + 'static>,
    slot: Arc<Generation>,
    cell: EpochCell,
    mgr: &'m SwapManager,
}

impl SwapHandle<'_> {
    /// Enter the epoch: publish intent in the cell, then confirm the
    /// generation didn't move (if it did, retract and retry — the
    /// swapper may already have taken our stale announcement as
    /// blocking). Returns the generation entered under. Steady state:
    /// one load, one store, one load.
    fn enter(&self) -> u64 {
        loop {
            let g = self.mgr.gen.load(Ordering::Acquire);
            self.cell.store(g + 1, Ordering::SeqCst);
            bpw_dst::yield_point();
            if self.mgr.gen.load(Ordering::SeqCst) == g {
                return g;
            }
            self.cell.store(0, Ordering::SeqCst);
            if bpw_dst::in_task() {
                bpw_dst::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    fn exit(&self) {
        self.cell.store(0, Ordering::Release);
    }

    /// Entered under generation `g` but our cached generation is older:
    /// move this thread's deferred advice into a successor handle. Our
    /// cell (`g + 1`) blocks retirement of every generation `>= g`, so
    /// whatever `current_generation()` returns is live for the duration.
    #[cold]
    fn migrate(&mut self) {
        let moved = self.inner.take_for_swap();
        let new_slot = self.mgr.current_generation();
        let mut new_inner = unsafe { make_inner(&new_slot) };
        new_inner.absorb(&moved);
        // Drop the old inner *before* releasing the old generation Arc:
        // its queue is empty and its publication slot abandoned, so the
        // drop is a no-op, but the borrow checker discipline stands.
        let old_inner = std::mem::replace(&mut self.inner, new_inner);
        drop(old_inner);
        self.slot = new_slot;
        self.mgr.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Enter, migrate if stale, and record the (proven-live) generation
    /// actually used. Callers must `exit()` after using `inner`.
    fn enter_current(&mut self) -> u64 {
        let g = self.enter();
        if self.slot.gen != g {
            self.migrate();
        }
        bpw_dst::record(|| bpw_dst::Op::MgrEnter { gen: self.slot.gen });
        g
    }
}

impl ManagerHandle for SwapHandle<'_> {
    fn on_hit(&mut self, page: PageId, frame: FrameId) {
        self.enter_current();
        self.inner.on_hit(page, frame);
        self.exit();
    }

    /// Commits before returning, so no admission is ever queued when a
    /// swap comes: queued entries migrate as hits.
    fn on_admit(&mut self, page: PageId, frame: FrameId) {
        self.enter_current();
        self.inner.on_admit(page, frame);
        self.inner.flush();
        self.exit();
    }

    fn on_evict(
        &mut self,
        page: PageId,
        evictable: &mut dyn FnMut(FrameId) -> bool,
        extra: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome {
        self.enter_current();
        let out = self.inner.on_evict(page, evictable, extra);
        self.exit();
        out
    }

    fn flush(&mut self) {
        self.enter_current();
        self.inner.flush();
        self.exit();
    }

    fn take_for_swap(&mut self) -> Vec<(PageId, FrameId)> {
        self.enter_current();
        let out = self.inner.take_for_swap();
        self.exit();
        out
    }

    fn absorb(&mut self, entries: &[(PageId, FrameId)]) {
        self.enter_current();
        self.inner.absorb(entries);
        self.exit();
    }
}

impl Drop for SwapHandle<'_> {
    fn drop(&mut self) {
        // Tear the inner handle down under epoch protection: its Drop
        // flushes queued advice into whatever manager is current, which
        // must not be mid-retirement. The replacement Noop keeps the
        // field valid for the struct's own drop.
        self.enter_current();
        self.inner = Box::new(NoopHandle);
        self.exit();
        self.mgr.unregister(&self.cell);
    }
}

/// Placeholder installed while tearing down a [`SwapHandle`].
struct NoopHandle;

impl ManagerHandle for NoopHandle {
    fn on_hit(&mut self, _page: PageId, _frame: FrameId) {}

    fn on_admit(&mut self, _page: PageId, _frame: FrameId) {}

    fn on_evict(
        &mut self,
        _page: PageId,
        _evictable: &mut dyn FnMut(FrameId) -> bool,
        _extra: &mut Vec<(FrameId, PageId)>,
    ) -> MissOutcome {
        MissOutcome::NoEvictableFrame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::{CoarseManager, WrappedManager};
    use bpw_core::WrapperConfig;
    use bpw_replacement::{Lru, TwoQ};

    fn wrapped(frames: usize) -> Box<dyn ReplacementManager> {
        Box::new(WrappedManager::new(
            Lru::new(frames),
            WrapperConfig::default(),
        ))
    }

    #[test]
    fn swap_transfers_resident_state() {
        let mgr = SwapManager::new(wrapped(4));
        {
            let mut h = mgr.handle();
            for i in 0..4u64 {
                h.on_admit(i, i as u32);
            }
            h.flush();
        }
        let report = mgr.swap(Box::new(WrappedManager::new(
            TwoQ::new(4),
            WrapperConfig::default(),
        )));
        assert_eq!(report.generation, 1);
        assert_eq!(report.pages_transferred, 4);
        assert!(report.from.contains("bp-wrapper"));
        // The successor sees the inherited working set: a miss must
        // evict (no free frame claimed twice).
        let mut h = mgr.handle();
        let out = h.on_evict(10, &mut |_| true, &mut Vec::new());
        assert!(
            out.victim().is_some(),
            "successor must own the resident set"
        );
        assert_eq!(mgr.swaps(), 1);
    }

    #[test]
    fn stale_handle_migrates_and_keeps_advice() {
        let inner = Arc::new(WrappedManager::new(Lru::new(4), WrapperConfig::default()));
        let mgr = SwapManager::new(Box::new(Arc::clone(&inner)));
        let mut h = mgr.handle();
        for i in 0..4u64 {
            h.on_admit(i, i as u32);
        }
        // Queue advice, swap underneath the handle, then keep using it.
        h.on_hit(0, 0);
        h.on_hit(1, 1);
        let next = Arc::new(WrappedManager::new(Lru::new(4), WrapperConfig::default()));
        mgr.swap(Box::new(Arc::clone(&next)));
        h.on_hit(2, 2);
        h.flush();
        drop(h);
        assert_eq!(mgr.migrations(), 1);
        // All three hits committed into the successor, none lost.
        assert_eq!(next.wrapper().counters().committed.get(), 3);
    }

    #[test]
    fn static_managers_refuse_swap_to() {
        let coarse = CoarseManager::new(Lru::new(2));
        assert!(coarse.swap_to(wrapped(2)).is_none());
    }

    #[test]
    fn concurrent_hits_survive_swap_storm() {
        let mgr = Arc::new(SwapManager::new(wrapped(64)));
        {
            let mut h = mgr.handle();
            for i in 0..64u64 {
                h.on_admit(i, i as u32);
            }
            h.flush();
        }
        std::thread::scope(|sc| {
            for t in 0..4u64 {
                let mgr = Arc::clone(&mgr);
                sc.spawn(move || {
                    let mut h = mgr.handle();
                    for i in 0..20_000u64 {
                        let f = (i + t) % 64;
                        h.on_hit(f, f as u32);
                    }
                });
            }
            let swapper = Arc::clone(&mgr);
            sc.spawn(move || {
                for _ in 0..50 {
                    swapper.swap(wrapped(64));
                }
            });
        });
        assert_eq!(mgr.swaps(), 50);
        assert_eq!(mgr.current_generation().gen, 50);
    }
}
