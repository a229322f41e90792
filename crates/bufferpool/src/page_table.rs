//! The buffer look-up structure: a sharded page-id → frame-id map whose
//! **readers take no lock**. The paper's §II argues bucket locks are
//! rarely *contended* — but even an uncontended lock acquisition is a
//! shared-cache-line RMW on acquire and another on release, which at
//! 8+ threads is most of what a cache hit pays. Here each shard is a
//! small open-addressing array of atomic `(page, frame)` slots guarded
//! by a seqlock version: readers probe with plain loads and validate
//! the version afterwards. Writers hold the shard's **partition lock**
//! ([`PageTable::lock`], also the pool's miss lock) and flip the version
//! odd around each mutation only, so a held guard stalls no optimistic
//! reader. A reader that observes a torn state (odd version, version
//! change, or a shard with spilled entries) falls back to the locked
//! path and counts the event.
//!
//! Why seqlock-versioned shards rather than packing `(page, frame)`
//! into one atomic word: `PageId` is a full `u64`, so a packed entry
//! would cap the page space at ~2^24; the seqlock keeps both fields
//! full-width *and* makes the whole probe sequence consistent, not just
//! one slot. (DESIGN.md §15 has the full argument.)
//!
//! Fixed-capacity slots ([`SLOT_CAP`] per shard, ~4× the expected load
//! at the pool's default shards = frames/4 sizing) with an overflow
//! `HashMap` as the correctness backstop for pathological skew: spilled
//! shards force their readers onto the locked path until removes drain
//! the spill back into slots.

use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};

use bpw_core::{InstrumentedLock, LockGuard};
use bpw_metrics::LockSnapshot;
use bpw_replacement::{FrameId, PageId};

/// Slots per shard. With the pool's default sizing (one shard per four
/// frames) average occupancy is 4/16 = 25%, so probes are short and
/// spill to the overflow map needs a 4× hash skew within one shard.
const SLOT_CAP: usize = 16;
/// Slot holds no mapping and never has (or was compacted): probes may
/// stop here.
const EMPTY: u64 = u64::MAX;
/// Slot held a since-removed mapping: probes must continue past it.
/// Pages >= TOMBSTONE (the top two ids) live in the overflow map so the
/// sentinels stay unambiguous.
const TOMBSTONE: u64 = u64::MAX - 1;

/// One open-addressing slot. The two fields are only ever interpreted
/// together under an even, unchanged shard version (optimistic readers)
/// or the partition lock (writers, fallback readers), so no ordering
/// stronger than the shard's seqlock fences is needed on the fields
/// themselves.
#[derive(Debug)]
struct Slot {
    page: AtomicU64,
    frame: AtomicU32,
}

impl Slot {
    fn new() -> Self {
        Slot {
            page: AtomicU64::new(EMPTY),
            frame: AtomicU32::new(0),
        }
    }
}

/// Writer-side shard state, guarded by the partition lock.
#[derive(Debug, Default)]
struct Spill {
    /// Mappings that did not fit in the slot array (and any page id
    /// colliding with the sentinels). Invariant: while this map is
    /// non-empty the slot array contains no `EMPTY` slot — removes
    /// leave tombstones and only compaction (which drains the spill
    /// first) re-creates `EMPTY` — so every slot stays probe-reachable.
    map: HashMap<PageId, FrameId>,
    /// Tombstoned slots; compacted away once they exceed `SLOT_CAP / 2`.
    tombstones: usize,
}

struct Shard {
    /// Seqlock: odd while a writer is mutating; even otherwise.
    version: AtomicU64,
    /// Mirror of `spill.map.len()` readable outside the lock, so
    /// optimistic readers know when a probe miss is inconclusive.
    spill_len: AtomicU64,
    slots: [Slot; SLOT_CAP],
    /// The partition lock. Instrumented: once BP-Wrapper takes the
    /// replacement lock off the hit path, misses are where lock
    /// contention concentrates, and a blocked acquisition is a
    /// `MissShardWait` span carrying the shard index.
    lock: InstrumentedLock<Spill>,
}

impl Shard {
    fn new(index: usize) -> Self {
        Shard {
            version: AtomicU64::new(0),
            spill_len: AtomicU64::new(0),
            slots: std::array::from_fn(|_| Slot::new()),
            lock: InstrumentedLock::with_wait_event(
                Spill::default(),
                bpw_trace::EventKind::MissShardWait,
                index as u64,
            ),
        }
    }

    /// Probe the slot array for `page` (any locking/validation is the
    /// caller's). Returns the frame, or `None` for a definitive miss
    /// *in the slots* (the spill map may still hold the page).
    fn probe(&self, home: usize, page: PageId) -> Option<FrameId> {
        for i in 0..SLOT_CAP {
            let slot = &self.slots[(home + i) % SLOT_CAP];
            let p = slot.page.load(Ordering::Relaxed);
            if p == EMPTY {
                return None;
            }
            if p == page {
                return Some(slot.frame.load(Ordering::Relaxed));
            }
        }
        None
    }

    /// Publish the spill map's size to optimistic readers.
    fn set_spill_len(&self, len: usize) {
        self.spill_len.store(len as u64, Ordering::Relaxed);
    }

    /// Locked (fallback / writer-side) lookup: slots + spill map.
    fn get_locked(&self, spill: &Spill, home: usize, page: PageId) -> Option<FrameId> {
        self.probe(home, page)
            .or_else(|| spill.map.get(&page).copied())
    }
}

/// RAII seqlock write window: flips the shard version odd on entry and
/// back to even (one generation later) on drop, with the fences that
/// order the slot mutations inside the window. Must only be created
/// while holding the shard's partition lock.
struct WriteWindow<'a> {
    shard: &'a Shard,
    v: u64,
}

impl<'a> WriteWindow<'a> {
    fn open(shard: &'a Shard) -> Self {
        let v = shard.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 0, "nested write window");
        shard.version.store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // Expose the in-progress write to the dst scheduler: readers
        // interleaved here observe the odd version and must take the
        // fallback path.
        bpw_dst::yield_point();
        WriteWindow { shard, v }
    }
}

impl Drop for WriteWindow<'_> {
    fn drop(&mut self) {
        self.shard.version.store(self.v + 2, Ordering::Release);
    }
}

/// Sharded page-id → frame-id map with lock-free reads.
pub(crate) struct PageTable {
    shards: Vec<Shard>,
    mask: u64,
    /// Optimistic reads that had to retry through the locked path
    /// (torn read, writer in progress, or a spilled shard).
    fallback_reads: AtomicU64,
}

impl PageTable {
    /// Create a table with `shards` buckets (rounded up to a power of
    /// two, minimum 16).
    pub(crate) fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(16);
        PageTable {
            shards: (0..n).map(Shard::new).collect(),
            mask: (n - 1) as u64,
            fallback_reads: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[cfg(test)]
    fn shards(&self) -> usize {
        self.shards.len()
    }

    /// splitmix64 avalanche so sequential page ids spread over shards
    /// and slots.
    fn hash(page: PageId) -> u64 {
        let mut x = page.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }

    /// The shard index `page` hashes to.
    fn shard_index(&self, page: PageId) -> usize {
        (Self::hash(page) & self.mask) as usize
    }

    /// Slot-probe start within a shard: independent bits of the same
    /// avalanche, so pages sharing a shard still spread over its slots.
    fn home_index(page: PageId) -> usize {
        (Self::hash(page) >> 32) as usize % SLOT_CAP
    }

    /// Reads that fell back to the locked path (scraped into
    /// `bpw_page_table_fallback_reads_total`).
    pub(crate) fn fallback_reads(&self) -> u64 {
        self.fallback_reads.load(Ordering::Relaxed)
    }

    /// Each shard's partition-lock statistics, in shard order.
    pub(crate) fn lock_snapshots(&self) -> Vec<LockSnapshot> {
        self.shards
            .iter()
            .map(|s| s.lock.stats().snapshot())
            .collect()
    }

    /// Visit every `(page, frame)` mapping (O(shards) lock rounds; for
    /// invariant checks and stats, not hot paths).
    pub(crate) fn for_each(&self, mut f: impl FnMut(PageId, FrameId)) {
        for shard in &self.shards {
            let spill = shard.lock.lock();
            for slot in &shard.slots {
                let p = slot.page.load(Ordering::Relaxed);
                if p != EMPTY && p != TOMBSTONE {
                    f(p, slot.frame.load(Ordering::Relaxed));
                }
            }
            for (&page, &frame) in spill.map.iter() {
                f(page, frame);
            }
        }
    }

    /// Look up the frame caching `page`, if mapped — **lock-free** on
    /// the common path: a seqlock-validated probe of the shard's atomic
    /// slots. The yield point makes every lookup a schedule decision
    /// under the dst harness. A caller holding `page`'s guard must ask
    /// the guard instead: a fallback here would wait on that guard.
    pub(crate) fn get(&self, page: PageId) -> Option<FrameId> {
        bpw_dst::yield_point();
        let shard = &self.shards[self.shard_index(page)];
        let home = Self::home_index(page);
        if page < TOMBSTONE {
            let v1 = shard.version.load(Ordering::Acquire);
            // A writer mid-mutation (odd) or a spilled shard (probe
            // misses are inconclusive) can't be decided optimistically.
            if v1 & 1 == 0 && shard.spill_len.load(Ordering::Relaxed) == 0 {
                let found = shard.probe(home, page);
                fence(Ordering::Acquire);
                let v2 = shard.version.load(Ordering::Relaxed);
                if v1 == v2 {
                    return found;
                }
            }
        }
        // Fallback: a torn read means a writer is (or was just) active;
        // the partition lock serializes against it. Rare, so the
        // counter RMW is off the hot path.
        self.fallback_reads.fetch_add(1, Ordering::Relaxed);
        let spill = shard.lock.lock();
        shard.get_locked(&spill, home, page)
    }

    /// Take `page`'s partition lock: the one lock that serializes the
    /// mutations of its shard — misses, invalidations, repairs and
    /// unmaps — and never a hit.
    pub(crate) fn lock(&self, page: PageId) -> PartitionGuard<'_> {
        let shard = &self.shards[self.shard_index(page)];
        PartitionGuard {
            shard,
            spill: shard.lock.lock(),
        }
    }

    /// Total mappings (O(shards); for tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, _| n += 1);
        n
    }
}

/// A held partition lock ([`PageTable::lock`]), for pages of its own
/// shard only. Each mutation opens the seqlock write window for itself
/// alone: an optimistic [`PageTable::get`] never waits on a held guard,
/// only on a mutation in flight.
pub(crate) struct PartitionGuard<'a> {
    shard: &'a Shard,
    spill: LockGuard<'a, Spill>,
}

impl PartitionGuard<'_> {
    /// `page`'s frame, if mapped, read under the lock.
    pub(crate) fn get(&self, page: PageId) -> Option<FrameId> {
        self.shard
            .get_locked(&self.spill, PageTable::home_index(page), page)
    }

    /// Count `n` page accesses against this hold (the lock's
    /// per-access cost).
    pub(crate) fn cover_accesses(&mut self, n: u64) {
        self.spill.cover_accesses(n);
    }

    /// Map `page` to `frame`. Returns the previous mapping, if any.
    pub(crate) fn insert(&mut self, page: PageId, frame: FrameId) -> Option<FrameId> {
        bpw_dst::yield_point();
        let home = PageTable::home_index(page);
        let shard = self.shard;
        let spill = &mut *self.spill;
        let window = WriteWindow::open(shard);
        if page >= TOMBSTONE {
            // Sentinel-colliding ids live in the spill map only.
            let prev = spill.map.insert(page, frame);
            shard.set_spill_len(spill.map.len());
            drop(window);
            return prev;
        }
        if spill.tombstones > SLOT_CAP / 2 && spill.map.is_empty() {
            Self::compact(shard, spill);
        }
        // Pass 1: existing entry (update in place) or first free slot.
        let mut free = None;
        for i in 0..SLOT_CAP {
            let idx = (home + i) % SLOT_CAP;
            let slot = &shard.slots[idx];
            let p = slot.page.load(Ordering::Relaxed);
            if p == page {
                let prev = slot.frame.load(Ordering::Relaxed);
                slot.frame.store(frame, Ordering::Relaxed);
                drop(window);
                return Some(prev);
            }
            if p == EMPTY {
                if free.is_none() {
                    free = Some(idx);
                }
                break;
            }
            if p == TOMBSTONE && free.is_none() {
                free = Some(idx);
            }
        }
        if let Some(prev) = spill.map.get_mut(&page) {
            let old = *prev;
            *prev = frame;
            drop(window);
            return Some(old);
        }
        match free {
            Some(idx) => {
                let slot = &shard.slots[idx];
                if slot.page.load(Ordering::Relaxed) == TOMBSTONE {
                    spill.tombstones -= 1;
                }
                slot.frame.store(frame, Ordering::Relaxed);
                slot.page.store(page, Ordering::Relaxed);
            }
            None => {
                // Shard array full: spill. Readers of this shard take
                // the locked path until removes drain the spill.
                spill.map.insert(page, frame);
                shard.set_spill_len(spill.map.len());
            }
        }
        drop(window);
        None
    }

    /// Remove the mapping for `page`. Returns the frame it mapped to.
    pub(crate) fn remove(&mut self, page: PageId) -> Option<FrameId> {
        bpw_dst::yield_point();
        let home = PageTable::home_index(page);
        let shard = self.shard;
        let spill = &mut *self.spill;
        let window = WriteWindow::open(shard);
        let mut removed = None;
        if page < TOMBSTONE {
            for i in 0..SLOT_CAP {
                let slot = &shard.slots[(home + i) % SLOT_CAP];
                let p = slot.page.load(Ordering::Relaxed);
                if p == EMPTY {
                    break;
                }
                if p == page {
                    removed = Some(slot.frame.load(Ordering::Relaxed));
                    slot.page.store(TOMBSTONE, Ordering::Relaxed);
                    spill.tombstones += 1;
                    break;
                }
            }
        }
        if removed.is_none() {
            removed = spill.map.remove(&page);
            shard.set_spill_len(spill.map.len());
        }
        // Drain one spilled mapping into the freed tombstone so skewed
        // shards return to the lock-free read path as they empty out.
        // Any slot is probe-reachable here: while the spill is
        // non-empty no EMPTY slot exists (see `Spill::map`).
        if removed.is_some() && !spill.map.is_empty() && spill.tombstones > 0 {
            if let Some((&p2, &f2)) = spill.map.iter().next() {
                if p2 < TOMBSTONE {
                    for slot in &shard.slots {
                        if slot.page.load(Ordering::Relaxed) == TOMBSTONE {
                            slot.frame.store(f2, Ordering::Relaxed);
                            slot.page.store(p2, Ordering::Relaxed);
                            spill.tombstones -= 1;
                            spill.map.remove(&p2);
                            shard.set_spill_len(spill.map.len());
                            break;
                        }
                    }
                }
            }
        }
        drop(window);
        removed
    }

    /// Rewrite a shard's slots without tombstones (writer-side, inside
    /// a write window). Only runs when the spill map is empty, so the
    /// `EMPTY` slots it creates cannot strand a spilled entry.
    fn compact(shard: &Shard, spill: &mut Spill) {
        // On the stack: a miss's compaction allocates nothing.
        let mut live = [(0u64, 0u32); SLOT_CAP];
        let mut n = 0;
        for slot in &shard.slots {
            let p = slot.page.load(Ordering::Relaxed);
            if p != EMPTY && p != TOMBSTONE {
                live[n] = (p, slot.frame.load(Ordering::Relaxed));
                n += 1;
            }
            slot.page.store(EMPTY, Ordering::Relaxed);
        }
        spill.tombstones = 0;
        for &(p, f) in &live[..n] {
            let home = PageTable::home_index(p);
            for i in 0..SLOT_CAP {
                let slot = &shard.slots[(home + i) % SLOT_CAP];
                if slot.page.load(Ordering::Relaxed) == EMPTY {
                    slot.frame.store(f, Ordering::Relaxed);
                    slot.page.store(p, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use super::*;

    #[test]
    fn insert_get_remove() {
        // One guard for it all: a reader on the guard's own thread would
        // deadlock if a held guard sent it to the locked path.
        let t = PageTable::new(4);
        assert_eq!(t.get(1), None);
        let mut g = t.lock(1);
        assert_eq!(g.insert(1, 10), None);
        assert_eq!((g.get(1), t.get(1)), (Some(10), Some(10)));
        assert_eq!(g.insert(1, 11), Some(10));
        assert_eq!(g.remove(1), Some(11));
        assert_eq!((t.get(1), t.fallback_reads()), (None, 0));
        drop(g);
        let acqs: Vec<u64> = t.lock_snapshots().iter().map(|l| l.acquisitions).collect();
        assert_eq!((acqs.len(), acqs.iter().sum()), (t.shards(), 1));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn shard_count_rounds_up() {
        assert_eq!(PageTable::new(1).shards(), 16);
        assert_eq!(PageTable::new(17).shards(), 32);
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let t = PageTable::new(8);
        for p in 0..10_000u64 {
            let i = t.shard_index(p);
            assert!(i < t.shards());
            assert_eq!(i, t.shard_index(p), "shard function must be pure");
        }
    }

    #[test]
    fn for_each_visits_all_mappings() {
        let t = PageTable::new(4);
        for p in 0..100u64 {
            t.lock(p).insert(p, p as FrameId);
        }
        let mut seen = std::collections::HashSet::new();
        t.for_each(|page, frame| {
            assert_eq!(page as FrameId, frame);
            assert!(seen.insert(page));
        });
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = PageTable::new(64);
        std::thread::scope(|s| {
            for k in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for p in k * 1000..(k + 1) * 1000 {
                        t.lock(p).insert(p, p as FrameId);
                    }
                });
            }
        });
        assert_eq!(t.len(), 4000);
        for i in 0..4000u64 {
            assert_eq!(t.get(i), Some(i as FrameId));
        }
    }

    #[test]
    fn uncontended_reads_never_fall_back() {
        let t = PageTable::new(8);
        for p in 0..32u64 {
            t.lock(p).insert(p, p as FrameId);
        }
        let base = t.fallback_reads();
        for _ in 0..4 {
            for p in 0..64u64 {
                let _ = t.get(p);
            }
        }
        assert_eq!(
            t.fallback_reads(),
            base,
            "quiescent lookups must stay on the optimistic path"
        );
    }

    #[test]
    fn spill_and_drain_round_trip() {
        // 16 shards × 16 slots = 256 slot capacity; 2000 mappings must
        // spill, survive lookups (via the locked fallback), and drain
        // back out on removal.
        let t = PageTable::new(1);
        let n = 2000u64;
        for p in 0..n {
            assert_eq!(t.lock(p).insert(p, p as FrameId), None);
        }
        assert_eq!(t.len(), n as usize);
        for p in 0..n {
            assert_eq!(t.get(p), Some(p as FrameId), "spilled page {p} lost");
        }
        assert!(
            t.fallback_reads() > 0,
            "spilled shards must route reads through the fallback"
        );
        for p in 0..n {
            assert_eq!(
                t.lock(p).remove(p),
                Some(p as FrameId),
                "page {p} not removed"
            );
        }
        assert_eq!(t.len(), 0);
        // Fully drained: the optimistic path works again.
        let base = t.fallback_reads();
        for p in 0..n {
            assert_eq!(t.get(p), None);
        }
        assert_eq!(
            t.fallback_reads(),
            base,
            "drained shards must not fall back"
        );
    }

    #[test]
    fn tombstones_do_not_break_probes() {
        // Churn one shard's worth of keys so probe chains cross
        // tombstones and compaction triggers; every surviving mapping
        // must stay reachable.
        let t = PageTable::new(1);
        for round in 0..50u64 {
            for k in 0..8u64 {
                let p = round * 8 + k;
                t.lock(p).insert(p, p as FrameId);
            }
            for k in 0..8u64 {
                let p = round * 8 + k;
                assert_eq!(t.get(p), Some(p as FrameId));
                if k % 2 == 0 {
                    assert_eq!(t.lock(p).remove(p), Some(p as FrameId));
                }
            }
        }
        let mut count = 0;
        t.for_each(|page, frame| {
            assert_eq!(page as FrameId, frame);
            count += 1;
        });
        assert_eq!(count, t.len());
    }

    #[test]
    fn sentinel_colliding_pages_work() {
        // The top two page ids collide with the slot sentinels and must
        // route through the spill map.
        let t = PageTable::new(4);
        for p in [u64::MAX, u64::MAX - 1] {
            assert_eq!(t.lock(p).insert(p, 7), None);
            assert_eq!(t.get(p), Some(7));
            assert_eq!(t.lock(p).insert(p, 8), Some(7));
            assert_eq!(t.lock(p).remove(p), Some(8));
            assert_eq!(t.get(p), None);
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn readers_race_writers_consistently() {
        // Readers hammer a key range while writers insert/remove it;
        // every observed frame must be the one its page was mapped to
        // (frame = page here), torn states must only ever cause
        // fallbacks, never wrong values. The readers stop once both
        // writers have joined.
        let t = PageTable::new(4);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (t, stop) = (&t, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for p in 0..64u64 {
                            if let Some(f) = t.get(p) {
                                assert_eq!(f, p as FrameId, "torn read returned wrong frame");
                            }
                        }
                    }
                });
            }
            let writers: Vec<_> = (0..2u64)
                .map(|k| {
                    let t = &t;
                    s.spawn(move || {
                        for round in 0..2000u64 {
                            for p in (k * 32)..(k * 32 + 32) {
                                if round % 2 == 0 {
                                    t.lock(p).insert(p, p as FrameId);
                                } else {
                                    t.lock(p).remove(p);
                                }
                            }
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().expect("writer panicked");
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
