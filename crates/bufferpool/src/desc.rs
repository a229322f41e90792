//! Buffer descriptors: per-frame metadata (tag, header pin count,
//! flags) in a single packed atomic header — the "buffer header lock
//! collapsed into one CAS word" design modern engines converged on
//! (PostgreSQL 9.6's `BufferDesc.state`, LeanStore-style optimistic
//! latches) — so pins take **zero lock acquisitions**, and a pin is the
//! page's read latch.
//!
//! # Header layout (one `AtomicU64`)
//!
//! ```text
//!   63                29 28 27 26 25 24 23         16 15           0
//!  +--------------------+--+--+--+--+--+-------------+--------------+
//!  |    version (35)    |WR|LK|IO|DT|VD| writers (8) |  pins (16)   |
//!  +--------------------+--+--+--+--+--+-------------+--------------+
//!   WR = a writer holds the bytes  LK = slow-path descriptor latch
//!   IO = io_in_progress            DT = dirty       VD = valid
//!   writers = pins whose holders are writing or waiting to
//! ```
//!
//! # Two kinds of pin
//!
//! * **Slot pins.** A hit does not write this header at all: the pool
//!   publishes the pin in a slot of a cache line its session owns and
//!   then validates it here ([`BufferDesc::check_slot_pin`]). Every
//!   path that needs "no readers" first makes the frame unpinnable
//!   and then scans the slots — invalidate under `LK`, a write under
//!   `WR`, both taken with a SeqCst CAS; eviction after the victim
//!   filter has cleared `VALID`, behind a SeqCst fence — so either it
//!   sees the slot or the validation sees the bit (the Dekker pairing;
//!   DESIGN.md §15).
//! * **Header pins** (`pins` above) are what a miss holds, what a write
//!   holds, and what a hit falls back to when its session has no free
//!   slot: [`BufferDesc::try_pin`] and [`BufferDesc::unpin`] are bounded
//!   CAS loops on the header. `try_pin` loads the header, rejects
//!   latched/invalid/in-I/O/being-written frames, reads the tag, and
//!   CASes `pins + 1` against the *exact* header it validated: because
//!   every slow-path writer bumps `version` when it releases the latch,
//!   a successful CAS proves no retag/invalidate/miss-fill intervened
//!   between the tag read and the pin landing (no ABA — the version
//!   would differ). `unpin` is the mirror decrement, with a checked
//!   release-mode guard: an underflow saturates at zero and bumps the
//!   `bpw_pin_underflow_total` counter instead of silently wrapping the
//!   pin count into the flag bits.
//!
//! # Bytes and latches
//!
//! * **Page bytes** have no lock of their own. A pin is a read latch;
//!   a write (`BufferDesc::write_latch`) joins the writers, takes
//!   `WR` (which makes both kinds of pin fail), and waits until every
//!   header pin left on the frame is a writer's — its own, or one
//!   queued for `WR` — and no slot pins it.
//! * **Slow paths** (miss fill, invalidate, eviction's victim filter,
//!   frame repair) acquire the `LK` bit via CAS —
//!   [`BufferDesc::lock`] — mutate an unpacked [`DescState`] copy, and
//!   publish it on guard drop with `version + 1` in a single release
//!   store. While `LK` is held, pins fail (callers retry through the
//!   fetch loop) and `unpin` and the writer CASes spin (the latch is
//!   only ever held for a few loads/stores, never across I/O), so the
//!   guard's write-back cannot clobber a concurrent header change.
//!
//! `tag` lives outside the header as a plain atomic written only under
//! the `LK` latch; readers validate it against the header version
//! seqlock-style ([`BufferDesc::snapshot`]).

use std::sync::atomic::{AtomicU64, Ordering};

use bpw_replacement::PageId;

/// Bits 0..16: pin count. At the ceiling `try_pin` fails rather than
/// carry into the writer count.
const PIN_BITS: u32 = 16;
const PIN_MASK: u64 = (1 << PIN_BITS) - 1;
const PIN_ONE: u64 = 1;
/// Bits 16..24: how many of the pins belong to writers (the one holding
/// `WRITING` and those queued for it). A writer that finds it full
/// waits for a slot.
const WRITER_SHIFT: u32 = PIN_BITS;
const WRITER_MASK: u64 = 0xFF << WRITER_SHIFT;
const WRITER_ONE: u64 = 1 << WRITER_SHIFT;
/// Frame holds a current, usable copy of `tag`.
const VALID: u64 = 1 << 24;
/// The in-buffer copy is newer than storage.
const DIRTY: u64 = 1 << 25;
/// A read from storage is filling this frame.
const IO: u64 = 1 << 26;
/// Slow-path descriptor latch.
const LOCKED: u64 = 1 << 27;
/// A writer holds the page's bytes: no new pin may land.
const WRITING: u64 = 1 << 28;
/// Bits 29..64: version (35 bits), bumped once per slow-path critical
/// section that changed the state. A pin can be fooled only if a thread
/// stalls between its header load and its CAS while the version goes
/// all the way round, with tag and flags back where they were. A miss
/// bumps its frame's version at most four times (victim filter, claim,
/// end of I/O, and the dirty flag's clear after a write-back ahead), so
/// at 10 000 misses a second on *one* frame — `pool_miss_rw` does a few
/// hundred — a wrap takes 2^35 / 40 000 s, about ten days
/// (`version_wraps_in_place_and_takes_days_to_do_so`).
const VERSION_SHIFT: u32 = 29;
/// The header bits only writers change: a slow-path latch holder writes
/// them back as it found them.
const WRITER_BITS: u64 = WRITER_MASK | WRITING;

/// How many CAS retries the fast path absorbs before giving up and
/// reporting failure (the caller re-runs the full lookup). Retries only
/// happen when a concurrent pin/unpin/writer moved the header first, so
/// a small bound suffices; failing is always safe.
const MAX_PIN_RETRIES: u32 = 16;

/// Mutable state of one buffer frame — the unpacked view of the header
/// plus the latch-protected `tag`. Slow paths mutate a copy through
/// [`DescGuard`]; it is also the snapshot type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DescState {
    /// The page currently (or last) cached in this frame.
    pub tag: PageId,
    /// True if the frame holds a current, usable copy of `tag`.
    pub valid: bool,
    /// True if the in-buffer copy is newer than storage.
    pub dirty: bool,
    /// True while a read from storage is filling this frame.
    pub io_in_progress: bool,
    /// Header pins: the misses, writes and slot-less hits holding the
    /// frame. A hit's slot pin is not counted here
    /// (`BufferPool::pin_count` counts both).
    pub pins: u32,
}

/// Outcome of a fast-path pin attempt: whether it pinned, and how many
/// CAS retries the loop needed (0 on the uncontended path). Retries are
/// the header's contention signal — the pool aggregates them into
/// `bpw_pin_cas_retries_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinAttempt {
    /// The frame is now pinned for the caller.
    pub pinned: bool,
    /// CAS attempts beyond the first (0 = clean first-try outcome).
    pub retries: u32,
}

/// Outcome of a fast-path unpin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnpinOutcome {
    /// One pin released.
    Released,
    /// The pin count was already zero: a pin/unpin imbalance. The count
    /// saturates at zero instead of wrapping; the caller bumps
    /// `bpw_pin_underflow_total`.
    Underflow,
}

/// A buffer descriptor: packed atomic header + latch-protected tag.
///
/// Not cache-line padded at the type level: the pool pads the
/// descriptor together with its frame's bytes pointer, so everything a
/// hit writes for one page is one line.
#[derive(Debug, Default)]
pub struct BufferDesc {
    header: AtomicU64,
    tag: AtomicU64,
}

#[inline(always)]
fn pins_of(h: u64) -> u64 {
    h & PIN_MASK
}

#[inline(always)]
fn writers_of(h: u64) -> u64 {
    (h & WRITER_MASK) >> WRITER_SHIFT
}

#[inline(always)]
fn pack(s: &DescState, version: u64) -> u64 {
    debug_assert!(u64::from(s.pins) <= PIN_MASK, "pin count overflow");
    (version << VERSION_SHIFT)
        | (u64::from(s.pins) & PIN_MASK)
        | if s.valid { VALID } else { 0 }
        | if s.dirty { DIRTY } else { 0 }
        | if s.io_in_progress { IO } else { 0 }
}

#[inline(always)]
fn unpack(h: u64, tag: u64) -> DescState {
    DescState {
        tag,
        valid: h & VALID != 0,
        dirty: h & DIRTY != 0,
        io_in_progress: h & IO != 0,
        pins: pins_of(h) as u32,
    }
}

impl BufferDesc {
    /// New, invalid descriptor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to pin the frame for `page`. Succeeds only if the frame holds
    /// a valid, I/O-complete copy of `page` that no writer holds, and
    /// fewer than 2^16 − 1 pins. Lock-free: a bounded CAS loop whose
    /// success proves (via the header version) that the tag it
    /// validated was current at the instant the pin landed. A pin is a
    /// read latch on the frame's bytes until [`unpin`](Self::unpin).
    #[inline]
    pub fn try_pin(&self, page: PageId) -> PinAttempt {
        let mut retries = 0u32;
        // Each iteration is a schedule point under the dst harness: the
        // window between the tag read and the CAS is exactly where a
        // concurrent invalidate/miss-fill can retag the frame.
        loop {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Acquire);
            if h & (LOCKED | IO | WRITING) != 0 || h & VALID == 0 || pins_of(h) == PIN_MASK {
                return PinAttempt {
                    pinned: false,
                    retries,
                };
            }
            let tag = self.tag.load(Ordering::Acquire);
            bpw_dst::yield_point();
            if tag != page {
                return PinAttempt {
                    pinned: false,
                    retries,
                };
            }
            // The tag matched when the header read `h`. The CAS pins
            // against that exact header: any slow-path writer that could
            // have retagged the frame in between released its latch with
            // a version bump, so the compare would fail and we retry
            // with a fresh tag. Release ordering on success keeps the
            // tag load from sinking below the pin store; Acquire makes
            // the last writer's bytes visible to the reads this pin
            // allows.
            #[cfg(not(dst_mutation = "no_version_check"))]
            let expected = h;
            // MUTANT (CI-verified): trust the *current* header instead
            // of the one the tag was validated under — the version/tag
            // re-verification is gone, so a retag that slips between the
            // tag read and the CAS goes unnoticed and the caller pins a
            // frame now holding a different page.
            #[cfg(dst_mutation = "no_version_check")]
            let expected = self.header.load(Ordering::Acquire);
            #[cfg(dst_mutation = "no_version_check")]
            if expected & (LOCKED | IO | WRITING) != 0
                || expected & VALID == 0
                || pins_of(expected) == PIN_MASK
            {
                return PinAttempt {
                    pinned: false,
                    retries,
                };
            }
            match self.header.compare_exchange_weak(
                expected,
                expected + PIN_ONE,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    bpw_dst::record(|| bpw_dst::Op::Pin {
                        page,
                        pins: pins_of(expected) as u32 + 1,
                    });
                    return PinAttempt {
                        pinned: true,
                        retries,
                    };
                }
                Err(_) => {
                    retries += 1;
                    if retries >= MAX_PIN_RETRIES {
                        // Persistent interference; let the caller redo
                        // the lookup rather than spinning here.
                        return PinAttempt {
                            pinned: false,
                            retries,
                        };
                    }
                }
            }
        }
    }

    /// Validate a pin the caller has already published in a pin slot:
    /// true if the frame holds a valid, I/O-complete copy of `page` that
    /// no writer and no latch holder has. Writes nothing.
    ///
    /// The SeqCst header load pairs with the SeqCst slot store before it.
    /// A retag of a valid frame (eviction, invalidate) and a write first
    /// make the frame unpinnable — `LK` or `WR` set with a SeqCst CAS,
    /// or `VALID` cleared before a SeqCst fence — and then scan the
    /// slots: either that scan sees the slot, or this load sees the bit
    /// — or a header published after that, which is judged afresh. After this load no retag can pass the published
    /// slot, so the tag read below is the one the header was published
    /// with, and no version re-check is needed.
    #[inline]
    pub fn check_slot_pin(&self, page: PageId) -> bool {
        let h = self.header.load(Ordering::SeqCst);
        if h & (LOCKED | IO | WRITING) != 0 || h & VALID == 0 {
            return false;
        }
        bpw_dst::yield_point();
        self.tag.load(Ordering::Acquire) == page
    }

    /// Add a header pin for a caller that already holds a pin of this
    /// frame elsewhere (a slot), so that it can hand the pin over. The
    /// held pin keeps the frame's tag and validity as they are, so this
    /// ignores `IO`, `WR` and the tag: it waits out only `LK`, whose
    /// holder writes the header back from its own copy, and the pin
    /// ceiling. SeqCst: the caller then clears its slot, and a victim
    /// check that reads the cleared slot must then see this pin.
    pub(crate) fn add_pin_held(&self) {
        loop {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Relaxed);
            if h & LOCKED != 0 || pins_of(h) == PIN_MASK {
                bpw_dst::yield_now();
                continue;
            }
            if self
                .header
                .compare_exchange_weak(h, h + PIN_ONE, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Drop one pin. Lock-free CAS decrement with a checked guard that
    /// survives release builds: an unpin without a matching pin (the
    /// old `debug_assert!` caught it only in debug profiles — and a
    /// release-mode wrap would have corrupted the flag bits) saturates
    /// at zero and reports [`UnpinOutcome::Underflow`].
    #[inline]
    pub fn unpin(&self) -> UnpinOutcome {
        loop {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Relaxed);
            if h & LOCKED != 0 {
                // A slow-path writer is mid-critical-section; its guard
                // will write the header back from its own copy, so a
                // concurrent decrement would be lost. Latch holds are a
                // few loads/stores — spin until it releases.
                bpw_dst::yield_now();
                continue;
            }
            if pins_of(h) == 0 {
                debug_assert!(false, "unpin without pin");
                return UnpinOutcome::Underflow;
            }
            if self
                .header
                .compare_exchange_weak(h, h - PIN_ONE, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                bpw_dst::record(|| bpw_dst::Op::Unpin {
                    page: self.tag.load(Ordering::Relaxed),
                    pins: pins_of(h) as u32 - 1,
                });
                return UnpinOutcome::Released;
            }
        }
    }

    /// Claim the frame's bytes for a write. The caller holds one header
    /// pin, which becomes a writer's: the call adds it to the writer
    /// count, takes `WRITING` (at once when no writer has it, else after
    /// the current one is done), and then waits until every header pin
    /// on the frame is a writer's and `slot_pinned` says no slot pins
    /// it, i.e. until the readers have left. `WRITING` stops new pins of
    /// both kinds, so the wait is bounded by the readers already in. The
    /// returned guard ends the write on drop and marks the frame dirty.
    ///
    /// A thread must not call this while it holds a second pin of the
    /// same frame: the write would wait for that pin forever. The writer
    /// count holds 255: a 256th concurrent writer of one frame waits for
    /// a slot while its pin keeps the writer that holds `WRITING`
    /// waiting, so at most 255 threads may write one page at once (the
    /// server's writers are its workers).
    pub(crate) fn write_latch(&self, slot_pinned: impl Fn() -> bool) -> WriteLatch<'_> {
        // Join the writers, taking WRITING in the same CAS if it is free.
        // Both CASes that can take WRITING are SeqCst: the slot scan
        // below pairs with a hit's slot store and header load.
        let mut writing = loop {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Relaxed);
            if h & LOCKED != 0 || h & WRITER_MASK == WRITER_MASK {
                bpw_dst::yield_now();
                continue;
            }
            let joined = (h + WRITER_ONE) | WRITING;
            if self
                .header
                .compare_exchange_weak(h, joined, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                break h & WRITING == 0;
            }
        };
        // Queue behind the writer that has it.
        while !writing {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Relaxed);
            if h & (LOCKED | WRITING) != 0 {
                bpw_dst::yield_now();
                continue;
            }
            writing = self
                .header
                .compare_exchange_weak(h, h | WRITING, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
        }
        // Wait out the readers. Acquire pairs with their Release unpins
        // and slot clears: their loads come before this writer's stores.
        loop {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Acquire);
            // MUTANTS (CI-verified): skip the wait altogether, so a write
            // tears under a reader (`write_ignores_readers`), or wait for
            // this writer's own pin alone, so writers queued for WRITING
            // hold pins it waits on forever (`writer_counts_itself_only`),
            // or count header pins only, so a write tears under a hit's
            // slot pin (`write_ignores_slots`).
            #[cfg(not(dst_mutation = "writer_counts_itself_only"))]
            let header_readers_gone = pins_of(h) == writers_of(h);
            #[cfg(dst_mutation = "writer_counts_itself_only")]
            let header_readers_gone = pins_of(h) == 1;
            let readers_gone = header_readers_gone
                && (cfg!(dst_mutation = "write_ignores_slots") || !slot_pinned());
            if readers_gone || cfg!(dst_mutation = "write_ignores_readers") {
                return WriteLatch { desc: self };
            }
            bpw_dst::yield_now();
        }
    }

    /// Acquire the slow-path latch (the `LK` header bit), returning a
    /// guard over an unpacked [`DescState`] copy. Mutations publish on
    /// drop with a version bump. Spins (latch holds never span I/O);
    /// under the dst harness each spin is a voluntary yield.
    pub fn lock(&self) -> DescGuard<'_> {
        loop {
            bpw_dst::yield_point();
            if let Some(g) = self.try_lock() {
                return g;
            }
            bpw_dst::yield_now();
        }
    }

    /// Non-blocking latch attempt. The CAS is SeqCst so that a slot
    /// scan made under the latch pairs with a hit's slot store and
    /// header load ([`check_slot_pin`](Self::check_slot_pin)).
    pub fn try_lock(&self) -> Option<DescGuard<'_>> {
        let h = self.header.load(Ordering::Relaxed);
        if h & LOCKED != 0 {
            return None;
        }
        if self
            .header
            .compare_exchange(h, h | LOCKED, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let state = unpack(h, self.tag.load(Ordering::Relaxed));
        Some(DescGuard {
            desc: self,
            entry: state,
            state,
            header: h,
        })
    }

    /// Snapshot the state (tests, stats, invariant checks): a
    /// seqlock-style read validated against the header version, so the
    /// tag is consistent with the flags.
    pub fn snapshot(&self) -> DescState {
        loop {
            bpw_dst::yield_point();
            let h1 = self.header.load(Ordering::Acquire);
            if h1 & LOCKED != 0 {
                bpw_dst::yield_now();
                std::hint::spin_loop();
                continue;
            }
            let tag = self.tag.load(Ordering::Acquire);
            let h2 = self.header.load(Ordering::Acquire);
            // Same version and no latch on both reads: the tag belongs
            // to h1's version. Pin-count-only movement between h1 and h2
            // is fine — report h2's count (it never changes the tag).
            if h1 >> VERSION_SHIFT == h2 >> VERSION_SHIFT && h2 & LOCKED == 0 {
                return unpack(h2, tag);
            }
        }
    }

    /// Current header pin count (racy read; tests, pin census, and the
    /// victim check after its slot scan, which needs the SeqCst load).
    pub fn pins(&self) -> u32 {
        pins_of(self.header.load(Ordering::SeqCst)) as u32
    }
}

/// RAII slow-path latch guard: derefs to a [`DescState`] copy; writes
/// it back (tag first, then the packed header with `version + 1`,
/// one release store) when dropped. Read-only critical sections skip
/// the version bump so they cannot fail concurrent optimistic pins.
/// The writer count and `WRITING` go back as they were: their CASes
/// spin while `LK` is held, so they cannot have moved.
pub struct DescGuard<'a> {
    desc: &'a BufferDesc,
    /// State as it was at latch acquisition (write-back elision check).
    entry: DescState,
    state: DescState,
    /// The header as latched, `LK` clear.
    header: u64,
}

impl std::ops::Deref for DescGuard<'_> {
    type Target = DescState;

    fn deref(&self) -> &DescState {
        &self.state
    }
}

impl std::ops::DerefMut for DescGuard<'_> {
    fn deref_mut(&mut self) -> &mut DescState {
        &mut self.state
    }
}

impl Drop for DescGuard<'_> {
    fn drop(&mut self) {
        if self.state == self.entry {
            // Nothing changed: restore the pre-latch header unmodified
            // (no version bump), so optimistic pins that straddled this
            // read-only section still validate.
            self.desc.header.store(self.header, Ordering::Release);
            return;
        }
        self.desc.tag.store(self.state.tag, Ordering::Relaxed);
        let version = (self.header >> VERSION_SHIFT).wrapping_add(1);
        self.desc.header.store(
            pack(&self.state, version) | (self.header & WRITER_BITS),
            Ordering::Release,
        );
    }
}

/// A write in progress on one frame ([`BufferDesc::write_latch`]).
/// Dropping it — after the write, or while a panicking write unwinds —
/// ends the write in one CAS: `WRITING` off, the writer count down one,
/// `DIRTY` on. Release: the bytes written come before the next pin's
/// header read (a header pin's CAS, a slot pin's validating load).
pub(crate) struct WriteLatch<'a> {
    desc: &'a BufferDesc,
}

impl Drop for WriteLatch<'_> {
    fn drop(&mut self) {
        let header = &self.desc.header;
        loop {
            bpw_dst::yield_point();
            let h = header.load(Ordering::Relaxed);
            if h & LOCKED != 0 {
                bpw_dst::yield_now();
                continue;
            }
            let done = ((h - WRITER_ONE) & !WRITING) | DIRTY;
            if header
                .compare_exchange_weak(h, done, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_requires_valid_matching_tag() {
        let d = BufferDesc::new();
        assert!(!d.try_pin(5).pinned, "invalid frame must not pin");
        {
            let mut s = d.lock();
            s.tag = 5;
            s.valid = true;
        }
        assert!(d.try_pin(5).pinned);
        assert!(!d.try_pin(6).pinned, "wrong tag must not pin");
        assert_eq!(d.snapshot().pins, 1);
        assert_eq!(d.unpin(), UnpinOutcome::Released);
        assert_eq!(d.snapshot().pins, 0);
    }

    #[test]
    fn io_in_progress_blocks_pin() {
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = 1;
            s.valid = true;
            s.io_in_progress = true;
        }
        assert!(!d.try_pin(1).pinned);
        d.lock().io_in_progress = false;
        assert!(d.try_pin(1).pinned);
    }

    #[test]
    fn concurrent_pins_count() {
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = 9;
            s.valid = true;
        }
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for _ in 0..100 {
                        // Contended CAS may need several rounds; a pin
                        // must still always land (retries are bounded
                        // per attempt, not per pin).
                        while !d.try_pin(9).pinned {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(d.snapshot().pins, 800);
    }

    #[test]
    fn concurrent_pin_unpin_churn_balances() {
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = 3;
            s.valid = true;
        }
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for _ in 0..2_000 {
                        if d.try_pin(3).pinned {
                            assert_eq!(d.unpin(), UnpinOutcome::Released);
                        }
                    }
                });
            }
        });
        assert_eq!(d.snapshot().pins, 0, "pins and unpins must balance");
    }

    #[test]
    fn latch_retag_fails_concurrent_pin_validation() {
        // A pin validated against the old tag must not survive a retag:
        // the version bump makes the CAS fail and the retry sees the
        // new tag.
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = 1;
            s.valid = true;
        }
        assert!(d.try_pin(1).pinned);
        d.unpin();
        {
            let mut s = d.lock();
            s.tag = 2; // retag (what a miss-fill does after invalidate)
        }
        assert!(!d.try_pin(1).pinned, "stale tag must not pin");
        assert!(d.try_pin(2).pinned);
    }

    #[test]
    fn read_only_latch_does_not_bump_version() {
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = 7;
            s.valid = true;
        }
        let before = d.header.load(Ordering::Relaxed) >> VERSION_SHIFT;
        {
            let g = d.lock();
            assert_eq!(g.tag, 7); // read-only section
        }
        let after = d.header.load(Ordering::Relaxed) >> VERSION_SHIFT;
        assert_eq!(before, after, "read-only latch must not bump version");
        {
            let mut g = d.lock();
            g.dirty = true;
        }
        let bumped = d.header.load(Ordering::Relaxed) >> VERSION_SHIFT;
        assert_eq!(bumped, after + 1, "mutation must bump version");
    }

    #[test]
    fn unpin_underflow_saturates_and_reports() {
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = 4;
            s.valid = true;
            s.dirty = true;
        }
        // debug_assert fires in debug builds; the release-profile
        // behaviour is exercised by tests/release_pin_underflow.rs.
        if cfg!(not(debug_assertions)) {
            assert_eq!(d.unpin(), UnpinOutcome::Underflow);
            let s = d.snapshot();
            assert_eq!(s.pins, 0, "underflow must saturate, not wrap");
            assert!(s.valid && s.dirty, "flag bits must be untouched");
        }
    }

    #[test]
    fn pins_stop_at_the_ceiling_instead_of_carrying_into_the_flags() {
        let d = valid_desc(6);
        for _ in 0..PIN_MASK {
            assert!(d.try_pin(6).pinned);
        }
        let full = d.header.load(Ordering::Relaxed);
        assert_eq!(pins_of(full), PIN_MASK);
        assert!(!d.try_pin(6).pinned, "a pin past the ceiling must fail");
        assert_eq!(d.header.load(Ordering::Relaxed), full, "and change nothing");
        assert_eq!(writers_of(full), 0);
        assert_eq!(d.unpin(), UnpinOutcome::Released);
        assert!(d.try_pin(6).pinned, "one below the ceiling pins again");
    }

    #[test]
    fn version_wraps_in_place_and_takes_days_to_do_so() {
        let version_bits = 64 - VERSION_SHIFT;
        assert_eq!(version_bits, 35);
        // Wrap time at the stated per-frame miss rate: 2^35 bumps at
        // four per miss and 10 000 misses a second.
        let (bumps_per_miss, misses_per_s) = (4, 10_000);
        let wrap_s = (1u64 << version_bits) / (bumps_per_miss * misses_per_s);
        assert_eq!(wrap_s / (24 * 3600), 9, "version wraps in {wrap_s} s");
        // At the top of its range the version wraps to zero without
        // touching the flags, the writer bits or the pins.
        let d = valid_desc(8);
        assert!(d.try_pin(8).pinned);
        let h = d.header.load(Ordering::Relaxed);
        d.header
            .store(h | (u64::MAX << VERSION_SHIFT), Ordering::Relaxed);
        d.lock().dirty = true;
        let wrapped = d.header.load(Ordering::Relaxed);
        assert_eq!(wrapped >> VERSION_SHIFT, 0);
        assert_eq!(wrapped, h & !(u64::MAX << VERSION_SHIFT) | DIRTY);
        let s = d.snapshot();
        assert!(s.valid && s.dirty && s.pins == 1 && s.tag == 8);
    }

    fn valid_desc(tag: PageId) -> BufferDesc {
        let d = BufferDesc::new();
        {
            let mut s = d.lock();
            s.tag = tag;
            s.valid = true;
        }
        d
    }

    #[test]
    fn a_write_blocks_pins_and_ends_dirty_with_the_header_restored() {
        let d = valid_desc(2);
        assert!(d.try_pin(2).pinned);
        let before = d.header.load(Ordering::Relaxed);
        {
            let _w = d.write_latch(|| false);
            let h = d.header.load(Ordering::Relaxed);
            assert_eq!((writers_of(h), h & WRITING), (1, WRITING));
            assert!(!d.try_pin(2).pinned, "no pin lands during a write");
            // A slow-path latch in the middle keeps the writer bits.
            d.lock().dirty = true;
            assert_eq!(
                d.header.load(Ordering::Relaxed) & WRITER_BITS,
                h & WRITER_BITS
            );
        }
        let after = d.header.load(Ordering::Relaxed);
        let version = u64::MAX << VERSION_SHIFT;
        assert_eq!(after & !(DIRTY | version), before & !version);
        assert!(d.snapshot().dirty);
        assert!(d.try_pin(2).pinned);
    }

    #[test]
    fn a_panicking_write_still_ends() {
        let d = valid_desc(3);
        assert!(d.try_pin(3).pinned);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _w = d.write_latch(|| false);
            panic!("write failed");
        }));
        assert!(caught.is_err());
        let h = d.header.load(Ordering::Relaxed);
        assert_eq!((writers_of(h), h & WRITING, pins_of(h)), (0, 0, 1));
        assert!(d.try_pin(3).pinned);
    }

    #[test]
    fn a_writer_waits_for_readers_and_for_a_writer_slot() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let d = valid_desc(4);
        // A reader's pin, and every writer slot taken as if by 255
        // pinned writers.
        assert!(d.try_pin(4).pinned);
        let phantoms = WRITER_MASK + (WRITER_MASK >> WRITER_SHIFT);
        d.header.fetch_add(phantoms, Ordering::Relaxed);
        let wrote = AtomicBool::new(false);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                assert!(d.try_pin(4).pinned); // the writer's own pin
                let _w = d.write_latch(|| false);
                wrote.store(true, Ordering::Release);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(!wrote.load(Ordering::Acquire), "no free writer slot");
            d.header.fetch_sub(phantoms, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            assert!(!wrote.load(Ordering::Acquire), "a reader still holds a pin");
            assert_eq!(d.unpin(), UnpinOutcome::Released);
        });
        assert!(wrote.load(Ordering::Acquire));
        assert_eq!(d.pins(), 1, "the writer's pin stays with its holder");
    }

    #[test]
    fn try_lock_excludes_and_releases() {
        let d = BufferDesc::new();
        let g = d.try_lock().expect("uncontended latch");
        assert!(d.try_lock().is_none(), "latch must exclude");
        drop(g);
        assert!(d.try_lock().is_some());
    }

    #[test]
    fn snapshot_is_flag_tag_consistent() {
        let d = BufferDesc::new();
        std::thread::scope(|sc| {
            let writer = sc.spawn(|| {
                for i in 0..10_000u64 {
                    let mut s = d.lock();
                    s.tag = i;
                    s.valid = i % 2 == 0;
                    s.dirty = i % 2 == 1;
                }
            });
            for _ in 0..10_000 {
                let s = d.snapshot();
                // The header and the tag are two atomics: only the
                // version check ties a header's flags to its tag.
                assert_eq!(
                    s.dirty,
                    s.tag % 2 == 1,
                    "snapshot tore tag vs dirty: tag {} dirty {}",
                    s.tag,
                    s.dirty
                );
                // A fresh descriptor is `tag 0, invalid`; the writer's
                // first publication is `tag 0, valid`. Only tag 0 may be
                // seen with either flag.
                assert!(
                    s.valid == s.tag.is_multiple_of(2) || (s.tag == 0 && !s.valid),
                    "snapshot tore tag vs flags: tag {} valid {}",
                    s.tag,
                    s.valid
                );
            }
            writer.join().unwrap();
        });
    }
}
