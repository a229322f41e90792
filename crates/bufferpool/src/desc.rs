//! Buffer descriptors: per-frame metadata (tag, pin count, flags) in a
//! single packed atomic header — the "buffer header lock collapsed into
//! one CAS word" design modern engines converged on (PostgreSQL 9.6's
//! `BufferDesc.state`, LeanStore-style optimistic latches) — so a cache
//! hit pins and unpins with **zero lock acquisitions**.
//!
//! # Header layout (one `AtomicU64`)
//!
//! ```text
//!   63                    22 21 20 19 18 17                 0
//!  +------------------------+--+--+--+--+--------------------+
//!  |       version (42)     |LK|IO|DT|VD|      pins (18)     |
//!  +------------------------+--+--+--+--+--------------------+
//!   LK = slow-path writer latch   IO = io_in_progress
//!   DT = dirty                    VD = valid
//! ```
//!
//! * **Fast paths** ([`BufferDesc::try_pin`], [`BufferDesc::unpin`])
//!   are bounded CAS loops on the header. `try_pin` loads the header,
//!   rejects latched/invalid/in-I/O frames, reads the tag, and CASes
//!   `pins + 1` against the *exact* header it validated: because every
//!   slow-path writer bumps `version` when it releases the latch, a
//!   successful CAS proves no retag/invalidate/miss-fill intervened
//!   between the tag read and the pin landing (no ABA — the version
//!   would differ). `unpin` is the mirror decrement, with a checked
//!   release-mode guard: an underflow saturates at zero and bumps the
//!   `bpw_pin_underflow_total` counter instead of silently wrapping the
//!   pin count into the flag bits.
//! * **Slow paths** (miss fill, invalidate, eviction's victim filter,
//!   frame repair) acquire the `LK` bit via CAS —
//!   [`BufferDesc::lock`] — mutate an unpacked [`DescState`] copy, and
//!   publish it on guard drop with `version + 1` in a single release
//!   store. While `LK` is held, `try_pin` fails (callers retry through
//!   the fetch loop) and `unpin` spins (the latch is only ever held for
//!   a few loads/stores, never across I/O), so the guard's write-back
//!   cannot clobber a concurrent pin-count change.
//!
//! `tag` lives outside the header as a plain atomic written only under
//! the `LK` latch; readers validate it against the header version
//! seqlock-style ([`BufferDesc::snapshot`]).

use std::sync::atomic::{AtomicU64, Ordering};

use bpw_replacement::PageId;

/// Bits 0..18: pin count (262 143 concurrent pins per frame).
const PIN_BITS: u32 = 18;
const PIN_MASK: u64 = (1 << PIN_BITS) - 1;
const PIN_ONE: u64 = 1;
/// Frame holds a current, usable copy of `tag`.
const VALID: u64 = 1 << 18;
/// The in-buffer copy is newer than storage.
const DIRTY: u64 = 1 << 19;
/// A read from storage is filling this frame.
const IO: u64 = 1 << 20;
/// Slow-path writer latch.
const LOCKED: u64 = 1 << 21;
/// Bits 22..64: version, bumped once per slow-path critical section
/// that may have mutated state. Wraps after 2^42 descriptor writes —
/// descriptor writes happen on misses, so at 10M misses/s that is two
/// weeks of sustained missing on one frame before a theoretical wrap.
const VERSION_SHIFT: u32 = 22;

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
    /// Number of threads currently using the frame (an unpinned frame is
    /// the only eviction candidate).
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
/// descriptor together with its frame's content latch, so everything a
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
    /// a valid, I/O-complete copy of `page`. Lock-free: a bounded CAS
    /// loop whose success proves (via the header version) that the tag
    /// it validated was current at the instant the pin landed.
    #[inline]
    pub fn try_pin(&self, page: PageId) -> PinAttempt {
        let mut retries = 0u32;
        // Each iteration is a schedule point under the dst harness: the
        // window between the tag read and the CAS is exactly where a
        // concurrent invalidate/miss-fill can retag the frame.
        loop {
            bpw_dst::yield_point();
            let h = self.header.load(Ordering::Acquire);
            if h & (LOCKED | IO) != 0 || h & VALID == 0 {
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
            // tag load from sinking below the pin store.
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
            if expected & (LOCKED | IO) != 0 || expected & VALID == 0 {
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

    /// Non-blocking latch attempt.
    pub fn try_lock(&self) -> Option<DescGuard<'_>> {
        let h = self.header.load(Ordering::Relaxed);
        if h & LOCKED != 0 {
            return None;
        }
        if self
            .header
            .compare_exchange(h, h | LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let state = unpack(h, self.tag.load(Ordering::Relaxed));
        Some(DescGuard {
            desc: self,
            entry: state,
            state,
            version: h >> VERSION_SHIFT,
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

    /// Current pin count (racy read; tests and victim prefilters).
    pub fn pins(&self) -> u32 {
        pins_of(self.header.load(Ordering::Relaxed)) as u32
    }
}

/// RAII slow-path latch guard: derefs to a [`DescState`] copy; writes
/// it back (tag first, then the packed header with `version + 1`,
/// one release store) when dropped. Read-only critical sections skip
/// the version bump so they cannot fail concurrent optimistic pins.
pub struct DescGuard<'a> {
    desc: &'a BufferDesc,
    /// State as it was at latch acquisition (write-back elision check).
    entry: DescState,
    state: DescState,
    version: u64,
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
            self.desc
                .header
                .store(pack(&self.entry, self.version), Ordering::Release);
            return;
        }
        self.desc.tag.store(self.state.tag, Ordering::Relaxed);
        self.desc.header.store(
            pack(&self.state, self.version.wrapping_add(1)),
            Ordering::Release,
        );
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
