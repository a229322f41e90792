//! Release-profile regression for the unpin-underflow bugfix.
//!
//! The seed guarded `unpin` with `debug_assert!(s.pins > 0)` — which
//! compiles to nothing under `--release`, so a pin/unpin imbalance
//! would have decremented `pins: u32` straight through zero. In the
//! packed-atomic header that wrap would be catastrophic rather than
//! just wrong: the borrow would rip through the valid/dirty/io flag
//! bits and the version field. The checked decrement saturates at zero
//! and reports [`UnpinOutcome::Underflow`] instead, in **every**
//! profile.
//!
//! Run under `--release` in CI: the release half below is exactly the
//! code path debug builds cannot reach (their `debug_assert!` aborts
//! first, which `unpin_underflow_still_panics_in_debug` pins down).

#![cfg(not(feature = "dst"))]

use bpw_bufferpool::BufferDesc;
#[cfg(not(debug_assertions))]
use bpw_bufferpool::UnpinOutcome;

fn valid_desc(tag: u64) -> BufferDesc {
    let d = BufferDesc::new();
    {
        let mut s = d.lock();
        s.tag = tag;
        s.valid = true;
        s.dirty = true;
    }
    d
}

#[cfg(not(debug_assertions))]
#[test]
fn release_unpin_underflow_saturates_and_reports() {
    let d = valid_desc(9);
    assert_eq!(d.unpin(), UnpinOutcome::Underflow, "first extra unpin");
    assert_eq!(d.unpin(), UnpinOutcome::Underflow, "stays saturated");
    let s = d.snapshot();
    assert_eq!(s.pins, 0, "count must saturate at zero, not wrap");
    assert!(s.valid && s.dirty, "flag bits must survive the underflow");
    assert_eq!(s.tag, 9, "tag must survive the underflow");
    // The descriptor is still fully functional afterwards.
    assert!(d.try_pin(9).pinned);
    assert_eq!(d.snapshot().pins, 1);
    assert_eq!(d.unpin(), UnpinOutcome::Released);
    assert_eq!(d.snapshot().pins, 0);
}

#[cfg(not(debug_assertions))]
#[test]
fn release_underflow_under_concurrent_pin_traffic() {
    // The saturating decrement is a CAS loop; make sure a racing
    // legitimate pin/unpin stream never lets an underflow slip a wrap
    // through (the interleaving the single-threaded test can't see).
    let d = valid_desc(3);
    std::thread::scope(|sc| {
        for _ in 0..4 {
            sc.spawn(|| {
                for _ in 0..10_000 {
                    if d.try_pin(3).pinned {
                        // A rogue unpin may steal this pin, making our
                        // own release saturate — both outcomes are
                        // legal; what matters is the count never wraps.
                        let _ = d.unpin();
                    }
                }
            });
        }
        sc.spawn(|| {
            for _ in 0..1_000 {
                // Unmatched unpins racing the balanced traffic.
                let _ = d.unpin();
            }
        });
    });
    let s = d.snapshot();
    assert!(
        s.pins <= 1_000,
        "pin count wrapped or leaked: {} outstanding",
        s.pins
    );
    assert!(
        s.valid && s.dirty,
        "flags corrupted by concurrent underflow"
    );
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "unpin without pin")]
fn unpin_underflow_still_panics_in_debug() {
    let d = valid_desc(1);
    let _ = d.unpin();
}
