//! Cache-line padding for hot shared structs.
//!
//! The buffer pool's per-frame and per-session structures — its buffer
//! descriptors, its sessions' slot-pin lines, `SimDisk`'s storage
//! stripes — are arrays of small atomics or locks. Packed densely,
//! several share one 64-byte line and every write by one thread
//! invalidates the line under the others (false sharing).
//! [`CachePadded`] aligns and pads its contents to a cache line so each
//! element owns its line.
//!
//! The vendored crossbeam has an equivalent wrapper (128-byte aligned,
//! used by `bpw-metrics`); core deliberately does not depend on
//! crossbeam, and 64 bytes is the actual line size on every target this
//! repo builds for, so this is a standalone `#[repr(align(64))]`
//! wrapper.

/// Pads and aligns `T` to a 64-byte cache line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap, discarding the padding.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_atomics_do_not_share_lines() {
        use std::sync::atomic::AtomicU64;
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 64);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
        let pair: [CachePadded<AtomicU64>; 2] = [
            CachePadded::new(AtomicU64::new(0)),
            CachePadded::new(AtomicU64::new(0)),
        ];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 64, "adjacent padded atomics share a line");
    }

    #[test]
    fn deref_reaches_the_value() {
        let mut c = CachePadded::new(7u32);
        assert_eq!(*c, 7);
        *c = 9;
        assert_eq!(c.into_inner(), 9);
    }
}
