//! Shim primitives: drop-in replacements for `std::sync` atomics and
//! mutexes that insert a [`crate::yield_point`] before every
//! shared-memory operation. With the `dst` feature off, `yield_point`
//! is an empty `#[inline(always)]` stub, so these compile down to the
//! bare std primitives.
//!
//! Only the operation surface the workspace actually uses is covered —
//! these are test shims, not a general library.

use std::sync::atomic::Ordering;
use std::sync::{MutexGuard, TryLockError};

macro_rules! shim_atomic {
    ($name:ident, $inner:ty, $prim:ty) => {
        /// Yield-instrumented atomic; see module docs.
        #[repr(transparent)]
        #[derive(Debug, Default)]
        pub struct $name($inner);

        impl $name {
            #[inline]
            pub const fn new(v: $prim) -> Self {
                Self(<$inner>::new(v))
            }

            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                crate::yield_point();
                self.0.load(order)
            }

            #[inline]
            pub fn store(&self, v: $prim, order: Ordering) {
                crate::yield_point();
                self.0.store(v, order)
            }

            #[inline]
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                crate::yield_point();
                self.0.swap(v, order)
            }

            #[inline]
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                crate::yield_point();
                self.0.fetch_add(v, order)
            }

            #[inline]
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                crate::yield_point();
                self.0.fetch_sub(v, order)
            }

            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                // The yield sits between the caller's read of the old
                // value and the CAS itself — exactly the window where
                // ABA and lost-update bugs live.
                crate::yield_point();
                self.0.compare_exchange(current, new, success, failure)
            }

            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                crate::yield_point();
                self.0.compare_exchange_weak(current, new, success, failure)
            }
        }
    };
}

shim_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// A mutex that never blocks the OS thread while a simulation is
/// active: inside a virtual thread, acquisition spins on `try_lock`
/// with a voluntary yield per failure, so the scheduler keeps full
/// control. Outside a simulation it is a plain std mutex (poisoning
/// ignored, matching the vendored parking_lot shim's semantics).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if crate::in_task() {
            loop {
                match self.0.try_lock() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => crate::yield_now(),
                }
            }
        }
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        crate::yield_point();
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;

    #[test]
    fn atomics_behave_like_std_outside_simulation() {
        let a = AtomicU64::new(5);
        assert_eq!(a.load(SeqCst), 5);
        a.store(6, SeqCst);
        assert_eq!(a.fetch_add(2, SeqCst), 6);
        assert_eq!(a.swap(1, SeqCst), 8);
        assert_eq!(a.compare_exchange(1, 9, SeqCst, SeqCst), Ok(1));
        assert_eq!(a.compare_exchange(1, 3, SeqCst, SeqCst), Err(9));
    }

    #[test]
    fn mutex_gives_exclusive_access() {
        let m = Mutex::new(0u32);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.lock(), 1);
        assert_eq!(m.into_inner(), 1);
    }
}
