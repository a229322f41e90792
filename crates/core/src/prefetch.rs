//! The prefetching technique (paper §III-B): before requesting the lock,
//! read the data the critical section will touch so the cache misses land
//! *outside* the lock-holding period ("lock warm-up cost").
//!
//! The paper prefetches (a) the fields of the lock data structure and
//! (b) the forward/backward pointers of the accessed pages' list nodes.
//! We issue hardware prefetch hints (`prefetcht0` on x86-64) to the same
//! addresses: the lock word + policy header, and each queued access's
//! node in the policy's stable metadata arena.
//!
//! A prefetch hint never architecturally reads the value, so issuing it
//! on memory that another thread is concurrently writing is safe — the
//! coherence protocol invalidates or updates the line, exactly the
//! behaviour the paper relies on ("some hardware mechanism built in
//! processors will automatically invalidate them ... to keep data
//! coherent").

use bpw_replacement::NodeRegion;

use crate::queue::AccessEntry;

/// Typical cache line size; prefetches are issued per line.
pub const CACHE_LINE: usize = 64;

/// Issue a prefetch hint for the cache line containing `addr`.
#[inline]
pub fn prefetch_line(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(addr as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = addr; // no portable stable intrinsic; hint dropped
    }
}

/// Issue prefetch hints covering `len` bytes starting at `addr`.
#[inline]
pub fn prefetch_span(addr: usize, len: usize) {
    let mut line = addr & !(CACHE_LINE - 1);
    let end = addr + len.max(1);
    while line < end {
        prefetch_line(line);
        line += CACHE_LINE;
    }
}

/// Headers are warmed up to this many bytes, so a huge policy struct
/// does not turn the hint into a scan.
const MAX_HEADER: usize = 256;

/// Precomputed prefetch targets for one wrapped policy.
#[derive(Debug, Clone, Copy)]
pub struct Prefetcher {
    enabled: bool,
    /// Bytes to warm from the lock's address: its statistics and lock
    /// word, then the value behind it. The address moves with the
    /// wrapper, so each commit passes it in.
    inline_len: usize,
    /// The policy's header (list heads, counters) when it lives behind a
    /// pointer — a boxed policy's heap struct, which never moves.
    header: Option<(usize, usize)>,
    /// Per-frame metadata region, if the policy exposes one.
    region: Option<NodeRegion>,
}

impl Prefetcher {
    /// Build a prefetcher for a locked value of `inline_len` bytes whose
    /// header may live elsewhere (`header`, as `(address, bytes)`), with
    /// an optional per-frame [`NodeRegion`].
    pub fn new(
        inline_len: usize,
        header: Option<(usize, usize)>,
        region: Option<NodeRegion>,
    ) -> Self {
        Prefetcher {
            enabled: true,
            inline_len: inline_len.min(MAX_HEADER),
            header: header.map(|(addr, len)| (addr, len.min(MAX_HEADER))),
            region,
        }
    }

    /// A prefetcher that does nothing (prefetching disabled).
    pub fn disabled() -> Self {
        Prefetcher {
            enabled: false,
            inline_len: 0,
            header: None,
            region: None,
        }
    }

    /// The out-of-line header span warmed before each commit, if any.
    #[cfg(test)]
    pub(crate) fn header(&self) -> Option<(usize, usize)> {
        self.header
    }

    /// Warm the cache for a commit of `entries`: the lock's statistics,
    /// lock word and the value after them at `lock_data` (the lock's
    /// current address),
    /// the policy header, and each entry's node metadata.
    #[inline]
    pub fn prefetch_for_commit(&self, lock_data: usize, entries: &[AccessEntry]) {
        if !self.enabled {
            return;
        }
        prefetch_span(lock_data, self.inline_len);
        if let Some((addr, len)) = self.header {
            prefetch_span(addr, len);
        }
        if let Some(region) = self.region {
            for e in entries {
                if let Some(addr) = region.addr_of(e.frame) {
                    prefetch_line(addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        // Prefetching arbitrary valid addresses must not crash or alter data.
        let data = vec![7u8; 4096];
        let addr = data.as_ptr() as usize;
        prefetch_line(addr);
        prefetch_span(addr, 4096);
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn prefetcher_covers_entries() {
        let nodes = vec![0u64; 128];
        let region = NodeRegion {
            base: nodes.as_ptr() as usize,
            stride: std::mem::size_of::<u64>(),
            count: nodes.len(),
        };
        let header = vec![0u8; 256];
        let p = Prefetcher::new(64, Some((header.as_ptr() as usize, 256)), Some(region));
        let entries = [
            AccessEntry::hit(1, 0),
            AccessEntry::hit(2, 127),
            AccessEntry::hit(3, 9999), // out of range: skipped
        ];
        p.prefetch_for_commit(nodes.as_ptr() as usize, &entries); // must not fault
    }

    #[test]
    fn disabled_prefetcher_is_noop() {
        let p = Prefetcher::disabled();
        assert_eq!(p.header(), None);
        p.prefetch_for_commit(0, &[AccessEntry::hit(1, 0)]);
    }

    #[test]
    fn span_rounds_to_lines() {
        // Spanning an unaligned range must cover both end lines.
        let buf = vec![0u8; 300];
        prefetch_span(buf.as_ptr() as usize + 30, 200);
    }
}
