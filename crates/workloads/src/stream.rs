//! Flattening adapter from transaction streams to per-page iteration.
//!
//! The load generator in `bpw-server` issues one request per page
//! access, so it wants an endless page-at-a-time view of a workload
//! rather than the transaction bursts [`TransactionStream`] produces.
//! [`PageStream`] refills an internal buffer one transaction at a time
//! and hands out single pages, also reporting transaction boundaries so
//! closed-loop clients can insert think time between transactions.

use crate::{TransactionStream, Workload};

/// Endless per-page view over one thread's [`TransactionStream`].
pub struct PageStream {
    inner: Box<dyn TransactionStream>,
    buf: Vec<u64>,
    next: usize,
}

impl PageStream {
    /// Flatten `stream` into single page accesses.
    pub fn new(stream: Box<dyn TransactionStream>) -> Self {
        PageStream {
            inner: stream,
            buf: Vec::new(),
            next: 0,
        }
    }

    /// Convenience: build the flattened stream for one worker thread of
    /// `workload` (same determinism contract as [`Workload::stream`]).
    pub fn for_thread(workload: &dyn Workload, thread_id: usize, seed: u64) -> Self {
        Self::new(workload.stream(thread_id, seed))
    }

    /// The next page access. Never exhausts: transaction streams are
    /// endless and every transaction has at least one access.
    pub fn next_page(&mut self) -> u64 {
        if self.next >= self.buf.len() {
            self.buf.clear();
            self.inner.next_transaction(&mut self.buf);
            assert!(!self.buf.is_empty(), "transaction with zero accesses");
            self.next = 0;
        }
        let page = self.buf[self.next];
        self.next += 1;
        page
    }

    /// True when the *next* [`next_page`](Self::next_page) call will
    /// start a new transaction — the natural point for think time.
    pub fn at_transaction_boundary(&self) -> bool {
        self.next >= self.buf.len()
    }

    /// Pages remaining in the current transaction.
    #[cfg(test)]
    fn remaining_in_transaction(&self) -> usize {
        self.buf.len() - self.next
    }
}

impl Iterator for PageStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.next_page())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadKind;

    #[test]
    fn flattening_preserves_order() {
        let w = WorkloadKind::Dbt1.build();
        let mut expected = Vec::new();
        let mut s = w.stream(3, 99);
        for _ in 0..10 {
            s.next_transaction(&mut expected);
        }
        let flat: Vec<u64> = PageStream::for_thread(w.as_ref(), 3, 99)
            .take(expected.len())
            .collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn boundary_tracking_matches_transactions() {
        let w = WorkloadKind::Dbt2.build();
        let mut s = w.stream(0, 7);
        let mut first = Vec::new();
        s.next_transaction(&mut first);

        let mut ps = PageStream::for_thread(w.as_ref(), 0, 7);
        assert!(ps.at_transaction_boundary(), "fresh stream starts a txn");
        for _ in 0..first.len() - 1 {
            ps.next_page();
            assert!(!ps.at_transaction_boundary() || ps.remaining_in_transaction() == 0);
        }
        ps.next_page();
        assert!(ps.at_transaction_boundary(), "end of first txn");
    }

    #[test]
    fn deterministic_per_thread_and_seed() {
        let w = WorkloadKind::TableScan.build();
        let a: Vec<u64> = PageStream::for_thread(w.as_ref(), 1, 5).take(500).collect();
        let b: Vec<u64> = PageStream::for_thread(w.as_ref(), 1, 5).take(500).collect();
        let c: Vec<u64> = PageStream::for_thread(w.as_ref(), 2, 5).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different threads must be decorrelated");
    }

    #[test]
    fn pages_stay_in_universe() {
        for kind in WorkloadKind::ALL {
            let w = kind.build();
            let universe = w.page_universe();
            let mut ps = PageStream::for_thread(w.as_ref(), 0, 42);
            for _ in 0..2_000 {
                assert!(ps.next_page() < universe, "{kind}");
            }
        }
    }
}
