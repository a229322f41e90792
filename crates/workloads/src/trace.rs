//! Trace capture and replay: flatten any workload into a concrete page
//! reference string (per thread), so experiments can re-run the *exact*
//! same accesses across systems — the paper's apples-to-apples setup.

use crate::{TransactionStream, Workload};

/// A captured per-thread trace: page ids plus transaction boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Flattened page accesses.
    pub pages: Vec<u64>,
    /// End offsets (exclusive) of each transaction within `pages`.
    txn_ends: Vec<usize>,
}

impl Trace {
    /// Capture `txns` transactions from a stream.
    pub fn capture(stream: &mut dyn TransactionStream, txns: usize) -> Self {
        let mut pages = Vec::new();
        let mut txn_ends = Vec::with_capacity(txns);
        for _ in 0..txns {
            stream.next_transaction(&mut pages);
            txn_ends.push(pages.len());
        }
        Trace { pages, txn_ends }
    }

    /// Capture one trace per thread from a workload.
    pub fn capture_per_thread(
        workload: &dyn Workload,
        threads: usize,
        txns: usize,
        seed: u64,
    ) -> Vec<Trace> {
        (0..threads)
            .map(|t| {
                let mut s = workload.stream(t, seed);
                Trace::capture(&mut *s, txns)
            })
            .collect()
    }

    /// Number of transactions.
    fn txn_count(&self) -> usize {
        self.txn_ends.len()
    }

    /// Total page accesses.
    #[cfg(test)]
    fn access_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterate transactions as slices.
    pub fn transactions(&self) -> impl Iterator<Item = &[u64]> + '_ {
        let mut start = 0;
        self.txn_ends.iter().map(move |&end| {
            let t = &self.pages[start..end];
            start = end;
            t
        })
    }

    /// Distinct pages touched (the working-set size).
    #[cfg(test)]
    fn distinct_pages(&self) -> usize {
        let mut v = self.pages.clone();
        v.sort_unstable();
        v.dedup();
        v.len()
    }
}

/// Replay a trace as a `TransactionStream` (wraps around at the end).
pub struct TraceReplay {
    trace: Trace,
    next_txn: usize,
}

impl TraceReplay {
    /// Replay `trace` from the beginning.
    pub fn new(trace: Trace) -> Self {
        assert!(trace.txn_count() > 0, "cannot replay an empty trace");
        TraceReplay { trace, next_txn: 0 }
    }
}

impl TransactionStream for TraceReplay {
    fn next_transaction(&mut self, out: &mut Vec<u64>) {
        let start = if self.next_txn == 0 {
            0
        } else {
            self.trace.txn_ends[self.next_txn - 1]
        };
        let end = self.trace.txn_ends[self.next_txn];
        out.extend_from_slice(&self.trace.pages[start..end]);
        self.next_txn = (self.next_txn + 1) % self.trace.txn_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SequentialLoop;

    #[test]
    fn capture_and_iterate() {
        let w = SequentialLoop::new(10, 4);
        let mut s = w.stream(0, 0);
        let t = Trace::capture(&mut *s, 3);
        assert_eq!(t.txn_count(), 3);
        assert_eq!(t.access_count(), 12);
        let txns: Vec<&[u64]> = t.transactions().collect();
        assert_eq!(txns.len(), 3);
        assert_eq!(txns[0], &[0, 1, 2, 3]);
        assert_eq!(txns[1], &[4, 5, 6, 7]);
        assert_eq!(t.distinct_pages(), 10); // 12 accesses wrap over 10 pages
    }

    #[test]
    fn replay_matches_capture_and_wraps() {
        let w = SequentialLoop::new(6, 3);
        let mut s = w.stream(0, 0);
        let t = Trace::capture(&mut *s, 2);
        let mut r = TraceReplay::new(t.clone());
        let mut buf = Vec::new();
        r.next_transaction(&mut buf);
        assert_eq!(buf, t.pages[..3].to_vec());
        buf.clear();
        r.next_transaction(&mut buf);
        assert_eq!(buf, t.pages[3..6].to_vec());
        buf.clear();
        r.next_transaction(&mut buf); // wrapped
        assert_eq!(buf, t.pages[..3].to_vec());
    }

    #[test]
    fn per_thread_capture_is_independent() {
        let w = crate::synthetic::ZipfWorkload::new(100, 0.9, 5);
        let traces = Trace::capture_per_thread(&w, 3, 10, 77);
        assert_eq!(traces.len(), 3);
        assert_ne!(traces[0], traces[1]);
        for t in &traces {
            assert_eq!(t.txn_count(), 10);
        }
    }
}
