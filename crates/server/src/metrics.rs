//! End-to-end latency observability for the page service.
//!
//! One [`ServerMetrics`] is shared by every thread of the server.
//! Latency is measured from the request's turn (the frontend thread
//! starts decoding its complete frame) to *reply written*. The stages of
//! a request share their boundaries, one clock read each, so they sum
//! exactly to its end-to-end sample.

use std::sync::Arc;

use bpw_metrics::{Counter, Gauge, Histogram};

use crate::protocol::Request;

/// Which histogram a request's latency lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// GET (page read).
    Get,
    /// PUT (page write).
    Put,
    /// SCAN (range read).
    Scan,
}

impl OpKind {
    /// Every kind, in index order.
    pub const ALL: [OpKind; 3] = [OpKind::Get, OpKind::Put, OpKind::Scan];

    /// The latency bucket a request belongs to (`None` for control
    /// requests, which are answered without a ticket).
    pub fn of(req: &Request) -> Option<OpKind> {
        match req {
            Request::Get { .. } => Some(OpKind::Get),
            Request::Put { .. } => Some(OpKind::Put),
            Request::Scan { .. } => Some(OpKind::Scan),
            Request::Stats | Request::Shutdown | Request::Metrics => None,
        }
    }

    /// Dense index (for per-op metric arrays).
    pub fn index(self) -> usize {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::Scan => 2,
        }
    }

    /// Stable lowercase name (JSON key, Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::Scan => "scan",
        }
    }
}

/// The pipeline stages a request's end-to-end latency decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing the request body out of a complete frame.
    Decode,
    /// Sitting in a queue before execution. Never recorded: every
    /// request runs on the thread that decoded it. The row is kept
    /// because `perfbench` reads `stages.<op>.queue_wait` from STATS.
    QueueWait,
    /// Executing against the buffer pool, *minus* the miss-I/O time
    /// attributed below — a hit's latch-and-go cost, with the batch
    /// commits it ran.
    PinHit,
    /// Miss-path storage I/O (victim write-back + page read).
    MissIo,
    /// Never recorded: a batch commit sits on the hit-only hot path,
    /// where timing each one would cost two clock reads per batch, so
    /// its time stays inside `PinHit`. The empty row is kept because
    /// `perfbench` reads `stages.<op>.batch_commit` from STATS.
    BatchCommit,
    /// Writing the reply frame back toward the client (the socket write
    /// under the threaded frontend; frame serialization into the
    /// coalesced write buffer under the event loop).
    ReplyFlush,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Decode,
        Stage::QueueWait,
        Stage::PinHit,
        Stage::MissIo,
        Stage::BatchCommit,
        Stage::ReplyFlush,
    ];

    /// Stable snake_case name (JSON key, Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::PinHit => "pin_hit",
            Stage::MissIo => "miss_io",
            Stage::BatchCommit => "batch_commit",
            Stage::ReplyFlush => "reply_flush",
        }
    }
}

/// Shared server-side counters and latency histograms.
///
/// All fields are lock-free atomics; cloning the [`Arc`] wrapper is the
/// intended sharing pattern.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// End-to-end GET latency, nanoseconds.
    pub get_ns: Histogram,
    /// End-to-end PUT latency, nanoseconds.
    pub put_ns: Histogram,
    /// End-to-end SCAN latency, nanoseconds.
    pub scan_ns: Histogram,
    /// Time spent queued before execution, ns. Never sampled: nothing
    /// queues (kept because `perfbench` reads it).
    pub queue_wait_ns: Histogram,
    /// Requests answered `OK`.
    pub ok: Counter,
    /// Requests answered `BUSY`. No server sends it; the status stays
    /// on the wire because clients count it.
    pub busy: Counter,
    /// Requests answered `DROPPED` (deadline passed before their turn).
    pub dropped: Counter,
    /// Requests answered `ERR`.
    pub errors: Counter,
    /// Requests answered `ERR_IO` (storage failed after retries).
    pub io_errors: Counter,
    /// GETs that found their page resident: pinned by the frontend
    /// thread that decoded them and answered from the frame.
    pub inline_hits: Counter,
    /// Client connections currently open (both frontends track this;
    /// the peak is the fan-in high-water mark).
    pub connections_open: Gauge,
    /// Event-loop wakeups (`epoll_wait` returns). Zero under the
    /// threaded frontend.
    pub epoll_wakeups: Counter,
    /// Ready fds delivered per wakeup — how much work each syscall
    /// amortizes. Zero-sample under the threaded frontend.
    pub ready_per_wakeup: Histogram,
    /// Requests an event loop answered in one pass over a connection's
    /// buffered frames. Depth 1 is strict request/reply. Zero-sample
    /// under the threaded frontend.
    pub pipeline_depth: Histogram,
    /// Nonblocking writes that accepted only part of the buffer — each
    /// one is a stall a blocking connection thread would have eaten.
    pub short_writes: Counter,
    /// Per-opcode, per-stage latency attribution (indexed by
    /// [`OpKind::index`], then by [`Stage`] in pipeline order).
    pub stages: [[Histogram; 6]; 3],
}

impl ServerMetrics {
    /// New, zeroed metrics behind an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record a request of `kind` answered `OK` after `ns` nanoseconds
    /// (admission to reply written).
    pub fn record_ok(&self, kind: OpKind, ns: u64) {
        match kind {
            OpKind::Get => self.get_ns.record(ns),
            OpKind::Put => self.put_ns.record(ns),
            OpKind::Scan => self.scan_ns.record(ns),
        }
        self.ok.incr();
    }

    /// The latency histogram of one stage of one opcode.
    pub fn stage(&self, kind: OpKind, stage: Stage) -> &Histogram {
        &self.stages[kind.index()][stage as usize]
    }

    /// Record one stage sample for `kind`.
    pub fn record_stage(&self, kind: OpKind, stage: Stage, ns: u64) {
        self.stage(kind, stage).record(ns);
    }

    /// Total requests that received any reply.
    pub fn total(&self) -> u64 {
        self.ok.get()
            + self.busy.get()
            + self.dropped.get()
            + self.errors.get()
            + self.io_errors.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_covers_exactly_the_data_requests() {
        assert_eq!(OpKind::of(&Request::Get { page: 1 }), Some(OpKind::Get));
        let put = Request::Put {
            page: 1,
            data: vec![],
        };
        assert_eq!(OpKind::of(&put), Some(OpKind::Put));
        assert_eq!(
            OpKind::of(&Request::Scan { start: 0, len: 1 }),
            Some(OpKind::Scan)
        );
        for control in [Request::Stats, Request::Metrics, Request::Shutdown] {
            assert_eq!(OpKind::of(&control), None);
        }
    }

    #[test]
    fn totals_add_up() {
        let m = ServerMetrics::default();
        m.ok.add(5);
        m.dropped.add(2);
        m.errors.incr();
        m.io_errors.incr();
        assert_eq!(m.total(), 9);
    }
}
