//! Spans recorded by the benchmark around each call into a layer.
//!
//! One [`SpanLog`] per benchmark thread, pre-sized so that recording never
//! allocates while a traced epoch runs. A span names the layer call, its
//! start and end on the run's clock, the span that caused it, and the
//! transaction or batch it belongs to. Self time is duration minus the
//! time covered by child spans.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span's parent inside the same log; [`NO_PARENT`] for a root.
pub const NO_PARENT: u32 = u32::MAX;

/// The layer calls the benchmark wraps. The discriminant indexes
/// [`SpanKind::NAMES`] and the self-time table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    Txn,
    FetchHit,
    FetchMiss,
    Read,
    Write,
    Unpin,
    Batch,
    Encode,
    SockWrite,
    Wait,
    Decode,
}

impl SpanKind {
    pub const COUNT: usize = 11;
    pub const NAMES: [&'static str; Self::COUNT] = [
        "txn",
        "bufferpool.fetch_hit",
        "bufferpool.fetch_miss",
        "bufferpool.read",
        "bufferpool.write",
        "bufferpool.unpin",
        "client.batch",
        "client.encode",
        "client.write",
        "client.wait",
        "client.decode",
    ];

    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub parent: u32,
    /// Transaction (pool rows) or batch (server rows) sequence number.
    pub request_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans, in start order.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans refused because the log was full (the sample period is sized
    /// so that this stays 0; it is printed so that a wrong size shows).
    pub dropped: u64,
}

impl SpanLog {
    /// A log that can hold `capacity` spans; `origin` is the run's clock
    /// zero, shared by every thread so that the logs line up.
    pub fn with_capacity(origin: Instant, capacity: usize) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since the run's clock zero.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span at `start_ns`; close it with [`end`](Self::end). Returns
    /// the span's index, to be named as `parent` by its children.
    #[inline]
    pub fn begin(&mut self, kind: SpanKind, parent: u32, request_id: u32, start_ns: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            kind,
            parent,
            request_id,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, index: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    /// A complete span in one call.
    #[inline]
    pub fn record(
        &mut self,
        kind: SpanKind,
        parent: u32,
        request_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        let index = self.begin(kind, parent, request_id, start_ns);
        self.end(index, end_ns);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let child = span.end_ns - span.start_ns;
            let parent = &mut out[span.parent as usize];
            *parent = parent.saturating_sub(child);
        }
    }
    out
}

/// Total self time and span count per [`SpanKind`], over several logs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub self_ns: [u64; SpanKind::COUNT],
    pub count: [u64; SpanKind::COUNT],
}

impl KindTotals {
    pub fn add_log(&mut self, log: &SpanLog) {
        for (span, self_ns) in log.spans().iter().zip(self_times(log.spans())) {
            self.self_ns[span.kind as usize] += self_ns;
            self.count[span.kind as usize] += 1;
        }
    }

    /// Mean self time of one span of `kind`, 0 when none was recorded.
    pub fn mean_self_ns(&self, kind: SpanKind) -> f64 {
        match self.count[kind as usize] {
            0 => 0.0,
            n => self.self_ns[kind as usize] as f64 / n as f64,
        }
    }
}

/// Render the first `limit_roots` root spans of each log, with their
/// descendants, as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
/// One `tid` per log; `args` carries the parent index and the request id.
pub fn chrome_trace_json(logs: &[SpanLog], limit_roots: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (tid, log) in logs.iter().enumerate() {
        let mut roots = 0;
        for (index, span) in log.spans().iter().enumerate() {
            if span.parent == NO_PARENT {
                roots += 1;
                if roots > limit_roots {
                    break;
                }
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"index\":{},\"parent\":{},\"request_id\":{}}}}}",
                span.kind.name(),
                tid,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                index,
                if span.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(span.parent)
                },
                span.request_id,
            );
        }
    }
    out.push_str("]}");
    out
}
