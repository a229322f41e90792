//! Typed trace events.
//!
//! Events are small `Copy` records so the hot-path ring buffer never
//! allocates: a kind, the recording thread's trace id, a start
//! timestamp relative to the collector's epoch, a duration (zero for
//! instant events), and one kind-specific argument.

/// What happened. Span kinds carry a duration; instant kinds mark a
/// point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A blocking `Lock()` could not be satisfied immediately; the span
    /// covers the wait. Arg: unused (0).
    LockWait,
    /// A replacement (or miss) lock critical section. Arg: page
    /// accesses whose bookkeeping the hold covered.
    LockHold,
    /// BP-Wrapper drained a thread's private FIFO queue into the
    /// policy. Arg: queue length at commit.
    BatchCommit,
    /// A victim page left the buffer pool. Instant. Arg: victim page id.
    Eviction,
    /// Miss-path storage I/O (write-back of the dirty victim, if any,
    /// plus the read of the requested page). Arg: page id read.
    MissIo,
    /// A request entered the server's admission queue. Instant.
    /// Arg: request opcode (1 GET, 2 PUT, 3 SCAN).
    ServerEnqueue,
    /// A worker picked a request out of the queue; the span covers the
    /// time it sat queued. Arg: request opcode.
    ServerDequeue,
    /// A reply was written back to the client; the span covers
    /// admission to reply (end-to-end latency). Arg: response status
    /// byte (0 OK, 1 BUSY, 2 DROPPED, 3 ERR, 4 ERR_IO).
    ServerReply,
    /// A storage operation failed transiently and is being retried
    /// after backoff. Instant. Arg: page id.
    IoRetry,
    /// A storage operation failed permanently (retry budget exhausted);
    /// the frame involved was repaired and the error surfaced. Instant.
    /// Arg: page id.
    IoError,
    /// A thread had to wait for a page-table shard's partition lock
    /// (a miss, an unmap, an invalidation or a locked read); the span
    /// covers the wait. Arg: shard index.
    MissShardWait,
    /// One event-loop wakeup: the span covers dispatching every ready
    /// fd, draining completions, and flushing coalesced writes. Arg:
    /// ready events delivered by this `epoll_wait`.
    EpollWakeup,
    /// A worker executing one request against the buffer pool: the span
    /// covers every pin — a hit's latch-and-go or a full miss with
    /// eviction and I/O (which then nests its own `MissIo` span). Arg:
    /// request opcode.
    PinOrMiss,
    /// A lock-free cache hit: the pin landed without touching any
    /// lock. Instant. Arg: page id.
    HitPin,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 14] = [
        EventKind::LockWait,
        EventKind::LockHold,
        EventKind::BatchCommit,
        EventKind::Eviction,
        EventKind::MissIo,
        EventKind::ServerEnqueue,
        EventKind::ServerDequeue,
        EventKind::ServerReply,
        EventKind::IoRetry,
        EventKind::IoError,
        EventKind::MissShardWait,
        EventKind::EpollWakeup,
        EventKind::PinOrMiss,
        EventKind::HitPin,
    ];

    /// Stable snake_case name (Chrome trace `name`, Prometheus label).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::LockWait => "lock_wait",
            EventKind::LockHold => "lock_hold",
            EventKind::BatchCommit => "batch_commit",
            EventKind::Eviction => "eviction",
            EventKind::MissIo => "miss_io",
            EventKind::ServerEnqueue => "server_enqueue",
            EventKind::ServerDequeue => "server_dequeue",
            EventKind::ServerReply => "server_reply",
            EventKind::IoRetry => "io_retry",
            EventKind::IoError => "io_error",
            EventKind::MissShardWait => "miss_shard_wait",
            EventKind::EpollWakeup => "epoll_wakeup",
            EventKind::PinOrMiss => "pin_or_miss",
            EventKind::HitPin => "hit_pin",
        }
    }

    /// What [`TraceEvent::arg`] means for this kind (Chrome trace arg
    /// key).
    pub fn arg_name(self) -> &'static str {
        match self {
            EventKind::LockWait => "waiters",
            EventKind::LockHold => "accesses_covered",
            EventKind::BatchCommit => "queue_len",
            EventKind::Eviction => "victim_page",
            EventKind::MissIo => "page",
            EventKind::ServerEnqueue => "opcode",
            EventKind::ServerDequeue => "opcode",
            EventKind::ServerReply => "status",
            EventKind::IoRetry => "page",
            EventKind::IoError => "page",
            EventKind::MissShardWait => "shard",
            EventKind::EpollWakeup => "ready_events",
            EventKind::PinOrMiss => "opcode",
            EventKind::HitPin => "page",
        }
    }

    /// Does this kind carry a meaningful duration?
    pub fn is_span(self) -> bool {
        !matches!(
            self,
            EventKind::Eviction
                | EventKind::ServerEnqueue
                | EventKind::IoRetry
                | EventKind::IoError
                | EventKind::HitPin
        )
    }
}

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Trace thread id of the recording thread (assigned at ring
    /// registration, dense from 0).
    pub tid: u32,
    /// Nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Span length in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Kind-specific argument (see [`EventKind::arg_name`]).
    pub arg: u64,
    /// Owning request id (0 = not attributed to any request). Stamped
    /// from the recording thread's current-request cell, so every event
    /// a worker records while executing a request carries that
    /// request's id — the key a drained trace groups spans by.
    pub req: u64,
}

impl TraceEvent {
    /// A filler event (ring slots start in this state; never exported).
    pub(crate) const EMPTY: TraceEvent = TraceEvent {
        kind: EventKind::LockWait,
        tid: 0,
        start_ns: 0,
        dur_ns: 0,
        arg: 0,
        req: 0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for k in EventKind::ALL {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert!(k.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
            assert!(!k.arg_name().is_empty());
        }
        assert_eq!(seen.len(), EventKind::ALL.len());
    }

    #[test]
    fn span_classification() {
        assert!(EventKind::LockHold.is_span());
        assert!(EventKind::BatchCommit.is_span());
        assert!(!EventKind::Eviction.is_span());
        assert!(!EventKind::ServerEnqueue.is_span());
    }
}
