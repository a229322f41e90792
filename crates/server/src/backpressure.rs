//! Admission control between connection threads and the worker pool.
//!
//! The server's request queue is where overload becomes visible, so the
//! policy decision lives here rather than in the protocol or worker
//! code. Three policies:
//!
//! * **Block** — producers wait for queue space; nothing is refused.
//!   End-to-end latency absorbs the overload (the e2e tests rely on the
//!   zero-loss guarantee).
//! * **Shed** — a full queue refuses immediately; the connection thread
//!   replies `BUSY` without the request ever queueing.
//! * **DeadlineDrop** — requests always queue, but carry a deadline; a
//!   worker that dequeues an expired request replies `DROPPED` without
//!   executing it. Expiry is checked at *dequeue*, where staleness is
//!   actually known, not at enqueue.

use std::str::FromStr;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};

use bpw_metrics::MaxGauge;
use std::sync::Arc;

/// How the request queue behaves at (and past) capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block producers until a slot frees up; never refuse work.
    #[default]
    Block,
    /// Refuse immediately when the queue is full (`BUSY` reply).
    Shed,
    /// Queue everything but discard requests older than this once a
    /// worker picks them up (`DROPPED` reply).
    DeadlineDrop(Duration),
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Block => f.write_str("block"),
            AdmissionPolicy::Shed => f.write_str("shed"),
            AdmissionPolicy::DeadlineDrop(d) => write!(f, "drop:{}", d.as_millis()),
        }
    }
}

impl FromStr for AdmissionPolicy {
    type Err = String;

    /// `"block"`, `"shed"`, or `"drop:MILLIS"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "block" => Ok(AdmissionPolicy::Block),
            "shed" => Ok(AdmissionPolicy::Shed),
            other => match other.strip_prefix("drop:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| AdmissionPolicy::DeadlineDrop(Duration::from_millis(ms)))
                    .map_err(|e| format!("bad deadline {ms:?}: {e}")),
                None => Err(format!(
                    "unknown admission policy {other:?} (want block, shed, or drop:MS)"
                )),
            },
        }
    }
}

/// What `submit` did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Queued (possibly after blocking).
    Queued,
    /// Refused under [`AdmissionPolicy::Shed`].
    Shed,
    /// All workers are gone; the server is shutting down.
    Closed,
}

/// What a non-blocking [`AdmissionQueue::offer_at`] did with a request.
#[derive(Debug)]
pub enum Offered<T> {
    /// Queued without blocking.
    Queued,
    /// Refused under [`AdmissionPolicy::Shed`] (reply `BUSY`).
    Shed,
    /// The queue is full under a blocking policy; the item comes back
    /// so the caller can park it and retry when capacity frees up —
    /// the event loop's version of "the producer waits".
    Full(T),
    /// All workers are gone; the server is shutting down.
    Closed,
}

/// What a worker got from `pop`.
#[derive(Debug)]
pub enum Popped<T> {
    /// A live request.
    Item(T),
    /// A request whose deadline passed while it sat in the queue. The
    /// worker must still reply `DROPPED` to it.
    Expired(T),
    /// Nothing arrived within the timeout; re-check shutdown and loop.
    Timeout,
    /// All producers are gone.
    Disconnected,
}

struct Entry<T> {
    item: T,
    enqueued: Instant,
}

/// A bounded MPMC request queue with policy-aware admission.
///
/// Cloneable on both ends: every connection thread holds an
/// [`AdmissionQueue`] (producer side), every worker holds a
/// [`WorkQueue`] (consumer side). Queue depth is tracked with a
/// [`MaxGauge`] so STATS can report the high-water mark.
pub struct AdmissionQueue<T> {
    tx: Sender<Entry<T>>,
    policy: AdmissionPolicy,
    depth: Arc<MaxGauge>,
}

impl<T> Clone for AdmissionQueue<T> {
    fn clone(&self) -> Self {
        AdmissionQueue {
            tx: self.tx.clone(),
            policy: self.policy,
            depth: Arc::clone(&self.depth),
        }
    }
}

/// The consumer side of an [`AdmissionQueue`].
pub struct WorkQueue<T> {
    rx: Receiver<Entry<T>>,
    policy: AdmissionPolicy,
}

impl<T> Clone for WorkQueue<T> {
    fn clone(&self) -> Self {
        WorkQueue {
            rx: self.rx.clone(),
            policy: self.policy,
        }
    }
}

/// Build a queue holding at most `capacity` requests.
pub fn admission_queue<T>(
    capacity: usize,
    policy: AdmissionPolicy,
) -> (AdmissionQueue<T>, WorkQueue<T>) {
    let (tx, rx) = channel::bounded(capacity);
    (
        AdmissionQueue {
            tx,
            policy,
            depth: Arc::new(MaxGauge::new()),
        },
        WorkQueue { rx, policy },
    )
}

impl<T> AdmissionQueue<T> {
    /// Submit a request under the queue's policy.
    pub fn submit(&self, item: T) -> Admitted {
        let entry = Entry {
            item,
            enqueued: Instant::now(),
        };
        let depth = match self.policy {
            AdmissionPolicy::Shed => match self.tx.try_send_len(entry) {
                Ok(depth) => depth,
                Err(TrySendError::Full(_)) => return Admitted::Shed,
                Err(TrySendError::Disconnected(_)) => return Admitted::Closed,
            },
            AdmissionPolicy::Block | AdmissionPolicy::DeadlineDrop(_) => {
                match self.tx.send_len(entry) {
                    Ok(depth) => depth,
                    Err(_) => return Admitted::Closed,
                }
            }
        };
        self.depth.observe(depth as u64);
        Admitted::Queued
    }

    /// Submit without ever blocking the caller — the admission path for
    /// the event-loop frontend, whose one thread owns every connection
    /// and must not stall on any of them.
    ///
    /// `enqueued` backdates the entry: a request that sat parked in the
    /// loop's stall buffer keeps its original arrival time, so
    /// [`AdmissionPolicy::DeadlineDrop`] measures true end-to-end
    /// staleness exactly as the blocking path does.
    pub fn offer_at(&self, item: T, enqueued: Instant) -> Offered<T> {
        match self.tx.try_send_len(Entry { item, enqueued }) {
            Ok(depth) => {
                self.depth.observe(depth as u64);
                Offered::Queued
            }
            Err(TrySendError::Full(entry)) => match self.policy {
                AdmissionPolicy::Shed => Offered::Shed,
                AdmissionPolicy::Block | AdmissionPolicy::DeadlineDrop(_) => {
                    Offered::Full(entry.item)
                }
            },
            Err(TrySendError::Disconnected(_)) => Offered::Closed,
        }
    }

    /// Highest queue depth observed at any submit.
    pub fn peak_depth(&self) -> u64 {
        self.depth.get()
    }

    /// Shared handle to the depth gauge, so stats reporting can outlive
    /// (and live apart from) the queue's sender side.
    pub fn depth_gauge(&self) -> Arc<MaxGauge> {
        Arc::clone(&self.depth)
    }

    /// Requests queued right now.
    pub fn depth(&self) -> usize {
        self.tx.len()
    }

    /// Policy this queue was built with.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }
}

impl<T> WorkQueue<T> {
    /// Is nothing queued right now?
    pub fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    /// Wait up to `timeout` for a request, classifying it against the
    /// deadline policy.
    pub fn pop(&self, timeout: Duration) -> Popped<T> {
        match self.rx.recv_timeout(timeout) {
            Ok(entry) => {
                if let AdmissionPolicy::DeadlineDrop(deadline) = self.policy {
                    if entry.enqueued.elapsed() > deadline {
                        return Popped::Expired(entry.item);
                    }
                }
                Popped::Item(entry.item)
            }
            Err(RecvTimeoutError::Timeout) => Popped::Timeout,
            Err(RecvTimeoutError::Disconnected) => Popped::Disconnected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn policy_parsing_round_trips() {
        for s in ["block", "shed", "drop:25"] {
            let p: AdmissionPolicy = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("drop:".parse::<AdmissionPolicy>().is_err());
        assert!("drop:abc".parse::<AdmissionPolicy>().is_err());
        assert!("lru".parse::<AdmissionPolicy>().is_err());
    }

    #[test]
    fn shed_refuses_when_full() {
        let (aq, wq) = admission_queue::<u32>(2, AdmissionPolicy::Shed);
        assert_eq!(aq.submit(1), Admitted::Queued);
        assert_eq!(aq.submit(2), Admitted::Queued);
        assert_eq!(aq.submit(3), Admitted::Shed);
        match wq.pop(Duration::from_millis(10)) {
            Popped::Item(1) => {}
            other => panic!("expected Item(1), got {other:?}"),
        }
        assert_eq!(aq.submit(3), Admitted::Queued);
        assert!(aq.peak_depth() >= 2);
    }

    #[test]
    fn block_waits_for_capacity() {
        let (aq, wq) = admission_queue::<u32>(1, AdmissionPolicy::Block);
        assert_eq!(aq.submit(1), Admitted::Queued);
        let producer = {
            let aq = aq.clone();
            thread::spawn(move || aq.submit(2))
        };
        // The producer must stay stuck until we pop: give it a bounded
        // window to (wrongly) finish, then require it did not.
        assert!(
            !crate::poll::poll_until(Duration::from_millis(20), || producer.is_finished()),
            "submit must block while the queue is full"
        );
        match wq.pop(Duration::from_millis(100)) {
            Popped::Item(1) => {}
            other => panic!("expected Item(1), got {other:?}"),
        }
        // Popping freed capacity; the producer must now complete — FIFO
        // order proves it waited rather than jumping the queue.
        assert_eq!(producer.join().unwrap(), Admitted::Queued);
        match wq.pop(Duration::from_secs(5)) {
            Popped::Item(2) => {}
            other => panic!("expected Item(2), got {other:?}"),
        }
    }

    #[test]
    fn expired_requests_are_classified_at_dequeue() {
        let (aq, wq) =
            admission_queue::<u32>(8, AdmissionPolicy::DeadlineDrop(Duration::from_millis(5)));
        let submitted = std::time::Instant::now();
        assert_eq!(aq.submit(7), Admitted::Queued);
        // Wait on the condition itself (queue time past the deadline),
        // not a fixed sleep that merely implies it.
        crate::poll::wait_for(Duration::from_secs(5), "deadline exceeded", || {
            submitted.elapsed() > Duration::from_millis(6)
        });
        match wq.pop(Duration::from_millis(10)) {
            Popped::Expired(7) => {}
            other => panic!("expected Expired(7), got {other:?}"),
        }
        // A fresh request under a generous deadline survives.
        let (aq, wq) =
            admission_queue::<u32>(8, AdmissionPolicy::DeadlineDrop(Duration::from_secs(10)));
        assert_eq!(aq.submit(8), Admitted::Queued);
        match wq.pop(Duration::from_millis(10)) {
            Popped::Item(8) => {}
            other => panic!("expected Item(8), got {other:?}"),
        }
    }

    #[test]
    fn offer_never_blocks_and_returns_the_item_when_full() {
        let (aq, wq) = admission_queue::<u32>(1, AdmissionPolicy::Block);
        assert!(matches!(aq.offer_at(1, Instant::now()), Offered::Queued));
        // Full under Block: the item comes back for a later retry.
        match aq.offer_at(2, Instant::now()) {
            Offered::Full(2) => {}
            other => panic!("expected Full(2), got {other:?}"),
        }
        match wq.pop(Duration::from_millis(50)) {
            Popped::Item(1) => {}
            other => panic!("expected Item(1), got {other:?}"),
        }
        assert!(matches!(aq.offer_at(2, Instant::now()), Offered::Queued));

        // Full under Shed: refused outright, same as submit.
        let (aq, _wq) = admission_queue::<u32>(1, AdmissionPolicy::Shed);
        assert!(matches!(aq.offer_at(1, Instant::now()), Offered::Queued));
        assert!(matches!(aq.offer_at(2, Instant::now()), Offered::Shed));
    }

    #[test]
    fn offer_backdates_the_deadline_clock() {
        // A request that waited in the loop's stall buffer keeps its
        // original arrival time: offered "in the past", it must pop as
        // Expired under a deadline shorter than that backdating.
        let (aq, wq) =
            admission_queue::<u32>(8, AdmissionPolicy::DeadlineDrop(Duration::from_millis(10)));
        let long_ago = Instant::now() - Duration::from_millis(250);
        assert!(matches!(aq.offer_at(5, long_ago), Offered::Queued));
        match wq.pop(Duration::from_millis(50)) {
            Popped::Expired(5) => {}
            other => panic!("expected Expired(5), got {other:?}"),
        }
    }

    #[test]
    fn drop_of_consumers_closes_admission() {
        let (aq, wq) = admission_queue::<u32>(1, AdmissionPolicy::Block);
        drop(wq);
        assert_eq!(aq.submit(1), Admitted::Closed);
    }

    #[test]
    fn timeout_and_disconnect_surface_to_workers() {
        let (aq, wq) = admission_queue::<u32>(1, AdmissionPolicy::Block);
        match wq.pop(Duration::from_millis(5)) {
            Popped::Timeout => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        drop(aq);
        match wq.pop(Duration::from_millis(5)) {
            Popped::Disconnected => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
}
