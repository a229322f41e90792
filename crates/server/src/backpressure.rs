//! The overload policy, and a bounded request queue that applies it.
//!
//! [`AdmissionPolicy`] is the server's `--policy`. No frontend queues a
//! request — each runs it on the thread that read it — so `Block` never
//! blocks, and `DeadlineDrop` is judged when a request's turn comes
//! (`engine::answer`).
//!
//! The queue below is what a worker pool would sit behind. No server
//! path uses it: its only caller is the benchmark's probe of a
//! submit-to-pop hand-off (`perfbench/src/probes.rs`), which builds it
//! under `Block` only, and it goes once that probe does. Its expiry at
//! dequeue ([`Popped::Expired`]) is exercised by this file's own test
//! alone and goes with it. Under it the policies mean:
//!
//! * **Block** — producers wait for queue space; nothing is refused.
//! * **DeadlineDrop** — requests always queue, but carry a deadline; a
//!   consumer that dequeues an expired request gets it as
//!   [`Popped::Expired`]. Expiry is checked at *dequeue*, where
//!   staleness is actually known, not at enqueue.

use std::str::FromStr;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};

/// What the server does with a request it is late to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Never refuse work.
    #[default]
    Block,
    /// Answer `DROPPED`, unexecuted, to a request whose turn came more
    /// than this long after the socket read that completed its frame.
    DeadlineDrop(Duration),
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Block => f.write_str("block"),
            AdmissionPolicy::DeadlineDrop(d) => write!(f, "drop:{}", d.as_millis()),
        }
    }
}

impl FromStr for AdmissionPolicy {
    type Err = String;

    /// `"block"` or `"drop:MILLIS"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "block" => Ok(AdmissionPolicy::Block),
            other => match other.strip_prefix("drop:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| AdmissionPolicy::DeadlineDrop(Duration::from_millis(ms)))
                    .map_err(|e| format!("bad deadline {ms:?}: {e}")),
                None => Err(format!(
                    "unknown admission policy {other:?} (want block or drop:MS)"
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
    /// Every consumer is gone.
    Closed,
}

/// What a consumer got from `pop`.
#[derive(Debug)]
pub enum Popped<T> {
    /// A live request.
    Item(T),
    /// A request whose deadline passed while it sat in the queue. The
    /// consumer must still answer it `DROPPED`.
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
/// Cloneable on both ends: producers hold an [`AdmissionQueue`],
/// consumers a [`WorkQueue`].
pub struct AdmissionQueue<T> {
    tx: Sender<Entry<T>>,
}

impl<T> Clone for AdmissionQueue<T> {
    fn clone(&self) -> Self {
        AdmissionQueue {
            tx: self.tx.clone(),
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

/// Build a queue holding at most `n` requests: its producer and
/// consumer sides.
pub fn admission_queue<T>(n: usize, policy: AdmissionPolicy) -> (AdmissionQueue<T>, WorkQueue<T>) {
    let (tx, rx) = channel::bounded(n);
    (AdmissionQueue { tx }, WorkQueue { rx, policy })
}

impl<T> AdmissionQueue<T> {
    /// Submit a request, waiting for space while the queue is full.
    pub fn submit(&self, item: T) -> Admitted {
        let entry = Entry {
            item,
            enqueued: Instant::now(),
        };
        match self.tx.send(entry) {
            Ok(()) => Admitted::Queued,
            Err(_) => Admitted::Closed,
        }
    }
}

impl<T> WorkQueue<T> {
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
        for s in ["block", "drop:25"] {
            let p: AdmissionPolicy = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!("drop:".parse::<AdmissionPolicy>().is_err());
        assert!("drop:abc".parse::<AdmissionPolicy>().is_err());
        assert!("lru".parse::<AdmissionPolicy>().is_err());
        let err = "shed".parse::<AdmissionPolicy>().unwrap_err();
        assert!(err.contains("want block or drop:MS"), "{err}");
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
