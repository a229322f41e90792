//! **Ablation (paper §III-A)**: why *private* per-thread FIFO queues,
//! not one shared queue or no queue at all?
//!
//! The paper gives two reasons:
//! 1. "A private FIFO queue keeps the precise order of the page accesses
//!    that occur in the corresponding thread. Keeping the order is
//!    essential in some replacement algorithms like SEQ";
//! 2. "Recording access information into private FIFO queues incurs the
//!    least synchronization and coherence cost".
//!
//! Cost (2) is measured by `real_contention` and the latch column below.
//! This experiment isolates (1) with a deterministic interleaving: four
//! logical backend streams, scheduled one access at a time (the worst
//! case for order preservation), each re-scanning a warm table while a
//! shared hot set of point-query pages needs protecting. The policy is
//! SEQ-LRU, which detects consecutive-page runs **in the order it
//! observes accesses** and evicts detected scan pages first.
//!
//! * **private queues (BP-Wrapper)** — each stream's hits commit as a
//!   contiguous block, so the detector sees the scans, marks them, and
//!   later cold churn evicts scan pages instead of the hot set;
//! * **shared queue** — one handle that every stream records through,
//!   behind a latch: the commit order is the interleaved recording
//!   order, so runs are chopped to length 1, nothing is marked, and churn
//!   evicts the (older) hot set. The latch is taken on every access;
//! * **lock per access** — same scrambled order, one lock per access.

use std::collections::HashMap;
use std::sync::Arc;

use bpw_bench::{fmt, Table};
use bpw_core::{ArcAccessHandle, BpWrapper, InstrumentedLock, WrapperConfig};
use bpw_replacement::{FrameId, MissOutcome, PageId, SeqLru};

const FRAMES: usize = 2048;
const STREAMS: u64 = 4;
const HOT_PAGES: u64 = 256; // point-query working set, shared
const SCAN_LEN: u64 = 256; // per-stream table
const CHURN: u64 = 1500; // cold pages forcing evictions afterwards

/// Adapter so the three designs drive the same experiment.
trait Recorder {
    fn hit(&mut self, stream: usize, page: PageId, frame: FrameId);
    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome;
    fn flush(&mut self);
    fn stats(&mut self) -> (u64, u64, u64); // (runs, policy acqs, latch acqs)
}

/// A SEQ-LRU of `FRAMES` frames behind a wrapper configured as `cfg`.
fn wrapped(cfg: WrapperConfig) -> Arc<BpWrapper<SeqLru>> {
    Arc::new(BpWrapper::new(SeqLru::new(FRAMES), cfg))
}

struct PrivateQueues {
    wrapper: Arc<BpWrapper<SeqLru>>,
    handles: Vec<ArcAccessHandle<SeqLru>>,
}

impl PrivateQueues {
    fn new() -> Self {
        let wrapper = wrapped(WrapperConfig::default());
        let handles = (0..STREAMS).map(|_| wrapper.handle_arc()).collect();
        PrivateQueues { wrapper, handles }
    }
}

impl Recorder for PrivateQueues {
    fn hit(&mut self, stream: usize, page: PageId, frame: FrameId) {
        self.handles[stream].record_hit(page, frame);
    }
    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome {
        // Misses may come from any stream; use its queue (stream 0's
        // handle suffices deterministically: all are drained on a miss
        // only for that handle — flush the rest first for fairness).
        self.handles[0].record_miss(page, free, &mut |_| true)
    }
    fn flush(&mut self) {
        for h in &mut self.handles {
            h.flush();
        }
    }
    fn stats(&mut self) -> (u64, u64, u64) {
        let runs = self.wrapper.with_locked(|p| p.detected_runs());
        (runs, self.wrapper.lock_stats().snapshot().acquisitions, 0)
    }
}

/// The design §III-A rejects: one queue for all streams, which is one
/// handle that nobody can touch without its latch.
struct SharedQueue {
    wrapper: Arc<BpWrapper<SeqLru>>,
    handle: InstrumentedLock<ArcAccessHandle<SeqLru>>,
}

impl SharedQueue {
    fn new() -> Self {
        let wrapper = wrapped(WrapperConfig::default());
        let handle = InstrumentedLock::new(wrapper.handle_arc());
        SharedQueue { wrapper, handle }
    }
}

impl Recorder for SharedQueue {
    fn hit(&mut self, _stream: usize, page: PageId, frame: FrameId) {
        self.handle.lock().record_hit(page, frame);
    }
    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome {
        self.handle.lock().record_miss(page, free, &mut |_| true)
    }
    fn flush(&mut self) {
        self.handle.lock().flush();
    }
    fn stats(&mut self) -> (u64, u64, u64) {
        let runs = self.wrapper.with_locked(|p| p.detected_runs());
        (
            runs,
            self.wrapper.lock_stats().snapshot().acquisitions,
            self.handle.stats().snapshot().acquisitions,
        )
    }
}

struct LockPerAccess {
    wrapper: Arc<BpWrapper<SeqLru>>,
    handle: ArcAccessHandle<SeqLru>,
}

impl LockPerAccess {
    fn new() -> Self {
        let wrapper = wrapped(WrapperConfig::lock_per_access());
        let handle = wrapper.handle_arc();
        LockPerAccess { wrapper, handle }
    }
}

impl Recorder for LockPerAccess {
    fn hit(&mut self, _stream: usize, page: PageId, frame: FrameId) {
        self.handle.record_hit(page, frame);
    }
    fn miss(&mut self, page: PageId, free: Option<FrameId>) -> MissOutcome {
        self.handle.record_miss(page, free, &mut |_| true)
    }
    fn flush(&mut self) {
        self.handle.flush();
    }
    fn stats(&mut self) -> (u64, u64, u64) {
        let runs = self.wrapper.with_locked(|p| p.detected_runs());
        (runs, self.wrapper.lock_stats().snapshot().acquisitions, 0)
    }
}

struct Experiment {
    map: HashMap<PageId, FrameId>,
    free: Vec<FrameId>,
}

impl Experiment {
    fn new() -> Self {
        Experiment {
            map: HashMap::new(),
            free: (0..FRAMES as FrameId).rev().collect(),
        }
    }

    fn access(&mut self, rec: &mut dyn Recorder, stream: usize, page: PageId) -> bool {
        if let Some(&frame) = self.map.get(&page) {
            rec.hit(stream, page, frame);
            return true;
        }
        let free = self.free.pop();
        match rec.miss(page, free) {
            MissOutcome::AdmittedFree(f) => {
                self.map.insert(page, f);
            }
            MissOutcome::Evicted { frame, victim } => {
                self.map.remove(&victim);
                self.map.insert(page, frame);
            }
            MissOutcome::NoEvictableFrame => unreachable!("filter is permissive"),
        }
        false
    }

    /// Run the three-phase experiment; returns the hot-set survival hit
    /// ratio of the probe phase.
    fn run(&mut self, rec: &mut dyn Recorder) -> f64 {
        let scan_base = |s: u64| 100_000 + s * 10_000;
        // Phase 1 — warm the hot set (strided ids: never consecutive) and
        // each stream's table.
        for &p in &hot_ids() {
            self.access(rec, 0, p);
        }
        for s in 0..STREAMS {
            for p in scan_base(s)..scan_base(s) + SCAN_LEN {
                self.access(rec, s as usize, p);
            }
        }
        // Phase 2 — warm re-scans, interleaved one access at a time: the
        // order-sensitivity stress. Everything hits.
        for round in 0..3 {
            let mut cursors: Vec<u64> = (0..STREAMS).map(scan_base).collect();
            for _ in 0..SCAN_LEN {
                for (s, cursor) in cursors.iter_mut().enumerate() {
                    let p = *cursor;
                    *cursor += 1;
                    let hit = self.access(rec, s, p);
                    debug_assert!(hit, "round {round}: scan page should be warm");
                }
            }
        }
        rec.flush();
        // Phase 3 — cold churn forces evictions: do the scans or the hot
        // set pay? (Strided ids: the churn itself must not look like a
        // scan, or it would mark and evict itself.)
        for p in 0..CHURN {
            self.access(rec, 0, 900_000 + p * 131);
        }
        // Probe — how much of the hot set survived?
        let mut hits = 0;
        for &p in &hot_ids() {
            if self.map.contains_key(&p) {
                hits += 1;
            }
        }
        hits as f64 / HOT_PAGES as f64
    }
}

/// Hot pages with strided ids so they never look sequential.
fn hot_ids() -> Vec<PageId> {
    (0..HOT_PAGES).map(|i| i * 97 + 13).collect()
}

/// One row of the table.
struct Row {
    design: &'static str,
    runs: u64,
    survival: f64,
    policy_acqs: u64,
    latch_acqs: u64,
}

fn run_designs() -> Vec<Row> {
    let recs: Vec<(&'static str, Box<dyn Recorder>)> = vec![
        (
            "private queues (BP-Wrapper)",
            Box::new(PrivateQueues::new()),
        ),
        ("shared queue", Box::new(SharedQueue::new())),
        ("lock per access", Box::new(LockPerAccess::new())),
    ];
    recs.into_iter()
        .map(|(design, mut rec)| {
            let survival = Experiment::new().run(rec.as_mut());
            let (runs, policy_acqs, latch_acqs) = rec.stats();
            Row {
                design,
                runs,
                survival,
                policy_acqs,
                latch_acqs,
            }
        })
        .collect()
}

fn main() {
    let mut t = Table::new(
        "Queue-design ablation: SEQ-LRU, 4 interleaved streams re-scanning warm tables",
        &[
            "design",
            "scan_runs_detected",
            "hot_set_survival",
            "policy_lock_acqs",
            "queue_latch_acqs",
        ],
    );
    for r in run_designs() {
        t.row(vec![
            r.design.to_owned(),
            r.runs.to_string(),
            fmt(r.survival),
            r.policy_acqs.to_string(),
            r.latch_acqs.to_string(),
        ]);
    }
    t.print();
    t.write_csv("ablation_queue_design");
    println!(
        "Private queues deliver each stream's hits contiguously, so the detector\n\
         sees the re-scans, marks them sequential, and the churn evicts scan pages —\n\
         the hot set survives. Interleaved designs (shared queue, per-access lock)\n\
         destroy the ordering: no runs detected, hot set evicted, and the shared\n\
         queue pays a latch acquisition on every recorded access on top."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_queues_keep_order_and_the_latched_handle_does_not() {
        let rows = run_designs();
        let [private, shared, per_access] = rows.as_slice() else {
            panic!("three designs");
        };
        assert!(private.runs >= 90, "private: {} runs", private.runs);
        assert_eq!(private.survival, 1.0, "private queues keep the hot set");
        assert_eq!(private.latch_acqs, 0);

        assert!(shared.runs <= 10, "shared: {} runs", shared.runs);
        assert_eq!(shared.survival, 0.0, "the shared queue loses the hot set");
        // Same batching, so the same policy-lock count as private queues;
        // what it adds is the latch, once per recorded access.
        assert_eq!(shared.policy_acqs, private.policy_acqs);
        assert_eq!(shared.latch_acqs, per_access.policy_acqs);

        assert!(per_access.runs <= 10);
        assert!(per_access.policy_acqs > 2 * private.policy_acqs);
    }
}
