//! SEQ-style sequence-detecting LRU.
//!
//! The paper's §III-A argues private per-thread FIFO queues are
//! *essential* because "some replacement algorithms like SEQ
//! [Glass & Cao 1997] ... need the ordering information for detection of
//! access patterns", and §II notes DB2's policy likewise detects
//! sequential vs random patterns. This policy is that class's
//! representative: an LRU that watches the **order** of the accesses it
//! is told about, detects sequential runs (`page`, `page+1`, `page+2`,
//! …), and marks pages belonging to long runs for early eviction — the
//! classic defense against scans flushing the random working set.
//!
//! The detector is deliberately order-sensitive (it compares each access
//! to the immediately preceding one), exactly like fault-sequence
//! detection in SEQ: feed it a thread's accesses contiguously (as
//! BP-Wrapper's private queues do at commit time) and it sees the runs;
//! interleave accesses from concurrent threads at access granularity (as
//! lock-per-access or a shared queue would) and detection collapses.
//! The `ablation_queue_design` benchmark measures precisely this.
//!
//! A run counts as sequential from its `MIN_RUN` = 8th consecutive page.
//! SEQ detects runs of about 20 page faults; scans here are
//! page-granular, so a shorter run suffices.

use crate::arena::{Arena, List};
use crate::frame_table::FrameTable;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// Consecutive-page run length after which accesses count as
/// sequential.
const MIN_RUN: u32 = 8;

/// LRU with order-based sequential-run detection and early eviction of
/// sequential pages.
pub struct SeqLru {
    arena: Arena,
    /// Random (non-sequential) pages: classic LRU list, front = MRU.
    main: List,
    /// Detected-sequential pages: FIFO, evicted before anything in
    /// `main`.
    seq: List,
    table: FrameTable,
    /// Last page id observed (hit or miss), for run detection.
    last_page: Option<PageId>,
    /// Length of the current consecutive run.
    run_len: u32,
    detected_runs: u64,
    #[cfg(test)]
    sequential_accesses: u64,
}

impl SeqLru {
    /// Create with SEQ-style run detection.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "SeqLru needs at least one frame");
        let mut arena = Arena::new(frames);
        let main = arena.new_list();
        let seq = arena.new_list();
        SeqLru {
            arena,
            main,
            seq,
            table: FrameTable::new(frames),
            last_page: None,
            run_len: 0,
            detected_runs: 0,
            #[cfg(test)]
            sequential_accesses: 0,
        }
    }

    /// Update the run detector with the page just accessed; returns true
    /// if this access extends a detected (>= MIN_RUN) sequential run.
    fn observe(&mut self, page: PageId) -> bool {
        let consecutive = self.last_page == Some(page.wrapping_sub(1));
        self.last_page = Some(page);
        if consecutive {
            self.run_len += 1;
            if self.run_len == MIN_RUN {
                self.detected_runs += 1;
            }
        } else {
            self.run_len = 1;
        }
        let seq = self.run_len >= MIN_RUN;
        #[cfg(test)]
        if seq {
            self.sequential_accesses += 1;
        }
        seq
    }

    /// Number of runs that crossed the detection threshold (test aid).
    pub fn detected_runs(&self) -> u64 {
        self.detected_runs
    }

    /// Accesses classified as sequential (test aid).
    #[cfg(test)]
    fn sequential_accesses(&self) -> u64 {
        self.sequential_accesses
    }

    /// Pages currently marked sequential (test aid).
    #[cfg(test)]
    fn sequential_resident(&self) -> usize {
        self.seq.len()
    }

    fn unlink(&mut self, frame: FrameId) {
        if self.main.contains(&self.arena, frame) {
            self.main.remove(&mut self.arena, frame);
        } else {
            self.seq.remove(&mut self.arena, frame);
        }
    }
}

impl ReplacementPolicy for SeqLru {
    fn name(&self) -> &'static str {
        "SEQ-LRU"
    }

    fn frames(&self) -> usize {
        self.table.frames()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        let Some(page) = self.table.page_at(frame) else {
            return;
        };
        let seq = self.observe(page);
        self.unlink(frame);
        if seq {
            // Part of an ongoing scan: schedule for early eviction.
            self.seq.push_front(&mut self.arena, frame);
        } else {
            self.main.push_front(&mut self.arena, frame);
        }
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        let seq = self.observe(page);
        let (frame, outcome) = match free {
            Some(f) => (f, MissOutcome::AdmittedFree(f)),
            None => {
                // Victims: oldest sequential page first, then LRU of main.
                let found = self
                    .seq
                    .iter_rev(&self.arena)
                    .find(|&f| evictable(f))
                    .map(|f| (f, true))
                    .or_else(|| {
                        self.main
                            .iter_rev(&self.arena)
                            .find(|&f| evictable(f))
                            .map(|f| (f, false))
                    });
                let Some((f, from_seq)) = found else {
                    return MissOutcome::NoEvictableFrame;
                };
                if from_seq {
                    self.seq.remove(&mut self.arena, f);
                } else {
                    self.main.remove(&mut self.arena, f);
                }
                let victim = self.table.unbind(f);
                (f, MissOutcome::Evicted { frame: f, victim })
            }
        };
        self.table.bind(frame, page);
        if seq {
            self.seq.push_front(&mut self.arena, frame);
        } else {
            self.main.push_front(&mut self.arena, frame);
        }
        outcome
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        self.unlink(frame);
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        let main = self.main.check(&self.arena);
        let seq = self.seq.check(&self.arena);
        assert_eq!(
            main + seq,
            self.table.resident(),
            "lists must cover residents"
        );
        for f in 0..self.table.frames() as FrameId {
            let linked = self.main.contains(&self.arena, f) || self.seq.contains(&self.arena, f);
            assert_eq!(
                linked,
                self.table.is_present(f),
                "frame {f} residency mismatch"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_sim::CacheSim;

    #[test]
    fn detects_contiguous_runs() {
        let mut s = CacheSim::new(SeqLru::new(64));
        for p in 100..150u64 {
            s.access(p);
        }
        assert_eq!(s.policy().detected_runs(), 1);
        assert!(s.policy().sequential_accesses() >= 40);
        assert!(s.policy().sequential_resident() > 0);
        s.check_consistency();
    }

    #[test]
    fn interleaving_breaks_detection() {
        // Two scans interleaved access-by-access: no run survives.
        let mut s = CacheSim::new(SeqLru::new(64));
        for i in 0..25u64 {
            s.access(100 + i);
            s.access(1000 + i);
        }
        assert_eq!(s.policy().detected_runs(), 0);
        assert_eq!(s.policy().sequential_accesses(), 0);
        s.check_consistency();
    }

    #[test]
    fn scan_pages_evicted_before_random_pages() {
        let mut s = CacheSim::new(SeqLru::new(32));
        // Random working set (non-consecutive ids).
        for &p in &[3u64, 900, 77, 4012, 555, 13, 2048, 10_000] {
            s.access(p);
        }
        // A long scan fills the rest and then some.
        for p in 200..240u64 {
            s.access(p);
        }
        // Every random page must still be resident: the scan ate itself.
        for &p in &[3u64, 900, 77, 4012, 555, 13, 2048, 10_000] {
            assert!(s.is_resident(p), "random page {p} evicted by scan");
        }
        s.check_consistency();
    }

    #[test]
    fn rereferenced_page_leaves_seq_class() {
        let mut s = CacheSim::new(SeqLru::new(64));
        for p in 0..20u64 {
            s.access(p); // run detected; pages marked sequential
        }
        let seq_before = s.policy().sequential_resident();
        assert!(seq_before > 0);
        s.access(15); // out-of-order re-reference of a seq page: back to main
        assert_eq!(s.policy().sequential_resident(), seq_before - 1);
        s.check_consistency();
    }

    #[test]
    fn short_runs_not_classified() {
        let mut s = CacheSim::new(SeqLru::new(32));
        for start in [0u64, 100, 200, 300] {
            for p in start..start + 5 {
                s.access(p); // runs of 5 < MIN_RUN of 8
            }
        }
        assert_eq!(s.policy().detected_runs(), 0);
        s.check_consistency();
    }

    #[test]
    fn behaves_as_plain_lru_without_sequences() {
        let mut seq = CacheSim::new(SeqLru::new(8));
        let mut lru = CacheSim::new(crate::lru::Lru::new(8));
        // Strided ids: never consecutive.
        let trace: Vec<u64> = (0..500u64).map(|i| (i * 17) % 64).collect();
        let a = seq.run(trace.iter().copied());
        let b = lru.run(trace.iter().copied());
        assert_eq!(a, b, "without runs, SEQ-LRU must equal LRU");
    }

    #[test]
    fn pinned_filter_respected() {
        let mut s = CacheSim::new(SeqLru::new(4));
        for p in [10u64, 20, 30, 40] {
            s.access(p);
        }
        let f = s.frame_of(10).unwrap();
        let out = s.policy_mut().record_miss(99, None, &mut |x| x != f);
        assert_ne!(out.frame(), Some(f));
        let out = s.policy_mut().record_miss(98, None, &mut |_| false);
        assert_eq!(out, MissOutcome::NoEvictableFrame);
    }
}
