//! MQ — Multi-Queue replacement (Zhou, Philbin & Li, USENIX 2001).
//! The paper evaluates MQ alongside 2Q and LIRS as an advanced policy
//! whose data structure (a ladder of LRU queues plus a ghost queue)
//! requires lock protection on every access.
//!
//! Pages climb queues `Q0..Qm-1` with access frequency (`Qk` holds pages
//! with roughly `2^k` accesses) and are demoted when they outlive
//! `life_time` accesses without a reference. Evicted pages leave their
//! frequency in the ghost queue `Qout` so a quick return restores their
//! level.
//!
//! The parameters are the MQ paper's: `NUM_QUEUES` = 8 queues, a
//! `Qout` of `QOUT_MULTIPLE` = 4× frames, and a `life_time` of
//! `LIFE_TIME_MULTIPLE` = 2× frames accesses, standing in for the peak
//! temporal distance the paper measures per workload.

use std::collections::HashMap;

use crate::arena::{Arena, List};
use crate::frame_table::FrameTable;
use crate::linked_set::LinkedSet;
use crate::traits::{FrameId, MissOutcome, PageId, ReplacementPolicy};

/// Number of queues in the ladder (paper: 8).
const NUM_QUEUES: usize = 8;
/// Accesses a page may go unreferenced before demotion, as a multiple of
/// frames (paper: the peak temporal distance).
const LIFE_TIME_MULTIPLE: u64 = 2;
/// Ghost queue capacity as a multiple of frames (paper: 4×).
const QOUT_MULTIPLE: usize = 4;

/// The Multi-Queue replacement policy.
pub struct Mq {
    arena: Arena,
    queues: Vec<List>, // each LRU: front = MRU
    queue_of: Vec<u8>,
    freq: Vec<u64>,
    expire: Vec<u64>,
    now: u64,
    life_time: u64,
    qout: LinkedSet,
    qout_freq: HashMap<PageId, u64>,
    qout_cap: usize,
    table: FrameTable,
}

impl Mq {
    /// Create an MQ policy with the paper's parameters.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "MQ needs at least one frame");
        let mut arena = Arena::new(frames);
        let queues = (0..NUM_QUEUES).map(|_| arena.new_list()).collect();
        let qout_cap = frames * QOUT_MULTIPLE;
        Mq {
            arena,
            queues,
            queue_of: vec![0; frames],
            freq: vec![0; frames],
            expire: vec![0; frames],
            now: 0,
            life_time: frames as u64 * LIFE_TIME_MULTIPLE,
            qout: LinkedSet::with_capacity(qout_cap),
            qout_freq: HashMap::with_capacity(qout_cap),
            qout_cap,
            table: FrameTable::new(frames),
        }
    }

    /// Queue level for a page accessed `freq` times.
    fn level_for(&self, freq: u64) -> u8 {
        let lvl = 63 - freq.max(1).leading_zeros() as usize; // floor(log2)
        lvl.min(self.queues.len() - 1) as u8
    }

    /// Queue index currently holding `frame` (test aid).
    #[cfg(test)]
    fn queue_of(&self, frame: FrameId) -> Option<u8> {
        self.table
            .is_present(frame)
            .then(|| self.queue_of[frame as usize])
    }

    /// True if `page` is remembered in Qout (test aid).
    #[cfg(test)]
    fn in_qout(&self, page: PageId) -> bool {
        self.qout.contains(page)
    }

    fn place(&mut self, frame: FrameId, level: u8) {
        self.queue_of[frame as usize] = level;
        self.expire[frame as usize] = self.now + self.life_time;
        self.queues[level as usize].push_front(&mut self.arena, frame);
    }

    /// Demote expired queue tails one level, as MQ does on every access.
    fn adjust(&mut self) {
        for k in (1..self.queues.len()).rev() {
            if let Some(tail) = self.queues[k].back() {
                if self.expire[tail as usize] < self.now {
                    self.queues[k].remove(&mut self.arena, tail);
                    self.place(tail as FrameId, (k - 1) as u8);
                }
            }
        }
    }

    fn remember(&mut self, page: PageId, freq: u64) {
        self.qout.insert_front(page);
        self.qout_freq.insert(page, freq);
        while self.qout.len() > self.qout_cap {
            let dropped = self.qout.pop_oldest().expect("len > 0");
            self.qout_freq.remove(&dropped);
        }
    }
}

impl ReplacementPolicy for Mq {
    fn name(&self) -> &'static str {
        "MQ"
    }

    fn frames(&self) -> usize {
        self.table.frames()
    }

    fn resident_count(&self) -> usize {
        self.table.resident()
    }

    fn record_hit(&mut self, frame: FrameId) {
        if !self.table.is_present(frame) {
            return;
        }
        self.now += 1;
        let f = frame as usize;
        self.freq[f] += 1;
        let level = self.level_for(self.freq[f]);
        self.queues[self.queue_of[f] as usize].remove(&mut self.arena, frame);
        self.place(frame, level);
        self.adjust();
    }

    fn record_miss(
        &mut self,
        page: PageId,
        free: Option<FrameId>,
        evictable: &mut dyn FnMut(FrameId) -> bool,
    ) -> MissOutcome {
        self.now += 1;
        let (frame, outcome) = match free {
            Some(f) => (f, MissOutcome::AdmittedFree(f)),
            None => {
                // Victim: LRU tail of the lowest non-empty queue.
                let mut found = None;
                'search: for k in 0..self.queues.len() {
                    for node in self.queues[k].iter_rev(&self.arena) {
                        if evictable(node as FrameId) {
                            found = Some((k, node as FrameId));
                            break 'search;
                        }
                    }
                }
                let Some((k, f)) = found else {
                    return MissOutcome::NoEvictableFrame;
                };
                self.queues[k].remove(&mut self.arena, f);
                let victim = self.table.unbind(f);
                self.remember(victim, self.freq[f as usize]);
                (f, MissOutcome::Evicted { frame: f, victim })
            }
        };
        // Returning ghost restores its earned frequency.
        let freq = if self.qout.remove(page) {
            self.qout_freq.remove(&page).unwrap_or(0) + 1
        } else {
            1
        };
        self.table.bind(frame, page);
        self.freq[frame as usize] = freq;
        let level = self.level_for(freq);
        self.place(frame, level);
        self.adjust();
        outcome
    }

    fn remove(&mut self, frame: FrameId) -> Option<PageId> {
        if !self.table.is_present(frame) {
            return None;
        }
        let k = self.queue_of[frame as usize] as usize;
        self.queues[k].remove(&mut self.arena, frame);
        self.freq[frame as usize] = 0;
        Some(self.table.unbind(frame))
    }

    fn page_at(&self, frame: FrameId) -> Option<PageId> {
        self.table.page_at(frame)
    }

    fn check_invariants(&self) {
        let mut linked = 0;
        for (k, q) in self.queues.iter().enumerate() {
            linked += q.check(&self.arena);
            for node in q.iter(&self.arena) {
                assert!(
                    self.table.is_present(node as FrameId),
                    "queued frame {node} empty"
                );
                assert_eq!(
                    self.queue_of[node as usize] as usize, k,
                    "queue index stale"
                );
            }
        }
        assert_eq!(linked, self.table.resident(), "queues must cover residents");
        assert!(self.qout.len() <= self.qout_cap);
        assert_eq!(self.qout.len(), self.qout_freq.len());
        self.qout.check();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_sim::CacheSim;

    #[test]
    fn frequency_climbs_queues() {
        let mut s = CacheSim::new(Mq::new(4));
        s.access(1); // freq 1 -> Q0
        let f = s.frame_of(1).unwrap();
        assert_eq!(s.policy().queue_of(f), Some(0));
        s.access(1); // freq 2 -> Q1
        assert_eq!(s.policy().queue_of(f), Some(1));
        s.access(1);
        s.access(1); // freq 4 -> Q2
        assert_eq!(s.policy().queue_of(f), Some(2));
        s.check_consistency();
    }

    #[test]
    fn evicts_from_lowest_queue() {
        let mut s = CacheSim::new(Mq::new(2));
        s.access(1);
        s.access(1); // 1 in Q1
        s.access(2); // 2 in Q0
        s.access(3); // must evict 2 (lowest queue), not 1
        assert!(s.is_resident(1));
        assert!(!s.is_resident(2));
        s.check_consistency();
    }

    #[test]
    fn ghost_restores_frequency() {
        let mut s = CacheSim::new(Mq::new(2));
        for _ in 0..4 {
            s.access(1); // freq 4
        }
        s.access(2);
        s.access(3); // evicts 2 (Q0); 1 protected in Q2
                     // Evict 1 by filling with cold pages? 1 only demotes over time.
        assert!(s.policy().in_qout(2));
        s.access(2); // ghost return: freq restored to old+1 = 2 -> Q1
        let f = s.frame_of(2).unwrap();
        assert_eq!(s.policy().queue_of(f), Some(1));
        s.check_consistency();
    }

    #[test]
    fn expired_pages_demote() {
        let mut s = CacheSim::new(Mq::new(4)); // life_time = 8
        for _ in 0..4 {
            s.access(1); // freq 4 -> Q2, expires after access 4 + 8
        }
        let f = s.frame_of(1).unwrap();
        assert_eq!(s.policy().queue_of(f), Some(2));
        // 2 × frames accesses to other pages: still within its lifetime.
        for p in 2..10 {
            s.access(p);
        }
        assert_eq!(s.policy().queue_of(f), Some(2));
        // One more outlives it: 1 demotes a level, still resident.
        s.access(10);
        assert_eq!(s.policy().queue_of(f), Some(1));
        s.check_consistency();
    }

    #[test]
    fn qout_bounded() {
        let mut s = CacheSim::new(Mq::new(4));
        for p in 0..200 {
            s.access(p);
        }
        s.check_consistency();
        assert_eq!(s.policy().qout.len(), 4 * QOUT_MULTIPLE);
    }

    #[test]
    fn pinned_eviction_skips() {
        let mut s = CacheSim::new(Mq::new(2));
        s.access(1);
        s.access(2);
        let f1 = s.frame_of(1).unwrap();
        let out = s.policy_mut().record_miss(3, None, &mut |f| f != f1);
        assert_eq!(out.frame(), Some(s.frame_of(2).unwrap()));
    }

    #[test]
    fn random_trace_consistency() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut s = CacheSim::new(Mq::new(16));
        for _ in 0..3000 {
            s.access(rng.gen_range(0..50u64));
        }
        s.check_consistency();
    }
}
