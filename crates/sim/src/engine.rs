//! The discrete-event multiprocessor simulator.
//!
//! Models `P` virtual processors running `N >= P` database backend
//! threads (the paper keeps the system overcommitted), a FIFO
//! replacement-algorithm lock, an optional WAL lock, and a storage
//! device with bounded concurrency. Each system configuration (Table I)
//! turns a stream of page accesses into a different pattern of compute
//! segments, lock requests, and critical sections; the simulator then
//! reports the paper's three metrics — throughput, average response
//! time, and lock contentions per million accesses.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bpw_core::SystemKind;
use bpw_metrics::Histogram;

use crate::profile::{HardwareProfile, WorkloadParams};

/// Virtual time in nanoseconds.
pub type Time = u64;

/// One simulated system: a Table I row plus batching parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemSpec {
    /// Which of the five systems.
    pub kind: SystemKind,
    /// FIFO queue size `S` (batching systems).
    pub queue_size: u32,
    /// Batch threshold `T`.
    pub batch_threshold: u32,
}

impl SystemSpec {
    /// Paper defaults: S = 64, T = 32.
    pub fn new(kind: SystemKind) -> Self {
        SystemSpec {
            kind,
            queue_size: 64,
            batch_threshold: 32,
        }
    }

    /// Override the batching parameters (§IV-E sweeps).
    pub fn with_batching(kind: SystemKind, queue_size: u32, batch_threshold: u32) -> Self {
        assert!(queue_size >= 1 && (1..=queue_size).contains(&batch_threshold));
        SystemSpec {
            kind,
            queue_size,
            batch_threshold,
        }
    }

    fn prefetching(&self) -> bool {
        matches!(
            self.kind,
            SystemKind::Prefetching | SystemKind::BatchingPrefetching
        )
    }
}

/// Everything a simulation run needs.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Machine cost model.
    pub hardware: HardwareProfile,
    /// Processors enabled for this run (<= hardware.cpus).
    pub cpus: usize,
    /// Backend threads (paper: more than processors, keeping CPUs busy).
    pub threads: usize,
    /// System under test.
    pub system: SystemSpec,
    /// Workload cost model.
    pub workload: WorkloadParams,
    /// Virtual time to simulate.
    pub horizon_ms: u64,
    /// RNG seed (miss draws).
    pub seed: u64,
}

impl SimParams {
    /// A run with the paper's overcommit convention (threads = cpus + 2).
    pub fn new(
        hardware: HardwareProfile,
        cpus: usize,
        system: SystemSpec,
        workload: WorkloadParams,
    ) -> Self {
        assert!(cpus >= 1);
        SimParams {
            hardware,
            cpus,
            threads: cpus + 2,
            system,
            workload,
            horizon_ms: 2_000,
            seed: 0x5EED,
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Transactions completed per second of virtual time.
    pub throughput_tps: f64,
    /// Mean transaction response time in milliseconds.
    pub avg_response_ms: f64,
    /// 95th-percentile transaction response time in milliseconds
    /// (bucket-resolution: within a factor of two).
    p95_response_ms: f64,
    /// Worst observed transaction response time in milliseconds.
    max_response_ms: f64,
    /// Replacement-lock contentions per million page accesses
    /// (the paper's "average lock contention").
    pub contentions_per_million: f64,
    /// Fig. 2's metric: mean (wait + hold) lock time per covered access,
    /// in microseconds.
    pub lock_time_per_access_us: f64,
    /// Mean accesses committed per replacement-lock acquisition.
    pub accesses_per_acquisition: f64,
    /// Total page accesses simulated.
    pub accesses: u64,
    /// Transactions completed.
    pub txns: u64,
    /// Replacement-lock blocked acquisitions.
    pub contentions: u64,
    /// Failed try-lock attempts.
    pub trylock_failures: u64,
}

// --- internal machinery ----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cont {
    /// Compute for the current access finished; run the replacement step.
    AccessWorkDone,
    /// Critical section on the replacement lock finished.
    ReplCsDone,
    /// Critical section on the WAL lock finished.
    WalCsDone,
    /// Transaction finished off-CPU (after I/O); acquire the WAL lock
    /// now that a processor is held.
    TxnEndWal,
    /// Woken waiter retries the replacement lock (barging semantics).
    ReplRetry,
    /// Woken waiter retries the WAL lock.
    WalRetry,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    Segment(Cont),
    IoDone,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: Time,
    seq: u64,
}

struct Thread {
    txn_len: u32,
    access_idx: u32,
    txn_start: Time,
    txn_counter: usize,
    batch_fill: u32,
    /// CS duration to execute once a blocked lock request is granted.
    pending_cs: u64,
    /// Accesses the pending/running CS commits.
    pending_commit: u64,
    /// The access that triggered the CS was a miss (I/O follows).
    miss_pending: bool,
    /// When the thread first blocked on its current lock wait.
    wait_since: Time,
    rng: u64,
    txns_done: u64,
    resp_sum_ns: u64,
}

#[derive(Default)]
struct LockTally {
    acquisitions: u64,
    contentions: u64,
    trylock_failures: u64,
    wait_ns: u64,
    hold_ns: u64,
    accesses_covered: u64,
}

struct Lock {
    held: bool,
    hold_start: Time,
    waiters: VecDeque<(usize, Time)>,
    tally: LockTally,
}

impl Lock {
    fn new() -> Self {
        Lock {
            held: false,
            hold_start: 0,
            waiters: VecDeque::new(),
            tally: LockTally::default(),
        }
    }
}

/// The simulator.
pub struct Sim {
    p: SimParams,
    now: Time,
    seq: u64,
    events: BinaryHeap<Reverse<(EventKey, usize, WakeRepr)>>,
    threads: Vec<Thread>,
    free_cpus: usize,
    run_queue: VecDeque<(usize, u64, Cont)>,
    repl: Lock,
    wal: Lock,
    io_busy: usize,
    io_queue: VecDeque<usize>,
    total_accesses: u64,
    /// Failed try-locks since the replacement lock was last acquired;
    /// each one bounced the lock's cache line under the current holder.
    trylock_pressure: u64,
    response_hist: Histogram,
    horizon: Time,
}

// BinaryHeap needs Ord; encode Wake compactly.
type WakeRepr = u8;

fn encode(w: Wake) -> WakeRepr {
    match w {
        Wake::Segment(Cont::AccessWorkDone) => 0,
        Wake::Segment(Cont::ReplCsDone) => 1,
        Wake::Segment(Cont::WalCsDone) => 2,
        Wake::Segment(Cont::TxnEndWal) => 3,
        Wake::Segment(Cont::ReplRetry) => 4,
        Wake::Segment(Cont::WalRetry) => 5,
        Wake::IoDone => 6,
    }
}

fn decode(w: WakeRepr) -> Wake {
    match w {
        0 => Wake::Segment(Cont::AccessWorkDone),
        1 => Wake::Segment(Cont::ReplCsDone),
        2 => Wake::Segment(Cont::WalCsDone),
        3 => Wake::Segment(Cont::TxnEndWal),
        4 => Wake::Segment(Cont::ReplRetry),
        5 => Wake::Segment(Cont::WalRetry),
        _ => Wake::IoDone,
    }
}

impl Sim {
    /// Build a simulator for `params`.
    pub fn new(params: SimParams) -> Self {
        assert!(
            params.threads >= params.cpus,
            "must not leave processors idle"
        );
        assert!(!params.workload.txn_lengths.is_empty());
        let threads = (0..params.threads)
            .map(|i| Thread {
                txn_len: 0,
                access_idx: 0,
                txn_start: 0,
                txn_counter: i * 7, // de-phase the length sequence per thread
                batch_fill: 0,
                pending_cs: 0,
                pending_commit: 0,
                miss_pending: false,
                wait_since: 0,
                rng: params.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                txns_done: 0,
                resp_sum_ns: 0,
            })
            .collect();
        let horizon = params.horizon_ms * 1_000_000;
        Sim {
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            threads,
            free_cpus: params.cpus,
            run_queue: VecDeque::new(),
            repl: Lock::new(),
            wal: Lock::new(),
            io_busy: 0,
            io_queue: VecDeque::new(),
            total_accesses: 0,
            trylock_pressure: 0,
            response_hist: Histogram::new(),
            horizon,
            p: params,
        }
    }

    fn rand_f64(&mut self, th: usize) -> f64 {
        // xorshift64*: cheap deterministic per-thread stream.
        let t = &mut self.threads[th];
        t.rng ^= t.rng << 13;
        t.rng ^= t.rng >> 7;
        t.rng ^= t.rng << 17;
        (t.rng >> 11) as f64 / (1u64 << 53) as f64
    }

    fn work_ns(&self) -> u64 {
        (self.p.workload.work_per_access_ns as f64 / self.p.hardware.work_speedup) as u64
    }

    /// Lock acquisition cost, growing with enabled processors (coherence
    /// traffic on the lock's cache line crosses more caches).
    fn acquire_ns(&self) -> u64 {
        (self.p.hardware.lock_acquire_ns as f64
            * (1.0 + self.p.hardware.coherence_per_cpu * self.p.cpus as f64)) as u64
    }

    /// Extra critical-section time from try-lock CAS traffic since the
    /// last acquisition (bounded: the line settles once waiters back off).
    fn take_interference_ns(&mut self) -> u64 {
        let n = std::mem::take(&mut self.trylock_pressure).min(64);
        n * self.p.hardware.trylock_interference_ns
    }

    /// Effective warm-up cost inside the critical section.
    fn warmup_ns(&self) -> u64 {
        if self.p.system.prefetching() {
            (self.p.hardware.cs_warmup_ns as f64 * (1.0 - self.p.hardware.prefetch_efficiency))
                as u64
        } else {
            self.p.hardware.cs_warmup_ns
        }
    }

    fn push_event(&mut self, at: Time, th: usize, wake: Wake) {
        self.seq += 1;
        self.events.push(Reverse((
            EventKey {
                time: at,
                seq: self.seq,
            },
            th,
            encode(wake),
        )));
    }

    /// Give `th` a CPU (or queue it) to run a segment of `dur` ns.
    fn schedule_run(&mut self, th: usize, dur: u64, cont: Cont) {
        if self.free_cpus > 0 {
            self.free_cpus -= 1;
            self.push_event(self.now + dur.max(1), th, Wake::Segment(cont));
        } else {
            self.run_queue.push_back((th, dur, cont));
        }
    }

    /// `th` keeps its CPU and chains straight into the next segment.
    fn continue_run(&mut self, th: usize, dur: u64, cont: Cont) {
        self.push_event(self.now + dur.max(1), th, Wake::Segment(cont));
    }

    /// `th` gives up its CPU; hand it to the next queued thread.
    fn release_cpu(&mut self) {
        match self.run_queue.pop_front() {
            Some((th, dur, cont)) => {
                // Dispatch from the run queue costs a context switch.
                let d = dur + self.p.hardware.context_switch_ns;
                self.push_event(self.now + d.max(1), th, Wake::Segment(cont));
            }
            None => self.free_cpus += 1,
        }
    }

    /// Begin a new transaction for `th`; chains the first compute segment
    /// (caller decides chain vs schedule via `on_cpu`).
    fn start_txn(&mut self, th: usize, on_cpu: bool) {
        let lens = &self.p.workload.txn_lengths;
        let t = &mut self.threads[th];
        t.txn_len = lens[t.txn_counter % lens.len()].max(1);
        t.txn_counter += 1;
        t.access_idx = 0;
        t.txn_start = self.now;
        let dur = self.p.workload.txn_overhead_ns + self.access_compute_ns(th);
        if on_cpu {
            self.continue_run(th, dur, Cont::AccessWorkDone);
        } else {
            self.schedule_run(th, dur, Cont::AccessWorkDone);
        }
    }

    /// Compute time for one access, including the system's hit-path
    /// extras that happen outside any lock. Durations carry +/-40%
    /// uniform jitter: without variance the simulated threads phase-lock
    /// and collisions (hence contentions) are artificially suppressed.
    fn access_compute_ns(&mut self, th: usize) -> u64 {
        let jitter = 0.6 + 0.8 * self.rand_f64(th);
        let mut d = (self.work_ns() as f64 * jitter) as u64;
        match self.p.system.kind {
            SystemKind::Clock => d += self.p.hardware.clock_hit_ns,
            SystemKind::LockPerAccess => {}
            SystemKind::Prefetching => d += self.p.hardware.prefetch_issue_ns,
            SystemKind::Batching => d += self.p.hardware.queue_push_ns,
            SystemKind::BatchingPrefetching => {
                d += self.p.hardware.queue_push_ns + self.p.hardware.prefetch_issue_ns
            }
        }
        d
    }

    /// Blocking lock request on the replacement lock. Returns true if the
    /// thread keeps running (lock granted immediately).
    ///
    /// Barging semantics (as in PostgreSQL LWLocks and `parking_lot`):
    /// a running thread takes a free lock even if sleepers are queued;
    /// a releaser frees the lock and *wakes* the front sleeper, which
    /// must win the race once it is scheduled again. This is what makes
    /// blocking so expensive at high concurrency — the context switch —
    /// without the convoy collapse strict FIFO handoff would add.
    fn lock_blocking(&mut self, th: usize, cs: u64, commit: u64) -> bool {
        if !self.repl.held {
            self.repl.held = true;
            self.repl.hold_start = self.now;
            self.repl.tally.acquisitions += 1;
            self.threads[th].pending_commit = commit;
            let jam = self.take_interference_ns();
            self.continue_run(th, self.acquire_ns() + cs + jam, Cont::ReplCsDone);
            true
        } else {
            self.repl.tally.contentions += 1;
            self.threads[th].pending_cs = cs;
            self.threads[th].pending_commit = commit;
            self.threads[th].wait_since = self.now;
            self.repl.waiters.push_back((th, self.now));
            self.release_cpu();
            false
        }
    }

    /// A woken waiter, now on a CPU, retries the replacement lock.
    fn repl_retry(&mut self, th: usize) {
        if !self.repl.held {
            self.repl.held = true;
            self.repl.hold_start = self.now;
            self.repl.tally.acquisitions += 1;
            self.repl.tally.wait_ns += self.now - self.threads[th].wait_since;
            let cs = self.threads[th].pending_cs;
            let jam = self.take_interference_ns();
            self.continue_run(th, self.acquire_ns() + cs + jam, Cont::ReplCsDone);
        } else {
            // Lost the race to a barger: back to the front of the queue
            // (no new contention counted — same logical wait).
            let since = self.threads[th].wait_since;
            self.repl.waiters.push_front((th, since));
            self.release_cpu();
        }
    }

    /// Release the replacement lock and wake the front waiter.
    fn unlock_repl(&mut self) {
        self.repl.tally.hold_ns += self.now - self.repl.hold_start;
        self.repl.held = false;
        if let Some((next, _enq)) = self.repl.waiters.pop_front() {
            // Waking a sleeper costs a context switch before it can retry.
            self.schedule_run(next, self.p.hardware.context_switch_ns, Cont::ReplRetry);
        }
    }

    /// Same machinery for the WAL lock (no per-access accounting).
    fn wal_lock_blocking(&mut self, th: usize, cs: u64) -> bool {
        if !self.wal.held {
            self.wal.held = true;
            self.wal.hold_start = self.now;
            self.wal.tally.acquisitions += 1;
            self.continue_run(th, self.acquire_ns() + cs, Cont::WalCsDone);
            true
        } else {
            self.wal.tally.contentions += 1;
            self.threads[th].pending_cs = cs;
            self.threads[th].wait_since = self.now;
            self.wal.waiters.push_back((th, self.now));
            self.release_cpu();
            false
        }
    }

    /// A woken waiter retries the WAL lock.
    fn wal_retry(&mut self, th: usize) {
        if !self.wal.held {
            self.wal.held = true;
            self.wal.hold_start = self.now;
            self.wal.tally.acquisitions += 1;
            self.wal.tally.wait_ns += self.now - self.threads[th].wait_since;
            let cs = self.threads[th].pending_cs;
            self.continue_run(th, self.acquire_ns() + cs, Cont::WalCsDone);
        } else {
            let since = self.threads[th].wait_since;
            self.wal.waiters.push_front((th, since));
            self.release_cpu();
        }
    }

    fn unlock_wal(&mut self) {
        self.wal.tally.hold_ns += self.now - self.wal.hold_start;
        self.wal.held = false;
        if let Some((next, _enq)) = self.wal.waiters.pop_front() {
            self.schedule_run(next, self.p.hardware.context_switch_ns, Cont::WalRetry);
        }
    }

    /// The replacement step after an access's compute finished.
    /// The thread currently holds a CPU.
    fn access_work_done(&mut self, th: usize) {
        self.total_accesses += 1;
        let hw = self.p.hardware;
        let is_miss =
            self.p.workload.miss_ratio > 0.0 && self.rand_f64(th) < self.p.workload.miss_ratio;

        if is_miss {
            // Miss path: always a blocking lock; commits the queue too.
            let fill = self.threads[th].batch_fill as u64;
            let cs = self.warmup_ns() + hw.cs_per_access_ns * (fill + 1);
            self.threads[th].batch_fill = 0;
            self.threads[th].miss_pending = true;
            self.lock_blocking(th, cs, fill + 1);
            return;
        }

        match self.p.system.kind {
            SystemKind::Clock => {
                // Lock-free hit: proceed straight to the next access.
                self.advance_access(th, true);
            }
            SystemKind::LockPerAccess | SystemKind::Prefetching => {
                let cs = self.warmup_ns() + hw.cs_per_access_ns;
                self.lock_blocking(th, cs, 1);
            }
            SystemKind::Batching | SystemKind::BatchingPrefetching => {
                let t = &mut self.threads[th];
                t.batch_fill += 1;
                let fill = t.batch_fill;
                if fill >= self.p.system.queue_size {
                    // Queue full: paper line 13, blocking Lock().
                    let cs = self.warmup_ns() + hw.cs_per_access_ns * fill as u64;
                    self.threads[th].batch_fill = 0;
                    self.lock_blocking(th, cs, fill as u64);
                } else if fill >= self.p.system.batch_threshold {
                    // TryLock(): free -> commit now; busy -> keep going.
                    if !self.repl.held {
                        self.repl.held = true;
                        self.repl.hold_start = self.now;
                        self.repl.tally.acquisitions += 1;
                        let cs = self.warmup_ns() + hw.cs_per_access_ns * fill as u64;
                        self.threads[th].batch_fill = 0;
                        self.threads[th].pending_commit = fill as u64;
                        let jam = self.take_interference_ns();
                        self.continue_run(th, hw.trylock_ns + cs + jam, Cont::ReplCsDone);
                    } else {
                        self.repl.tally.trylock_failures += 1;
                        self.trylock_pressure += 1;
                        // Failure costs a few ns, folded into the next
                        // access's compute; continue without the lock.
                        self.advance_access(th, true);
                    }
                } else {
                    self.advance_access(th, true);
                }
            }
        }
    }

    /// Move to the next access or finish the transaction. The thread
    /// holds a CPU iff `on_cpu`.
    fn advance_access(&mut self, th: usize, on_cpu: bool) {
        let t = &mut self.threads[th];
        t.access_idx += 1;
        if t.access_idx < t.txn_len {
            let dur = self.access_compute_ns(th);
            if on_cpu {
                self.continue_run(th, dur, Cont::AccessWorkDone);
            } else {
                self.schedule_run(th, dur, Cont::AccessWorkDone);
            }
            return;
        }
        // Transaction complete.
        t.txns_done += 1;
        let resp = self.now - t.txn_start;
        t.resp_sum_ns += resp;
        self.response_hist.record(resp);
        let wal = self.p.workload.wal_cs_ns;
        if wal > 0 {
            if on_cpu {
                self.wal_lock_blocking(th, wal);
            } else {
                // Came back from I/O: get a CPU first, then take the lock.
                self.schedule_run(th, 1, Cont::TxnEndWal);
            }
        } else {
            self.start_txn(th, on_cpu);
        }
    }

    fn io_start(&mut self, th: usize) {
        if self.io_busy < self.p.workload.io_channels {
            self.io_busy += 1;
            self.push_event(self.now + self.p.workload.io_ns, th, Wake::IoDone);
        } else {
            self.io_queue.push_back(th);
        }
    }

    fn io_done(&mut self, th: usize) {
        self.io_busy -= 1;
        if let Some(next) = self.io_queue.pop_front() {
            self.io_busy += 1;
            self.push_event(self.now + self.p.workload.io_ns, next, Wake::IoDone);
        }
        // Page arrived; continue with the next access (needs a CPU).
        self.advance_access(th, false);
    }

    /// Run to the horizon and report.
    pub fn run(mut self) -> RunReport {
        // Kick off every thread.
        for th in 0..self.p.threads {
            self.start_txn(th, false);
        }
        while let Some(Reverse((key, th, wake))) = self.events.pop() {
            if key.time > self.horizon {
                break;
            }
            self.now = key.time;
            match decode(wake) {
                Wake::Segment(Cont::AccessWorkDone) => {
                    self.access_work_done(th);
                }
                Wake::Segment(Cont::ReplCsDone) => {
                    let commit = self.threads[th].pending_commit;
                    self.repl.tally.accesses_covered += commit;
                    self.threads[th].pending_commit = 0;
                    self.unlock_repl();
                    if self.threads[th].miss_pending {
                        self.threads[th].miss_pending = false;
                        self.release_cpu();
                        self.io_start(th);
                    } else {
                        self.advance_access(th, true);
                    }
                }
                Wake::Segment(Cont::WalCsDone) => {
                    self.unlock_wal();
                    self.start_txn(th, true);
                }
                Wake::Segment(Cont::TxnEndWal) => {
                    self.wal_lock_blocking(th, self.p.workload.wal_cs_ns);
                }
                Wake::Segment(Cont::ReplRetry) => {
                    self.repl_retry(th);
                }
                Wake::Segment(Cont::WalRetry) => {
                    self.wal_retry(th);
                }
                Wake::IoDone => {
                    self.io_done(th);
                }
            }
        }

        let txns: u64 = self.threads.iter().map(|t| t.txns_done).sum();
        let resp: u64 = self.threads.iter().map(|t| t.resp_sum_ns).sum();
        let horizon_s = self.horizon as f64 / 1e9;
        let t = &self.repl.tally;
        RunReport {
            throughput_tps: txns as f64 / horizon_s,
            avg_response_ms: if txns == 0 {
                0.0
            } else {
                resp as f64 / txns as f64 / 1e6
            },
            p95_response_ms: self.response_hist.quantile(0.95) as f64 / 1e6,
            max_response_ms: self.response_hist.max() as f64 / 1e6,
            contentions_per_million: if self.total_accesses == 0 {
                0.0
            } else {
                t.contentions as f64 * 1e6 / self.total_accesses as f64
            },
            lock_time_per_access_us: if t.accesses_covered == 0 {
                0.0
            } else {
                (t.wait_ns + t.hold_ns) as f64 / t.accesses_covered as f64 / 1e3
            },
            accesses_per_acquisition: if t.acquisitions == 0 {
                0.0
            } else {
                t.accesses_covered as f64 / t.acquisitions as f64
            },
            accesses: self.total_accesses,
            txns,
            contentions: t.contentions,
            trylock_failures: t.trylock_failures,
        }
    }
}

/// Convenience: build and run in one call.
pub fn simulate(params: SimParams) -> RunReport {
    Sim::new(params).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: SystemKind, cpus: usize, wl: WorkloadParams) -> RunReport {
        let mut p = SimParams::new(HardwareProfile::altix350(), cpus, SystemSpec::new(kind), wl);
        p.horizon_ms = 300;
        simulate(p)
    }

    #[test]
    fn clock_scales_nearly_linearly() {
        let t1 = quick(SystemKind::Clock, 1, WorkloadParams::dbt1()).throughput_tps;
        let t8 = quick(SystemKind::Clock, 8, WorkloadParams::dbt1()).throughput_tps;
        let t16 = quick(SystemKind::Clock, 16, WorkloadParams::dbt1()).throughput_tps;
        assert!(t8 > 6.0 * t1, "8 cpus should give near-8x: {t1} -> {t8}");
        assert!(
            t16 > 11.0 * t1,
            "16 cpus should stay near-linear: {t1} -> {t16}"
        );
    }

    #[test]
    fn lock_per_access_saturates() {
        let t1 = quick(SystemKind::LockPerAccess, 1, WorkloadParams::dbt1()).throughput_tps;
        let t16 = quick(SystemKind::LockPerAccess, 16, WorkloadParams::dbt1()).throughput_tps;
        let clock16 = quick(SystemKind::Clock, 16, WorkloadParams::dbt1()).throughput_tps;
        assert!(
            t16 < 8.0 * t1,
            "pgQ must saturate well below linear: 1cpu {t1}, 16cpu {t16}"
        );
        assert!(t16 < 0.7 * clock16, "pgQ must trail pgClock at 16 cpus");
    }

    #[test]
    fn full_wrapper_matches_clock() {
        let wl = WorkloadParams::dbt1;
        let clock = quick(SystemKind::Clock, 16, wl());
        let full = quick(SystemKind::BatchingPrefetching, 16, wl());
        let ratio = full.throughput_tps / clock.throughput_tps;
        assert!(
            ratio > 0.9,
            "pgBatPre should track pgClock within 10%: ratio {ratio:.3}"
        );
    }

    #[test]
    fn contention_ordering_matches_paper() {
        // pgQ >> pgPre > pgBat >= pgBatPre in contentions per million.
        // Measured below saturation (2 cpus): once the lock saturates the
        // two unbatched systems both block on nearly every access and
        // prefetching's edge disappears — exactly the paper's observation
        // that pgPre's contention reduction shrinks as processors grow
        // (14.7% at 2 cpus down to 3.6% at 16).
        let wl = WorkloadParams::tablescan;
        let q = quick(SystemKind::LockPerAccess, 2, wl());
        let pre = quick(SystemKind::Prefetching, 2, wl());
        let bat = quick(SystemKind::Batching, 2, wl());
        let both = quick(SystemKind::BatchingPrefetching, 2, wl());
        assert!(
            q.contentions_per_million > pre.contentions_per_million,
            "prefetching must reduce contention: {} vs {}",
            q.contentions_per_million,
            pre.contentions_per_million
        );
        assert!(
            pre.contentions_per_million > 10.0 * bat.contentions_per_million,
            "batching must reduce contention by orders of magnitude: {} vs {}",
            pre.contentions_per_million,
            bat.contentions_per_million
        );
        assert!(both.contentions_per_million <= bat.contentions_per_million * 1.5 + 1.0);
    }

    #[test]
    fn batching_amortizes_lock_time() {
        // Fig. 2: larger batches -> smaller per-access lock time.
        let mut prev = f64::INFINITY;
        for (s, t) in [(1u32, 1u32), (8, 4), (64, 32)] {
            let spec = SystemSpec::with_batching(SystemKind::Batching, s, t);
            let mut p = SimParams::new(
                HardwareProfile::altix350(),
                16,
                spec,
                WorkloadParams::dbt1(),
            );
            p.horizon_ms = 300;
            let r = simulate(p);
            assert!(
                r.lock_time_per_access_us < prev,
                "batch {s}: lock time {} must shrink (prev {prev})",
                r.lock_time_per_access_us
            );
            prev = r.lock_time_per_access_us;
        }
    }

    #[test]
    fn deterministic_runs() {
        let mk = || {
            let mut p = SimParams::new(
                HardwareProfile::poweredge1900(),
                4,
                SystemSpec::new(SystemKind::Batching),
                WorkloadParams::dbt2(),
            );
            p.horizon_ms = 100;
            simulate(p)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn misses_throttle_throughput() {
        let hit_only = quick(SystemKind::Clock, 8, WorkloadParams::dbt1());
        let missy = quick(
            SystemKind::Clock,
            8,
            WorkloadParams::dbt1().with_misses(0.2, 2_000_000),
        );
        assert!(
            missy.throughput_tps < hit_only.throughput_tps / 2.0,
            "20% misses at 2ms must crush throughput: {} vs {}",
            missy.throughput_tps,
            hit_only.throughput_tps
        );
    }

    #[test]
    fn wal_limits_dbt2_scaling() {
        let t1 = quick(SystemKind::Clock, 1, WorkloadParams::dbt2()).throughput_tps;
        let t16 = quick(SystemKind::Clock, 16, WorkloadParams::dbt2()).throughput_tps;
        assert!(
            t16 < 14.0 * t1,
            "DBT-2 should scale sub-linearly even on pgClock (WAL): {t1} -> {t16}"
        );
        assert!(t16 > 4.0 * t1, "but it must still scale substantially");
    }

    #[test]
    fn response_percentiles_ordered_and_inflate_under_contention() {
        let clock = quick(SystemKind::Clock, 16, WorkloadParams::dbt1());
        let q = quick(SystemKind::LockPerAccess, 16, WorkloadParams::dbt1());
        for r in [&clock, &q] {
            assert!(r.p95_response_ms >= r.avg_response_ms * 0.5); // bucketed lower bound
            assert!(r.max_response_ms >= r.avg_response_ms);
        }
        assert!(
            q.p95_response_ms > clock.p95_response_ms,
            "contended tail ({}) must exceed lock-free tail ({})",
            q.p95_response_ms,
            clock.p95_response_ms
        );
    }

    #[test]
    fn accesses_accounted() {
        let r = quick(SystemKind::Batching, 4, WorkloadParams::tablescan());
        assert!(r.accesses > 0);
        assert!(r.txns > 0);
        assert!(
            r.accesses >= r.txns * 100,
            "tablescan txns are ~124 accesses"
        );
        assert!(
            r.accesses_per_acquisition >= 30.0,
            "batch commits should average >= T"
        );
    }
}
