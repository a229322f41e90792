//! The in-process rows: benchmark threads are the DB threads. Each runs
//! transactions of [`TXN_LEN`] page accesses against one shared pool —
//! `fetch`, then `read` (or `write`) the page and check its stamp, then
//! drop the pin — and waits for every page, so the loop is closed.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use bpw_bufferpool::{BufferPool, PoolSession, ReplacementManager, SimDisk};
use bpw_server::{build_manager, DynPool};

use crate::layers::{
    report, set_measured, set_pool_counters, set_process_counters, Checks, Epochs, Measured,
    PoolSnap, ProcessSnap,
};
use crate::probes;
use crate::report::{Report, Values};
use crate::spans::{chrome_trace_json, KindTotals, SpanKind, SpanLog, NO_PARENT};
use crate::spec::{Spec, MANAGER, PAGE_SIZE, TXN_LEN};
use crate::workload::{interleave, pool_trace_hash, pool_traces, WRITE_BIT};
use crate::{sys, write_trace_file, RunConfig};

/// Transactions per thread that a traced run records spans for, spread
/// evenly over the traced epochs; bounds the span logs' memory.
const SAMPLED_TXNS: u64 = 1024;
/// Spans of one sampled transaction: itself and three per access.
const SPANS_PER_TXN: usize = 1 + 3 * TXN_LEN;

type Session<'p> = PoolSession<'p, Box<dyn ReplacementManager>>;

const WARM: u8 = 0;
const PLAIN: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;

/// What the coordinating thread and the workers share. Workers wait at the
/// barrier, read the phase, run one epoch and wait again.
struct Control {
    barrier: Barrier,
    phase: AtomicU8,
    /// Transactions each worker runs per epoch.
    txns: u64,
    /// Every `sample_period`-th transaction of a traced epoch is recorded.
    sample_period: u64,
    samples_capacity: usize,
    span_capacity: usize,
}

#[derive(Default)]
struct WorkerOut {
    /// Nanoseconds per transaction, untraced measured epochs only.
    samples: Vec<u32>,
    fetches: u64,
    writes: u64,
    failed: u64,
    /// Lock acquisitions of this thread over the traced epochs, and the
    /// accesses they cover.
    shim_acqs: u64,
    traced_accesses: u64,
    /// The same count around `read`/`write` alone, over sampled accesses.
    read_lock_acqs: u64,
    sampled_accesses: u64,
    log: Option<SpanLog>,
}

fn stamp(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Add one to the page's write counter (bytes 8..16); the stamp stays.
fn bump(bytes: &mut [u8]) {
    let counter = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    bytes[8..16].copy_from_slice(&(counter + 1).to_le_bytes());
}

impl WorkerOut {
    #[inline]
    fn txn_plain(&mut self, session: &mut Session<'_>, txn: &[u32]) {
        for &entry in txn {
            let page = u64::from(entry & !WRITE_BIT);
            self.fetches += 1;
            let Ok(pinned) = session.fetch(page) else {
                self.failed += 1;
                continue;
            };
            let stamped = if entry & WRITE_BIT != 0 {
                self.writes += 1;
                pinned.write(|b| {
                    bump(b);
                    stamp(b)
                })
            } else {
                pinned.read(stamp)
            };
            self.failed += u64::from(stamped != page);
        }
    }

    /// The same transaction with a span around each call into the pool.
    fn txn_traced(&mut self, session: &mut Session<'_>, txn: &[u32], id: u32) {
        let log = self.log.as_mut().expect("traced run has a span log");
        let txn_start = log.now();
        let root = log.begin(SpanKind::Txn, NO_PARENT, id, txn_start);
        for &entry in txn {
            let page = u64::from(entry & !WRITE_BIT);
            self.fetches += 1;
            // The pool credits miss I/O to this thread-local scratch
            // whether tracing is on or not; it tells a miss from a hit.
            bpw_trace::stage::reset();
            let t0 = log.now();
            let fetched = session.fetch(page);
            let t1 = log.now();
            let missed = bpw_trace::stage::take().miss_io_ns > 0;
            let Ok(pinned) = fetched else {
                self.failed += 1;
                continue;
            };
            let acqs = parking_lot::thread_acquisitions();
            let (kind, stamped) = if entry & WRITE_BIT != 0 {
                self.writes += 1;
                let s = pinned.write(|b| {
                    bump(b);
                    stamp(b)
                });
                (SpanKind::Write, s)
            } else {
                (SpanKind::Read, pinned.read(stamp))
            };
            self.read_lock_acqs += parking_lot::thread_acquisitions() - acqs;
            self.sampled_accesses += 1;
            let t2 = log.now();
            drop(pinned);
            let t3 = log.now();
            let fetch_kind = if missed {
                SpanKind::FetchMiss
            } else {
                SpanKind::FetchHit
            };
            log.record(fetch_kind, root, id, t0, t1);
            log.record(kind, root, id, t1, t2);
            log.record(SpanKind::Unpin, root, id, t2, t3);
            self.failed += u64::from(stamped != page);
        }
        let end = log.now();
        log.end(root, end);
    }
}

fn worker(
    pool: &DynPool,
    trace: &[u32],
    control: &Control,
    origin: Instant,
    traced: bool,
) -> WorkerOut {
    let mut out = WorkerOut {
        samples: Vec::with_capacity(control.samples_capacity),
        log: traced.then(|| SpanLog::with_capacity(origin, control.span_capacity)),
        ..WorkerOut::default()
    };
    let mut session = pool.session();
    let mut pos = 0;
    let mut sampled_id = 0u32;
    loop {
        control.barrier.wait();
        let phase = control.phase.load(Ordering::SeqCst);
        if phase == STOP {
            break;
        }
        let acqs = parking_lot::thread_acquisitions();
        for n in 0..control.txns {
            let txn = &trace[pos..pos + TXN_LEN];
            pos = (pos + TXN_LEN) % trace.len();
            if phase == TRACED && n % control.sample_period == 0 {
                out.txn_traced(&mut session, txn, sampled_id);
                sampled_id += 1;
            } else if phase == PLAIN {
                let t0 = Instant::now();
                out.txn_plain(&mut session, txn);
                out.samples.push(t0.elapsed().as_nanos() as u32);
            } else {
                out.txn_plain(&mut session, txn);
            }
        }
        if phase == TRACED {
            out.shim_acqs += parking_lot::thread_acquisitions() - acqs;
            out.traced_accesses += control.txns * TXN_LEN as u64;
        }
        control.barrier.wait();
    }
    out
}

/// Touch every page once so that set-up, not the measured epochs, pays for
/// first use. Read-only rows check the stamp storage gives an unwritten
/// page; writing rows stamp every page and then read all of them back,
/// which evicts — and so writes to storage — every page once.
fn prefill(pool: &DynPool, spec: &Spec) -> (u64, u64) {
    let mut session = pool.session();
    let (mut fetches, mut failed) = (0, 0);
    let passes = if spec.write_pct > 0 { 2 } else { 1 };
    for pass in 0..passes {
        for page in 0..spec.universe {
            fetches += 1;
            let Ok(pinned) = session.fetch(page) else {
                failed += 1;
                continue;
            };
            let stamped = if spec.write_pct > 0 && pass == 0 {
                pinned.write(|b| {
                    b[..8].copy_from_slice(&page.to_le_bytes());
                    b[8..16].fill(0);
                    stamp(b)
                })
            } else {
                pinned.read(stamp)
            };
            failed += u64::from(stamped != page);
        }
    }
    (fetches, failed)
}

/// Sum of the write counters of every page, read through the pool.
fn sum_write_counters(pool: &DynPool, universe: u64) -> (u64, u64) {
    let mut session = pool.session();
    let (mut sum, mut failed) = (0u64, 0);
    for page in 0..universe {
        match session.fetch(page) {
            Ok(pinned) => {
                sum += pinned.read(|b| u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")))
            }
            Err(_) => failed += 1,
        }
    }
    (sum, failed)
}

pub fn run(cfg: &RunConfig, started: Instant) -> Report {
    let spec = cfg.spec;
    let traced = cfg.traced_epochs > 0;
    let mut v = Values::default();
    let mut problems = Vec::new();

    // ---- set-up ---------------------------------------------------------
    let gen_t0 = Instant::now();
    let traces = pool_traces(&spec, cfg.seed);
    v.set(
        "workloads.trace_gen_ns_per_page",
        gen_t0.elapsed().as_nanos() as f64 / (spec.threads * spec.trace_len) as f64,
    );
    let manager = build_manager(MANAGER, spec.frames).expect("manager spec");
    let pool: DynPool = BufferPool::new(
        spec.frames,
        PAGE_SIZE,
        manager,
        Arc::new(SimDisk::instant()),
    );
    let (mut fetches, mut failed) = prefill(&pool, &spec);

    let txns = (cfg.ops_per_epoch / (spec.threads * TXN_LEN) as u64).max(1);
    let ops = txns * (spec.threads * TXN_LEN) as u64;
    let sample_period = (txns * cfg.traced_epochs as u64)
        .div_ceil(SAMPLED_TXNS)
        .max(1);
    let control = Control {
        barrier: Barrier::new(spec.threads + 1),
        phase: AtomicU8::new(WARM),
        txns,
        sample_period,
        samples_capacity: txns as usize * cfg.epochs,
        span_capacity: txns.div_ceil(sample_period) as usize * cfg.traced_epochs * SPANS_PER_TXN,
    };
    let run_epoch = |phase: u8| {
        control.phase.store(phase, Ordering::SeqCst);
        control.barrier.wait();
        let start = Epochs::start();
        control.barrier.wait();
        start
    };

    let mut plain = Epochs::new(ops);
    let mut traced_epochs = Epochs::new(ops);
    let mut setup_s = 0.0;
    let mut snaps = Vec::new();
    let mut process_snaps = Vec::new();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .map(|trace| {
                let (pool, control) = (&pool, &control);
                scope.spawn(move || worker(pool, trace, control, started, traced))
            })
            .collect();
        run_epoch(WARM);
        setup_s = started.elapsed().as_secs_f64();

        // ---- measured epochs --------------------------------------------
        snaps.push(PoolSnap::take(&pool));
        for _ in 0..cfg.epochs {
            let start = run_epoch(PLAIN);
            plain.finish(start);
        }
        snaps.push(PoolSnap::take(&pool));
        if traced {
            process_snaps.push(ProcessSnap::take());
            sys::set_alloc_counting(true);
            for _ in 0..cfg.traced_epochs {
                let start = run_epoch(TRACED);
                traced_epochs.finish(start);
            }
            sys::set_alloc_counting(false);
            process_snaps.push(ProcessSnap::take());
            snaps.push(PoolSnap::take(&pool));
        }
        control.phase.store(STOP, Ordering::SeqCst);
        control.barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect()
    });

    // ---- output checks --------------------------------------------------
    let writes: u64 = outs.iter().map(|o| o.writes).sum();
    fetches += outs.iter().map(|o| o.fetches).sum::<u64>();
    failed += outs.iter().map(|o| o.failed).sum::<u64>();
    if spec.write_pct > 0 {
        let (sum, unreadable) = sum_write_counters(&pool, spec.universe);
        fetches += spec.universe;
        failed += unreadable;
        // A write can be lost without any call failing: the pool unmaps a
        // dirty victim before it writes it back, outside the miss lock, so
        // a thread that re-fetches that page in the window reads the old
        // copy from storage (README, "A defect the benchmark found"). Two
        // threads lose about one write in 10^7 here. The count is printed
        // and does not fail the run until the pool is fixed; pages holding
        // more writes than were made would be the benchmark's own error.
        if sum > writes {
            problems.push(format!("pages count {sum} writes, {writes} were made"));
        }
        v.set("lost_writes", writes.saturating_sub(sum) as f64);
    }
    let end = PoolSnap::take(&pool);
    if end.fetches() != fetches - failed {
        problems.push(format!(
            "hits + misses = {}, fetches = {}",
            end.fetches(),
            fetches - failed
        ));
    }
    // ---- values ---------------------------------------------------------
    let accesses = interleave(&traces);
    // Sized up front: a vector that grows while it is filled makes the
    // peak memory of a run depend on where the allocator finds room.
    let mut samples = Vec::with_capacity(outs.iter().map(|o| o.samples.len()).sum());
    for out in &outs {
        samples.extend_from_slice(&out.samples);
    }
    let measured = Measured {
        setup_s,
        plain: &plain,
        samples: &mut samples,
        window: (&snaps[0], &snaps[1]),
        pool: &pool,
        accesses: &accesses,
    };
    set_measured(&mut v, &mut problems, measured, traced);

    if traced {
        let traced_ops = ops * cfg.traced_epochs as u64;
        set_pool_counters(&mut v, &snaps[1], &snaps[2], traced_ops);
        set_process_counters(&mut v, &process_snaps[0], &process_snaps[1], traced_ops);
        v.set_ratio(
            "process.trace_overhead_ratio",
            traced_epochs.throughput_ops_s(),
            plain.throughput_ops_s(),
        );
        v.set_ratio(
            "bufferpool.shim_lock_acqs_per_op",
            outs.iter().map(|o| o.shim_acqs).sum::<u64>() as f64,
            outs.iter().map(|o| o.traced_accesses).sum::<u64>() as f64,
        );
        v.set_ratio(
            "bufferpool.read_lock_acqs_per_op",
            outs.iter().map(|o| o.read_lock_acqs).sum::<u64>() as f64,
            outs.iter().map(|o| o.sampled_accesses).sum::<u64>() as f64,
        );
        let logs: Vec<SpanLog> = outs.into_iter().filter_map(|o| o.log).collect();
        let mut totals = KindTotals::default();
        for log in &logs {
            totals.add_log(log);
        }
        for (name, kind) in [
            ("bufferpool.fetch_hit_ns", SpanKind::FetchHit),
            ("bufferpool.fetch_miss_ns", SpanKind::FetchMiss),
            ("bufferpool.read_ns", SpanKind::Read),
            ("bufferpool.write_ns", SpanKind::Write),
            ("bufferpool.unpin_ns", SpanKind::Unpin),
        ] {
            v.set(name, totals.mean_self_ns(kind));
        }
        v.set(
            "spans_recorded",
            logs.iter().map(|l| l.spans().len()).sum::<usize>() as f64,
        );
        v.set(
            "spans_dropped",
            logs.iter().map(|l| l.dropped).sum::<u64>() as f64,
        );
        write_trace_file(cfg, &chrome_trace_json(&logs, 64));
        probes::pool_layers(&mut v, &spec, &accesses);
    }
    let extra_info: &[_] = if spec.write_pct > 0 {
        &[("lost_writes", "count")]
    } else {
        &[]
    };
    report(
        v,
        spec.kind,
        traced,
        extra_info,
        Checks {
            attempted: fetches,
            failed,
            problems,
            trace_hash: pool_trace_hash(&traces),
        },
        (&snaps[0], &snaps[1]),
    )
}
