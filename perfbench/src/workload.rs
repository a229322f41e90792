//! Inputs, made from the seed alone: per-thread page traces for the pool
//! rows and a request trace for the server rows. Both are generated once in
//! set-up and cycled, so that the measured loop does no sampling.

use bpw_server::protocol::fnv1a;
use bpw_workloads::{splitmix64, PageStream, ZipfWorkload};

use crate::spec::{Spec, DEEP_CHECK_EVERY, SCAN_LEN, TXN_LEN};

/// Set in a pool trace entry whose access writes.
pub const WRITE_BIT: u32 = 1 << 31;

/// One page trace per benchmark thread: `trace_len` entries, the page id in
/// the low 31 bits and [`WRITE_BIT`] on `write_pct` percent of them.
pub fn pool_traces(spec: &Spec, seed: u64) -> Vec<Vec<u32>> {
    assert!(spec.universe < u64::from(WRITE_BIT));
    assert_eq!(
        spec.trace_len % TXN_LEN,
        0,
        "a trace holds whole transactions"
    );
    let zipf = ZipfWorkload::new(spec.universe, spec.theta, TXN_LEN);
    (0..spec.threads)
        .map(|t| {
            PageStream::for_thread(&zipf, t, seed)
                .take(spec.trace_len)
                .enumerate()
                .map(|(i, page)| {
                    let roll = splitmix64(seed ^ ((t as u64) << 40) ^ i as u64) % 100;
                    let write = if roll < spec.write_pct { WRITE_BIT } else { 0 };
                    page as u32 | write
                })
                .collect()
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Put,
    Scan,
    /// A GET that directly follows a PUT of the same page on the same
    /// connection; its whole body is compared with what was put.
    GetBack,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub op: Op,
    pub page: u32,
}

/// The request trace of a server row: `trace_len` requests over the Zipf
/// page stream of thread `thread`, `put_pct` percent PUTs and `scan_pct`
/// percent SCANs of [`SCAN_LEN`] pages. Every [`DEEP_CHECK_EVERY`]-th PUT
/// is followed by a read-back GET in place of the next request.
pub fn server_trace(spec: &Spec, thread: usize, seed: u64) -> Vec<Req> {
    let zipf = ZipfWorkload::new(spec.universe, spec.theta, TXN_LEN);
    let mut puts = 0u64;
    let mut read_back = None;
    PageStream::for_thread(&zipf, thread, seed)
        .take(spec.trace_len)
        .enumerate()
        .map(|(i, page)| {
            if let Some(page) = read_back.take() {
                return Req {
                    op: Op::GetBack,
                    page,
                };
            }
            let page = page as u32;
            let roll = splitmix64(seed ^ 0x5eed_0000_0000 ^ i as u64) % 100;
            if roll < spec.put_pct {
                puts += 1;
                if puts.is_multiple_of(DEEP_CHECK_EVERY) {
                    read_back = Some(page);
                }
                Req { op: Op::Put, page }
            } else if roll < spec.put_pct + spec.scan_pct {
                // A scan must end inside the universe.
                let last_start = (spec.universe - u64::from(SCAN_LEN)) as u32;
                Req {
                    op: Op::Scan,
                    page: page.min(last_start),
                }
            } else {
                Req { op: Op::Get, page }
            }
        })
        .collect()
}

/// The pages one request touches, in order.
pub fn pages_of(req: Req) -> impl Iterator<Item = u64> {
    let len = if req.op == Op::Scan { SCAN_LEN } else { 1 };
    (0..u64::from(len)).map(move |i| u64::from(req.page) + i)
}

/// Round-robin interleave of the per-thread pool traces, write bits
/// dropped: the access string a single-threaded reference cache is fed.
pub fn interleave(traces: &[Vec<u32>]) -> Vec<u64> {
    let len = traces[0].len();
    let mut out = Vec::with_capacity(len * traces.len());
    for i in 0..len {
        for trace in traces {
            out.push(u64::from(trace[i] & !WRITE_BIT));
        }
    }
    out
}

/// FNV-1a over the pool traces; equal seeds give equal hashes.
pub fn pool_trace_hash(traces: &[Vec<u32>]) -> u64 {
    traces
        .iter()
        .flatten()
        .fold(0, |h, e| fnv1a(h, &e.to_le_bytes()))
}

/// FNV-1a over a request trace.
pub fn server_trace_hash(trace: &[Req]) -> u64 {
    trace.iter().fold(0, |h, r| {
        let h = fnv1a(h, &[r.op as u8]);
        fnv1a(h, &r.page.to_le_bytes())
    })
}
