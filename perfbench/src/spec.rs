//! The fixed sizes of the four workloads and the names and units of every
//! metric. `../BENCHMARK.json` lists the same names; `tests/names.rs` fails
//! when the two drift apart.

/// Page size of every workload, bytes.
pub const PAGE_SIZE: usize = 4096;
/// Replacement manager of every workload (`bpw_server::build_manager`).
pub const MANAGER: &str = "wrapped-2q";
/// Accesses per pool transaction; also the Zipf workload's `txn_len`.
pub const TXN_LEN: usize = 64;
/// `run_seconds` of `BENCHMARK.json`: the `--seconds` value at which an
/// epoch holds `ops_per_epoch` operations. Other values scale the count.
pub const NOMINAL_SECONDS: u64 = 24;
/// Measured epochs of an untraced run.
pub const EPOCHS: usize = 15;
/// Untraced, then traced, epochs of a `--trace 1` run.
pub const TRACE_EPOCHS: usize = 5;
/// Every n-th PUT of `srv_mixed_miss` is followed by a GET of the same
/// page whose whole body is compared; every n-th SCAN has its checksum
/// recomputed by the client.
pub const DEEP_CHECK_EVERY: u64 = 64;
/// Pages per SCAN request.
pub const SCAN_LEN: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// In-process: benchmark threads call the pool.
    Pool,
    /// One client connection to an event-loop page server.
    Server,
}

/// Which workloads measure a per-layer metric. On the others the layer does
/// no work that the benchmark can see from outside, and the metric reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    All,
    /// Spans and lock counts around the benchmark's own calls into the pool.
    Pool,
    /// The page server, its event loop, and the client's side of a request.
    Server,
}

impl Rows {
    pub fn include(self, kind: Kind) -> bool {
        match self {
            Rows::All => true,
            Rows::Pool => kind == Kind::Pool,
            Rows::Server => kind == Kind::Server,
        }
    }
}

/// One workload. Every field is fixed here, not derived from the host.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub frames: usize,
    pub universe: u64,
    pub theta: f64,
    /// Benchmark threads (pool rows) or client connections (server rows).
    pub threads: usize,
    /// Server rows: requests in flight on the connection.
    pub pipeline: usize,
    /// Server rows: worker threads of the server.
    pub workers: usize,
    /// Pool rows: share of accesses that write, in percent.
    pub write_pct: u64,
    /// Server rows: share of PUT and SCAN requests, in percent (rest GET).
    pub put_pct: u64,
    pub scan_pct: u64,
    /// Page accesses (pool rows, all threads together) or requests (server
    /// rows) per epoch at [`NOMINAL_SECONDS`].
    pub ops_per_epoch: u64,
    /// Length of each pre-generated, cycled trace (per thread).
    pub trace_len: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "pool_hit",
        kind: Kind::Pool,
        frames: 8192,
        universe: 4096,
        theta: 0.99,
        threads: 2,
        pipeline: 0,
        workers: 0,
        write_pct: 0,
        put_pct: 0,
        scan_pct: 0,
        ops_per_epoch: 12_000_000,
        trace_len: 1 << 20,
    },
    Spec {
        name: "pool_miss_rw",
        kind: Kind::Pool,
        frames: 2048,
        universe: 16_384,
        theta: 0.8,
        threads: 2,
        pipeline: 0,
        workers: 0,
        write_pct: 10,
        put_pct: 0,
        scan_pct: 0,
        ops_per_epoch: 2_000_000,
        trace_len: 1 << 20,
    },
    Spec {
        name: "srv_get_hit",
        kind: Kind::Server,
        frames: 8192,
        universe: 4096,
        theta: 0.99,
        threads: 1,
        pipeline: 32,
        workers: 1,
        write_pct: 0,
        put_pct: 0,
        scan_pct: 0,
        ops_per_epoch: 320_000,
        trace_len: 1 << 20,
    },
    Spec {
        name: "srv_mixed_miss",
        kind: Kind::Server,
        frames: 2048,
        universe: 16_384,
        theta: 0.9,
        threads: 1,
        pipeline: 32,
        workers: 1,
        write_pct: 0,
        put_pct: 20,
        scan_pct: 5,
        ops_per_epoch: 208_000,
        trace_len: 1 << 20,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// `(name, unit)` of the end-to-end metrics, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("latency_p50_us", "us"),
    ("hit_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

const OPS: [&str; 3] = ["get", "put", "scan"];
const STAGES: [&str; 6] = [
    "decode",
    "queue_wait",
    "pin_hit",
    "miss_io",
    "batch_commit",
    "reply_flush",
];

/// Name of a server stage metric, e.g. `server.stage.get.queue_wait_ns`.
pub fn stage_metric(op: &str, stage: &str) -> String {
    format!("server.stage.{op}.{stage}_ns")
}

use Rows::{All, Pool, Server};

const PER_LAYER_FIXED: [(&str, &str, Rows); 67] = [
    ("workloads.trace_gen_ns_per_page", "ns", All),
    ("replacement.policy_ns_per_access", "ns", All),
    ("replacement.sim_hit_ratio", "ratio", All),
    ("core.record_hit_ns", "ns", All),
    ("core.lock_acqs_per_kaccess", "count", All),
    ("core.accesses_per_acquisition", "count", All),
    ("core.lock_contentions_per_maccess", "count", All),
    ("core.lock_wait_ns_per_access", "ns", All),
    ("core.lock_hold_ns_per_access", "ns", All),
    ("bufferpool.fetch_hit_ns", "ns", Pool),
    ("bufferpool.fetch_miss_ns", "ns", Pool),
    ("bufferpool.read_ns", "ns", Pool),
    ("bufferpool.write_ns", "ns", Pool),
    ("bufferpool.unpin_ns", "ns", Pool),
    ("bufferpool.shim_lock_acqs_per_op", "count", Pool),
    ("bufferpool.read_lock_acqs_per_op", "count", Pool),
    ("bufferpool.misses_per_kop", "count", All),
    ("bufferpool.writebacks_per_kop", "count", All),
    ("bufferpool.pin_cas_retries_per_mop", "count", All),
    ("bufferpool.page_table_fallback_reads_per_mop", "count", All),
    ("bufferpool.free_list_steals_per_kmiss", "count", All),
    ("bufferpool.miss_lock_acqs_per_miss", "count", All),
    ("bufferpool.miss_lock_contentions_per_mmiss", "count", All),
    ("bufferpool.miss_lock_wait_ns_per_miss", "ns", All),
    ("bufferpool.miss_lock_hold_ns_per_miss", "ns", All),
    ("bufferpool.io_retries", "count", All),
    ("bufferpool.io_errors", "count", All),
    ("storage.read_page_ns", "ns", All),
    ("storage.write_page_ns", "ns", All),
    ("server.get_ns_mean", "ns", Server),
    ("server.put_ns_mean", "ns", Server),
    ("server.scan_ns_mean", "ns", Server),
    ("server.unattributed_ns", "ns", Server),
    ("server.peak_queue_depth", "count", Server),
    ("server.busy", "count", Server),
    ("server.dropped", "count", Server),
    ("server.errors", "count", Server),
    ("server.stats_scrape_us", "us", Server),
    ("server.protocol.encode_get_ns", "ns", Server),
    ("server.protocol.decode_request_ns", "ns", Server),
    ("server.protocol.encode_reply_ns", "ns", Server),
    ("server.protocol.decode_reply_ns", "ns", Server),
    ("server.protocol.frame_decoder_ns_per_frame", "ns", Server),
    ("server.admission.submit_pop_ns", "ns", Server),
    ("server.admission.handoff_ns", "ns", Server),
    ("server.threaded.get_hit_ops_s", "1/s", Server),
    ("server.threaded.get_hit_cpu_us_per_op", "us", Server),
    ("evl.epoll_wakeups_per_kop", "count", Server),
    ("evl.ready_per_wakeup_mean", "count", Server),
    ("evl.pipeline_depth_mean", "count", Server),
    ("evl.short_writes", "count", Server),
    ("client.encode_ns", "ns", Server),
    ("client.write_ns", "ns", Server),
    ("client.wait_ns", "ns", Server),
    ("client.decode_ns", "ns", Server),
    ("client.cpu_us_per_op", "us", Server),
    ("client.latency_p99_us", "us", All),
    ("client.latency_p999_us", "us", All),
    ("client.latency_max_us", "us", All),
    ("process.allocs_per_op", "count", All),
    ("process.alloc_bytes_per_op", "bytes", All),
    ("process.vol_ctx_switches_per_kop", "count", All),
    ("process.invol_ctx_switches_per_kop", "count", All),
    ("process.minor_faults_per_kop", "count", All),
    ("process.sys_cpu_share", "ratio", All),
    ("process.epoch_spread", "ratio", All),
    ("process.trace_overhead_ratio", "ratio", All),
];

/// `(name, unit, rows)` of the per-layer metrics, printed by `--trace 1`:
/// the fixed names plus one per (opcode, stage) of the server's
/// decomposition. The prefix of a name is the crate that owns the number.
pub fn per_layer() -> Vec<(String, &'static str, Rows)> {
    let mut out: Vec<(String, &'static str, Rows)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, r)| (n.to_string(), u, r))
        .collect();
    for op in OPS {
        for stage in STAGES {
            out.push((stage_metric(op, stage), "ns", Rows::Server));
        }
    }
    out
}
