//! The metric table: every number the server exports, enumerated once.
//!
//! [`walk`] visits one [`Row`] per metric — JSON key path, Prometheus
//! name and labels, help text, kind (the [`Value`] variant), and the
//! value as read for this scrape. Two renderers consume the same walk:
//! [`stats_json`] (the `STATS` reply) nests rows by their key path,
//! [`metrics_text`] (the `METRICS` reply) groups them by series name.
//! Adding a metric is one `row(..)` line.
//!
//! One asymmetry is part of the table, not of the renderers: the
//! per-shard breakdowns, whose label set grows with the pool, have no
//! JSON path — STATS carries their aggregates (`miss_locks.*`) and stays
//! O(1) in pool size.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use bpw_metrics::json::{escape_str_into, write_f64_into};
use bpw_metrics::{Histogram, LockShardSummary, LockSnapshot};
use bpw_trace::PromWriter;

use crate::engine::Shared;
use crate::metrics::{OpKind, Stage};
use crate::server::DynPool;

/// What one row's value is, which is also its Prometheus `TYPE`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value<'a> {
    /// Monotone count.
    Counter(u64),
    /// Point-in-time integer.
    Gauge(u64),
    /// Point-in-time ratio.
    Ratio(f64),
    /// A latency/size distribution.
    Hist(&'a Histogram),
}

/// One exported metric.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// JSON key path from the STATS root, `""`-padded. All empty: no
    /// JSON rendering.
    pub(crate) json: [&'static str; 3],
    /// Prometheus series name.
    pub(crate) prom: &'static str,
    /// Prometheus labels, `("", "")`-padded.
    pub(crate) labels: [(&'static str, &'a str); 2],
    pub(crate) help: &'static str,
    pub(crate) value: Value<'a>,
}

impl<'a> Row<'a> {
    fn new(
        json: &[&'static str],
        prom: &'static str,
        labels: &[(&'static str, &'a str)],
        help: &'static str,
        value: Value<'a>,
    ) -> Self {
        let mut row = Row {
            json: [""; 3],
            prom,
            labels: [("", ""); 2],
            help,
            value,
        };
        row.json[..json.len()].copy_from_slice(json);
        row.labels[..labels.len()].copy_from_slice(labels);
        row
    }

    /// The non-empty JSON path segments.
    pub(crate) fn json_path(&self) -> &[&'static str] {
        let len = self.json.iter().take_while(|s| !s.is_empty()).count();
        &self.json[..len]
    }

    /// The labels in use.
    pub(crate) fn label_pairs(&self) -> &[(&'static str, &'a str)] {
        let len = self.labels.iter().take_while(|l| !l.0.is_empty()).count();
        &self.labels[..len]
    }
}

/// A buffer-pool counter: `(STATS key, METRICS series, help, where it
/// is read)`.
type PoolCounter = (
    &'static str,
    &'static str,
    &'static str,
    fn(&DynPool) -> u64,
);

#[rustfmt::skip] // one row per line
const POOL_COUNTERS: [PoolCounter; 8] = [
    ("pool_hits",                 "bpw_pool_hits_total",                 "Fetches served from the buffer.",                                   |p| p.stats().hits.load(Ordering::Relaxed)),
    ("pool_misses",               "bpw_pool_misses_total",               "Fetches that read storage.",                                        |p| p.stats().misses.load(Ordering::Relaxed)),
    ("pool_writebacks",           "bpw_pool_writebacks_total",           "Dirty victims written back.",                                       |p| p.stats().writebacks.load(Ordering::Relaxed)),
    ("pool_io_retries",           "bpw_pool_io_retries_total",           "Storage operations retried after a transient fault.",               |p| p.stats().io_retries.load(Ordering::Relaxed)),
    ("pool_io_errors",            "bpw_pool_io_errors_total",            "Storage operations failed after exhausting retries.",               |p| p.stats().io_errors.load(Ordering::Relaxed)),
    ("pin_cas_retries",           "bpw_pin_cas_retries_total",           "Header pin CAS retries (packed-header contention signal).",         |p| p.stats().pin_cas_retries.load(Ordering::Relaxed)),
    ("pin_underflows",            "bpw_pin_underflow_total",             "Unpins that found the pin count at zero (saturated, not wrapped).", |p| p.stats().pin_underflows.load(Ordering::Relaxed)),
    ("page_table_fallback_reads", "bpw_page_table_fallback_reads_total", "Page-table lookups that fell back to the locked path.",             |p| p.page_table_fallback_reads()),
];

/// Every pool-side scalar a scrape needs, read live from the pool's
/// counters once per scrape.
#[derive(Debug)]
struct PoolSide {
    /// One value per [`POOL_COUNTERS`] row, in table order.
    counters: [u64; POOL_COUNTERS.len()],
    hit_ratio: f64,
    /// Replacement-manager lock behaviour.
    lock: LockSnapshot,
    /// Sum over the page table's partition locks.
    miss_lock: LockSnapshot,
    /// Shard-aware partition-lock summary.
    miss_locks: LockShardSummary,
    /// Frames sessions hold evicted ahead of need.
    stashed_frames: u64,
    /// Queued admissions dropped because their frame was invalidated.
    stale_admissions: u64,
}

impl PoolSide {
    /// Walk the pool's counters now.
    fn of(shared: &Shared) -> PoolSide {
        let pool = &*shared.pool;
        PoolSide {
            counters: POOL_COUNTERS.map(|(_, _, _, read)| read(pool)),
            hit_ratio: pool.stats().hit_ratio(),
            lock: pool.manager().lock_snapshot(),
            miss_lock: pool.miss_lock_snapshot(),
            miss_locks: pool.miss_lock_summary(),
            stashed_frames: pool.stashed_frames() as u64,
            stale_admissions: pool.manager().stale_admissions(),
        }
    }
}

/// Values a scrape reads once, up front, so rows can borrow them.
pub(crate) struct Scrape {
    pool: PoolSide,
    /// `(shard label, snapshot)` per partition lock (METRICS only).
    shards: Vec<(String, LockSnapshot)>,
}

impl Scrape {
    /// `breakdowns` also reads the per-shard series, which only METRICS
    /// renders.
    pub(crate) fn gather(shared: &Shared, breakdowns: bool) -> Scrape {
        let mut shards = Vec::new();
        if breakdowns {
            let snaps = shared.pool.miss_lock_shard_snapshots();
            shards.extend(
                snaps
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| (i.to_string(), s)),
            );
        }
        Scrape {
            pool: PoolSide::of(shared),
            shards,
        }
    }
}

/// Visit every exported metric once, in STATS order. Each `row(..)` is
/// `(STATS path, METRICS series, labels, help, value)`.
#[rustfmt::skip] // one row per line
pub(crate) fn walk<'a>(shared: &'a Shared, scrape: &'a Scrape, visit: &mut dyn FnMut(Row<'a>)) {
    use Value::{Counter, Gauge, Hist, Ratio};
    let m = &*shared.metrics;
    let pool = &scrape.pool;
    let mut row = |json: &[&'static str], prom, labels: &[(&'static str, &'a str)], help, value| {
        visit(Row::new(json, prom, labels, help, value))
    };

    const REQUESTS: &str = "Requests by reply status.";
    row(&["ok"],               "bpw_requests_total",          &[("status", "ok")],       REQUESTS, Counter(m.ok.get()));
    row(&["busy"],             "bpw_requests_total",          &[("status", "busy")],     REQUESTS, Counter(m.busy.get()));
    row(&["dropped"],          "bpw_requests_total",          &[("status", "dropped")],  REQUESTS, Counter(m.dropped.get()));
    row(&["errors"],           "bpw_requests_total",          &[("status", "error")],    REQUESTS, Counter(m.errors.get()));
    row(&["io_errors"],        "bpw_requests_total",          &[("status", "io_error")], REQUESTS, Counter(m.io_errors.get()));
    row(&["inline_hits"],      "bpw_inline_hits_total",       &[], "GETs that found their page resident, answered from the frame.",     Counter(m.inline_hits.get()));
    row(&["connections_open"], "bpw_connections_open",        &[], "Client connections currently open.",                                  Gauge(m.connections_open.get()));
    row(&["connections_peak"], "bpw_connections_peak",        &[], "Open-connection high-water mark.",                                    Gauge(m.connections_open.peak()));
    row(&["epoll_wakeups"],    "bpw_epoll_wakeups_total",     &[], "Event-loop wakeups (epoll_wait returns with work).",                  Counter(m.epoll_wakeups.get()));
    row(&["short_writes"],     "bpw_short_writes_total",      &[], "Nonblocking writes that accepted only part of the buffer.",           Counter(m.short_writes.get()));
    row(&["pipeline_depth"],   "bpw_pipeline_depth",          &[], "Requests answered per pass over a connection's frames.", Hist(&m.pipeline_depth));
    row(&["ready_per_wakeup"], "bpw_ready_events_per_wakeup", &[], "Ready fds delivered per epoll wakeup.",                               Hist(&m.ready_per_wakeup));
    row(&["peak_queue_depth"], "bpw_queue_depth_peak",        &[], "Request-queue depth high-water mark: always 0, nothing queues.",     Gauge(0));
    row(&["get_ns"],           "bpw_get_latency_ns",          &[], "End-to-end GET latency.",                                             Hist(&m.get_ns));
    row(&["put_ns"],           "bpw_put_latency_ns",          &[], "End-to-end PUT latency.",                                             Hist(&m.put_ns));
    row(&["scan_ns"],          "bpw_scan_latency_ns",         &[], "End-to-end SCAN latency.",                                            Hist(&m.scan_ns));
    row(&["queue_wait_ns"],    "bpw_queue_wait_ns",           &[], "Time queued before execution: never sampled, nothing queues.",       Hist(&m.queue_wait_ns));
    for (&(key, name, help, _), value) in POOL_COUNTERS.iter().zip(pool.counters) {
        row(&[key], name, &[], help, Counter(value));
    }
    row(&["pool_hit_ratio"],   "bpw_pool_hit_ratio",          &[], "Hits over fetches since start (0 when idle).",                        Ratio(pool.hit_ratio));
    row(&["pool_stashed_frames"], "bpw_pool_stashed_frames",  &[], "Frames evicted ahead of need, held in sessions' stashes.",            Gauge(pool.stashed_frames));
    row(&["stale_admissions"], "bpw_wrapper_stale_admissions_total", &[], "Queued admissions dropped at commit: their frame was invalidated meanwhile.", Counter(pool.stale_admissions));

    for (key, label, l) in [("replacement_lock", "replacement", &pool.lock), ("miss_lock", "miss", &pool.miss_lock)] {
        let lock = &[("lock", label)];
        row(&[key, "acquisitions"],             "bpw_lock_acquisitions_total",       lock, "Successful lock acquisitions.",                             Counter(l.acquisitions));
        row(&[key, "contentions"],              "bpw_lock_contentions_total",        lock, "Blocked acquisitions (the paper's contention events).",     Counter(l.contentions));
        row(&[key, "trylock_failures"],         "bpw_lock_trylock_failures_total",   lock, "Non-blocking try-lock attempts that failed.",               Counter(l.trylock_failures));
        row(&[key, "wait_ns"],                  "bpw_lock_wait_ns_total",            lock, "Nanoseconds spent waiting for the lock.",                   Counter(l.wait_ns));
        row(&[key, "hold_ns"],                  "bpw_lock_hold_ns_total",            lock, "Nanoseconds the lock was held, estimated from every 16th acquisition.", Counter(l.hold_ns));
        row(&[key, "accesses_covered"],         "bpw_lock_accesses_covered_total",   lock, "Page accesses whose bookkeeping the lock protected.",       Counter(l.accesses_covered));
        row(&[key, "accesses_per_acquisition"], "bpw_lock_accesses_per_acquisition", lock, "Mean accesses committed per acquisition (the batch size).", Ratio(l.accesses_per_acquisition()));
    }
    let s = &pool.miss_locks;
    row(&["miss_locks", "shards"],             "bpw_miss_lock_shards",             &[], "Miss-path partition width (partition locks).",          Gauge(s.shards as u64));
    row(&["miss_locks", "total_acquisitions"], "bpw_miss_locks_acquisitions_total", &[], "Partition-lock acquisitions summed over shards.",       Counter(s.total_acquisitions));
    row(&["miss_locks", "total_contentions"],  "bpw_miss_locks_contentions_total",  &[], "Blocked partition-lock acquisitions summed over shards.", Counter(s.total_contentions));
    row(&["miss_locks", "total_wait_ns"],      "bpw_miss_locks_wait_ns_total",      &[], "Nanoseconds waited on partition locks, summed over shards.", Counter(s.total_wait_ns));
    row(&["miss_locks", "total_hold_ns"],      "bpw_miss_locks_hold_ns_total",      &[], "Nanoseconds partition locks were held, summed over shards; estimated from every 16th acquisition.", Counter(s.total_hold_ns));
    row(&["miss_locks", "max_wait_ns"],        "bpw_miss_locks_max_wait_ns",        &[], "Cumulative wait of the hottest partition lock.",       Gauge(s.max_wait_ns));
    // Per-shard series: where on the partition the miss path's
    // remaining serialization concentrates.
    for (shard, s) in &scrape.shards {
        row(&[], "bpw_miss_shard_acquisitions_total", &[("shard", shard)], "Partition-lock acquisitions by page-table shard.", Counter(s.acquisitions));
        row(&[], "bpw_miss_shard_wait_ns_total",      &[("shard", shard)], "Nanoseconds waited on each shard's partition lock.", Counter(s.wait_ns));
    }

    for (op, stage) in OpKind::ALL.into_iter().flat_map(|op| Stage::ALL.map(|stage| (op, stage))) {
        row(&["stages", op.name(), stage.name()], "bpw_stage_latency_ns", &[("op", op.name()), ("stage", stage.name())],
            "Request latency attributed to one pipeline stage, per opcode.", Hist(m.stage(op, stage)));
    }
}

/// Nests rows by JSON path: rows sharing a parent must be visited
/// consecutively (the table is written in STATS order, so they are).
struct JsonTree {
    out: String,
    /// Names of the objects open below the root, outermost first.
    open: Vec<&'static str>,
    need_comma: bool,
}

impl JsonTree {
    fn new() -> JsonTree {
        JsonTree {
            out: String::from("{"),
            open: Vec::new(),
            need_comma: false,
        }
    }

    fn comma(&mut self) {
        if self.need_comma {
            self.out.push(',');
        }
    }

    fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.open.pop();
            self.out.push('}');
            self.need_comma = true;
        }
    }

    fn row(&mut self, row: &Row<'_>) {
        let Some((leaf, parents)) = row.json_path().split_last() else {
            return;
        };
        let common = self
            .open
            .iter()
            .zip(parents)
            .take_while(|(a, b)| a == b)
            .count();
        self.close_to(common);
        for &name in &parents[common..] {
            self.comma();
            escape_str_into(&mut self.out, name);
            self.out.push_str(":{");
            self.need_comma = false;
            self.open.push(name);
        }
        self.comma();
        escape_str_into(&mut self.out, leaf);
        self.out.push(':');
        match row.value {
            Value::Counter(v) | Value::Gauge(v) => {
                let _ = write!(self.out, "{v}");
            }
            Value::Ratio(v) => write_f64_into(&mut self.out, v),
            Value::Hist(h) => self.out.push_str(&h.to_json()),
        }
        self.need_comma = true;
    }

    fn finish(mut self) -> String {
        self.close_to(0);
        self.out.push('}');
        self.out
    }
}

/// Groups rows by series name, so each family gets one `HELP`/`TYPE`
/// header and contiguous samples whatever order the table visits in.
#[derive(Default)]
struct PromFamilies {
    families: Vec<PromWriter>,
    by_name: HashMap<&'static str, usize>,
}

impl PromFamilies {
    fn row(&mut self, row: &Row<'_>) {
        let kind = match row.value {
            Value::Counter(_) => "counter",
            Value::Hist(_) => "histogram",
            _ => "gauge",
        };
        let families = &mut self.families;
        let at = *self.by_name.entry(row.prom).or_insert_with(|| {
            let mut w = PromWriter::new();
            w.header(row.prom, row.help, kind);
            families.push(w);
            families.len() - 1
        });
        let w = &mut families[at];
        let labels = row.label_pairs();
        match row.value {
            Value::Counter(v) | Value::Gauge(v) => w.sample(row.prom, labels, v),
            Value::Ratio(v) => w.sample_f64(row.prom, labels, v),
            Value::Hist(h) => w.histogram(row.prom, labels, h),
        };
    }

    fn finish(self) -> String {
        self.families.into_iter().map(PromWriter::finish).collect()
    }
}

/// The STATS reply: every row with a JSON path, nested.
pub(crate) fn stats_json(shared: &Shared) -> String {
    let scrape = Scrape::gather(shared, false);
    let mut tree = JsonTree::new();
    walk(shared, &scrape, &mut |row| tree.row(&row));
    tree.finish()
}

/// The METRICS reply: every row, Prometheus-style.
pub(crate) fn metrics_text(shared: &Shared) -> String {
    let scrape = Scrape::gather(shared, true);
    let mut families = PromFamilies::default();
    walk(shared, &scrape, &mut |row| families.row(&row));
    families.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrontendMode, Server, ServerConfig};
    use bpw_metrics::JsonValue;

    /// The two breakdown families that have no JSON path.
    const PROM_ONLY: [&str; 2] = [
        "bpw_miss_shard_acquisitions_total",
        "bpw_miss_shard_wait_ns_total",
    ];

    fn json_at<'v>(root: &'v JsonValue, row: &Row<'_>) -> Option<&'v JsonValue> {
        row.json_path().iter().try_fold(root, |v, seg| v.get(seg))
    }

    fn series(row: &Row<'_>, suffix: &str) -> String {
        let mut w = PromWriter::new();
        w.sample(&format!("{}{suffix}", row.prom), row.label_pairs(), "");
        w.finish().trim_end().to_string() + " "
    }

    #[test]
    fn every_row_renders_in_each_exposition_it_names() {
        let server = Server::start(ServerConfig {
            workers: 1,
            frames: 32,
            page_size: 64,
            pages: 128,
            manager: "wrapped-2q".into(),
            mode: FrontendMode::EventLoop,
            ..ServerConfig::default()
        })
        .expect("start");
        let shared = server.shared();
        // Touch the pool and one histogram so values are not all zero.
        drop(shared.pool.session().fetch(3).expect("instant disk"));
        shared.metrics.record_ok(OpKind::Get, 1_500);

        let stats = stats_json(shared);
        let json = JsonValue::parse(&stats).expect("STATS parses");
        let metrics = metrics_text(shared);
        let samples = bpw_trace::validate_exposition(&metrics).expect("METRICS validates");

        let scrape = Scrape::gather(shared, true);
        let mut rows = 0;
        let mut sampled = 0;
        walk(shared, &scrape, &mut |row| {
            rows += 1;
            let name = row.json_path().join(".");
            assert!(!row.prom.is_empty(), "{name}: no row is JSON-only");
            assert_eq!(
                row.json_path().is_empty(),
                PROM_ONLY.contains(&row.prom),
                "{}: only the per-instance breakdowns are METRICS-only",
                row.prom
            );
            if !row.json_path().is_empty() {
                let v = json_at(&json, &row).unwrap_or_else(|| panic!("STATS lacks {name}"));
                match row.value {
                    Value::Hist(_) => assert!(v.get("p999").is_some(), "{name}"),
                    _ => assert!(v.as_f64().is_some(), "{name} must be a number: {v:?}"),
                }
            }
            let needle = match row.value {
                Value::Hist(_) => series(&row, "_count"),
                _ => series(&row, ""),
            };
            let hits = metrics.lines().filter(|l| l.starts_with(&needle)).count();
            assert_eq!(hits, 1, "METRICS must carry {needle:?} exactly once");
            assert_eq!(
                metrics.matches(&format!("# TYPE {} ", row.prom)).count(),
                1,
                "{} needs exactly one TYPE header",
                row.prom
            );
            sampled += 1;
        });
        assert!(rows > 96, "the table lost rows: {rows}");
        assert!(samples >= sampled, "{samples} samples for {sampled} series");
        server.join();
    }

    #[test]
    fn json_tree_nests_objects() {
        let mut tree = JsonTree::new();
        let row = |json: &[&'static str], value| Row::new(json, "", &[], "", value);
        for row in [
            row(&["a"], Value::Counter(1)),
            row(&["b", "c"], Value::Counter(7)),
            row(&["b", "d", "e"], Value::Gauge(2)),
            row(&["b", "d", "f"], Value::Ratio(0.5)),
            row(&["b", "g"], Value::Gauge(3)),
            row(&["h", "i", "j"], Value::Counter(4)),
            row(&[], Value::Counter(5)),
        ] {
            tree.row(&row);
        }
        assert_eq!(
            tree.finish(),
            r#"{"a":1,"b":{"c":7,"d":{"e":2,"f":0.5},"g":3},"h":{"i":{"j":4}}}"#
        );
    }
}
