//! The built-in load generator: drives a running server with the
//! workloads from `bpw-workloads` and measures end-to-end latency.
//!
//! Two driving disciplines:
//!
//! * **Closed-loop** — N connections, each sending its next request as
//!   soon as the previous reply lands, with optional think time at
//!   transaction boundaries. Throughput is whatever the server sustains.
//! * **Open-loop** — requests are due on a fixed schedule regardless of
//!   reply progress. Latency is measured from each request's *intended*
//!   arrival time, not from when the backlogged client got around to
//!   sending it — the standard defence against coordinated omission,
//!   without which a stalled server grades its own homework.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bpw_metrics::{Histogram, JsonObject};
use bpw_workloads::{zipf::splitmix64, PageStream, Workload};

use crate::client::Client;
use crate::protocol::Response;

/// How the generator paces requests.
#[derive(Debug, Clone, Copy)]
pub enum LoadMode {
    /// Each connection sends as fast as replies return, pausing `think`
    /// between transactions.
    Closed {
        /// Pause at each transaction boundary.
        think: Duration,
    },
    /// Requests are due at a fixed aggregate rate, split evenly across
    /// connections.
    Open {
        /// Total intended requests per second across all connections.
        rate_per_sec: f64,
    },
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Requests each connection sends.
    pub requests_per_conn: u64,
    /// Fraction of requests that are PUTs (the rest are GETs).
    pub write_fraction: f64,
    /// Pacing discipline.
    pub mode: LoadMode,
    /// Base RNG seed; connection `t` derives its stream from
    /// `(seed, t)`.
    pub seed: u64,
    /// PUT payload length (capped by the server's page size).
    pub put_len: usize,
    /// Requests each connection keeps in flight: 1 is strict
    /// request/reply; above 1 the driver writes a whole batch before
    /// reading any reply (the client side of request pipelining).
    pub pipeline: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            requests_per_conn: 10_000,
            write_fraction: 0.1,
            mode: LoadMode::Closed {
                think: Duration::ZERO,
            },
            seed: 0x10AD,
            put_len: 16,
            pipeline: 1,
        }
    }
}

/// What a load run produced.
#[derive(Debug)]
pub struct LoadReport {
    /// Per-request latency in nanoseconds (all connections merged).
    pub latency_ns: Histogram,
    /// Requests sent.
    pub sent: u64,
    /// `OK` replies.
    pub ok: u64,
    /// `BUSY` replies (overload; no server sends them).
    pub busy: u64,
    /// `DROPPED` replies (deadline).
    pub dropped: u64,
    /// `ERR` replies or transport failures.
    pub errors: u64,
    /// `ERR_IO` replies (storage failed after server-side retries).
    pub io_errors: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl LoadReport {
    /// Completed (`OK`) requests per second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ok as f64 / self.wall.as_secs_f64()
        }
    }

    /// One-line human summary (the shutdown banner).
    pub fn summary(&self) -> String {
        format!(
            "{} ok / {} sent ({} busy, {} dropped, {} err, {} io_err) in {:.2}s — {:.0} req/s; \
             latency p50={}us p95={}us p99={}us p999={}us max={}us",
            self.ok,
            self.sent,
            self.busy,
            self.dropped,
            self.errors,
            self.io_errors,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.latency_ns.quantile(0.50) / 1_000,
            self.latency_ns.quantile(0.95) / 1_000,
            self.latency_ns.quantile(0.99) / 1_000,
            self.latency_ns.quantile(0.999) / 1_000,
            self.latency_ns.max() / 1_000,
        )
    }

    /// Render as JSON (experiment artifacts).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("sent", self.sent)
            .field_u64("ok", self.ok)
            .field_u64("busy", self.busy)
            .field_u64("dropped", self.dropped)
            .field_u64("errors", self.errors)
            .field_u64("io_errors", self.io_errors)
            .field_f64("wall_secs", self.wall.as_secs_f64())
            .field_f64("throughput_rps", self.throughput())
            .field_raw("latency_ns", &self.latency_ns.to_json());
        o.finish()
    }
}

#[derive(Default)]
struct Tallies {
    sent: AtomicU64,
    ok: AtomicU64,
    busy: AtomicU64,
    dropped: AtomicU64,
    errors: AtomicU64,
    io_errors: AtomicU64,
}

/// Run a load against `addr`. Blocks until every connection finishes.
pub fn run(addr: SocketAddr, workload: &dyn Workload, cfg: &LoadConfig) -> LoadReport {
    let latency = Histogram::new();
    let tallies = Tallies::default();
    let started = Instant::now();
    std::thread::scope(|sc| {
        for t in 0..cfg.connections {
            let latency = &latency;
            let tallies = &tallies;
            sc.spawn(move || drive_connection(addr, workload, cfg, t, latency, tallies));
        }
    });
    LoadReport {
        latency_ns: latency,
        sent: tallies.sent.load(Ordering::Relaxed),
        ok: tallies.ok.load(Ordering::Relaxed),
        busy: tallies.busy.load(Ordering::Relaxed),
        dropped: tallies.dropped.load(Ordering::Relaxed),
        errors: tallies.errors.load(Ordering::Relaxed),
        io_errors: tallies.io_errors.load(Ordering::Relaxed),
        wall: started.elapsed(),
    }
}

fn drive_connection(
    addr: SocketAddr,
    workload: &dyn Workload,
    cfg: &LoadConfig,
    conn_id: usize,
    latency: &Histogram,
    tallies: &Tallies,
) {
    let Ok(mut client) = Client::connect(addr) else {
        tallies
            .errors
            .fetch_add(cfg.requests_per_conn, Ordering::Relaxed);
        tallies
            .sent
            .fetch_add(cfg.requests_per_conn, Ordering::Relaxed);
        return;
    };
    let mut stream = PageStream::for_thread(workload, conn_id, cfg.seed);
    // Deterministic per-connection coin for the GET/PUT mix.
    let mut coin = cfg.seed ^ (conn_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let write_threshold = (cfg.write_fraction.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
    let per_conn_interval = match cfg.mode {
        LoadMode::Open { rate_per_sec } => {
            let per_conn = rate_per_sec / cfg.connections.max(1) as f64;
            Some(Duration::from_secs_f64(1.0 / per_conn.max(1e-6)))
        }
        LoadMode::Closed { .. } => None,
    };
    let start = Instant::now();
    let pipeline = cfg.pipeline.max(1);

    let mut i = 0u64;
    let mut reqs: Vec<crate::protocol::Request> = Vec::with_capacity(pipeline);
    while i < cfg.requests_per_conn {
        // Open loop: request i is *due* at start + i*interval; latency is
        // measured from that intended point even if we fell behind. A
        // pipelined batch is paced and measured from its first request.
        let measure_from = match per_conn_interval {
            Some(interval) => {
                let due = start + interval.mul_f64(i as f64);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            None => Instant::now(),
        };

        let batch = pipeline.min((cfg.requests_per_conn - i) as usize);
        reqs.clear();
        for _ in 0..batch {
            let page = stream.next_page();
            coin = splitmix64(coin);
            reqs.push(if coin < write_threshold {
                crate::protocol::Request::Put {
                    page,
                    data: put_payload(page, cfg.put_len, cfg.seed),
                }
            } else {
                crate::protocol::Request::Get { page }
            });
        }
        tallies.sent.fetch_add(batch as u64, Ordering::Relaxed);
        match client.call_pipelined(&reqs) {
            Ok(resps) => {
                for resp in resps {
                    latency.record(measure_from.elapsed().as_nanos() as u64);
                    match resp {
                        Response::Ok(_) => tallies.ok.fetch_add(1, Ordering::Relaxed),
                        Response::Busy => tallies.busy.fetch_add(1, Ordering::Relaxed),
                        Response::Dropped => tallies.dropped.fetch_add(1, Ordering::Relaxed),
                        Response::Err(_) => tallies.errors.fetch_add(1, Ordering::Relaxed),
                        Response::IoError(_) => tallies.io_errors.fetch_add(1, Ordering::Relaxed),
                    };
                }
            }
            Err(_) => {
                // Connection is broken; stop this driver — but charge its
                // remaining requests (like the connect-failure path does)
                // so `sent == connections * requests_per_conn` and
                // throughput/error-rate comparisons stay honest.
                let unfinished = cfg.requests_per_conn - i; // this batch + the rest
                tallies.errors.fetch_add(unfinished, Ordering::Relaxed);
                // This round's batch is already in `sent`.
                tallies
                    .sent
                    .fetch_add(unfinished - batch as u64, Ordering::Relaxed);
                return;
            }
        }
        i += batch as u64;

        if let LoadMode::Closed { think } = cfg.mode {
            if !think.is_zero() && stream.at_transaction_boundary() {
                std::thread::sleep(think);
            }
        }
    }
}

/// A PUT body that keeps pages self-identifying: the first 8 bytes are
/// the page id (matching `SimDisk`'s fill convention), the rest a
/// deterministic function of `(page, seed)` so readers can verify it.
pub fn put_payload(page: u64, len: usize, seed: u64) -> Vec<u8> {
    let len = len.max(8);
    let mut body = vec![0u8; len];
    body[..8].copy_from_slice(&page.to_le_bytes());
    let fill = (page ^ seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .to_le_bytes()[0];
    for b in &mut body[8..] {
        *b = fill;
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_self_identifying_and_deterministic() {
        let a = put_payload(42, 16, 7);
        let b = put_payload(42, 16, 7);
        assert_eq!(a, b);
        assert_eq!(u64::from_le_bytes(a[..8].try_into().unwrap()), 42);
        assert_ne!(put_payload(42, 16, 8)[8], a[8], "fill varies with the seed");
        assert_eq!(put_payload(1, 3, 0).len(), 8, "length is floored at the id");
    }

    #[test]
    fn broken_connections_charge_their_remaining_requests() {
        // A "server" that answers exactly one request per connection and
        // then hangs up mid-run: the generator must still account for
        // every request it intended to send.
        use crate::protocol::{read_frame, write_frame};
        use bpw_workloads::synthetic::Uniform;
        use std::io::{BufReader, BufWriter};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = 3usize;
        let server = std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().unwrap();
                let mut r = BufReader::new(stream.try_clone().unwrap());
                let mut w = BufWriter::new(stream);
                let mut buf = Vec::new();
                if read_frame(&mut r, &mut buf).unwrap_or(false) {
                    let _ = write_frame(&mut w, &Response::Ok(vec![0u8; 8]).encode());
                }
                // Drop: the client's next request hits a dead socket.
            }
        });
        let cfg = LoadConfig {
            connections,
            requests_per_conn: 7,
            write_fraction: 0.0,
            ..LoadConfig::default()
        };
        let report = run(addr, &Uniform::new(64, 4), &cfg);
        server.join().unwrap();
        assert_eq!(
            report.sent,
            connections as u64 * cfg.requests_per_conn,
            "broken connections must charge their remaining requests"
        );
        assert_eq!(report.ok, connections as u64);
        assert_eq!(report.ok + report.errors, report.sent);
    }

    #[test]
    fn empty_report_summary_is_sane() {
        let r = LoadReport {
            latency_ns: Histogram::new(),
            sent: 0,
            ok: 0,
            busy: 0,
            dropped: 0,
            errors: 0,
            io_errors: 0,
            wall: Duration::ZERO,
        };
        assert_eq!(r.throughput(), 0.0);
        assert!(r.summary().contains("0 ok / 0 sent"));
        assert!(r.to_json().starts_with('{'));
    }
}
