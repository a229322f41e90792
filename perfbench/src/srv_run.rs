//! The server rows: an event-loop page server with one worker in this
//! process, and the benchmark's main thread as its one client. The client
//! keeps `pipeline` requests in flight on one connection: it reads
//! [`CHUNK`] replies, sends [`CHUNK`] new requests, and so on, so the
//! server always has work queued and neither side idles waiting for a
//! whole batch — a closed loop of three busy threads, the most this
//! two-CPU guest runs steadily.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use bpw_bufferpool::SimDisk;
use bpw_metrics::JsonValue;
use bpw_server::loadgen::put_payload;
use bpw_server::protocol::{self, fnv1a, Request, Response};
use bpw_server::{AdmissionPolicy, FrontendMode, Server, ServerConfig};

use crate::layers::{
    report, set_measured, set_pool_counters, set_process_counters, Checks, Epochs, Measured,
    PoolSnap, ProcessSnap,
};
use crate::probes;
use crate::report::{Report, Values};
use crate::spans::{chrome_trace_json, KindTotals, SpanKind, SpanLog, NO_PARENT};
use crate::spec::{stage_metric, Spec, DEEP_CHECK_EVERY, MANAGER, PAGE_SIZE, SCAN_LEN};
use crate::stats::median;
use crate::workload::{pages_of, server_trace, server_trace_hash, Op, Req};
use crate::{sys, write_trace_file, RunConfig};

/// Requests the client sends per `write`, after reading as many replies.
const CHUNK: usize = 8;
/// Chunks that a traced run records spans for, spread evenly over the
/// traced epochs; bounds the span log's memory.
const SAMPLED_CHUNKS: u64 = 4096;
/// Socket buffers hold a whole batch of 4 KiB bodies either way, so that a
/// batch is one `write` and few `read`s.
const SOCKET_BUF: usize = 256 << 10;
/// The server republishes its pool-side STATS scalars at most this often;
/// the benchmark idles past it before a scrape that must be current.
const STATS_TTL: Duration = Duration::from_millis(12);

fn server_config(spec: &Spec, mode: FrontendMode, workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        policy: AdmissionPolicy::Block,
        frames: spec.frames,
        page_size: PAGE_SIZE,
        pages: spec.universe,
        manager: MANAGER.into(),
        mode,
        ..ServerConfig::default()
    }
}

/// What the reply to one request in flight must look like.
struct Expect {
    op: Op,
    page: u32,
    /// `GetBack`: the byte the PUT before it filled the page with.
    fill: u8,
    /// `Scan`: the checksum, when this scan is one that is recomputed.
    checksum: Option<u64>,
}

/// The open `client.batch` span of a traced turn.
struct Tracer<'a> {
    log: &'a mut SpanLog,
    id: u32,
    root: u32,
    /// Where the last child span ended.
    t_prev: u64,
}

/// One connection, the client's view of every page's contents, and the
/// running totals of a run.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    buf: Vec<u8>,
    seed: u64,
    /// Byte that fills each page behind its 8-byte stamp: storage's fill
    /// for a page never put, else that of the latest PUT.
    fills: Vec<u8>,
    puts: u64,
    scans: u64,
    /// Requests in flight at most.
    window: usize,
    /// What was sent and not yet answered, with the time of its `write`.
    in_flight: VecDeque<(Expect, Instant)>,
    sent: u64,
    pages_touched: u64,
    failed: u64,
    /// Sum of request latencies since [`take_latency`](Self::take_latency).
    latency_sum_ns: u64,
    latency_count: u64,
}

impl Client {
    fn connect(addr: SocketAddr, spec: &Spec, seed: u64, window: usize) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(SOCKET_BUF, stream.try_clone()?),
            writer: BufWriter::with_capacity(SOCKET_BUF, stream),
            buf: Vec::with_capacity(PAGE_SIZE + 16),
            seed,
            fills: (0..spec.universe).map(SimDisk::fill_byte).collect(),
            puts: 0,
            scans: 0,
            window,
            in_flight: VecDeque::with_capacity(window),
            sent: 0,
            pages_touched: 0,
            failed: 0,
            latency_sum_ns: 0,
            latency_count: 0,
        })
    }

    /// FNV-1a chained over the pages of a scan, as the server computes it.
    fn scan_checksum(&self, start: u32) -> u64 {
        let mut page_bytes = [0u8; PAGE_SIZE];
        let mut checksum = 0;
        for page in u64::from(start)..u64::from(start) + u64::from(SCAN_LEN) {
            page_bytes.fill(self.fills[page as usize]);
            page_bytes[..8].copy_from_slice(&page.to_le_bytes());
            checksum = fnv1a(checksum, &page_bytes);
        }
        checksum
    }

    /// Build the wire request for `req` and what its reply must be.
    fn request(&mut self, req: Req) -> (Request, Expect) {
        let page = u64::from(req.page);
        let mut expect = Expect {
            op: req.op,
            page: req.page,
            fill: self.fills[req.page as usize],
            checksum: None,
        };
        let request = match req.op {
            Op::Get | Op::GetBack => Request::Get { page },
            Op::Put => {
                self.puts += 1;
                // The fill differs from PUT to PUT, so a read-back that
                // sees an older version of the page fails.
                let data = put_payload(page, PAGE_SIZE, self.seed.wrapping_add(self.puts));
                self.fills[req.page as usize] = data[8];
                Request::Put { page, data }
            }
            Op::Scan => {
                self.scans += 1;
                if self.scans.is_multiple_of(DEEP_CHECK_EVERY) {
                    expect.checksum = Some(self.scan_checksum(req.page));
                }
                Request::Scan {
                    start: page,
                    len: SCAN_LEN,
                }
            }
        };
        (request, expect)
    }

    fn reply_ok(expect: &Expect, reply: &Response) -> bool {
        let Response::Ok(body) = reply else {
            return false;
        };
        let stamped =
            || body.len() == PAGE_SIZE && body[..8] == u64::from(expect.page).to_le_bytes();
        match expect.op {
            Op::Get => stamped(),
            Op::GetBack => stamped() && body[8..].iter().all(|&b| b == expect.fill),
            Op::Put => body.is_empty(),
            Op::Scan => {
                body.len() == 12
                    && body[..4] == SCAN_LEN.to_le_bytes()
                    && expect.checksum.is_none_or(|c| body[4..] == c.to_le_bytes())
            }
        }
    }

    /// Read one reply, check it against the oldest request in flight, and
    /// return its latency: from the `write` that sent the request to here.
    /// With a tracer, the read is a `client.wait` span and the rest a
    /// `client.decode` span.
    fn receive(&mut self, tracer: Option<&mut Tracer>) -> io::Result<u64> {
        let (expect, sent_at) = self.in_flight.pop_front().expect("a request in flight");
        if !protocol::read_frame(&mut self.reader, &mut self.buf)? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let t_read = tracer.as_ref().map(|t| t.log.now());
        let ok = Response::decode(&self.buf).is_ok_and(|reply| Self::reply_ok(&expect, &reply));
        self.failed += u64::from(!ok);
        let latency = sent_at.elapsed().as_nanos() as u64;
        self.latency_sum_ns += latency;
        self.latency_count += 1;
        if let (Some(t), Some(t_read)) = (tracer, t_read) {
            let t_checked = t.log.now();
            t.log.record(SpanKind::Wait, t.root, t.id, t.t_prev, t_read);
            t.log
                .record(SpanKind::Decode, t.root, t.id, t_read, t_checked);
            t.t_prev = t_checked;
        }
        Ok(latency)
    }

    /// One turn of the closed loop: read replies until `reqs` fit into the
    /// window, then send `reqs` in one `write`. With `log`, the turn is
    /// recorded as a `client.batch` span numbered `id` and its children.
    fn step(
        &mut self,
        reqs: &[Req],
        mut samples: Option<&mut Vec<u32>>,
        log: Option<(&mut SpanLog, u32)>,
    ) -> io::Result<()> {
        let mut tracer = log.map(|(log, id)| {
            let t_prev = log.now();
            let root = log.begin(SpanKind::Batch, NO_PARENT, id, t_prev);
            Tracer {
                log,
                id,
                root,
                t_prev,
            }
        });
        while self.in_flight.len() + reqs.len() > self.window {
            let latency = self.receive(tracer.as_mut())?;
            if let Some(samples) = samples.as_deref_mut() {
                samples.push(latency as u32);
            }
        }
        let first_new = self.in_flight.len();
        for &req in reqs {
            let (request, expect) = self.request(req);
            protocol::write_frame_unflushed(&mut self.writer, &request.encode())?;
            self.pages_touched += pages_of(req).count() as u64;
            self.in_flight.push_back((expect, Instant::now()));
        }
        self.sent += reqs.len() as u64;
        let t_encoded = tracer.as_ref().map(|t| t.log.now());
        // Latency runs from the `write`, not from the encoding before it.
        let sent_at = Instant::now();
        self.writer.flush()?;
        for (_, at) in self.in_flight.iter_mut().skip(first_new) {
            *at = sent_at;
        }
        if let (Some(t), Some(t_encoded)) = (tracer, t_encoded) {
            let t_written = t.log.now();
            t.log
                .record(SpanKind::Encode, t.root, t.id, t.t_prev, t_encoded);
            t.log
                .record(SpanKind::SockWrite, t.root, t.id, t_encoded, t_written);
            t.log.end(t.root, t_written);
        }
        Ok(())
    }

    /// Read the replies of everything still in flight.
    fn drain(&mut self, mut samples: Option<&mut Vec<u32>>) -> io::Result<()> {
        while !self.in_flight.is_empty() {
            let latency = self.receive(None)?;
            if let Some(samples) = samples.as_deref_mut() {
                samples.push(latency as u32);
            }
        }
        Ok(())
    }

    /// One epoch: `steps` turns over the requests at `cursor`, then every
    /// reply still owed, so that an epoch's requests are all its own. Every
    /// `sample_period`-th turn is recorded in `log`.
    fn epoch(
        &mut self,
        cursor: &mut Cursor,
        steps: u64,
        mut samples: Option<&mut Vec<u32>>,
        mut log: Option<(&mut SpanLog, u64)>,
    ) -> io::Result<()> {
        for n in 0..steps {
            let traced = match log.as_mut() {
                Some((log, period)) if n % *period == 0 => Some((&mut **log, (n / *period) as u32)),
                _ => None,
            };
            self.step(cursor.next_chunk(), samples.as_deref_mut(), traced)?;
        }
        self.drain(samples)
    }

    /// One SCAN over the whole universe: brings every page through the
    /// pool, which also writes every dirty page to storage once.
    fn scan_everything(&mut self, universe: u64) -> io::Result<()> {
        assert!(self.in_flight.is_empty(), "scan with requests in flight");
        let request = Request::Scan {
            start: 0,
            len: universe as u32,
        };
        protocol::write_frame(&mut self.writer, &request.encode())?;
        if !protocol::read_frame(&mut self.reader, &mut self.buf)? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let ok = matches!(Response::decode(&self.buf), Ok(Response::Ok(body))
            if body.len() == 12 && body[..4] == (universe as u32).to_le_bytes());
        self.failed += u64::from(!ok);
        self.sent += 1;
        self.pages_touched += universe;
        Ok(())
    }

    fn take_latency(&mut self) -> (u64, u64) {
        let out = (self.latency_sum_ns, self.latency_count);
        (self.latency_sum_ns, self.latency_count) = (0, 0);
        out
    }
}

/// Where the client is in its cycled request trace.
struct Cursor<'a> {
    trace: &'a [Req],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next_chunk(&mut self) -> &'a [Req] {
        if self.pos + CHUNK > self.trace.len() {
            self.pos = 0;
        }
        let chunk = &self.trace[self.pos..self.pos + CHUNK];
        self.pos += CHUNK;
        chunk
    }
}

/// A parsed `Server::stats_json()`.
struct Scrape(JsonValue);

impl Scrape {
    fn take(server: &Server) -> Scrape {
        std::thread::sleep(STATS_TTL);
        Scrape(JsonValue::parse(&server.stats_json()).expect("STATS is JSON"))
    }

    fn at(&self, path: &[&str]) -> &JsonValue {
        path.iter().fold(&self.0, |v, key| {
            v.get(key)
                .unwrap_or_else(|| panic!("STATS has no {}", path.join(".")))
        })
    }

    fn num(&self, path: &[&str]) -> f64 {
        self.at(path).as_f64().expect("a number")
    }

    /// `(count, sum)` of a histogram object.
    fn hist(&self, path: &[&str]) -> (f64, f64) {
        let h = self.at(path);
        let count = h.get("count").and_then(JsonValue::as_f64).expect("count");
        let mean = h.get("mean").and_then(JsonValue::as_f64).expect("mean");
        (count, mean * count)
    }
}

/// Mean of a histogram between two scrapes, 0 when it saw nothing.
fn hist_mean(before: &Scrape, after: &Scrape, path: &[&str]) -> f64 {
    let (c0, s0) = before.hist(path);
    let (c1, s1) = after.hist(path);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0)
    } else {
        0.0
    }
}

/// The `server.*` and `evl.*` values of the window between two scrapes in
/// which `ops` requests ran with a client-side mean latency of
/// `client_mean_ns`. Stage values are means per request of that opcode, so
/// that the stages of an opcode add up to the server's time per request.
fn set_server_values(
    v: &mut Values,
    before: &Scrape,
    after: &Scrape,
    ops: u64,
    client_mean_ns: f64,
) {
    let mut attributed_ns = 0.0;
    for op in ["get", "put", "scan"] {
        let latency = format!("{op}_ns");
        let requests = after.hist(&[&latency]).0 - before.hist(&[&latency]).0;
        v.set(
            &format!("server.{op}_ns_mean"),
            hist_mean(before, after, &[&latency]),
        );
        for stage in [
            "decode",
            "queue_wait",
            "pin_hit",
            "miss_io",
            "batch_commit",
            "reply_flush",
        ] {
            let path = ["stages", op, stage];
            let sum = after.hist(&path).1 - before.hist(&path).1;
            attributed_ns += sum;
            v.set_ratio(&stage_metric(op, stage), sum, requests);
        }
    }
    v.set(
        "server.unattributed_ns",
        client_mean_ns - attributed_ns / ops as f64,
    );
    v.set("server.peak_queue_depth", after.num(&["peak_queue_depth"]));
    for name in ["busy", "dropped", "errors"] {
        v.set(&format!("server.{name}"), after.num(&[name]));
    }
    let delta = |key: &str| after.num(&[key]) - before.num(&[key]);
    v.set_ratio(
        "evl.epoll_wakeups_per_kop",
        delta("epoll_wakeups") * 1e3,
        ops as f64,
    );
    v.set(
        "evl.ready_per_wakeup_mean",
        hist_mean(before, after, &["ready_per_wakeup"]),
    );
    v.set(
        "evl.pipeline_depth_mean",
        hist_mean(before, after, &["pipeline_depth"]),
    );
    v.set("evl.short_writes", delta("short_writes"));
}

/// The threaded frontend on the same GET traffic: two connections of
/// pipeline depth 16, two workers. Five busy threads on two CPUs do not
/// repeat within a tenth, so this is a per-layer number, never a gate.
/// Returns `(requests per second, process CPU µs per request)`, medians
/// over epochs.
fn threaded_probe(spec: &Spec, seed: u64, ops_per_epoch: u64, epochs: usize) -> (f64, f64) {
    const CONNS: usize = 2;
    const PIPELINE: usize = 16;
    let server = Server::start(server_config(spec, FrontendMode::Threaded, 2))
        .expect("start threaded server");
    Client::connect(server.addr(), spec, seed, PIPELINE)
        .and_then(|mut client| client.scan_everything(spec.universe))
        .expect("prefill scan");
    let steps = (ops_per_epoch / (CONNS * CHUNK) as u64).max(1);
    let mut measured = Epochs::new(steps * (CONNS * CHUNK) as u64);
    let barrier = Barrier::new(CONNS + 1);
    let traces: Vec<Vec<Req>> = (0..CONNS).map(|t| server_trace(spec, t, seed)).collect();
    let failed: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = traces
            .iter()
            .map(|trace| {
                let (barrier, addr) = (&barrier, server.addr());
                scope.spawn(move || {
                    let mut client = Client::connect(addr, spec, seed, PIPELINE).expect("connect");
                    let mut cursor = Cursor { trace, pos: 0 };
                    // Epoch 0 warms up.
                    for _ in 0..=epochs {
                        barrier.wait();
                        client
                            .epoch(&mut cursor, steps, None, None)
                            .expect("threaded server connection");
                        barrier.wait();
                    }
                    client.failed
                })
            })
            .collect();
        for epoch in 0..=epochs {
            barrier.wait();
            let start = Epochs::start();
            barrier.wait();
            if epoch > 0 {
                measured.finish(start);
            }
        }
        clients
            .into_iter()
            .map(|c| c.join().expect("probe client panicked"))
            .sum()
    });
    server.join();
    assert_eq!(failed, 0, "threaded probe: a reply failed its check");
    (measured.throughput_ops_s(), measured.cpu_us_per_op())
}

pub fn run(cfg: &RunConfig, started: Instant) -> Report {
    let spec = cfg.spec;
    let traced = cfg.traced_epochs > 0;
    let mut v = Values::default();
    let mut problems = Vec::new();

    // ---- set-up ---------------------------------------------------------
    let gen_t0 = Instant::now();
    let trace = server_trace(&spec, 0, cfg.seed);
    v.set(
        "workloads.trace_gen_ns_per_page",
        gen_t0.elapsed().as_nanos() as f64 / spec.trace_len as f64,
    );
    let server = Server::start(server_config(&spec, FrontendMode::EventLoop, spec.workers))
        .expect("start server");
    let pool = std::sync::Arc::clone(server.pool());
    let mut client =
        Client::connect(server.addr(), &spec, cfg.seed, spec.pipeline).expect("connect");
    if spec.put_pct > 0 {
        // Every page put once, a pipeline deep: storage allocates a page's
        // bytes the first time it is written, and that must not happen
        // while an epoch is measured.
        let pages: Vec<Req> = (0..spec.universe as u32)
            .map(|page| Req { op: Op::Put, page })
            .collect();
        for chunk in pages.chunks(CHUNK) {
            client.step(chunk, None, None).expect("prefill");
        }
        client.drain(None).expect("prefill");
    }
    client.scan_everything(spec.universe).expect("prefill scan");

    let steps = (cfg.ops_per_epoch / CHUNK as u64).max(1);
    let ops = steps * CHUNK as u64;
    let mut cursor = Cursor {
        trace: &trace,
        pos: 0,
    };
    client
        .epoch(&mut cursor, steps, None, None)
        .expect("warm-up");
    let setup_s = started.elapsed().as_secs_f64();

    // ---- measured epochs ------------------------------------------------
    let mut samples: Vec<u32> = Vec::with_capacity(ops as usize * cfg.epochs);
    let mut plain = Epochs::new(ops);
    let before = PoolSnap::take(&pool);
    for _ in 0..cfg.epochs {
        let start = Epochs::start();
        client
            .epoch(&mut cursor, steps, Some(&mut samples), None)
            .expect("server connection");
        plain.finish(start);
    }
    let after = PoolSnap::take(&pool);

    let mut log = None;
    if traced {
        let sample_period = (steps * cfg.traced_epochs as u64)
            .div_ceil(SAMPLED_CHUNKS)
            .max(1);
        let spans_per_step = 3 + 2 * CHUNK;
        let mut span_log = SpanLog::with_capacity(
            started,
            steps.div_ceil(sample_period) as usize * cfg.traced_epochs * spans_per_step,
        );
        let mut traced_epochs = Epochs::new(ops);
        let scrape_before = Scrape::take(&server);
        let process_before = ProcessSnap::take();
        let cpu_before = sys::thread_cpu_ns();
        client.take_latency();
        sys::set_alloc_counting(true);
        for _ in 0..cfg.traced_epochs {
            let start = Epochs::start();
            client
                .epoch(
                    &mut cursor,
                    steps,
                    None,
                    Some((&mut span_log, sample_period)),
                )
                .expect("server connection");
            traced_epochs.finish(start);
        }
        sys::set_alloc_counting(false);
        let traced_ops = ops * cfg.traced_epochs as u64;
        let client_cpu_ns = sys::thread_cpu_ns() - cpu_before;
        let (latency_sum, latency_count) = client.take_latency();
        let client_mean_ns = latency_sum as f64 / latency_count as f64;
        let process_after = ProcessSnap::take();
        let scrape_after = Scrape::take(&server);
        let traced_after = PoolSnap::take(&pool);

        set_server_values(
            &mut v,
            &scrape_before,
            &scrape_after,
            traced_ops,
            client_mean_ns,
        );
        set_pool_counters(&mut v, &after, &traced_after, traced_ops);
        set_process_counters(&mut v, &process_before, &process_after, traced_ops);
        v.set("client_latency_mean_ns", client_mean_ns);
        v.set(
            "client.cpu_us_per_op",
            client_cpu_ns as f64 / 1e3 / traced_ops as f64,
        );
        v.set_ratio(
            "process.trace_overhead_ratio",
            traced_epochs.throughput_ops_s(),
            plain.throughput_ops_s(),
        );
        let scrapes_us: Vec<f64> = (0..5)
            .map(|_| {
                std::thread::sleep(STATS_TTL);
                let t0 = Instant::now();
                std::hint::black_box(server.stats_json());
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        v.set("server.stats_scrape_us", median(&scrapes_us));
        log = Some(span_log);
    }

    // ---- output checks --------------------------------------------------
    let end = PoolSnap::take(&pool);
    let metrics = server.metrics();
    let refused = metrics.busy.get() + metrics.dropped.get() + metrics.errors.get();
    if metrics.ok.get() != client.sent || refused != 0 {
        problems.push(format!(
            "server answered {} OK and refused {refused}, client sent {}",
            metrics.ok.get(),
            client.sent
        ));
    }
    if end.fetches() != client.pages_touched {
        problems.push(format!(
            "hits + misses = {}, pages requested = {}",
            end.fetches(),
            client.pages_touched
        ));
    }
    let (attempted, failed) = (client.sent, client.failed);
    // `Server::join` waits for every open connection to close.
    drop(client);
    server.join();

    // ---- values ---------------------------------------------------------
    let accesses: Vec<u64> = trace.iter().flat_map(|&r| pages_of(r)).collect();
    let measured = Measured {
        setup_s,
        plain: &plain,
        samples: &mut samples,
        window: (&before, &after),
        pool: &pool,
        accesses: &accesses,
    };
    set_measured(&mut v, &mut problems, measured, traced);

    if let Some(log) = log {
        // Span self times are per turn of CHUNK requests (encode, write)
        // or per reply (wait, decode); the metrics are per request.
        let mut totals = KindTotals::default();
        totals.add_log(&log);
        let per_batch = CHUNK as f64;
        v.set(
            "client.encode_ns",
            totals.mean_self_ns(SpanKind::Encode) / per_batch,
        );
        v.set(
            "client.write_ns",
            totals.mean_self_ns(SpanKind::SockWrite) / per_batch,
        );
        v.set("client.wait_ns", totals.mean_self_ns(SpanKind::Wait));
        v.set("client.decode_ns", totals.mean_self_ns(SpanKind::Decode));
        v.set("spans_recorded", log.spans().len() as f64);
        v.set("spans_dropped", log.dropped as f64);
        write_trace_file(cfg, &chrome_trace_json(&[log], 64));
        probes::pool_layers(&mut v, &spec, &accesses);
        probes::server_layers(&mut v, &trace, cfg.seed);
        // The other frontend is probed on GET-hit traffic only; the mixed
        // row says so with an explicit 0.
        let (ops_s, cpu_us) = if spec.put_pct + spec.scan_pct == 0 {
            threaded_probe(&spec, cfg.seed, cfg.ops_per_epoch / 16, cfg.traced_epochs)
        } else {
            (0.0, 0.0)
        };
        v.set("server.threaded.get_hit_ops_s", ops_s);
        v.set("server.threaded.get_hit_cpu_us_per_op", cpu_us);
    }
    let extra_info: &[_] = if traced {
        &[("client_latency_mean_ns", "ns")]
    } else {
        &[]
    };
    report(
        v,
        spec.kind,
        traced,
        extra_info,
        Checks {
            attempted,
            failed,
            problems,
            trace_hash: server_trace_hash(&trace),
        },
        (&before, &after),
    )
}
