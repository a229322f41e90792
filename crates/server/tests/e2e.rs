//! End-to-end tests: a real server on an ephemeral port, real TCP
//! clients, and the acceptance checks from the issue — zero loss under
//! the block policy, last-write-wins content correctness, and STATS
//! that parse with non-zero tail latencies.
//!
//! Every scenario runs against BOTH frontends (`mod threaded`,
//! `mod eventloop_mode`): the concurrency model is a deployment knob,
//! so the observable protocol behaviour must be identical. Pipelining
//! order, slowloris clients and mid-request disconnects run under both:
//! both answer a connection's frames through the one engine call.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bpw_metrics::JsonValue;
use bpw_server::metrics::Stage;
use bpw_server::{
    loadgen, AdmissionPolicy, Client, FrontendMode, LoadConfig, LoadMode, OpKind, Request,
    Response, Server, ServerConfig,
};
use bpw_workloads::{zipf::splitmix64, PageStream, Workload, ZipfWorkload};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: u64 = 12_500; // x8 clients = 100k total
const PAGES: u64 = 1024;
const PAGE_SIZE: usize = 64;

fn test_server(policy: AdmissionPolicy, manager: &str, mode: FrontendMode) -> Server {
    Server::start(ServerConfig {
        workers: 4,
        policy,
        frames: 256,
        page_size: PAGE_SIZE,
        pages: PAGES,
        manager: manager.into(),
        mode,
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// The issue's headline test: 8 client threads, 100k Zipf-distributed
/// GET/PUT requests through the block policy. Every request must be
/// answered OK (zero loss), every GET must return exactly the bytes of
/// the last PUT to that page (threads own disjoint page sets, so
/// last-write-wins is deterministic), and the final STATS must parse
/// with a non-zero p99.
fn block_policy_100k_zipf_requests_zero_loss_and_correct_contents(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let addr = server.addr();
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let ok_replies = AtomicU64::new(0);

    std::thread::scope(|sc| {
        for t in 0..CLIENTS {
            let workload = &workload;
            let ok_replies = &ok_replies;
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut stream = PageStream::for_thread(workload, t, 0xE2E);
                // Thread t owns exactly the pages ≡ t (mod CLIENTS): no
                // cross-thread writes, so expected content is exact.
                let mut written: HashMap<u64, u8> = HashMap::new();
                let mut coin = 0xC01D_u64 ^ t as u64;
                for i in 0..REQUESTS_PER_CLIENT {
                    let raw = stream.next_page();
                    let page = (raw - raw % CLIENTS as u64 + t as u64) % PAGES;
                    coin = splitmix64(coin);
                    if coin % 4 == 0 {
                        // PUT: self-identifying header + a fill byte that
                        // changes every write.
                        let fill = (i % 251) as u8;
                        let mut body = vec![fill; 24];
                        body[..8].copy_from_slice(&page.to_le_bytes());
                        match client.put(page, body).expect("put io") {
                            Response::Ok(_) => {
                                ok_replies.fetch_add(1, Ordering::Relaxed);
                                written.insert(page, fill);
                            }
                            other => panic!("PUT answered {other:?} under block policy"),
                        }
                    } else {
                        match client.get(page).expect("get io") {
                            Response::Ok(bytes) => {
                                ok_replies.fetch_add(1, Ordering::Relaxed);
                                assert_eq!(bytes.len(), PAGE_SIZE);
                                let id = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                                assert_eq!(id, page, "page header corrupted");
                                if let Some(&fill) = written.get(&page) {
                                    assert!(
                                        bytes[8..24].iter().all(|&b| b == fill),
                                        "GET of page {page} did not see the last PUT \
                                         (want fill {fill:#x}, got {:?})",
                                        &bytes[8..24]
                                    );
                                }
                            }
                            other => panic!("GET answered {other:?} under block policy"),
                        }
                    }
                }
            });
        }
    });

    // Zero loss: all 100k requests were answered OK.
    assert_eq!(
        ok_replies.load(Ordering::Relaxed),
        CLIENTS as u64 * REQUESTS_PER_CLIENT
    );

    // STATS parses and shows the traffic with non-zero tail latency
    // (once the connection threads have counted their last replies).
    bpw_server::poll_until(Duration::from_secs(5), || {
        server.metrics().ok.get() == CLIENTS as u64 * REQUESTS_PER_CLIENT
    });
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    let v = JsonValue::parse(&stats).expect("STATS reply must be valid JSON");
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_u64),
        Some(CLIENTS as u64 * REQUESTS_PER_CLIENT),
        "server-side OK count: {stats}"
    );
    assert_eq!(v.get("busy").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(v.get("dropped").and_then(JsonValue::as_u64), Some(0));
    let get_p99 = v
        .get("get_ns")
        .and_then(|h| h.get("p99"))
        .and_then(JsonValue::as_u64)
        .expect("get_ns.p99 present");
    assert!(get_p99 > 0, "p99 must be non-zero: {stats}");
    let put_count = v
        .get("put_ns")
        .and_then(|h| h.get("count"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    let get_count = v
        .get("get_ns")
        .and_then(|h| h.get("count"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert_eq!(get_count + put_count, CLIENTS as u64 * REQUESTS_PER_CLIENT);

    drop(client);
    server.join();
}

/// A zero-millisecond deadline drops every data request when its turn
/// comes — the end of its decode — and the reply is DROPPED, not a hang
/// or a connection error.
fn zero_deadline_drops_every_request(mode: FrontendMode) {
    let server = test_server(
        AdmissionPolicy::DeadlineDrop(Duration::ZERO),
        "coarse-lru",
        mode,
    );
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut dropped = 0;
    for page in 0..50u64 {
        match client.get(page).expect("get io") {
            Response::Dropped => dropped += 1,
            Response::Ok(_) => {} // a turn can come within the clock's resolution
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(dropped > 0, "a zero deadline must drop requests");
    let stats = client.stats().expect("stats");
    let v = JsonValue::parse(&stats).unwrap();
    assert_eq!(v.get("dropped").and_then(JsonValue::as_u64), Some(dropped));
    drop(client);
    server.join();
}

/// A deadline counts from the socket read that delivered a request, not
/// from its decode. Every storage access takes 60 ms here, so in a
/// pipelined `[GET 40, GET 41, GET 42]` of cold pages GET 41's turn comes
/// 60 ms after the batch arrived and GET 42's later still, both past a
/// 20 ms deadline: the first is served, the two that waited behind it
/// are DROPPED and never reach the pool.
fn a_deadline_counts_the_wait_behind_earlier_requests(mode: FrontendMode) {
    let server = Server::start(ServerConfig {
        workers: 1,
        policy: AdmissionPolicy::DeadlineDrop(Duration::from_millis(20)),
        frames: 16,
        page_size: PAGE_SIZE,
        pages: 64,
        mode,
        fault_plan: Some(bpw_server::FaultPlan {
            spike_ppm: 1_000_000,
            spike: Duration::from_millis(60),
            ..Default::default()
        }),
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let batch: Vec<Request> = (40..43).map(|page| Request::Get { page }).collect();
    let replies = client.call_pipelined(&batch).expect("pipelined batch");
    assert!(
        matches!(replies[0], Response::Ok(_)),
        "GET 40 answered {:?}",
        replies[0]
    );
    assert_eq!(replies[1..], [Response::Dropped, Response::Dropped]);
    let misses = server.pool().stats().misses.load(Ordering::Relaxed);
    assert_eq!(misses, 1, "a dropped GET is not executed");
    assert_eq!(server.metrics().dropped.get(), 2);
    drop(client);
    server.join();
}

/// SCAN's checksum equals the `page_checksum` (CRC-32C) chain over the
/// same pages fetched one GET at a time.
fn scan_checksum_matches_individual_gets(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "clock", mode);
    let mut client = Client::connect(server.addr()).expect("connect");
    // Dirty a page in the range so the checksum covers written data too.
    let mut body = vec![0xA5u8; 32];
    body[..8].copy_from_slice(&7u64.to_le_bytes());
    assert!(matches!(client.put(7, body).unwrap(), Response::Ok(_)));

    let mut expected = 0u64;
    for page in 4..20u64 {
        match client.get(page).unwrap() {
            Response::Ok(bytes) => expected = bpw_server::protocol::page_checksum(expected, &bytes),
            other => panic!("GET answered {other:?}"),
        }
    }
    match client.scan(4, 16).unwrap() {
        Response::Ok(payload) => {
            assert_eq!(payload.len(), 12);
            let count = u32::from_le_bytes(payload[..4].try_into().unwrap());
            let checksum = u64::from_le_bytes(payload[4..].try_into().unwrap());
            assert_eq!(count, 16);
            assert_eq!(checksum, expected, "SCAN checksum disagrees with GETs");
        }
        other => panic!("SCAN answered {other:?}"),
    }
    drop(client);
    server.join();
}

/// Requests outside the configured page universe get ERR, and the
/// connection stays usable afterwards.
fn out_of_range_requests_error_cleanly(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let mut client = Client::connect(server.addr()).expect("connect");
    assert!(matches!(client.get(PAGES).unwrap(), Response::Err(_)));
    assert!(matches!(
        client
            .call(&Request::Scan {
                start: PAGES - 4,
                len: 8
            })
            .unwrap(),
        Response::Err(_)
    ));
    assert!(
        matches!(client.get(0).unwrap(), Response::Ok(_)),
        "connection must survive an ERR"
    );
    drop(client);
    server.join();
}

/// Send `GET 1`, then `bad`, then `GET 2` on one raw connection: the
/// first GET is answered, then `ERR`, then the connection closes, and
/// only that one: a connection opened before it is still served.
fn err_then_close(mode: FrontendMode, bad: &[u8]) {
    use bpw_server::protocol::read_frame;

    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let metrics = server.metrics().clone();
    let mut bystander = Client::connect(server.addr()).expect("connect");
    let mut stream = raw_stream(&server);
    let mut wire = frame(&Request::Get { page: 1 });
    wire.extend_from_slice(bad);
    wire.extend(frame(&Request::Get { page: 2 }));
    stream.write_all(&wire).expect("send");
    let mut buf = Vec::new();
    assert!(read_frame(&mut &stream, &mut buf).expect("reply"), "no OK");
    assert!(matches!(Response::decode(&buf).unwrap(), Response::Ok(_)));
    assert!(read_frame(&mut &stream, &mut buf).expect("reply"), "no ERR");
    assert!(matches!(Response::decode(&buf).unwrap(), Response::Err(_)));
    assert!(
        !read_frame(&mut &stream, &mut buf).expect("EOF, not a timeout"),
        "the connection must be closed after the ERR"
    );
    // Replies are accounted before they are written.
    assert_eq!((metrics.ok.get(), metrics.errors.get()), (1, 1));
    assert!(matches!(bystander.get(3).unwrap(), Response::Ok(_)));
    drop(bystander);
    server.join();
}

/// A body that does not decode is answered `ERR` and the server closes
/// that connection (framing is suspect).
fn malformed_body_gets_err_then_close(mode: FrontendMode) {
    let mut bad = Vec::new();
    bpw_server::protocol::write_frame(&mut bad, &[0xFF]).unwrap();
    err_then_close(mode, &bad);
}

/// A length prefix no frame may have, zero or past `MAX_FRAME`, is
/// answered `ERR` after the replies before it.
fn bad_frame_header_gets_err_after_the_replies_before_it(mode: FrontendMode) {
    for bad in [0, bpw_server::protocol::MAX_FRAME as u32 + 1] {
        err_then_close(mode, &bad.to_le_bytes());
    }
}

/// The load generator against a live server: closed-loop requests are
/// all answered under block, and the report's accounting adds up.
fn loadgen_closed_loop_round_trips(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let cfg = LoadConfig {
        connections: 4,
        requests_per_conn: 1000,
        write_fraction: 0.25,
        mode: LoadMode::Closed {
            think: Duration::ZERO,
        },
        ..LoadConfig::default()
    };
    let report = loadgen::run(server.addr(), &workload, &cfg);
    assert_eq!(report.sent, 4000);
    assert_eq!(
        report.ok,
        4000,
        "block policy loses nothing: {}",
        report.summary()
    );
    assert_eq!(report.latency_ns.count(), 4000);
    assert!(report.throughput() > 0.0);
    assert!(report.latency_ns.quantile(0.99) > 0);
    server.join();
}

/// Open-loop pacing sends the full schedule even when the rate is
/// higher than the server can absorb, and measures from intended
/// arrival (latency >= actual service time).
fn loadgen_open_loop_sends_full_schedule(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "coarse-2q", mode);
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let cfg = LoadConfig {
        connections: 2,
        requests_per_conn: 300,
        write_fraction: 0.0,
        mode: LoadMode::Open {
            rate_per_sec: 5000.0,
        },
        ..LoadConfig::default()
    };
    let report = loadgen::run(server.addr(), &workload, &cfg);
    assert_eq!(report.sent, 600);
    assert_eq!(report.ok, 600);
    server.join();
}

/// A client SHUTDOWN request stops the acceptor: the running server
/// answers OK, then refuses (or never accepts) new connections.
fn client_shutdown_request_stops_accepting(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(client.shutdown().unwrap(), Response::Ok(_)));
    assert!(server.stop_requested());
    drop(client);
    server.join();
    // The listener is gone: fresh connects must start failing. The OS
    // may briefly accept into a dying socket's backlog, so poll the
    // condition with a deadline instead of betting on one attempt.
    assert!(
        bpw_server::poll_until(Duration::from_secs(5), || {
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
        }),
        "listener should be closed after join"
    );
}

/// METRICS returns a well-formed Prometheus-style exposition covering
/// request counters, both instrumented locks and the event-loop series;
/// STATS carries the matching JSON sub-objects.
fn metrics_exposition_and_enriched_stats(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let mut client = Client::connect(server.addr()).expect("connect");
    for page in 0..64u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }

    let text = client.metrics().expect("METRICS reply");
    let samples = bpw_trace::validate_exposition(&text).expect("well-formed exposition");
    assert!(samples >= 20, "only {samples} samples:\n{text}");
    assert!(text.contains("bpw_requests_total{status=\"ok\"}"));
    assert!(text.contains("bpw_get_latency_ns_count"));
    assert!(text.contains("bpw_lock_acquisitions_total{lock=\"replacement\"}"));
    assert!(text.contains("bpw_lock_acquisitions_total{lock=\"miss\"}"));
    assert!(text.contains("bpw_miss_shard_acquisitions_total{shard=\"0\"}"));
    assert!(text.contains("bpw_miss_lock_shards"));
    assert!(text.contains("bpw_pool_io_retries_total"));
    // Event-loop observability is always exposed (the epoll series are
    // zero-valued under the threaded frontend) so dashboards don't need
    // mode-aware queries.
    assert!(text.contains("bpw_connections_open"));
    assert!(text.contains("bpw_epoll_wakeups_total"));
    assert!(text.contains("bpw_short_writes_total"));
    assert!(text.contains("bpw_pipeline_depth_count"));
    assert!(text.contains("bpw_ready_events_per_wakeup_count"));
    // Stage attribution is always exposed.
    assert!(text.contains("bpw_stage_latency_ns_count{op=\"get\",stage=\"queue_wait\"}"));
    assert!(text.contains("bpw_stage_latency_ns_count{op=\"get\",stage=\"pin_hit\"}"));

    let stats = client.stats().expect("STATS reply");
    let v = JsonValue::parse(&stats).expect("STATS JSON");
    assert!(
        v.get("miss_lock")
            .and_then(|l| l.get("acquisitions"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|a| a >= 1),
        "64 cold fetches must acquire a partition lock: {stats}"
    );
    let shards = v.get("miss_locks").expect("shard-aware miss-lock summary");
    assert!(
        shards
            .get("shards")
            .and_then(JsonValue::as_u64)
            .is_some_and(|s| s >= 2),
        "default pool must partition the miss path: {stats}"
    );
    // The aggregate view and the shard summary must agree.
    assert_eq!(
        shards.get("total_acquisitions").and_then(JsonValue::as_u64),
        v.get("miss_lock")
            .and_then(|l| l.get("acquisitions"))
            .and_then(JsonValue::as_u64),
    );
    assert!(v.get("pool_io_retries").is_some());
    // Stage histograms in STATS: the 64 GETs above must have left
    // samples (with quantile summaries) in every always-on stage.
    let get_stages = v
        .get("stages")
        .and_then(|s| s.get("get"))
        .expect("per-op stage sub-object");
    for stage in ["decode", "pin_hit", "reply_flush"] {
        assert!(
            get_stages
                .get(stage)
                .and_then(|h| h.get("count"))
                .and_then(JsonValue::as_u64)
                .is_some_and(|c| c >= 64),
            "stage {stage} must have a sample per GET: {stats}"
        );
    }
    assert!(
        get_stages
            .get("queue_wait")
            .and_then(|h| h.get("p999"))
            .is_some(),
        "stage summaries carry p999: {stats}"
    );
    // Every request runs where it was decoded: queue_wait stays empty.
    assert_eq!(
        get_stages
            .get("queue_wait")
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64),
        Some(0),
        "no GET waits in a queue: {stats}"
    );
    // 64 cold fetches must attribute some miss I/O.
    assert!(
        get_stages
            .get("miss_io")
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|c| c >= 1),
        "cold GETs must land miss_io samples: {stats}"
    );
    // Connection gauge: this client is the open connection.
    assert!(
        v.get("connections_open")
            .and_then(JsonValue::as_u64)
            .is_some_and(|c| c >= 1),
        "the asking client must be counted open: {stats}"
    );
    assert!(
        v.get("pipeline_depth")
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .is_some_and(|c| c > 0),
        "every pass over a connection's frames observes its depth: {stats}"
    );
    if mode == FrontendMode::EventLoop {
        assert!(
            v.get("epoll_wakeups")
                .and_then(JsonValue::as_u64)
                .is_some_and(|w| w > 0),
            "the loop must have woken for this traffic: {stats}"
        );
    }

    drop(client);
    server.join();
}

/// A cold GET is run by the frontend thread that decoded it, and a warm
/// one is answered there from the frame: 32 cold GETs leave
/// `inline_hits` at 0 and no queue wait, and a GET of a page they made
/// resident counts one inline hit. Nothing queues, under either
/// frontend.
fn cold_gets_queue_and_a_warm_get_is_answered_inline(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let mut client = Client::connect(server.addr()).expect("connect");
    for page in 0..32u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }
    let m = server.metrics();
    assert_eq!(m.inline_hits.get(), 0);
    assert_eq!(m.queue_wait_ns.count(), 0);

    // Page 0 is resident now: its GET is answered from the frame.
    assert!(matches!(client.get(0).unwrap(), Response::Ok(_)));
    assert_eq!(m.inline_hits.get(), 1);
    assert_eq!(m.queue_wait_ns.count(), 0);
    drop(client);
    server.join();
}

/// Pipelined requests on one connection: the responses come back
/// strictly in request order, with contents matching request-by-request
/// expectations — even when the batch mixes PUT, GET, SCAN, and STATS.
fn pipelined_responses_arrive_in_request_order(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let mut client = Client::connect(server.addr()).expect("connect");

    // Batch 1: tag 16 pages with distinct fills.
    let puts: Vec<Request> = (0..16u64)
        .map(|p| {
            let mut data = vec![p as u8 + 1; 24];
            data[..8].copy_from_slice(&p.to_le_bytes());
            Request::Put { page: p, data }
        })
        .collect();
    for resp in client.call_pipelined(&puts).expect("pipelined PUTs") {
        assert!(matches!(resp, Response::Ok(_)));
    }

    // Batch 2: read them back interleaved with control and range ops.
    let mut reqs = Vec::new();
    for p in 0..16u64 {
        reqs.push(Request::Get { page: p });
        if p == 7 {
            reqs.push(Request::Stats);
            reqs.push(Request::Scan { start: 0, len: 8 });
        }
    }
    let resps = client.call_pipelined(&reqs).expect("pipelined mixed batch");
    assert_eq!(resps.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&resps) {
        match (req, resp) {
            (Request::Get { page }, Response::Ok(body)) => {
                assert_eq!(
                    u64::from_le_bytes(body[..8].try_into().unwrap()),
                    *page,
                    "response out of order: GET {page} got another page's bytes"
                );
                assert!(
                    body[8..24].iter().all(|&b| b == *page as u8 + 1),
                    "GET {page} does not carry its own PUT's fill"
                );
            }
            (Request::Stats, Response::Ok(body)) => {
                let json = String::from_utf8(body.clone()).expect("UTF-8 STATS");
                JsonValue::parse(&json).expect("STATS JSON mid-pipeline");
            }
            (Request::Scan { .. }, Response::Ok(payload)) => {
                assert_eq!(payload.len(), 12);
            }
            (req, resp) => panic!("{req:?} answered {resp:?}"),
        }
    }

    // A pipelined loadgen run over several connections agrees.
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let report = loadgen::run(
        server.addr(),
        &workload,
        &LoadConfig {
            connections: 4,
            requests_per_conn: 1_024,
            write_fraction: 0.2,
            pipeline: 16,
            ..LoadConfig::default()
        },
    );
    assert_eq!(report.sent, 4 * 1_024);
    assert_eq!(report.ok, 4 * 1_024, "{}", report.summary());

    drop(client);
    server.join();
}

/// Slowloris: a client dribbling a valid request one byte at a time
/// must (a) eventually get the right answer and (b) never stall other
/// clients — the whole point of readiness-based multiplexing.
fn slowloris_client_cannot_stall_others(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let addr = server.addr();

    let slow = std::thread::spawn(move || {
        let mut stream =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).ok();
        let body = Request::Get { page: 3 }.encode();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        for &b in &wire {
            stream.write_all(&[b]).expect("dribble");
            stream.flush().ok();
            std::thread::sleep(Duration::from_millis(5));
        }
        // The torn frame is finally whole; the reply must arrive.
        let mut reader = std::io::BufReader::new(stream);
        let mut buf = Vec::new();
        assert!(bpw_server::protocol::read_frame(&mut reader, &mut buf).expect("reply frame"));
        match Response::decode(&buf).expect("decode") {
            Response::Ok(bytes) => {
                assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 3);
            }
            other => panic!("slowloris GET answered {other:?}"),
        }
    });

    // While the slow client dribbles (~65 wakeups worth), fast clients
    // must make normal progress.
    let mut fast = Client::connect(addr).expect("fast connect");
    let fast_started = std::time::Instant::now();
    for page in 0..100u64 {
        assert!(matches!(fast.get(page % PAGES).unwrap(), Response::Ok(_)));
    }
    assert!(
        fast_started.elapsed() < Duration::from_secs(2),
        "fast client starved behind a slowloris: {:?}",
        fast_started.elapsed()
    );

    slow.join().expect("slow client");
    drop(fast);
    server.join();
}

/// A client that sends requests and vanishes mid-flight: the server
/// must finish (or discard) the orphaned work without leaking, the
/// pool's frame accounting must return to exact, and new clients must
/// be served as if nothing happened.
fn mid_request_disconnect_leaks_nothing(mode: FrontendMode) {
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let addr = server.addr();

    for round in 0..8u64 {
        let mut stream =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream.set_nodelay(true).ok();
        // A burst of expensive SCANs plus a torn trailing frame, then
        // vanish without reading a single reply.
        let mut wire = Vec::new();
        for _ in 0..8 {
            let body = Request::Scan {
                start: round * 64,
                len: 64,
            }
            .encode();
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(&body);
        }
        wire.extend_from_slice(&[0x40, 0, 0, 0, 0xFF]); // torn frame: header + 1 of 64 bytes
        stream.write_all(&wire).expect("burst");
        drop(stream); // RST/EOF while up to 8 requests are in flight
    }

    // The server must still answer promptly on a fresh connection.
    let mut client = Client::connect(addr).expect("connect after disconnects");
    for page in 0..32u64 {
        assert!(matches!(client.get(page).unwrap(), Response::Ok(_)));
    }

    // Every orphaned request eventually drains and unpins its frames:
    // free + stashed + resident returns to the exact frame count.
    let pool = server.pool().clone();
    let frames = pool.frames();
    assert!(
        bpw_server::poll_until(Duration::from_secs(10), || {
            pool.free_frames() + pool.stashed_frames() + pool.resident_count() == frames
        }),
        "orphaned requests left frames pinned: {} free + {} stashed + {} resident != {frames}",
        pool.free_frames(),
        pool.stashed_frames(),
        pool.resident_count(),
    );

    drop(client);
    server.join();
}

/// A raw client socket whose reads fail loudly instead of hanging.
fn raw_stream(server: &Server) -> std::net::TcpStream {
    let stream =
        std::net::TcpStream::connect_timeout(&server.addr(), Duration::from_secs(5)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Run `server.join()` on a helper thread and fail if it has not
/// returned within a generous deadline.
fn join_within_deadline(server: Server, why: &str) {
    let joiner = std::thread::spawn(move || server.join());
    assert!(
        bpw_server::poll_until(Duration::from_secs(10), || joiner.is_finished()),
        "join() hung: {why}"
    );
    joiner.join().expect("joiner thread");
}

/// `join()` must not wait on a client that is connected but silent: the
/// server ends the connection itself and the client sees EOF.
fn join_does_not_wait_for_an_idle_client(mode: FrontendMode) {
    use std::io::Read as _;

    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let mut idle = raw_stream(&server);
    let metrics = server.metrics().clone();
    bpw_server::wait_for(Duration::from_secs(5), "idle client accepted", || {
        metrics.connections_open.get() == 1
    });
    join_within_deadline(server, "an idle connection was open");
    assert_eq!(idle.read(&mut [0u8; 1]).expect("EOF, not a timeout"), 0);
    assert_eq!(metrics.connections_open.get(), 0);
}

/// Shutdown answers everything already received: a pipelined burst
/// written before `join()` gets all its replies, in order, then EOF.
fn join_answers_a_pipelined_burst_first(mode: FrontendMode) {
    const BURST: u64 = 64;
    let server = test_server(AdmissionPolicy::Block, "wrapped-2q", mode);
    let mut stream = raw_stream(&server);
    let metrics = server.metrics().clone();
    bpw_server::wait_for(Duration::from_secs(5), "client accepted", || {
        metrics.connections_open.get() == 1
    });
    let mut wire = Vec::new();
    for page in 0..BURST {
        bpw_server::protocol::write_frame(&mut wire, &Request::Get { page }.encode()).unwrap();
    }
    stream.write_all(&wire).expect("burst");
    join_within_deadline(server, "a pipelined burst was in flight");

    let mut reader = std::io::BufReader::new(stream);
    let mut buf = Vec::new();
    for page in 0..BURST {
        assert!(
            bpw_server::protocol::read_frame(&mut reader, &mut buf).expect("reply frame"),
            "connection closed before reply {page} of {BURST}"
        );
        match Response::decode(&buf).expect("decode") {
            Response::Ok(bytes) => {
                assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), page)
            }
            other => panic!("GET {page} answered {other:?} during shutdown"),
        }
    }
    assert!(
        !bpw_server::protocol::read_frame(&mut reader, &mut buf).expect("clean EOF"),
        "nothing follows the last reply"
    );
    assert_eq!(metrics.ok.get(), BURST);
}

/// One request frame as it goes on the wire.
fn frame(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    bpw_server::protocol::write_frame(&mut wire, &req.encode()).unwrap();
    wire
}

/// Invalidate every page: a pinned one would answer `Busy`, and
/// afterwards every frame must be back on the free list.
fn assert_nothing_pinned(pool: &bpw_server::DynPool, pages: u64) {
    for page in 0..pages {
        assert!(
            !pool.invalidate(page).is_retryable(),
            "page {page} is still pinned or in I/O"
        );
    }
    assert_eq!(pool.free_frames(), pool.frames());
}

/// Replies answered in place and never read: the client vanishes, then a
/// second one sends SHUTDOWN behind its burst and vanishes too. Neither
/// may leave a frame pinned — a pin lives only for the copy out of the
/// frame, never as long as the bytes wait for the socket.
fn unread_in_place_replies_leave_nothing_pinned(mode: FrontendMode) {
    const PAGES: u64 = 32;
    const BURST: u64 = 4_000;
    let server = Server::start(ServerConfig {
        workers: 2,
        frames: PAGES as usize,
        page_size: 4096,
        pages: PAGES,
        mode,
        ..ServerConfig::default()
    })
    .expect("server start");
    let pool = server.pool().clone();
    let metrics = server.metrics().clone();
    let burst: Vec<u8> = (0..BURST)
        .flat_map(|i| frame(&Request::Get { page: i % PAGES }))
        .collect();

    for shutdown in [false, true] {
        let mut warm = Client::connect(server.addr()).expect("connect");
        for page in 0..PAGES {
            assert!(matches!(warm.get(page).unwrap(), Response::Ok(_)));
        }
        drop(warm);
        let answered = metrics.inline_hits.get();
        let mut stream = raw_stream(&server);
        stream.write_all(&burst).expect("burst");
        if shutdown {
            stream
                .write_all(&frame(&Request::Shutdown))
                .expect("SHUTDOWN");
        }
        // 16 MB of replies against a client that reads none of them:
        // some are written and stuck in socket buffers, the rest not
        // even produced.
        bpw_server::wait_for(Duration::from_secs(10), "replies in flight", || {
            metrics.inline_hits.get() >= answered + 64
        });
        drop(stream);
        bpw_server::wait_for(Duration::from_secs(10), "connection reaped", || {
            metrics.connections_open.get() == 0
        });
        if !shutdown {
            assert_nothing_pinned(&pool, PAGES);
        }
    }
    join_within_deadline(server, "a client left without reading its replies");
    assert_eq!(pool.free_frames() + pool.resident_count(), pool.frames());
    assert_nothing_pinned(&pool, PAGES);
}

/// The event loop stops taking requests from a client that does not
/// read its replies: 10 000 pipelined GETs of resident 4 KiB pages are
/// 41 MB of replies, and all the server may hold of them is one
/// pipeline's worth in its write buffer plus whatever the kernel's
/// socket buffers take. Once the client reads, every reply arrives, in
/// order.
#[test]
fn eventloop_bounds_a_connections_unread_replies() {
    const GETS: u64 = 10_000;
    const HOT: u64 = 16;
    let server = Server::start(ServerConfig {
        workers: 1,
        frames: 64,
        page_size: 4096,
        pages: 64,
        mode: FrontendMode::EventLoop,
        ..ServerConfig::default()
    })
    .expect("server start");
    let metrics = server.metrics().clone();
    let mut warm = Client::connect(server.addr()).expect("connect");
    for page in 0..HOT {
        assert!(matches!(warm.get(page).unwrap(), Response::Ok(_)));
    }
    drop(warm);

    let stream = raw_stream(&server);
    let writer = {
        let mut stream = stream.try_clone().expect("clone");
        std::thread::spawn(move || {
            let wire: Vec<u8> = (0..GETS)
                .flat_map(|i| frame(&Request::Get { page: i % HOT }))
                .collect();
            // May block until the reader below makes the server read on.
            stream.write_all(&wire).expect("pipelined GETs");
        })
    };
    // Let the server answer until it stops by itself.
    let mut answered = metrics.ok.get();
    bpw_server::wait_for(Duration::from_secs(20), "replies level off", || {
        std::thread::sleep(Duration::from_millis(200));
        let before = std::mem::replace(&mut answered, metrics.ok.get());
        answered > HOT && answered == before
    });
    assert!(
        answered - HOT < GETS / 2,
        "{} of {GETS} replies produced for a client that has read none",
        answered - HOT
    );

    let mut reader = std::io::BufReader::new(stream);
    let mut buf = Vec::new();
    for i in 0..GETS {
        assert!(
            bpw_server::protocol::read_frame(&mut reader, &mut buf).expect("reply frame"),
            "connection closed before reply {i} of {GETS}"
        );
        match Response::decode(&buf).expect("decode") {
            Response::Ok(bytes) => {
                assert_eq!(bytes.len(), 4096);
                assert_eq!(
                    u64::from_le_bytes(bytes[..8].try_into().unwrap()),
                    i % HOT,
                    "reply {i} out of order"
                );
            }
            other => panic!("GET {i} answered {other:?}"),
        }
    }
    writer.join().expect("writer");
    assert_eq!(metrics.ok.get(), HOT + GETS);
    drop(reader);
    server.join();
}

/// Pipelined read-your-writes on one connection: with page `x` resident,
/// `GET x` could be answered from the frame at once — so it must not
/// before a `PUT x` sent before it has taken effect. Every storage access
/// takes 60 ms here. Two ways the PUT can be held up: behind this
/// connection's own cold `GET y`, or behind another connection's cold
/// GET that holds the one loop both connections share.
#[test]
fn eventloop_get_never_overtakes_a_put_sent_before_it() {
    const X: u64 = 3;
    let page_of = |fill: u8| {
        let mut data = vec![fill; PAGE_SIZE];
        data[..8].copy_from_slice(&X.to_le_bytes());
        data
    };
    for behind_another_connection in [false, true] {
        let server = Server::start(ServerConfig {
            workers: 1,
            frames: 16,
            page_size: PAGE_SIZE,
            pages: 64,
            mode: FrontendMode::EventLoop,
            fault_plan: Some(bpw_server::FaultPlan {
                spike_ppm: 1_000_000,
                spike: Duration::from_millis(60),
                ..Default::default()
            }),
            ..ServerConfig::default()
        })
        .expect("server start");
        let metrics = server.metrics().clone();
        let mut client = Client::connect(server.addr()).expect("connect");
        assert!(matches!(
            client.put(X, page_of(0xA1)).unwrap(),
            Response::Ok(_)
        ));
        assert_eq!(client.get(X).unwrap(), Response::Ok(page_of(0xA1)));
        assert_eq!(metrics.inline_hits.get(), 1, "x is resident");

        let put_then_get = [
            Request::Put {
                page: X,
                data: page_of(0xB2),
            },
            Request::Get { page: X },
        ];
        let mut other = raw_stream(&server);
        let replies = if behind_another_connection {
            // The other connection's cold GET holds the loop for 60 ms
            // while this one's PUT and GET arrive.
            let decoded = metrics.stage(OpKind::Get, Stage::Decode).count();
            other
                .write_all(&frame(&Request::Get { page: 40 }))
                .expect("cold GET");
            bpw_server::wait_for(Duration::from_secs(5), "the loop took it", || {
                metrics.stage(OpKind::Get, Stage::Decode).count() > decoded
            });
            client.call_pipelined(&put_then_get)
        } else {
            let mut batch = vec![Request::Get { page: 40 }];
            batch.extend(put_then_get);
            client.call_pipelined(&batch)
        }
        .expect("pipelined batch");
        assert_eq!(
            replies.last(),
            Some(&Response::Ok(page_of(0xB2))),
            "GET x overtook the PUT x sent before it \
             (behind another connection: {behind_another_connection})"
        );
        if behind_another_connection {
            let mut reader = std::io::BufReader::new(other);
            let mut buf = Vec::new();
            assert!(bpw_server::protocol::read_frame(&mut reader, &mut buf).expect("reply"));
            match Response::decode(&buf).expect("decode") {
                Response::Ok(bytes) => assert_eq!(bytes[..8], 40u64.to_le_bytes()),
                other => panic!("cold GET answered {other:?}"),
            }
        }
        drop(client);
        server.join();
    }
}

/// Several loops: two event loops serve four connections at once, each
/// sending pipelined mixes of GET, PUT and SCAN over pages it owns. Every
/// reply is checked against the connection's own writes, and `join`
/// returns promptly once the clients have closed.
#[test]
fn eventloop_with_several_loops_serves_concurrent_pipelined_mixes() {
    const CONNS: u64 = 4;
    const OWNED: u64 = PAGES / CONNS;
    const BATCHES: u64 = 50;
    const BATCH: usize = 8;
    let server = Server::start(ServerConfig {
        workers: 2,
        frames: 64,
        page_size: PAGE_SIZE,
        pages: PAGES,
        mode: FrontendMode::EventLoop,
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();
    let put = |page: u64, fill: u8| {
        let mut data = vec![fill; PAGE_SIZE];
        data[..8].copy_from_slice(&page.to_le_bytes());
        data
    };
    std::thread::scope(|sc| {
        for c in 0..CONNS {
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Connection c owns the pages ≡ c (mod CONNS) and writes
                // each once before the mix: what it reads back is its own
                // latest write.
                let owned = |i: u64| i % OWNED * CONNS + c;
                let mut fills = vec![c as u8; OWNED as usize];
                let first: Vec<Request> = (0..OWNED)
                    .map(|i| Request::Put {
                        page: owned(i),
                        data: put(owned(i), c as u8),
                    })
                    .collect();
                for reply in client.call_pipelined(&first).expect("first writes") {
                    assert_eq!(reply, Response::Ok(Vec::new()), "conn {c}");
                }
                let mut rng = c;
                for _ in 0..BATCHES {
                    let mut batch = Vec::with_capacity(BATCH);
                    // The reply each request must get; `None` for a SCAN,
                    // whose range spans other connections' pages and of
                    // which only the length is checked.
                    let mut expect = Vec::with_capacity(BATCH);
                    for _ in 0..BATCH {
                        rng = splitmix64(rng);
                        let i = rng % OWNED;
                        let page = owned(i);
                        match (rng >> 32) % 10 {
                            0..=2 => {
                                let fill = (rng >> 40) as u8;
                                fills[i as usize] = fill;
                                batch.push(Request::Put {
                                    page,
                                    data: put(page, fill),
                                });
                                expect.push(Some(Response::Ok(Vec::new())));
                            }
                            3 => {
                                let start = page.min(PAGES - 8);
                                batch.push(Request::Scan { start, len: 8 });
                                expect.push(None);
                            }
                            _ => {
                                batch.push(Request::Get { page });
                                expect.push(Some(Response::Ok(put(page, fills[i as usize]))));
                            }
                        }
                    }
                    let replies = client.call_pipelined(&batch).expect("pipelined batch");
                    assert_eq!(replies.len(), BATCH);
                    for ((req, want), got) in batch.iter().zip(&expect).zip(&replies) {
                        match (want, got) {
                            (Some(want), got) => assert_eq!(got, want, "conn {c}: {req:?}"),
                            (None, Response::Ok(p)) => assert_eq!(p[..4], 8u32.to_le_bytes()),
                            (None, got) => panic!("conn {c}: {req:?} answered {got:?}"),
                        }
                    }
                }
            });
        }
    });
    let m = server.metrics().clone();
    assert_eq!(m.total(), m.ok.get(), "every reply OK");
    assert_eq!(m.queue_wait_ns.count(), 0, "nothing waited in a queue");
    join_within_deadline(server, "four clients had closed");
}

/// What each idle client of [`idle_connections_give_their_frames_back`]
/// leaves its connection with once its misses are answered.
#[derive(Clone, Copy, PartialEq)]
enum Idle {
    /// Nothing: the connection waits to read a next frame.
    Quiet,
    /// Half of a next frame, sent with its last miss.
    MidFrame,
    /// Misses it never reads replies to: the connection waits to write.
    UnreadReplies,
}

/// Idle threaded connections give back what their misses took. Each
/// client GETs cold pages of a full 64-frame pool and then stalls as
/// `idle` says, with its connection open. A miss can evict frames ahead
/// of need into its session's stash and queue its admission uncommitted.
/// A connection thread about to wait on its client, to read or to write,
/// drops that session, which commits the one and frees the other, so
/// neither stays out of the pool while the client stalls.
fn idle_connections_give_their_frames_back(idle: Idle, clients: u64) {
    use bpw_server::protocol::read_frame;

    const FRAMES: u64 = 64;
    const PAGES: u64 = 2_048;
    let server = Server::start(ServerConfig {
        frames: FRAMES as usize,
        page_size: 4_096,
        pages: PAGES,
        mode: FrontendMode::Threaded,
        ..ServerConfig::default()
    })
    .expect("server start");
    let pool = server.pool().clone();
    let mut warm = Client::connect(server.addr()).expect("connect");
    for page in 0..FRAMES {
        assert!(matches!(warm.get(page).unwrap(), Response::Ok(_)));
    }
    drop(warm);

    let get = |page: u64| frame(&Request::Get { page });
    let stalled: Vec<std::net::TcpStream> = (0..clients)
        .map(|c| {
            let mut stream = raw_stream(&server);
            let first = FRAMES + 3 * c;
            let mut wire: Vec<u8> = (first..first + 3).flat_map(get).collect();
            if idle == Idle::MidFrame {
                let next = get(first);
                wire.extend_from_slice(&next[..next.len() / 2]);
            }
            stream.write_all(&wire).expect("misses");
            let mut buf = Vec::new();
            for page in first..first + 3 {
                assert!(read_frame(&mut &stream, &mut buf).expect("reply"));
                let reply = Response::decode(&buf);
                assert!(
                    matches!(reply, Ok(Response::Ok(_))),
                    "GET {page}: {reply:?}"
                );
            }
            if idle == Idle::UnreadReplies {
                // Cold GETs until the server has read none for 60 ms: it
                // is then waiting to write replies this client never reads.
                stream.set_nonblocking(true).expect("nonblocking");
                let burst: Vec<u8> = (0..4_096)
                    .flat_map(|i| get(FRAMES + (c * 577 + i) % (PAGES - FRAMES)))
                    .collect();
                let mut at = 0;
                let mut refused = 0;
                while refused < 3 {
                    match stream.write(&burst[at..]) {
                        Ok(n) => (at, refused) = ((at + n) % burst.len(), 0),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            refused += 1;
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(e) => panic!("pipelining GETs: {e}"),
                    }
                }
            }
            stream
        })
        .collect();
    bpw_server::wait_for(Duration::from_secs(1), "no frame stashed", || {
        pool.stashed_frames() == 0
    });
    pool.check_mapping_invariants();
    assert_eq!(
        pool.free_frames() + pool.resident_count(),
        pool.frames(),
        "every frame free or resident"
    );

    let mut cold = Client::connect(server.addr()).expect("connect");
    for page in 1_000..1_500 {
        assert!(
            matches!(cold.get(page).unwrap(), Response::Ok(_)),
            "GET {page}"
        );
    }
    drop((stalled, cold));
    server.join();
}

#[test]
fn threaded_idle_connections_give_their_frames_back() {
    idle_connections_give_their_frames_back(Idle::Quiet, 32);
}

#[test]
fn threaded_connections_idle_mid_frame_give_their_frames_back() {
    idle_connections_give_their_frames_back(Idle::MidFrame, 32);
}

/// Fewer clients: each fills its socket buffers with replies.
#[test]
fn threaded_connections_not_reading_replies_give_their_frames_back() {
    idle_connections_give_their_frames_back(Idle::UnreadReplies, 8);
}

/// Dimension check promised by the workload contract: every generated
/// page id stays inside the universe the server was configured with.
#[test]
fn workload_pages_fit_the_server_universe() {
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    assert!(workload.page_universe() <= PAGES);
    let mut stream = PageStream::for_thread(&workload, 0, 1);
    for _ in 0..10_000 {
        assert!(stream.next_page() < PAGES);
    }
}

macro_rules! both_frontends {
    ($($name:ident),* $(,)?) => {
        mod threaded {
            use super::*;
            $(#[test]
            fn $name() {
                super::$name(FrontendMode::Threaded);
            })*
        }
        mod eventloop_mode {
            use super::*;
            $(#[test]
            fn $name() {
                super::$name(FrontendMode::EventLoop);
            })*
        }
    };
}

both_frontends!(
    block_policy_100k_zipf_requests_zero_loss_and_correct_contents,
    zero_deadline_drops_every_request,
    a_deadline_counts_the_wait_behind_earlier_requests,
    scan_checksum_matches_individual_gets,
    out_of_range_requests_error_cleanly,
    malformed_body_gets_err_then_close,
    bad_frame_header_gets_err_after_the_replies_before_it,
    loadgen_closed_loop_round_trips,
    loadgen_open_loop_sends_full_schedule,
    client_shutdown_request_stops_accepting,
    metrics_exposition_and_enriched_stats,
    cold_gets_queue_and_a_warm_get_is_answered_inline,
    pipelined_responses_arrive_in_request_order,
    slowloris_client_cannot_stall_others,
    mid_request_disconnect_leaks_nothing,
    join_does_not_wait_for_an_idle_client,
    join_answers_a_pipelined_burst_first,
    unread_in_place_replies_leave_nothing_pinned,
);
