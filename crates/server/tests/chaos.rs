//! Chaos end-to-end test: the page service running against a disk that
//! injects transient faults, persistently broken pages, and latency
//! spikes — concurrently, under load.
//!
//! What must hold, per ISSUE 3's acceptance criteria:
//!
//! 1. **No wrong bytes.** Every GET either returns the page's correct
//!    self-identifying contents (first 8 bytes are the page id) or an
//!    explicit `ERR_IO`; a fault must never surface as silently
//!    corrupted data.
//! 2. **No stuck frames.** After the run, every frame is either free or
//!    resident: `free_frames + resident_count == frames`. A failed I/O
//!    must not leave a frame wedged with `io_in_progress` set.
//! 3. **Full recovery.** Once faults are cleared, every page — including
//!    the ones that were persistently broken — fetches successfully.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bpw_server::{loadgen, Client, FaultPlan, FrontendMode, Server, ServerConfig};
use bpw_workloads::{zipf::splitmix64, PageStream, ZipfWorkload};

const PAGES: u64 = 1024;
const FRAMES: usize = 128;
const PAGE_SIZE: usize = 256;

fn chaos_server(mode: FrontendMode) -> Server {
    Server::start(ServerConfig {
        workers: 4,
        frames: FRAMES,
        page_size: PAGE_SIZE,
        pages: PAGES,
        mode,
        fault_plan: Some(FaultPlan {
            seed: 0xC4A0_5EED,
            // A steady drizzle of transient faults: 5% of reads, 2% of
            // writes, plus occasional latency spikes. High enough that a
            // run of a few thousand requests injects hundreds of faults,
            // low enough that retries usually succeed. Under the event
            // loop a spike holds every connection of its loop, since a
            // miss runs on the loop; these tests check correctness only.
            read_fail_ppm: 50_000,
            write_fail_ppm: 20_000,
            spike_ppm: 10_000,
            spike: Duration::from_micros(200),
        }),
        ..ServerConfig::default()
    })
    .expect("start chaos server")
}

/// The invariant at the heart of frame repair: no frame may be lost to
/// a failed I/O. Either it went back to the free list, waits in a
/// session's stash of frames evicted ahead (a connection thread's or
/// an event loop's), or holds a resident page.
fn assert_no_stuck_frames(server: &Server) {
    let free = server.pool().free_frames();
    let stashed = server.pool().stashed_frames();
    let resident = server.pool().resident_count();
    assert_eq!(
        free + stashed + resident,
        FRAMES,
        "stuck frame: {free} free + {stashed} stashed + {resident} resident != {FRAMES} frames"
    );
}

fn chaos_run_returns_correct_bytes_or_err_io_and_recovers(mode: FrontendMode) {
    let server = chaos_server(mode);
    let addr = server.addr();
    let disk = server
        .faulty_disk()
        .expect("fault plan must install a FaultyDisk")
        .clone();
    // Two pages are persistently broken from the start — reads on one,
    // writes on the other — on top of the probabilistic drizzle.
    disk.break_page_reads(7);
    disk.break_page_writes(11);

    let wrong_bytes = AtomicU64::new(0);
    let io_errors = AtomicU64::new(0);
    let oks = AtomicU64::new(0);
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);

    std::thread::scope(|sc| {
        for t in 0..4usize {
            let workload = &workload;
            let wrong_bytes = &wrong_bytes;
            let io_errors = &io_errors;
            let oks = &oks;
            sc.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut stream = PageStream::for_thread(workload, t, 0xC4A0);
                let mut coin = splitmix64(t as u64 ^ 0xD15C);
                for _ in 0..1500u32 {
                    let page = stream.next_page();
                    coin = splitmix64(coin);
                    // ~10% PUTs with self-identifying payloads, so reads
                    // can always verify the first 8 bytes.
                    let resp = if coin % 10 == 0 {
                        client.put(page, loadgen::put_payload(page, 32, 0xC4A0))
                    } else {
                        client.get(page)
                    };
                    match resp.expect("transport must survive chaos") {
                        bpw_server::Response::Ok(body) => {
                            oks.fetch_add(1, Ordering::Relaxed);
                            if body.len() >= 8 {
                                let id = u64::from_le_bytes(body[..8].try_into().unwrap());
                                if id != page {
                                    wrong_bytes.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        bpw_server::Response::IoError(_) => {
                            io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected reply under chaos: {other:?}"),
                    }
                }
            });
        }
    });

    // Criterion 1: a fault never surfaces as wrong data.
    assert_eq!(
        wrong_bytes.load(Ordering::Relaxed),
        0,
        "GETs must return correct bytes or ERR_IO, never corruption"
    );
    assert!(
        oks.load(Ordering::Relaxed) > 0,
        "some requests must succeed"
    );
    // The persistently broken page guarantees at least one ERR_IO
    // reached a client (page 7 is hot under Zipf 0.86).
    assert!(
        io_errors.load(Ordering::Relaxed) > 0,
        "broken page 7 must have surfaced at least one ERR_IO"
    );
    // The drizzle plus retry budget guarantees retries happened.
    let stats = server.pool().stats();
    assert!(
        stats.io_retries.load(Ordering::Relaxed) > 0,
        "transient faults must have been retried"
    );
    assert!(
        stats.io_errors.load(Ordering::Relaxed) > 0,
        "exhausted retries must be counted"
    );

    // Criterion 2: no frame was wedged by any of the injected failures.
    assert_no_stuck_frames(&server);

    // Criterion 3: once faults clear, everything recovers — including
    // the pages that were persistently broken moments ago.
    disk.clear_faults();
    let mut client = Client::connect(addr).expect("connect for recovery sweep");
    for page in [7u64, 11, 0, 1, 2, 3, 500, PAGES - 1] {
        match client.get(page).expect("transport") {
            bpw_server::Response::Ok(body) => {
                let id = u64::from_le_bytes(body[..8].try_into().unwrap());
                assert_eq!(id, page, "recovered read must be correct");
            }
            other => panic!("page {page} must recover after clear_faults: {other:?}"),
        }
    }
    assert_no_stuck_frames(&server);

    client.shutdown().expect("shutdown");
    drop(client); // close the socket so join() can reap its connection thread
    server.join();
    // Deadline-bounded check (not a single racy attempt): the listener
    // must stop accepting once join returns.
    assert!(
        bpw_server::poll_until(Duration::from_secs(5), || {
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
        }),
        "listener should be closed after join"
    );
}

fn chaos_loadgen_accounting_stays_exact_under_faults(mode: FrontendMode) {
    // The load generator's books must balance even when some replies are
    // ERR_IO: every request lands in exactly one tally bucket. Under the
    // event loop the clients also pipeline, so ERR_IO replies interleave
    // with OKs inside a batch and must still sequence correctly.
    let server = chaos_server(mode);
    let cfg = bpw_server::LoadConfig {
        connections: 4,
        requests_per_conn: 1000,
        write_fraction: 0.2,
        pipeline: if mode == FrontendMode::EventLoop {
            8
        } else {
            1
        },
        ..bpw_server::LoadConfig::default()
    };
    let workload = ZipfWorkload::new(PAGES, 0.86, 8);
    let report = loadgen::run(server.addr(), &workload, &cfg);
    assert_eq!(report.sent, 4 * 1000, "sent must equal the intended total");
    assert_eq!(
        report.ok + report.busy + report.dropped + report.errors + report.io_errors,
        report.sent,
        "every request lands in exactly one bucket"
    );
    assert_no_stuck_frames(&server);
    server.join();
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
    chaos_run_returns_correct_bytes_or_err_io_and_recovers,
    chaos_loadgen_accounting_stays_exact_under_faults,
);
