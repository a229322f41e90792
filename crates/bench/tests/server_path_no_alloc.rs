//! Neither frontend allocates a page buffer on a server thread, for a
//! GET miss, a 4 KiB PUT or a SCAN, nor for a resident GET: frames are
//! decoded in place, every request runs to completion on the thread that
//! read it, a GET's reply is copied from the frame into the connection's
//! write buffer, and a PUT's body is decoded into one buffer the thread
//! reuses. The server rows of the cost table (`costs/mod.rs`), once per
//! frontend. They count allocations of at least 1 KiB on every thread
//! but the client's, so this binary runs no other test.

mod costs;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

use bpw_server::metrics::Stage;
use bpw_server::{protocol, FrontendMode, OpKind, Request, Server, ServerConfig};
use costs::Pinned;

const FRAMES: usize = 64;
const PAGE: usize = 4096;
/// Four times the pool: most GETs miss.
const PAGES: u64 = 256;
const HITS: u64 = 1_000;
/// Lock cells of server threads would need new public API to read: only
/// their allocations of at least 1 KiB are pinned.
const NO_PAGE_BUFFER: Pinned = [None, None, None, Some(0)];

fn frame(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, &req.encode()).expect("Vec cannot fail");
    wire
}

/// Request `i` of a mix of GETs, 4 KiB PUTs and SCANs of 8 over every
/// page.
fn mixed(i: u64) -> Request {
    match i % 3 {
        0 => Request::Get {
            page: i * 7 % PAGES,
        },
        1 => {
            let page = i * 11 % PAGES;
            let mut data = vec![i as u8; PAGE];
            data[..8].copy_from_slice(&page.to_le_bytes());
            Request::Put { page, data }
        }
        _ => Request::Scan {
            start: i * 13 % (PAGES - 8),
            len: 8,
        },
    }
}

/// Strict request/reply: send a pre-encoded request, read its whole
/// reply into `buf`, check it is OK.
fn call(stream: &mut TcpStream, frame: &[u8], buf: &mut [u8]) {
    stream.write_all(frame).expect("request");
    let mut head = [0u8; 4];
    stream.read_exact(&mut head).expect("reply header");
    let len = u32::from_le_bytes(head) as usize;
    stream.read_exact(&mut buf[..len]).expect("reply body");
    assert_eq!(buf[0], 0, "{}", String::from_utf8_lossy(&buf[1..len]));
}

#[test]
fn requests_allocate_nothing_on_server_threads() {
    let rows: Vec<_> = [FrontendMode::Threaded, FrontendMode::EventLoop]
        .into_iter()
        .flat_map(measure)
        .collect();
    costs::check(&rows);
}

/// The two server rows of `mode`: a mix of GET misses, PUTs and SCANs,
/// and resident GETs, on one connection after a warm-up.
fn measure(mode: FrontendMode) -> [(&'static str, u64, Pinned, costs::Cost); 2] {
    let srv = Server::start(ServerConfig {
        workers: 1,
        frames: FRAMES,
        page_size: PAGE,
        pages: PAGES,
        mode,
        ..ServerConfig::default()
    })
    .expect("server start");
    // Every page is on the device, so a write-back overwrites its stored
    // copy in place instead of storing a first one.
    let mut page = vec![0u8; PAGE];
    for p in 0..PAGES {
        page[..8].copy_from_slice(&p.to_le_bytes());
        srv.pool().storage().write_page(p, &page).unwrap();
    }
    let mut stream = TcpStream::connect(srv.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = vec![0u8; PAGE + 16];
    // Warm up: PUT and GET every page once (the pool, the policy and the
    // buffers in circulation reach their steady size), then 200 of the mix.
    let warm_up = (0..PAGES)
        .map(|p| mixed(p * 3 + 1))
        .chain((0..PAGES).map(|page| Request::Get { page }))
        .chain((0..200).map(mixed));
    for req in warm_up {
        call(&mut stream, &frame(&req), &mut buf);
    }

    let measured: Vec<Vec<u8>> = (200..2_200).map(|i| frame(&mixed(i))).collect();
    let m = srv.metrics();
    let pool_misses = || srv.pool().stats().misses.load(Ordering::Relaxed);
    let get_misses = || m.stage(OpKind::Get, Stage::MissIo).count();
    let before = (pool_misses(), get_misses());
    let mix = costs::cost(|| {
        for f in &measured {
            call(&mut stream, f, &mut buf);
        }
    });
    // The mix really missed, and no request of it crossed to a queue.
    let missed = (pool_misses() - before.0, get_misses() - before.1);
    assert!(
        missed.0 > 1_600 && missed.1 > 300,
        "(pool misses, GET misses) {missed:?}"
    );
    assert_eq!(m.queue_wait_ns.count(), 0, "nothing waited in a queue");

    let get = frame(&Request::Get { page: 0 });
    call(&mut stream, &get, &mut buf);
    let inline = m.inline_hits.get();
    let resident = costs::cost(|| {
        for _ in 0..HITS {
            call(&mut stream, &get, &mut buf);
        }
    });
    assert_eq!(m.inline_hits.get() - inline, HITS, "all answered inline");
    drop(stream);
    srv.join();
    let (mix_row, resident_row) = match mode {
        FrontendMode::Threaded => ("threaded: GET miss, PUT, SCAN", "threaded: resident GET"),
        FrontendMode::EventLoop => (
            "event loop: GET miss, PUT, SCAN",
            "event loop: resident GET",
        ),
    };
    [
        // Frames decoded in place; the connection's thread runs each
        // request and copies a GET's reply from the frame.
        (mix_row, 2_000, NO_PAGE_BUFFER, mix),
        // Answered by the thread that read it, frame to write buffer.
        (resident_row, HITS, NO_PAGE_BUFFER, resident),
    ]
}
