//! Allocation audit for the event loop's queued path.
//!
//! In steady state, a GET that misses, a 4 KiB PUT and a SCAN make no
//! page-sized allocation on a server thread: frames are decoded from the
//! decoder's buffer in place, page buffers circulate between the loop
//! and the worker through the completion queue, and each connection's
//! reorder buffer is one ring. This test pins that with a counting
//! global allocator, which counts allocations of at least 1 KiB by any
//! thread but the test's own client: a `to_vec` of a page or a frame, or
//! a tree node per request, shows up as a nonzero count. CI runs it in
//! the release profile, the one the benchmark counts
//! `process.allocs_per_op` in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use bpw_server::metrics::Stage;
use bpw_server::{protocol, FrontendMode, OpKind, Request, Server, ServerConfig};

/// Allocations this large are counted. Smaller ones — a SCAN's 12-byte
/// payload, a policy's list node — are not what the queued path's
/// buffers are about.
const COUNTED: usize = 1024;

static COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the client's thread, whose allocations are not the server's.
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if size >= COUNTED && !CLIENT.try_with(Cell::get).unwrap_or(false) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every call is forwarded to `System` unchanged; counting
// touches only an atomic and a `const` thread-local without a destructor,
// neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const PAGE: usize = 4096;
/// Four times the pool: most GETs miss and queue for the worker.
const PAGES: u64 = 256;
const FRAMES: usize = 64;
const SCAN_LEN: u32 = 8;

fn frame(req: &Request) -> Vec<u8> {
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, &req.encode()).expect("Vec cannot fail");
    wire
}

/// Request `i` of a mix of GETs, 4 KiB PUTs and SCANs over every page.
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
            start: i * 13 % (PAGES - u64::from(SCAN_LEN)),
            len: SCAN_LEN,
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
    assert_eq!(
        buf[0],
        0,
        "status OK: {}",
        String::from_utf8_lossy(&buf[1..len])
    );
}

#[test]
fn queued_requests_allocate_nothing_on_server_threads() {
    CLIENT.with(|c| c.set(true));
    let server = Server::start(ServerConfig {
        workers: 1,
        frames: FRAMES,
        page_size: PAGE,
        pages: PAGES,
        mode: FrontendMode::EventLoop,
        ..ServerConfig::default()
    })
    .expect("server start");
    // Every page is on the device, so a write-back overwrites its stored
    // copy in place instead of storing a first one.
    let mut page = vec![0u8; PAGE];
    for p in 0..PAGES {
        page[..8].copy_from_slice(&p.to_le_bytes());
        server
            .pool()
            .storage()
            .write_page(p, &page)
            .expect("instant disk");
    }

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = vec![0u8; PAGE + 16];
    // Warm up: PUT and GET every page once (the pool, the policy and the
    // buffers in circulation reach their steady size), then 200 of the mix.
    let warm_up: Vec<Vec<u8>> = (0..PAGES)
        .map(|p| mixed(p * 3 + 1))
        .chain((0..PAGES).map(|page| Request::Get { page }))
        .chain((0..200).map(mixed))
        .map(|req| frame(&req))
        .collect();
    let measured: Vec<Vec<u8>> = (200..2_200).map(|i| frame(&mixed(i))).collect();
    for f in &warm_up {
        call(&mut stream, f, &mut buf);
    }

    let m = server.metrics();
    let queued_gets = m.stage(OpKind::Get, Stage::QueueWait).count();
    let queued = m.queue_wait_ns.count();
    let before = COUNT.load(Ordering::SeqCst);
    for f in &measured {
        call(&mut stream, f, &mut buf);
    }
    let allocations = COUNT.load(Ordering::SeqCst) - before;
    let queued = m.queue_wait_ns.count() - queued;
    let queued_gets = m.stage(OpKind::Get, Stage::QueueWait).count() - queued_gets;

    assert!(
        queued_gets > 300 && queued > 1_600,
        "the mix must exercise the queued path: {queued} queued, {queued_gets} of them GETs"
    );
    assert_eq!(
        allocations, 0,
        "{allocations} allocations of ≥ {COUNTED} bytes on server threads over {} queued requests",
        queued
    );
    drop(stream);
    server.join();
}
