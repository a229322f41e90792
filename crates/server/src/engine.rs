//! The request engine: everything that happens to a request between
//! "frame complete" and "reply accounted", once, for both frontends.
//!
//! ```text
//! frame ─▶ route ─┬─▶ Reply / Fatal ───────────────────────▶ write_reply
//!                 ├─▶ Resident(pin, ticket) ──────────▶ Resident::reply
//!                 └─▶ Work(req, ticket) ─▶ admission queue ─▶ worker_loop
//!                                  execute ─▶ Job::finish ─▶ write_reply
//!                                                  └▶ Ticket::complete
//! ```
//!
//! A frontend (the threaded driver in [`crate::server`], the readiness
//! loop in [`crate::eventloop`]) owns sockets and admission *blocking*
//! strategy only: it hands complete frame bodies and its thread's pool
//! session to [`route`], submits or offers the resulting [`Job`], and
//! passes each response through [`write_reply`] (or
//! [`Resident::reply`]) with the writer that is its transport.
//! Decoding, control opcodes, stage attribution and per-status
//! counters live here.
//!
//! BP-Wrapper's rule is that a hit touches nothing shared and only a
//! miss pays for synchronisation. `route` applies it to the request
//! path: a GET whose page is resident is pinned on the frontend thread
//! and answered from the frame, and never sees the admission queue, a
//! worker or the completion queue. Whatever is not resident — and every
//! PUT and SCAN — queues for a worker.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpw_bufferpool::{PinnedPage, PoolSession, ReplacementManager};
use crossbeam::channel::Sender;

use crate::backpressure::{Popped, WorkQueue};
use crate::eventloop::Completions;
use crate::exposition;
use crate::metrics::{OpKind, ServerMetrics, Stage};
use crate::protocol::{self, page_checksum, ProtocolError, Request, Response};
use crate::server::DynPool;

/// A thread's session against the server's pool: workers execute
/// queued requests through one, frontend threads pin resident pages
/// through one.
pub(crate) type Session<'p> = PoolSession<'p, Box<dyn ReplacementManager>>;

/// Shared state every thread of the server sees. Deliberately does NOT
/// hold the admission queue's sender side: workers carry this struct,
/// and a worker owning a sender to its own queue would keep the channel
/// connected forever and deadlock shutdown.
pub(crate) struct Shared {
    pub(crate) pool: Arc<DynPool>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) pages: u64,
    /// Queue-depth high-water mark (mirrors the admission queue's gauge).
    pub(crate) depth: Arc<bpw_metrics::MaxGauge>,
}

/// What a data request carries from [`route`] to its written reply:
/// which histogram it lands in and when its clock started.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    pub(crate) kind: OpKind,
    /// The instant the request's frame was complete — queue wait and
    /// every later stage are measured against it.
    pub(crate) admitted: Instant,
}

/// One queued request: the decoded message, its ticket, and where the
/// reply goes.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) ticket: Ticket,
    pub(crate) reply: ReplyTo,
}

/// Where a worker delivers a finished [`Response`]: a blocked
/// connection thread (threaded frontend) or the event loop's completion
/// queue, tagged with the connection token and pipeline sequence number
/// so the loop can put it back in request order.
pub(crate) enum ReplyTo {
    Channel(Sender<Response>),
    Loop {
        completions: Arc<Completions>,
        token: u64,
        seq: u64,
    },
}

impl Job {
    /// Deliver `resp`. A reply to the event loop also hands back the PUT
    /// body this job carried, and refills `spare` — the worker's buffer
    /// for its next reply — if the reply took it.
    fn finish(self, resp: Response, spare: &mut Vec<u8>) {
        match self.reply {
            ReplyTo::Channel(tx) => {
                // The receiver may have given up (connection died); the
                // work is simply discarded.
                let _ = tx.send(resp);
            }
            ReplyTo::Loop {
                completions,
                token,
                seq,
            } => {
                let body = match self.req {
                    Request::Put { data, .. } => data,
                    _ => Vec::new(),
                };
                completions.push(token, seq, resp, body, spare);
            }
        }
    }
}

/// What [`route`] made of one frame body.
pub(crate) enum Routed<'p> {
    /// A control opcode, answered inline: write this reply (in order)
    /// and carry on. Control requests bypass the queue — observability
    /// and shutdown must keep working when the data path is saturated.
    Reply(Response),
    /// The body does not decode: write this `ERR`, then close the
    /// connection (framing is suspect).
    Fatal(Response),
    /// A data request for the admission queue.
    Work(Request, Ticket),
    /// A GET whose page was resident: already pinned, to be answered by
    /// the calling thread before it does anything else.
    Resident(Resident<'p>),
}

/// A pinned page and the ticket of the GET that asked for it. The pin
/// must not be kept: [`reply`](Self::reply) when the reply is next on
/// the connection, [`into_response`](Self::into_response) when it is
/// not.
pub(crate) struct Resident<'p> {
    page: PinnedPage<'p, Box<dyn ReplacementManager>>,
    ticket: Ticket,
}

/// The reply to a data request that found the admission queue closed.
pub(crate) fn shutting_down() -> Response {
    Response::Err("server is shutting down".into())
}

/// Count a protocol violation and build its `ERR` reply.
pub(crate) fn protocol_error(shared: &Shared, e: &ProtocolError) -> Response {
    shared.metrics.errors.incr();
    Response::Err(e.to_string())
}

/// Decode one complete frame body and decide where it goes. The
/// request clock starts here, the moment the frame is whole — not at an
/// epoll wakeup that may have delivered a whole pipeline burst.
///
/// `session` is the calling thread's. `in_place` is the frontend's
/// word that nothing this connection sent earlier is still queued — a
/// GET answered here would otherwise overtake it (ordering is socket
/// state, so the frontend knows it and the engine does not). A PUT's
/// data is decoded into a buffer popped from `spares`, when it has one.
pub(crate) fn route<'p>(
    shared: &Shared,
    session: &mut Session<'p>,
    body: &[u8],
    in_place: bool,
    spares: &mut Vec<Vec<u8>>,
) -> Routed<'p> {
    let admitted = Instant::now();
    let req = match Request::decode_in(body, spares) {
        Ok(req) => req,
        Err(e) => return Routed::Fatal(protocol_error(shared, &e)),
    };
    let decode_ns = admitted.elapsed().as_nanos() as u64;
    let Some(kind) = OpKind::of(&req) else {
        return Routed::Reply(control(shared, &req));
    };
    let ticket = Ticket { kind, admitted };
    shared.metrics.record_stage(kind, Stage::Decode, decode_ns);
    let resident = match req {
        Request::Get { page } if page < shared.pages && in_place => {
            pin_resident(shared, session, page, ticket)
        }
        _ => None,
    };
    match resident {
        Some(hit) => Routed::Resident(hit),
        None => {
            // The hits this thread answered are still in its BP-Wrapper
            // queue. Commit them before a worker can run this request:
            // the policy then picks victims knowing every access the
            // connection made before it, in the order it made them.
            session.flush();
            Routed::Work(req, ticket)
        }
    }
}

/// The hit half of [`worker_loop`]'s execute step, on the calling
/// thread: pin `page` if it is resident and attribute the time. A page
/// that is not there costs one lookup and leaves no sample — the worker
/// that fetches it accounts the whole access.
fn pin_resident<'p>(
    shared: &Shared,
    session: &mut Session<'p>,
    page: u64,
    ticket: Ticket,
) -> Option<Resident<'p>> {
    let pin_t0 = Instant::now();
    let pinned = session.fetch_resident(page)?;
    let pin_ns = pin_t0.elapsed().as_nanos() as u64;
    let m = &shared.metrics;
    m.record_stage(ticket.kind, Stage::PinHit, pin_ns);
    m.inline_hits.incr();
    Some(Resident {
        page: pinned,
        ticket,
    })
}

impl Resident<'_> {
    /// Write `[ST_OK] + frame bytes` straight from the frame into `w`,
    /// release the pin, flush, and account the reply like any other.
    /// The pin, which is the page's read latch, is held for the copy
    /// only: `w` must buffer a whole reply frame without touching its
    /// socket, so that a slow reader never keeps a write of the page
    /// waiting.
    pub(crate) fn reply(self, shared: &Shared, w: &mut impl Write) -> io::Result<()> {
        let Resident { page, ticket } = self;
        let flush_t0 = Instant::now();
        page.read(|data| protocol::write_response_unflushed(w, protocol::ST_OK, data))?;
        drop(page);
        w.flush()?;
        let flush_ns = flush_t0.elapsed().as_nanos() as u64;
        ticket.complete(&shared.metrics, protocol::ST_OK, flush_ns);
        Ok(())
    }

    /// Copy the page out into `buf` and release the pin, for a reply
    /// that has to wait its turn behind earlier ones: [`write_reply`]
    /// takes it from here.
    pub(crate) fn into_response(self, buf: Vec<u8>) -> (Ticket, Response) {
        let bytes = self.page.read(|data| protocol::refill(buf, data));
        (self.ticket, Response::Ok(bytes))
    }
}

/// Answer a control opcode on the calling (frontend) thread.
fn control(shared: &Shared, req: &Request) -> Response {
    match req {
        Request::Stats => Response::Ok(exposition::stats_json(shared).into_bytes()),
        Request::Metrics => Response::Ok(exposition::metrics_text(shared).into_bytes()),
        Request::Shutdown => {
            // Flag the stop before acknowledging: a client that has seen
            // the OK must observe `stop_requested()` as true.
            shared.stop.store(true, Ordering::SeqCst);
            Response::Ok(Vec::new())
        }
        Request::Get { .. } | Request::Put { .. } | Request::Scan { .. } => {
            Response::Err("data requests are executed by workers".into())
        }
    }
}

impl Ticket {
    /// Account one reply that has just been handed to the transport,
    /// `flush_ns` after its serialization started.
    pub(crate) fn complete(self, m: &ServerMetrics, status: u8, flush_ns: u64) {
        let Ticket { kind, admitted } = self;
        let total_ns = admitted.elapsed().as_nanos() as u64;
        m.record_stage(kind, Stage::ReplyFlush, flush_ns);
        match status {
            protocol::ST_OK => m.record_ok(kind, total_ns),
            protocol::ST_BUSY => m.busy.incr(),
            protocol::ST_DROPPED => m.dropped.incr(),
            protocol::ST_ERR => m.errors.incr(),
            protocol::ST_IO_ERR => m.io_errors.incr(),
            other => unreachable!("no response carries status {other:#04x}"),
        }
    }
}

/// Write `resp` as one frame into the frontend's transport `w` and
/// flush it, then — for data requests, which carry a ticket — account
/// the reply. A write error leaves the request unaccounted: nothing was
/// answered.
pub(crate) fn write_reply(
    shared: &Shared,
    ticket: Option<Ticket>,
    resp: &Response,
    w: &mut impl Write,
) -> io::Result<()> {
    let flush_t0 = Instant::now();
    protocol::write_response_unflushed(w, resp.status(), resp.payload())?;
    w.flush()?;
    if let Some(ticket) = ticket {
        let flush_ns = flush_t0.elapsed().as_nanos() as u64;
        ticket.complete(&shared.metrics, resp.status(), flush_ns);
    }
    Ok(())
}

/// A worker: pop jobs, execute them against a long-lived
/// [`PoolSession`] — the per-thread state BP-Wrapper's batching needs
/// to amortize the replacement lock — and deliver the responses.
pub(crate) fn worker_loop(shared: &Shared, work: &WorkQueue<Job>) {
    let mut session = shared.pool.session();
    // The buffer the next GET reply is copied into; the event loop's
    // completion queue hands emptied ones back.
    let mut spare = Vec::new();
    loop {
        match work.pop(Duration::from_millis(50)) {
            Popped::Item(job) => {
                let Ticket { kind, admitted } = job.ticket;
                let waited_ns = admitted.elapsed().as_nanos() as u64;
                shared.metrics.queue_wait_ns.record(waited_ns);
                shared
                    .metrics
                    .record_stage(kind, Stage::QueueWait, waited_ns);
                // Fresh miss-I/O scratch for this request.
                bpw_trace::stage::reset();
                let exec_t0 = Instant::now();
                let resp = execute(&mut session, shared, &job.req, &mut spare);
                if work.is_empty() {
                    // About to go idle: commit this thread's deferred
                    // hits before the reply lets the connection's next
                    // GET be answered by its frontend thread. Between
                    // them the two threads then show the policy one
                    // connection's accesses in the order it made them,
                    // whichever thread happened to serve each.
                    session.flush();
                }
                let exec_ns = exec_t0.elapsed().as_nanos() as u64;
                let miss_io_ns = bpw_trace::stage::take().miss_io_ns;
                // Whatever execute() spent beyond attributed miss I/O —
                // batch commits included — is the hit path's own cost.
                let pin_hit = exec_ns.saturating_sub(miss_io_ns);
                shared.metrics.record_stage(kind, Stage::PinHit, pin_hit);
                if miss_io_ns > 0 {
                    shared.metrics.record_stage(kind, Stage::MissIo, miss_io_ns);
                }
                job.finish(resp, &mut spare);
            }
            Popped::Expired(job) => job.finish(Response::Dropped, &mut spare),
            Popped::Timeout => {
                // Idle: commit any deferred BP-Wrapper bookkeeping so the
                // replacement algorithm doesn't go stale between bursts.
                session.flush();
            }
            Popped::Disconnected => break,
        }
    }
}

/// Run one data request against the pool. A GET's page is copied into
/// `spare` (taken; a fresh buffer when it is empty).
fn execute(
    session: &mut Session<'_>,
    shared: &Shared,
    req: &Request,
    spare: &mut Vec<u8>,
) -> Response {
    let page_size = shared.pool.page_size();
    match req {
        Request::Get { page } => {
            if *page >= shared.pages {
                return Response::Err(format!("page {page} outside 0..{}", shared.pages));
            }
            match session.fetch(*page) {
                Ok(pinned) => {
                    Response::Ok(pinned.read(|data| protocol::refill(std::mem::take(spare), data)))
                }
                Err(e) => Response::IoError(e.to_string()),
            }
        }
        Request::Put { page, data } => {
            if *page >= shared.pages {
                return Response::Err(format!("page {page} outside 0..{}", shared.pages));
            }
            if data.len() > page_size {
                return Response::Err(format!(
                    "PUT of {} bytes exceeds the {page_size}-byte page",
                    data.len()
                ));
            }
            match session.fetch(*page) {
                Ok(pinned) => {
                    pinned.write(|dst| dst[..data.len()].copy_from_slice(data));
                    Response::Ok(Vec::new())
                }
                Err(e) => Response::IoError(e.to_string()),
            }
        }
        Request::Scan { start, len } => {
            let end = match start.checked_add(*len as u64) {
                Some(end) if end <= shared.pages => end,
                _ => {
                    return Response::Err(format!("SCAN {start}+{len} outside 0..{}", shared.pages))
                }
            };
            let mut checksum = 0u64;
            for page in *start..end {
                match session.fetch(page) {
                    Ok(pinned) => checksum = pinned.read(|data| page_checksum(checksum, data)),
                    Err(e) => return Response::IoError(e.to_string()),
                }
            }
            let mut payload = Vec::with_capacity(12);
            payload.extend_from_slice(&len.to_le_bytes());
            payload.extend_from_slice(&checksum.to_le_bytes());
            Response::Ok(payload)
        }
        // `route` answers control opcodes inline; none reaches the queue.
        _ => Response::Err("control requests are not executed by workers".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backpressure::{admission_queue, AdmissionPolicy, Admitted};
    use bpw_bufferpool::{BufferPool, SimDisk};
    use bpw_metrics::JsonValue;

    /// A `Shared` over a small pool — no listener, no threads.
    fn shared() -> Shared {
        let manager = crate::build_manager("wrapped-2q", 16).expect("manager");
        let pool = BufferPool::new(16, 64, manager, Arc::new(SimDisk::instant()));
        Shared {
            pool: Arc::new(pool),
            metrics: ServerMetrics::shared(),
            stop: Arc::new(AtomicBool::new(false)),
            pages: 64,
            depth: Arc::new(bpw_metrics::MaxGauge::new()),
        }
    }

    /// Route `req` as a frontend whose connection has nothing queued.
    fn route_req<'p>(shared: &Shared, session: &mut Session<'p>, req: &Request) -> Routed<'p> {
        route(shared, session, &req.encode(), true, &mut Vec::new())
    }

    /// Route a GET of a page that is not resident and take its ticket.
    fn cold_get_ticket(shared: &Shared, session: &mut Session<'_>, page: u64) -> Ticket {
        match route_req(shared, session, &Request::Get { page }) {
            Routed::Work(Request::Get { .. }, ticket) => ticket,
            _ => panic!("a cold GET is work for the queue"),
        }
    }

    fn pool_counts(shared: &Shared) -> (u64, u64) {
        let st = shared.pool.stats();
        (
            st.hits.load(Ordering::Relaxed),
            st.misses.load(Ordering::Relaxed),
        )
    }

    /// The frame `resp` travels in.
    fn framed(resp: &Response) -> Vec<u8> {
        let mut wire = Vec::new();
        protocol::write_frame_unflushed(&mut wire, &resp.encode()).expect("Vec cannot fail");
        wire
    }

    fn ok_text(routed: Routed<'_>) -> String {
        match routed {
            Routed::Reply(Response::Ok(bytes)) => String::from_utf8(bytes).expect("UTF-8"),
            _ => panic!("control opcodes are answered inline with OK"),
        }
    }

    /// The `(pool_hits, pool_misses)` a STATS reply reports.
    fn scraped_counts(shared: &Shared, session: &mut Session<'_>) -> (u64, u64) {
        let stats = ok_text(route_req(shared, session, &Request::Stats));
        let v = JsonValue::parse(&stats).expect("STATS JSON");
        let count = |key| v.get(key).and_then(JsonValue::as_u64).expect(key);
        (count("pool_hits"), count("pool_misses"))
    }

    #[test]
    fn every_scrape_reads_the_live_pool_counters() {
        let shared = shared();
        let session = &mut shared.pool.session();
        let get = Request::Get { page: 3 };
        // GET (a miss, executed as a worker would), STATS, GET (a hit,
        // answered in place), STATS: back to back, no pause between.
        let Routed::Work(req, _) = route_req(&shared, session, &get) else {
            panic!("page 3 is cold");
        };
        execute(session, &shared, &req, &mut Vec::new());
        let first = scraped_counts(&shared, session);
        assert_eq!(first, pool_counts(&shared), "the first scrape is exact");
        let Routed::Resident(hit) = route_req(&shared, session, &get) else {
            panic!("page 3 is resident");
        };
        hit.reply(&shared, &mut Vec::new())
            .expect("Vec cannot fail");
        let second = scraped_counts(&shared, session);
        assert_eq!(second, pool_counts(&shared), "the second scrape is exact");
        assert_eq!(
            second.0 + second.1,
            first.0 + first.1 + 1,
            "one fetch between the two scrapes"
        );
    }

    #[test]
    fn control_opcodes_are_answered_inline_and_uncounted() {
        let shared = shared();
        let session = &mut shared.pool.session();
        let stats = ok_text(route_req(&shared, session, &Request::Stats));
        assert!(JsonValue::parse(&stats)
            .expect("STATS JSON")
            .get("ok")
            .is_some());
        let metrics = ok_text(route_req(&shared, session, &Request::Metrics));
        assert!(bpw_trace::validate_exposition(&metrics).expect("exposition") > 20);

        assert!(!shared.stop.load(Ordering::SeqCst));
        assert_eq!(ok_text(route_req(&shared, session, &Request::Shutdown)), "");
        assert!(
            shared.stop.load(Ordering::SeqCst),
            "SHUTDOWN flags the stop before its OK"
        );
        assert_eq!(
            shared.metrics.total(),
            0,
            "control replies bump no status counter"
        );
    }

    #[test]
    fn malformed_body_is_fatal_and_counted_once() {
        let shared = shared();
        let session = &mut shared.pool.session();
        for body in [&[0xFFu8][..], &[0x01, 1, 2], &[0x04, 9]] {
            let before = shared.metrics.errors.get();
            match route(&shared, session, body, true, &mut Vec::new()) {
                Routed::Fatal(resp @ Response::Err(_)) => assert_eq!(resp.status(), 3),
                _ => panic!("{body:?} must be answered ERR and close the connection"),
            }
            assert_eq!(shared.metrics.errors.get(), before + 1);
        }
        assert_eq!(shared.metrics.total(), 3);
    }

    #[test]
    fn data_requests_get_a_ticket_and_a_decode_sample() {
        let shared = shared();
        let session = &mut shared.pool.session();
        for (req, kind) in [
            (Request::Get { page: 3 }, OpKind::Get),
            (
                Request::Put {
                    page: 3,
                    data: vec![1; 8],
                },
                OpKind::Put,
            ),
            (Request::Scan { start: 0, len: 4 }, OpKind::Scan),
        ] {
            let body = req.encode();
            let Routed::Work(routed, ticket) =
                route(&shared, session, &body, true, &mut Vec::new())
            else {
                panic!("{req:?} must be routed to the workers");
            };
            assert_eq!(routed, req);
            assert_eq!(ticket.kind, kind);
            assert_eq!(shared.metrics.stage(kind, Stage::Decode).count(), 1);
        }
        assert_eq!(
            shared.metrics.total(),
            0,
            "nothing is counted before its reply"
        );
    }

    #[test]
    fn a_resident_get_is_answered_in_place_and_counted_once() {
        let shared = shared();
        let m = &shared.metrics;
        let session = &mut shared.pool.session();
        let mut stamp = vec![0xC3u8; 64];
        stamp[..8].copy_from_slice(&9u64.to_le_bytes());
        session
            .fetch(9)
            .expect("instant disk")
            .write(|d| d.copy_from_slice(&stamp));
        let pool_before = pool_counts(&shared);

        let Routed::Resident(hit) = route_req(&shared, session, &Request::Get { page: 9 }) else {
            panic!("a GET of a resident page is pinned by the routing thread");
        };
        assert_eq!(m.total(), 0, "nothing is counted before its reply");
        let mut wire = Vec::new();
        hit.reply(&shared, &mut wire).expect("Vec cannot fail");

        assert_eq!(wire, framed(&Response::Ok(stamp)), "frame bytes, as is");
        assert_eq!(
            (m.ok.get(), m.total()),
            (1, 1),
            "exactly one status counter"
        );
        assert_eq!((m.inline_hits.get(), m.get_ns.count()), (1, 1));
        for (stage, samples) in [
            (Stage::Decode, 1),
            (Stage::QueueWait, 0),
            (Stage::PinHit, 1),
            (Stage::MissIo, 0),
            (Stage::ReplyFlush, 1),
        ] {
            assert_eq!(m.stage(OpKind::Get, stage).count(), samples, "{stage:?}");
        }
        assert_eq!(m.queue_wait_ns.count(), 0, "it never queued");
        assert_eq!(
            pool_counts(&shared),
            (pool_before.0 + 1, pool_before.1),
            "one hit"
        );
        assert!(
            shared.pool.invalidate(9).is_invalidated(),
            "the pin is released once the reply is written"
        );
    }

    #[test]
    fn a_resident_get_that_must_wait_its_turn_is_copied_out_unpinned() {
        let shared = shared();
        let session = &mut shared.pool.session();
        drop(session.fetch(4).expect("instant disk"));
        let Routed::Resident(hit) = route_req(&shared, session, &Request::Get { page: 4 }) else {
            panic!("page 4 is resident");
        };
        let page = session.fetch(4).expect("instant disk").read(|d| d.to_vec());
        let recycled = vec![0xEE; 256];
        let at = recycled.as_ptr();
        let (ticket, resp) = hit.into_response(recycled);
        assert!(
            shared.pool.invalidate(4).is_invalidated(),
            "no pin is held while the reply waits"
        );
        let mut wire = Vec::new();
        write_reply(&shared, Some(ticket), &resp, &mut wire).expect("Vec cannot fail");
        assert_eq!(wire, framed(&resp));
        let Response::Ok(bytes) = resp else {
            panic!("a resident GET is answered OK");
        };
        assert_eq!(
            bytes, page,
            "the frame's bytes, none of the buffer's old ones"
        );
        assert_eq!(bytes.as_ptr(), at, "copied into the recycled buffer");
        let m = &shared.metrics;
        assert_eq!((m.ok.get(), m.total(), m.inline_hits.get()), (1, 1, 1));
    }

    #[test]
    fn a_get_miss_is_copied_into_the_workers_recycled_buffer() {
        let shared = shared();
        let session = &mut shared.pool.session();
        let mut spare = vec![0xEE; 256];
        let at = spare.as_ptr();
        let resp = execute(session, &shared, &Request::Get { page: 6 }, &mut spare);
        assert!(spare.is_empty(), "the reply took the spare");
        let Response::Ok(bytes) = resp else {
            panic!("GET answered {resp:?}");
        };
        assert_eq!(bytes.as_ptr(), at, "no fresh buffer");
        let page = session.fetch(6).expect("instant disk").read(|d| d.to_vec());
        assert_eq!(
            bytes, page,
            "the frame's bytes, none of the buffer's old ones"
        );

        // A PUT and a SCAN leave the spare alone.
        let mut spare = Vec::with_capacity(64);
        let put = Request::Put {
            page: 6,
            data: vec![1; 8],
        };
        assert_eq!(
            execute(session, &shared, &put, &mut spare),
            Response::Ok(Vec::new())
        );
        let scan = Request::Scan { start: 0, len: 2 };
        assert!(matches!(
            execute(session, &shared, &scan, &mut spare),
            Response::Ok(_)
        ));
        assert_eq!(spare.capacity(), 64);
    }

    #[test]
    fn a_get_that_is_not_resident_or_not_allowed_is_work_and_touches_no_counter() {
        let shared = shared();
        let session = &mut shared.pool.session();
        // Cold: the lookup fails and counts nothing — the worker's
        // fetch is the one miss, not a miss and a failed hit.
        let ticket = cold_get_ticket(&shared, session, 5);
        assert_eq!(pool_counts(&shared), (0, 0));
        assert_eq!(shared.metrics.inline_hits.get(), 0);
        assert_eq!(
            shared.metrics.stage(OpKind::Get, Stage::PinHit).count(),
            0,
            "the worker accounts the whole access"
        );
        let resp = execute(session, &shared, &Request::Get { page: 5 }, &mut Vec::new());
        assert!(matches!(resp, Response::Ok(_)));
        assert_eq!(pool_counts(&shared), (0, 1));
        write_reply(&shared, Some(ticket), &resp, &mut Vec::new()).expect("Vec cannot fail");

        // Resident now, but the frontend says earlier requests of the
        // connection are still queued: the pool is not even asked.
        let get = Request::Get { page: 5 }.encode();
        let behind = route(&shared, session, &get, false, &mut Vec::new());
        assert!(matches!(behind, Routed::Work(Request::Get { page: 5 }, _)));
        assert_eq!(pool_counts(&shared), (0, 1));
        // Out of range: left to the worker's ERR, never looked up.
        let beyond = route_req(&shared, session, &Request::Get { page: 64 });
        assert!(matches!(beyond, Routed::Work(..)));
        assert_eq!(shared.metrics.inline_hits.get(), 0);
    }

    #[test]
    fn each_response_variant_bumps_exactly_one_status_counter() {
        let shared = shared();
        let session = &mut shared.pool.session();
        let m = &shared.metrics;
        let counters = [&m.ok, &m.busy, &m.dropped, &m.errors, &m.io_errors];
        let cases = [
            Response::Ok(vec![1, 2]),
            Response::Busy,
            Response::Dropped,
            Response::Err("bad".into()),
            Response::IoError("disk".into()),
        ];
        for (i, resp) in cases.iter().enumerate() {
            assert_eq!(resp.status(), resp.encode()[0]);
            assert_eq!(resp.status() as usize, i, "status bytes index the counters");
            let ticket = cold_get_ticket(&shared, session, 0);
            let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
            let mut wire = Vec::new();
            write_reply(&shared, Some(ticket), resp, &mut wire).expect("Vec cannot fail");
            assert_eq!(wire, framed(resp), "the transport sees the encoded frame");
            for (j, c) in counters.iter().enumerate() {
                assert_eq!(
                    c.get() - before[j],
                    (i == j) as u64,
                    "reply {i}, counter {j}"
                );
            }
        }
        assert_eq!(m.get_ns.count(), 1, "only OK replies record latency");
        assert_eq!(m.stage(OpKind::Get, Stage::ReplyFlush).count(), 5);
    }

    /// A transport whose peer is gone.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_sink_leaves_the_request_unaccounted() {
        let shared = shared();
        let session = &mut shared.pool.session();
        let ticket = cold_get_ticket(&shared, session, 0);
        assert!(write_reply(&shared, Some(ticket), &Response::Busy, &mut Broken).is_err());

        drop(session.fetch(1).expect("instant disk"));
        let Routed::Resident(hit) = route_req(&shared, session, &Request::Get { page: 1 }) else {
            panic!("page 1 is resident");
        };
        assert!(hit.reply(&shared, &mut Broken).is_err());
        assert_eq!(shared.metrics.total(), 0);
        assert!(
            shared.pool.invalidate(1).is_invalidated(),
            "a reply that could not be written still releases its pin"
        );
    }

    #[test]
    fn a_one_byte_put_inside_a_scan_changes_its_checksum() {
        let shared = shared();
        let session = &mut shared.pool.session();
        let range = Request::Scan { start: 8, len: 8 };
        let scan = |session: &mut Session<'_>| match execute(session, &shared, &range, &mut vec![])
        {
            Response::Ok(payload) => {
                assert_eq!(payload.len(), 12);
                u64::from_le_bytes(payload[4..].try_into().unwrap())
            }
            other => panic!("SCAN answered {other:?}"),
        };
        let before = scan(session);
        assert_eq!(
            before,
            scan(session),
            "an unchanged range checksums the same"
        );
        assert_eq!(before >> 32, 0, "CRC-32C leaves the high half zero");
        // Page 11's content is its id, then its fill byte: flip one bit
        // of the byte after the id.
        let mut head = 11u64.to_le_bytes().to_vec();
        head.push(SimDisk::fill_byte(11) ^ 1);
        let put = Request::Put {
            page: 11,
            data: head,
        };
        assert_eq!(
            execute(session, &shared, &put, &mut Vec::new()),
            Response::Ok(Vec::new())
        );
        assert_ne!(
            scan(session),
            before,
            "a changed byte must change the checksum"
        );
    }

    #[test]
    fn a_worker_executes_routed_jobs_without_a_socket() {
        let shared = Arc::new(shared());
        let (admission, work) = admission_queue(4, AdmissionPolicy::Block);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, &work))
        };
        let session = &mut shared.pool.session();
        let mut call = |req: Request| {
            let Routed::Work(req, ticket) = route_req(&shared, session, &req) else {
                panic!("a request for the queue expected");
            };
            let (tx, rx) = crossbeam::channel::bounded(1);
            let job = Job {
                req,
                ticket,
                reply: ReplyTo::Channel(tx),
            };
            assert_eq!(admission.submit(job), Admitted::Queued);
            rx.recv().expect("worker replies")
        };
        let mut data = vec![0xAB; 16];
        data[..8].copy_from_slice(&5u64.to_le_bytes());
        assert_eq!(
            call(Request::Put {
                page: 5,
                data: data.clone()
            }),
            Response::Ok(Vec::new())
        );
        assert!(
            matches!(call(Request::Scan { start: 0, len: 8 }), Response::Ok(p) if p.len() == 12)
        );
        match call(Request::Get { page: 20 }) {
            Response::Ok(bytes) => assert_eq!(bytes[..8], 20u64.to_le_bytes()),
            other => panic!("GET answered {other:?}"),
        }
        assert!(matches!(call(Request::Get { page: 64 }), Response::Err(_)));
        assert_eq!(
            shared.metrics.stage(OpKind::Get, Stage::QueueWait).count(),
            2
        );
        // What the worker wrote and loaded is resident for the frontend.
        let Routed::Resident(hit) = route_req(&shared, session, &Request::Get { page: 5 }) else {
            panic!("the PUT left page 5 resident");
        };
        let mut wire = Vec::new();
        hit.reply(&shared, &mut wire).expect("Vec cannot fail");
        assert_eq!(wire[5..21], data[..]);
        drop(admission);
        worker.join().expect("worker exits when the queue closes");
    }
}
