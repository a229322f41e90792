//! The request engine: everything that happens to a request between
//! "frame complete" and "reply accounted", once, for both frontends.
//!
//! ```text
//! frame ─▶ route ─┬─▶ Reply / Fatal ───────────────────────────▶ write_reply
//!                 ├─▶ Resident(pin, ticket) ────────────────▶ Resident::reply
//!                 └─▶ Work(req, ticket) ─▶ answer ─┬─▶ past due: DROPPED ─▶ write_reply
//!                                                  └─▶ serve: execute ─▶ Resident::reply
//!                                                                      └▶ write_reply
//! ```
//!
//! A frontend (the threaded driver in [`crate::server`], the readiness
//! loops in [`crate::eventloop`]) owns sockets only: it hands complete
//! frame bodies and its thread's pool session to [`route`], and passes
//! each reply through [`answer`], [`write_reply`] or [`Resident::reply`]
//! with the writer that is its transport. Decoding, execution, the
//! deadline, control opcodes, stage attribution and per-status counters
//! live here.
//!
//! BP-Wrapper's rule is that the common path pays for no cross-processor
//! synchronisation, and under both frontends no path pays for it: the
//! thread that decoded a request runs it. `route` pins a GET whose page
//! is resident and the frontend answers from the frame; [`answer`] runs a
//! miss, a PUT or a SCAN to completion with the same thread's pool
//! session and writes the reply in request order. A miss holds its
//! thread — a connection's, or a loop's — and only that thread, for the
//! miss's device time.
//!
//! Every stage boundary is one clock read, shared by the stage it ends
//! and the one it starts ([`Ticket`]): `decode`, `pin_hit`, `miss_io`
//! and `reply_flush` sum exactly to the request's end-to-end sample.
//! `queue_wait` is never recorded, because nothing queues.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bpw_bufferpool::{PinnedPage, PoolSession, ReplacementManager};

use crate::exposition;
use crate::metrics::{OpKind, ServerMetrics, Stage};
use crate::protocol::{self, page_checksum, ProtocolError, Request, Response};
use crate::server::DynPool;

/// A thread's session against the server's pool: every event loop and
/// every threaded connection thread runs its requests through one.
pub(crate) type Session<'p> = PoolSession<'p, Box<dyn ReplacementManager>>;

/// A page pinned through a [`Session`].
type Pinned<'p> = PinnedPage<'p, Box<dyn ReplacementManager>>;

/// Shared state every thread of the server sees.
pub(crate) struct Shared {
    pub(crate) pool: Arc<DynPool>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) pages: u64,
}

/// What a data request carries from [`route`] to its written reply:
/// which histogram it lands in, when its clock started, and where its
/// current stage began.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    kind: OpKind,
    /// The instant the request's decode began: its end-to-end sample is
    /// measured from here.
    admitted: Instant,
    /// The last stage boundary: the current stage started here.
    mark: Instant,
}

/// What [`route`] made of one frame body.
pub(crate) enum Routed<'p> {
    /// A control opcode, answered inline: write this reply (in order)
    /// and carry on. Control requests are never dropped — observability
    /// and shutdown must keep working when the data path is saturated.
    Reply(Response),
    /// The body does not decode: write this `ERR`, then close the
    /// connection (framing is suspect).
    Fatal(Response),
    /// A data request to execute: [`answer`] it on the calling thread.
    Work(Request, Ticket),
    /// A GET whose page was resident: already pinned, to be answered by
    /// the calling thread before it does anything else.
    Resident(Resident<'p>),
}

/// A pinned page and the ticket of the GET that asked for it. The pin
/// must not be kept: [`reply`](Self::reply) at once.
pub(crate) struct Resident<'p> {
    page: Pinned<'p>,
    ticket: Ticket,
}

/// Count a protocol violation and build its `ERR` reply.
pub(crate) fn protocol_error(shared: &Shared, e: &ProtocolError) -> Response {
    shared.metrics.errors.incr();
    Response::Err(e.to_string())
}

/// Decode one complete frame body and decide where it goes. The
/// request clock starts here, when the frame's turn comes — not at an
/// epoll wakeup that may have delivered a whole pipeline burst.
///
/// `session` is the calling thread's: a GET of a resident page is pinned
/// with it. A PUT's data is decoded into a buffer popped from `spares`,
/// when it has one.
pub(crate) fn route<'p>(
    shared: &Shared,
    session: &mut Session<'p>,
    body: &[u8],
    spares: &mut Vec<Vec<u8>>,
) -> Routed<'p> {
    let admitted = Instant::now();
    let req = match Request::decode_in(body, spares) {
        Ok(req) => req,
        Err(e) => return Routed::Fatal(protocol_error(shared, &e)),
    };
    let Some(kind) = OpKind::of(&req) else {
        return Routed::Reply(control(shared, &req));
    };
    let mut ticket = Ticket {
        kind,
        admitted,
        mark: admitted,
    };
    let decode_ns = ticket.lap();
    shared.metrics.record_stage(kind, Stage::Decode, decode_ns);
    match req {
        Request::Get { page } if page < shared.pages => match session.fetch_resident(page) {
            Some(page) => {
                let pin_ns = ticket.lap();
                shared.metrics.record_stage(kind, Stage::PinHit, pin_ns);
                shared.metrics.inline_hits.incr();
                Routed::Resident(Resident { page, ticket })
            }
            // A page that is not there costs one lookup and leaves no
            // sample: its execution accounts the whole access.
            None => Routed::Work(req, ticket),
        },
        _ => Routed::Work(req, ticket),
    }
}

impl Resident<'_> {
    /// Write `[ST_OK] + frame bytes` straight from the frame into `w`,
    /// release the pin, and account the reply like any other. The pin,
    /// which is the page's read latch, is held for the copy only: `w` is
    /// a buffer, never the socket, so that a slow reader never keeps a
    /// write of the page waiting.
    pub(crate) fn reply(self, shared: &Shared, w: &mut impl Write) -> io::Result<()> {
        let Resident { page, ticket } = self;
        page.read(|data| protocol::write_response_unflushed(w, protocol::ST_OK, data))?;
        drop(page);
        ticket.complete(&shared.metrics, protocol::ST_OK);
        Ok(())
    }
}

/// Answer a data request on the calling thread — the frontend thread
/// that decoded it, with its own session — and write the reply into `w`.
/// `due` is when the request's deadline runs out, counted from the
/// socket read that completed its frame (`None`: no deadline). If its
/// turn came later, the reply is `DROPPED` and nothing is executed;
/// otherwise it runs to completion here. A PUT's data buffer goes back
/// to `spares` for the next PUT to decode into.
pub(crate) fn answer(
    shared: &Shared,
    session: &mut Session<'_>,
    req: Request,
    ticket: Ticket,
    due: Option<Instant>,
    spares: &mut Vec<Vec<u8>>,
    w: &mut impl Write,
) -> io::Result<()> {
    let written = match due {
        // The ticket's mark is the end of its decode: the request's
        // turn, read off a clock read that was taken anyway.
        Some(due) if ticket.mark > due => write_reply(shared, Some(ticket), &Response::Dropped, w),
        _ => serve(shared, session, &req, ticket, w),
    };
    if let Request::Put { data, .. } = req {
        // Only a page-sized body is worth keeping for the next PUT:
        // never a megabyte one.
        if data.capacity() <= 2 * shared.pool.page_size() {
            spares.push(data);
        }
    }
    written
}

/// Run a data request to completion on the calling thread and write
/// its reply into `w`: a GET's from the frame under the pin, as
/// [`Resident::reply`] does.
fn serve(
    shared: &Shared,
    session: &mut Session<'_>,
    req: &Request,
    mut ticket: Ticket,
    w: &mut impl Write,
) -> io::Result<()> {
    bpw_trace::stage::reset();
    let done = execute(session, shared, req);
    ticket.executed(&shared.metrics);
    match done {
        Executed::Page(page) => Resident { page, ticket }.reply(shared, w),
        Executed::Reply(resp) => write_reply(shared, Some(ticket), &resp, w),
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
            Response::Err("data requests are not control opcodes".into())
        }
    }
}

impl Ticket {
    /// End the current stage now and start the next: its length in
    /// nanoseconds, for one clock read.
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
        ns
    }

    /// End the execution stage: its time less the miss I/O the pool
    /// credited to this thread is `pin_hit`, the rest `miss_io`.
    fn executed(&mut self, m: &ServerMetrics) {
        let exec_ns = self.lap();
        let miss_io_ns = bpw_trace::stage::take().miss_io_ns;
        // Whatever execution spent beyond attributed miss I/O — batch
        // commits included — is the hit path's own cost.
        m.record_stage(self.kind, Stage::PinHit, exec_ns.saturating_sub(miss_io_ns));
        if miss_io_ns > 0 {
            m.record_stage(self.kind, Stage::MissIo, miss_io_ns);
        }
    }

    /// Account one reply that has just been handed to the transport:
    /// `reply_flush` ends now, and so does the request.
    pub(crate) fn complete(mut self, m: &ServerMetrics, status: u8) {
        let flush_ns = self.lap();
        let total_ns = self.mark.duration_since(self.admitted).as_nanos() as u64;
        m.record_stage(self.kind, Stage::ReplyFlush, flush_ns);
        match status {
            protocol::ST_OK => m.record_ok(self.kind, total_ns),
            protocol::ST_BUSY => m.busy.incr(),
            protocol::ST_DROPPED => m.dropped.incr(),
            protocol::ST_ERR => m.errors.incr(),
            protocol::ST_IO_ERR => m.io_errors.incr(),
            other => unreachable!("no response carries status {other:#04x}"),
        }
    }
}

/// Write `resp` as one frame into the frontend's reply buffer `w`, then
/// — for data requests, which carry a ticket — account the reply. A write error leaves the request unaccounted: nothing was
/// answered.
pub(crate) fn write_reply(
    shared: &Shared,
    ticket: Option<Ticket>,
    resp: &Response,
    w: &mut impl Write,
) -> io::Result<()> {
    protocol::write_response_unflushed(w, resp.status(), resp.payload())?;
    if let Some(ticket) = ticket {
        ticket.complete(&shared.metrics, resp.status());
    }
    Ok(())
}

/// What executing a data request produced.
enum Executed<'p> {
    /// A GET's page, pinned: its reply is written from the frame.
    Page(Pinned<'p>),
    /// Every other outcome: the reply itself.
    Reply(Response),
}

/// Run one data request against the pool.
fn execute<'p>(session: &mut Session<'p>, shared: &Shared, req: &Request) -> Executed<'p> {
    let page_size = shared.pool.page_size();
    let out_of_range = |what: String| Executed::Reply(Response::Err(what));
    match req {
        Request::Get { page } if *page >= shared.pages => {
            out_of_range(format!("page {page} outside 0..{}", shared.pages))
        }
        Request::Get { page } => match session.fetch(*page) {
            Ok(pinned) => Executed::Page(pinned),
            Err(e) => Executed::Reply(Response::IoError(e.to_string())),
        },
        Request::Put { page, .. } if *page >= shared.pages => {
            out_of_range(format!("page {page} outside 0..{}", shared.pages))
        }
        Request::Put { data, .. } if data.len() > page_size => {
            Executed::Reply(Response::Err(format!(
                "PUT of {} bytes exceeds the {page_size}-byte page",
                data.len()
            )))
        }
        Request::Put { page, data } => Executed::Reply(match session.fetch(*page) {
            Ok(pinned) => {
                pinned.write(|dst| dst[..data.len()].copy_from_slice(data));
                Response::Ok(Vec::new())
            }
            Err(e) => Response::IoError(e.to_string()),
        }),
        Request::Scan { start, len } => Executed::Reply(scan(session, shared, *start, *len)),
        // `route` answers control opcodes inline; none is executed.
        _ => Executed::Reply(Response::Err("control requests are not executed".into())),
    }
}

/// A SCAN's reply: its length and the checksum of its pages, in order.
fn scan(session: &mut Session<'_>, shared: &Shared, start: u64, len: u32) -> Response {
    let end = match start.checked_add(len as u64) {
        Some(end) if end <= shared.pages => end,
        _ => return Response::Err(format!("SCAN {start}+{len} outside 0..{}", shared.pages)),
    };
    let mut checksum = 0u64;
    for page in start..end {
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

#[cfg(test)]
mod tests {
    use super::*;
    use bpw_bufferpool::{BufferPool, SimDisk};
    use bpw_metrics::JsonValue;
    use std::time::Duration;

    /// A `Shared` over a small pool — no listener, no threads.
    fn shared() -> Shared {
        let manager = crate::build_manager("wrapped-2q", 16).expect("manager");
        let pool = BufferPool::new(16, 64, manager, Arc::new(SimDisk::instant()));
        Shared {
            pool: Arc::new(pool),
            metrics: ServerMetrics::shared(),
            stop: Arc::new(AtomicBool::new(false)),
            pages: 64,
        }
    }

    /// Route `req` as a frontend does.
    fn route_req<'p>(shared: &Shared, session: &mut Session<'p>, req: &Request) -> Routed<'p> {
        route(shared, session, &req.encode(), &mut Vec::new())
    }

    /// Route `req`, answer it as a frontend does, and return its reply
    /// frame.
    fn reply_to(shared: &Shared, session: &mut Session<'_>, req: &Request) -> Vec<u8> {
        let mut wire = Vec::new();
        match route_req(shared, session, req) {
            Routed::Work(req, ticket) => answer(
                shared,
                session,
                req,
                ticket,
                None,
                &mut Vec::new(),
                &mut wire,
            ),
            Routed::Resident(hit) => hit.reply(shared, &mut wire),
            Routed::Reply(resp) | Routed::Fatal(resp) => {
                write_reply(shared, None, &resp, &mut wire)
            }
        }
        .expect("Vec cannot fail");
        wire
    }

    /// What executing `req` replied, for a request that is not a GET.
    fn executed(session: &mut Session<'_>, shared: &Shared, req: &Request) -> Response {
        match execute(session, shared, req) {
            Executed::Reply(resp) => resp,
            Executed::Page(_) => panic!("{req:?} is not a GET"),
        }
    }

    /// Route a GET of a page that is not resident and take its ticket.
    fn cold_get_ticket(shared: &Shared, session: &mut Session<'_>, page: u64) -> Ticket {
        match route_req(shared, session, &Request::Get { page }) {
            Routed::Work(Request::Get { .. }, ticket) => ticket,
            _ => panic!("a cold GET is work to execute"),
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
        // GET (a miss, executed on this thread), STATS, GET (a hit,
        // answered in place), STATS: back to back, no pause between.
        assert!(matches!(
            route_req(&shared, session, &get),
            Routed::Work(..)
        ));
        reply_to(&shared, session, &get);
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
            match route(&shared, session, body, &mut Vec::new()) {
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
            let Routed::Work(routed, ticket) = route(&shared, session, &body, &mut Vec::new())
            else {
                panic!("{req:?} must be routed to execution");
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
    fn a_get_miss_is_served_from_its_frame_on_the_calling_thread() {
        let shared = shared();
        let m = &shared.metrics;
        let session = &mut shared.pool.session();
        let wire = reply_to(&shared, session, &Request::Get { page: 6 });
        assert_eq!(pool_counts(&shared), (0, 1), "one miss, no second lookup");
        let page = session.fetch(6).expect("instant disk").read(|d| d.to_vec());
        assert_eq!(wire, framed(&Response::Ok(page)), "the frame's bytes");
        assert_eq!((m.ok.get(), m.total(), m.inline_hits.get()), (1, 1, 0));
        assert_eq!(m.queue_wait_ns.count(), 0, "it never queued");
        assert!(
            shared.pool.invalidate(6).is_invalidated(),
            "the pin is released once the reply is written"
        );
    }

    /// Sum of the samples of every stage of `kind`.
    fn stage_sum(m: &ServerMetrics, kind: OpKind) -> u64 {
        Stage::ALL.iter().map(|&s| m.stage(kind, s).sum()).sum()
    }

    #[test]
    fn the_stages_of_one_request_sum_to_its_latency_sample() {
        let shared = shared();
        let m = &shared.metrics;
        let session = &mut shared.pool.session();
        // A miss, with miss I/O inside its execution, then a hit.
        for _ in 0..2 {
            let before = (stage_sum(m, OpKind::Get), m.get_ns.sum());
            reply_to(&shared, session, &Request::Get { page: 7 });
            assert_eq!(
                stage_sum(m, OpKind::Get) - before.0,
                m.get_ns.sum() - before.1,
                "decode + pin_hit + miss_io + reply_flush = get_ns"
            );
        }
        assert_eq!(m.stage(OpKind::Get, Stage::MissIo).count(), 1, "the miss");
        assert_eq!(m.inline_hits.get(), 1, "the hit");
        // A PUT and a SCAN executed on the calling thread close too.
        let put = Request::Put {
            page: 8,
            data: vec![2; 16],
        };
        reply_to(&shared, session, &put);
        assert_eq!(stage_sum(m, OpKind::Put), m.put_ns.sum());
        reply_to(&shared, session, &Request::Scan { start: 0, len: 4 });
        assert_eq!(stage_sum(m, OpKind::Scan), m.scan_ns.sum());
    }

    #[test]
    fn a_get_that_is_not_resident_or_not_allowed_is_work_and_touches_no_counter() {
        let shared = shared();
        let session = &mut shared.pool.session();
        // Cold: the lookup fails and counts nothing — execution's
        // fetch is the one miss, not a miss and a failed hit.
        let ticket = cold_get_ticket(&shared, session, 5);
        assert_eq!(pool_counts(&shared), (0, 0));
        assert_eq!(shared.metrics.inline_hits.get(), 0);
        assert_eq!(
            shared.metrics.stage(OpKind::Get, Stage::PinHit).count(),
            0,
            "execution accounts the whole access"
        );
        serve(
            &shared,
            session,
            &Request::Get { page: 5 },
            ticket,
            &mut Vec::new(),
        )
        .expect("Vec cannot fail");
        assert_eq!(pool_counts(&shared), (0, 1));

        // Out of range: left to execution's ERR, never looked up.
        let beyond = route_req(&shared, session, &Request::Get { page: 64 });
        assert!(matches!(beyond, Routed::Work(..)));
        assert_eq!(pool_counts(&shared), (0, 1));
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
        let scan = |session: &mut Session<'_>| match executed(session, &shared, &range) {
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
        assert_eq!(executed(session, &shared, &put), Response::Ok(Vec::new()));
        assert_ne!(
            scan(session),
            before,
            "a changed byte must change the checksum"
        );
    }

    #[test]
    fn a_request_whose_turn_came_past_due_is_dropped_unexecuted() {
        let shared = shared();
        let m = &shared.metrics;
        let session = &mut shared.pool.session();
        let spares = &mut Vec::new();
        let put = Request::Put {
            page: 2,
            data: vec![7; 16],
        };
        let Routed::Work(req, ticket) = route_req(&shared, session, &put) else {
            panic!("a PUT is work to execute");
        };
        // Due a nanosecond before its turn: DROPPED, and the pool never
        // sees it.
        let due = ticket.mark.checked_sub(Duration::from_nanos(1));
        let mut wire = Vec::new();
        answer(&shared, session, req, ticket, due, spares, &mut wire).expect("Vec cannot fail");
        assert_eq!(wire, framed(&Response::Dropped));
        assert_eq!((m.dropped.get(), m.total()), (1, 1));
        assert_eq!(pool_counts(&shared), (0, 0), "nothing was executed");
        assert_eq!(spares.len(), 1, "its body is kept for the next PUT");

        // Due a minute after: executed, into the kept buffer.
        let Routed::Work(req, ticket) = route(&shared, session, &put.encode(), spares) else {
            panic!("a PUT is work to execute");
        };
        assert!(spares.is_empty(), "decoded into the kept buffer");
        let due = Some(Instant::now() + Duration::from_secs(60));
        let mut wire = Vec::new();
        answer(&shared, session, req, ticket, due, spares, &mut wire).expect("Vec cannot fail");
        assert_eq!(wire, framed(&Response::Ok(Vec::new())));
        assert_eq!((m.ok.get(), m.total()), (1, 2));
        assert_eq!(pool_counts(&shared), (0, 1), "one miss");
    }
}
