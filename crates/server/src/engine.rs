//! The request engine: everything that happens to a request between
//! "frame complete" and "reply accounted", once, for both frontends.
//!
//! ```text
//! frame ─▶ route ─┬─▶ Reply / Fatal ───────────────────────▶ write_reply
//!                 └─▶ Work(req, ticket) ─▶ admission queue ─▶ worker_loop
//!                                  execute ─▶ ReplyTo::send ─▶ write_reply
//!                                                  └▶ Ticket::complete
//! ```
//!
//! A frontend (the threaded driver in [`crate::server`], the readiness
//! loop in [`crate::eventloop`]) owns sockets and admission *blocking*
//! strategy only: it hands complete frame bodies to [`route`], submits
//! or offers the resulting [`Job`], and passes each response through
//! [`write_reply`] with a sink that puts the bytes on its transport.
//! Decoding, control opcodes, request identity, stage attribution,
//! trace events, flight capture and per-status counters live here.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bpw_bufferpool::{PoolSession, ReplacementManager};
use crossbeam::channel::Sender;

use crate::backpressure::{Popped, WorkQueue};
use crate::eventloop::Completions;
use crate::exposition::{self, PoolSide};
use crate::metrics::{OpKind, ServerMetrics, Stage};
use crate::protocol::{fnv1a, ProtocolError, Request, Response};
use crate::server::{AdaptiveShared, DynPool};

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
    /// Seqlock-cached pool-side aggregation for STATS/METRICS: one
    /// scrape per [`exposition::STATS_TTL`] pays the counter walk; the
    /// rest read the published snapshot without touching data-path
    /// cache lines.
    pub(crate) stats_cache: bpw_metrics::SnapshotCache<PoolSide>,
    /// Present when the config enabled `--adaptive`.
    pub(crate) adaptive: Option<Arc<AdaptiveShared>>,
}

/// Request-scoped identity, minted by [`route`] and carried with the
/// job so every layer (queue, worker, pool, commit, reply) can stamp
/// its trace events and stage samples with the owning request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestCtx {
    /// Process-unique request id (never 0 — 0 means "unattributed").
    pub(crate) id: u64,
    /// The owning connection's id.
    pub(crate) conn: u64,
    /// The request's opcode byte.
    pub(crate) opcode: u8,
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Mint a process-unique connection id (monotonic, starts at 1).
pub(crate) fn next_conn_id() -> u64 {
    NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed)
}

/// What a data request carries from [`route`] to its written reply:
/// which histogram it lands in, when its clock started, who it is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    pub(crate) kind: OpKind,
    /// The instant the request's frame was complete — queue wait and
    /// every later stage are measured against it.
    pub(crate) admitted: Instant,
    pub(crate) ctx: RequestCtx,
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

impl ReplyTo {
    pub(crate) fn send(self, resp: Response) {
        match self {
            ReplyTo::Channel(tx) => {
                // The receiver may have given up (connection died); the
                // work is simply discarded.
                let _ = tx.send(resp);
            }
            ReplyTo::Loop {
                completions,
                token,
                seq,
            } => completions.push(token, seq, resp),
        }
    }
}

/// What [`route`] made of one frame body.
pub(crate) enum Routed {
    /// A control opcode, answered inline: write this reply (in order)
    /// and carry on. Control requests bypass the queue — observability
    /// and shutdown must keep working when the data path is saturated.
    Reply(Response),
    /// The body does not decode: write this `ERR`, then close the
    /// connection (framing is suspect).
    Fatal(Response),
    /// A data request for the admission queue.
    Work(Request, Ticket),
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
pub(crate) fn route(shared: &Shared, conn: u64, body: &[u8]) -> Routed {
    let admitted = Instant::now();
    let req = match Request::decode(body) {
        Ok(req) => req,
        Err(e) => return Routed::Fatal(protocol_error(shared, &e)),
    };
    let decode_ns = admitted.elapsed().as_nanos() as u64;
    let Some(kind) = OpKind::of(&req) else {
        return Routed::Reply(control(shared, &req));
    };
    let ctx = RequestCtx {
        id: NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed),
        conn,
        opcode: req.opcode(),
    };
    shared.metrics.record_stage(kind, Stage::Decode, decode_ns);
    // Attribute the enqueue event, then detach: the calling thread may
    // go on to other requests, and its own spans must stay unowned.
    bpw_trace::set_current_request(ctx.id);
    bpw_trace::instant(bpw_trace::EventKind::ServerEnqueue, ctx.opcode as u64);
    bpw_trace::set_current_request(0);
    Routed::Work(
        req,
        Ticket {
            kind,
            admitted,
            ctx,
        },
    )
}

/// Answer a control opcode on the calling (frontend) thread.
fn control(shared: &Shared, req: &Request) -> Response {
    match req {
        Request::Stats => Response::Ok(exposition::stats_json(shared).into_bytes()),
        Request::Metrics => Response::Ok(exposition::metrics_text(shared).into_bytes()),
        Request::Exemplars => Response::Ok(bpw_trace::flight::exemplars_json().into_bytes()),
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
    pub(crate) fn complete(self, m: &ServerMetrics, resp: &Response, flush_ns: u64) {
        let Ticket {
            kind,
            admitted,
            ctx,
        } = self;
        let status = resp.status();
        let total_ns = admitted.elapsed().as_nanos() as u64;
        m.record_stage(kind, Stage::ReplyFlush, flush_ns);
        // The reply span must land in the ring BEFORE a flight capture
        // snapshots it, or the exemplar's chain ends at the worker.
        bpw_trace::set_current_request(ctx.id);
        bpw_trace::span_backdated(bpw_trace::EventKind::ServerReply, total_ns, status as u64);
        if bpw_trace::flight::should_capture(total_ns, status) {
            m.record_slo_violation(kind);
            bpw_trace::flight::capture(ctx.id, ctx.conn, ctx.opcode, status, total_ns);
        }
        bpw_trace::set_current_request(0);
        match resp {
            Response::Ok(_) => m.record_ok(kind, total_ns),
            Response::Busy => m.busy.incr(),
            Response::Dropped => m.dropped.incr(),
            Response::Err(_) => m.errors.incr(),
            Response::IoError(_) => m.io_errors.incr(),
        }
    }
}

/// Serialize `resp` and hand the frame body to the frontend's `sink`
/// (which adds the length prefix on its transport), then — for data
/// requests, which carry a ticket — account the reply. A sink error
/// leaves the request unaccounted: nothing was answered.
pub(crate) fn write_reply(
    shared: &Shared,
    ticket: Option<Ticket>,
    resp: &Response,
    sink: impl FnOnce(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let Some(ticket) = ticket else {
        return sink(&resp.encode());
    };
    let flush_t0 = Instant::now();
    sink(&resp.encode())?;
    let flush_ns = flush_t0.elapsed().as_nanos() as u64;
    ticket.complete(&shared.metrics, resp, flush_ns);
    Ok(())
}

/// A worker: pop jobs, execute them against a long-lived
/// [`PoolSession`] — the per-thread state BP-Wrapper's batching needs
/// to amortize the replacement lock — and deliver the responses.
pub(crate) fn worker_loop(shared: &Shared, work: &WorkQueue<Job>) {
    let mut session = shared.pool.session();
    loop {
        match work.pop(Duration::from_millis(50)) {
            Popped::Item(job) => {
                let Ticket {
                    kind,
                    admitted,
                    ctx,
                } = job.ticket;
                bpw_trace::set_current_request(ctx.id);
                let waited_ns = admitted.elapsed().as_nanos() as u64;
                shared.metrics.queue_wait_ns.record(waited_ns);
                bpw_trace::span_backdated(
                    bpw_trace::EventKind::ServerDequeue,
                    waited_ns,
                    ctx.opcode as u64,
                );
                shared
                    .metrics
                    .record_stage(kind, Stage::QueueWait, waited_ns);
                // Fresh stage scratch for this request (an idle-timeout
                // flush may have left commit time behind on this thread).
                bpw_trace::stage::reset();
                let span = bpw_trace::span_start();
                let exec_t0 = Instant::now();
                let resp = execute(&mut session, shared, &job.req);
                let exec_ns = exec_t0.elapsed().as_nanos() as u64;
                bpw_trace::span_end(bpw_trace::EventKind::PinOrMiss, span, ctx.opcode as u64);
                let scratch = bpw_trace::stage::take();
                // Whatever execute() spent beyond attributed miss I/O
                // and batch commits is the hit path's own cost.
                let pin_hit = exec_ns.saturating_sub(scratch.miss_io_ns + scratch.batch_commit_ns);
                shared.metrics.record_stage(kind, Stage::PinHit, pin_hit);
                if scratch.miss_io_ns > 0 {
                    shared
                        .metrics
                        .record_stage(kind, Stage::MissIo, scratch.miss_io_ns);
                }
                if scratch.batch_commit_ns > 0 {
                    shared
                        .metrics
                        .record_stage(kind, Stage::BatchCommit, scratch.batch_commit_ns);
                }
                job.reply.send(resp);
                bpw_trace::set_current_request(0);
            }
            Popped::Expired(job) => {
                job.reply.send(Response::Dropped);
            }
            Popped::Timeout => {
                // Idle: commit any deferred BP-Wrapper bookkeeping so the
                // replacement algorithm doesn't go stale between bursts.
                session.flush();
            }
            Popped::Disconnected => break,
        }
    }
}

/// Run one data request against the pool.
fn execute(
    session: &mut PoolSession<'_, Box<dyn ReplacementManager>>,
    shared: &Shared,
    req: &Request,
) -> Response {
    let page_size = shared.pool.page_size();
    match req {
        Request::Get { page } => {
            if *page >= shared.pages {
                return Response::Err(format!("page {page} outside 0..{}", shared.pages));
            }
            match session.fetch(*page) {
                Ok(pinned) => Response::Ok(pinned.read(|data| data.to_vec())),
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
                    Ok(pinned) => checksum = pinned.read(|data| fnv1a(checksum, data)),
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
            stats_cache: bpw_metrics::SnapshotCache::default(),
            adaptive: None,
        }
    }

    fn ok_text(routed: Routed) -> String {
        match routed {
            Routed::Reply(Response::Ok(bytes)) => String::from_utf8(bytes).expect("UTF-8"),
            _ => panic!("control opcodes are answered inline with OK"),
        }
    }

    #[test]
    fn control_opcodes_are_answered_inline_and_uncounted() {
        let shared = shared();
        let stats = ok_text(route(&shared, 1, &Request::Stats.encode()));
        assert!(JsonValue::parse(&stats)
            .expect("STATS JSON")
            .get("ok")
            .is_some());
        let metrics = ok_text(route(&shared, 1, &Request::Metrics.encode()));
        assert!(bpw_trace::validate_exposition(&metrics).expect("exposition") > 20);
        let exemplars = ok_text(route(&shared, 1, &Request::Exemplars.encode()));
        assert!(JsonValue::parse(&exemplars)
            .expect("EXEMPLARS JSON")
            .get("traceEvents")
            .is_some());

        assert!(!shared.stop.load(Ordering::SeqCst));
        assert_eq!(ok_text(route(&shared, 1, &Request::Shutdown.encode())), "");
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
        for body in [&[0xFFu8][..], &[0x01, 1, 2], &[0x04, 9]] {
            let before = shared.metrics.errors.get();
            match route(&shared, 1, body) {
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
        let mut last_id = 0;
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
            let Routed::Work(routed, ticket) = route(&shared, 7, &req.encode()) else {
                panic!("{req:?} must be routed to the workers");
            };
            assert_eq!(routed, req);
            assert_eq!(ticket.kind, kind);
            assert_eq!((ticket.ctx.conn, ticket.ctx.opcode), (7, req.opcode()));
            assert!(ticket.ctx.id > last_id, "request ids are minted in order");
            last_id = ticket.ctx.id;
            assert_eq!(shared.metrics.stage(kind, Stage::Decode).count(), 1);
        }
        assert_eq!(
            shared.metrics.total(),
            0,
            "nothing is counted before its reply"
        );
    }

    #[test]
    fn each_response_variant_bumps_exactly_one_status_counter() {
        let shared = shared();
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
            let Routed::Work(_, ticket) = route(&shared, 1, &Request::Get { page: 0 }.encode())
            else {
                panic!("GET is a data request");
            };
            let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
            let mut wire = Vec::new();
            write_reply(&shared, Some(ticket), resp, |body| {
                wire.extend_from_slice(body);
                Ok(())
            })
            .expect("sink cannot fail");
            assert_eq!(wire, resp.encode(), "the sink sees the encoded body");
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

    #[test]
    fn a_failed_sink_leaves_the_request_unaccounted() {
        let shared = shared();
        let Routed::Work(_, ticket) = route(&shared, 1, &Request::Get { page: 0 }.encode()) else {
            panic!("GET is a data request");
        };
        let err = write_reply(&shared, Some(ticket), &Response::Busy, |_| {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
        });
        assert!(err.is_err());
        assert_eq!(shared.metrics.total(), 0);
    }

    #[test]
    fn a_worker_executes_routed_jobs_without_a_socket() {
        let shared = Arc::new(shared());
        let (admission, work) = admission_queue(4, AdmissionPolicy::Block);
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared, &work))
        };
        let call = |req: Request| {
            let Routed::Work(req, ticket) = route(&shared, 1, &req.encode()) else {
                panic!("data request expected");
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
        match call(Request::Get { page: 5 }) {
            Response::Ok(bytes) => assert_eq!(bytes[..16], data[..]),
            other => panic!("GET answered {other:?}"),
        }
        assert!(
            matches!(call(Request::Scan { start: 0, len: 8 }), Response::Ok(p) if p.len() == 12)
        );
        assert!(matches!(call(Request::Get { page: 64 }), Response::Err(_)));
        assert_eq!(
            shared.metrics.stage(OpKind::Get, Stage::QueueWait).count(),
            2
        );
        drop(admission);
        worker.join().expect("worker exits when the queue closes");
    }
}
