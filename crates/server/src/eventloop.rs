//! The readiness event-loop frontend: one thread multiplexing every
//! client connection over epoll (via `bpw-evl`), with request
//! pipelining and batched writes.
//!
//! ## Why it exists
//!
//! The threaded frontend spends a thread per connection; tens of
//! thousands of mostly-idle connections means tens of thousands of
//! stacks and a scheduler meltdown long before BP-Wrapper's lock-free
//! batching becomes the bottleneck. Here, socket I/O is owned by a
//! single loop thread; complete frames go through the same
//! [`crate::engine`] — `route`, admission queue, workers, `write_reply`
//! — as the threaded frontend's, so overload policy and every
//! replacement scheme behave identically in both modes. This file holds
//! socket state only.
//!
//! ## Resident GETs are answered here
//!
//! The loop owns a pool session. `route` pins a GET's page with it when
//! the page is resident, and the loop answers on the spot, under three
//! rules. **The loop never blocks**: all it does for such a GET is the
//! lookup-and-pin, one page copy under the content latch, and
//! BP-Wrapper's own bounded batch commit. **A pin never outlives the
//! call that took it**: a reply that is next in sequence is written
//! from the frame into the connection's write buffer; one that is not
//! is copied out into the reorder buffer; either way the page is
//! unpinned before the loop looks at the next frame, let alone returns
//! to `epoll_wait`. **Nothing overtakes**: a GET is answered here only
//! while its connection has nothing queued and nothing stalled; behind
//! an unfinished request it queues like everything else. A pipelined
//! PUT-then-GET therefore reads its own write exactly as it does through
//! one worker, and one connection's requests reach the pool in the order
//! it sent them whichever thread serves each.
//!
//! ## Per-connection state machine
//!
//! Bytes arrive in arbitrary fragments and are fed to an incremental
//! [`FrameDecoder`]; each complete frame gets the connection's next
//! **sequence number**. Data requests are offered (never blockingly
//! submitted) to the admission queue and executed by workers, which may
//! finish out of order; control requests (`STATS`/`METRICS`/`SHUTDOWN`)
//! are answered inline by the loop thread. Completed responses park in
//! a per-connection reorder buffer and are released strictly in
//! sequence order — the pipelining contract is "responses in request
//! order", byte-identical to what the threaded frontend produces.
//!
//! ## Flow control without blocking
//!
//! The loop thread must never wait on anything. Four valves:
//!
//! * **Pipeline cap** — at most `max_pipeline` requests in flight per
//!   connection; past that the connection's read interest is dropped
//!   (level-triggered epoll makes re-arming free).
//! * **Stall buffer** — under `Block`/`DeadlineDrop`, a full admission
//!   queue hands the request back ([`Offered::Full`]); it parks in
//!   arrival order and is re-offered when a completion signals that a
//!   worker freed capacity. The request keeps its original admission
//!   time, so deadlines measure true staleness.
//! * **Write buffer** — responses coalesce into one [`WriteBuf`] per
//!   connection, flushed once per wakeup; a short write registers write
//!   interest instead of spinning.
//! * **Unread replies** — a client that sends without reading fills its
//!   write buffer. Past one pipeline's worth of replies
//!   (`max_pipeline × (page_size + 5)` bytes) the loop stops reading the
//!   socket, routing its buffered frames and re-offering its stalled
//!   requests, until a flush brings the buffer back under the mark.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bpw_evl::{Epoll, Interest, Ready, WakeFd, WriteBuf};

use crate::backpressure::{AdmissionQueue, Offered};
use crate::engine::{self, Job, ReplyTo, Routed, Session, Shared, Ticket};
use crate::protocol::{FrameDecoder, Request, Response, RESPONSE_HEAD};

const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Socket-read budget per connection per wakeup: large enough to drain
/// a deep pipeline burst in one pass, small enough that one firehose
/// connection cannot starve the rest (level-triggered epoll re-delivers
/// whatever is left).
const READ_CHUNK: usize = 16 * 1024;
const MAX_READS_PER_WAKEUP: usize = 8;

/// Worker-to-loop completion channel: finished responses accumulate
/// under a mutex (held for a push or a swap, never across I/O) and the
/// eventfd wakes the loop — once per batch, not per response, because
/// only the first push into an empty queue notifies.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, u64, Response)>>,
    wake: WakeFd,
}

impl Completions {
    pub(crate) fn new() -> io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
        })
    }

    /// Deliver a worker's response for `(token, seq)`.
    pub(crate) fn push(&self, token: u64, seq: u64, resp: Response) {
        let was_empty = {
            let mut q = self.queue.lock().expect("completions lock");
            let was_empty = q.is_empty();
            q.push((token, seq, resp));
            was_empty
        };
        if was_empty {
            self.wake.notify();
        }
    }

    fn drain(&self) -> Vec<(u64, u64, Response)> {
        std::mem::take(&mut *self.queue.lock().expect("completions lock"))
    }
}

/// A connection's coalesced write buffer as the engine's transport: a
/// write appends, and flushing is the loop's once-per-wakeup job, not
/// a reply's.
struct Coalesced<'a>(&'a mut WriteBuf);

impl Write for Coalesced<'_> {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.push(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Process-unique connection id (same id space as the threaded
    /// frontend's connections) — stamped into every request's ctx.
    id: u64,
    decoder: FrameDecoder,
    wbuf: WriteBuf,
    /// Sequence number the next decoded frame will get.
    next_seq: u64,
    /// Sequence number of the next response to put on the wire.
    next_to_send: u64,
    /// Completed responses waiting for their turn (reorder buffer).
    pending: BTreeMap<u64, Response>,
    /// Tickets of data requests, by seq — redeemed when the response
    /// is written.
    tickets: HashMap<u64, Ticket>,
    /// Data requests handed to workers and not yet completed.
    inflight: usize,
    /// Decoded data requests a full admission queue handed back. Each
    /// keeps its original ticket across re-offers, so deadlines and
    /// queue-wait attribution measure true staleness.
    stalled: VecDeque<(u64, Request, Ticket)>,
    /// Peer closed its write half; serve what was received, then close.
    peer_eof: bool,
    /// Fatal frame/decode error: the seq of the final (ERR) response.
    /// Nothing past it is read or answered; close once it is written.
    close_after: Option<u64>,
    /// Interest currently registered with epoll, to skip no-op MODs.
    registered: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            id: engine::next_conn_id(),
            decoder: FrameDecoder::new(),
            wbuf: WriteBuf::new(),
            next_seq: 0,
            next_to_send: 0,
            pending: BTreeMap::new(),
            tickets: HashMap::new(),
            inflight: 0,
            stalled: VecDeque::new(),
            peer_eof: false,
            close_after: None,
            registered: (true, false),
        }
    }

    /// All work this connection will ever produce has been written.
    fn drained(&self) -> bool {
        self.inflight == 0
            && self.stalled.is_empty()
            && self.pending.is_empty()
            && self.wbuf.is_empty()
    }

    /// The client is not reading: more replies wait in the write buffer
    /// than one full pipeline produces.
    fn backlogged(&self, high_water: usize) -> bool {
        self.wbuf.pending() > high_water
    }

    /// Should the loop keep reading from this socket?
    fn wants_read(&self, max_pipeline: usize, high_water: usize) -> bool {
        !self.peer_eof
            && self.close_after.is_none()
            && self.stalled.is_empty()
            && self.inflight < max_pipeline
            && !self.backlogged(high_water)
    }

    /// May a GET be answered on the spot? Only when nothing of this
    /// connection is queued or stalled: what it sent earlier has then
    /// taken effect, so it reads its own writes, and its requests reach
    /// the pool in the order it sent them.
    fn may_answer_in_place(&self) -> bool {
        self.inflight == 0 && self.stalled.is_empty()
    }
}

/// Everything the loop owns; lives on the loop thread's stack.
struct EventLoop<'a> {
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shared: &'a Shared,
    /// This thread's pool session: resident GETs are pinned through it.
    session: Session<'a>,
    admission: AdmissionQueue<Job>,
    completions: Arc<Completions>,
    max_pipeline: usize,
    /// Unread reply bytes past which a connection is backlogged.
    high_water: usize,
}

/// Run the loop until a stop is requested *and* every connection has
/// gone away — the same lifetime the threaded frontend's acceptor plus
/// connection threads have collectively.
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<Shared>,
    admission: AdmissionQueue<Job>,
    completions: Arc<Completions>,
    max_pipeline: usize,
) {
    let epoll = Epoll::new(512).expect("epoll_create");
    epoll
        .add(&listener, TOK_LISTENER, Interest::READ)
        .expect("register listener");
    epoll
        .add(&completions.wake, TOK_WAKE, Interest::READ)
        .expect("register wake fd");
    let mut el = EventLoop {
        epoll,
        listener: Some(listener),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        shared: &shared,
        session: shared.pool.session(),
        admission,
        completions,
        max_pipeline,
        high_water: max_pipeline * (shared.pool.page_size() + RESPONSE_HEAD),
    };

    let mut ready_buf: Vec<Ready> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Tokens with possible new output/stall/close work this wakeup.
    let mut dirty: Vec<u64> = Vec::new();

    loop {
        ready_buf.clear();
        match el.epoll.wait(Some(Duration::from_millis(50))) {
            Ok(events) => ready_buf.extend(events),
            Err(e) => panic!("epoll_wait failed: {e}"),
        }
        let woke = Instant::now();
        if ready_buf.is_empty() {
            // Idle: commit deferred BP-Wrapper bookkeeping, as a worker
            // does when its pop times out.
            el.session.flush();
        }
        let stop = el.shared.stop.load(Ordering::SeqCst);
        if stop {
            if let Some(l) = el.listener.take() {
                let _ = el.epoll.delete(&l);
                // Dropping closes the listening socket; racing connects
                // get refused exactly as when the threaded acceptor dies.
            }
        }

        dirty.clear();
        let mut woke_for_completions = false;
        for &ev in &ready_buf {
            match ev.token {
                TOK_WAKE => {
                    el.completions.wake.drain();
                    woke_for_completions = true;
                }
                TOK_LISTENER => el.accept_ready(stop),
                token => {
                    if el.conns.contains_key(&token) {
                        el.conn_event(token, ev, &mut scratch);
                        dirty.push(token);
                    }
                }
            }
        }

        // Route completed work to its reorder buffer. A completion also
        // means a worker freed queue capacity, so every connection with
        // stalled requests becomes eligible for a retry.
        let done = el.completions.drain();
        if !done.is_empty() || woke_for_completions {
            for token in el
                .conns
                .iter()
                .filter(|(_, c)| !c.stalled.is_empty())
                .map(|(&t, _)| t)
            {
                dirty.push(token);
            }
        }
        for (token, seq, resp) in done {
            if let Some(conn) = el.conns.get_mut(&token) {
                conn.inflight -= 1;
                conn.pending.insert(seq, resp);
                dirty.push(token);
            }
            // else: the connection died mid-request; the worker's
            // effort is discarded, its frames already unpinned.
        }

        dirty.sort_unstable();
        dirty.dedup();
        for &token in &dirty {
            el.service(token);
        }

        if !ready_buf.is_empty() {
            el.shared.metrics.epoll_wakeups.incr();
            el.shared
                .metrics
                .ready_per_wakeup
                .record(ready_buf.len() as u64);
            bpw_trace::span_backdated(
                bpw_trace::EventKind::EpollWakeup,
                woke.elapsed().as_nanos() as u64,
                ready_buf.len() as u64,
            );
        }

        if stop {
            // Shutdown must not wait on idle clients: end the read half
            // of every connection with nothing left to answer. Its next
            // read drains whatever the kernel had already queued (those
            // requests are still served) and then reports EOF, which
            // closes the connection through the usual path.
            for conn in el.conns.values().filter(|c| c.drained()) {
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
            if el.listener.is_none() && el.conns.is_empty() {
                break;
            }
        }
    }
}

impl EventLoop<'_> {
    /// Accept until the backlog is dry. During shutdown the listener is
    /// gone, so `stop` here only covers the race where a connect landed
    /// in the backlog just before the flag flipped: accept and drop.
    fn accept_ready(&mut self, stop: bool) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) if stop => drop(stream),
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self.epoll.add(&stream, token, Interest::READ).is_err() {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    self.shared.metrics.connections_open.incr();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// One readiness event for a connection.
    fn conn_event(&mut self, token: u64, ev: Ready, scratch: &mut [u8]) {
        if ev.hangup {
            // ERR/HUP: both directions are gone; nothing more can be
            // read or written. In-flight completions get discarded.
            self.close(token);
            return;
        }
        if ev.readable {
            self.read_ready(token, scratch);
        }
        // Writability is handled in `service` (flush runs every wakeup
        // for dirty connections); the event only needs to mark dirty.
    }

    /// Pull bytes, feed the decoder, dispatch complete frames.
    fn read_ready(&mut self, token: u64, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.wants_read(self.max_pipeline, self.high_water) {
            return;
        }
        for _ in 0..MAX_READS_PER_WAKEUP {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.push(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.dispatch_frames(token);
    }

    /// Route buffered frames until the decoder runs dry, a fatal frame
    /// error poisons the stream, or the connection's unread replies
    /// reach the high-water mark (the rest stay in the decoder until a
    /// flush makes room).
    fn dispatch_frames(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.close_after.is_some() || conn.backlogged(self.high_water) {
                return;
            }
            let routed = match conn.decoder.next_frame() {
                Ok(None) => return,
                Ok(Some(body)) => {
                    let in_place = conn.may_answer_in_place();
                    engine::route(self.shared, &mut self.session, conn.id, &body, in_place)
                }
                Err(e) => Routed::Fatal(engine::protocol_error(self.shared, &e)),
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            match routed {
                Routed::Reply(resp) => {
                    conn.pending.insert(seq, resp);
                }
                Routed::Fatal(resp) => {
                    // Same contract as the threaded frontend: answer
                    // ERR, then drop the connection — after every
                    // earlier response has gone out in order.
                    conn.pending.insert(seq, resp);
                    conn.close_after = Some(seq);
                    return;
                }
                Routed::Resident(hit) if seq == conn.next_to_send => {
                    // Next on the wire: frame to write buffer, one copy.
                    conn.next_to_send += 1;
                    let written = hit.reply(self.shared, &mut Coalesced(&mut conn.wbuf));
                    debug_assert!(written.is_ok(), "the write buffer cannot fail");
                }
                Routed::Resident(hit) => {
                    // Earlier replies are still owed: copy out now, so
                    // the pin is gone before the next frame is looked at.
                    let (ticket, resp) = hit.into_response();
                    conn.tickets.insert(seq, ticket);
                    conn.pending.insert(seq, resp);
                }
                Routed::Work(req, ticket) if conn.stalled.is_empty() => {
                    self.offer(token, seq, req, ticket)
                }
                // Order guarantee: nothing may overtake an
                // already-stalled request on its way into the queue.
                Routed::Work(req, ticket) => conn.stalled.push_back((seq, req, ticket)),
            }
        }
    }

    /// Offer a data request to the admission queue (non-blocking).
    fn offer(&mut self, token: u64, seq: u64, req: Request, ticket: Ticket) {
        let job = Job {
            req,
            ticket,
            reply: ReplyTo::Loop {
                completions: Arc::clone(&self.completions),
                token,
                seq,
            },
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let refusal = match self.admission.offer_at(job, ticket.admitted) {
            Offered::Queued => {
                conn.inflight += 1;
                self.shared
                    .metrics
                    .pipeline_depth
                    .record(conn.inflight as u64);
                None
            }
            Offered::Full(job) => {
                conn.stalled.push_back((seq, job.req, ticket));
                return;
            }
            Offered::Shed => Some(Response::Busy),
            Offered::Closed => Some(engine::shutting_down()),
        };
        // Refusals are accounted when their reply is written, exactly
        // like a threaded connection counting its BUSY.
        conn.tickets.insert(seq, ticket);
        if let Some(resp) = refusal {
            conn.pending.insert(seq, resp);
        }
    }

    /// Take in what the connection has waiting, oldest first: stalled
    /// requests back to the admission queue, then frames still in the
    /// decoder. Both stop at the unread-reply high-water mark.
    fn admit(&mut self, token: u64) {
        // Re-offer stalled requests in arrival order; stop at the first
        // that still finds the queue full.
        while let Some(conn) = self.conns.get_mut(&token) {
            if conn.backlogged(self.high_water) {
                return;
            }
            let Some((seq, req, ticket)) = conn.stalled.pop_front() else {
                break;
            };
            let before = conn.stalled.len();
            self.offer(token, seq, req, ticket);
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.stalled.len() > before {
                // `offer` pushed it back: queue still full. Preserve
                // order — it must go back to the *front*.
                let stuck = conn.stalled.pop_back().expect("just pushed");
                conn.stalled.push_front(stuck);
                break;
            }
        }
        self.dispatch_frames(token);
    }

    /// Post-event work for one connection: retry stalled offers, move
    /// in-order responses to the write buffer, flush, re-arm interest,
    /// and close if finished.
    fn service(&mut self, token: u64) {
        loop {
            self.admit(token);
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // Release the reorder buffer strictly in sequence order.
            // The transport is the coalesced write buffer; the socket
            // write itself is shared by every reply in the flush below
            // and can't be attributed per request (the threaded
            // frontend measures the actual write).
            while let Some(resp) = conn.pending.remove(&conn.next_to_send) {
                let seq = conn.next_to_send;
                conn.next_to_send += 1;
                let written = engine::write_reply(
                    self.shared,
                    conn.tickets.remove(&seq),
                    &resp,
                    &mut Coalesced(&mut conn.wbuf),
                );
                debug_assert!(written.is_ok(), "the write buffer cannot fail");
                if conn.close_after == Some(seq) {
                    break;
                }
            }
            // One coalesced flush per pass.
            let was_backlogged = conn.backlogged(self.high_water);
            match conn.wbuf.flush(&mut conn.stream) {
                Ok(progress) => {
                    self.shared.metrics.short_writes.add(progress.short_writes);
                }
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
            // Requests held back behind a full write buffer have no
            // event of their own: if this flush made room, admit them
            // now or nothing ever will.
            if !was_backlogged || conn.backlogged(self.high_water) {
                break;
            }
        }

        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let err_done = conn
            .close_after
            .is_some_and(|s| conn.next_to_send > s && conn.wbuf.is_empty());
        // After EOF a torn trailing frame can never complete (every
        // whole frame was routed by `dispatch_frames` above), so only
        // unanswered work keeps the connection open.
        let eof_done = conn.peer_eof && conn.drained();
        if err_done || eof_done {
            self.close(token);
            return;
        }
        // Re-arm epoll interest to match what this connection needs.
        let want = (
            conn.wants_read(self.max_pipeline, self.high_water),
            !conn.wbuf.is_empty(),
        );
        if want != conn.registered {
            let interest = match want {
                (true, true) => Interest::READ_WRITE,
                (true, false) => Interest::READ,
                (false, true) => Interest::WRITE,
                (false, false) => Interest::NONE,
            };
            if self.epoll.modify(&conn.stream, token, interest).is_ok() {
                conn.registered = want;
            }
        }
    }

    /// Tear a connection down: deregister, drop, account.
    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(&conn.stream);
            self.shared.metrics.connections_open.decr();
        }
    }
}
