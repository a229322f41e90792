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
//! a per-connection reorder buffer (a [`Ring`] of slots indexed by
//! sequence number) and are released strictly in sequence order — the
//! pipelining contract is "responses in request order", byte-identical
//! to what the threaded frontend produces.
//!
//! ## Page buffers circulate
//!
//! In steady state a queued GET or PUT allocates nothing, and a SCAN
//! only its 12-byte reply. Frames are decoded from the decoder's buffer
//! in place. A worker copies a GET's page into a buffer it was handed
//! back; the loop decodes a PUT's body into one from its own stash.
//! Buffers travel both ways under the completion queue's mutex, which
//! every queued request takes anyway (see [`Completions`]).
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

use std::collections::{HashMap, VecDeque};
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
///
/// The same mutex carries page buffers the other way, on acquisitions
/// that happen anyway. A worker's push hands back the PUT body it has
/// written and, only when its last reply took its buffer, takes a spare
/// for the next. The loop's drain hands back the reply buffers it has
/// copied into write buffers and takes the ones it will decode PUT
/// bodies into. At most `queue_capacity + workers` spares are kept, and
/// only buffers of `page_size..=2 × page_size` bytes of capacity: never
/// a megabyte PUT body or a STATS reply. A buffer that is not kept is
/// freed after the mutex is released.
pub(crate) struct Completions {
    queue: Mutex<Queue>,
    wake: WakeFd,
    page_size: usize,
    /// Most spares kept.
    bound: usize,
}

/// A worker's response for `(token, seq)`.
type Completion = (u64, u64, Response);

struct Queue {
    done: Vec<Completion>,
    /// Emptied page buffers.
    spares: Vec<Vec<u8>>,
}

impl Completions {
    pub(crate) fn new(page_size: usize, bound: usize) -> io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Queue {
                done: Vec::new(),
                spares: Vec::with_capacity(bound),
            }),
            wake: WakeFd::new()?,
            page_size,
            bound,
        })
    }

    /// Deliver a worker's response for `(token, seq)`, hand back `spent`
    /// (the job's PUT body, or an empty `Vec`), and refill `spare` if
    /// it is empty.
    pub(crate) fn push(
        &self,
        token: u64,
        seq: u64,
        resp: Response,
        spent: Vec<u8>,
        spare: &mut Vec<u8>,
    ) {
        let (was_empty, rejected) = {
            let mut q = self.queue.lock().expect("completions lock");
            let was_empty = q.done.is_empty();
            q.done.push((token, seq, resp));
            let rejected = if q.spares.len() < self.bound && self.reusable(&spent) {
                q.spares.push(spent);
                None
            } else {
                Some(spent)
            };
            if spare.capacity() == 0 {
                if let Some(buf) = q.spares.pop() {
                    *spare = buf;
                }
            }
            (was_empty, rejected)
        };
        // A body the stack does not keep is freed outside the lock.
        drop(rejected);
        if was_empty {
            self.wake.notify();
        }
    }

    /// Swap the finished responses into `done`, which must be empty, and
    /// bring the loop's `stash` (page buffers only) to `want` buffers:
    /// hand back what it holds beyond that, take spares up to it.
    fn drain(&self, done: &mut Vec<Completion>, stash: &mut Vec<Vec<u8>>, want: usize) {
        debug_assert!(done.is_empty());
        {
            let mut q = self.queue.lock().expect("completions lock");
            std::mem::swap(&mut q.done, done);
            while stash.len() > want && q.spares.len() < self.bound {
                let buf = stash.pop().expect("longer than want");
                debug_assert!(self.reusable(&buf), "the stash holds page buffers");
                q.spares.push(buf);
            }
            while stash.len() < want {
                let Some(buf) = q.spares.pop() else { break };
                stash.push(buf);
            }
        }
        // The surplus the stack had no room for is freed outside the lock.
        stash.truncate(want);
    }

    /// Is `buf` a page buffer, worth keeping for another page?
    fn reusable(&self, buf: &Vec<u8>) -> bool {
        (self.page_size..=2 * self.page_size).contains(&buf.capacity())
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

/// A reply owed to the client: the ticket of a data request, redeemed
/// when the reply is written, and the response once there is one.
struct Slot {
    ticket: Option<Ticket>,
    resp: Option<Response>,
}

/// A connection's reorder buffer. Slot `i` holds the reply to sequence
/// number `next_to_send + i`, so the next frame's number is
/// `next_to_send + slots.len()`: filing a reply is an index, releasing
/// one a pop, and neither hashes nor allocates once the ring has grown
/// to the connection's pipeline depth.
#[derive(Default)]
struct Ring {
    slots: VecDeque<Slot>,
    /// Sequence number of the next response to put on the wire.
    next_to_send: u64,
}

impl Ring {
    /// Give the next frame its sequence number and a slot.
    fn push(&mut self, ticket: Option<Ticket>, resp: Option<Response>) -> u64 {
        self.slots.push_back(Slot { ticket, resp });
        self.next_to_send + self.slots.len() as u64 - 1
    }

    /// The next frame is answered on the spot, as only a frame with
    /// nothing owed before it may be.
    fn skip(&mut self) {
        debug_assert!(self.slots.is_empty());
        self.next_to_send += 1;
    }

    /// File the response to `seq`.
    fn fill(&mut self, seq: u64, resp: Response) {
        let slot = &mut self.slots[(seq - self.next_to_send) as usize];
        debug_assert!(slot.resp.is_none(), "one response per request");
        slot.resp = Some(resp);
    }

    /// The next response in sequence — with its number and ticket — if
    /// it has arrived.
    fn pop(&mut self) -> Option<(u64, Option<Ticket>, Response)> {
        let resp = self.slots.front_mut()?.resp.take()?;
        let ticket = self.slots.pop_front().and_then(|slot| slot.ticket);
        self.next_to_send += 1;
        Some((self.next_to_send - 1, ticket, resp))
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    wbuf: WriteBuf,
    /// Every reply owed, in sequence order.
    ring: Ring,
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
            decoder: FrameDecoder::new(),
            wbuf: WriteBuf::new(),
            ring: Ring::default(),
            inflight: 0,
            stalled: VecDeque::new(),
            peer_eof: false,
            close_after: None,
            registered: (true, false),
        }
    }

    /// All work this connection will ever produce has been written.
    /// (A request in flight or stalled holds a slot in the ring.)
    fn drained(&self) -> bool {
        self.ring.is_empty() && self.wbuf.is_empty()
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
    /// Page buffers for PUT bodies and for resident GETs that wait their
    /// turn; written replies give theirs back. Each drain of the
    /// completion queue brings it to `max_pipeline` buffers.
    stash: Vec<Vec<u8>>,
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
        stash: Vec::new(),
        max_pipeline,
        high_water: max_pipeline * (shared.pool.page_size() + RESPONSE_HEAD),
    };

    let mut ready_buf: Vec<Ready> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Tokens with possible new output/stall/close work this wakeup.
    let mut dirty: Vec<u64> = Vec::new();
    // Completions collected this wakeup; swapped with the queue's.
    let mut done = Vec::new();

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
        el.completions
            .drain(&mut done, &mut el.stash, el.max_pipeline);
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
        for (token, seq, resp) in done.drain(..) {
            if let Some(conn) = el.conns.get_mut(&token) {
                conn.inflight -= 1;
                conn.ring.fill(seq, resp);
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
            let in_place = conn.may_answer_in_place();
            let routed = match conn.decoder.next_frame() {
                Ok(None) => return,
                Ok(Some(body)) => engine::route(
                    self.shared,
                    &mut self.session,
                    body,
                    in_place,
                    &mut self.stash,
                ),
                Err(e) => Routed::Fatal(engine::protocol_error(self.shared, &e)),
            };
            match routed {
                Routed::Reply(resp) => {
                    conn.ring.push(None, Some(resp));
                }
                Routed::Fatal(resp) => {
                    // Same contract as the threaded frontend: answer
                    // ERR, then drop the connection — after every
                    // earlier response has gone out in order.
                    conn.close_after = Some(conn.ring.push(None, Some(resp)));
                    return;
                }
                Routed::Resident(hit) if conn.ring.is_empty() => {
                    // Next on the wire: frame to write buffer, one copy.
                    conn.ring.skip();
                    let written = hit.reply(self.shared, &mut Coalesced(&mut conn.wbuf));
                    debug_assert!(written.is_ok(), "the write buffer cannot fail");
                }
                Routed::Resident(hit) => {
                    // Earlier replies are still owed: copy out now, so
                    // the pin is gone before the next frame is looked at.
                    let (ticket, resp) = hit.into_response(self.stash.pop().unwrap_or_default());
                    conn.ring.push(Some(ticket), Some(resp));
                }
                Routed::Work(req, ticket) => {
                    let seq = conn.ring.push(Some(ticket), None);
                    if conn.stalled.is_empty() {
                        self.offer(token, seq, req, ticket);
                    } else {
                        // Order guarantee: nothing may overtake an
                        // already-stalled request on its way into the
                        // queue.
                        conn.stalled.push_back((seq, req, ticket));
                    }
                }
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
                return;
            }
            Offered::Full(job) => {
                conn.stalled.push_back((seq, job.req, ticket));
                return;
            }
            Offered::Shed => Response::Busy,
            Offered::Closed => engine::shutting_down(),
        };
        // Refusals are accounted, by the slot's ticket, when their reply
        // is written, exactly like a threaded connection counting its
        // BUSY.
        conn.ring.fill(seq, refusal);
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
            while let Some((seq, ticket, resp)) = conn.ring.pop() {
                let written =
                    engine::write_reply(self.shared, ticket, &resp, &mut Coalesced(&mut conn.wbuf));
                debug_assert!(written.is_ok(), "the write buffer cannot fail");
                // Its bytes are in the write buffer: the page buffer can
                // carry another.
                if let Response::Ok(buf) = resp {
                    if self.completions.reusable(&buf) {
                        self.stash.push(buf);
                    }
                }
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
            .is_some_and(|s| conn.ring.next_to_send > s && conn.wbuf.is_empty());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RequestCtx;
    use crate::metrics::OpKind;

    const PAGE: usize = 4096;

    fn spares(c: &Completions) -> usize {
        c.queue.lock().expect("completions lock").spares.len()
    }

    #[test]
    fn the_spare_stack_never_exceeds_its_bound() {
        let c = Completions::new(PAGE, 3).expect("eventfd");
        let mut done = Vec::new();
        let mut stash: Vec<Vec<u8>> = (0..10).map(|_| Vec::with_capacity(PAGE)).collect();
        c.drain(&mut done, &mut stash, 2);
        assert_eq!(
            (stash.len(), spares(&c)),
            (2, 3),
            "the loop's surplus past 3 is dropped"
        );

        // Workers whose own buffer is full hand back PUT bodies only.
        let mut spare = Vec::with_capacity(PAGE);
        for seq in 0..5 {
            c.push(1, seq, Response::Busy, Vec::with_capacity(PAGE), &mut spare);
            assert_eq!(spares(&c), 3);
        }
        // A drain takes what there is, and all the completions.
        c.drain(&mut done, &mut stash, 8);
        assert_eq!((stash.len(), spares(&c), done.len()), (5, 0, 5));
    }

    #[test]
    fn only_page_sized_buffers_are_kept_and_a_worker_takes_one_only_when_empty() {
        let c = Completions::new(PAGE, 8).expect("eventfd");
        let mut spare = Vec::new();
        // A PUT body over 2 × page_size, one under a page, none at all.
        let bodies = [
            Vec::with_capacity(2 * PAGE + 1),
            Vec::with_capacity(PAGE - 1),
            Vec::new(),
        ];
        for (seq, body) in (0..).zip(bodies) {
            c.push(1, seq, Response::Ok(Vec::new()), body, &mut spare);
        }
        assert_eq!((spares(&c), spare.capacity()), (0, 0), "none kept");

        // The worker's buffer is empty: it takes the body it handed back.
        c.push(
            1,
            3,
            Response::Busy,
            Vec::with_capacity(2 * PAGE),
            &mut spare,
        );
        assert_eq!((spares(&c), spare.capacity()), (0, 2 * PAGE));
        // Full: the next body stays on the stack.
        c.push(1, 4, Response::Busy, Vec::with_capacity(PAGE), &mut spare);
        assert_eq!((spares(&c), spare.capacity()), (1, 2 * PAGE));

        // A STATS-sized reply the loop has written is not reusable.
        assert!(!c.reusable(&vec![b'{'; 3 * PAGE]));
        assert!(c.reusable(&vec![0; PAGE]));
    }

    fn ticket(id: u64) -> Ticket {
        Ticket {
            kind: OpKind::Get,
            admitted: Instant::now(),
            ctx: RequestCtx { id, opcode: 1 },
        }
    }

    #[test]
    fn the_ring_releases_out_of_order_completions_strictly_in_sequence() {
        let mut ring = Ring::default();
        ring.skip(); // seq 0, answered on the spot
        let seqs: Vec<u64> = (1..=5)
            .map(|id| ring.push(Some(ticket(id)), None))
            .collect();
        assert_eq!(seqs, [1, 2, 3, 4, 5]);
        assert_eq!(ring.push(None, Some(Response::Busy)), 6, "ready at once");
        for seq in [4, 2, 5, 3] {
            ring.fill(seq, Response::Ok(vec![seq as u8]));
            assert!(ring.pop().is_none(), "1 is still owed");
        }
        ring.fill(1, Response::Ok(vec![1]));
        let released: Vec<_> = std::iter::from_fn(|| ring.pop())
            .map(|(seq, ticket, resp)| (seq, ticket.map(|t| t.ctx.id), resp))
            .collect();
        let mut want: Vec<_> = (1..=5u64)
            .map(|seq| (seq, Some(seq), Response::Ok(vec![seq as u8])))
            .collect();
        want.push((6, None, Response::Busy));
        assert_eq!(released, want);
        assert!(ring.is_empty());
        assert_eq!(ring.push(None, None), 7);
    }
}
