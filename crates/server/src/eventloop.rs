//! The readiness event-loop frontend: loop threads, each multiplexing
//! its share of the client connections over epoll (via `bpw-evl`), with
//! request pipelining and batched writes.
//!
//! ## Why it exists
//!
//! The threaded frontend spends a thread per connection; tens of
//! thousands of mostly-idle connections means tens of thousands of
//! stacks and a scheduler meltdown long before BP-Wrapper's lock-free
//! batching becomes the bottleneck. Here a fixed number of loop threads
//! (`ServerConfig::workers`) own every socket. Each registers a clone of
//! the listener; a loop that loses an accept race sees `WouldBlock`, and
//! a connection stays on the loop that accepted it. Complete frames go
//! through the same [`crate::engine`] — `route`, `serve`, `write_reply`
//! — as the threaded frontend's. This file holds socket state only.
//!
//! ## Every request runs to completion here
//!
//! BP-Wrapper's rule is that the common path should not pay for
//! cross-processor synchronisation, and on a loop no path pays for it: a
//! request is executed by the loop thread that decoded it, through that
//! loop's own pool session, before the next frame is looked at. A GET,
//! hit or miss, is written from the frame into the connection's write
//! buffer under its pin; a PUT is applied from a body buffer the loop
//! reuses; a SCAN's checksum is computed here. No request crosses a
//! thread, so there is no admission queue, no completion queue, no
//! reorder buffer: replies are produced in request order, a pipelined
//! PUT-then-GET reads its own write, and one connection's requests reach
//! the pool in the order it sent them.
//!
//! The price is that a miss holds its loop for its device time. Against
//! `SimDisk::instant` that is a page copy; against a slow device every
//! connection of that loop waits behind it, while the other loops go on.
//!
//! ## Overload
//!
//! Nothing queues, so `Shed` never sheds and `Block` never blocks.
//! `DeadlineDrop(d)` is checked when a request's turn comes, which on a
//! loop is the end of its decode: past `d`, the reply is `DROPPED` and
//! the request is not executed.
//!
//! ## Flow control
//!
//! The loop must never wait on a socket. Two valves:
//!
//! * **Write buffer** — replies coalesce into one [`WriteBuf`] per
//!   connection, flushed once per wakeup; a short write registers write
//!   interest instead of spinning.
//! * **Unread replies** — a client that sends without reading fills its
//!   write buffer. Past one pipeline's worth of replies
//!   (`max_pipeline × (page_size + 5)` bytes) the loop stops reading the
//!   socket and answering its buffered frames, until a flush brings the
//!   buffer back under the mark.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use bpw_evl::{Epoll, Interest, Ready, WriteBuf};

use crate::engine::{self, Routed, Session, Shared};
use crate::protocol::{FrameDecoder, Request, Response, RESPONSE_HEAD};

const TOK_LISTENER: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;

/// Socket-read budget per connection per wakeup: large enough to drain
/// a deep pipeline burst in one pass, small enough that one firehose
/// connection cannot starve the rest (level-triggered epoll re-delivers
/// whatever is left).
const READ_CHUNK: usize = 16 * 1024;
const MAX_READS_PER_WAKEUP: usize = 8;

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
    decoder: FrameDecoder,
    wbuf: WriteBuf,
    /// Peer closed its write half; serve what was received, then close.
    peer_eof: bool,
    /// A frame did not decode and was answered `ERR`: nothing past it is
    /// read or answered; close once the write buffer is empty.
    poisoned: bool,
    /// Interest currently registered with epoll, to skip no-op MODs.
    registered: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: WriteBuf::new(),
            peer_eof: false,
            poisoned: false,
            registered: (true, false),
        }
    }

    /// Every reply this connection is owed has been written: a frame
    /// left in the decoder is answered before the loop moves on, unless
    /// unread replies hold it back, and those are in the write buffer.
    fn drained(&self) -> bool {
        self.wbuf.is_empty()
    }

    /// The client is not reading: more replies wait in the write buffer
    /// than one full pipeline produces.
    fn backlogged(&self, high_water: usize) -> bool {
        self.wbuf.pending() > high_water
    }

    /// Should the loop keep reading from this socket?
    fn wants_read(&self, high_water: usize) -> bool {
        !self.peer_eof && !self.poisoned && !self.backlogged(high_water)
    }
}

/// Everything one loop owns; lives on the loop thread's stack.
struct EventLoop<'a> {
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    shared: &'a Shared,
    /// This thread's pool session: every request of its connections is
    /// executed through it.
    session: Session<'a>,
    /// `DeadlineDrop`'s deadline, if that is the policy.
    deadline: Option<Duration>,
    /// At most one page buffer: a PUT's body is decoded into it and it
    /// comes back once the PUT is applied.
    spare: Vec<Vec<u8>>,
    /// Unread reply bytes past which a connection is backlogged.
    high_water: usize,
}

/// Run one loop until a stop is requested *and* every connection it
/// accepted has gone away — the same lifetime the threaded frontend's
/// acceptor plus connection threads have collectively.
pub(crate) fn run(
    listener: TcpListener,
    shared: &Shared,
    deadline: Option<Duration>,
    max_pipeline: usize,
) {
    let epoll = Epoll::new(512).expect("epoll_create");
    epoll
        .add(&listener, TOK_LISTENER, Interest::READ)
        .expect("register listener");
    let mut el = EventLoop {
        epoll,
        listener: Some(listener),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        shared,
        session: shared.pool.session(),
        deadline,
        spare: Vec::with_capacity(1),
        high_water: max_pipeline * (shared.pool.page_size() + RESPONSE_HEAD),
    };

    let mut ready_buf: Vec<Ready> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    // Connections with possible output or close work this wakeup.
    let mut dirty: Vec<u64> = Vec::new();

    loop {
        ready_buf.clear();
        match el.epoll.wait(Some(Duration::from_millis(50))) {
            Ok(events) => ready_buf.extend(events),
            Err(e) => panic!("epoll_wait failed: {e}"),
        }
        if ready_buf.is_empty() {
            // Idle: commit deferred BP-Wrapper bookkeeping, as a worker
            // does when its pop times out.
            el.session.flush();
        }
        let stop = el.shared.stop.load(Ordering::SeqCst);
        if stop {
            if let Some(l) = el.listener.take() {
                let _ = el.epoll.delete(&l);
                // Dropping closes this loop's clone of the listening
                // socket; once every loop has, racing connects get
                // refused exactly as when the threaded acceptor dies.
            }
        }

        dirty.clear();
        for &ev in &ready_buf {
            match ev.token {
                TOK_LISTENER => el.accept_ready(stop),
                token => {
                    if el.conns.contains_key(&token) {
                        el.conn_event(token, ev, &mut scratch);
                        dirty.push(token);
                    }
                }
            }
        }
        for &token in &dirty {
            el.service(token);
        }

        if !ready_buf.is_empty() {
            el.shared.metrics.epoll_wakeups.incr();
            el.shared
                .metrics
                .ready_per_wakeup
                .record(ready_buf.len() as u64);
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
    /// Accept until the backlog is dry, or another loop took what was
    /// there. During shutdown the listener is gone, so `stop` here only
    /// covers the race where a connect landed in the backlog just before
    /// the flag flipped: accept and drop.
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
            // read or written.
            self.close(token);
            return;
        }
        if ev.readable {
            self.read_ready(token, scratch);
        }
        // Writability is handled in `service` (flush runs every wakeup
        // for dirty connections); the event only needs to mark dirty.
    }

    /// Pull bytes, feed the decoder, answer complete frames.
    fn read_ready(&mut self, token: u64, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.wants_read(self.high_water) {
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
        self.answer_frames(token);
    }

    /// Answer buffered frames, in order, until the decoder runs dry, a
    /// frame that does not decode poisons the stream, or the
    /// connection's unread replies reach the high-water mark (the rest
    /// stay in the decoder until a flush makes room). Each reply is in
    /// the write buffer before the next frame is decoded.
    fn answer_frames(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let shared = self.shared;
        let mut answered = 0;
        while !conn.poisoned && !conn.backlogged(self.high_water) {
            let routed = match conn.decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(body)) => engine::route(shared, &mut self.session, body, &mut self.spare),
                Err(e) => Routed::Fatal(engine::protocol_error(shared, &e)),
            };
            let w = &mut Coalesced(&mut conn.wbuf);
            let written = match routed {
                Routed::Reply(resp) => engine::write_reply(shared, None, &resp, w),
                Routed::Fatal(resp) => {
                    // Same contract as the threaded frontend: answer
                    // ERR, then drop the connection once it is written.
                    conn.poisoned = true;
                    engine::write_reply(shared, None, &resp, w)
                }
                Routed::Resident(hit) => hit.reply(shared, w),
                Routed::Work(req, ticket) => {
                    let written = match self.deadline {
                        Some(d) if ticket.decoded_after(d) => {
                            engine::write_reply(shared, Some(ticket), &Response::Dropped, w)
                        }
                        _ => engine::serve(shared, &mut self.session, &req, ticket, w),
                    };
                    if let Request::Put { data, .. } = req {
                        // Only a page-sized body is worth keeping for
                        // the next PUT: never a megabyte one.
                        if data.capacity() <= 2 * shared.pool.page_size() {
                            self.spare.push(data);
                        }
                    }
                    written
                }
            };
            debug_assert!(written.is_ok(), "the write buffer cannot fail");
            answered += 1;
        }
        if answered > 0 {
            shared.metrics.pipeline_depth.record(answered);
        }
    }

    /// Post-event work for one connection: flush, answer frames a full
    /// write buffer held back, re-arm interest, and close if finished.
    fn service(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
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
            // Frames held back behind a full write buffer have no event
            // of their own: if this flush made room, answer them now or
            // nothing ever will.
            if !was_backlogged || conn.backlogged(self.high_water) {
                break;
            }
            self.answer_frames(token);
        }

        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // After EOF a torn trailing frame can never complete (every
        // whole frame was answered above), so only unwritten replies
        // keep the connection open.
        if (conn.poisoned || conn.peer_eof) && conn.drained() {
            self.close(token);
            return;
        }
        // Re-arm epoll interest to match what this connection needs.
        let want = (conn.wants_read(self.high_water), !conn.wbuf.is_empty());
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
