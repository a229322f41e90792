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
//! (`ServerConfig::workers`) own every socket, and a client may pipeline.
//! Each loop registers a clone of the listener; a loop that loses an
//! accept race sees `WouldBlock`, and a connection stays on the loop
//! that accepted it. A connection's frames and replies are a
//! [`Connection`], answered by [`Connection::answer_frames`] exactly as
//! a threaded connection's are: this file holds epoll, accept,
//! nonblocking reads and flushes only.
//!
//! ## Every request runs to completion here
//!
//! A request is executed by the loop thread that read it, through the
//! loop's own pool session, before the next frame is looked at
//! ([`crate::engine`]): there is no request queue, no completion queue
//! and no reorder buffer. The price is that a miss holds its loop for
//! its device time: against `SimDisk::instant` a page copy; against a
//! slow device every connection of that loop waits behind it, while the
//! other loops go on.
//!
//! ## Overload
//!
//! Nothing queues, so `Block` never blocks. Under `DeadlineDrop(d)` a
//! read pass reads the clock once, and a frame that pass completed is
//! due `d` later: if its turn — the end of its decode — comes after
//! that, for instance behind a pipelined miss that held the loop, the
//! reply is `DROPPED` and the request is not executed.
//!
//! ## Flow control
//!
//! The loop must never wait on a socket. Two valves:
//!
//! * **Write buffer** — replies coalesce into the connection's one
//!   write buffer, flushed once per wakeup; a short write registers
//!   write interest instead of spinning.
//! * **Unread replies** — a client that sends without reading fills its
//!   write buffer. Past one pipeline's worth of replies
//!   (`max_pipeline × (page_size + 5)` bytes) the engine stops answering
//!   its buffered frames and the loop stops reading its socket, until a
//!   flush brings the buffer back under the mark.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use bpw_evl::{Epoll, Interest, Ready};

use crate::engine::{Connection, Session, Shared};

const TOK_LISTENER: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 1;

/// Socket-read budget per connection per wakeup: large enough to drain
/// a deep pipeline burst in one pass, small enough that one firehose
/// connection cannot starve the rest (level-triggered epoll re-delivers
/// whatever is left).
const READ_CHUNK: usize = 16 * 1024;
const MAX_READS_PER_WAKEUP: usize = 8;

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Its frames and replies.
    state: Connection,
    /// Peer closed its write half; serve what was received, then close.
    peer_eof: bool,
    /// Interest currently registered with epoll, to skip no-op MODs.
    registered: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: Connection::default(),
            peer_eof: false,
            registered: (true, false),
        }
    }

    /// Should the loop keep reading from this socket?
    fn wants_read(&self, shared: &Shared) -> bool {
        !self.peer_eof && !self.state.poisoned && !self.state.backlogged(shared)
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
    /// At most one page buffer: a PUT's body is decoded into it and it
    /// comes back once the PUT is applied.
    spare: Vec<Vec<u8>>,
}

/// Run one loop until a stop is requested *and* every connection it
/// accepted has gone away — the same lifetime the threaded frontend's
/// acceptor plus connection threads have collectively.
pub(crate) fn run(listener: TcpListener, shared: &Shared) {
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
        spare: Vec::with_capacity(1),
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
            // Idle: commit deferred BP-Wrapper bookkeeping.
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
            for conn in el.conns.values().filter(|c| c.state.out.is_empty()) {
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
        if !conn.wants_read(self.shared) {
            return;
        }
        let mut got = false;
        for _ in 0..MAX_READS_PER_WAKEUP {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.state.decoder.push(&scratch[..n]);
                    got = true;
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
        // Frames held back behind unread replies stop this socket's
        // reads, so every frame in the decoder was completed by this pass.
        if got {
            conn.state.start_deadline(self.shared);
        }
        conn.state
            .answer_frames(self.shared, &mut self.session, &mut self.spare);
    }

    /// Post-event work for one connection: flush, answer frames a full
    /// write buffer held back, re-arm interest, and close if finished.
    fn service(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // One coalesced flush per pass.
            let was_backlogged = conn.state.backlogged(self.shared);
            match conn.state.out.flush(&mut conn.stream) {
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
            if !was_backlogged || conn.state.backlogged(self.shared) {
                break;
            }
            conn.state
                .answer_frames(self.shared, &mut self.session, &mut self.spare);
        }

        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // After EOF a torn trailing frame can never complete (every
        // whole frame was answered above), so only unwritten replies
        // keep the connection open.
        if (conn.state.poisoned || conn.peer_eof) && conn.state.out.is_empty() {
            self.close(token);
            return;
        }
        // Re-arm epoll interest to match what this connection needs.
        let want = (conn.wants_read(self.shared), !conn.state.out.is_empty());
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
