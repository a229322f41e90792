//! The page service: configuration, start-up and shutdown of the
//! threads serving one shared [`BufferPool`], and the threaded frontend.
//!
//! Everything a request goes through between "frame complete" and
//! "reply accounted" is [`crate::engine`]'s; a frontend only moves
//! bytes. The threaded driver here is an acceptor plus one blocking
//! thread per connection (read a frame, submit, await the reply, write
//! it), with a worker pool behind the admission queue (see
//! [`crate::backpressure`]), where overload policy is applied. The
//! readiness loops in [`crate::eventloop`] are the other frontend: they
//! run every request themselves, with no queue and no workers.

use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use bpw_bufferpool::{
    BufferPool, ClockManager, FaultPlan, FaultyDisk, ReplacementManager, SimDisk, Storage,
    WrappedManager,
};
use bpw_core::WrapperConfig;
use bpw_metrics::MaxGauge;
use bpw_replacement::PolicyKind;
use crossbeam::channel;

use crate::backpressure::{admission_queue, AdmissionPolicy, AdmissionQueue, Admitted};
use crate::engine::{self, Job, Routed, Shared};
use crate::eventloop;
use crate::exposition;
use crate::metrics::ServerMetrics;
use crate::protocol::{self, Response};

/// Which concurrency model serves client sockets.
///
/// Both frontends speak the same protocol over the same pool, with the
/// same replies in the same order, so the choice is a deployment knob
/// rather than a behaviour change. They differ in which thread runs a
/// request: a worker behind the admission queue, or the event loop that
/// decoded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontendMode {
    /// One thread per connection, blocking I/O, strict request/reply;
    /// workers execute what a connection thread cannot answer itself.
    #[default]
    Threaded,
    /// Readiness event loops (epoll), each multiplexing its share of the
    /// connections with request pipelining and batched writes, and
    /// running every request to completion itself.
    EventLoop,
}

impl std::fmt::Display for FrontendMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrontendMode::Threaded => "threaded",
            FrontendMode::EventLoop => "eventloop",
        })
    }
}

impl std::str::FromStr for FrontendMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "threaded" => Ok(FrontendMode::Threaded),
            "eventloop" | "event-loop" | "evl" => Ok(FrontendMode::EventLoop),
            other => Err(format!(
                "unknown frontend mode {other:?} (want threaded or eventloop)"
            )),
        }
    }
}

/// A buffer pool whose synchronization scheme was chosen at runtime.
pub type DynPool = BufferPool<Box<dyn ReplacementManager>>;

/// Everything needed to start a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Threads executing page requests: workers behind the admission
    /// queue (threaded), or event loops, each with its own pool session
    /// (event loop). At least one either way.
    pub workers: usize,
    /// Threaded only: admission queue capacity (requests). The event
    /// loop has no queue.
    pub queue_capacity: usize,
    /// Overload policy. Under the event loop nothing queues: `Block`
    /// never blocks, `Shed` never sheds, and `DeadlineDrop` drops a
    /// request whose decode ended past its deadline.
    pub policy: AdmissionPolicy,
    /// Buffer pool frames.
    pub frames: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Page-id universe; requests beyond `0..pages` get `ERR`.
    pub pages: u64,
    /// Manager spec, e.g. `"wrapped-2q"` (see [`build_manager`]).
    pub manager: String,
    /// When set, the simulated disk is wrapped in a [`FaultyDisk`]
    /// driven by this plan (chaos testing; see
    /// [`Server::faulty_disk`]).
    pub fault_plan: Option<FaultPlan>,
    /// How client sockets are served (`--mode threaded|eventloop`).
    pub mode: FrontendMode,
    /// Event-loop mode only: a connection may leave this many page
    /// replies unread in its write buffer before its loop stops reading
    /// and answering its requests. The threaded frontend answers one
    /// request at a time.
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 256,
            policy: AdmissionPolicy::Block,
            frames: 1024,
            page_size: 4096,
            pages: 1 << 20,
            manager: "wrapped-2q".into(),
            fault_plan: None,
            mode: FrontendMode::Threaded,
            max_pipeline: 64,
        }
    }
}

/// Build a replacement manager from a spec string:
///
/// * `clock` — PostgreSQL-style CLOCK with lock-free hits
/// * `coarse-<policy>` — `<policy>` behind one lock per access: the
///   wrapper at [`WrapperConfig::lock_per_access`], the paper's `pgQ`
/// * `wrapped-<policy>` — `<policy>` behind BP-Wrapper's batching
///   ([`WrapperConfig::default`], `pgBat`)
///
/// where `<policy>` is anything [`PolicyKind`] parses (`2q`, `lirs`,
/// `lru`, `arc`, ...).
pub fn build_manager(spec: &str, frames: usize) -> Result<Box<dyn ReplacementManager>, String> {
    let spec = spec.trim().to_ascii_lowercase();
    if spec == "clock" {
        return Ok(Box::new(ClockManager::new(frames)));
    }
    for (prefix, config) in [
        ("coarse-", WrapperConfig::lock_per_access()),
        ("wrapped-", WrapperConfig::default()),
    ] {
        if let Some(policy) = spec.strip_prefix(prefix) {
            let kind: PolicyKind = policy.parse()?;
            return Ok(Box::new(WrappedManager::new(kind.build(frames), config)));
        }
    }
    Err(format!(
        "unknown manager spec {spec:?} (want clock, coarse-<policy>, or wrapped-<policy>)"
    ))
}

/// A running page service. Dropping without [`join`](Self::join) leaks
/// the threads; tests and binaries should always join.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Present when the config asked for fault injection; tests and the
    /// chaos driver use it to steer faults mid-run.
    faulty: Option<Arc<FaultyDisk>>,
    /// Threaded only: the server's own sender handle; dropped during
    /// [`join`](Self::join) so the workers see the channel disconnect
    /// once every connection thread's clone is gone too.
    admission: Option<AdmissionQueue<Job>>,
    /// The acceptor (threaded) or the event loops.
    frontend: Vec<JoinHandle<()>>,
    /// Threaded only: the workers.
    workers: Vec<JoinHandle<()>>,
    /// Threaded frontend only: live connection threads, each with a
    /// clone of its socket so [`join`](Self::join) can end its reads.
    conns: Arc<Mutex<Vec<Conn>>>,
}

impl Server {
    /// Bind, spawn the frontend's threads, and return.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let manager = build_manager(&config.manager, config.frames)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut faulty = None;
        let storage: Arc<dyn Storage> = match config.fault_plan {
            Some(plan) => {
                let disk = Arc::new(FaultyDisk::new(Arc::new(SimDisk::instant()), plan));
                faulty = Some(Arc::clone(&disk));
                disk
            }
            None => Arc::new(SimDisk::instant()),
        };
        let pool = Arc::new(BufferPool::new(
            config.frames,
            config.page_size,
            manager,
            storage,
        ));
        let queue = (config.mode == FrontendMode::Threaded)
            .then(|| admission_queue(config.queue_capacity, config.policy));
        let shared = Arc::new(Shared {
            pool,
            metrics: ServerMetrics::shared(),
            stop: Arc::new(AtomicBool::new(false)),
            pages: config.pages,
            depth: queue
                .as_ref()
                .map_or_else(|| Arc::new(MaxGauge::new()), |(a, _)| a.depth_gauge()),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = config.workers.max(1);
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::new();
        let mut admission = None;
        let frontend = match queue {
            Some((queue, work)) => {
                workers = (0..threads)
                    .map(|i| {
                        let shared = Arc::clone(&shared);
                        let work = work.clone();
                        thread::Builder::new()
                            .name(format!("bpw-worker-{i}"))
                            .spawn(move || engine::worker_loop(&shared, &work))
                            .expect("spawn worker")
                    })
                    .collect();
                let shared = Arc::clone(&shared);
                let conns = Arc::clone(&conns);
                let acceptor_queue = queue.clone();
                admission = Some(queue);
                let acceptor = thread::Builder::new()
                    .name("bpw-acceptor".into())
                    .spawn(move || accept_loop(&listener, &shared, &acceptor_queue, &conns))
                    .expect("spawn acceptor");
                vec![acceptor]
            }
            None => {
                listener.set_nonblocking(true)?;
                let deadline = match config.policy {
                    AdmissionPolicy::DeadlineDrop(d) => Some(d),
                    AdmissionPolicy::Block | AdmissionPolicy::Shed => None,
                };
                let max_pipeline = config.max_pipeline.max(1);
                (0..threads)
                    .map(|i| {
                        let listener = listener.try_clone()?;
                        let shared = Arc::clone(&shared);
                        Ok(thread::Builder::new()
                            .name(format!("bpw-evl-loop-{i}"))
                            .spawn(move || {
                                eventloop::run(listener, &shared, deadline, max_pipeline)
                            })
                            .expect("spawn event loop"))
                    })
                    .collect::<io::Result<_>>()?
            }
        };

        Ok(Server {
            addr,
            shared,
            faulty,
            admission,
            frontend,
            workers,
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics (shared with all threads).
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.shared.metrics
    }

    /// The underlying buffer pool.
    pub fn pool(&self) -> &Arc<DynPool> {
        &self.shared.pool
    }

    /// The fault-injecting disk, when the config enabled one.
    pub fn faulty_disk(&self) -> Option<&Arc<FaultyDisk>> {
        self.faulty.as_ref()
    }

    /// Render the same JSON a `STATS` request returns.
    pub fn stats_json(&self) -> String {
        exposition::stats_json(&self.shared)
    }

    /// Render the same text a `METRICS` request returns.
    pub fn metrics_text(&self) -> String {
        exposition::metrics_text(&self.shared)
    }

    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Has a stop been requested (via [`stop`](Self::stop) or a client
    /// `SHUTDOWN`)?
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Block until a stop is requested.
    pub fn wait_stop_requested(&self) {
        while !self.stop_requested() {
            thread::sleep(Duration::from_millis(25));
        }
    }

    /// Ask the server to stop accepting new connections: flag the stop
    /// and poke the (possibly blocked) acceptor awake with a throwaway
    /// connection. Event loops see the flag within one `epoll_wait`
    /// timeout.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Ok(s) = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200)) {
            drop(s);
        }
    }

    /// Stop accepting, answer everything already received, close the
    /// connections, drain the queue, and join every thread. An idle
    /// client does not hold this up: both frontends end their reads once
    /// a stop is requested (the event loops do so themselves).
    pub fn join(mut self) {
        self.stop();
        for t in std::mem::take(&mut self.frontend) {
            let _ = t.join();
        }
        // Ending a socket's read half turns a blocked `read_frame` into
        // EOF, while bytes the kernel already queued are still read and
        // answered first. Each connection thread drops its
        // admission-queue clone on the way out.
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in conns {
            let _ = conn.thread.join();
        }
        // Dropping the last sender disconnects the channel; workers
        // drain whatever is queued and exit.
        drop(self.admission.take());
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

/// One threaded-frontend connection: its thread and a socket clone.
struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    admission: &AdmissionQueue<Job>,
    conns: &Mutex<Vec<Conn>>,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        let shared = Arc::clone(shared);
        let admission = admission.clone();
        let thread = thread::Builder::new()
            .name("bpw-conn".into())
            .spawn(move || {
                shared.metrics.connections_open.incr();
                let _ = serve_connection(&stream, &shared, &admission);
                // The acceptor's clone keeps the fd alive until it is
                // reaped; the peer must see the close now.
                let _ = stream.shutdown(Shutdown::Both);
                shared.metrics.connections_open.decr();
            })
            .expect("spawn connection thread");
        let mut conns = conns.lock().expect("conns lock");
        // Reap finished connections so neither the handles nor their
        // socket clones (open fds) accumulate with connection churn.
        conns.retain(|c| !c.thread.is_finished());
        conns.push(Conn {
            stream: clone,
            thread,
        });
    }
}

/// One client connection: strict request/reply in order.
fn serve_connection(
    stream: &TcpStream,
    shared: &Shared,
    admission: &AdmissionQueue<Job>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // This thread's pool session: resident GETs are answered right here.
    let mut session = shared.pool.session();
    let mut reader = BufReader::new(stream);
    // Room for one whole page reply, so that copying a resident page out
    // of its frame never reaches the socket while the frame is pinned.
    let reply_frame = shared.pool.page_size() + protocol::RESPONSE_HEAD;
    let mut writer = BufWriter::with_capacity(reply_frame.max(8 << 10), stream);
    let mut buf = Vec::new();
    while protocol::read_frame(&mut reader, &mut buf)? {
        // Strict request/reply: nothing of this connection is queued
        // while a frame is being routed, so any resident GET may be
        // answered in place. No buffers are recycled here: a PUT's data
        // is decoded into a fresh one, which its worker frees.
        let routed = engine::route(shared, &mut session, &buf, &mut Vec::new());
        let (ticket, resp, fatal) = match routed {
            Routed::Resident(hit) => {
                hit.reply(shared, &mut writer)?;
                continue;
            }
            Routed::Reply(resp) => (None, resp, false),
            Routed::Fatal(resp) => (None, resp, true),
            Routed::Work(req, ticket) => {
                // The hits this thread answered are still in its
                // BP-Wrapper queue. Commit them before a worker can run
                // this request: the policy then picks victims knowing
                // every access the connection made before it, in the
                // order it made them.
                session.flush();
                let (reply, reply_rx) = channel::bounded(1);
                let (ticket, resp) = match admission.submit(Job { req, ticket, reply }) {
                    Admitted::Queued => reply_rx.recv().unwrap_or_else(|_| {
                        (
                            ticket,
                            Response::Err("server shut down before replying".into()),
                        )
                    }),
                    Admitted::Shed => (ticket, Response::Busy),
                    Admitted::Closed => (ticket, engine::shutting_down()),
                };
                (Some(ticket), resp, false)
            }
        };
        engine::write_reply(shared, ticket, &resp, &mut writer)?;
        if fatal {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_specs_parse() {
        for spec in [
            "clock",
            "coarse-2q",
            "coarse-lirs",
            "wrapped-2q",
            "wrapped-lru",
            "WRAPPED-ARC",
        ] {
            let m = build_manager(spec, 64).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(!m.name().is_empty());
        }
        assert!(build_manager("fine-2q", 64).is_err());
        assert!(build_manager("wrapped-nosuch", 64).is_err());
    }

    #[test]
    fn removed_policy_spec_names_what_is_left() {
        let err = build_manager("wrapped-lru-2", 8)
            .err()
            .expect("LRU-2 is gone");
        assert!(err.contains("\"lru-2\"") && err.contains("2Q"), "{err}");
    }

    #[test]
    fn server_starts_and_joins() {
        let server = Server::start(ServerConfig {
            workers: 2,
            frames: 16,
            page_size: 64,
            pages: 128,
            ..ServerConfig::default()
        })
        .expect("start");
        assert_ne!(server.addr().port(), 0);
        let json = server.stats_json();
        assert!(json.starts_with('{'), "stats must be JSON: {json}");
        server.join();
    }
}
