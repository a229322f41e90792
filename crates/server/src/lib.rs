//! # bpw-server
//!
//! A concurrent page-service frontend over the BP-Wrapper buffer pool:
//! a length-prefixed TCP protocol ([`protocol`]), two socket frontends
//! over one request engine — [`server`]'s thread-per-connection driver
//! and readiness event loops, both running every request on the thread
//! that read it — a blocking [`client`], a workload-driven load
//! generator ([`loadgen`]), and end-to-end latency observability
//! ([`metrics`]) exported through one metric table as `STATS` JSON and
//! `METRICS` text.
//!
//! The paper's claim is about lock contention *inside* the buffer
//! manager; this crate puts a realistic service in front of it so the
//! difference shows up where operators would see it — tail latency and
//! sustained throughput of a network server — rather than only in
//! microbenchmark counters.
//!
//! ```no_run
//! use bpw_server::{Client, LoadConfig, Server, ServerConfig};
//! use bpw_workloads::ZipfWorkload;
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let workload = ZipfWorkload::new(10_000, 0.86, 8);
//! let report = bpw_server::loadgen::run(server.addr(), &workload, &LoadConfig::default());
//! println!("{}", report.summary());
//!
//! let mut c = Client::connect(server.addr()).unwrap();
//! println!("{}", c.stats().unwrap());
//! c.shutdown().unwrap();
//! server.join();
//! ```

pub mod backpressure;
pub mod client;
mod engine;
mod eventloop;
mod exposition;
pub mod loadgen;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod server;

pub use backpressure::AdmissionPolicy;
pub use bpw_bufferpool::{FaultPlan, FaultyDisk};
pub use client::Client;
pub use loadgen::{LoadConfig, LoadMode, LoadReport};
pub use metrics::{OpKind, ServerMetrics};
pub use poll::{poll_until, wait_for};
pub use protocol::{Request, Response, MAX_FRAME};
pub use server::{build_manager, DynPool, FrontendMode, Server, ServerConfig};
