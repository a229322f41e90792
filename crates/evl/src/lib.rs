//! # bpw-evl
//!
//! The readiness event-loop core under the page service's `eventloop`
//! frontend: a hand-rolled epoll binding ([`Epoll`], [`Interest`],
//! [`Ready`]) over raw syscalls ([`sys`]) and a draining outbound buffer
//! ([`WriteBuf`]) for nonblocking sockets.
//!
//! The workspace builds offline, so this crate vendors nothing and
//! depends on nothing: the few kernel entry points it needs are declared
//! directly against the C library every Rust binary already links.
//! Protocol knowledge stays out — `bpw-server` owns frames and request
//! semantics; this crate owns readiness and byte shoveling,
//! which is what makes it reusable for any future network-facing
//! subsystem (replication, a metrics listener, a tenant-control plane).

mod buf;
mod epoll;
pub mod sys;

pub use buf::{FlushProgress, WriteBuf};
pub use epoll::{Epoll, Interest, Ready};
