//! Safe wrappers over the raw epoll surface: an [`Epoll`] instance with
//! token-based registration and a level-triggered [`Interest`].

use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

use crate::sys::{
    sys_close, sys_epoll_add, sys_epoll_create, sys_epoll_del, sys_epoll_mod, sys_epoll_wait,
    EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Readable only, level-triggered.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only, level-triggered.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable, level-triggered.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction: registration stays alive (hangups are still
    /// reported) but delivers no read/write events — how the loop parks
    /// a connection it is flow-controlling.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        // RDHUP is always on: a peer's half-close should wake the loop
        // even when the connection is parked.
        let mut bits = EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Ready {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd can be read (or accepted) without blocking.
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// Error or hangup condition; the owner should read to EOF / close.
    pub hangup: bool,
}

impl Ready {
    fn from_event(ev: EpollEvent) -> Ready {
        // `ev` is a by-value copy: field reads from the (possibly
        // packed) struct are safe here.
        let bits = ev.events;
        Ready {
            token: ev.data,
            readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
            writable: bits & EPOLLOUT != 0,
            hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
        }
    }
}

/// An epoll instance plus a reusable event buffer.
pub struct Epoll {
    epfd: RawFd,
    buf: Vec<EpollEvent>,
}

impl Epoll {
    /// Create an instance able to deliver up to `capacity` events per
    /// [`wait`](Self::wait).
    pub fn new(capacity: usize) -> io::Result<Epoll> {
        Ok(Epoll {
            epfd: sys_epoll_create()?,
            buf: vec![EpollEvent::ZERO; capacity.max(1)],
        })
    }

    /// Register `fd` under `token`.
    pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys_epoll_add(self.epfd, fd.as_raw_fd(), interest.bits(), token)
    }

    /// Change `fd`'s interest set (token may change too).
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys_epoll_mod(self.epfd, fd.as_raw_fd(), interest.bits(), token)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys_epoll_del(self.epfd, fd.as_raw_fd())
    }

    /// Block up to `timeout` (None = forever) and return the ready set.
    /// A signal or timeout yields an empty slice, not an error.
    pub fn wait(
        &mut self,
        timeout: Option<Duration>,
    ) -> io::Result<impl Iterator<Item = Ready> + '_> {
        let ms = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
        };
        let n = sys_epoll_wait(self.epfd, &mut self.buf, ms)?;
        Ok(self.buf[..n].iter().map(|&ev| Ready::from_event(ev)))
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys_close(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    fn ready_tokens(epoll: &mut Epoll, timeout: Duration) -> Vec<u64> {
        epoll
            .wait(Some(timeout))
            .unwrap()
            .map(|r| r.token)
            .collect()
    }

    /// A connected socket pair: `.1` turns readable when `.0` writes.
    fn pair() -> (UnixStream, UnixStream) {
        let (tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        (tx, rx)
    }

    #[test]
    fn level_triggered_stays_ready_until_drained() {
        let mut epoll = Epoll::new(8).unwrap();
        let (mut tx, mut rx) = pair();
        epoll.add(&rx, 42, Interest::READ).unwrap();

        tx.write_all(b"!").unwrap();
        assert_eq!(ready_tokens(&mut epoll, Duration::from_secs(5)), vec![42]);
        // Level-triggered: still ready until the byte is read.
        assert_eq!(ready_tokens(&mut epoll, Duration::from_secs(5)), vec![42]);
        assert_eq!(rx.read(&mut [0u8; 8]).unwrap(), 1);
        assert!(ready_tokens(&mut epoll, Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn interest_none_silences_a_ready_fd() {
        let mut epoll = Epoll::new(8).unwrap();
        let (mut tx, rx) = pair();
        epoll.add(&rx, 1, Interest::READ).unwrap();
        tx.write_all(b"!").unwrap();
        assert_eq!(ready_tokens(&mut epoll, Duration::from_secs(5)), vec![1]);
        // Park it: still registered, but no events delivered.
        epoll.modify(&rx, 1, Interest::NONE).unwrap();
        assert!(ready_tokens(&mut epoll, Duration::from_millis(20)).is_empty());
        // Unpark: the level-triggered readiness resurfaces immediately.
        epoll.modify(&rx, 1, Interest::READ).unwrap();
        assert_eq!(ready_tokens(&mut epoll, Duration::from_secs(5)), vec![1]);
        epoll.delete(&rx).unwrap();
        tx.write_all(b"!").unwrap();
        assert!(ready_tokens(&mut epoll, Duration::from_millis(20)).is_empty());
    }

    #[test]
    fn tcp_sockets_report_read_write_and_hangup() {
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut epoll = Epoll::new(8).unwrap();
        epoll.add(&listener, 1, Interest::READ).unwrap();

        // A connect makes the listener readable (accept won't block).
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(ready_tokens(&mut epoll, Duration::from_secs(5)), vec![1]);
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        epoll.add(&server_side, 2, Interest::READ_WRITE).unwrap();

        // Idle socket with write interest: writable, not readable.
        let evs: Vec<Ready> = epoll
            .wait(Some(Duration::from_secs(5)))
            .unwrap()
            .filter(|r| r.token == 2)
            .collect();
        assert!(evs.iter().any(|r| r.writable && !r.readable));

        // Bytes from the peer: readable.
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let saw_readable = |epoll: &mut Epoll| {
            epoll
                .wait(Some(Duration::from_secs(5)))
                .unwrap()
                .any(|r| r.token == 2 && r.readable)
        };
        assert!(saw_readable(&mut epoll));

        // Peer hangup: readable (EOF) — and RDHUP even if parked.
        epoll.modify(&server_side, 2, Interest::NONE).unwrap();
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut saw_hup = false;
        while std::time::Instant::now() < deadline && !saw_hup {
            saw_hup = epoll
                .wait(Some(Duration::from_millis(100)))
                .unwrap()
                .any(|r| r.token == 2 && (r.readable || r.hangup));
        }
        assert!(saw_hup, "peer close must surface despite Interest::NONE");
    }
}
