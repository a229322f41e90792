//! Raw syscall surface for the event loop.
//!
//! The workspace builds offline with no crates.io registry, so there is
//! no `libc` crate to lean on. Every binary already links the platform
//! C library, though, so the epoll entry points are declared here
//! directly — exactly the symbols the loop needs and nothing more.
//! All wrappers translate `-1` returns into [`io::Error::last_os_error`]
//! so callers stay in ordinary `io::Result` land.

use std::io;
use std::os::unix::io::RawFd;

/// `epoll_event.events` bit: the fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// `epoll_event.events` bit: the fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// `epoll_event.events` bit: error condition.
pub const EPOLLERR: u32 = 0x008;
/// `epoll_event.events` bit: hangup (peer closed both directions).
pub const EPOLLHUP: u32 = 0x010;
/// `epoll_event.events` bit: peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs it
/// (no padding between `events` and `data`); elsewhere it has natural
/// alignment — mirror glibc's definition.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-owned token, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (buffer filler before `epoll_wait`).
    pub const ZERO: EpollEvent = EpollEvent { events: 0, data: 0 };
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `epoll_create1(EPOLL_CLOEXEC)`.
pub fn sys_epoll_create() -> io::Result<RawFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Register `fd` with interest `events` and token `data`.
pub fn sys_epoll_add(epfd: RawFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
}

/// Change `fd`'s interest set.
pub fn sys_epoll_mod(epfd: RawFd, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(drop)
}

/// Deregister `fd`.
pub fn sys_epoll_del(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    let mut ev = EpollEvent::ZERO;
    cvt(unsafe { epoll_ctl(epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
}

/// Wait up to `timeout_ms` (-1 = forever) for readiness; fills `buf`
/// from the front and returns how many entries are valid. `EINTR` is
/// reported as zero events rather than an error — the loop just goes
/// around again.
pub fn sys_epoll_wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
    let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// Best-effort close (fd tables are process-local; errors are ignored
/// the way `std` ignores them in `Drop`).
pub fn sys_close(fd: RawFd) {
    unsafe {
        close(fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_matches_kernel_abi() {
        // x86-64 packs the struct to 12 bytes; everywhere else it is 16.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }
}
