//! What the benchmark asks the operating system and the allocator: CPU
//! clocks, `getrusage`, peak resident memory, and an allocation count.
//!
//! The image has no `libc` crate, so the two libc calls are declared here
//! (std already links libc). Layouts are those of x86-64/aarch64 Linux.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals followed by fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The `getrusage(RUSAGE_SELF)` fields the benchmark reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_ns: u64,
    pub sys_ns: u64,
    pub minor_faults: u64,
    pub vol_ctx_switches: u64,
    pub invol_ctx_switches: u64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage` (layout above)
        // for the duration of the call.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage failed");
        let ns = |tv: &Timeval| tv.tv_sec as u64 * 1_000_000_000 + tv.tv_usec as u64 * 1_000;
        Rusage {
            user_ns: ns(&raw.utime),
            sys_ns: ns(&raw.stime),
            minor_faults: raw.minflt as u64,
            vol_ctx_switches: raw.nvcsw as u64,
            invol_ctx_switches: raw.nivcsw as u64,
        }
    }

    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_ns: self.user_ns - earlier.user_ns,
            sys_ns: self.sys_ns - earlier.sys_ns,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// The system allocator plus two counters behind one relaxed flag that only
/// a traced run sets, so an untraced run pays one predictable branch per
/// allocation. The benchmark binary installs it as `#[global_allocator]`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turn allocation counting on or off (process-wide).
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far. Both stay 0 in a
/// program that did not install [`CountingAlloc`].
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
