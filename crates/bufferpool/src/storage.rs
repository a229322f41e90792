//! Storage substrate: where pages live when they are not in the buffer
//! pool. The paper's machines used RAID arrays; we simulate a device
//! with configurable access latency so the Fig. 8 experiments (buffer
//! smaller than data, systems I/O-bound vs scalability-bound) can be
//! reproduced on any host.
//!
//! Both operations are fallible: real devices time out, return media
//! errors, and degrade under load. [`FaultyDisk`] decorates any
//! [`Storage`] with a deterministic, seeded fault plan (transient
//! fail-next-N, persistent per-page error sets, probabilistic transient
//! faults, latency spikes) so every error path in the pool can be
//! exercised repeatably.
//!
//! [`SimDisk`] finds a stored page the way vmcache finds a cached one:
//! by arithmetic over one virtual-memory reservation, not through a hash
//! table. A block address is an offset, so an instant device's read or
//! write costs its stripe lock and one copy.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use bpw_core::CachePadded;
use bpw_metrics::StripedCounter;
use bpw_replacement::PageId;
use parking_lot::{Mutex, RwLock};

use crate::frame_bytes::Mapping;

/// A page-granular storage device.
pub trait Storage: Send + Sync {
    /// Read `page` into `buf` (exactly one page). On `Err`, `buf`'s
    /// contents are unspecified and must not be served.
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()>;

    /// Write `buf` as the new contents of `page`. On `Err` the page's
    /// previous durable contents are still intact (no torn pages).
    fn write_page(&self, page: PageId, buf: &[u8]) -> io::Result<()>;

    /// Pages read so far (successful reads only).
    fn reads(&self) -> u64;

    /// Pages written so far (successful writes only).
    fn writes(&self) -> u64;
}

/// `log2` of the number of [`SimDisk`] stripe locks.
const STRIPE_BITS: u32 = 6;

/// One of [`SimDisk`]'s stripe locks, on its own cache line.
type Stripe = CachePadded<RwLock<()>>;

/// Bytes of address space a [`SimDisk`] reserves for its written pages:
/// `CAPACITY / P` pages of `P` bytes. Only what is written is ever
/// backed by memory.
const CAPACITY: usize = 64 << 30;

/// Deterministic simulated disk: unwritten pages read back as a pure
/// function of the page id (verifiable), written pages are retained and
/// read back exactly (write-back durability), and each access spins for
/// a configurable latency to model device time.
///
/// The device's first write fixes its page size `P`. Page `p` is stored
/// at byte `p × P` of one mapping that reserves 64 GiB and is advised
/// for huge pages, as a pool's frames are, so finding a page is
/// arithmetic: no hash probe, no box per page, no allocation on a page's
/// first write. A write longer than `P`, or of a page past the capacity,
/// is refused with [`io::ErrorKind::InvalidInput`]; a read of a page
/// never written, at any id, synthesizes its content.
///
/// `1 << STRIPE_BITS` stripe locks, chosen by a hash of the page id, are
/// the only exclusion, and the access counts are per-thread cells, so
/// misses on different threads share no lock and no counter line. Reads
/// copy under their stripe's shared lock, so they run concurrently; a
/// write holds it exclusively for its copy, so no read sees a torn page.
pub struct SimDisk {
    read_latency: Duration,
    write_latency: Duration,
    stripes: [Stripe; 1 << STRIPE_BITS],
    store: OnceLock<Store>,
    written: StripedCounter,
    reads: StripedCounter,
    writes: StripedCounter,
}

/// [`SimDisk`]'s written pages, mapped at its first write.
struct Store {
    /// `P`: the length of the device's first write.
    page_size: usize,
    /// The capacity in pages, `CAPACITY / P`.
    pages: u64,
    /// Page `p`'s bytes at `p × P`.
    bytes: Mapping,
    /// Page `p`'s word at `p`: 0 if it was never written, its stored
    /// length plus one if it was.
    words: Mapping,
}

impl Store {
    fn new(page_size: usize) -> io::Result<Self> {
        let pages = CAPACITY / page_size;
        let bytes = Mapping::reserve(pages * page_size)?;
        bytes.advise_huge_pages();
        let words = Mapping::reserve(pages * size_of::<u64>())?;
        Ok(Store {
            page_size,
            pages: pages as u64,
            bytes,
            words,
        })
    }

    /// `page`'s word: inside `words` if `page < pages`.
    fn word(&self, page: PageId) -> *mut u64 {
        self.words
            .as_ptr()
            .cast::<u64>()
            .wrapping_add(page as usize)
    }

    /// `page`'s first byte: its `P` bytes are inside `bytes` if
    /// `page < pages`.
    fn bytes(&self, page: PageId) -> *mut u8 {
        self.bytes
            .as_ptr()
            .wrapping_add((page as usize).wrapping_mul(self.page_size))
    }

    /// `page`'s stored copy, or `None` if it was never written (a page
    /// past the capacity never is).
    ///
    /// # Safety
    /// The caller holds `page`'s stripe lock, in either mode, for as long
    /// as it uses the slice.
    unsafe fn stored(&self, page: PageId) -> Option<&[u8]> {
        if page >= self.pages {
            return None;
        }
        // SAFETY: `page < pages`, so its word and bytes are in the
        // mappings; a word other than 0 is a stored length plus one, at
        // most `P`; and the caller's stripe lock excludes `put`.
        match unsafe { *self.word(page) } {
            0 => None,
            word => {
                Some(unsafe { std::slice::from_raw_parts(self.bytes(page), word as usize - 1) })
            }
        }
    }

    /// Store `buf` as `page`'s copy, in place; `true` if it is the page's
    /// first write.
    ///
    /// # Safety
    /// `page < pages` and `buf.len() <= page_size`, and the caller holds
    /// `page`'s stripe lock exclusively.
    unsafe fn put(&self, page: PageId, buf: &[u8]) -> bool {
        let word = self.word(page);
        // SAFETY: `page < pages` and `buf` fits in its `P` bytes, by the
        // caller's promise; its exclusive stripe lock excludes every
        // other `stored` and `put` of the page.
        unsafe {
            let first = *word == 0;
            std::ptr::copy_nonoverlapping(buf.as_ptr(), self.bytes(page), buf.len());
            *word = buf.len() as u64 + 1;
            first
        }
    }
}

impl SimDisk {
    /// A disk with the given per-access latencies.
    pub fn new(read_latency: Duration, write_latency: Duration) -> Self {
        SimDisk {
            read_latency,
            write_latency,
            stripes: std::array::from_fn(|_| CachePadded::new(RwLock::new(()))),
            store: OnceLock::new(),
            written: StripedCounter::default(),
            reads: StripedCounter::default(),
            writes: StripedCounter::default(),
        }
    }

    /// Number of distinct pages that have been written.
    pub fn written_pages(&self) -> usize {
        self.written.get() as usize
    }

    /// The stripe lock of `page` (Fibonacci hashing: the multiply's top
    /// bits, so consecutive ids spread over every stripe).
    fn stripe(&self, page: PageId) -> &Stripe {
        &self.stripes[(page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STRIPE_BITS)) as usize]
    }

    /// The store, mapped with page size `page_size` if this is the
    /// device's first write. Two racing first writes both map one; the
    /// loser's is unmapped.
    fn store(&self, page_size: usize) -> io::Result<&Store> {
        if let Some(store) = self.store.get() {
            return Ok(store);
        }
        let fresh = Store::new(page_size.max(1))?;
        Ok(self.store.get_or_init(|| fresh))
    }

    /// A latency-free disk (pure function of page id), for tests and
    /// hit-path benchmarks.
    pub fn instant() -> Self {
        Self::new(Duration::ZERO, Duration::ZERO)
    }

    /// First byte a page's content is filled with (test helper).
    pub fn fill_byte(page: PageId) -> u8 {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
    }

    fn spin_for(d: Duration) {
        if d.is_zero() {
            return;
        }
        // Busy-wait below a scheduling quantum, sleep above it: short
        // device latencies would otherwise be swamped by timer slack.
        if d < Duration::from_micros(100) {
            let start = std::time::Instant::now();
            while start.elapsed() < d {
                std::hint::spin_loop();
            }
        } else {
            std::thread::sleep(d);
        }
    }
}

impl Storage for SimDisk {
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        Self::spin_for(self.read_latency);
        let store = self.store.get();
        // (The `dst_mutation = "simdisk_unguarded_read"` mutant copies
        // without the lock, which the torn-read race test must catch.)
        #[cfg(not(dst_mutation = "simdisk_unguarded_read"))]
        let _shared = self.stripe(page).read();
        // SAFETY: this holds `page`'s stripe lock until it returns.
        match store.and_then(|s| unsafe { s.stored(page) }) {
            Some(stored) => {
                let n = stored.len().min(buf.len());
                buf[..n].copy_from_slice(&stored[..n]);
                // A stored page shorter than the frame must not leave the
                // tail holding the evicted victim's stale bytes.
                buf[n..].fill(0);
            }
            None => {
                buf.fill(Self::fill_byte(page));
                if buf.len() >= 8 {
                    buf[..8].copy_from_slice(&page.to_le_bytes());
                }
            }
        }
        self.reads.incr();
        Ok(())
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> io::Result<()> {
        Self::spin_for(self.write_latency);
        let store = self.store(buf.len())?;
        if buf.len() > store.page_size || page >= store.pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} bytes at page {page}: the device holds {} pages of {} bytes",
                    buf.len(),
                    store.pages,
                    store.page_size
                ),
            ));
        }
        let _exclusive = self.stripe(page).write();
        // SAFETY: the page and its length fit, checked above, and this
        // holds its stripe lock exclusively.
        if unsafe { store.put(page, buf) } {
            self.written.incr();
        }
        self.writes.incr();
        Ok(())
    }

    fn reads(&self) -> u64 {
        self.reads.get()
    }

    fn writes(&self) -> u64 {
        self.writes.get()
    }
}

// --- Fault injection --------------------------------------------------------

/// A declarative fault plan for [`FaultyDisk`]. Everything is
/// deterministic given `seed` and the sequence of operations issued.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the probabilistic fault draws.
    pub seed: u64,
    /// Per-million probability that any read fails (transient).
    pub read_fail_ppm: u32,
    /// Per-million probability that any write fails (transient).
    pub write_fail_ppm: u32,
    /// Per-million probability that an access takes a latency spike.
    pub spike_ppm: u32,
    /// Duration of an injected latency spike.
    pub spike: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA_17,
            read_fail_ppm: 0,
            write_fail_ppm: 0,
            spike_ppm: 0,
            spike: Duration::from_micros(500),
        }
    }
}

#[derive(Debug)]
struct FaultState {
    rng: u64,
    fail_next_reads: u64,
    broken_reads: HashSet<PageId>,
    broken_writes: HashSet<PageId>,
    read_fail_ppm: u32,
    write_fail_ppm: u32,
    spike_ppm: u32,
    spike: Duration,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A decorator that injects faults into any [`Storage`] according to a
/// [`FaultPlan`]. The same seed and the same operation sequence produce
/// the same fault sequence, so chaos runs are replayable.
pub struct FaultyDisk {
    inner: std::sync::Arc<dyn Storage>,
    state: Mutex<FaultState>,
    /// Read faults injected so far.
    injected_read_faults: AtomicU64,
    /// Write faults injected so far.
    injected_write_faults: AtomicU64,
    /// Latency spikes injected so far.
    injected_spikes: AtomicU64,
}

impl FaultyDisk {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: std::sync::Arc<dyn Storage>, plan: FaultPlan) -> Self {
        FaultyDisk {
            inner,
            state: Mutex::new(FaultState {
                rng: plan.seed,
                fail_next_reads: 0,
                broken_reads: HashSet::new(),
                broken_writes: HashSet::new(),
                read_fail_ppm: plan.read_fail_ppm,
                write_fail_ppm: plan.write_fail_ppm,
                spike_ppm: plan.spike_ppm,
                spike: plan.spike,
            }),
            injected_read_faults: AtomicU64::new(0),
            injected_write_faults: AtomicU64::new(0),
            injected_spikes: AtomicU64::new(0),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &std::sync::Arc<dyn Storage> {
        &self.inner
    }

    /// Fail the next `n` reads (adds to any pending budget).
    pub fn fail_next_reads(&self, n: u64) {
        self.state.lock().fail_next_reads += n;
    }

    /// Make every read of `page` fail until [`clear_faults`](Self::clear_faults).
    pub fn break_page_reads(&self, page: PageId) {
        self.state.lock().broken_reads.insert(page);
    }

    /// Make every write of `page` fail until [`clear_faults`](Self::clear_faults).
    pub fn break_page_writes(&self, page: PageId) {
        self.state.lock().broken_writes.insert(page);
    }

    /// Remove every pending and persistent fault; the device becomes
    /// healthy again (latency spikes included).
    pub fn clear_faults(&self) {
        let mut s = self.state.lock();
        s.fail_next_reads = 0;
        s.broken_reads.clear();
        s.broken_writes.clear();
        s.read_fail_ppm = 0;
        s.write_fail_ppm = 0;
        s.spike_ppm = 0;
    }

    /// Decide the fate of one access. Returns `(inject_fault, spike)`.
    fn draw(&self, page: PageId, write: bool) -> (bool, Option<Duration>) {
        let mut s = self.state.lock();
        let broken = if write {
            s.broken_writes.contains(&page)
        } else {
            s.broken_reads.contains(&page)
        };
        let spike = if s.spike_ppm > 0 && splitmix64(&mut s.rng) % 1_000_000 < s.spike_ppm as u64 {
            Some(s.spike)
        } else {
            None
        };
        if broken {
            return (true, spike);
        }
        if !write && s.fail_next_reads > 0 {
            s.fail_next_reads -= 1;
            return (true, spike);
        }
        let ppm = if write {
            s.write_fail_ppm
        } else {
            s.read_fail_ppm
        };
        let fault = ppm > 0 && splitmix64(&mut s.rng) % 1_000_000 < ppm as u64;
        (fault, spike)
    }
}

impl Storage for FaultyDisk {
    fn read_page(&self, page: PageId, buf: &mut [u8]) -> io::Result<()> {
        let (fault, spike) = self.draw(page, false);
        if let Some(d) = spike {
            self.injected_spikes.fetch_add(1, Ordering::Relaxed);
            SimDisk::spin_for(d);
        }
        if fault {
            self.injected_read_faults.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(format!(
                "injected read fault on page {page}"
            )));
        }
        self.inner.read_page(page, buf)
    }

    fn write_page(&self, page: PageId, buf: &[u8]) -> io::Result<()> {
        let (fault, spike) = self.draw(page, true);
        if let Some(d) = spike {
            self.injected_spikes.fetch_add(1, Ordering::Relaxed);
            SimDisk::spin_for(d);
        }
        if fault {
            self.injected_write_faults.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(format!(
                "injected write fault on page {page}"
            )));
        }
        self.inner.write_page(page, buf)
    }

    fn reads(&self) -> u64 {
        self.inner.reads()
    }

    fn writes(&self) -> u64 {
        self.inner.writes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn reads_are_deterministic_and_tagged() {
        let d = SimDisk::instant();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        d.read_page(7, &mut a).unwrap();
        d.read_page(7, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(u64::from_le_bytes(a[..8].try_into().unwrap()), 7);
        assert_eq!(d.reads(), 2);
    }

    #[test]
    fn different_pages_differ() {
        let d = SimDisk::instant();
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        d.read_page(1, &mut a).unwrap();
        d.read_page(2, &mut b).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn latency_is_applied() {
        let d = SimDisk::new(Duration::from_micros(200), Duration::ZERO);
        let mut buf = vec![0u8; 8];
        let t0 = std::time::Instant::now();
        d.read_page(1, &mut buf).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(150));
    }

    #[test]
    fn write_counter() {
        let d = SimDisk::instant();
        d.write_page(3, &[0u8; 8]).unwrap();
        d.write_page(4, &[0u8; 8]).unwrap();
        assert_eq!(d.writes(), 2);
        assert_eq!(d.reads(), 0);
        assert_eq!(d.written_pages(), 2);
    }

    #[test]
    fn written_pages_read_back_exactly() {
        let d = SimDisk::instant();
        let payload = [7u8; 32];
        d.write_page(42, &payload).unwrap();
        let mut buf = [0u8; 32];
        d.read_page(42, &mut buf).unwrap();
        assert_eq!(buf, payload, "written data must persist");
        // Other pages still synthesize deterministic content.
        d.read_page(43, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), 43);
    }

    #[test]
    fn short_stored_page_zero_fills_the_tail() {
        let d = SimDisk::instant();
        // Leave victim bytes in the buffer, then read a page whose
        // stored copy is shorter than the frame.
        d.write_page(9, &[0xEE; 16]).unwrap();
        let mut buf = vec![0xA5u8; 64];
        d.read_page(9, &mut buf).unwrap();
        assert!(buf[..16].iter().all(|&b| b == 0xEE));
        assert!(
            buf[16..].iter().all(|&b| b == 0),
            "tail must be zero-filled, not stale victim bytes: {:?}",
            &buf[16..]
        );
    }

    #[test]
    fn overwrite_keeps_one_copy_and_a_new_length_replaces_it() {
        let d = SimDisk::instant();
        d.write_page(9, &[0x11; 64]).unwrap();
        d.write_page(9, &[0x22; 64]).unwrap();
        assert_eq!(d.written_pages(), 1, "an overwrite stores no second page");
        assert_eq!(d.writes(), 2);
        let mut buf = vec![0xA5u8; 64];
        d.read_page(9, &mut buf).unwrap();
        assert_eq!(buf, [0x22; 64]);
        // A shorter page is stored in place and read back zero-filled.
        d.write_page(9, &[0x33; 16]).unwrap();
        d.read_page(9, &mut buf).unwrap();
        assert_eq!(buf[..16], [0x33; 16]);
        assert!(buf[16..].iter().all(|&b| b == 0), "stale tail: {buf:?}");
        // Longer than the device page (the first write's 64 bytes): refused.
        let refused = d.write_page(9, &[0x44; 96]).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        d.read_page(9, &mut buf).unwrap();
        assert_eq!(buf[..16], [0x33; 16], "the refused write left no trace");
        assert_eq!((d.written_pages(), d.writes()), (1, 3));
    }

    #[test]
    fn a_write_past_the_capacity_is_refused_and_a_read_there_synthesizes() {
        let d = SimDisk::instant();
        d.write_page(0, &[0x11; 64]).unwrap();
        let past = (CAPACITY / 64) as PageId;
        d.write_page(past - 1, &[0x22; 64]).unwrap();
        for page in [past, u64::MAX] {
            let refused = d.write_page(page, &[0x33; 64]).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
            let mut buf = [0u8; 64];
            d.read_page(page, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), page);
            assert!(buf[8..].iter().all(|&b| b == SimDisk::fill_byte(page)));
        }
        let mut buf = [0u8; 64];
        d.read_page(past - 1, &mut buf).unwrap();
        assert_eq!(buf, [0x22; 64], "the last page in range is stored");
        assert_eq!((d.written_pages(), d.writes()), (2, 2));
    }

    #[test]
    fn threads_writing_every_stripe_read_back_exactly() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 256;
        let d = SimDisk::instant();
        let page_bytes = |page: u64| {
            let mut buf = [(page as u8) ^ 0x5A; 64];
            buf[..8].copy_from_slice(&page.to_le_bytes());
            buf
        };
        let stripe_of = |page| d.stripe(page) as *const Stripe;
        let stripes: HashSet<_> = (0..THREADS * PER_THREAD).map(stripe_of).collect();
        assert_eq!(
            stripes.len(),
            d.stripes.len(),
            "the pages cover every stripe"
        );
        std::thread::scope(|sc| {
            for t in 0..THREADS {
                let d = &d;
                sc.spawn(move || {
                    let mine = (0..PER_THREAD).map(|i| i * THREADS + t);
                    for page in mine.clone() {
                        d.write_page(page, &page_bytes(page)).unwrap();
                    }
                    let mut buf = [0u8; 64];
                    for page in mine {
                        d.read_page(page, &mut buf).unwrap();
                        assert_eq!(buf, page_bytes(page), "page {page}");
                    }
                });
            }
        });
        assert_eq!(d.written_pages() as u64, THREADS * PER_THREAD);
        assert_eq!(
            (d.writes(), d.reads()),
            (THREADS * PER_THREAD, THREADS * PER_THREAD)
        );
    }

    #[test]
    fn faulty_disk_fail_next_reads_is_transient() {
        let d = FaultyDisk::new(Arc::new(SimDisk::instant()), FaultPlan::default());
        d.fail_next_reads(2);
        let mut buf = vec![0u8; 16];
        assert!(d.read_page(1, &mut buf).is_err());
        assert!(d.read_page(1, &mut buf).is_err());
        assert!(d.read_page(1, &mut buf).is_ok());
        assert_eq!(d.injected_read_faults.load(Ordering::Relaxed), 2);
        assert_eq!(d.reads(), 1, "failed reads never reach the device");
    }

    #[test]
    fn faulty_disk_persistent_pages_fail_until_cleared() {
        let d = FaultyDisk::new(Arc::new(SimDisk::instant()), FaultPlan::default());
        d.break_page_reads(7);
        d.break_page_writes(8);
        let mut buf = vec![0u8; 16];
        for _ in 0..5 {
            assert!(d.read_page(7, &mut buf).is_err());
            assert!(d.write_page(8, &buf).is_err());
        }
        assert!(d.read_page(6, &mut buf).is_ok(), "other pages unaffected");
        d.clear_faults();
        assert!(d.read_page(7, &mut buf).is_ok());
        assert!(d.write_page(8, &buf).is_ok());
    }

    #[test]
    fn faulty_disk_same_seed_same_fault_sequence() {
        let plan = FaultPlan {
            seed: 42,
            read_fail_ppm: 300_000,
            write_fail_ppm: 150_000,
            ..FaultPlan::default()
        };
        let mk = || FaultyDisk::new(Arc::new(SimDisk::instant()), plan.clone());
        let (a, b) = (mk(), mk());
        let mut buf = vec![0u8; 16];
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for i in 0..200u64 {
            if i % 3 == 0 {
                seq_a.push(a.write_page(i, &buf).is_err());
                seq_b.push(b.write_page(i, &buf).is_err());
            } else {
                seq_a.push(a.read_page(i, &mut buf).is_err());
                seq_b.push(b.read_page(i, &mut buf).is_err());
            }
        }
        assert_eq!(seq_a, seq_b, "same seed must give the same fault plan");
        assert!(seq_a.iter().any(|&f| f), "some faults must fire at 30%");
        assert!(!seq_a.iter().all(|&f| f), "not every access faults");
    }

    #[test]
    fn faulty_disk_different_seeds_diverge() {
        let mk = |seed| {
            FaultyDisk::new(
                Arc::new(SimDisk::instant()),
                FaultPlan {
                    seed,
                    read_fail_ppm: 500_000,
                    ..FaultPlan::default()
                },
            )
        };
        let (a, b) = (mk(1), mk(2));
        let seq = |d: &FaultyDisk| {
            (0..128u64)
                .map(|i| d.read_page(i, &mut [0u8; 16]).is_err())
                .collect::<Vec<_>>()
        };
        assert_ne!(seq(&a), seq(&b), "different seeds should diverge");
    }

    #[test]
    fn faulty_disk_passes_content_through() {
        let d = FaultyDisk::new(Arc::new(SimDisk::instant()), FaultPlan::default());
        d.write_page(3, &[9u8; 16]).unwrap();
        let mut buf = vec![0u8; 16];
        d.read_page(3, &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 16]);
        assert_eq!(d.injected_read_faults.load(Ordering::Relaxed), 0);
        assert_eq!(d.injected_write_faults.load(Ordering::Relaxed), 0);
    }
}
