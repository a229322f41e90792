//! Every frame's bytes, in one anonymous memory mapping.
//!
//! The kernel backs a page of the mapping only when it is first touched,
//! so the frames a pool never fills cost no memory, and building a pool
//! makes no allocation per frame. The whole 2 MiB extents of the mapping
//! are advised for transparent huge pages, so the frames in use span few
//! TLB entries. [`Mapping`] is the owned mapping itself; `SimDisk` keeps
//! its stored pages in two more of them.
//!
//! The workspace builds offline with no crates.io registry, so there is
//! no `libc` crate: `mmap`, `munmap` and `madvise` are declared here
//! directly, as `bpw-evl` declares its epoll symbols. Every binary links
//! the platform C library already.

use std::ffi::c_void;
use std::io;
use std::ptr::{self, NonNull};

use bpw_replacement::FrameId;

const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MADV_HUGEPAGE: i32 = 14;

/// The kernel's base page: mapping ends are trimmed to it.
const PAGE: usize = 4096;
/// A transparent huge page: the mapping starts on one.
const HUGE_PAGE: usize = 2 << 20;
/// One cache line. A stride of whole lines plus one more puts
/// neighbouring frames' first lines in different L1 sets; a stride of
/// exactly 4 KiB would put every frame's first line in the same set.
const LINE: usize = 64;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
}

/// Every frame's bytes: `frames × stride` zeroed bytes of one [`Mapping`].
/// Frame `f`'s bytes are the `page_size` bytes at `f × stride`.
pub(crate) struct FrameBytes {
    bytes: Mapping,
    stride: usize,
}

impl FrameBytes {
    /// Map `frames` frames of `page_size` bytes each. Panics if the
    /// kernel refuses the mapping, as a failed allocation would abort.
    pub(crate) fn new(frames: usize, page_size: usize) -> Self {
        let stride = page_size.next_multiple_of(LINE) + LINE;
        let len = frames
            .checked_mul(stride)
            .expect("frame bytes overflow usize");
        let bytes = Mapping::new(len)
            .unwrap_or_else(|e| panic!("mapping {len} bytes for {frames} frames: {e}"));
        bytes.advise_huge_pages();
        FrameBytes { bytes, stride }
    }

    /// Frame `f`'s first byte.
    #[inline]
    pub(crate) fn frame(&self, f: FrameId) -> *mut u8 {
        let offset = f as usize * self.stride;
        assert!(offset < self.bytes.len, "frame {f} is out of range");
        // SAFETY: `offset` is inside the mapping.
        unsafe { self.bytes.as_ptr().add(offset) }
    }

    /// The mapping's first byte and its length (tests).
    #[cfg(test)]
    pub(crate) fn mapping(&self) -> (*mut u8, usize) {
        (self.bytes.as_ptr(), self.bytes.len)
    }
}

/// `len` zeroed bytes of one private anonymous mapping that starts on a
/// 2 MiB boundary, unmapped on drop.
pub(crate) struct Mapping {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: `base` owns the mapping as a `Box<[u8]>` owns its bytes:
// nothing else unmaps or reaches it, and `len` is fixed at construction.
// `Mapping` hands out only a raw pointer; its owner excludes writers from
// the bytes it makes slices of (`BufferPool::{bytes, bytes_mut}` by the
// pin protocol, `SimDisk` by its stripe locks), so no `&mut` to any byte
// is live beside another reference on any thread.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// `len` bytes the kernel accounts for when it maps them, as it
    /// would a heap allocation of that size.
    pub(crate) fn new(len: usize) -> io::Result<Self> {
        Self::map(len, 0)
    }

    /// `len` bytes of address space with no memory set aside for them
    /// (`MAP_NORESERVE`): heuristic overcommit refuses a private mapping
    /// larger than the machine's memory otherwise, however little of it
    /// is ever touched.
    pub(crate) fn reserve(len: usize) -> io::Result<Self> {
        Self::map(len, MAP_NORESERVE)
    }

    /// Map one huge page more than asked, then unmap the unaligned head
    /// and the tail.
    fn map(len: usize, flags: i32) -> io::Result<Self> {
        let span = len
            .checked_add(HUGE_PAGE)
            .ok_or(io::ErrorKind::OutOfMemory)?;
        // SAFETY: a new private anonymous mapping aliases nothing.
        let raw = unsafe {
            mmap(
                ptr::null_mut(),
                span,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | flags,
                -1,
                0,
            )
        };
        if raw as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        let raw = raw.cast::<u8>();
        let head = (raw as usize).next_multiple_of(HUGE_PAGE) - raw as usize;
        let kept = len.next_multiple_of(PAGE);
        // SAFETY: `head + kept <= span`, so both ends are inside the
        // mapping just made, and the two ranges unmapped are outside what
        // is kept.
        unsafe {
            let start = raw.add(head);
            if head > 0 {
                munmap(raw.cast(), head);
            }
            if span - head > kept {
                munmap(start.add(kept).cast(), span - head - kept);
            }
            Ok(Mapping {
                base: NonNull::new_unchecked(start),
                len,
            })
        }
    }

    /// Advise the mapping's whole 2 MiB extents for transparent huge
    /// pages. A partial tail stays in base pages, faulted in where it is
    /// touched.
    pub(crate) fn advise_huge_pages(&self) {
        let huge = self.len / HUGE_PAGE * HUGE_PAGE;
        // SAFETY: advice on a range of our own mapping (empty when it is
        // under 2 MiB); it changes how the kernel backs the pages, not
        // their contents. A kernel without huge pages refuses it, and
        // nothing changes.
        unsafe { madvise(self.base.as_ptr().cast(), huge, MADV_HUGEPAGE) };
    }

    /// The first byte.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *mut u8 {
        self.base.as_ptr()
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: the owner is being dropped, so no slice of the mapping
        // is live. The kernel rounds `len` up to the page the tail was
        // trimmed at.
        unsafe { munmap(self.base.as_ptr().cast(), self.len) };
    }
}
