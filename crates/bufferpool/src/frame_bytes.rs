//! Every frame's bytes, in one anonymous memory mapping.
//!
//! The kernel backs a page of the mapping only when it is first touched,
//! so the frames a pool never fills cost no memory, and building a pool
//! makes no allocation per frame. The whole 2 MiB extents of the mapping
//! are advised for transparent huge pages, so the frames in use span few
//! TLB entries.
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

/// Every frame's bytes: `frames × stride` zeroed bytes of one private
/// anonymous mapping that starts on a 2 MiB boundary. Frame `f`'s bytes
/// are the `page_size` bytes at `f × stride`.
pub(crate) struct FrameBytes {
    base: NonNull<u8>,
    len: usize,
    stride: usize,
}

// SAFETY: `base` owns the mapping as a `Box<[u8]>` owns its bytes:
// nothing else unmaps or reaches it, and `len` and `stride` are plain
// values fixed at construction. `FrameBytes` hands out only raw
// pointers; the slices made from them are `BufferPool::{bytes,
// bytes_mut}`'s, whose callers exclude a writer the pin protocol's way,
// so no `&mut` to a frame's bytes is live beside another reference on
// any thread.
unsafe impl Send for FrameBytes {}
unsafe impl Sync for FrameBytes {}

impl FrameBytes {
    /// Map `frames` frames of `page_size` bytes each. Panics if the
    /// kernel refuses the mapping, as a failed allocation would abort.
    pub(crate) fn new(frames: usize, page_size: usize) -> Self {
        let stride = page_size.next_multiple_of(LINE) + LINE;
        let len = frames
            .checked_mul(stride)
            .expect("frame bytes overflow usize");
        let base = map_aligned(len)
            .unwrap_or_else(|e| panic!("mapping {len} bytes for {frames} frames: {e}"));
        // Whole extents only: a partial tail stays in base pages, faulted
        // in where it is touched.
        let huge = len / HUGE_PAGE * HUGE_PAGE;
        // SAFETY: advice on a range of our own mapping (empty when it is
        // under 2 MiB); it changes how the kernel backs the pages, not
        // their contents. A kernel without huge pages refuses it, and
        // nothing changes.
        unsafe { madvise(base.as_ptr().cast(), huge, MADV_HUGEPAGE) };
        FrameBytes { base, len, stride }
    }

    /// Frame `f`'s first byte.
    #[inline]
    pub(crate) fn frame(&self, f: FrameId) -> *mut u8 {
        let offset = f as usize * self.stride;
        assert!(offset < self.len, "frame {f} is out of range");
        // SAFETY: `offset` is inside the mapping.
        unsafe { self.base.as_ptr().add(offset) }
    }

    /// The mapping's first byte and its length (tests).
    #[cfg(test)]
    pub(crate) fn mapping(&self) -> (*mut u8, usize) {
        (self.base.as_ptr(), self.len)
    }
}

impl Drop for FrameBytes {
    fn drop(&mut self) {
        // SAFETY: the pool that owns this mapping is being dropped, so no
        // slice of it is live. The kernel rounds `len` up to the page the
        // tail was trimmed at.
        unsafe { munmap(self.base.as_ptr().cast(), self.len) };
    }
}

/// `len` fresh zero bytes starting on a huge-page boundary: map one huge
/// page more than asked, then unmap the unaligned head and the tail.
fn map_aligned(len: usize) -> io::Result<NonNull<u8>> {
    let span = len
        .checked_add(HUGE_PAGE)
        .ok_or(io::ErrorKind::OutOfMemory)?;
    // SAFETY: a new private anonymous mapping aliases nothing.
    let raw = unsafe {
        mmap(
            ptr::null_mut(),
            span,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS,
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
    // SAFETY: `head + kept <= span`, so both ends are inside the mapping
    // just made, and the two ranges unmapped are outside what is kept.
    unsafe {
        let start = raw.add(head);
        if head > 0 {
            munmap(raw.cast(), head);
        }
        if span - head > kept {
            munmap(start.add(kept).cast(), span - head - kept);
        }
        Ok(NonNull::new_unchecked(start))
    }
}
