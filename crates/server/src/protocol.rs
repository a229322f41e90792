//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one frame: a 4-byte little-endian body length
//! followed by the body. Request bodies start with an opcode byte,
//! response bodies with a status byte. All integers are little-endian.
//!
//! ```text
//! request  := u32 len | op:u8 payload
//!   GET      (0x01)  page:u64
//!   PUT      (0x02)  page:u64 data:bytes            (data fills the page
//!                                                    from offset 0)
//!   SCAN     (0x03)  start:u64 len:u32
//!   STATS    (0x04)
//!   SHUTDOWN (0x05)
//!   METRICS  (0x06)
//!   (0x07)           retired: decodes as an unknown opcode; not to
//!                    be reassigned
//!
//! response := u32 len | status:u8 payload
//!   OK       (0x00)  GET: page bytes; PUT/SHUTDOWN: empty;
//!                    SCAN: count:u32 checksum:u64 (CRC-32C over contents,
//!                    high half zero; see `page_checksum`);
//!                    STATS: UTF-8 JSON;
//!                    METRICS: UTF-8 Prometheus-style text exposition
//!   BUSY     (0x01)  refused for overload (no server sends it)
//!   DROPPED  (0x02)  deadline exceeded before the request's turn came
//!   ERR      (0x03)  UTF-8 message
//!   ERR_IO   (0x04)  UTF-8 message: storage failed after retries; the
//!                    pool repaired itself and the request may simply be
//!                    retried
//! ```

use std::io::{self, Read, Write};

/// Largest accepted frame body. Bounds server-side allocation per
/// connection; a page plus headers fits comfortably.
pub const MAX_FRAME: usize = 1 << 20;

/// Longest SCAN a single request may ask for.
const MAX_SCAN_LEN: u32 = 1 << 16;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one page.
    Get {
        /// Page id.
        page: u64,
    },
    /// Overwrite the head of one page.
    Put {
        /// Page id.
        page: u64,
        /// Bytes written from offset 0 (at most the page size).
        data: Vec<u8>,
    },
    /// Touch `len` consecutive pages, returning a checksum.
    Scan {
        /// First page id.
        start: u64,
        /// Number of pages.
        len: u32,
    },
    /// Fetch the server's metrics as JSON.
    Stats,
    /// Ask the server to stop accepting and drain.
    Shutdown,
    /// Fetch the server's metrics as Prometheus-style text exposition.
    Metrics,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; payload depends on the request.
    Ok(Vec<u8>),
    /// Refused for overload. No server sends it; it stays on the wire
    /// because clients count it.
    Busy,
    /// Dropped unexecuted: its turn came more than the server's deadline
    /// after the socket read that completed its frame.
    Dropped,
    /// Malformed request or execution failure.
    Err(String),
    /// Storage I/O failed after the pool's retry budget. Transient by
    /// contract: the frame involved was repaired, so retrying the same
    /// request is safe and succeeds once the device recovers.
    IoError(String),
}

/// Decode failure (maps to an `ERR` reply and connection close).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_SCAN: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_METRICS: u8 = 0x06;

pub(crate) const ST_OK: u8 = 0x00;
pub(crate) const ST_BUSY: u8 = 0x01;
pub(crate) const ST_DROPPED: u8 = 0x02;
pub(crate) const ST_ERR: u8 = 0x03;
pub(crate) const ST_IO_ERR: u8 = 0x04;

impl Request {
    /// Serialize the body (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Get { page } => {
                let mut b = Vec::with_capacity(9);
                b.push(OP_GET);
                b.extend_from_slice(&page.to_le_bytes());
                b
            }
            Request::Put { page, data } => {
                let mut b = Vec::with_capacity(9 + data.len());
                b.push(OP_PUT);
                b.extend_from_slice(&page.to_le_bytes());
                b.extend_from_slice(data);
                b
            }
            Request::Scan { start, len } => {
                let mut b = Vec::with_capacity(13);
                b.push(OP_SCAN);
                b.extend_from_slice(&start.to_le_bytes());
                b.extend_from_slice(&len.to_le_bytes());
                b
            }
            Request::Stats => vec![OP_STATS],
            Request::Shutdown => vec![OP_SHUTDOWN],
            Request::Metrics => vec![OP_METRICS],
        }
    }

    /// Parse a body produced by [`encode`](Self::encode).
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        Request::decode_in(body, &mut Vec::new())
    }

    /// [`decode`](Self::decode), with a PUT's data copied into a buffer
    /// popped from `spares` (a fresh one when it is empty).
    pub(crate) fn decode_in(
        body: &[u8],
        spares: &mut Vec<Vec<u8>>,
    ) -> Result<Request, ProtocolError> {
        let (&op, rest) = body
            .split_first()
            .ok_or_else(|| ProtocolError("empty request".into()))?;
        match op {
            OP_GET => Ok(Request::Get {
                page: read_u64(rest, "GET page")?,
            }),
            OP_PUT => {
                if rest.len() < 8 {
                    return Err(ProtocolError("PUT needs a page id".into()));
                }
                let page = u64::from_le_bytes(rest[..8].try_into().unwrap());
                Ok(Request::Put {
                    page,
                    data: refill(spares.pop().unwrap_or_default(), &rest[8..]),
                })
            }
            OP_SCAN => {
                if rest.len() != 12 {
                    return Err(ProtocolError("SCAN needs start+len".into()));
                }
                let start = u64::from_le_bytes(rest[..8].try_into().unwrap());
                let len = u32::from_le_bytes(rest[8..].try_into().unwrap());
                if len == 0 || len > MAX_SCAN_LEN {
                    return Err(ProtocolError(format!(
                        "SCAN len {len} outside 1..={MAX_SCAN_LEN}"
                    )));
                }
                Ok(Request::Scan { start, len })
            }
            OP_STATS if rest.is_empty() => Ok(Request::Stats),
            OP_SHUTDOWN if rest.is_empty() => Ok(Request::Shutdown),
            OP_METRICS if rest.is_empty() => Ok(Request::Metrics),
            OP_STATS | OP_SHUTDOWN | OP_METRICS => Err(ProtocolError("unexpected payload".into())),
            other => Err(ProtocolError(format!("unknown opcode 0x{other:02x}"))),
        }
    }
}

impl Response {
    /// The reply's status byte (also the first byte of
    /// [`encode`](Self::encode)'s output).
    pub fn status(&self) -> u8 {
        match self {
            Response::Ok(_) => ST_OK,
            Response::Busy => ST_BUSY,
            Response::Dropped => ST_DROPPED,
            Response::Err(_) => ST_ERR,
            Response::IoError(_) => ST_IO_ERR,
        }
    }

    /// The bytes after the status byte.
    pub fn payload(&self) -> &[u8] {
        match self {
            Response::Ok(payload) => payload,
            Response::Busy | Response::Dropped => &[],
            Response::Err(msg) | Response::IoError(msg) => msg.as_bytes(),
        }
    }

    /// Serialize the body (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut b = Vec::with_capacity(1 + payload.len());
        b.push(self.status());
        b.extend_from_slice(payload);
        b
    }

    /// Parse a body produced by [`encode`](Self::encode).
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let (&st, rest) = body
            .split_first()
            .ok_or_else(|| ProtocolError("empty response".into()))?;
        match st {
            ST_OK => Ok(Response::Ok(rest.to_vec())),
            ST_BUSY => Ok(Response::Busy),
            ST_DROPPED => Ok(Response::Dropped),
            ST_ERR => Ok(Response::Err(String::from_utf8_lossy(rest).into_owned())),
            ST_IO_ERR => Ok(Response::IoError(
                String::from_utf8_lossy(rest).into_owned(),
            )),
            other => Err(ProtocolError(format!("unknown status 0x{other:02x}"))),
        }
    }
}

/// `buf` holding exactly `bytes`: a recycled buffer is reused rather
/// than reallocated when `bytes` fits its capacity.
pub(crate) fn refill(mut buf: Vec<u8>, bytes: &[u8]) -> Vec<u8> {
    buf.clear();
    buf.extend_from_slice(bytes);
    buf
}

fn read_u64(b: &[u8], what: &str) -> Result<u64, ProtocolError> {
    if b.len() != 8 {
        return Err(ProtocolError(format!(
            "{what}: expected 8 bytes, got {}",
            b.len()
        )));
    }
    Ok(u64::from_le_bytes(b.try_into().unwrap()))
}

/// Check a frame header's claimed body length before trusting it. Every
/// valid body carries at least an opcode/status byte, so a zero-length
/// frame is as malformed as an oversized one — and rejecting both at
/// the header keeps a garbage 4-byte prefix from ever sizing a server
/// allocation.
fn validate_frame_len(len: usize) -> Result<(), ProtocolError> {
    if len == 0 {
        return Err(ProtocolError("zero-length frame".into()));
    }
    if len > MAX_FRAME {
        return Err(ProtocolError(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME} limit"
        )));
    }
    Ok(())
}

/// Write one frame (header + body) and flush.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    write_frame_unflushed(w, body)?;
    w.flush()
}

/// Write one frame without flushing — the pipelined client batches
/// several frames into one kernel write and flushes before reading.
pub fn write_frame_unflushed(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Bytes a response frame carries besides its payload: the length
/// prefix and the status byte.
pub(crate) const RESPONSE_HEAD: usize = 5;

/// Write one response frame from its parts — header, status byte,
/// payload — without assembling the body first and without flushing:
/// the server's replies go from where the payload lives (a `Response`,
/// a pinned frame) to the transport's buffer in one copy.
pub(crate) fn write_response_unflushed(
    w: &mut impl Write,
    status: u8,
    payload: &[u8],
) -> io::Result<()> {
    debug_assert!(payload.len() < MAX_FRAME);
    let mut head = [0u8; RESPONSE_HEAD];
    head[..4].copy_from_slice(&(1 + payload.len() as u32).to_le_bytes());
    head[4] = status;
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Does `bytes` begin with one whole frame, its length prefix and body?
/// A blocking reader asks before a read that could wait on its peer.
pub(crate) fn holds_frame(bytes: &[u8]) -> bool {
    match bytes.get(..4) {
        Some(head) => bytes.len() - 4 >= u32::from_le_bytes(head.try_into().unwrap()) as usize,
        None => false,
    }
}

/// Read one frame body into `buf`. Returns `Ok(false)` on clean EOF at
/// a frame boundary (peer closed), `Err` on truncation, zero-length, or
/// oversize.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(false),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    validate_frame_len(len)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Incremental frame decoder for nonblocking transports.
///
/// A readiness loop gets bytes in whatever fragments the kernel
/// delivers — half a header, three frames and a torn fourth, one byte
/// at a time from a slowloris. [`push`](Self::push) accepts any
/// fragment; [`next_frame`](Self::next_frame) yields complete bodies in
/// order. The length prefix is validated the moment its 4 bytes are
/// present (zero-length and oversized frames are rejected *before* the
/// body is buffered), and a decoder that has reported a protocol error
/// stays poisoned: framing is unrecoverable once the byte stream is
/// suspect, so the connection must be dropped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Parse position within `buf` (consumed bytes are compacted away
    /// frame by frame).
    pos: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer a fragment read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet returned as a frame — a torn header
    /// or partially received body.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame body, if one is fully buffered. The slice
    /// borrows the decoder's buffer and is valid until the next call.
    ///
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// malformed and every later call will keep erring.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError("decoder poisoned by an earlier error".into()));
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if let Err(e) = validate_frame_len(len) {
            self.poisoned = true;
            self.buf = Vec::new();
            self.pos = 0;
            return Err(e);
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..self.pos]))
    }

    fn compact(&mut self) {
        // Drop consumed bytes once nothing torn straddles them; keeps
        // the buffer from growing with connection lifetime.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// CRC-32C (Castagnoli) over a byte slice; SCAN replies carry this
/// checksum so clients can verify content without shipping every page
/// back. `init = 0` starts a chain, and a chain may be split anywhere:
/// `page_checksum(page_checksum(i, a), b) == page_checksum(i, a ‖ b)`.
/// The value fits in 32 bits, so the high half of the `u64` is zero.
///
/// On x86-64 with SSE4.2 the `crc32` instruction takes 8 bytes at a
/// time; elsewhere a 256-entry table takes one.
pub fn page_checksum(init: u64, bytes: &[u8]) -> u64 {
    let crc = !(init as u32);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs SSE4.2 and nothing else, and the
        // CPU was just checked for it.
        return u64::from(!unsafe { crc32c_sse42(crc, bytes) });
    }
    u64::from(!crc32c_portable(crc, bytes))
}

/// The SCAN checksum under its former name; perfbench still imports it.
#[doc(hidden)]
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    page_checksum(init, bytes)
}

/// `CRC32C_TABLE[b]` is the CRC-32C register after shifting byte `b`
/// through a zero register (reflected polynomial `0x82F6_3B78`).
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0x82F6_3B78 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32C register after `bytes`, one table lookup per byte (no
/// pre- or post-inversion).
fn crc32c_portable(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| {
        CRC32C_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// [`crc32c_portable`] with one `crc32` instruction per 8 bytes.
///
/// # Safety
///
/// Call it only on a CPU with SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let crc = words.fold(u64::from(crc), |crc, w| {
        _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().unwrap()))
    });
    tail.iter().fold(crc as u32, |crc, &b| _mm_crc32_u8(crc, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Get { page: 7 },
            Request::Put {
                page: u64::MAX,
                data: vec![1, 2, 3],
            },
            Request::Put {
                page: 0,
                data: Vec::new(),
            },
            Request::Scan { start: 10, len: 4 },
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
        ];
        for req in cases {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok(vec![9, 8, 7]),
            Response::Ok(Vec::new()),
            Response::Busy,
            Response::Dropped,
            Response::Err("no such page".into()),
            Response::IoError("injected read fault on page 7".into()),
        ];
        for resp in cases {
            assert_eq!(resp.encode()[0], resp.status());
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_bodies_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[OP_GET, 1, 2]).is_err());
        assert!(Request::decode(&[OP_SCAN, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(Request::decode(&[OP_STATS, 1]).is_err());
        assert!(Request::decode(&[OP_METRICS, 1]).is_err());
        assert!(Request::decode(&[0x07]).is_err(), "0x07 is retired");
        assert!(Response::decode(&[0xEE]).is_err());
        // SCAN len over the cap.
        let mut b = vec![OP_SCAN];
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&(MAX_SCAN_LEN + 1).to_le_bytes());
        assert!(Request::decode(&b).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Get { page: 3 }.encode()).unwrap();
        write_frame(&mut wire, &Request::Stats.encode()).unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(Request::decode(&buf).unwrap(), Request::Get { page: 3 });
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(Request::decode(&buf).unwrap(), Request::Stats);
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn holds_frame_needs_the_whole_body() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Get { page: 3 }.encode()).unwrap();
        assert!((0..wire.len()).all(|cut| !holds_frame(&wire[..cut])));
        assert!(holds_frame(&wire));
        wire.push(0);
        assert!(holds_frame(&wire), "a torn next frame after it");
    }

    #[test]
    fn truncated_and_oversize_frames_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4]).unwrap();
        let mut r = &wire[..wire.len() - 1];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).is_err());

        let mut r = &wire[..2];
        assert!(read_frame(&mut r, &mut buf).is_err());

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut r = &huge[..];
        assert!(read_frame(&mut r, &mut buf).is_err());
    }

    /// Frame `req` onto a wire image.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, body).unwrap();
        wire
    }

    #[test]
    fn decoder_handles_one_byte_at_a_time() {
        let mut wire = framed(&Request::Get { page: 99 }.encode());
        wire.extend(framed(&Request::Scan { start: 5, len: 3 }.encode()));
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for &b in &wire {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f.to_vec());
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            Request::decode(&frames[0]).unwrap(),
            Request::Get { page: 99 }
        );
        assert_eq!(
            Request::decode(&frames[1]).unwrap(),
            Request::Scan { start: 5, len: 3 }
        );
        assert_eq!(dec.buffered(), 0, "nothing torn left behind");
    }

    #[test]
    fn decoder_handles_arbitrary_split_points() {
        // Three frames, split at every possible boundary (header torn,
        // body torn, frames glued) — the decoder must produce the same
        // three bodies regardless of fragmentation.
        let bodies = [
            Request::Put {
                page: 3,
                data: vec![7; 33],
            }
            .encode(),
            Request::Stats.encode(),
            Request::Get { page: 1 }.encode(),
        ];
        let mut wire = Vec::new();
        for b in &bodies {
            wire.extend(framed(b));
        }
        for split in 1..wire.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for chunk in [&wire[..split], &wire[split..]] {
                dec.push(chunk);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f.to_vec());
                }
            }
            assert_eq!(got.len(), 3, "split at {split}");
            for (g, want) in got.iter().zip(&bodies) {
                assert_eq!(g, want, "split at {split}");
            }
        }
    }

    #[test]
    fn decoder_rejects_zero_length_and_oversized_headers() {
        let mut dec = FrameDecoder::new();
        dec.push(&0u32.to_le_bytes());
        assert!(dec.next_frame().is_err(), "zero-length frame");
        // Poisoned: even a now-valid frame is refused.
        dec.push(&framed(&Request::Stats.encode()));
        assert!(dec.next_frame().is_err(), "decoder must stay poisoned");

        let mut dec = FrameDecoder::new();
        dec.push(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(dec.next_frame().is_err(), "oversized frame");

        // The oversize check must fire from the header alone, before
        // any body bytes arrive (no allocation sized by garbage).
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_waits_on_truncated_body_without_erring() {
        let wire = framed(
            &Request::Put {
                page: 8,
                data: vec![1; 64],
            }
            .encode(),
        );
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..wire.len() - 1]); // all but the last body byte
        assert_eq!(dec.next_frame().unwrap(), None, "mid-body: need more");
        assert_eq!(dec.buffered(), wire.len() - 1);
        dec.push(&wire[wire.len() - 1..]);
        let body = dec.next_frame().unwrap().expect("complete now").to_vec();
        assert!(matches!(
            Request::decode(&body).unwrap(),
            Request::Put { page: 8, .. }
        ));
    }

    #[test]
    fn decoder_rejects_garbage_after_valid_frames() {
        let mut dec = FrameDecoder::new();
        dec.push(&framed(&Request::Get { page: 2 }.encode()));
        // Garbage "header" claiming an enormous body.
        dec.push(&[0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(dec.next_frame().unwrap().is_some(), "valid frame first");
        assert!(dec.next_frame().is_err(), "then the garbage header");
    }

    #[test]
    fn a_short_put_decoded_into_a_recycled_page_buffer_carries_only_its_own_bytes() {
        let mut spares = vec![vec![0xEE; 4096]];
        let recycled = spares[0].as_ptr();
        let put = Request::Put {
            page: 5,
            data: vec![1, 2, 3],
        };
        let decoded = Request::decode_in(&put.encode(), &mut spares).unwrap();
        assert_eq!(decoded, put, "none of the buffer's old bytes");
        assert!(spares.is_empty(), "the PUT took the spare");
        let Request::Put { data, .. } = decoded else {
            unreachable!("decoded == put")
        };
        assert_eq!(data.as_ptr(), recycled, "decoded in place, not reallocated");

        let mut spares = vec![Vec::with_capacity(4096)];
        for req in [Request::Get { page: 1 }, Request::Stats] {
            assert_eq!(Request::decode_in(&req.encode(), &mut spares).unwrap(), req);
        }
        assert_eq!(spares.len(), 1, "only a PUT takes a spare");
    }

    #[test]
    fn blocking_read_frame_rejects_zero_length() {
        let wire = 0u32.to_le_bytes();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        let err = read_frame(&mut r, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// CRC-32C by the table, from a fresh chain.
    fn portable(bytes: &[u8]) -> u64 {
        u64::from(!crc32c_portable(!0, bytes))
    }

    #[test]
    fn page_checksum_is_crc32c() {
        // Known answers: the CRC catalogue's check value, and RFC 3720
        // B.4's 32 zero bytes.
        for (bytes, want) in [
            (&b"123456789"[..], 0xE306_9283),
            (&[0u8; 32][..], 0x8A91_36AA),
        ] {
            assert_eq!(page_checksum(0, bytes), want);
            assert_eq!(portable(bytes), want);
        }
        assert_eq!(
            page_checksum(0, b""),
            0,
            "an empty chain stays at its start"
        );
        assert_ne!(page_checksum(0, b"hello"), page_checksum(0, b"hellp"));
        assert_eq!(fnv1a(7, b"hello"), page_checksum(7, b"hello"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Appending is the same as checksumming the concatenation, at
        /// every split point.
        #[test]
        fn page_checksum_chains_at_every_split(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let whole = page_checksum(0, &bytes);
            prop_assert_eq!(whole >> 32, 0);
            for split in 0..=bytes.len() {
                let (a, b) = bytes.split_at(split);
                prop_assert_eq!(page_checksum(page_checksum(0, a), b), whole, "split {}", split);
            }
        }

        /// However a stream of whole frames is cut into fragments, the
        /// decoder yields the bodies one push of the whole stream does,
        /// and holds nothing once the last frame is out.
        #[test]
        fn any_split_decodes_like_one_push(
            bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..300), 0..12),
            cuts in prop::collection::vec(any::<usize>(), 0..16),
        ) {
            let wire: Vec<u8> = bodies.iter().flat_map(|b| framed(b)).collect();
            let mut whole = FrameDecoder::new();
            whole.push(&wire);
            let mut once = Vec::new();
            while let Some(body) = whole.next_frame().expect("valid frames") {
                once.push(body.to_vec());
            }
            prop_assert_eq!(&once, &bodies);

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.extend([0, wire.len()]);
            cuts.sort_unstable();
            let mut dec = FrameDecoder::new();
            let mut split = Vec::new();
            for piece in cuts.windows(2) {
                dec.push(&wire[piece[0]..piece[1]]);
                while let Some(body) = dec.next_frame().expect("valid frames") {
                    split.push(body.to_vec());
                }
            }
            prop_assert_eq!(&split, &once, "cut at {:?}", cuts);
            prop_assert_eq!(dec.buffered(), 0);
        }

        /// Whole frames followed by arbitrary bytes, in arbitrary
        /// fragments: the decoder and `Request::decode` return, never
        /// panic, and no body is empty or over the frame cap.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 0..4),
            garbage in prop::collection::vec(any::<u8>(), 0..300),
            chunk in 1usize..64,
        ) {
            let mut wire: Vec<u8> = bodies.iter().flat_map(|b| framed(b)).collect();
            wire.extend(&garbage);
            let mut dec = FrameDecoder::new();
            for piece in wire.chunks(chunk) {
                dec.push(piece);
                while let Ok(Some(body)) = dec.next_frame() {
                    prop_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
                    let _ = Request::decode(body);
                }
            }
            prop_assert!(dec.buffered() <= wire.len());
        }

        /// Frames whose headers claim small, zero, near-cap, just-over-cap
        /// or arbitrary lengths, cut short anywhere and pushed in arbitrary fragments,
        /// drained after every push: while the decoder waits for bytes
        /// it holds less than one header plus the largest legal body, and
        /// once it errs it holds nothing and errs from then on.
        #[test]
        fn decoder_memory_is_bounded_by_the_frame_cap(
            frames in prop::collection::vec((any::<u32>(), 0u8..4), 1..6),
            tail in any::<usize>(),
            cuts in prop::collection::vec(any::<usize>(), 0..16),
        ) {
            let mut wire = Vec::new();
            for (raw, kind) in frames {
                let len = match kind {
                    0 => raw as usize % 300,
                    1 => MAX_FRAME - raw as usize % 300,
                    2 => MAX_FRAME + 1 + raw as usize % 300,
                    _ => raw as usize,
                };
                wire.extend((len as u32).to_le_bytes());
                if len <= MAX_FRAME + 300 {
                    wire.resize(wire.len() + len, raw as u8);
                }
            }
            wire.truncate(tail % (wire.len() + 1));
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.extend([0, wire.len()]);
            cuts.sort_unstable();
            let mut dec = FrameDecoder::new();
            let mut failed = false;
            for piece in cuts.windows(2) {
                dec.push(&wire[piece[0]..piece[1]]);
                if failed {
                    prop_assert!(dec.next_frame().is_err(), "a poisoned decoder recovered");
                    prop_assert_eq!(dec.buffered(), 0);
                    continue;
                }
                loop {
                    match dec.next_frame() {
                        Ok(Some(body)) => prop_assert!(!body.is_empty() && body.len() <= MAX_FRAME),
                        Ok(None) => {
                            prop_assert!(dec.buffered() < 4 + MAX_FRAME, "holds {}", dec.buffered());
                            break;
                        }
                        Err(_) => {
                            prop_assert_eq!(dec.buffered(), 0);
                            failed = true;
                            break;
                        }
                    }
                }
            }
            if failed {
                prop_assert!(dec.next_frame().is_err());
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse42_path_equals_portable_path() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            eprintln!("skipped: this CPU has no SSE4.2, so only the portable path runs");
            return;
        }
        let mut rng = proptest::TestRng::new(0x5CA7);
        let buf: Vec<u8> = (0..9_008).map(|_| rng.next_u64() as u8).collect();
        // Every length up to three words, then random lengths up to 9 000,
        // each from every alignment and from a running chain.
        let lengths: Vec<usize> = (0..=24)
            .chain((0..200).map(|_| rng.below(9_001) as usize))
            .collect();
        for len in lengths {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                let init = rng.next_u64() as u32;
                // SAFETY: SSE4.2 was checked above.
                let fast = unsafe { crc32c_sse42(init, bytes) };
                assert_eq!(
                    fast,
                    crc32c_portable(init, bytes),
                    "len {len} start {start}"
                );
            }
        }
    }
}
