//! Length-prefixed, integrity-checked frames over any `Read`/`Write`.
//!
//! Frame layout:
//!
//! ```text
//! | version: u8 | length: u32 BE | payload: length bytes | check: u32 BE |
//! ```
//!
//! The check word is the first four bytes of the SHA-256 digest of
//! `version || payload`.  It is an *integrity* check against accidental
//! corruption (and a convenient hook for the fault-injection tests), not an
//! authentication tag — the threat model for confidentiality/authenticity
//! of the channel is out of scope here, as it is in the paper.
//!
//! `TcpLink` (crate private) carries a replication requester's frames
//! over a TCP stream with deadline-bounded reads, through `FrameLink`;
//! the listener side is served by the reactor.

use crate::error::NetAuthError;
use crate::server::WRITE_TIMEOUT;
use bytes::Bytes;
use gp_crypto::Sha256;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Maximum payload length accepted (defensive bound, well above any real
/// message in this protocol).
pub const MAX_FRAME_LEN: usize = 64 * 1024;

fn checksum(version: u8, payload: &[u8]) -> u32 {
    let mut h = Sha256::new();
    h.update(&[version]);
    h.update(payload);
    let digest = h.finalize();
    u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]])
}

/// Writes frames to an underlying `Write`.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a writer.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// Write one frame containing `payload` and flush the writer.
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), NetAuthError> {
        self.write_frame_buffered(payload)?;
        self.flush()
    }

    /// Write one frame without flushing — the pipelined serving path queues
    /// a whole batch of responses through a buffered writer and flushes
    /// once, so a 16-deep pipeline costs one write syscall, not 16.
    pub fn write_frame_buffered(&mut self, payload: &[u8]) -> Result<(), NetAuthError> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(NetAuthError::FrameTooLarge { len: payload.len() });
        }
        self.inner.write_all(&[PROTOCOL_VERSION])?;
        self.inner
            .write_all(&(payload.len() as u32).to_be_bytes())?;
        self.inner.write_all(payload)?;
        self.inner
            .write_all(&checksum(PROTOCOL_VERSION, payload).to_be_bytes())?;
        Ok(())
    }

    /// Flush buffered frames to the transport.
    pub fn flush(&mut self) -> Result<(), NetAuthError> {
        self.inner.flush()?;
        Ok(())
    }

    /// Access the underlying writer.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

/// Reads frames from an underlying `Read`.
///
/// Reading is *resumable*: if the transport reports a transient error
/// (`WouldBlock`/`TimedOut` from a read-timeout) mid-frame, the bytes
/// already consumed are kept and the next [`FrameReader::read_frame`] call
/// continues exactly where it stopped.  A serving loop that polls a
/// shutdown flag on read timeouts therefore never desyncs a well-behaved
/// connection whose frame happens to straddle the timeout.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    inner: R,
    /// Bytes of the in-progress frame (header + body so far).
    partial: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a reader.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            partial: Vec::new(),
        }
    }

    /// Read one frame, verifying version, length bound and integrity.
    ///
    /// I/O errors are returned as-is with the partial frame retained, so a
    /// caller may retry after `WouldBlock`/`TimedOut`.  Protocol errors
    /// (`UnsupportedVersion`, `FrameTooLarge`, `IntegrityFailure`) discard
    /// the offending frame's bytes; for `IntegrityFailure` the whole frame
    /// was consumed first, so the stream stays in sync and the connection
    /// can keep serving.
    pub fn read_frame(&mut self) -> Result<Bytes, NetAuthError> {
        loop {
            if self.partial.len() >= 5 {
                let version = self.partial[0];
                if version != PROTOCOL_VERSION {
                    self.partial.clear();
                    return Err(NetAuthError::UnsupportedVersion { got: version });
                }
                let len = u32::from_be_bytes([
                    self.partial[1],
                    self.partial[2],
                    self.partial[3],
                    self.partial[4],
                ]) as usize;
                if len > MAX_FRAME_LEN {
                    self.partial.clear();
                    return Err(NetAuthError::FrameTooLarge { len });
                }
                let total = 5 + len + 4;
                if self.partial.len() >= total {
                    debug_assert_eq!(self.partial.len(), total, "reads never over-fill");
                    let payload = &self.partial[5..5 + len];
                    let ok = u32::from_be_bytes([
                        self.partial[5 + len],
                        self.partial[5 + len + 1],
                        self.partial[5 + len + 2],
                        self.partial[5 + len + 3],
                    ]) == checksum(version, payload);
                    let frame = if ok {
                        Some(Bytes::from(payload.to_vec()))
                    } else {
                        None
                    };
                    self.partial.clear();
                    return frame.ok_or(NetAuthError::IntegrityFailure);
                }
            }
            // Ask for exactly the bytes still missing (header first, then
            // the rest once the length is known) — never over-reading into
            // the next frame.
            let goal = if self.partial.len() < 5 {
                5
            } else {
                let len = u32::from_be_bytes([
                    self.partial[1],
                    self.partial[2],
                    self.partial[3],
                    self.partial[4],
                ]) as usize;
                5 + len + 4
            };
            let mut buf = [0u8; 4096];
            let want = (goal - self.partial.len()).min(buf.len());
            let n = match self.inner.read(&mut buf[..want]) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if n == 0 {
                return Err(NetAuthError::UnexpectedEof);
            }
            self.partial.extend_from_slice(&buf[..n]);
        }
    }

    /// Access the underlying reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }
}

impl<R: Read> FrameReader<std::io::BufReader<R>> {
    /// Whether a complete frame (or a frame whose header already proves it
    /// invalid) is sitting in the buffer, so the next
    /// [`FrameReader::read_frame`] is guaranteed not to block.
    ///
    /// This is what makes request pipelining safe on a blocking transport:
    /// after the first (blocking) frame of a batch, the server drains only
    /// frames that are already buffered and never stalls a whole pipeline
    /// waiting for a straggler.
    pub fn frame_buffered(&self) -> bool {
        let buf = self.inner.buffer();
        if buf.len() < 5 {
            return false;
        }
        if buf[0] != PROTOCOL_VERSION {
            // read_frame fails right after the header — non-blocking.
            return true;
        }
        let len = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        if len > MAX_FRAME_LEN {
            // read_frame fails on the header alone — non-blocking.
            return true;
        }
        buf.len() >= 5 + len + 4
    }
}

/// One frame connection as a replication requester uses it: frames
/// queue until [`FrameLink::flush`], and a read waits no later than a
/// deadline.  Requesters ([`crate::replication`]) talk through nothing
/// else, so a test can put an in-memory network in place of [`TcpLink`],
/// the only implementation outside tests, and choose the fate of every
/// frame.
pub(crate) trait FrameLink: Send + std::fmt::Debug {
    /// Queue one frame carrying `payload`.
    fn send(&mut self, payload: &[u8]) -> Result<(), NetAuthError>;
    /// Write every queued frame.
    fn flush(&mut self) -> Result<(), NetAuthError>;
    /// The next frame's payload, or `TimedOut` once `deadline` passes.
    fn recv_by(&mut self, deadline: Instant) -> Result<Bytes, NetAuthError>;
}

/// A read re-arms the socket's read timeout only when the deadline has
/// moved further than this from it, so a requester reading reply after
/// reply under one timeout pays no `setsockopt` per frame.  A read
/// overshoots its deadline by at most this much.
const REARM_SLACK: Duration = Duration::from_millis(1);

/// The [`FrameLink`] over a TCP stream: buffered frame writes, resumable
/// frame reads.
#[derive(Debug)]
pub(crate) struct TcpLink {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: FrameWriter<BufWriter<TcpStream>>,
    /// The socket's read timeout as last set.
    read_timeout: Option<Duration>,
}

impl TcpLink {
    /// Wrap a connected stream.
    pub(crate) fn new(stream: TcpStream) -> Result<Self, NetAuthError> {
        stream.set_nodelay(true)?;
        // A peer that stops reading must not pin this end (and with it a
        // listener's shutdown) in a blocked write.
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Self {
            reader: FrameReader::new(BufReader::new(stream.try_clone()?)),
            writer: FrameWriter::new(BufWriter::new(stream)),
            read_timeout: None,
        })
    }
}

impl FrameLink for TcpLink {
    fn send(&mut self, payload: &[u8]) -> Result<(), NetAuthError> {
        self.writer.write_frame_buffered(payload)
    }

    fn flush(&mut self) -> Result<(), NetAuthError> {
        self.writer.flush()
    }

    fn recv_by(&mut self, deadline: Instant) -> Result<Bytes, NetAuthError> {
        loop {
            // A frame already buffered is read without touching the socket.
            if !self.reader.frame_buffered() {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(NetAuthError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "timed out waiting for a replication frame",
                    )));
                }
                if self
                    .read_timeout
                    .is_none_or(|armed| armed.abs_diff(remaining) > REARM_SLACK)
                {
                    self.reader
                        .get_mut()
                        .get_ref()
                        .set_read_timeout(Some(remaining))?;
                    self.read_timeout = Some(remaining);
                }
            }
            match self.reader.read_frame() {
                // The frame reader keeps a partial frame: read on.
                Err(NetAuthError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                read => return read,
            }
        }
    }
}

/// Outbound byte queue for a nonblocking connection.
///
/// The reactor cannot use a blocking `BufWriter` — a peer that stops
/// reading would wedge the whole event loop in `flush()`.  Instead each
/// connection owns a `WriteBuffer`: responses are encoded into it
/// ([`WriteBuffer::queue_frame`] produces bytes identical to
/// [`FrameWriter`]'s), and [`WriteBuffer::flush_to`] writes as much as the
/// transport will take right now, tolerating partial writes and
/// `WouldBlock` and resuming exactly where it stopped.  The pending byte
/// count is the connection's write-backpressure signal.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    /// Queued bytes (encoded frames).
    buf: Vec<u8>,
    /// Prefix of `buf` already accepted by the transport.
    written: usize,
}

/// Compact the consumed prefix away once it exceeds this many bytes (a
/// memmove amortized over at least this much progress).
const WRITE_COMPACT_THRESHOLD: usize = 4096;

impl WriteBuffer {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes queued but not yet accepted by the transport.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Whether everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Encode one frame containing `payload` onto the queue — exactly
    /// [`FrameWriter::write_frame_buffered`] into the owned buffer (a
    /// `Vec` sink cannot fail, so the only error is an oversized payload,
    /// rejected before anything is queued).
    pub fn queue_frame(&mut self, payload: &[u8]) -> Result<(), NetAuthError> {
        FrameWriter::new(&mut self.buf).write_frame_buffered(payload)
    }

    /// Append pre-encoded frame bytes (responses settled off-thread arrive
    /// already encoded).
    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write queued bytes until done or the transport pushes back.
    ///
    /// Returns `Ok(true)` when the queue drained, `Ok(false)` on
    /// `WouldBlock`/`TimedOut` (progress is kept; call again when the
    /// transport is writable).  Partial writes and `Interrupted` are
    /// handled internally; `Ok(0)` from the writer is reported as
    /// `WriteZero`.
    pub fn flush_to<W: Write>(&mut self, writer: &mut W) -> std::io::Result<bool> {
        while self.written < self.buf.len() {
            match writer.write(&self.buf[self.written..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "transport accepted zero bytes",
                    ))
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.written >= WRITE_COMPACT_THRESHOLD {
                        self.buf.drain(..self.written);
                        self.written = 0;
                    }
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.written = 0;
        Ok(true)
    }
}

/// A fault-injecting byte transport for tests: corrupts or drops writes
/// before handing bytes to the wrapped buffer.
///
/// Granularity is the *write call*; [`FrameWriter`] issues exactly four
/// writes per frame (version, length, payload, check), so targeting a
/// payload write means write index `4k + 3`.  [`FaultyBuffer::corrupt_frame_payload`]
/// and [`FaultyBuffer::drop_frame`] encode that arithmetic so tests can
/// speak in frame numbers.
#[derive(Debug, Default)]
pub struct FaultyBuffer {
    /// Bytes visible to the reader side.
    pub bytes: Vec<u8>,
    /// Corrupt (flip one bit of) every n-th write, 0 = never.
    pub corrupt_every: usize,
    /// Corrupt (flip one bit of) these specific write calls (1-based).
    pub corrupt_writes: Vec<usize>,
    /// Silently discard these specific write calls (1-based).
    pub drop_writes: Vec<usize>,
    writes: usize,
}

/// Write calls per frame issued by [`FrameWriter`]: version, length,
/// payload, check.
const WRITES_PER_FRAME: usize = 4;

impl FaultyBuffer {
    /// A buffer that corrupts every `n`-th write call (0 disables).
    pub fn corrupting(n: usize) -> Self {
        Self {
            corrupt_every: n,
            ..Self::default()
        }
    }

    /// Corrupt the payload of the `frame`-th frame written (0-based).
    pub fn corrupt_frame_payload(mut self, frame: usize) -> Self {
        self.corrupt_writes.push(frame * WRITES_PER_FRAME + 3);
        self
    }

    /// Drop the `frame`-th frame written (0-based) in its entirety — the
    /// peer never sees any of its bytes, as if the request were lost.
    pub fn drop_frame(mut self, frame: usize) -> Self {
        for w in 1..=WRITES_PER_FRAME {
            self.drop_writes.push(frame * WRITES_PER_FRAME + w);
        }
        self
    }
}

impl Write for FaultyBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        if self.drop_writes.contains(&self.writes) {
            return Ok(buf.len());
        }
        let mut data = buf.to_vec();
        let scheduled = self.corrupt_writes.contains(&self.writes);
        if (scheduled
            || (self.corrupt_every != 0 && self.writes.is_multiple_of(self.corrupt_every)))
            && !data.is_empty()
        {
            let idx = data.len() / 2;
            data[idx] ^= 0x40;
        }
        self.bytes.extend_from_slice(&data);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut buf);
            writer.write_frame(b"hello").unwrap();
            writer.write_frame(b"").unwrap();
            writer.write_frame(&[0u8; 1000]).unwrap();
        }
        let mut reader = FrameReader::new(Cursor::new(buf));
        assert_eq!(&reader.read_frame().unwrap()[..], b"hello");
        assert_eq!(reader.read_frame().unwrap().len(), 0);
        assert_eq!(reader.read_frame().unwrap().len(), 1000);
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::UnexpectedEof)
        ));
    }

    #[test]
    fn oversized_frames_rejected_on_write_and_read() {
        let mut writer = FrameWriter::new(Vec::new());
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            writer.write_frame(&big),
            Err(NetAuthError::FrameTooLarge { .. })
        ));
        // Hand-craft a header that claims an enormous length.
        let mut bytes = vec![PROTOCOL_VERSION];
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut reader = FrameReader::new(Cursor::new(bytes));
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).write_frame(b"payload").unwrap();
        buf[0] = 9;
        let mut reader = FrameReader::new(Cursor::new(buf));
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::UnsupportedVersion { got: 9 })
        ));
    }

    #[test]
    fn corrupted_payload_fails_integrity_check() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .write_frame(b"click data")
            .unwrap();
        // Flip a bit inside the payload region (after the 5-byte header).
        buf[7] ^= 0x01;
        let mut reader = FrameReader::new(Cursor::new(buf));
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::IntegrityFailure)
        ));
    }

    #[test]
    fn truncated_frame_reports_eof() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .write_frame(b"click data")
            .unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = FrameReader::new(Cursor::new(buf));
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::UnexpectedEof)
        ));
    }

    #[test]
    fn faulty_buffer_corrupts_selected_writes() {
        // Each write_frame issues 4 writes (version, length, payload, check);
        // corrupting every 3rd write hits the payload of the first frame.
        let mut faulty = FaultyBuffer::corrupting(3);
        {
            let mut writer = FrameWriter::new(&mut faulty);
            writer.write_frame(b"frame one payload").unwrap();
            writer.write_frame(b"frame two payload").unwrap();
        }
        let mut reader = FrameReader::new(Cursor::new(faulty.bytes));
        let first = reader.read_frame();
        assert!(
            matches!(first, Err(NetAuthError::IntegrityFailure)),
            "{first:?}"
        );
    }

    #[test]
    fn clean_faulty_buffer_passes_frames_through() {
        let mut clean = FaultyBuffer::corrupting(0);
        FrameWriter::new(&mut clean).write_frame(b"data").unwrap();
        let mut reader = FrameReader::new(Cursor::new(clean.bytes));
        assert_eq!(&reader.read_frame().unwrap()[..], b"data");
    }

    /// A reader that interleaves `WouldBlock` timeouts between every few
    /// delivered bytes — the worst-case trickle a read-timeout transport
    /// can produce.
    struct TrickleReader {
        bytes: Vec<u8>,
        pos: usize,
        ticks: usize,
    }

    impl std::io::Read for TrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.ticks += 1;
            if self.ticks.is_multiple_of(2) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "simulated read timeout",
                ));
            }
            let n = buf.len().min(3).min(self.bytes.len() - self.pos);
            if n == 0 {
                return Ok(0);
            }
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_frame_resumes_across_mid_frame_timeouts_without_desync() {
        let mut bytes = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut bytes);
            writer.write_frame(b"first frame payload").unwrap();
            writer.write_frame(b"second").unwrap();
        }
        let mut reader = FrameReader::new(TrickleReader {
            bytes,
            pos: 0,
            ticks: 0,
        });
        let mut frames = Vec::new();
        let mut timeouts = 0;
        while frames.len() < 2 {
            match reader.read_frame() {
                Ok(frame) => frames.push(frame),
                Err(NetAuthError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    timeouts += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(&frames[0][..], b"first frame payload");
        assert_eq!(&frames[1][..], b"second");
        assert!(timeouts > 5, "the trickle must actually have timed out");
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::UnexpectedEof) | Err(NetAuthError::Io(_))
        ));
    }

    #[test]
    fn targeted_payload_corruption_fails_only_that_frame() {
        // Three pipelined frames, the middle payload corrupted: frames 1
        // and 3 still decode, frame 2 fails integrity, and the stream stays
        // in sync (the length prefix was untouched).
        let mut faulty = FaultyBuffer::default().corrupt_frame_payload(1);
        {
            let mut writer = FrameWriter::new(&mut faulty);
            writer.write_frame(b"frame one").unwrap();
            writer.write_frame(b"frame two").unwrap();
            writer.write_frame(b"frame three").unwrap();
        }
        let mut reader = FrameReader::new(Cursor::new(faulty.bytes));
        assert_eq!(&reader.read_frame().unwrap()[..], b"frame one");
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::IntegrityFailure)
        ));
        assert_eq!(&reader.read_frame().unwrap()[..], b"frame three");
    }

    #[test]
    fn dropped_frame_vanishes_without_desyncing_neighbours() {
        let mut faulty = FaultyBuffer::default().drop_frame(1);
        {
            let mut writer = FrameWriter::new(&mut faulty);
            writer.write_frame(b"first").unwrap();
            writer.write_frame(b"dropped").unwrap();
            writer.write_frame(b"third").unwrap();
        }
        let mut reader = FrameReader::new(Cursor::new(faulty.bytes));
        assert_eq!(&reader.read_frame().unwrap()[..], b"first");
        assert_eq!(&reader.read_frame().unwrap()[..], b"third");
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::UnexpectedEof)
        ));
    }

    #[test]
    fn buffered_writes_emit_identical_bytes_to_flushed_writes() {
        let mut flushed = Vec::new();
        {
            let mut w = FrameWriter::new(&mut flushed);
            w.write_frame(b"a").unwrap();
            w.write_frame(b"bb").unwrap();
        }
        let mut buffered = Vec::new();
        {
            let mut w = FrameWriter::new(std::io::BufWriter::new(&mut buffered));
            w.write_frame_buffered(b"a").unwrap();
            w.write_frame_buffered(b"bb").unwrap();
            w.flush().unwrap();
        }
        assert_eq!(flushed, buffered);
    }

    #[test]
    fn frame_buffered_reports_only_complete_frames() {
        let mut bytes = Vec::new();
        {
            let mut w = FrameWriter::new(&mut bytes);
            w.write_frame(b"hello").unwrap();
            w.write_frame(b"world!").unwrap();
        }
        // A BufReader with a large buffer holds both frames after one fill.
        let mut reader = FrameReader::new(std::io::BufReader::new(Cursor::new(bytes.clone())));
        assert!(
            !reader.frame_buffered(),
            "nothing buffered before first read"
        );
        assert_eq!(&reader.read_frame().unwrap()[..], b"hello");
        assert!(reader.frame_buffered(), "second frame fully buffered");
        assert_eq!(&reader.read_frame().unwrap()[..], b"world!");
        assert!(!reader.frame_buffered(), "stream exhausted");

        // A truncated trailing frame must not be reported available.
        let cut = bytes.len() - 3;
        let mut reader =
            FrameReader::new(std::io::BufReader::new(Cursor::new(bytes[..cut].to_vec())));
        assert_eq!(&reader.read_frame().unwrap()[..], b"hello");
        assert!(!reader.frame_buffered(), "truncated frame is not complete");
    }

    /// The worst-case nonblocking transport: delivers exactly one byte per
    /// read and reports `WouldBlock` before every delivery.
    struct OneByteTrickleReader {
        bytes: Vec<u8>,
        pos: usize,
        parity: bool,
    }

    impl std::io::Read for OneByteTrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.parity = !self.parity;
            if self.parity {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "trickle",
                ));
            }
            if self.pos == self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn read_side_would_block_at_every_byte_boundary_never_desyncs() {
        // A pipeline of frames of every interesting size, delivered one
        // byte at a time with WouldBlock between every byte: the reader
        // must produce exactly the pipeline, in order, no matter where
        // the boundaries fall.
        let payloads: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"hello world".to_vec(),
            vec![0xAB; 300],
            b"tail".to_vec(),
        ];
        let mut bytes = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut bytes);
            for p in &payloads {
                writer.write_frame(p).unwrap();
            }
        }
        let total = bytes.len();
        let mut reader = FrameReader::new(OneByteTrickleReader {
            bytes,
            pos: 0,
            parity: false,
        });
        let mut frames = Vec::new();
        let mut timeouts = 0usize;
        while frames.len() < payloads.len() {
            match reader.read_frame() {
                Ok(frame) => frames.push(frame.to_vec()),
                Err(NetAuthError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    timeouts += 1;
                }
                Err(e) => panic!("desync at frame {}: {e}", frames.len()),
            }
        }
        assert_eq!(frames, payloads);
        assert!(
            timeouts >= total,
            "every byte boundary must have blocked at least once \
             ({timeouts} timeouts for {total} bytes)"
        );
    }

    /// Write side of the same worst case: accepts one byte per call and
    /// pushes back with `WouldBlock` before every acceptance.
    struct OneByteBackpressureWriter {
        bytes: Vec<u8>,
        parity: bool,
        blocks: usize,
    }

    impl Write for OneByteBackpressureWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.parity = !self.parity;
            if self.parity {
                self.blocks += 1;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "backpressure",
                ));
            }
            let n = buf.len().min(1);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buffer_would_block_at_every_byte_boundary_never_desyncs() {
        let payloads: Vec<Vec<u8>> = vec![
            b"first response".to_vec(),
            b"".to_vec(),
            vec![0x5A; 257],
            b"last".to_vec(),
        ];
        // Reference wire bytes from the blocking writer.
        let mut expected = Vec::new();
        {
            let mut w = FrameWriter::new(&mut expected);
            for p in &payloads {
                w.write_frame(p).unwrap();
            }
        }
        let mut out = WriteBuffer::new();
        for p in &payloads {
            out.queue_frame(p).unwrap();
        }
        assert_eq!(out.pending(), expected.len());
        let mut sink = OneByteBackpressureWriter {
            bytes: Vec::new(),
            parity: false,
            blocks: 0,
        };
        let mut flushes = 0usize;
        while !out.flush_to(&mut sink).unwrap() {
            flushes += 1;
            assert!(flushes < 10 * expected.len(), "flush loop must terminate");
        }
        assert!(out.is_empty());
        assert_eq!(sink.bytes, expected, "byte-identical to the blocking path");
        assert!(sink.blocks >= expected.len(), "every byte pushed back once");
        // Frames decoded from the trickled output round-trip.
        let mut reader = FrameReader::new(Cursor::new(sink.bytes));
        for p in &payloads {
            assert_eq!(&reader.read_frame().unwrap()[..], &p[..]);
        }
    }

    #[test]
    fn write_buffer_queue_bytes_and_oversize_guard() {
        let mut out = WriteBuffer::new();
        assert!(out.is_empty());
        assert!(matches!(
            out.queue_frame(&vec![0u8; MAX_FRAME_LEN + 1]),
            Err(NetAuthError::FrameTooLarge { .. })
        ));
        assert!(out.is_empty(), "rejected frame queues nothing");
        let mut pre_encoded = Vec::new();
        FrameWriter::new(&mut pre_encoded)
            .write_frame(b"x")
            .unwrap();
        out.queue_bytes(&pre_encoded);
        let mut sink = Vec::new();
        assert!(out.flush_to(&mut sink).unwrap());
        assert_eq!(sink, pre_encoded);
    }

    #[test]
    fn frame_buffered_flags_invalid_headers_as_ready() {
        // Bad version byte: read_frame will fail immediately, so the frame
        // counts as "ready" (the caller must observe the error, not stall).
        let mut first = Vec::new();
        FrameWriter::new(&mut first).write_frame(b"ok").unwrap();
        let mut bytes = first.clone();
        // Full 5-byte header of a second "frame" with a bogus version.
        bytes.extend_from_slice(&[9, 0, 0, 0, 1]);
        let mut reader = FrameReader::new(std::io::BufReader::new(Cursor::new(bytes)));
        assert_eq!(&reader.read_frame().unwrap()[..], b"ok");
        assert!(reader.frame_buffered(), "invalid version is ready to error");
        assert!(matches!(
            reader.read_frame(),
            Err(NetAuthError::UnsupportedVersion { got: 9 })
        ));
    }
}
