//! [`Conn`]: the one reader and writer of a [`TcpStream`], on both ends of
//! the protocol.
//!
//! A `Conn` reads into its own buffer, so the four bytes that select a
//! connection's protocol, a frame's header, its payload and the start of
//! the next frame usually arrive in one `read(2)`; whatever a caller does
//! not consume stays buffered for the next call.  A hard wall-clock
//! deadline covers a *whole* frame or HTTP request head, not each
//! `read(2)`: a peer that dribbles one byte at a time still has to deliver
//! all of it before the deadline, or the read fails with
//! [`NetError::Timeout`] and the connection is closed, so a slow or
//! stalled peer can never pin a worker thread for longer than the
//! configured timeout.
//!
//! Reads wait in slices of at most 50 ms so the server can also observe its
//! shutdown flag while the line is idle: an idle connection is released
//! promptly on shutdown, while a frame already begun is read to completion
//! (drained) before the connection closes.  The socket's read timeout is
//! set only when the slice changes and its write timeout only when the
//! reply deadline does, so a request–response round trip costs one `read`
//! and one `write`.

use super::protocol::{parse_header, FrameHeader, NetError, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use dsketch_obs::Counter;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound of one poll slice: how often a blocked read re-checks the
/// deadline and the abort flag.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Upper bound on an HTTP request head (request line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The read buffer's first size: an HTTP request head of any accepted
/// length, and any frame up to that size, fits without growing it.
const MIN_BUFFER: usize = MAX_HEAD_BYTES + 1;

/// One connection: the socket, the bytes read from it and not yet
/// consumed, and the timeouts last set on it.
pub(crate) struct Conn {
    stream: TcpStream,
    /// `buf[start..end]` is read and not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    read_slice: Option<Duration>,
    write_timeout: Option<Duration>,
    /// Charged with every byte read from the socket.
    bytes_in: Counter,
}

impl Conn {
    /// Take over `stream` (with Nagle off: every write is a whole reply).
    pub(crate) fn new(stream: TcpStream, bytes_in: &Counter) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
            read_slice: None,
            write_timeout: None,
            bytes_in: bytes_in.clone(),
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Mark the first `len` buffered bytes consumed.
    fn consume(&mut self, len: usize) {
        self.start += len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
    }

    /// The one poll loop: read until `want` bytes are buffered, the
    /// deadline expires, the peer closes, or `abort` (when given) is
    /// raised.  `Ok(false)` is a clean close — the peer closed with
    /// nothing buffered, or `abort` was raised; a close with fewer than
    /// `want` bytes buffered is [`NetError::Truncated`].
    fn fill(
        &mut self,
        want: usize,
        deadline: Instant,
        abort: Option<&AtomicBool>,
    ) -> Result<bool, NetError> {
        while self.buffered() < want {
            if abort.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                return Ok(false);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            let slice = (deadline - now).clamp(Duration::from_millis(1), POLL_SLICE);
            if self.read_slice != Some(slice) {
                self.stream
                    .set_read_timeout(Some(slice))
                    .map_err(|e| NetError::Io(e.kind()))?;
                self.read_slice = Some(slice);
            }
            if self.start + want > self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.buffered());
                if want > self.buf.len() {
                    self.buf.resize(want.max(MIN_BUFFER), 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) if self.buffered() == 0 => return Ok(false),
                Ok(0) => {
                    return Err(NetError::Truncated {
                        read: self.buffered(),
                        needed: want,
                    })
                }
                Ok(n) => {
                    self.end += n;
                    self.bytes_in.add(n as u64);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(NetError::Io(e.kind())),
            }
        }
        Ok(true)
    }

    /// Wait for the four bytes that select a connection's protocol and
    /// return them, still buffered.  `Ok(None)`: the peer closed before
    /// sending any, or `abort` was raised before all four arrived.
    pub(crate) fn sniff(
        &mut self,
        deadline: Instant,
        abort: &AtomicBool,
    ) -> Result<Option<[u8; 4]>, NetError> {
        if !self.fill(4, deadline, Some(abort))? {
            return Ok(None);
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&self.buf[self.start..self.start + 4]);
        Ok(Some(prefix))
    }

    /// Read one complete frame (header + payload) before `deadline` and
    /// consume it; bytes of the next frame stay buffered.  `Ok(None)`: the
    /// peer closed cleanly at the frame boundary, or `abort` was raised
    /// while the line was idle — once a byte of the frame has arrived, the
    /// frame is read to completion, so in-flight requests drain during
    /// shutdown.
    pub(crate) fn read_frame(
        &mut self,
        expect_magic: [u8; 4],
        deadline: Instant,
        abort: Option<&AtomicBool>,
    ) -> Result<Option<(FrameHeader, &[u8])>, NetError> {
        match dsketch_faults::fail_point!("net.read.frame") {
            None => {}
            Some(dsketch_faults::Fault::Partial(n)) => {
                // Simulate a connection torn mid-frame: `n` bytes arrived.
                return Err(NetError::Truncated {
                    read: usize::try_from(n).unwrap_or(usize::MAX),
                    needed: HEADER_LEN,
                });
            }
            Some(dsketch_faults::Fault::Error) => {
                return Err(NetError::Io(ErrorKind::ConnectionReset));
            }
        }
        if !self.fill(1, deadline, abort)? {
            return Ok(None);
        }
        // A byte is buffered, so from here a close is `Truncated`.
        self.fill(HEADER_LEN, deadline, None)?;
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&self.buf[self.start..self.start + HEADER_LEN]);
        let header = parse_header(&header, expect_magic, DEFAULT_MAX_PAYLOAD)?;
        let len = HEADER_LEN + header.payload_len as usize;
        self.fill(len, deadline, None)?;
        let frame = self.start;
        self.consume(len);
        Ok(Some((header, &self.buf[frame + HEADER_LEN..frame + len])))
    }

    /// Read an HTTP request head — through the blank line that ends it —
    /// before `deadline` and consume it.  `Ok(None)`: the head outgrew
    /// [`MAX_HEAD_BYTES`].
    pub(crate) fn read_head(&mut self, deadline: Instant) -> Result<Option<&[u8]>, NetError> {
        loop {
            let unread = &self.buf[self.start..self.end];
            if let Some(at) = unread.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = self.start;
                self.consume(at + 4);
                return Ok(Some(&self.buf[head..head + at + 4]));
            }
            if unread.len() > MAX_HEAD_BYTES {
                return Ok(None);
            }
            let want = unread.len() + 1;
            if !self.fill(want, deadline, None)? {
                return Err(NetError::Truncated {
                    read: 0,
                    needed: want,
                });
            }
        }
    }

    /// Write all of `bytes` before `timeout` has passed, returning the
    /// byte count.  A peer that stops reading (full socket buffer) trips
    /// the deadline and the connection is dropped — the sending worker is
    /// never pinned.
    pub(crate) fn write_all(&mut self, bytes: &[u8], timeout: Duration) -> Result<usize, NetError> {
        if dsketch_faults::fail_point!("net.write.frame").is_some() {
            // Simulate a peer whose socket vanished before the response went
            // out; partial and error actions collapse to the same broken pipe.
            return Err(NetError::Io(ErrorKind::BrokenPipe));
        }
        let timeout = timeout.max(Duration::from_millis(1));
        if self.write_timeout != Some(timeout) {
            self.stream
                .set_write_timeout(Some(timeout))
                .map_err(|e| NetError::Io(e.kind()))?;
            self.write_timeout = Some(timeout);
        }
        let deadline = Instant::now() + timeout;
        let mut written = 0usize;
        while written < bytes.len() {
            if Instant::now() >= deadline {
                return Err(NetError::Timeout);
            }
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return Err(NetError::Io(ErrorKind::WriteZero)),
                Ok(n) => written += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(NetError::Timeout);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e.kind())),
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::protocol::{Request, REQUEST_MAGIC};
    use netgraph::NodeId;
    use std::net::TcpListener;

    /// A `Conn` over the accepted end of a loopback connection, and the
    /// peer's end.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (Conn::new(accepted, &Counter::new()), peer)
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn frames_sent_back_to_back_are_read_one_at_a_time_and_every_byte_is_counted() {
        let (mut conn, mut peer) = pair();
        let first = Request::Ping.to_frame();
        let second = Request::Query {
            u: NodeId(3),
            v: NodeId(4),
        }
        .to_frame();
        peer.write_all(&[first.clone(), second.clone()].concat())
            .unwrap();
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(
            conn.sniff(soon(), &AtomicBool::new(false)),
            Ok(Some(REQUEST_MAGIC))
        );
        for frame in [&first, &second] {
            let (header, payload) = conn
                .read_frame(REQUEST_MAGIC, soon(), None)
                .unwrap()
                .unwrap();
            let request = Request::decode(header.kind, payload).unwrap();
            assert_eq!(request.to_frame(), *frame);
        }
        assert_eq!(conn.read_frame(REQUEST_MAGIC, soon(), None), Ok(None));
        assert_eq!(conn.bytes_in.value(), (first.len() + second.len()) as u64);
    }

    #[test]
    fn a_head_is_read_through_its_blank_line_and_one_past_the_bound_is_refused() {
        let (mut conn, mut peer) = pair();
        peer.write_all(b"GET /stats HTTP/1.1\r\n\r\nbody").unwrap();
        assert_eq!(
            conn.read_head(soon()),
            Ok(Some(&b"GET /stats HTTP/1.1\r\n\r\n"[..]))
        );

        let (mut conn, mut peer) = pair();
        let mut long = b"GET /".to_vec();
        long.resize(MAX_HEAD_BYTES + 1, b'a');
        peer.write_all(&long).unwrap();
        assert_eq!(conn.read_head(soon()), Ok(None));
    }
}
