//! The per-connection state machine: incremental frame decode on the read
//! side, buffered writes with `EAGAIN` backpressure on the write side.
//!
//! A [`FramedConn`] owns one non-blocking [`TcpStream`] and speaks the
//! length-prefixed protocol (`protocol::read_frame`'s wire format, decoded
//! incrementally): the run loop calls [`FramedConn::read_frames`] on read
//! readiness — which consumes every byte the kernel has and returns every
//! *complete* frame, leaving partial ones buffered — and
//! [`FramedConn::flush`] on write readiness. Responses are queued with
//! [`FramedConn::queue`]; whatever the socket will not take immediately
//! stays in the write buffer and the caller arms `EPOLLOUT`.

use crate::protocol::MAX_FRAME_LEN;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Stop buffering decoded-but-unanswered bytes past this point: a peer
/// that writes requests faster than it reads responses gets its read
/// interest dropped until the write buffer drains below the mark again.
pub const WRITE_BACKPRESSURE_BYTES: usize = 4 << 20;

/// Why a connection must be torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnError {
    /// Clean EOF (or reset) from the peer.
    Closed,
    /// A declared frame length outside `1..=MAX_FRAME_LEN`; the stream can
    /// no longer be resynchronized. Mirrors `FrameError::TooLarge`.
    TooLarge(usize),
    /// A complete frame whose payload is not UTF-8 (`FrameError::NotUtf8`).
    NotUtf8,
}

/// One framed, non-blocking connection.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    /// Received-but-undecoded bytes (at most one partial frame plus
    /// whatever complete frames one readiness burst delivered).
    rbuf: Vec<u8>,
    /// Encoded-but-unsent response bytes; `wpos` is the flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Last time a byte arrived (any byte — a slow writer mid-frame is
    /// active, not idle).
    pub last_activity: Instant,
}

impl FramedConn {
    /// Takes ownership of `stream`, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> io::Result<FramedConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(FramedConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            last_activity: Instant::now(),
        })
    }

    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads everything the kernel has buffered and decodes complete
    /// frames into `frames`. Returns a [`ConnError`] when the connection
    /// must close; decoded frames are still delivered first so in-sync
    /// requests that arrived before the fault get answered.
    pub fn read_frames(&mut self, frames: &mut Vec<String>) -> Result<(), ConnError> {
        frames.clear();
        let mut chunk = [0u8; 16 * 1024];
        let mut saw_eof = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A reset still delivers the frames read before it, like
                // an orderly close.
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }
        self.decode(frames)?;
        if saw_eof {
            return Err(ConnError::Closed);
        }
        Ok(())
    }

    /// Decodes as many complete frames as the read buffer holds.
    fn decode(&mut self, frames: &mut Vec<String>) -> Result<(), ConnError> {
        let mut pos = 0;
        let result = loop {
            let rest = &self.rbuf[pos..];
            if rest.len() < 4 {
                break Ok(());
            }
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            if len == 0 || len > MAX_FRAME_LEN {
                break Err(ConnError::TooLarge(len));
            }
            if rest.len() < 4 + len {
                break Ok(());
            }
            match std::str::from_utf8(&rest[4..4 + len]) {
                Ok(s) => frames.push(s.to_string()),
                Err(_) => break Err(ConnError::NotUtf8),
            }
            pos += 4 + len;
        };
        self.rbuf.drain(..pos);
        result
    }

    /// Queues one response frame for writing. Call [`FramedConn::flush`]
    /// (and arm write interest if it reports pending bytes) afterwards.
    pub fn queue(&mut self, payload: &str) {
        let bytes = payload.as_bytes();
        debug_assert!(!bytes.is_empty() && bytes.len() <= MAX_FRAME_LEN);
        self.wbuf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        self.wbuf.extend_from_slice(bytes);
    }

    /// Writes as much of the buffer as the socket takes. `Ok(true)` means
    /// fully flushed; `Ok(false)` means bytes remain (arm `EPOLLOUT`).
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }

    /// Whether undecoded bytes remain in the read buffer (a partial frame
    /// — at EOF this means the peer truncated mid-frame).
    pub fn has_partial_frame(&self) -> bool {
        !self.rbuf.is_empty()
    }

    /// Whether unsent bytes remain.
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Unflushed write-buffer bytes (backpressure signal).
    pub fn write_backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (client, FramedConn::new(accepted).unwrap())
    }

    fn frame(payload: &str) -> Vec<u8> {
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload.as_bytes());
        buf
    }

    #[test]
    fn whole_and_split_frames_decode_incrementally() {
        let (mut client, mut conn) = pair();
        let mut frames = Vec::new();

        // Two frames in one burst.
        client.write_all(&frame("{\"a\":1}")).unwrap();
        client.write_all(&frame("{\"b\":2}")).unwrap();
        client.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        conn.read_frames(&mut frames).unwrap();
        assert_eq!(frames, vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]);

        // One frame split mid-prefix and mid-payload.
        let whole = frame("{\"c\":3}");
        client.write_all(&whole[..2]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        conn.read_frames(&mut frames).unwrap();
        assert!(frames.is_empty(), "partial prefix decodes nothing");
        client.write_all(&whole[2..7]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        conn.read_frames(&mut frames).unwrap();
        assert!(frames.is_empty(), "partial payload decodes nothing");
        client.write_all(&whole[7..]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        conn.read_frames(&mut frames).unwrap();
        assert_eq!(frames, vec!["{\"c\":3}".to_string()]);
    }

    #[test]
    fn oversized_and_zero_lengths_are_desync_errors() {
        let (mut client, mut conn) = pair();
        let mut frames = Vec::new();
        client.write_all(&frame("{}")).unwrap();
        client.write_all(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let err = conn.read_frames(&mut frames).unwrap_err();
        assert_eq!(err, ConnError::TooLarge(MAX_FRAME_LEN + 1));
        assert_eq!(frames, vec!["{}".to_string()], "in-sync frame delivered before the fault");

        let (mut client, mut conn) = pair();
        client.write_all(&0u32.to_be_bytes()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(conn.read_frames(&mut frames).unwrap_err(), ConnError::TooLarge(0));
    }

    #[test]
    fn eof_is_reported_after_buffered_frames() {
        let (mut client, mut conn) = pair();
        client.write_all(&frame("{\"z\":9}")).unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut frames = Vec::new();
        assert_eq!(conn.read_frames(&mut frames).unwrap_err(), ConnError::Closed);
        assert_eq!(frames, vec!["{\"z\":9}".to_string()]);
    }

    #[test]
    fn frames_sent_before_a_reset_are_still_delivered() {
        // A peer that closes with our bytes still unread resets the
        // connection (RST, not FIN), as a shard does when a request lands
        // just after it stopped reading to send its idle notice.
        let (mut client, mut conn) = pair();
        conn.queue("{\"unread\":1}");
        assert!(conn.flush().unwrap());
        client.write_all(&frame("{\"z\":9}")).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut frames = Vec::new();
        assert_eq!(conn.read_frames(&mut frames).unwrap_err(), ConnError::Closed);
        assert_eq!(frames, vec!["{\"z\":9}".to_string()]);
    }

    #[test]
    fn flush_reports_pending_bytes_under_backpressure() {
        let (client, mut conn) = pair();
        // Never read from `client`, so the kernel buffers fill up.
        let big = "x".repeat(256 * 1024);
        let mut stalled = false;
        for _ in 0..64 {
            conn.queue(&big);
            if !conn.flush().unwrap() {
                stalled = true;
                break;
            }
        }
        assert!(stalled, "a 16 MiB burst must hit EAGAIN");
        assert!(conn.wants_write());
        assert!(conn.write_backlog() > 0);
        drop(client);
    }
}
