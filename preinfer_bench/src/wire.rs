//! The benchmark's client side of the `preinferd` wire protocol
//! (PROTOCOL.md): frames decoded with `server::protocol::read_frame`, a
//! connection that waits for replies with `ppoll(2)`, and process
//! signalling. Payloads are read with `server::json`.
//!
//! Two client habits matter for honest latency numbers:
//! * Each frame goes out in one `write` on a `TCP_NODELAY` socket. Split
//!   writes (as `server::protocol::write_frame` makes: prefix, then
//!   payload) meet Nagle's algorithm and the peer's delayed ACK, which adds
//!   tens of milliseconds per request.
//! * Replies are awaited with `ppoll` and a nanosecond timespec. Blocking
//!   reads under `SO_RCVTIMEO` wake on jiffy boundaries, which makes an
//!   open-loop generator send late and inflates every percentile.

use server::protocol::{read_frame, FrameError};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;

const SIGTERM: i32 = 15;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Waits until `fd` is readable (or hung up), at most `timeout`.
pub fn wait_readable(fd: i32, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // whole call; a null sigmask means "leave the signal mask alone".
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match n {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// Sends SIGTERM, which `preinferd` and `preinfer-router` answer with a
/// graceful drain and exit 0.
pub fn terminate(pid: u32) {
    // SAFETY: `kill` takes plain integers; a stale pid only yields ESRCH,
    // which is ignored (the process is already gone).
    unsafe {
        kill(pid as i32, SIGTERM);
    }
}

/// Makes the calling process receive SIGTERM when the thread that spawned
/// it exits, so a harness that is itself killed leaves no daemon behind.
/// Meant for a child between fork and exec.
pub fn die_with_parent() -> io::Result<()> {
    const PR_SET_PDEATHSIG: i32 = 1;
    // SAFETY: `prctl(PR_SET_PDEATHSIG, sig)` reads one integer argument and
    // is async-signal-safe, so it may run in a forked child.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGTERM as u64) } == -1 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// One frame: 4-byte big-endian length, then the payload, in one buffer.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Moves every complete frame at the front of `pending` to `out`,
/// leaving a partial frame in place for the next read.
fn take_frames(pending: &mut Vec<u8>, out: &mut Vec<String>) -> io::Result<()> {
    let mut rest: &[u8] = pending;
    loop {
        let before = rest;
        match read_frame(&mut rest) {
            Ok(frame) => out.push(frame),
            Err(FrameError::Eof | FrameError::Truncated) => {
                rest = before;
                break;
            }
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
    let used = pending.len() - rest.len();
    pending.drain(..used);
    Ok(())
}

/// A client connection to a daemon or router.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, pending: Vec::new(), buf: vec![0; 64 * 1024] })
    }

    /// Writes one pre-encoded frame with a single `write` call (looping
    /// only if the kernel accepts part of it).
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Waits at most `timeout` for bytes, then appends every complete
    /// frame received to `out`.
    pub fn recv(&mut self, timeout: Duration, out: &mut Vec<String>) -> io::Result<()> {
        if !wait_readable(self.stream.as_raw_fd(), timeout)? {
            return Ok(());
        }
        let n = self.stream.read(&mut self.buf)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed the connection"));
        }
        self.pending.extend_from_slice(&self.buf[..n]);
        take_frames(&mut self.pending, out)
    }

    /// One request, one reply (for control verbs on an idle connection).
    pub fn call(&mut self, payload: &str, timeout: Duration) -> io::Result<String> {
        self.send(&encode_frame(payload))?;
        let deadline = Instant::now() + timeout;
        let mut frames = Vec::new();
        while frames.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
            self.recv(left, &mut frames)?;
        }
        Ok(frames.swap_remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_across_arbitrary_splits() {
        let a = encode_frame("{\"verb\":\"ping\"}");
        let b = encode_frame("{\"ψ\":\"x != 0\"}");
        let stream: Vec<u8> = a.iter().chain(&b).copied().collect();
        for cut in 0..stream.len() {
            let mut pending = Vec::new();
            let mut got = Vec::new();
            for part in [&stream[..cut], &stream[cut..]] {
                pending.extend_from_slice(part);
                take_frames(&mut pending, &mut got).unwrap();
            }
            assert_eq!(got, ["{\"verb\":\"ping\"}", "{\"ψ\":\"x != 0\"}"], "cut at {cut}");
            assert!(pending.is_empty());
        }
    }

    #[test]
    fn bad_frames_are_errors_and_partial_ones_wait() {
        let take = |bytes: &[u8]| take_frames(&mut bytes.to_vec(), &mut Vec::new());
        assert!(take(&[0, 0, 0, 0]).is_err(), "zero length");
        assert!(take(&(16u32 << 20 | 1).to_be_bytes()).is_err(), "oversized");
        assert!(take(&[0, 0, 0, 1, 0xff]).is_err(), "not UTF-8");
        let mut pending = vec![0, 0, 0, 3, b'a'];
        let mut got = Vec::new();
        take_frames(&mut pending, &mut got).unwrap();
        assert!(got.is_empty() && pending.len() == 5, "a partial payload waits");
    }
}
