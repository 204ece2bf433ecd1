//! The downstream client-connection lifecycle shared by both run loops
//! (the daemon's `server::eio` and the `server::router` front): the
//! listener and poller set-up, accept, per-connection in-flight and
//! backpressure bookkeeping, typed replies to framing faults, idle
//! expiry, and the shutdown drain.
//!
//! The loops differ only in what a decoded frame turns into; everything
//! here is caller-agnostic. Methods report what happened (connections
//! accepted, closed, idle-expired, malformed) and each loop bumps its own
//! counters from the returned values.

use super::{ConnError, FramedConn, Interest, Poller, Waker, WRITE_BACKPRESSURE_BYTES};
use crate::protocol::{render_error, ErrorCode, MAX_FRAME_LEN};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved poller tokens; connection tokens start at [`TOKEN_FIRST_CONN`].
pub(crate) const TOKEN_LISTENER: u64 = 0;
pub(crate) const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Idle-deadline sweep period (also the `epoll_wait` timeout, so a loop
/// observes its shutdown flag at least this often even without a wake).
pub(crate) const SWEEP_MS: i32 = 100;

/// Per-connection in-flight ceiling: past this the connection's read
/// interest is dropped (requests already decoded still run; the kernel
/// socket buffer is the only place further frames can wait).
const MAX_CONN_IN_FLIGHT: usize = 512;

/// How long a quiescent connection survives after shutdown begins, so a
/// peer mid-request (or one just accepted from the backlog) still gets
/// its typed `shutting_down` answer.
const DRAIN_GRACE: Duration = Duration::from_millis(200);

/// A bound non-blocking listener plus the poller and waker its run loop
/// uses, both registered before any thread exists — so a wake issued the
/// moment start-up returns (a shutdown, a connector's first result) can
/// never be lost to a loop that has not registered yet.
pub(crate) struct Reactor {
    pub(crate) listener: TcpListener,
    pub(crate) poller: Poller,
    pub(crate) waker: Arc<Waker>,
}

impl Reactor {
    pub(crate) fn bind(addr: &str) -> io::Result<Reactor> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(waker.fd(), TOKEN_WAKER, Interest::READ)?;
        Ok(Reactor { listener, poller, waker })
    }
}

/// One downstream client connection.
pub(crate) struct ClientConn {
    pub(crate) io: FramedConn,
    /// Interest currently registered in the poller.
    registered: Interest,
    /// Requests handed off (to a worker or a shard) whose responses have
    /// not yet been queued back.
    pub(crate) in_flight: usize,
    /// No further reads; close once `in_flight` is 0 and the write buffer
    /// has flushed.
    pub(crate) closing: bool,
}

impl ClientConn {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.closing
                && self.in_flight < MAX_CONN_IN_FLIGHT
                && self.io.write_backlog() < WRITE_BACKPRESSURE_BYTES,
            writable: self.io.wants_write(),
        }
    }

    /// A closing connection with nothing left to deliver can be dropped.
    fn drained(&self) -> bool {
        self.closing && self.quiescent()
    }

    /// Nothing owed to the peer in either direction.
    fn quiescent(&self) -> bool {
        self.in_flight == 0 && !self.io.wants_write()
    }

    /// Silent past `limit` with nothing owed: due an `idle_timeout` close.
    fn idle_expired(&self, now: Instant, limit: Duration) -> bool {
        !self.closing && self.quiescent() && now.duration_since(self.io.last_activity) >= limit
    }

    /// During shutdown: quiescent and past the drain grace.
    fn drain_quiet(&self) -> bool {
        self.quiescent() && self.io.last_activity.elapsed() >= DRAIN_GRACE
    }

    /// Queues the response to an in-flight request and releases its slot.
    pub(crate) fn complete(&mut self, response: &str) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.io.queue(response);
    }

    /// Answers a read fault with its typed reply (none for a clean close
    /// at a frame boundary) and stops reading. Returns whether the peer
    /// sent a malformed frame, which callers count as a bad request.
    pub(crate) fn fault(&mut self, fault: ConnError) -> bool {
        self.closing = true;
        let (code, msg) = match fault {
            ConnError::Closed if !self.io.has_partial_frame() => return false,
            ConnError::Closed | ConnError::NotUtf8 => {
                (ErrorCode::BadRequest, "malformed frame".to_string())
            }
            ConnError::TooLarge(n) => {
                (ErrorCode::FrameTooLarge, format!("frame length {n} outside 1..={MAX_FRAME_LEN}"))
            }
        };
        self.io.queue(&render_error(None, code, &msg));
        true
    }
}

/// What one [`Clients::sweep`] did.
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    /// Connections told `idle_timeout` (they close once flushed).
    pub(crate) idle_expired: u64,
    /// Connections dropped.
    pub(crate) closed: u64,
}

/// Every client connection of one run loop, keyed by poller token. The
/// token space is shared with any other fds the loop registers (see
/// [`Clients::next_token`]).
pub(crate) struct Clients {
    conns: HashMap<u64, ClientConn>,
    next_token: u64,
}

impl Default for Clients {
    fn default() -> Self {
        Clients { conns: HashMap::new(), next_token: TOKEN_FIRST_CONN }
    }
}

impl Clients {
    /// A fresh poller token.
    pub(crate) fn next_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut ClientConn> {
        self.conns.get_mut(&token)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Accepts every pending connection with read interest. Returns
    /// `(accepted, failed)`: failed ones were accepted and then dropped
    /// (they count as both accepted and closed).
    pub(crate) fn accept_burst(&mut self, listener: &TcpListener, poller: &Poller) -> (u64, u64) {
        let (mut accepted, mut failed) = (0, 0);
        while let Ok((stream, _)) = listener.accept() {
            accepted += 1;
            let Ok(io) = FramedConn::new(stream) else {
                failed += 1;
                continue;
            };
            let token = self.next_token();
            if poller.add(io.stream().as_raw_fd(), token, Interest::READ).is_err() {
                failed += 1;
                continue;
            }
            let conn = ClientConn { io, registered: Interest::READ, in_flight: 0, closing: false };
            self.conns.insert(token, conn);
        }
        (accepted, failed)
    }

    /// Drops a connection. Returns whether it was still open.
    pub(crate) fn close(&mut self, poller: &Poller, token: u64) -> bool {
        match self.conns.remove(&token) {
            Some(conn) => {
                poller.delete(conn.io.stream().as_raw_fd());
                true
            }
            None => false,
        }
    }

    /// Shutdown drain: drops every connection that is quiescent and past
    /// [`DRAIN_GRACE`]. Returns how many closed.
    pub(crate) fn close_quiet(&mut self, poller: &Poller) -> u64 {
        let quiet: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.drain_quiet()).map(|(t, _)| *t).collect();
        quiet.into_iter().filter(|&t| self.close(poller, t)).count() as u64
    }

    /// One tick's bookkeeping for every connection: idle expiry (unless
    /// draining; `idle` of `None` disables it), flush, interest re-arm,
    /// and reaping of connections that are drained or whose socket
    /// failed. (Visiting every connection each tick is fine at these
    /// connection counts and keeps the bookkeeping obviously right.)
    pub(crate) fn sweep(
        &mut self,
        poller: &Poller,
        idle: Option<Duration>,
        draining: bool,
    ) -> Sweep {
        let now = Instant::now();
        let mut sweep = Sweep::default();
        let mut dead = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if let Some(limit) = idle.filter(|_| !draining) {
                if conn.idle_expired(now, limit) {
                    sweep.idle_expired += 1;
                    conn.io.queue(&render_error(
                        None,
                        ErrorCode::IdleTimeout,
                        &format!("connection idle past {} ms", limit.as_millis()),
                    ));
                    conn.closing = true;
                }
            }
            if (conn.io.wants_write() && conn.io.flush().is_err()) || conn.drained() {
                dead.push(token);
                continue;
            }
            let want = conn.desired_interest();
            if want != conn.registered
                && poller.modify(conn.io.stream().as_raw_fd(), token, want).is_ok()
            {
                conn.registered = want;
            }
        }
        for token in dead {
            sweep.closed += u64::from(self.close(poller, token));
        }
        sweep
    }
}
