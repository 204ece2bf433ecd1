//! The downstream client-connection lifecycle shared by both run loops
//! (the daemon's `server::eio` and the `server::router` front): the
//! listener and poller set-up, accept, per-connection in-flight and
//! backpressure bookkeeping, typed replies to framing faults, idle
//! expiry, and the shutdown drain.
//!
//! The loops differ only in what a decoded frame turns into; everything
//! here is caller-agnostic. [`Clients`] bumps the shared lifecycle
//! counters ([`ConnCounters`]: accepted, closed, idle-expired, malformed)
//! itself, and [`ShutdownHandle`] is the one graceful-shutdown trigger
//! both processes hand out.

use super::{ConnError, FramedConn, Interest, Poller, Waker, WRITE_BACKPRESSURE_BYTES};
use crate::protocol::{render_error, ErrorCode, MAX_FRAME_LEN};
use obs::{reader, Entry, MetricsRegistry};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

    /// A shutdown trigger that wakes this reactor's loop.
    pub(crate) fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            requested: Arc::new(AtomicBool::new(false)),
            waker: Arc::clone(&self.waker),
        }
    }
}

/// A cloneable graceful-shutdown trigger for a running daemon or router:
/// sets the loop's shutdown flag and wakes it, so the drain starts now
/// rather than at the next sweep tick.
#[derive(Clone)]
pub struct ShutdownHandle {
    requested: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown: stop admitting, drain, exit.
    pub fn shutdown(&self) {
        self.requested.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    pub(crate) fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// Client-connection lifecycle counters, kept by `Clients` and served
/// through the registry of whichever process owns it.
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Accepted connections.
    pub connections: AtomicU64,
    /// Connections torn down (every accepted connection is eventually
    /// counted here too; `connections - conns_closed` is the live gauge).
    pub conns_closed: AtomicU64,
    /// Subset of `conns_closed`: closed by the per-connection idle
    /// deadline with a typed `idle_timeout` response.
    pub idle_closed: AtomicU64,
    /// Request frames decoded (counted by the loop's dispatch).
    pub requests: AtomicU64,
    /// Malformed frames and unparseable payloads.
    pub bad_requests: AtomicU64,
}

impl ConnCounters {
    /// Currently open connections (accepted minus closed).
    pub fn open_connections(&self) -> u64 {
        self.connections
            .load(Ordering::Relaxed)
            .saturating_sub(self.conns_closed.load(Ordering::Relaxed))
    }

    /// Declares the lifecycle values every serving process serves:
    /// uptime, open connections, connection events and request frames
    /// (parsed and malformed). `block` prefixes their `stats` keys (the
    /// daemon's `"counters."`; `""` for the router, whose registry renders
    /// its `router` block); `requests` names the process's request-frame
    /// counter series and its help.
    pub(crate) fn declare(
        self: &Arc<Self>,
        reg: &MetricsRegistry,
        started: Instant,
        block: &str,
        requests: (&'static str, &'static str),
    ) {
        let key = |k: &str| format!("{block}{k}");
        reg.add(
            Entry::uptime(started)
                .series("preinfer_uptime_seconds", "Seconds since the process started.", &[])
                .stats(key("uptime_s")),
        );
        reg.add(
            Entry::gauge(reader(self, ConnCounters::open_connections))
                .series("preinfer_server_connections", "Currently open connections.", &[])
                .stats(key("open_connections")),
        );
        type Select = fn(&ConnCounters) -> &AtomicU64;
        let events: [(&str, &str, Select); 3] = [
            ("accepted", "connections", |c| &c.connections),
            ("closed", "conns_closed", |c| &c.conns_closed),
            ("idle_closed", "idle_closed", |c| &c.idle_closed),
        ];
        for (event, field, sel) in events {
            let c = Arc::clone(self);
            reg.add(
                Entry::counter(move || sel(&c).load(Ordering::Relaxed))
                    .series(
                        "preinfer_connection_events_total",
                        "Connection lifecycle events.",
                        &[("event", event)],
                    )
                    .stats(key(field)),
            );
        }
        let (name, help) = requests;
        reg.add(
            Entry::counter(reader(self, |c| c.requests.load(Ordering::Relaxed)))
                .series(name, help, &[])
                .stats(key("requests")),
        );
        reg.add(
            Entry::counter(reader(self, |c| c.bad_requests.load(Ordering::Relaxed)))
                .series("preinfer_bad_requests_total", "Malformed or unparseable requests.", &[])
                .stats(key("bad_requests")),
        );
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
}

/// Every client connection of one run loop, keyed by poller token. The
/// token space is shared with any other fds the loop registers (see
/// [`Clients::next_token`]).
pub(crate) struct Clients {
    conns: HashMap<u64, ClientConn>,
    next_token: u64,
    counters: Arc<ConnCounters>,
    /// Set once shutdown was seen: nothing more is accepted, and no
    /// connection is idle-closed.
    draining: bool,
}

impl Clients {
    pub(crate) fn new(counters: Arc<ConnCounters>) -> Clients {
        Clients { conns: HashMap::new(), next_token: TOKEN_FIRST_CONN, counters, draining: false }
    }

    /// A fresh poller token.
    pub(crate) fn next_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut ClientConn> {
        self.conns.get_mut(&token)
    }

    /// The shutdown step at the top of each run-loop tick. Once
    /// `shutdown` is requested, a final accept sweep gives backlog
    /// connections typed `shutting_down` answers instead of a reset and
    /// the listener goes quiet; from then on each tick drops the
    /// connections quiescent past [`DRAIN_GRACE`]. True once the last one
    /// has closed: the loop is done.
    pub(crate) fn drained(
        &mut self,
        listener: &TcpListener,
        poller: &Poller,
        shutdown: &ShutdownHandle,
    ) -> bool {
        if shutdown.requested() && !self.draining {
            self.accept(listener, poller);
            self.draining = true;
            poller.delete(listener.as_raw_fd());
        }
        if self.draining {
            let quiet: Vec<u64> =
                self.conns.iter().filter(|(_, c)| c.drain_quiet()).map(|(t, _)| *t).collect();
            for token in quiet {
                self.close(poller, token);
            }
        }
        self.draining && self.conns.is_empty()
    }

    /// Accepts every pending connection with read interest, unless
    /// draining. One that fails to register is dropped at once (counted
    /// accepted and closed).
    pub(crate) fn accept(&mut self, listener: &TcpListener, poller: &Poller) {
        if self.draining {
            return;
        }
        while let Ok((stream, _)) = listener.accept() {
            self.counters.connections.fetch_add(1, Ordering::Relaxed);
            let Ok(io) = FramedConn::new(stream) else {
                self.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let token = self.next_token();
            if poller.add(io.stream().as_raw_fd(), token, Interest::READ).is_err() {
                self.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let conn = ClientConn { io, registered: Interest::READ, in_flight: 0, closing: false };
            self.conns.insert(token, conn);
        }
    }

    /// Drops a connection if it is still open.
    pub(crate) fn close(&mut self, poller: &Poller, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            poller.delete(conn.io.stream().as_raw_fd());
            self.counters.conns_closed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Answers a read fault on `token` with its typed reply (none for a
    /// clean close at a frame boundary) and stops reading from it; a
    /// malformed frame counts as a bad request.
    pub(crate) fn fault(&mut self, token: u64, fault: ConnError) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.closing = true;
        let (code, msg) = match fault {
            ConnError::Closed if !conn.io.has_partial_frame() => return,
            ConnError::Closed | ConnError::NotUtf8 => {
                (ErrorCode::BadRequest, "malformed frame".to_string())
            }
            ConnError::TooLarge(n) => {
                (ErrorCode::FrameTooLarge, format!("frame length {n} outside 1..={MAX_FRAME_LEN}"))
            }
        };
        conn.io.queue(&render_error(None, code, &msg));
        self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// One tick's bookkeeping for every connection: idle expiry (unless
    /// draining; `idle` of `None` disables it), flush, interest re-arm,
    /// and reaping of connections that are drained or whose socket
    /// failed. (Visiting every connection each tick is fine at these
    /// connection counts and keeps the bookkeeping obviously right.)
    pub(crate) fn sweep(&mut self, poller: &Poller, idle: Option<Duration>) {
        let now = Instant::now();
        let mut dead = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if let Some(limit) = idle.filter(|_| !self.draining) {
                if conn.idle_expired(now, limit) {
                    self.counters.idle_closed.fetch_add(1, Ordering::Relaxed);
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
            self.close(poller, token);
        }
    }
}
