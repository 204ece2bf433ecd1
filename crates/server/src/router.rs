//! `preinfer-router` — the key-affinity sharding front.
//!
//! One event loop (the [`crate::netcore`] reactor, with the same client
//! connection lifecycle as the daemon) fronts N `preinferd` shard daemons:
//!
//! * **Routing**: every `infer` request's target method is canonicalized
//!   ([`crate::routing::canonical_method`] — the α-renamed pretty-printed
//!   source whose hash `solver::affinity_hash` is stable across
//!   processes) and the request is forwarded to shard
//!   `hash % shards`. α-equivalent methods therefore always land on the
//!   same shard — the shard whose solver cache already holds their
//!   verdicts. Uncompilable programs route by raw text so the
//!   typed `compile_error` still comes from a real shard.
//! * **Forwarding** is opaque: the router rewrites only the request `id`
//!   (to a private correlation token `r<seq>`) and splices the original
//!   id back into the response text byte-for-byte, so a routed response
//!   is byte-identical to a direct-daemon response in every other field —
//!   the corpus differential test locks this in for every ψ.
//! * **Pooling/pipelining**: each shard gets a small pool of persistent
//!   upstream connections; requests pipeline onto them and responses are
//!   matched by token, so out-of-order completions are fine.
//! * **Fan-out verbs**: `stats`, `metrics`, and `trace` go to every live
//!   shard and the responses are merged (`stats` nests each shard's
//!   report; `metrics` re-labels each shard's Prometheus exposition with
//!   `shard="i"` and regroups every family under one `# HELP`/`# TYPE`
//!   header; `trace` concatenates the retained traces). `ping` answers
//!   locally — it is the router's liveness.
//! * **Process shell**: the settings it shares with the daemon, its flag
//!   parser, its start-up (reactor, client-connection counters, trace
//!   ring, sampling policy, registry, idle limit), its `main` and its
//!   tracing decision (`SamplingPolicy::decide`) are the
//!   daemon's own ([`crate::shell`]), so the two processes are
//!   configured, count, export, trace and stop identically.
//! * **Dead shards**: a request routed to a shard with no live upstream
//!   connection gets a typed `upstream_unavailable` error immediately;
//!   in-flight requests on a dying connection get the same. A connector
//!   thread re-dials lost connections with bounded exponential backoff.
//! * **Idle closes**: a shard closes a quiet pooled connection with a
//!   typed `idle_timeout` notice. That is not a dead shard: the router
//!   re-dials at once, sends the requests already written to the closed
//!   connection once more on the fresh one (every forwarded verb is
//!   pure), and parks new requests for the shard until it lands.

use crate::netcore::{
    Clients, FramedConn, Interest, Poller, Reactor, ShutdownHandle, Waker, SWEEP_MS,
    TOKEN_LISTENER, TOKEN_WAKER,
};
use crate::protocol::{self, render_error, ErrorCode, Request, TraceSelect};
use crate::routing;
use crate::shell::{Serving, Shell, ShellConfig};
use crate::trace::{StoredTrace, TraceDecision};
use obs::json::{self, ObjBuilder};
use obs::{reader, Entry, TraceSink};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Router configuration.
///
/// Tracing (`shell.trace_sample`, `shell.slow_trace_ms`) samples routed
/// `infer` requests: the router mints the trace context and injects it
/// into the forwarded frame, so the shard records under the same
/// `trace_id` and the per-process traces stitch back together. Tail
/// capture records — and forwards a sampled context for — every request,
/// so the shard half of a slow trace exists by the time it is wanted.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The settings the router shares with the daemon.
    pub shell: ShellConfig,
    /// Upstream shard daemon addresses (`HOST:PORT`), in shard order.
    /// The order is the hash space: the same list in the same order must
    /// be used across router restarts for affinity to persist.
    pub shards: Vec<String>,
    /// Pooled upstream connections per shard.
    pub conns_per_shard: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { shell: ShellConfig::default(), shards: Vec::new(), conns_per_shard: 2 }
    }
}

/// Monotonic routing counters (the merged `stats` response's `router`
/// block and the `preinfer_router_*` metrics family; the connection
/// lifecycle is counted by [`crate::netcore::ConnCounters`]).
#[derive(Debug, Default)]
pub struct RouterCounters {
    pub forwarded: AtomicU64,
    pub fanouts: AtomicU64,
    pub unavailable: AtomicU64,
    pub reconnects: AtomicU64,
    /// Upstream frames that match no in-flight request (a shard's
    /// `idle_timeout` notice is handled, and counted as a reconnect).
    pub unmatched: AtomicU64,
}

struct RouterShared {
    /// Shutdown handle, connection counters, trace ring, sampling policy,
    /// registry and idle limit. The sampling policy runs over the router's
    /// own admission counter — the daemons' policy, applied one tier up;
    /// the ring's traces are served by the `trace` verb alongside the
    /// shard fan-out parts.
    shell: Shell,
    /// The event loop's waker, registered before the connector thread
    /// starts, so the connector's first result can never go unnoticed.
    wake: Arc<Waker>,
    /// (shard, slot) pairs the loop wants re-dialed.
    connect_requests: Mutex<Vec<(usize, usize)>>,
    /// Freshly connected upstream streams from the connector thread.
    connect_results: Mutex<Vec<(usize, usize, TcpStream)>>,
    counters: Arc<RouterCounters>,
    /// Live upstream connections across all shards. Its own `Arc`, so the
    /// registry's reader does not hold `RouterShared`, which owns the
    /// registry (a cycle would keep a stopped router's state alive).
    live_upstreams: Arc<AtomicU64>,
    /// Shards with at least one live upstream connection.
    live_shards: AtomicU64,
    cfg: RouterConfig,
}

/// A running router.
pub struct Router {
    shared: Arc<RouterShared>,
    event: JoinHandle<()>,
    connector: JoinHandle<()>,
}

impl Router {
    /// Binds, starts the event loop and the connector thread, and waits
    /// up to `WAIT_READY` for every shard to come live.
    pub fn start(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no shards configured"));
        }
        let (reactor, shell) = Shell::start(&cfg.shell)?;
        let shared = Arc::new(RouterShared {
            shell,
            wake: Arc::clone(&reactor.waker),
            connect_requests: Mutex::new(
                (0..cfg.shards.len())
                    .flat_map(|s| (0..cfg.conns_per_shard.max(1)).map(move |p| (s, p)))
                    .collect(),
            ),
            connect_results: Mutex::new(Vec::new()),
            counters: Arc::default(),
            live_upstreams: Arc::default(),
            live_shards: AtomicU64::new(0),
            cfg,
        });
        declare_observables(&shared);
        let connector = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || connector_loop(&shared))
        };
        let event = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || event_loop(reactor, &shared))
        };
        let deadline = Instant::now() + WAIT_READY;
        while shared.live_shards.load(Ordering::SeqCst) < shared.cfg.shards.len() as u64
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(Router { shared, event, connector })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.shared.shell.local_addr
    }

    pub fn handle(&self) -> ShutdownHandle {
        self.shared.shell.shutdown.clone()
    }

    /// Blocks until the router has drained (call
    /// [`ShutdownHandle::shutdown`] first).
    pub fn join(self) {
        let _ = self.event.join();
        let _ = self.connector.join();
    }
}

impl Serving for Router {
    fn local_addr(&self) -> SocketAddr {
        Router::local_addr(self)
    }

    fn handle(&self) -> ShutdownHandle {
        Router::handle(self)
    }

    fn join(self) {
        Router::join(self)
    }
}

/// Declares every value the router serves, once: the merged `stats`
/// response's `router` block and the router's own `metrics` series are
/// both renderings of these entries.
fn declare_observables(shared: &Arc<RouterShared>) {
    let shell = &shared.shell;
    let reg = &shell.registry;
    let requests = ("preinfer_router_requests_total", "Downstream request frames.");
    shell.conns.declare(reg, shell.started, "", requests);
    type Count = fn(&RouterCounters) -> &AtomicU64;
    let counts: [(&str, &'static str, &'static str, Count); 5] = [
        ("forwarded", "preinfer_router_forwarded_total", "Requests forwarded to a shard.", |c| {
            &c.forwarded
        }),
        (
            "fanouts",
            "preinfer_router_fanouts_total",
            "Fan-out verbs (stats/metrics/trace) dispatched to all shards.",
            |c| &c.fanouts,
        ),
        (
            "unavailable",
            "preinfer_router_unavailable_total",
            "Requests answered with upstream_unavailable.",
            |c| &c.unavailable,
        ),
        (
            "reconnects",
            "preinfer_router_reconnects_total",
            "Upstream connections lost and re-dialed.",
            |c| &c.reconnects,
        ),
        (
            "unmatched",
            "preinfer_router_unmatched_total",
            "Upstream frames matching no in-flight request.",
            |c| &c.unmatched,
        ),
    ];
    for (key, name, help, sel) in counts {
        let c = Arc::clone(&shared.counters);
        reg.add(
            Entry::counter(move || sel(&c).load(Ordering::Relaxed))
                .series(name, help, &[])
                .stats(key),
        );
    }
    reg.add(
        Entry::gauge(reader(&shared.live_upstreams, |n| n.load(Ordering::Relaxed)))
            .series(
                "preinfer_router_upstream_connections",
                "Live pooled upstream connections.",
                &[],
            )
            .stats("live_upstreams"),
    );
    let n = shared.cfg.shards.len() as u64;
    reg.add(
        Entry::gauge(move || n)
            .series("preinfer_router_shards", "Configured shard count.", &[])
            .stats("shards"),
    );
    shell.ring.declare(reg);
}

// ---- connector thread -------------------------------------------------------

/// How long one upstream dial may block the connector thread.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// Reconnect backoff floor and ceiling: a shard's first re-dial waits the
/// floor, and each failure doubles the wait up to the ceiling.
const RECONNECT_MIN: Duration = Duration::from_millis(50);
const RECONNECT_MAX: Duration = Duration::from_millis(1_000);

/// How long [`Router::start`] waits for every shard to have at least one
/// live upstream connection before returning.
const WAIT_READY: Duration = Duration::from_millis(2_000);

/// How long requests for a shard stay parked after it idle-closed a pooled
/// connection: two dial timeouts, time for a re-dial to a live shard to
/// land. Past it they fail over to `upstream_unavailable`.
const REDIAL_GRACE: Duration = DIAL_TIMEOUT.saturating_mul(2);

/// Dials lost upstream connections off the event loop (blocking
/// `connect_timeout`), with per-shard exponential backoff between
/// attempts, and hands live streams back through `connect_results`.
fn connector_loop(shared: &Arc<RouterShared>) {
    struct Attempt {
        shard: usize,
        slot: usize,
        not_before: Instant,
        backoff: Duration,
    }
    let mut queue: Vec<Attempt> = Vec::new();
    while !shared.shell.shutdown.requested() {
        for (shard, slot) in shared.connect_requests.lock().expect("connect requests").drain(..) {
            queue.push(Attempt { shard, slot, not_before: Instant::now(), backoff: RECONNECT_MIN });
        }
        let now = Instant::now();
        let mut still_waiting = Vec::new();
        for mut a in queue.drain(..) {
            if now < a.not_before {
                still_waiting.push(a);
                continue;
            }
            let addr = &shared.cfg.shards[a.shard];
            let dialed = addr
                .parse::<SocketAddr>()
                .ok()
                .and_then(|sa| TcpStream::connect_timeout(&sa, DIAL_TIMEOUT).ok())
                .or_else(|| TcpStream::connect(addr.as_str()).ok());
            match dialed {
                Some(stream) => {
                    shared
                        .connect_results
                        .lock()
                        .expect("connect results")
                        .push((a.shard, a.slot, stream));
                    shared.wake.wake();
                }
                None => {
                    a.not_before = now + a.backoff;
                    a.backoff = (a.backoff * 2).min(RECONNECT_MAX);
                    still_waiting.push(a);
                }
            }
        }
        queue = still_waiting;
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ---- event loop -------------------------------------------------------------

/// An upstream (shard daemon) connection.
struct UpConn {
    io: FramedConn,
    shard: usize,
    slot: usize,
    /// Correlation tokens pipelined on this connection and still
    /// unanswered (failed over to `upstream_unavailable` if it dies).
    pending: Vec<u64>,
}

/// One in-flight forwarded request.
struct Pending {
    down_token: u64,
    orig_id: Option<String>,
    /// `Some` when this sub-request belongs to a fan-out.
    fan: Option<Rc<RefCell<FanState>>>,
    /// `Some` when this forwarded `infer` is part of a recorded
    /// distributed trace.
    trace: Option<PendingTrace>,
    /// The frame as forwarded, kept until the response arrives in case
    /// the shard idle-closes the connection under it.
    frame: String,
    /// Whether the frame has already been sent once more after an idle
    /// close; a second one fails the request over.
    resent: bool,
}

/// Router-side tracing state for one forwarded `infer` request. Span
/// timing lives here as plain `Instant`s and explicit span ids (the
/// [`TraceSink::begin_span`] flat API) because the epoll loop interleaves
/// many requests on one thread: a request's spans open in one callback
/// and close in a later one, which RAII guards and implicit thread-local
/// nesting cannot describe.
struct PendingTrace {
    sink: Arc<TraceSink>,
    /// The recorded decision: its context names the trace, and it decides
    /// retention.
    decision: TraceDecision,
    /// Router admission id (the sampling counter, not the wire id).
    request_id: u64,
    func: String,
    /// The root `route` span; its exclusive time is pure router overhead.
    root: u64,
    /// `upstream_queue` span, open until the carrying upstream connection
    /// first reports a complete flush (the frame has left the router).
    queue_span: Option<u64>,
    /// `upstream_rtt` span — also the `parent_span_id` the forwarded
    /// context carries, so the shard's spans nest under it when merged.
    rtt_span: u64,
    t_dispatch: Instant,
    /// When the `upstream_queue` span opened — strictly after
    /// `route_decide` closed, so sibling spans never overlap and the
    /// children's sum stays within the `route` root.
    t_queued: Instant,
    /// When the forwarded frame hit the upstream socket.
    t_sent: Instant,
    queue_us: u64,
}

impl PendingTrace {
    /// Closes the `upstream_queue` span once the forwarded frame has been
    /// written to the upstream socket; the rtt clock starts here. Callers
    /// pass a timestamp taken *before* the completing write syscall so the
    /// rtt window is guaranteed to contain the shard's whole service time.
    fn close_queue(&mut self, now: Instant) {
        if let Some(qid) = self.queue_span.take() {
            let wait = now.duration_since(self.t_queued);
            self.queue_us = wait.as_micros().min(u64::MAX as u128) as u64;
            self.sink.end_span(qid, "upstream_queue", wait);
            self.t_sent = now;
        }
    }
}

/// One fan-out (stats/metrics/trace) awaiting all shard parts.
struct FanState {
    verb: FanVerb,
    down_token: u64,
    orig_id: Option<String>,
    expect: usize,
    parts: Vec<(usize, String)>,
    unavailable: usize,
    /// The router's own matching retained traces (rendered), selected at
    /// dispatch time — a stitched `trace` response carries the router
    /// part next to the shard parts.
    local_traces: Vec<String>,
    /// The router ring's occupancy at dispatch time.
    local_buffered: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FanVerb {
    Stats,
    Metrics,
    Trace,
}

struct Shards {
    /// Per shard: per pool slot, the live upstream conn token.
    slots: Vec<Vec<Option<u64>>>,
    /// Per shard: requests waiting for the re-dial after an idle close.
    parked: Vec<Vec<u64>>,
    /// Per shard: set by an idle close, cleared when a fresh connection
    /// lands; when it passes, the parked requests fail over.
    redial_until: Vec<Option<Instant>>,
}

struct Loop<'a> {
    poller: &'a Poller,
    shared: &'a Arc<RouterShared>,
    /// Downstream client connections; their token space also numbers the
    /// upstream connections.
    downs: Clients,
    ups: HashMap<u64, UpConn>,
    shards: Shards,
    pending: HashMap<u64, Pending>,
    next_seq: u64,
    /// 1-based admission counter for routed `infer` requests — the
    /// sampling policy's deterministic input, independent of `next_seq`
    /// (which fan-out sub-requests also consume).
    next_req_id: u64,
}

fn event_loop(reactor: Reactor, shared: &Arc<RouterShared>) {
    let Reactor { listener, poller, waker } = reactor;
    let nshards = shared.cfg.shards.len();
    let mut lp = Loop {
        poller: &poller,
        shared,
        downs: Clients::new(Arc::clone(&shared.shell.conns)),
        ups: HashMap::new(),
        shards: Shards {
            slots: vec![vec![None; shared.cfg.conns_per_shard.max(1)]; nshards],
            parked: vec![Vec::new(); nshards],
            redial_until: vec![None; nshards],
        },
        pending: HashMap::new(),
        next_seq: 0,
        next_req_id: 0,
    };
    let mut events = Vec::new();
    let mut frames = Vec::new();

    while !lp.downs.drained(&listener, &poller, &shared.shell.shutdown) {
        if poller.wait(&mut events, SWEEP_MS).is_err() {
            break;
        }
        waker.drain();
        lp.adopt_new_upstreams();

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => lp.downs.accept(&listener, &poller),
                TOKEN_WAKER => {}
                token if lp.ups.contains_key(&token) => {
                    // Read even on a socket error: a shard's `idle_timeout`
                    // notice may sit in front of it.
                    if ev.readable || ev.error {
                        let fault =
                            lp.ups.get_mut(&token).unwrap().io.read_frames(&mut frames).err();
                        for frame in frames.drain(..) {
                            lp.on_upstream_frame(token, frame);
                        }
                        if fault.is_some() || ev.error {
                            lp.fail_upstream(token);
                        }
                    }
                }
                token => {
                    let Some(conn) = lp.downs.get_mut(token) else { continue };
                    if ev.error {
                        lp.downs.close(&poller, token);
                        continue;
                    }
                    if ev.readable && !conn.closing {
                        let fault = conn.io.read_frames(&mut frames).err();
                        for frame in frames.drain(..) {
                            lp.dispatch_down(token, frame);
                        }
                        if let Some(fault) = fault {
                            lp.downs.fault(token, fault);
                        }
                    }
                }
            }
        }

        lp.flush_and_sweep();
    }
}

impl<'a> Loop<'a> {
    /// Registers streams the connector thread delivered.
    fn adopt_new_upstreams(&mut self) {
        let arrivals: Vec<(usize, usize, TcpStream)> =
            self.shared.connect_results.lock().expect("connect results").drain(..).collect();
        for (shard, slot, stream) in arrivals {
            let Ok(io) = FramedConn::new(stream) else {
                self.request_reconnect(shard, slot);
                continue;
            };
            let token = self.downs.next_token();
            if self.poller.add(io.stream().as_raw_fd(), token, Interest::READ).is_err() {
                self.request_reconnect(shard, slot);
                continue;
            }
            if let Some(prev) = self.shards.slots[shard][slot].replace(token) {
                // A stale connection still occupied the slot; retire it.
                self.retire_upstream(prev);
            }
            self.ups.insert(token, UpConn { io, shard, slot, pending: Vec::new() });
            self.shared.live_upstreams.fetch_add(1, Ordering::SeqCst);
            self.recount_live_shards();
            self.shards.redial_until[shard] = None;
            for seq in std::mem::take(&mut self.shards.parked[shard]) {
                self.send(token, seq);
            }
        }
    }

    fn recount_live_shards(&self) {
        let live =
            self.shards.slots.iter().filter(|slots| slots.iter().any(|s| s.is_some())).count();
        self.shared.live_shards.store(live as u64, Ordering::SeqCst);
    }

    fn request_reconnect(&self, shard: usize, slot: usize) {
        self.shared.connect_requests.lock().expect("connect requests").push((shard, slot));
    }

    /// The least-loaded live upstream connection for `shard`.
    fn pick_upstream(&self, shard: usize) -> Option<u64> {
        self.shards.slots[shard]
            .iter()
            .flatten()
            .copied()
            .min_by_key(|t| self.ups.get(t).map(|u| u.pending.len()).unwrap_or(usize::MAX))
    }

    /// Whether `shard` can take a request now: a pooled connection is
    /// live, or a re-dial after an idle close is under way.
    fn routable(&self, shard: usize) -> bool {
        self.pick_upstream(shard).is_some() || self.shards.redial_until[shard].is_some()
    }

    /// Sends pending request `seq` to a routable `shard`: on its
    /// least-loaded live connection, or parked for the re-dial.
    fn forward(&mut self, shard: usize, seq: u64) {
        match self.pick_upstream(shard) {
            Some(up_token) => self.send(up_token, seq),
            None => self.shards.parked[shard].push(seq),
        }
    }

    /// Queues pending request `seq`'s frame on an upstream connection.
    fn send(&mut self, up_token: u64, seq: u64) {
        if let (Some(up), Some(p)) = (self.ups.get_mut(&up_token), self.pending.get(&seq)) {
            up.io.queue(&p.frame);
            up.pending.push(seq);
        }
    }

    /// Tears an upstream connection down without failing its in-flight
    /// requests (used when a slot is superseded).
    fn retire_upstream(&mut self, token: u64) {
        if let Some(up) = self.ups.remove(&token) {
            self.poller.delete(up.io.stream().as_raw_fd());
            self.shared.live_upstreams.fetch_sub(1, Ordering::SeqCst);
            for seq in up.pending {
                self.answer_unavailable(seq, up.shard);
            }
            self.recount_live_shards();
        }
    }

    /// Takes a lost upstream connection out of routing: the slot empties
    /// and the connector re-dials it with backoff.
    fn lose_upstream(&mut self, token: u64) -> Option<UpConn> {
        let up = self.ups.remove(&token)?;
        self.poller.delete(up.io.stream().as_raw_fd());
        self.shared.live_upstreams.fetch_sub(1, Ordering::SeqCst);
        self.shared.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        self.shards.slots[up.shard][up.slot] = None;
        self.recount_live_shards();
        self.request_reconnect(up.shard, up.slot);
        Some(up)
    }

    /// Handles an upstream connection dying: every pipelined request on
    /// it fails over to a typed `upstream_unavailable`.
    fn fail_upstream(&mut self, token: u64) {
        if let Some(up) = self.lose_upstream(token) {
            for seq in up.pending {
                self.answer_unavailable(seq, up.shard);
            }
        }
    }

    /// Handles a shard's `idle_timeout` notice: the shard answers nothing
    /// more on this connection, so each request already written to it is
    /// parked to go once more on the fresh connection (a request meeting
    /// its second idle close fails over), and new requests for the shard
    /// park too until the re-dial lands or [`REDIAL_GRACE`] passes.
    fn idle_close_upstream(&mut self, token: u64) {
        let Some(up) = self.lose_upstream(token) else { return };
        self.shards.redial_until[up.shard] = Some(Instant::now() + REDIAL_GRACE);
        for seq in up.pending {
            match self.pending.get_mut(&seq) {
                Some(p) if !p.resent => {
                    p.resent = true;
                    self.shards.parked[up.shard].push(seq);
                }
                _ => self.answer_unavailable(seq, up.shard),
            }
        }
    }

    /// Fails one pending request over to `upstream_unavailable`.
    fn answer_unavailable(&mut self, seq: u64, shard: usize) {
        let Some(p) = self.pending.remove(&seq) else { return };
        self.shared.counters.unavailable.fetch_add(1, Ordering::Relaxed);
        match p.fan {
            None => {
                let msg = format!(
                    "shard {shard} ({}) is unavailable",
                    self.shared.cfg.shards.get(shard).map(String::as_str).unwrap_or("?")
                );
                let resp = render_error(p.orig_id.as_deref(), ErrorCode::UpstreamUnavailable, &msg);
                self.deliver_down(p.down_token, resp);
            }
            Some(fan) => {
                fan.borrow_mut().unavailable += 1;
                self.try_finish_fan(&fan);
            }
        }
    }

    /// Queues a response onto a downstream connection (dropped if the
    /// client has vanished) and releases its in-flight slot.
    fn deliver_down(&mut self, token: u64, response: String) {
        if let Some(conn) = self.downs.get_mut(token) {
            conn.complete(&response);
        }
    }

    /// Parses and routes one downstream request frame.
    fn dispatch_down(&mut self, token: u64, payload: String) {
        self.shared.shell.conns.requests.fetch_add(1, Ordering::Relaxed);
        match protocol::parse_request(&payload) {
            Ok(Request::Ping { id }) => {
                // The router's own liveness, answered locally.
                self.deliver_inline(token, protocol::render_pong(id.as_deref()));
            }
            Ok(Request::Infer { id, mut infer }) => {
                self.next_req_id += 1;
                let request_id = self.next_req_id;
                let t_dispatch = Instant::now();
                // Decide tracing before routing so the `route_decide` span
                // can cover the shard computation. The request carries the
                // decision's context on to the shard: verbatim when the
                // router does not record it, with the router's
                // `upstream_rtt` span as its parent when it does.
                let decision =
                    self.shared.shell.sampling.decide(request_id, infer.trace.take(), true);
                infer.trace = decision.context.clone();
                let traced = decision
                    .recording_sink("preinfer-router")
                    .map(|sink| (Arc::new(sink), decision));
                let root = traced.as_ref().map(|(sink, _)| sink.begin_span("route", None));
                let decide = traced
                    .as_ref()
                    .map(|(sink, _)| (sink.begin_span("route_decide", root), Instant::now()));
                let shard = routing::shard_of(
                    &infer.program,
                    infer.func.as_deref(),
                    self.shared.cfg.shards.len(),
                );
                let routable = self.routable(shard);
                if let (Some((sink, _)), Some((did, t0))) = (&traced, decide) {
                    sink.end_span(did, "route_decide", t0.elapsed());
                }
                if !routable {
                    self.shared.counters.unavailable.fetch_add(1, Ordering::Relaxed);
                    let msg =
                        format!("shard {shard} ({}) is unavailable", self.shared.cfg.shards[shard]);
                    let resp = render_error(id.as_deref(), ErrorCode::UpstreamUnavailable, &msg);
                    self.deliver_inline(token, resp);
                    return;
                };
                let seq = self.next_seq;
                self.next_seq += 1;
                // Open the forwarding spans and inject the context: the
                // shard's spans will hang under `upstream_rtt` when the
                // per-process traces are merged.
                let trace = traced.map(|(sink, decision)| {
                    let root = root.expect("root opened with the sink");
                    let t_queued = Instant::now();
                    let queue_span = Some(sink.begin_span("upstream_queue", Some(root)));
                    let rtt_span = sink.begin_span("upstream_rtt", Some(root));
                    if let Some(ctx) = &mut infer.trace {
                        ctx.parent_span_id = Some(rtt_span);
                    }
                    PendingTrace {
                        sink,
                        decision,
                        request_id,
                        func: infer.func.clone().unwrap_or_default(),
                        root,
                        queue_span,
                        rtt_span,
                        t_dispatch,
                        t_queued,
                        t_sent: t_queued,
                        queue_us: 0,
                    }
                });
                let frame = protocol::render_infer(Some(&format!("r{seq}")), &infer);
                self.pending.insert(
                    seq,
                    Pending {
                        down_token: token,
                        orig_id: id,
                        fan: None,
                        trace,
                        frame,
                        resent: false,
                    },
                );
                self.forward(shard, seq);
                if let Some(conn) = self.downs.get_mut(token) {
                    conn.in_flight += 1;
                }
                self.shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Request::Stats { id }) => self.fan_out(token, id, FanVerb::Stats, None),
            Ok(Request::Metrics { id }) => self.fan_out(token, id, FanVerb::Metrics, None),
            Ok(Request::Trace { id, select }) => {
                self.fan_out(token, id, FanVerb::Trace, Some(select))
            }
            Err(reason) => {
                self.shared.shell.conns.bad_requests.fetch_add(1, Ordering::Relaxed);
                let resp = render_error(None, ErrorCode::BadRequest, &reason);
                self.deliver_inline(token, resp);
            }
        }
    }

    /// Queues a locally produced response without touching in-flight
    /// accounting (the request never went upstream).
    fn deliver_inline(&mut self, token: u64, response: String) {
        if let Some(conn) = self.downs.get_mut(token) {
            conn.io.queue(&response);
        }
    }

    /// Dispatches a fan-out verb to every live shard and collects.
    fn fan_out(
        &mut self,
        token: u64,
        id: Option<String>,
        verb: FanVerb,
        select: Option<TraceSelect>,
    ) {
        self.shared.counters.fanouts.fetch_add(1, Ordering::Relaxed);
        let mut select = select.unwrap_or(TraceSelect::Last(1));
        // The router's own retained traces answer the same selection the
        // shards get, so a stitched trace response carries every tier.
        let (local_traces, local_buffered) = match verb {
            FanVerb::Trace => {
                let matched = self.shared.shell.ring.select(&select);
                // `request_id` is meaningful only within one process's
                // admission counter — every shard has its own request 17.
                // When the id names a router-retained trace, resolve the
                // shard legs by its distributed trace_id instead, so only
                // the shard that *owns* the request answers.
                if matches!(select, TraceSelect::ById(_)) {
                    if let Some(tid) = matched.first().and_then(|t| t.trace_id.clone()) {
                        select = TraceSelect::ByTraceId(tid);
                    }
                }
                let buffered = self.shared.shell.ring.len() as u64;
                (matched.iter().map(StoredTrace::render).collect(), buffered)
            }
            _ => (Vec::new(), 0),
        };
        let nshards = self.shared.cfg.shards.len();
        let targets: Vec<usize> = (0..nshards).filter(|&s| self.routable(s)).collect();
        let reachable = targets.len();
        if reachable == 0 {
            self.shared.counters.unavailable.fetch_add(1, Ordering::Relaxed);
            let resp = render_error(
                id.as_deref(),
                ErrorCode::UpstreamUnavailable,
                "no shard is reachable",
            );
            self.deliver_inline(token, resp);
            return;
        }
        let fan = Rc::new(RefCell::new(FanState {
            verb,
            down_token: token,
            orig_id: id,
            expect: nshards,
            parts: Vec::new(),
            unavailable: nshards - reachable,
            local_traces,
            local_buffered,
        }));
        if let Some(conn) = self.downs.get_mut(token) {
            conn.in_flight += 1;
        }
        for shard in targets {
            let seq = self.next_seq;
            self.next_seq += 1;
            let rid = format!("r{seq}");
            let frame = match verb {
                FanVerb::Stats => protocol::render_stats(Some(&rid)),
                FanVerb::Metrics => protocol::render_metrics(Some(&rid)),
                FanVerb::Trace => protocol::render_trace(Some(&rid), &select),
            };
            self.pending.insert(
                seq,
                Pending {
                    down_token: token,
                    orig_id: None,
                    fan: Some(Rc::clone(&fan)),
                    trace: None,
                    frame,
                    resent: false,
                },
            );
            self.forward(shard, seq);
        }
        // Every target may already have been unavailable-only; nothing
        // else completes the fan in that case.
        self.try_finish_fan(&fan);
    }

    /// One response frame from a shard: match its correlation token,
    /// splice the original id back, and deliver or collect.
    fn on_upstream_frame(&mut self, up_token: u64, raw: String) {
        let Some((start, end, seq)) = find_correlation_id(&raw) else {
            if is_idle_notice(&raw) {
                self.idle_close_upstream(up_token);
            } else {
                self.shared.counters.unmatched.fetch_add(1, Ordering::Relaxed);
            }
            return;
        };
        let Some(p) = self.pending.remove(&seq) else {
            self.shared.counters.unmatched.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if let Some(up) = self.ups.get_mut(&up_token) {
            up.pending.retain(|&s| s != seq);
        }
        match p.fan {
            None => {
                // Splice: replace `"id":"r<seq>"` with the original id,
                // leaving every other response byte untouched.
                let replacement = match &p.orig_id {
                    Some(v) => format!("\"id\":{}", json::escape(v)),
                    None => "\"id\":null".to_string(),
                };
                if let Some(mut tr) = p.trace {
                    let now = Instant::now();
                    // Backpressure can keep the queue span open past the
                    // response (flush never reported complete); close it
                    // here so the rtt span still gets a sane start.
                    tr.close_queue(now);
                    tr.sink.end_span(tr.rtt_span, "upstream_rtt", now.duration_since(tr.t_sent));
                    let t_splice = Instant::now();
                    let sid = tr.sink.begin_span("splice", Some(tr.root));
                    let spliced = format!("{}{}{}", &raw[..start], replacement, &raw[end..]);
                    tr.sink.end_span(sid, "splice", t_splice.elapsed());
                    let service = tr.t_dispatch.elapsed();
                    tr.sink.end_span(tr.root, "route", service);
                    self.retain_trace(tr, service);
                    self.deliver_down(p.down_token, spliced);
                } else {
                    let spliced = format!("{}{}{}", &raw[..start], replacement, &raw[end..]);
                    self.deliver_down(p.down_token, spliced);
                }
            }
            Some(fan) => {
                let shard = self.ups.get(&up_token).map(|u| u.shard).unwrap_or(0);
                fan.borrow_mut().parts.push((shard, raw));
                self.try_finish_fan(&fan);
            }
        }
    }

    /// Retention for one completed router-side trace, by the same rule
    /// as the daemons' ([`TraceDecision::retain`]).
    fn retain_trace(&self, tr: PendingTrace, service: Duration) {
        let shell = &self.shared.shell;
        let Some(reason) = tr.decision.retain(&shell.sampling, tr.request_id, service) else {
            return;
        };
        shell.ring.push(StoredTrace {
            process: Some("preinfer-router"),
            request_id: tr.request_id,
            trace_id: tr.decision.context.map(|c| c.trace_id),
            func: tr.func,
            reason,
            queue_us: tr.queue_us,
            service_us: service.as_micros().min(u64::MAX as u128) as u64,
            lines: tr.sink.lines(),
        });
    }

    /// Completes a fan-out once every shard has answered or failed.
    fn try_finish_fan(&mut self, fan: &Rc<RefCell<FanState>>) {
        let done = {
            let f = fan.borrow();
            f.parts.len() + f.unavailable >= f.expect
        };
        if !done {
            return;
        }
        let mut f = fan.borrow_mut();
        f.parts.sort_by_key(|(shard, _)| *shard);
        let response = match f.verb {
            FanVerb::Stats => merge_stats(&f, self.shared),
            FanVerb::Metrics => merge_metrics(&f, self.shared),
            FanVerb::Trace => merge_traces(&f),
        };
        let down = f.down_token;
        // Guard against double completion if both a part arrival and an
        // unavailable notice raced to finish it.
        f.expect = usize::MAX;
        drop(f);
        self.deliver_down(down, response);
    }

    /// Flushes every connection, re-arms interest, applies idle
    /// deadlines, and reaps the dead.
    fn flush_and_sweep(&mut self) {
        let now = Instant::now();
        for shard in 0..self.shards.parked.len() {
            if self.shards.redial_until[shard].is_some_and(|t| now >= t) {
                self.shards.redial_until[shard] = None;
                for seq in std::mem::take(&mut self.shards.parked[shard]) {
                    self.answer_unavailable(seq, shard);
                }
            }
        }
        self.downs.sweep(self.poller, self.shared.shell.idle_timeout);
        let mut dead_ups = Vec::new();
        for (&token, up) in self.ups.iter_mut() {
            if up.io.wants_write() {
                // Timestamp BEFORE the write syscall: on loopback the
                // shard can be woken with the bytes while this thread is
                // still inside (or descheduled after) `write`, so a
                // post-write stamp would let the shard's entire service
                // time leak into `upstream_queue` and leave an
                // `upstream_rtt` span too short to contain the shard's
                // grafted `run` span in the merged trace.
                let t_flush = Instant::now();
                match up.io.flush() {
                    Err(_) => {
                        dead_ups.push(token);
                        continue;
                    }
                    Ok(flushed) => {
                        if flushed {
                            // Every frame queued on this connection has
                            // left the router: close their queue spans.
                            for seq in &up.pending {
                                if let Some(tr) =
                                    self.pending.get_mut(seq).and_then(|p| p.trace.as_mut())
                                {
                                    tr.close_queue(t_flush);
                                }
                            }
                        }
                        let want = Interest { readable: true, writable: !flushed };
                        let _ = self.poller.modify(up.io.stream().as_raw_fd(), token, want);
                    }
                }
            }
        }
        for token in dead_ups {
            self.fail_upstream(token);
        }
    }
}

/// Locates the router's correlation token `"id":"r<seq>"` in a raw shard
/// response, returning the byte range of the whole `"id":"r<seq>"` field
/// and the parsed sequence number. Raw double quotes cannot occur inside
/// JSON string values (they render escaped), so this byte pattern can
/// only be the actual id field.
fn find_correlation_id(raw: &str) -> Option<(usize, usize, u64)> {
    const PAT: &str = "\"id\":\"r";
    let start = raw.find(PAT)?;
    let digits = &raw.as_bytes()[start + PAT.len()..];
    let mut n = 0usize;
    let mut seq: u64 = 0;
    while n < digits.len() && digits[n].is_ascii_digit() {
        seq = seq.wrapping_mul(10).wrapping_add(u64::from(digits[n] - b'0'));
        n += 1;
    }
    if n == 0 || digits.get(n) != Some(&b'"') {
        return None;
    }
    Some((start, start + PAT.len() + n + 1, seq))
}

/// Whether an uncorrelated shard frame is the typed `idle_timeout` notice
/// a shard sends before closing a quiet connection.
fn is_idle_notice(raw: &str) -> bool {
    raw.contains(&format!("\"error\":\"{}\"", ErrorCode::IdleTimeout.as_str()))
}

/// Merged `stats`: the router's own counters plus each shard's full
/// stats response nested verbatim under its shard index.
fn merge_stats(f: &FanState, shared: &Arc<RouterShared>) -> String {
    let shards: Vec<String> = f
        .parts
        .iter()
        .map(|(shard, raw)| {
            ObjBuilder::new()
                .u64("shard", *shard as u64)
                .str("addr", &shared.cfg.shards[*shard])
                .raw("stats", raw.clone())
                .build()
        })
        .collect();
    ObjBuilder::new()
        .bool("ok", true)
        .opt_str("id", f.orig_id.as_deref())
        .str("verb", "stats")
        .raw("router", shared.shell.registry.render_stats(ObjBuilder::new()).build())
        .u64("shards_unavailable", f.unavailable as u64)
        .arr("shards", shards)
        .build()
}

/// Merged `metrics`: the router's own exposition plus each shard's,
/// re-labeled with `shard="i"`. Lines are grouped per family in
/// first-seen order (router, then shard 0, 1, …): one `# HELP` and one
/// `# TYPE` line (the first seen), then every series of that family.
fn merge_metrics(f: &FanState, shared: &Arc<RouterShared>) -> String {
    #[derive(Default)]
    struct Family {
        help: Option<String>,
        ty: Option<String>,
        samples: Vec<String>,
    }
    let mut order: Vec<String> = Vec::new();
    let mut families: HashMap<String, Family> = HashMap::new();
    let mut add = |text: &str, shard: Option<usize>| {
        // Each source exposition is grouped, so a sample belongs to the
        // family whose header it follows.
        let mut current = String::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            if let Some(header) = line.strip_prefix("# ") {
                let mut words = header.split(' ');
                let (Some(kind), Some(name)) = (words.next(), words.next()) else { continue };
                current = name.to_string();
                let fam = families.entry(current.clone()).or_insert_with(|| {
                    order.push(current.clone());
                    Family::default()
                });
                let slot = if kind == "HELP" { &mut fam.help } else { &mut fam.ty };
                slot.get_or_insert_with(|| line.to_string());
            } else if let Some(fam) = families.get_mut(&current) {
                fam.samples.push(match shard {
                    Some(i) => relabel_metric_line(line, i),
                    None => line.to_string(),
                });
            }
        }
    };
    add(&shared.shell.registry.render_prometheus(), None);
    for (shard, raw) in &f.parts {
        let Ok(parsed) = json::parse(raw) else { continue };
        let Some(text) = parsed.str_field("text") else { continue };
        add(text, Some(*shard));
    }
    let mut out = String::new();
    for name in &order {
        let fam = &families[name];
        for line in fam.help.iter().chain(&fam.ty).chain(&fam.samples) {
            out.push_str(line);
            out.push('\n');
        }
    }
    ObjBuilder::new()
        .bool("ok", true)
        .opt_str("id", f.orig_id.as_deref())
        .str("verb", "metrics")
        .str("content_type", "text/plain; version=0.0.4")
        .u64("shards_unavailable", f.unavailable as u64)
        .str("text", &out)
        .build()
}

/// Inserts `shard="i"` as the first label of one Prometheus sample line.
fn relabel_metric_line(line: &str, shard: usize) -> String {
    match line.find('{') {
        Some(brace) => format!("{}{{shard=\"{shard}\",{}", &line[..brace], &line[brace + 1..]),
        None => match line.find(' ') {
            Some(space) => {
                format!("{}{{shard=\"{shard}\"}}{}", &line[..space], &line[space..])
            }
            None => line.to_string(),
        },
    }
}

/// Merged `trace`: the router's own matching retained traces first
/// (tagged `process: "preinfer-router"`), then all shards' (each trace
/// object gains a `shard` field), newest-first within each shard. A
/// by-`trace_id` selection therefore returns one stitched multi-process
/// trace: every part shares the `trace_id`, and each part's recorded
/// lines open with the `trace_meta` naming its process, which is all
/// `obs::analyze` needs to merge them into one tree.
fn merge_traces(f: &FanState) -> String {
    let mut traces = f.local_traces.clone();
    let mut buffered = f.local_buffered;
    for (shard, raw) in &f.parts {
        let Ok(parsed) = json::parse(raw) else { continue };
        buffered += parsed.u64_field("buffered").unwrap_or(0);
        if let Some(items) = parsed.get("traces").and_then(|t| t.as_array()) {
            for t in items {
                let mut with_shard = t.clone();
                if let json::Json::Obj(m) = &mut with_shard {
                    m.insert("shard".to_string(), json::Json::Int(*shard as i128));
                }
                traces.push(json::render(&with_shard));
            }
        }
    }
    ObjBuilder::new()
        .bool("ok", true)
        .opt_str("id", f.orig_id.as_deref())
        .str("verb", "trace")
        .u64("buffered", buffered)
        .u64("shards_unavailable", f.unavailable as u64)
        .arr("traces", traces)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stopped_router_frees_its_shared_state() {
        let shard = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a stand-in shard");
        let router = Router::start(RouterConfig {
            shards: vec![shard.local_addr().expect("shard addr").to_string()],
            ..RouterConfig::default()
        })
        .expect("start router");
        let shared = Arc::downgrade(&router.shared);
        router.handle().shutdown();
        router.join();
        assert!(shared.upgrade().is_none(), "the registry's readers keep the router alive");
    }

    #[test]
    fn idle_notices_are_told_apart_from_other_uncorrelated_frames() {
        let notice = render_error(None, ErrorCode::IdleTimeout, "connection idle past 300 ms");
        assert!(is_idle_notice(&notice));
        assert!(!is_idle_notice(&render_error(None, ErrorCode::BadRequest, "idle_timeout")));
    }

    #[test]
    fn correlation_ids_are_found_and_spliced() {
        let raw = "{\"ok\":true,\"id\":\"r42\",\"verb\":\"infer\",\"psi\":\"x != 0\"}";
        let (s, e, seq) = find_correlation_id(raw).expect("token found");
        assert_eq!(seq, 42);
        assert_eq!(&raw[s..e], "\"id\":\"r42\"");
        let spliced = format!("{}{}{}", &raw[..s], "\"id\":\"client-7\"", &raw[e..]);
        assert_eq!(
            spliced,
            "{\"ok\":true,\"id\":\"client-7\",\"verb\":\"infer\",\"psi\":\"x != 0\"}"
        );
    }

    #[test]
    fn correlation_ignores_escaped_lookalikes_in_strings() {
        // A ψ string that *contains* the pattern renders with escaped
        // quotes, so the matcher cannot be fooled.
        let raw = "{\"msg\":\"see \\\"id\\\":\\\"r9\\\"\",\"id\":\"r3\",\"ok\":false}";
        let (_, _, seq) = find_correlation_id(raw).expect("real id found");
        assert_eq!(seq, 3);
        assert!(find_correlation_id("{\"id\":null}").is_none());
        assert!(find_correlation_id("{\"id\":\"client\"}").is_none());
        assert!(find_correlation_id("{\"id\":\"r\"}").is_none(), "no digits");
    }

    #[test]
    fn metric_lines_gain_the_shard_label() {
        assert_eq!(
            relabel_metric_line("preinfer_queue_depth 3", 1),
            "preinfer_queue_depth{shard=\"1\"} 3"
        );
        assert_eq!(
            relabel_metric_line("preinfer_cache_lookups_total{result=\"hit\"} 9", 0),
            "preinfer_cache_lookups_total{shard=\"0\",result=\"hit\"} 9"
        );
    }
}
