//! The daemon's connection core.
//!
//! One thread runs an epoll loop over the `netcore::Reactor` that
//! [`server::Server::start`] bound: the listener, every client
//! connection (the shared `netcore::Clients` lifecycle), and an eventfd
//! [`netcore::Waker`]:
//!
//! * **Accept**: non-blocking accept bursts; each connection is
//!   registered with read interest.
//! * **Read**: readiness drains the socket and decodes every complete
//!   frame; each frame is dispatched — verbs other than `infer` answer
//!   inline, `infer` goes through the admission path
//!   ([`server::start_infer`]): drain check, then bounded admission
//!   with a [`ReplyTo`]. Connections pipeline freely: many frames may be in
//!   flight at once and responses are written in completion order (the
//!   client matches them by `request_id`/`id`, see PROTOCOL.md).
//! * **Completions**: workers push finished responses onto the
//!   [`Completions`] queue and wake the loop, which routes each response
//!   to its connection token (dropped silently if the client vanished).
//! * **Write, idle sweep, backpressure**: `Clients::sweep` flushes
//!   write buffers (arming `EPOLLOUT` for what the socket refuses), drops
//!   read interest from peers that flood requests or stop reading, and
//!   closes connections silent past the idle deadline with a typed
//!   `idle_timeout` response. `Clients` counts every lifecycle event in
//!   the daemon's `netcore::ConnCounters` itself.
//! * **Drain**: on shutdown the loop does a final accept sweep (backlog
//!   connections get typed `shutting_down` answers instead of a reset),
//!   stops accepting, keeps serving until each connection has zero
//!   in-flight work and an empty write buffer, then closes it. When the
//!   last connection closes it closes the admission queue — the loop is
//!   its only producer — so workers drain what is queued and exit.

use crate::netcore::{self, ClientConn, Clients, Reactor, SWEEP_MS, TOKEN_LISTENER, TOKEN_WAKER};
use crate::protocol::{self, render_error, ErrorCode, Request};
use crate::server::{self, InferDisposition, ReplyTo, Shared};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The worker→loop completion channel: finished responses tagged with
/// their connection token, plus the waker that interrupts `epoll_wait`.
pub struct Completions {
    queue: Mutex<Vec<(u64, String)>>,
    waker: Arc<netcore::Waker>,
}

impl Completions {
    pub(crate) fn push(&self, token: u64, response: String) {
        self.queue.lock().expect("completions lock").push((token, response));
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(u64, String)> {
        std::mem::take(&mut *self.queue.lock().expect("completions lock"))
    }
}

/// Runs the connection core until shutdown completes; the worker pool
/// runs beside it.
pub(crate) fn event_loop(reactor: Reactor, shared: &Arc<Shared>) {
    let Reactor { listener, poller, waker } = reactor;
    let completions =
        Arc::new(Completions { queue: Mutex::new(Vec::new()), waker: Arc::clone(&waker) });
    let mut clients = Clients::new(Arc::clone(&shared.conns));
    let mut events = Vec::new();
    let mut frames = Vec::new();
    let mut draining = false;

    loop {
        if shared.shutdown.requested() && !draining {
            draining = true;
            // Final sweep: backlog connections get typed `shutting_down`
            // answers instead of a reset, then the listener goes quiet.
            clients.accept_burst(&listener, &poller);
            poller.delete(listener.as_raw_fd());
        }
        if draining {
            clients.close_quiet(&poller);
            if clients.is_empty() {
                break;
            }
        }

        if poller.wait(&mut events, SWEEP_MS).is_err() {
            break;
        }
        // Deliver finished work first so freshly writable sockets flush
        // the newest responses in the same iteration.
        waker.drain();
        for (token, response) in completions.drain() {
            if let Some(conn) = clients.get_mut(token) {
                conn.complete(&response);
            }
        }

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if !draining {
                        clients.accept_burst(&listener, &poller);
                    }
                }
                TOKEN_WAKER => {} // drained above
                token => {
                    let Some(conn) = clients.get_mut(token) else { continue };
                    if ev.error {
                        // Nothing can be delivered anymore.
                        clients.close(&poller, token);
                        continue;
                    }
                    if ev.readable && !conn.closing {
                        let fault = conn.io.read_frames(&mut frames).err();
                        // In-sync frames decoded before any fault still
                        // get dispatched (and answered) first.
                        for frame in frames.drain(..) {
                            dispatch(frame, token, conn, shared, &completions);
                        }
                        if let Some(fault) = fault {
                            clients.fault(token, fault);
                        }
                    }
                }
            }
        }

        clients.sweep(&poller, shared.idle_timeout, draining);
    }

    shared.queue.close();
}

/// Parses and dispatches one request frame. Inline verbs queue their
/// response immediately; admitted `infer` jobs bump `in_flight` and reply
/// later through the completion queue.
fn dispatch(
    payload: String,
    token: u64,
    conn: &mut ClientConn,
    shared: &Arc<Shared>,
    completions: &Arc<Completions>,
) {
    shared.conns.requests.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    match protocol::parse_request(&payload) {
        Ok(Request::Ping { id }) => {
            let resp = crate::json::ObjBuilder::new()
                .bool("ok", true)
                .opt_str("id", id.as_deref())
                .str("verb", "ping")
                .build();
            conn.io.queue(&resp);
            shared.latency.ping.record(started.elapsed());
        }
        Ok(Request::Stats { id }) => {
            conn.io.queue(&server::render_stats_response(id.as_deref(), shared));
            shared.latency.stats.record(started.elapsed());
        }
        Ok(Request::Metrics { id }) => {
            conn.io.queue(&server::render_metrics_response(id.as_deref(), shared));
            shared.latency.metrics.record(started.elapsed());
        }
        Ok(Request::Trace { id, select }) => {
            conn.io.queue(&server::render_trace_response(id.as_deref(), &select, shared));
            shared.latency.trace.record(started.elapsed());
        }
        Ok(Request::Infer { id, infer }) => {
            // Taken before admission consumes the request, so an inline
            // answer (overload, drain) keeps its exemplar too.
            let exemplar = server::sampled_trace_id(&infer).map(str::to_string);
            let reply = ReplyTo { token, completions: Arc::clone(completions) };
            match server::start_infer(id, infer, shared, reply) {
                InferDisposition::Done(resp) => {
                    conn.io.queue(&resp);
                    server::record_latency(
                        &shared.latency.infer,
                        started.elapsed(),
                        exemplar.as_deref(),
                    );
                }
                InferDisposition::Queued => conn.in_flight += 1,
            }
        }
        Err(reason) => {
            // Parseable framing, unparseable payload: answer and keep the
            // connection (the stream is still in sync).
            shared.conns.bad_requests.fetch_add(1, Ordering::Relaxed);
            conn.io.queue(&render_error(None, ErrorCode::BadRequest, &reason));
        }
    }
}
