//! # server
//!
//! The serving layer: `preinferd`, a resident batch precondition-inference
//! daemon, and the `preinfer-client` CLI. The daemon
//! amortizes the canonicalizing [`solver::SolverCache`] across requests —
//! the warm-cache counterpart of PR 1's per-process parallel pipeline —
//! behind a length-prefixed JSON protocol (`PROTOCOL.md`) with bounded
//! admission, per-request deadlines, per-verb latency histograms, and
//! SIGTERM-triggered graceful drain. See DESIGN.md §6 "Serving layer".
//!
//! Observability rides on `obs`: every admitted request gets a monotonic
//! id, deterministic head sampling and slow-request tail capture retain
//! per-request traces in a bounded ring ([`TraceRing`], the `trace` verb),
//! and every served counter, gauge and histogram is declared once in a
//! unified [`obs::MetricsRegistry`], which renders both the `stats` verb's
//! JSON and the `metrics` verb's Prometheus text exposition.
//!
//! Tracing is distributed across the router tier: `preinfer-router` mints
//! a 128-bit trace context ([`protocol::TraceContext`]), records its own
//! `route`/`upstream_rtt` spans, and injects the context into the
//! forwarded frame; a shard honors the upstream decision instead of its
//! own policy and records under the same `trace_id`, so the router's
//! `trace --trace-id X` returns one stitched multi-process trace that
//! `obs::analyze` merges into a single tree (the shard's spans nested
//! under the router's `upstream_rtt`). Sampled requests also leave their
//! `trace_id` as Prometheus exemplars on the latency histograms.
//!
//! Both processes share one serving shell ([`shell`]): one settings type
//! ([`ShellConfig`]) and one flag parser for the five settings they share,
//! one start-up that builds the reactor, connection counters
//! ([`netcore::ConnCounters`]), trace ring, sampling policy and registry,
//! and one `main` (start, `listening on`, [`wait_for_signal`], drain
//! through the [`ShutdownHandle`], exit). They also share the
//! client-connection lifecycle, the trace-ring surface
//! ([`TraceRing::select`], [`StoredTrace::render`], the retention values
//! both verbs serve) and the one-tier sampling rule
//! (`SamplingPolicy::decide`).

pub mod client;
pub mod eio;
pub mod netcore;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod routing;
pub mod server;
pub mod service;
pub mod shell;
pub mod trace;

pub use client::{offline_psis, served_psis, Client, ClientError};
pub use netcore::{wait_for_signal, ShutdownHandle};
pub use obs::json;
pub use obs::Histogram;
pub use protocol::{ErrorCode, InferRequest, Request, TraceContext, TraceSelect, MAX_FRAME_LEN};
pub use queue::BoundedQueue;
pub use router::{Router, RouterConfig};
pub use routing::{canonical_method, shard_of, CanonicalMethod};
pub use server::{Server, ServerConfig, ServerLatency};
pub use service::{run_infer, InferOutcome, SummaryPolicy};
pub use shell::ShellConfig;
pub use trace::{RetainReason, SamplingPolicy, StoredTrace, TraceRing};
