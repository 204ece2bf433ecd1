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
//! and every counter/histogram registers in a unified
//! [`obs::MetricsRegistry`] scraped by the `metrics` verb as Prometheus
//! text exposition.
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
//! Both processes share one serving shell: the client-connection
//! lifecycle and its counters ([`netcore::ConnCounters`]), the trace-ring
//! surface ([`TraceRing::select`], [`StoredTrace::render`], the retention
//! metric families), one [`ShutdownHandle`] and one SIGTERM/SIGINT wait
//! ([`wait_for_signal`]).

pub mod client;
pub mod eio;
pub mod json;
pub mod netcore;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod routing;
pub mod server;
pub mod service;
pub mod trace;

pub use client::{offline_psis, served_psis, Client, ClientError};
pub use netcore::{wait_for_signal, ShutdownHandle};
pub use obs::Histogram;
pub use protocol::{ErrorCode, InferRequest, Request, TraceContext, TraceSelect, MAX_FRAME_LEN};
pub use queue::BoundedQueue;
pub use router::{Router, RouterConfig};
pub use routing::{canonical_method, shard_of, CanonicalMethod};
pub use server::{Server, ServerConfig, ServerLatency};
pub use service::{run_infer, InferOutcome, SummaryPolicy};
pub use trace::{RetainReason, SamplingPolicy, StoredTrace, TraceRing};
