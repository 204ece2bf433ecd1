//! # obs
//!
//! Std-only observability for the PreInfer pipeline: structured spans and
//! events ([`TraceSink`], [`SpanGuard`]) attributing wall-clock to the
//! pipeline stages ([`Stage`]), and the lock-free log-linear latency
//! [`Histogram`] whose one summary ([`LatencySummary`]) the CLI trace
//! footer, `tables` and `preinferd`'s `stats` verb all print.
//!
//! Three companions complete the layer: the unified [`MetricsRegistry`]
//! (every served counter, gauge and histogram declared once, rendered
//! both as Prometheus text-format exposition — the `metrics` verb — and
//! as the nested JSON of the `stats` verb), the workspace's one JSON
//! reader and writer ([`json`]), and [`TraceAnalysis`] (span-tree reconstruction of a
//! recorded JSON-lines trace: exclusive self-time, critical path, top-k
//! solver calls, folded stacks — shared by `preinfer --trace-out`'s
//! breakdown and the `preinfer-trace` binary).
//!
//! The crate depends on nothing but `std`, so every layer of the pipeline
//! (solver, testgen, preinfer-core, report, server) can thread an
//! `Option<Arc<TraceSink>>` through its config without dependency cycles.
//! The central invariant — locked in by the trace-neutrality differential
//! tests — is **zero cost when disabled**: a `None` sink means no
//! allocation, no locking, and not even a clock read on any hot path (see
//! [`maybe_span`] and [`recording_sink`]).

pub mod analyze;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod sink;

pub use analyze::TraceAnalysis;
pub use histogram::{Exemplar, Histogram, HistogramSnapshot, LatencySummary};
pub use registry::{reader, Entry, MetricsRegistry};
pub use sink::{maybe_span, recording_sink, SpanGuard, Stage, TraceSink, Val};
