//! The resident daemon: connection core, worker pool, admission control,
//! and graceful shutdown.
//!
//! ## Threading model
//!
//! * One **connection-core** thread (`eio::event_loop`) drives the
//!   listener and every client connection non-blockingly over epoll,
//!   answers `ping`, `stats`, `metrics` and `trace` inline, and submits
//!   `infer` work to the admission queue. Connections may pipeline: many
//!   requests can be in flight on one connection, answered in completion
//!   order.
//! * A fixed **worker pool** pops jobs and runs inference, all workers
//!   sharing one warm [`SolverCache`] — the serving layer's whole point:
//!   request N+1 reuses request N's canonical verdicts, and because
//!   cached values are pure functions of their keys, served results are
//!   byte-identical to cold offline runs. A finished response goes back
//!   to the connection core through its completion queue.
//!
//! ## Admission, deadlines, shutdown
//!
//! Admission is bounded ([`BoundedQueue`]): a full queue rejects with a
//! typed `overloaded` response instead of buffering unboundedly. Each
//! request's deadline starts at admission, so queue wait counts against
//! it; workers check it before each solver call and every 1024 executor
//! steps, and return partial results marked `timed_out` — a deadline can
//! never hang a worker because every solve is budget-bounded. On shutdown
//! (SIGTERM in the binary, or [`ShutdownHandle::shutdown`]), the
//! connection core stops accepting and answers new work with
//! `shutting_down`; once its last connection closes it closes the queue,
//! workers drain it to empty, and `join` returns once every thread has
//! exited.
//!
//! ## Shell
//!
//! The settings the daemon shares with the router ([`ShellConfig`]), its
//! flag parser, start-up and `main` are the serving shell in
//! [`crate::shell`]; whether a request records a trace is the one-tier
//! rule of `SamplingPolicy::decide` in [`crate::trace`].

use crate::eio;
use crate::netcore::{resident_bytes, ShutdownHandle};
use crate::protocol::{render_error, ErrorCode, InferRequest, TraceSelect};
use crate::queue::BoundedQueue;
use crate::service;
use crate::service::SummaryPolicy;
use crate::shell::{Serving, Shell, ShellConfig};
use crate::trace::StoredTrace;
use obs::json::ObjBuilder;
use obs::{reader, Entry, Histogram};
use preinfer_core::SummaryTable;
use solver::{Deadline, IncrementalCounters, SolverCache, TierCounters};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The settings the daemon shares with the router.
    pub shell: ShellConfig,
    /// Worker threads executing `infer` jobs.
    pub workers: usize,
    /// Admission-queue capacity (requests waiting for a worker).
    pub queue_capacity: usize,
    /// Apply callee ψ-summaries at call sites from a daemon-lifetime
    /// shared table (`--interproc summary`) instead of inlining callee
    /// bodies (`--interproc inline`, the default).
    pub summaries: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shell: ShellConfig::default(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            queue_capacity: 64,
            summaries: false,
        }
    }
}

/// The daemon's `infer` outcome counters (the connection lifecycle is
/// counted by [`crate::netcore::ConnCounters`]).
#[derive(Debug, Default)]
pub struct Counters {
    pub infers_ok: AtomicU64,
    pub infer_errors: AtomicU64,
    pub overloaded: AtomicU64,
    pub timed_out: AtomicU64,
}

/// Server-side latency histograms: one per verb, plus `queue_wait`
/// (admission → dequeue) so time spent waiting for a worker is attributed
/// separately from service time.
#[derive(Debug, Default)]
pub struct ServerLatency {
    pub infer: Histogram,
    pub stats: Histogram,
    pub ping: Histogram,
    pub metrics: Histogram,
    pub trace: Histogram,
    pub queue_wait: Histogram,
}

/// Where a worker delivers a finished response: the connection core's
/// completion queue, tagged with the connection token (the push wakes
/// the loop).
pub(crate) struct ReplyTo {
    pub(crate) token: u64,
    pub(crate) completions: Arc<eio::Completions>,
}

/// One admitted unit of work.
pub(crate) struct Job {
    /// Monotonic 1-based admission id (assigned in [`start_infer`]).
    pub(crate) request_id: u64,
    pub(crate) id: Option<String>,
    pub(crate) request: InferRequest,
    pub(crate) deadline: Deadline,
    pub(crate) admitted_at: Instant,
    pub(crate) reply: ReplyTo,
}

/// State shared by every thread. The observable pieces (`queue`,
/// `counters`, `latency`, `trace`, `tiers`, the shell's counters and
/// ring) are individually `Arc`'d so the registry's readers can capture
/// them without holding the whole `Shared` (which owns the registry — a
/// cycle).
pub(crate) struct Shared {
    /// Shutdown handle, connection counters, trace ring, sampling policy,
    /// registry and idle limit.
    pub(crate) shell: Shell,
    /// Closed by the connection core once every connection has closed, so
    /// a request admitted in the instant the shutdown flag flips is still
    /// drained, not orphaned.
    pub(crate) queue: Arc<BoundedQueue<Job>>,
    pub(crate) cache: Arc<SolverCache>,
    pub(crate) counters: Arc<Counters>,
    pub(crate) latency: Arc<ServerLatency>,
    /// Aggregate pipeline-stage histograms shared by every worker, served
    /// through the registry. Sampled requests run on their own recording
    /// sink which is absorbed here on completion, so these lifetime
    /// histograms stay complete regardless of sampling.
    pub(crate) trace: Arc<obs::TraceSink>,
    /// Which solver tier answered each executed query, summed across all
    /// workers for the daemon's lifetime, served through the registry.
    pub(crate) tiers: Arc<TierCounters>,
    /// Incremental-session counters shared by every worker, served
    /// through the registry.
    pub(crate) incremental: Arc<IncrementalCounters>,
    /// Interprocedural policy: the daemon-lifetime summary table (in
    /// summary mode) and apply counters, served through the registry.
    pub(crate) summaries: SummaryPolicy,
    /// Admission counter: ids are 1-based, assigned in [`start_infer`].
    pub(crate) next_request_id: AtomicU64,
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    event: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let (reactor, shell) = Shell::start(&cfg.shell)?;
        let summaries = SummaryPolicy {
            table: cfg.summaries.then(|| Arc::new(SummaryTable::new())),
            ..SummaryPolicy::default()
        };
        let shared = Arc::new(Shared {
            shell,
            queue: Arc::new(BoundedQueue::new(cfg.queue_capacity)),
            cache: Arc::new(SolverCache::new()),
            counters: Arc::default(),
            latency: Arc::default(),
            trace: Arc::new(obs::TraceSink::aggregate()),
            tiers: Arc::default(),
            incremental: Arc::default(),
            summaries,
            next_request_id: AtomicU64::new(0),
        });
        shared.declare_observables();
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let event = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || eio::event_loop(reactor, &shared))
        };
        Ok(Server { shared, event, workers })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.shell.local_addr
    }

    /// A shutdown trigger usable from signal handlers and tests.
    pub fn handle(&self) -> ShutdownHandle {
        self.shared.shell.shutdown.clone()
    }

    /// Blocks until the daemon has fully drained and every thread exited.
    /// Call [`ShutdownHandle::shutdown`] (or deliver SIGTERM to the binary)
    /// first, or this never returns.
    pub fn join(self) {
        let _ = self.event.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

impl Serving for Server {
    fn local_addr(&self) -> SocketAddr {
        Server::local_addr(self)
    }

    fn handle(&self) -> ShutdownHandle {
        Server::handle(self)
    }

    fn join(self) {
        Server::join(self)
    }
}

// ---- admission --------------------------------------------------------------

/// The outcome of trying to start an `infer` request.
pub(crate) enum InferDisposition {
    /// The response is already known: rejection or drain.
    Done(String),
    /// A job was admitted; the response arrives through the [`ReplyTo`].
    Queued,
}

/// The admission path: drain check, then bounded admission.
pub(crate) fn start_infer(
    id: Option<String>,
    request: InferRequest,
    shared: &Arc<Shared>,
    reply: ReplyTo,
) -> InferDisposition {
    if shared.shell.shutdown.requested() {
        return InferDisposition::Done(render_error(
            id.as_deref(),
            ErrorCode::ShuttingDown,
            "daemon is draining",
        ));
    }
    // The admission id is assigned before the push so the job carries it;
    // rejected (overloaded) requests consume ids too.
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
    let deadline = request.deadline_ms.map(Deadline::after_ms).unwrap_or_default();
    let job =
        Job { request_id, id: id.clone(), request, deadline, admitted_at: Instant::now(), reply };
    if shared.queue.try_push(job).is_err() {
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        return InferDisposition::Done(render_error(
            id.as_deref(),
            ErrorCode::Overloaded,
            &format!("admission queue full ({} slots)", shared.queue.capacity()),
        ));
    }
    InferDisposition::Queued
}

/// Renders the `metrics` verb: the registry's Prometheus text exposition,
/// carried as a JSON string field so the frame stays a JSON object.
pub(crate) fn render_metrics_response(id: Option<&str>, shared: &Shared) -> String {
    ObjBuilder::new()
        .bool("ok", true)
        .opt_str("id", id)
        .str("verb", "metrics")
        .str("content_type", "text/plain; version=0.0.4")
        .str("text", &shared.shell.registry.render_prometheus())
        .build()
}

/// Renders the `trace` verb: retained traces (newest first for `last`),
/// each with its recorded events inlined as a JSON array.
pub(crate) fn render_trace_response(
    id: Option<&str>,
    select: &TraceSelect,
    shared: &Shared,
) -> String {
    let ring = &shared.shell.ring;
    let rendered = ring.select(select).iter().map(StoredTrace::render).collect();
    ObjBuilder::new()
        .bool("ok", true)
        .opt_str("id", id)
        .str("verb", "trace")
        .u64("buffered", ring.len() as u64)
        .arr("traces", rendered)
        .build()
}

// ---- workers ----------------------------------------------------------------

/// The exemplar for an `infer` answered at admission (overload, drain):
/// present only when the request carries a sampled cross-process trace
/// context. A worker stamps the id of the trace its ring keeps instead.
pub(crate) fn sampled_trace_id(req: &InferRequest) -> Option<&str> {
    req.trace.as_ref().filter(|c| c.sampled).map(|c| c.trace_id.as_str())
}

/// Records one latency sample, with `trace_id` as its exemplar if any, so
/// a fat bucket in `metrics` links straight to a retained trace.
pub(crate) fn record_latency(h: &Histogram, d: Duration, trace_id: Option<&str>) {
    match trace_id {
        Some(tid) => h.record_with_exemplar(d, tid),
        None => h.record(d),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let sampling = &shared.shell.sampling;
    while let Some(job) = shared.queue.pop() {
        let dequeued = Instant::now();
        let queue_wait = dequeued.duration_since(job.admitted_at);
        let queue_ms = queue_wait.as_secs_f64() * 1e3;
        // A request this process records (the one-tier rule of
        // `SamplingPolicy::decide`) runs on a private sink stamped with
        // its trace id, so the per-process traces stitch together and
        // `trace --trace-id` finds it; everyone else shares the aggregate.
        // Recording is observation-only — the trace-neutrality tests prove
        // served ψ identical either way.
        let decision = sampling.decide(job.request_id, job.request.trace.clone(), false);
        let recording = decision.recording_sink("preinferd").map(Arc::new);
        let trace = Some(recording.clone().unwrap_or_else(|| Arc::clone(&shared.trace)));
        let result = service::run_infer(
            &job.request,
            &shared.cache,
            &job.deadline,
            &trace,
            &shared.tiers,
            &shared.incremental,
            &shared.summaries,
        );
        let service_time = dequeued.elapsed();
        let (response, func) = match result {
            Ok(outcome) => {
                shared.counters.infers_ok.fetch_add(1, Ordering::Relaxed);
                if outcome.timed_out {
                    shared.counters.timed_out.fetch_add(1, Ordering::Relaxed);
                }
                let resp = service::render_infer_response(
                    job.id.as_deref(),
                    job.request_id,
                    &outcome,
                    queue_ms,
                    &shared.cache,
                );
                (resp, outcome.func)
            }
            Err(e) => {
                shared.counters.infer_errors.fetch_add(1, Ordering::Relaxed);
                let func = job.request.func.clone().unwrap_or_default();
                (render_error(job.id.as_deref(), e.code, &e.message), func)
            }
        };
        // The id of the trace the ring keeps, if any: the exemplar that
        // links this request's latency samples to it.
        let mut exemplar = None;
        if let Some(sink) = &recording {
            let queue_us = queue_wait.as_micros().min(u64::MAX as u128) as u64;
            let service_us = service_time.as_micros().min(u64::MAX as u128) as u64;
            // Trailing request summary so an exported trace is
            // self-describing (preinfer-trace reads it as the wall clock).
            sink.event(
                "run",
                &[
                    ("request_id", obs::Val::U(job.request_id)),
                    ("func", obs::Val::S(&func)),
                    ("dur_us", obs::Val::U(service_us)),
                    ("queue_us", obs::Val::U(queue_us)),
                ],
            );
            // Fold the private sink's stage histograms into the daemon
            // aggregate so `stats`/`metrics` stay complete under sampling.
            shared.trace.absorb(sink);
            if let Some(reason) = decision.retain(sampling, job.request_id, service_time) {
                let trace_id = sink.trace_id();
                exemplar = trace_id.clone();
                shared.shell.ring.push(StoredTrace {
                    process: None,
                    request_id: job.request_id,
                    trace_id,
                    func,
                    reason,
                    queue_us,
                    service_us,
                    lines: sink.lines(),
                });
            }
        }
        // The worker is the last stop that knows the request, so it
        // records admission→completion latency (and the queue wait, once
        // retention has been decided).
        record_latency(&shared.latency.queue_wait, queue_wait, exemplar.as_deref());
        record_latency(&shared.latency.infer, job.admitted_at.elapsed(), exemplar.as_deref());
        job.reply.completions.push(job.reply.token, response);
    }
}

impl Shared {
    /// Declares every value the daemon serves, once: the `stats` verb and
    /// the `metrics` verb are both renderings of these entries. Readers
    /// capture individual `Arc`s (never `Shared`, which owns the registry)
    /// and read their atomics at render time — zero hot-path cost.
    fn declare_observables(&self) {
        let reg = &self.shell.registry;
        let requests = ("preinfer_requests_total", "Parsed request frames.");
        self.shell.conns.declare(reg, self.shell.started, "counters.", requests);
        reg.add(
            Entry::gauge(reader(&self.queue, |q| q.len() as u64))
                .series("preinfer_queue_depth", "Requests waiting for a worker.", &[])
                .stats("counters.queue_depth"),
        );
        reg.add(
            Entry::gauge(reader(&self.queue, |q| q.capacity() as u64))
                .series("preinfer_queue_capacity", "Admission queue capacity.", &[])
                .stats("counters.queue_capacity"),
        );
        type Outcome = fn(&Counters) -> &AtomicU64;
        let outcomes: [(&str, &str, Outcome); 4] = [
            ("ok", "infers_ok", |c| &c.infers_ok),
            ("error", "infer_errors", |c| &c.infer_errors),
            ("overloaded", "overloaded", |c| &c.overloaded),
            ("timed_out", "timed_out", |c| &c.timed_out),
        ];
        for (result, key, sel) in outcomes {
            let c = Arc::clone(&self.counters);
            reg.add(
                Entry::counter(move || sel(&c).load(Ordering::Relaxed))
                    .series(
                        "preinfer_infer_results_total",
                        "Completed infer requests by result.",
                        &[("result", result)],
                    )
                    .stats(format!("counters.{key}")),
            );
        }

        const LOOKUPS: &str = "preinfer_cache_lookups_total";
        const LOOKUP_HELP: &str = "Solver cache lookups by result.";
        reg.add(
            Entry::counter(reader(&self.cache, |c| c.stats().hits))
                .series(LOOKUPS, LOOKUP_HELP, &[("result", "hit")])
                .stats("cache.hits"),
        );
        reg.add(
            Entry::counter(reader(&self.cache, |c| c.stats().misses))
                .series(LOOKUPS, LOOKUP_HELP, &[("result", "miss")])
                .stats("cache.misses"),
        );
        reg.add(
            Entry::gauge(reader(&self.cache, |c| c.stats().entries))
                .series("preinfer_cache_entries", "Entries resident in the solver cache.", &[])
                .stats("cache.entries"),
        );
        reg.add(
            Entry::gauge(reader(&self.cache, |c| c.stats().bytes))
                .series("preinfer_cache_bytes", "Bytes owned by solver cache entries.", &[])
                .stats("memory.cache_bytes"),
        );
        reg.add(
            Entry::counter(reader(&self.cache, |c| c.stats().evictions))
                .series("preinfer_cache_eviction_sweeps_total", "Cache eviction sweeps.", &[])
                .stats("cache.evictions"),
        );
        reg.add(
            Entry::counter(reader(&self.cache, |c| c.stats().evicted_entries))
                .series("preinfer_cache_evicted_entries_total", "Entries evicted.", &[])
                .stats("cache.evicted_entries"),
        );
        reg.add(Entry::real(reader(&self.cache, |c| c.stats().hit_rate())).stats("cache.hit_rate"));

        const TIERS: &str = "preinfer_solver_tier_answers_total";
        const TIER_HELP: &str = "Solver queries answered, by deciding tier.";
        reg.add(
            Entry::counter(reader(&self.tiers, |t| t.snapshot().answered_by_syntactic))
                .series(TIERS, TIER_HELP, &[("tier", "syntactic")])
                .stats("solver_tiers.answered_by_syntactic"),
        );
        reg.add(
            Entry::counter(reader(&self.tiers, |t| t.snapshot().answered_by_interval))
                .series(TIERS, TIER_HELP, &[("tier", "interval")])
                .stats("solver_tiers.answered_by_interval"),
        );
        reg.add(
            Entry::counter(reader(&self.tiers, |t| t.snapshot().answered_by_simplex))
                .series(TIERS, TIER_HELP, &[("tier", "simplex")])
                .stats("solver_tiers.answered_by_simplex"),
        );
        reg.add(
            Entry::counter(reader(&self.tiers, |t| t.snapshot().escalations))
                .series("preinfer_solver_escalations_total", "Tier escalations.", &[])
                .stats("solver_tiers.escalations"),
        );
        reg.add(
            Entry::real(reader(&self.tiers, |t| t.snapshot().tier1_rate()))
                .stats("solver_tiers.tier1_rate"),
        );

        reg.add(
            Entry::counter(reader(&self.incremental, |i| i.snapshot().sessions))
                .series(
                    "preinfer_solver_incremental_sessions_total",
                    "Warm incremental solver sessions opened.",
                    &[],
                )
                .stats("solver_incremental.sessions"),
        );
        reg.add(
            Entry::counter(reader(&self.incremental, |i| i.snapshot().queries))
                .series(
                    "preinfer_solver_incremental_queries_total",
                    "Solver queries answered through an incremental session.",
                    &[],
                )
                .stats("solver_incremental.queries"),
        );
        reg.add(
            Entry::counter(reader(&self.incremental, |i| i.snapshot().pushes))
                .series(
                    "preinfer_solver_incremental_pushes_total",
                    "Predicates pushed onto incremental session stacks.",
                    &[],
                )
                .stats("solver_incremental.pushes"),
        );
        reg.add(
            Entry::counter(reader(&self.incremental, |i| i.snapshot().pops))
                .series(
                    "preinfer_solver_incremental_pops_total",
                    "Incremental session stack rewinds.",
                    &[],
                )
                .stats("solver_incremental.pops"),
        );
        reg.add(
            Entry::counter(reader(&self.incremental, |i| i.snapshot().reused_depth_sum))
                .series(
                    "preinfer_solver_incremental_reused_depth_total",
                    "Stacked predicates reused across incremental queries (sum).",
                    &[],
                )
                .stats("solver_incremental.reused_depth_sum"),
        );
        reg.add(
            Entry::real(reader(&self.incremental, |i| i.snapshot().avg_reused_depth()))
                .stats("solver_incremental.avg_reused_depth"),
        );

        let mode = if self.summaries.table.is_some() { "summary" } else { "inline" };
        reg.add(Entry::text(move || mode.to_string()).stats("summaries.mode"));
        // Inline mode serves the counts of a table nothing ever fills: zeros.
        let table = self.summaries.table.clone().unwrap_or_default();
        const SUMMARY_LOOKUPS: &str = "preinfer_summary_table_lookups_total";
        const SUMMARY_LOOKUP_HELP: &str = "Summary-table lookups by result.";
        reg.add(
            Entry::counter(reader(&table, |t| t.hits()))
                .series(SUMMARY_LOOKUPS, SUMMARY_LOOKUP_HELP, &[("result", "hit")])
                .stats("summaries.hits"),
        );
        reg.add(
            Entry::counter(reader(&table, |t| t.misses()))
                .series(SUMMARY_LOOKUPS, SUMMARY_LOOKUP_HELP, &[("result", "miss")])
                .stats("summaries.misses"),
        );
        reg.add(
            Entry::counter(reader(&table, |t| t.inserts()))
                .series(
                    "preinfer_summary_table_inserts_total",
                    "Callee closures inserted into the summary table.",
                    &[],
                )
                .stats("summaries.inserts"),
        );
        reg.add(
            Entry::gauge(reader(&table, |t| t.len() as u64))
                .series(
                    "preinfer_summary_table_entries",
                    "Callee closures resident in the summary table.",
                    &[],
                )
                .stats("summaries.entries"),
        );
        reg.add(
            Entry::counter(reader(&self.summaries.stats, |s| s.applies()))
                .series(
                    "preinfer_summary_applies_total",
                    "Checks summarized at call sites (psi(actuals) recorded).",
                    &[],
                )
                .stats("summaries.applies"),
        );
        reg.add(
            Entry::counter(reader(&self.summaries.stats, |s| s.fallbacks()))
                .series(
                    "preinfer_summary_fallbacks_total",
                    "Call-site fallbacks to inline recording.",
                    &[],
                )
                .stats("summaries.fallbacks"),
        );

        for stage in obs::Stage::ALL {
            let tr = Arc::clone(&self.trace);
            reg.add(
                Entry::histogram_with_total(move || tr.stage_histogram(stage).snapshot())
                    .series(
                        "preinfer_stage_duration_us",
                        "Pipeline stage wall-clock, microseconds.",
                        &[("stage", stage.label())],
                    )
                    .stats(format!("stages.{}", stage.label())),
            );
        }
        type VerbSelector = fn(&ServerLatency) -> &Histogram;
        let verbs: [(&str, VerbSelector); 5] = [
            ("infer", |l| &l.infer),
            ("stats", |l| &l.stats),
            ("ping", |l| &l.ping),
            ("metrics", |l| &l.metrics),
            ("trace", |l| &l.trace),
        ];
        for (verb, sel) in verbs {
            let l = Arc::clone(&self.latency);
            reg.add(
                Entry::histogram(move || sel(&l).snapshot())
                    .series(
                        "preinfer_request_duration_us",
                        "Request service latency by verb, microseconds.",
                        &[("verb", verb)],
                    )
                    .stats(format!("latency.{verb}")),
            );
        }
        reg.add(
            Entry::histogram(reader(&self.latency, |l| l.queue_wait.snapshot()))
                .series("preinfer_queue_wait_us", "Admission-to-dequeue wait, microseconds.", &[])
                .stats("latency.queue_wait"),
        );
        self.shell.ring.declare(reg);
        let sample = self.shell.sampling.sample;
        reg.add(Entry::gauge(move || sample).stats("traces.sample"));

        reg.add(
            Entry::gauge(resident_bytes)
                .series(
                    "preinfer_resident_bytes",
                    "Resident set size (/proc/self/statm), bytes.",
                    &[],
                )
                .stats("memory.resident_bytes"),
        );
        for (i, (arena, _)) in symbolic::arena_sizes().into_iter().enumerate() {
            reg.add(
                Entry::gauge(move || symbolic::arena_sizes()[i].1 as u64)
                    .series(
                        "preinfer_arena_nodes",
                        "Distinct nodes in the process-wide hash-consing arenas (never freed).",
                        &[("arena", arena)],
                    )
                    .stats(format!("memory.arena_nodes.{arena}")),
            );
        }
    }
}
