//! Per-request trace sampling and retention.
//!
//! Each serving process (the daemon and the router alike) assigns every
//! admitted `infer` request a monotonic id and decides — deterministically,
//! from that id alone — whether the request runs with its own recording
//! `TraceSink`:
//!
//! * **Head sampling**: with `--trace-sample N`, every N-th request
//!   (ids 1, N+1, 2N+1, …) records. The decision is a modulus on the
//!   admission counter — no wall clock, no RNG — so the same request
//!   sequence samples the same ids on every run and under any worker
//!   count; the sampling determinism tests pin this.
//! * **Tail capture**: with `--slow-trace-ms T`, *every* request records
//!   speculatively, and a trace is retained after completion if the
//!   request's service time exceeded `T` — the only way to have the trace
//!   of a request you could not know would be slow. Head-sampled requests
//!   are always retained.
//!
//! Exactly one tier decides sampling, and `SamplingPolicy::decide` is
//! that rule for both processes: a request that arrives with a trace
//! context ([`TraceContext`]) follows it verbatim — it records iff the
//! context is `sampled`, and is retained as `context` — and only a request
//! without one goes through the local policy above, which mints a trace
//! id for each request it records.
//!
//! Retained traces go into a bounded ring ([`TraceRing`]) that evicts the
//! oldest entry on overflow, and are served by the `trace` verb
//! (`{last: K}` / `{request_id: N}`, PROTOCOL.md). Recording is
//! observation-only: the trace-neutrality differential proves served ψ
//! byte-identical with sampling on or off.

use crate::protocol::{TraceContext, TraceSelect};
use obs::json::ObjBuilder;
use obs::{reader, Entry, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Why a completed trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainReason {
    /// The request id was head-sampled (`--trace-sample`).
    Head,
    /// Service time exceeded the slow threshold (`--slow-trace-ms`).
    Slow,
    /// An upstream tier minted a trace context with `sampled: true`; this
    /// process honored that decision instead of its own policy.
    Context,
}

impl RetainReason {
    pub fn label(self) -> &'static str {
        match self {
            RetainReason::Head => "head",
            RetainReason::Slow => "slow",
            RetainReason::Context => "context",
        }
    }
}

/// Mints a fresh 128-bit trace id (32 hex digits). Uniqueness comes from
/// hashing a per-process random seed with the wall clock, the pid, and
/// the caller's monotonic sequence number — collision needs both
/// independent 64-bit halves to collide. No RNG state is kept, so the
/// serving paths that never mint (every non-sampled request) pay nothing.
pub fn mint_trace_id(seq: u64) -> String {
    use std::hash::{BuildHasher, Hasher, RandomState};
    use std::sync::OnceLock;
    static SEED: OnceLock<RandomState> = OnceLock::new();
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let seed = SEED.get_or_init(RandomState::new);
    // The nonce keeps ids distinct even if the clock is too coarse to
    // move between two mints with the same caller sequence number.
    let seq = seq ^ NONCE.fetch_add(1, Ordering::Relaxed).rotate_left(32);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let mut h = seed.build_hasher();
    h.write_u128(now);
    h.write_u64(seq);
    h.write_u32(std::process::id());
    let hi = h.finish();
    let mut h = seed.build_hasher();
    h.write_u64(seq);
    h.write_u32(std::process::id());
    h.write_u128(now);
    h.write_u64(0x7072_6549_6e66_6572); // "prInfer", domain-separates the halves
    let lo = h.finish();
    format!("{hi:016x}{lo:016x}")
}

/// The deterministic sampling policy (immutable after startup).
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplingPolicy {
    /// Head-sample 1 in `sample` requests; 0 disables head sampling.
    pub sample: u64,
    /// Retain any request slower than this, regardless of head sampling.
    pub slow_threshold: Option<Duration>,
}

impl SamplingPolicy {
    /// The policy for `--trace-sample N` (0 = off) and `--slow-trace-ms T`
    /// (absent = off; 0 retains every request).
    pub fn new(sample: u64, slow_trace_ms: Option<u64>) -> SamplingPolicy {
        SamplingPolicy { sample, slow_threshold: slow_trace_ms.map(Duration::from_millis) }
    }

    /// Whether any per-request recording is configured at all.
    pub fn enabled(&self) -> bool {
        self.sample > 0 || self.slow_threshold.is_some()
    }

    /// Whether `request_id` (1-based admission counter) is head-sampled.
    pub fn head_sampled(&self, request_id: u64) -> bool {
        self.sample > 0 && (request_id - 1).is_multiple_of(self.sample)
    }

    /// Whether this request must run with a recording sink. Head-sampled
    /// requests always do; when a slow threshold is set, every request
    /// does (tail capture needs the trace before knowing it is slow).
    pub fn record(&self, request_id: u64) -> bool {
        self.head_sampled(request_id) || self.slow_threshold.is_some()
    }

    /// The retention decision once the request finished in `service`.
    pub fn retain(&self, request_id: u64, service: Duration) -> Option<RetainReason> {
        if self.head_sampled(request_id) {
            return Some(RetainReason::Head);
        }
        match self.slow_threshold {
            Some(t) if service > t => Some(RetainReason::Slow),
            _ => None,
        }
    }

    /// The one-tier rule for request `request_id`, which arrived with the
    /// trace context `incoming`. A context is obeyed verbatim: the request
    /// records iff it is `sampled`. Without one this policy decides, and a
    /// request it records gets a freshly minted trace id. With
    /// `mint_declined` (a tier with tiers below it), a request the policy
    /// declines while it is on also gets a minted `sampled: false`
    /// context, so the tier below does not sample on its own what this
    /// tier declined: one trace per decision, not two.
    pub(crate) fn decide(
        &self,
        request_id: u64,
        incoming: Option<TraceContext>,
        mint_declined: bool,
    ) -> TraceDecision {
        if incoming.is_some() {
            return TraceDecision { context: incoming, upstream: true };
        }
        let sampled = self.record(request_id);
        let context = (sampled || (mint_declined && self.enabled())).then(|| TraceContext {
            trace_id: mint_trace_id(request_id),
            parent_span_id: None,
            sampled,
        });
        TraceDecision { context, upstream: false }
    }
}

/// One process's tracing decision for one request
/// ([`SamplingPolicy::decide`]): the request records iff its context is
/// `sampled`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceDecision {
    /// The context the request runs under and carries on to the tier
    /// below, if any.
    pub(crate) context: Option<TraceContext>,
    /// Whether the context came from an upstream tier, which then decided
    /// retention too.
    pub(crate) upstream: bool,
}

impl TraceDecision {
    /// A recording sink in this decision's trace for `process`, when the
    /// request records.
    pub(crate) fn recording_sink(&self, process: &str) -> Option<obs::TraceSink> {
        let ctx = self.context.as_ref().filter(|c| c.sampled)?;
        Some(obs::TraceSink::recording_in_trace(process, &ctx.trace_id, ctx.parent_span_id))
    }

    /// Retention once the request finished in `service`: a recorded
    /// upstream decision is retained as `context`, a recorded local one by
    /// `policy`'s head/slow rule; a request that did not record keeps
    /// nothing.
    pub(crate) fn retain(
        &self,
        policy: &SamplingPolicy,
        request_id: u64,
        service: Duration,
    ) -> Option<RetainReason> {
        match &self.context {
            Some(c) if c.sampled && self.upstream => Some(RetainReason::Context),
            Some(c) if c.sampled => policy.retain(request_id, service),
            _ => None,
        }
    }
}

/// One retained request trace.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The recording process when it must be named in a merged response
    /// (`"preinfer-router"`); `None` for a daemon, whose parts the router
    /// tags with a `shard` index instead.
    pub process: Option<&'static str>,
    pub request_id: u64,
    /// The distributed trace id this request recorded under, when it ran
    /// inside a cross-process trace (or minted one itself).
    pub trace_id: Option<String>,
    /// Entry function of the request (empty when it failed to compile).
    pub func: String,
    pub reason: RetainReason,
    /// Queue wait (admission → dequeue), µs.
    pub queue_us: u64,
    /// Service time (dequeue → completion), µs.
    pub service_us: u64,
    /// The recorded JSON-lines events, in `seq` order.
    pub lines: Vec<String>,
}

impl StoredTrace {
    /// One element of the `trace` verb's `traces` array.
    pub fn render(&self) -> String {
        let b = match self.process {
            Some(p) => ObjBuilder::new().str("process", p),
            None => ObjBuilder::new(),
        };
        b.u64("request_id", self.request_id)
            .opt_str("trace_id", self.trace_id.as_deref())
            .str("func", &self.func)
            .str("reason", self.reason.label())
            .u64("queue_us", self.queue_us)
            .u64("service_us", self.service_us)
            .arr("events", self.lines.clone())
            .build()
    }
}

/// A bounded ring of completed traces: pushing beyond capacity evicts the
/// oldest. All methods take `&self` (internal mutex); clones out on read
/// so the lock is never held while rendering a response.
#[derive(Debug)]
pub struct TraceRing {
    entries: Mutex<VecDeque<StoredTrace>>,
    capacity: usize,
    retained_head: AtomicU64,
    retained_slow: AtomicU64,
    retained_context: AtomicU64,
    evicted: AtomicU64,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            retained_head: AtomicU64::new(0),
            retained_slow: AtomicU64::new(0),
            retained_context: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retains one completed trace, evicting the oldest when full.
    pub fn push(&self, trace: StoredTrace) {
        match trace.reason {
            RetainReason::Head => &self.retained_head,
            RetainReason::Slow => &self.retained_slow,
            RetainReason::Context => &self.retained_context,
        }
        .fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("trace ring");
        while entries.len() >= self.capacity {
            entries.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        entries.push_back(trace);
    }

    /// The traces a `trace` verb selection names, newest first: the `k`
    /// most recent, or the newest one of a request id or trace id.
    pub fn select(&self, select: &TraceSelect) -> Vec<StoredTrace> {
        let entries = self.entries.lock().expect("trace ring");
        let newest = entries.iter().rev();
        let picked: Vec<&StoredTrace> = match select {
            TraceSelect::Last(k) => {
                newest.take(usize::try_from(*k).unwrap_or(usize::MAX)).collect()
            }
            TraceSelect::ById(rid) => newest.filter(|t| t.request_id == *rid).take(1).collect(),
            TraceSelect::ByTraceId(tid) => {
                newest.filter(|t| t.trace_id.as_deref() == Some(tid)).take(1).collect()
            }
        };
        picked.into_iter().cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("trace ring").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declares the ring's served values, under `stats` key `traces`:
    /// traces buffered now, lifetime retentions by reason, and evictions.
    pub(crate) fn declare(self: &Arc<Self>, reg: &MetricsRegistry) {
        type Select = fn(&TraceRing) -> &AtomicU64;
        let reasons: [(&str, Select); 3] = [
            ("head", |r| &r.retained_head),
            ("slow", |r| &r.retained_slow),
            ("context", |r| &r.retained_context),
        ];
        for (reason, sel) in reasons {
            let r = Arc::clone(self);
            reg.add(
                Entry::counter(move || sel(&r).load(Ordering::Relaxed))
                    .series(
                        "preinfer_traces_retained_total",
                        "Per-request traces retained, by reason.",
                        &[("reason", reason)],
                    )
                    .stats(format!("traces.retained_{reason}")),
            );
        }
        reg.add(
            Entry::counter(reader(self, |r| r.evicted.load(Ordering::Relaxed)))
                .series("preinfer_traces_evicted_total", "Traces evicted from the ring.", &[])
                .stats("traces.evicted"),
        );
        reg.add(
            Entry::gauge(reader(self, |r| r.len() as u64))
                .series("preinfer_trace_buffer_entries", "Traces currently retained.", &[])
                .stats("traces.buffered"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(id: u64, reason: RetainReason) -> StoredTrace {
        StoredTrace {
            process: None,
            request_id: id,
            trace_id: Some(format!("{id:032x}")),
            func: "f".to_string(),
            reason,
            queue_us: 1,
            service_us: 2,
            lines: vec![format!("{{\"ev\":\"run\",\"request_id\":{id}}}")],
        }
    }

    /// `(head-sampled, slow-captured, context-sampled, evicted)` lifetime
    /// counters.
    fn counters(ring: &TraceRing) -> (u64, u64, u64, u64) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        (
            load(&ring.retained_head),
            load(&ring.retained_slow),
            load(&ring.retained_context),
            load(&ring.evicted),
        )
    }

    #[test]
    fn head_sampling_is_a_pure_function_of_the_id() {
        let p = SamplingPolicy { sample: 4, slow_threshold: None };
        let sampled: Vec<u64> = (1..=12).filter(|&id| p.head_sampled(id)).collect();
        assert_eq!(sampled, vec![1, 5, 9]);
        assert!(p.record(1) && !p.record(2), "only sampled ids record without a slow threshold");
        let off = SamplingPolicy::default();
        assert!(!off.enabled());
        assert!((1..=100).all(|id| !off.record(id)));
    }

    #[test]
    fn slow_threshold_records_everything_but_retains_only_slow() {
        let p = SamplingPolicy { sample: 0, slow_threshold: Some(Duration::from_millis(10)) };
        assert!(p.enabled());
        assert!((1..=5).all(|id| p.record(id)), "tail capture must record speculatively");
        assert_eq!(p.retain(3, Duration::from_millis(5)), None);
        assert_eq!(p.retain(3, Duration::from_millis(11)), Some(RetainReason::Slow));
        // Head sampling wins the label when both apply.
        let both = SamplingPolicy { sample: 2, slow_threshold: Some(Duration::ZERO) };
        assert_eq!(both.retain(1, Duration::from_millis(9)), Some(RetainReason::Head));
        assert_eq!(both.retain(2, Duration::from_millis(9)), Some(RetainReason::Slow));
    }

    #[test]
    fn one_tier_decides_an_incoming_context_verbatim_and_the_policy_otherwise() {
        let p = SamplingPolicy::new(2, None);
        let ms = Duration::from_millis(1);
        let ctx = |sampled| TraceContext {
            trace_id: format!("{:032x}", 7),
            parent_span_id: Some(3),
            sampled,
        };
        // An upstream context is obeyed whatever the local policy says.
        for id in [1, 2] {
            let d = p.decide(id, Some(ctx(true)), true);
            assert_eq!(d, TraceDecision { context: Some(ctx(true)), upstream: true });
            assert!(d.recording_sink("preinferd").is_some());
            assert_eq!(d.retain(&p, id, ms), Some(RetainReason::Context));
            let d = p.decide(id, Some(ctx(false)), true);
            assert_eq!(d, TraceDecision { context: Some(ctx(false)), upstream: true });
            assert!(d.recording_sink("preinferd").is_none());
            assert_eq!(d.retain(&p, id, ms), None);
        }
        // Without one the policy decides, minting an id for what it records.
        let head = p.decide(1, None, false);
        let minted = head.context.as_ref().expect("a recorded request gets a context");
        assert!(minted.sampled && minted.parent_span_id.is_none() && minted.trace_id.len() == 32);
        assert_eq!(head.retain(&p, 1, ms), Some(RetainReason::Head));
        // A declined request stays dark; a tier with tiers below tells
        // them so, but only while its policy is on.
        assert_eq!(p.decide(2, None, false), TraceDecision { context: None, upstream: false });
        let declined = p.decide(2, None, true);
        assert_eq!(declined.context.as_ref().map(|c| c.sampled), Some(false));
        assert!(declined.recording_sink("preinfer-router").is_none());
        assert_eq!(declined.retain(&p, 2, ms), None);
        let off = SamplingPolicy::default().decide(1, None, true);
        assert_eq!(off, TraceDecision { context: None, upstream: false });
    }

    #[test]
    fn ring_evicts_oldest_and_serves_newest_first() {
        let ring = TraceRing::new(2);
        ring.push(stored(1, RetainReason::Head));
        ring.push(stored(2, RetainReason::Head));
        ring.push(stored(3, RetainReason::Slow));
        assert_eq!(ring.len(), 2);
        let last = ring.select(&TraceSelect::Last(10));
        assert_eq!(last.iter().map(|t| t.request_id).collect::<Vec<_>>(), vec![3, 2]);
        assert!(ring.select(&TraceSelect::ById(1)).is_empty(), "oldest entry was evicted");
        assert_eq!(ring.select(&TraceSelect::ById(3))[0].reason, RetainReason::Slow);
        assert_eq!(counters(&ring), (2, 1, 0, 1));
    }

    #[test]
    fn ring_serves_by_trace_id_and_counts_context_retention() {
        let ring = TraceRing::new(4);
        ring.push(stored(1, RetainReason::Context));
        ring.push(stored(2, RetainReason::Context));
        let found = ring.select(&TraceSelect::ByTraceId(format!("{:032x}", 2)));
        assert_eq!(found.iter().map(|t| t.request_id).collect::<Vec<_>>(), vec![2]);
        let missing = TraceSelect::ByTraceId("ffffffffffffffffffffffffffffffff".to_string());
        assert!(ring.select(&missing).is_empty());
        assert_eq!(counters(&ring), (0, 0, 2, 0));
        assert_eq!(RetainReason::Context.label(), "context");
    }

    #[test]
    fn minted_trace_ids_are_well_formed_and_distinct() {
        let a = mint_trace_id(1);
        let b = mint_trace_id(2);
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, b, "consecutive mints must differ");
        assert_ne!(mint_trace_id(1), a, "same seq mints differ across calls (clock moved)");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = TraceRing::new(0);
        ring.push(stored(1, RetainReason::Head));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.len(), 1);
    }
}
