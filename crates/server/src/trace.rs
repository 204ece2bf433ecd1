//! Per-request trace sampling and retention.
//!
//! The daemon assigns every admitted `infer` request a monotonic id and
//! decides — deterministically, from that id alone — whether the request
//! runs with its own recording `TraceSink`:
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
//! Retained traces go into a bounded ring ([`TraceRing`]) that evicts the
//! oldest entry on overflow, and are served by the `trace` verb
//! (`{last: K}` / `{request_id: N}`, PROTOCOL.md). Recording is
//! observation-only: the trace-neutrality differential proves served ψ
//! byte-identical with sampling on or off.

use crate::json::ObjBuilder;
use crate::protocol::TraceSelect;
use obs::MetricsRegistry;
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

    /// The `k` most recent traces, newest first.
    pub fn last(&self, k: usize) -> Vec<StoredTrace> {
        let entries = self.entries.lock().expect("trace ring");
        entries.iter().rev().take(k).cloned().collect()
    }

    /// The trace of one request, if still retained.
    pub fn by_request_id(&self, request_id: u64) -> Option<StoredTrace> {
        let entries = self.entries.lock().expect("trace ring");
        entries.iter().rev().find(|t| t.request_id == request_id).cloned()
    }

    /// The trace recorded under one distributed trace id, if retained.
    pub fn by_trace_id(&self, trace_id: &str) -> Option<StoredTrace> {
        let entries = self.entries.lock().expect("trace ring");
        entries.iter().rev().find(|t| t.trace_id.as_deref() == Some(trace_id)).cloned()
    }

    /// The traces a `trace` verb selection names, newest first.
    pub fn select(&self, select: &TraceSelect) -> Vec<StoredTrace> {
        match select {
            TraceSelect::Last(k) => self.last(usize::try_from(*k).unwrap_or(usize::MAX)),
            TraceSelect::ById(rid) => self.by_request_id(*rid).into_iter().collect(),
            TraceSelect::ByTraceId(tid) => self.by_trace_id(tid).into_iter().collect(),
        }
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("trace ring").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(head-sampled, slow-captured, context-sampled, evicted)` lifetime
    /// counters.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.retained_head.load(Ordering::Relaxed),
            self.retained_slow.load(Ordering::Relaxed),
            self.retained_context.load(Ordering::Relaxed),
            self.evicted.load(Ordering::Relaxed),
        )
    }

    /// Registers the retention and eviction series.
    pub(crate) fn register(self: &Arc<Self>, reg: &MetricsRegistry) {
        type Select = fn(&TraceRing) -> &AtomicU64;
        let reasons: [(&str, Select); 3] = [
            ("head", |r| &r.retained_head),
            ("slow", |r| &r.retained_slow),
            ("context", |r| &r.retained_context),
        ];
        for (reason, sel) in reasons {
            let r = Arc::clone(self);
            reg.counter(
                "preinfer_traces_retained_total",
                "Per-request traces retained, by reason.",
                &[("reason", reason)],
                move || sel(&r).load(Ordering::Relaxed),
            );
        }
        let r = Arc::clone(self);
        reg.counter(
            "preinfer_traces_evicted_total",
            "Traces evicted from the ring.",
            &[],
            move || r.evicted.load(Ordering::Relaxed),
        );
        let r = Arc::clone(self);
        reg.gauge("preinfer_trace_buffer_entries", "Traces currently retained.", &[], move || {
            r.len() as f64
        });
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
    fn ring_evicts_oldest_and_serves_newest_first() {
        let ring = TraceRing::new(2);
        ring.push(stored(1, RetainReason::Head));
        ring.push(stored(2, RetainReason::Head));
        ring.push(stored(3, RetainReason::Slow));
        assert_eq!(ring.len(), 2);
        let last = ring.last(10);
        assert_eq!(last.iter().map(|t| t.request_id).collect::<Vec<_>>(), vec![3, 2]);
        assert!(ring.by_request_id(1).is_none(), "oldest entry was evicted");
        assert_eq!(ring.by_request_id(3).unwrap().reason, RetainReason::Slow);
        assert_eq!(ring.counters(), (2, 1, 0, 1));
    }

    #[test]
    fn ring_serves_by_trace_id_and_counts_context_retention() {
        let ring = TraceRing::new(4);
        ring.push(stored(1, RetainReason::Context));
        ring.push(stored(2, RetainReason::Context));
        let found = ring.by_trace_id(&format!("{:032x}", 2)).expect("trace retained");
        assert_eq!(found.request_id, 2);
        assert!(ring.by_trace_id("ffffffffffffffffffffffffffffffff").is_none());
        assert_eq!(ring.counters(), (0, 0, 2, 0));
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
