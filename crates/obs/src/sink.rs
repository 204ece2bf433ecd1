//! Structured spans and events for the PreInfer pipeline.
//!
//! A [`TraceSink`] comes in two modes:
//!
//! * **aggregate** ([`TraceSink::aggregate`]) — per-[`Stage`] latency
//!   [`Histogram`]s only. Recording a span is a few relaxed atomic adds;
//!   no line is ever allocated. This is what `report::evaluate_method` and
//!   `preinferd` run with.
//! * **recording** ([`TraceSink::recording`]) — additionally buffers one
//!   JSON-lines event per span start/end, solver call, and pipeline
//!   decision, for `preinfer --trace-out FILE`.
//!
//! Pipeline code holds an `Option<Arc<TraceSink>>`; the helpers
//! [`maybe_span`] and [`recording_sink`] keep the disabled path free of
//! clock reads, allocation and locking, and the recording-only event
//! plumbing (which renders predicates to strings) free even in aggregate
//! mode. The trace-neutrality differential tests assert the stronger
//! end-to-end property: inferred ψ is byte-identical with tracing on or
//! off.
//!
//! Span nesting is tracked per thread: a span started while another is
//! open on the same thread records that span as its parent. Stage
//! histograms therefore attribute *inclusive* time (a `prune` span's
//! duration contains its nested `solver` calls); the JSON-lines output
//! carries the parent links needed to subtract.

use crate::histogram::{Histogram, LatencySummary};
use crate::json;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::iter;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The pipeline stages the sink attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Pex-like branch-flipping test generation.
    TestGen,
    /// Per-ACL suite partition into passing/failing runs.
    Partition,
    /// Per-failing-path dynamic predicate pruning.
    Prune,
    /// Collection-element template generalization.
    Generalize,
    /// ψ assembly (dedup, subsumption, negation).
    Assemble,
    /// §III-A passing-guard checks (pruning and template validation).
    PassingGuard,
    /// Individual solver calls (always nested in another stage).
    Solver,
}

const STAGES: usize = 7;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGES] = [
        Stage::TestGen,
        Stage::Partition,
        Stage::Prune,
        Stage::Generalize,
        Stage::Assemble,
        Stage::PassingGuard,
        Stage::Solver,
    ];

    /// The stable snake_case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::TestGen => "testgen",
            Stage::Partition => "partition",
            Stage::Prune => "prune",
            Stage::Generalize => "generalize",
            Stage::Assemble => "assemble",
            Stage::PassingGuard => "passing_guard",
            Stage::Solver => "solver",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One event field value. Strings are borrowed so callers only build them
/// inside a [`recording_sink`] guard.
#[derive(Debug, Clone, Copy)]
pub enum Val<'a> {
    /// Unsigned integer.
    U(u64),
    /// String (JSON-escaped on render).
    S(&'a str),
    /// Boolean.
    B(bool),
    /// JSON `null`.
    Null,
}

impl Val<'_> {
    /// `U(v)`, or `Null` for `None`.
    fn opt(v: Option<u64>) -> Val<'static> {
        v.map_or(Val::Null, Val::U)
    }
}

/// A duration in whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// A sink for pipeline spans and events. See the module docs for the two
/// modes; share it as an `Arc` (configs hold `Option<Arc<TraceSink>>`).
///
/// A recording sink can additionally be *joined to a distributed trace*
/// ([`TraceSink::recording_in_trace`]): its first buffered line is then a
/// `trace_meta` event carrying the 128-bit `trace_id`, a `process` label,
/// and (when another process minted the context) the parent span id this
/// process's root spans hang under. Span ids stay process-local — every
/// process numbers its spans from 1 — and every recorded line carries a
/// `t_us` timestamp relative to the sink's creation, so merging traces
/// from different machines needs no clock agreement at all: the analyzer
/// namespaces ids per process and aligns times per process.
#[derive(Debug)]
pub struct TraceSink {
    record: bool,
    stages: [Histogram; STAGES],
    next_span: std::sync::atomic::AtomicU64,
    lines: Mutex<Vec<String>>,
    /// Creation instant; recorded lines carry `t_us` relative to it.
    epoch: Instant,
    /// The distributed trace this per-request sink belongs to, if any.
    trace_id: Mutex<Option<String>>,
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl TraceSink {
    /// An aggregate-only sink: per-stage histograms, no event lines.
    pub fn aggregate() -> TraceSink {
        TraceSink {
            record: false,
            stages: std::array::from_fn(|_| Histogram::new()),
            next_span: std::sync::atomic::AtomicU64::new(0),
            lines: Mutex::new(Vec::new()),
            epoch: Instant::now(),
            trace_id: Mutex::new(None),
        }
    }

    /// A recording sink: histograms plus buffered JSON-lines events.
    pub fn recording() -> TraceSink {
        TraceSink { record: true, ..TraceSink::aggregate() }
    }

    /// A recording sink joined to the distributed trace `trace_id`: the
    /// first buffered line is a `trace_meta` event naming this `process`
    /// and, when a remote tier minted the context, the `parent_span` id
    /// (in the *minting* process's numbering) this process's root spans
    /// belong under.
    pub fn recording_in_trace(
        process: &str,
        trace_id: &str,
        parent_span: Option<u64>,
    ) -> TraceSink {
        let sink = TraceSink::recording();
        *sink.trace_id.lock().expect("sink trace id") = Some(trace_id.to_string());
        sink.push_line(
            "trace_meta",
            [
                ("trace_id", Val::S(trace_id)),
                ("process", Val::S(process)),
                ("parent_span", Val::opt(parent_span)),
            ],
        );
        sink
    }

    /// The distributed trace id this sink records under, if it was created
    /// with [`TraceSink::recording_in_trace`].
    pub fn trace_id(&self) -> Option<String> {
        self.trace_id.lock().expect("sink trace id").clone()
    }

    /// Whether this sink buffers JSON-lines events. Callers must check
    /// this (via [`recording_sink`]) before building event field strings,
    /// so aggregate mode never pays for rendering.
    pub fn is_recording(&self) -> bool {
        self.record
    }

    /// Opens a span for `stage`; the returned guard records the duration
    /// into the stage histogram (and emits `span_start`/`span_end` events
    /// when recording) on drop.
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        let id = self.next_span.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        self.span_start(id, parent, stage.label());
        SpanGuard { sink: self, stage, id, start: Instant::now() }
    }

    /// Opens a span with a free-form stage label and an explicit parent,
    /// bypassing the thread-local nesting stack — for event-driven callers
    /// (the router's epoll loop) whose spans outlive one call frame and
    /// interleave across many requests on a single thread, where implicit
    /// innermost-open nesting would attribute parents wrongly. Returns the
    /// span id; close it with [`TraceSink::end_span`]. Ids come from the
    /// same sink-wide counter as scoped spans, so the two kinds never
    /// collide in one trace.
    pub fn begin_span(&self, stage: &str, parent: Option<u64>) -> u64 {
        let id = self.next_span.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        self.span_start(id, parent, stage);
        id
    }

    /// Closes a span opened with [`TraceSink::begin_span`], recording its
    /// inclusive duration. Stage histograms are untouched — the label is
    /// free-form, not a pipeline [`Stage`] — so event-driven callers keep
    /// their own latency metrics.
    pub fn end_span(&self, id: u64, stage: &str, dur: Duration) {
        if self.record {
            self.push_line(
                "span_end",
                [("id", Val::U(id)), ("stage", Val::S(stage)), ("dur_us", Val::U(micros(dur)))],
            );
        }
    }

    /// The `span_start` line of span `id` (recording mode only).
    fn span_start(&self, id: u64, parent: Option<u64>, stage: &str) {
        if self.record {
            self.push_line(
                "span_start",
                [("id", Val::U(id)), ("parent", Val::opt(parent)), ("stage", Val::S(stage))],
            );
        }
    }

    /// Records one recording-mode event. A no-op in aggregate mode (but
    /// prefer guarding with [`recording_sink`] so field strings are not
    /// even built). The event is stamped with the innermost open span on
    /// this thread, if any.
    pub fn event(&self, ev: &str, fields: &[(&str, Val<'_>)]) {
        if self.record {
            self.push_event(ev, fields.iter().copied());
        }
    }

    /// Records one solver call: duration into the solver-stage histogram,
    /// plus (when recording) a `solver_call` event carrying the predicate
    /// count, verdict, cache-lookup and answering-tier labels. `tier` is
    /// `"none"` for calls that never reached a backend (expired deadline).
    /// A call answered through an incremental (warm prefix-sharing) solver
    /// session passes `reused_depth`, the number of stacked predicates the
    /// session reused from its previous query; the event then carries it
    /// as `reused_depth`.
    pub fn solver_call(
        &self,
        preds: usize,
        verdict: &'static str,
        lookup: &'static str,
        tier: &'static str,
        reused_depth: Option<u64>,
        dur: Duration,
    ) {
        self.stages[Stage::Solver.index()].record(dur);
        if self.record {
            let labels = [
                ("preds", Val::U(preds as u64)),
                ("verdict", Val::S(verdict)),
                ("lookup", Val::S(lookup)),
                ("tier", Val::S(tier)),
            ];
            let reused = reused_depth.map(|d| ("reused_depth", Val::U(d)));
            let fields = labels.into_iter().chain(reused).chain([("dur_us", Val::U(micros(dur)))]);
            self.push_event("solver_call", fields);
        }
    }

    /// The latency histogram for one stage.
    pub fn stage_histogram(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Folds `other`'s per-stage histograms into this sink's (bucket-wise
    /// merge; `other`'s buffered lines are untouched). `preinferd` uses
    /// this so a request traced with its own recording sink still
    /// contributes to the daemon-lifetime aggregate histograms.
    pub fn absorb(&self, other: &TraceSink) {
        for stage in Stage::ALL {
            self.stages[stage.index()].merge_from(&other.stages[stage.index()]);
        }
    }

    /// The latency summary of one stage.
    pub fn snapshot(&self, stage: Stage) -> LatencySummary {
        self.stages[stage.index()].snapshot().summary()
    }

    /// Summaries for every stage, in pipeline order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, LatencySummary)> + '_ {
        Stage::ALL.iter().map(|&s| (s, self.snapshot(s)))
    }

    /// A copy of the buffered JSON-lines events (empty in aggregate mode).
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace lines").clone()
    }

    /// Writes the buffered events as JSON lines.
    pub fn write_jsonl(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        for line in self.lines.lock().expect("trace lines").iter() {
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Appends event `ev` stamped with the innermost open span on this
    /// thread (`"span"`, `null` outside any span), then `fields`.
    fn push_event<'v>(&self, ev: &str, fields: impl IntoIterator<Item = (&'v str, Val<'v>)>) {
        let span = SPAN_STACK.with(|s| s.borrow().last().copied());
        self.push_line(ev, iter::once(("span", Val::opt(span))).chain(fields));
    }

    /// The one writer of trace lines: appends
    /// `{"ev":EV,"seq":N,"t_us":T,FIELDS…}`. `seq` is the line's position,
    /// assigned under the buffer lock so it is strictly increasing in
    /// output order even when several worker threads record concurrently.
    /// `t_us` is the offset from this sink's creation — a per-process
    /// relative clock, so traces recorded on different machines merge
    /// without clock agreement.
    fn push_line<'v>(&self, ev: &str, fields: impl IntoIterator<Item = (&'v str, Val<'v>)>) {
        let mut body = String::with_capacity(64);
        for (name, val) in fields {
            body.push(',');
            json::escape_into(&mut body, name);
            body.push(':');
            match val {
                Val::U(v) => {
                    let _ = write!(body, "{v}");
                }
                Val::B(v) => body.push_str(if v { "true" } else { "false" }),
                Val::S(v) => json::escape_into(&mut body, v),
                Val::Null => body.push_str("null"),
            }
        }
        let t_us = micros(self.epoch.elapsed());
        let mut lines = self.lines.lock().expect("trace lines");
        let seq = lines.len();
        let mut line = String::with_capacity(body.len() + ev.len() + 40);
        line.push_str("{\"ev\":");
        json::escape_into(&mut line, ev);
        let _ = write!(line, ",\"seq\":{seq},\"t_us\":{t_us}");
        line.push_str(&body);
        line.push('}');
        lines.push(line);
    }
}

/// A RAII span handle from [`TraceSink::span`]; dropping it closes the
/// span and records the elapsed time against the stage.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    stage: Stage,
    id: u64,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards are scoped, so the innermost entry is ours; tolerate
            // out-of-order drops (e.g. via std::mem::drop) defensively.
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        self.sink.stages[self.stage.index()].record(dur);
        self.sink.end_span(self.id, self.stage.label(), dur);
    }
}

/// Opens a span when a sink is present; the `None` path costs nothing
/// (no clock read, no allocation, no locking).
pub fn maybe_span<'a>(sink: &'a Option<Arc<TraceSink>>, stage: Stage) -> Option<SpanGuard<'a>> {
    sink.as_ref().map(|s| s.span(stage))
}

/// The sink, only when present *and* recording — the guard callers use
/// before building event field strings, so neither the disabled path nor
/// aggregate mode pays for rendering.
pub fn recording_sink(sink: &Option<Arc<TraceSink>>) -> Option<&TraceSink> {
    match sink {
        Some(s) if s.is_recording() => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_mode_buffers_no_lines() {
        let sink = TraceSink::aggregate();
        {
            let _s = sink.span(Stage::Prune);
            sink.event("prune_decision", &[("decision", Val::S("removed"))]);
            sink.solver_call(3, "unsat", "miss", "syntactic", None, Duration::from_micros(5));
        }
        assert!(sink.lines().is_empty(), "aggregate mode must not buffer events");
        assert_eq!(sink.snapshot(Stage::Prune).count, 1);
        assert_eq!(sink.snapshot(Stage::Solver).count, 1);
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let sink = TraceSink::recording();
        {
            let _outer = sink.span(Stage::Prune);
            {
                let _inner = sink.span(Stage::PassingGuard);
                sink.event("probe", &[("n", Val::U(1))]);
            }
            let _sibling = sink.span(Stage::PassingGuard);
        }
        let lines = sink.lines();
        // span_start(1,parent=null), span_start(2,parent=1), event(span=2),
        // span_end(2), span_start(3,parent=1), span_end(3), span_end(1).
        assert_eq!(lines.len(), 7, "{lines:#?}");
        assert!(lines[0].contains("\"ev\":\"span_start\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":1"), "{}", lines[1]);
        assert!(lines[2].contains("\"ev\":\"probe\"") && lines[2].contains("\"span\":2"));
        assert!(lines[3].contains("\"ev\":\"span_end\"") && lines[3].contains("\"id\":2"));
        assert!(lines[4].contains("\"parent\":1"), "nesting must pop on drop: {}", lines[4]);
        assert!(lines[6].contains("\"id\":1"));
        // Sequence numbers match buffer order.
        for (i, l) in lines.iter().enumerate() {
            assert!(l.contains(&format!("\"seq\":{i},")), "{l}");
        }
    }

    #[test]
    fn stage_time_lands_in_the_right_histogram() {
        let sink = TraceSink::aggregate();
        {
            let _s = sink.span(Stage::TestGen);
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = sink.snapshot(Stage::TestGen);
        assert_eq!(snap.count, 1);
        assert!(snap.total_us >= 2_000, "slept 2ms, recorded {} µs", snap.total_us);
        assert_eq!(sink.snapshot(Stage::Generalize), LatencySummary::default());
    }

    #[test]
    fn event_strings_are_json_escaped() {
        let sink = TraceSink::recording();
        sink.event("note", &[("pred", Val::S("s[\"x\"] != null\\path\n"))]);
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains(r#""pred":"s[\"x\"] != null\\path\n""#),
            "escaping failed: {}",
            lines[0]
        );
    }

    #[test]
    fn absorb_folds_stage_histograms_not_lines() {
        let agg = TraceSink::aggregate();
        let per_request = TraceSink::recording();
        {
            let _s = per_request.span(Stage::Prune);
            per_request.solver_call(2, "sat", "miss", "interval", None, Duration::from_micros(9));
        }
        agg.absorb(&per_request);
        assert_eq!(agg.snapshot(Stage::Prune).count, 1);
        assert_eq!(agg.snapshot(Stage::Solver).count, 1);
        assert!(agg.lines().is_empty(), "absorb must not copy event lines");
    }

    #[test]
    fn recording_in_trace_stamps_a_meta_line_and_relative_times() {
        let sink =
            TraceSink::recording_in_trace("shard", "0123456789abcdef0123456789abcdef", Some(7));
        assert_eq!(sink.trace_id().as_deref(), Some("0123456789abcdef0123456789abcdef"));
        {
            let _s = sink.span(Stage::Prune);
        }
        let lines = sink.lines();
        assert!(lines[0].contains("\"ev\":\"trace_meta\""), "{}", lines[0]);
        assert!(lines[0].contains("\"trace_id\":\"0123456789abcdef0123456789abcdef\""));
        assert!(lines[0].contains("\"process\":\"shard\""));
        assert!(lines[0].contains("\"parent_span\":7"));
        // Every line carries a per-process relative timestamp.
        for l in &lines {
            assert!(l.contains("\"t_us\":"), "{l}");
        }
        // A plain recording sink has no meta line and no trace id.
        let plain = TraceSink::recording();
        assert!(plain.trace_id().is_none());
        plain.event("x", &[]);
        assert!(!plain.lines()[0].contains("trace_meta"));
    }

    #[test]
    fn flat_spans_carry_explicit_parents_and_skip_the_stack() {
        let sink = TraceSink::recording();
        let root = sink.begin_span("route", None);
        let rtt = sink.begin_span("upstream_rtt", Some(root));
        {
            // A scoped span on the same thread must not adopt the flat
            // spans as parents: the flat API bypasses the stack entirely.
            let _scoped = sink.span(Stage::Solver);
        }
        sink.end_span(rtt, "upstream_rtt", Duration::from_micros(70));
        sink.end_span(root, "route", Duration::from_micros(100));
        let lines = sink.lines();
        assert!(lines[0].contains("\"stage\":\"route\"") && lines[0].contains("\"parent\":null"));
        assert!(
            lines[1].contains("\"stage\":\"upstream_rtt\"")
                && lines[1].contains(&format!("\"parent\":{root}")),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"parent\":null"),
            "scoped span saw a clean stack: {}",
            lines[2]
        );
        assert!(lines[4].contains("\"ev\":\"span_end\"") && lines[4].contains("\"dur_us\":70"));
        // Ids are distinct across the two span kinds.
        assert_ne!(root, rtt);
        let agg = TraceSink::aggregate();
        let id = agg.begin_span("route", None);
        agg.end_span(id, "route", Duration::from_micros(1));
        assert!(agg.lines().is_empty(), "aggregate mode still buffers nothing");
    }

    /// `line` with the digits after every `"t_us":` and `"dur_us":`
    /// replaced by `_`: the clock-dependent part of a recorded line.
    fn mask_times(line: &str) -> String {
        let mut out = String::with_capacity(line.len());
        let mut rest = line;
        while let Some(at) = ["\"t_us\":", "\"dur_us\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|i| i + key.len()))
            .min()
        {
            out.push_str(&rest[..at]);
            out.push('_');
            rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn recorded_lines_match_the_format_exactly() {
        let sink =
            TraceSink::recording_in_trace("shard", "0123456789abcdef0123456789abcdef", Some(7));
        {
            let _outer = sink.span(Stage::Prune);
            let _inner = sink.span(Stage::PassingGuard);
            sink.event("note", &[("pred", Val::S("s[\"x\"]\\n\n")), ("n", Val::U(3))]);
            sink.solver_call(2, "sat", "miss", "interval", None, Duration::from_micros(9));
            sink.solver_call(4, "unsat", "hit", "simplex", Some(3), Duration::from_micros(11));
        }
        let root = sink.begin_span("route", None);
        let rtt = sink.begin_span("upstream_rtt", Some(root));
        sink.event("flag", &[("ok", Val::B(true))]);
        sink.end_span(rtt, "upstream_rtt", Duration::from_micros(70));
        sink.end_span(root, "route", Duration::from_micros(100));
        let expected = [
            r#"{"ev":"trace_meta","seq":0,"t_us":_,"trace_id":"0123456789abcdef0123456789abcdef","process":"shard","parent_span":7}"#,
            r#"{"ev":"span_start","seq":1,"t_us":_,"id":1,"parent":null,"stage":"prune"}"#,
            r#"{"ev":"span_start","seq":2,"t_us":_,"id":2,"parent":1,"stage":"passing_guard"}"#,
            r#"{"ev":"note","seq":3,"t_us":_,"span":2,"pred":"s[\"x\"]\\n\n","n":3}"#,
            r#"{"ev":"solver_call","seq":4,"t_us":_,"span":2,"preds":2,"verdict":"sat","lookup":"miss","tier":"interval","dur_us":_}"#,
            r#"{"ev":"solver_call","seq":5,"t_us":_,"span":2,"preds":4,"verdict":"unsat","lookup":"hit","tier":"simplex","reused_depth":3,"dur_us":_}"#,
            r#"{"ev":"span_end","seq":6,"t_us":_,"id":2,"stage":"passing_guard","dur_us":_}"#,
            r#"{"ev":"span_end","seq":7,"t_us":_,"id":1,"stage":"prune","dur_us":_}"#,
            r#"{"ev":"span_start","seq":8,"t_us":_,"id":3,"parent":null,"stage":"route"}"#,
            r#"{"ev":"span_start","seq":9,"t_us":_,"id":4,"parent":3,"stage":"upstream_rtt"}"#,
            r#"{"ev":"flag","seq":10,"t_us":_,"span":null,"ok":true}"#,
            r#"{"ev":"span_end","seq":11,"t_us":_,"id":4,"stage":"upstream_rtt","dur_us":_}"#,
            r#"{"ev":"span_end","seq":12,"t_us":_,"id":3,"stage":"route","dur_us":_}"#,
        ];
        let lines: Vec<String> = sink.lines().iter().map(|l| mask_times(l)).collect();
        assert_eq!(lines, expected);
        let root_meta = TraceSink::recording_in_trace("router", "ab", None);
        assert_eq!(
            mask_times(&root_meta.lines()[0]),
            r#"{"ev":"trace_meta","seq":0,"t_us":_,"trace_id":"ab","process":"router","parent_span":null}"#
        );
    }

    #[test]
    fn maybe_span_and_recording_sink_are_none_when_disabled() {
        let none: Option<Arc<TraceSink>> = None;
        assert!(maybe_span(&none, Stage::Solver).is_none());
        assert!(recording_sink(&none).is_none());
        let agg = Some(Arc::new(TraceSink::aggregate()));
        assert!(maybe_span(&agg, Stage::Solver).is_some());
        assert!(recording_sink(&agg).is_none(), "aggregate sinks must not trigger rendering");
        let rec = Some(Arc::new(TraceSink::recording()));
        assert!(recording_sink(&rec).is_some());
    }
}
