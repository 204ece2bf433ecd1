//! Offline analysis of a recorded JSON-lines trace.
//!
//! [`TraceSink`](crate::TraceSink) histograms attribute *inclusive* time —
//! a `prune` span's duration contains every nested `solver` call — so any
//! question of the form "where did the time actually go" needs the span
//! tree back. This module reconstructs it from the `span_start` /
//! `span_end` parent links, attributes `solver_call` events to the span
//! they fired in, and derives:
//!
//! * per-stage **exclusive self-time** (a span's duration minus its direct
//!   children and its own solver calls),
//! * the **critical path** (the heaviest root span, descending into the
//!   heaviest child at each level),
//! * the **top-k slowest solver calls** with their tier / cache-lookup /
//!   predicate-count fields, and
//! * **folded stacks** (`stage;stage;stage exclusive_us`) consumable by
//!   standard flamegraph tooling.
//!
//! The trace format is the JSON-object-per-line stream the sink itself
//! writes, read with the workspace's one JSON parser ([`crate::json`]);
//! the analysis is shared by `preinfer --trace-out`'s stage breakdown and
//! the `preinfer-trace` binary.
//!
//! ## Multi-process merges
//!
//! A stitched distributed trace (the router's `trace --trace-id X` verb)
//! concatenates the line streams of several processes, each headed by its
//! own `trace_meta` line. Span ids are process-local (every sink numbers
//! from 1), so [`TraceAnalysis::from_lines`] splits the input into
//! sections at `trace_meta` boundaries and offsets each section's ids by
//! a per-section base before inserting them into one tree. The first
//! populated section is the *primary* (the tier that minted the trace —
//! the router in a routed topology); every later section's `trace_meta`
//! names its parent span **in the primary's numbering** (the propagated
//! `parent_span_id`), and the section is grafted there: its `run` summary
//! becomes a synthesized `run` span holding the section's roots, so a
//! shard's service time appears as one node under the router's
//! `upstream_rtt`. A named parent that never arrived degrades to extra
//! roots (orphan sections are tolerated, not an error), duplicate span
//! ids across shards cannot alias (namespacing is positional), and no
//! arithmetic ever mixes `t_us` timestamps from different sections —
//! they are process-relative, so cross-host clock skew is moot.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub stage: String,
    /// Inclusive duration from `span_end`; 0 for spans never closed.
    pub dur_us: u64,
    /// Direct child span ids, in start order.
    pub children: Vec<u64>,
    /// Total duration of `solver_call` events fired inside this span
    /// (not inside a child).
    pub solver_us: u64,
    /// Number of such solver calls.
    pub solver_calls: u64,
    /// The recording process (from the section's `trace_meta`), empty for
    /// traces recorded without one.
    pub process: String,
}

/// One `solver_call` event.
#[derive(Debug, Clone)]
pub struct SolverCall {
    /// The span the call fired in, if any.
    pub span: Option<u64>,
    pub preds: u64,
    pub verdict: String,
    /// Cache-lookup label (`hit` / `miss` / `bypass`).
    pub lookup: String,
    /// Answering tier (`syntactic` / `interval` / `simplex` / `none`).
    pub tier: String,
    pub dur_us: u64,
    /// Line number in the input, for stable ordering of equal durations.
    pub seq: usize,
}

/// The trailing `run` summary event, when present.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    pub func: String,
    pub dur_us: u64,
}

/// Per-stage aggregate over the whole trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTotal {
    pub stage: String,
    /// Number of spans (for `solver`: number of calls).
    pub count: u64,
    /// Sum of span durations (contains nested work).
    pub inclusive_us: u64,
    /// Sum of span self-times (children and solver calls subtracted).
    pub exclusive_us: u64,
}

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    pub stage: String,
    pub id: u64,
    pub dur_us: u64,
}

/// A fully reconstructed trace — possibly merged from several processes.
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    pub spans: BTreeMap<u64, Span>,
    /// Spans with no parent, in start order.
    pub roots: Vec<u64>,
    pub solver_calls: Vec<SolverCall>,
    /// The primary section's `run` summary (a shard section's `run`
    /// becomes a synthesized span instead — see the module docs).
    pub run: Option<RunInfo>,
    /// Total lines seen / lines skipped: not a JSON object, or carrying a
    /// span id that overflows when offset into the merged numbering.
    pub lines: usize,
    pub skipped: usize,
    /// The shared 128-bit trace id, from the first `trace_meta` line.
    pub trace_id: Option<String>,
    /// Process labels of populated sections, in input order. Empty for a
    /// trace recorded without a `trace_meta` header.
    pub processes: Vec<String>,
}

/// One per-process section of the input stream, delimited by `trace_meta`
/// lines. Span ids inside a section are process-local; `base` namespaces
/// them in the merged tree.
struct Section {
    process: String,
    /// Parent span in the primary section's numbering, from the
    /// propagated trace context.
    parent_span: Option<u64>,
    base: u64,
    run: Option<RunInfo>,
    /// Remapped ids of this section's parentless spans, in start order.
    roots: Vec<u64>,
    /// Whether any span / solver / run event landed here.
    populated: bool,
}

impl TraceAnalysis {
    /// Builds the analysis from trace lines. `Err` when no line parsed.
    pub fn from_lines<'a>(
        lines: impl IntoIterator<Item = &'a str>,
    ) -> Result<TraceAnalysis, String> {
        let mut a = TraceAnalysis::default();
        // Section 0 is the implicit pre-`trace_meta` prefix (a plain
        // `--trace-out` stream has no meta at all); every `trace_meta`
        // line opens a new section whose span ids get a fresh base.
        let mut sections = vec![Section {
            process: String::new(),
            parent_span: None,
            base: 0,
            run: None,
            roots: Vec::new(),
            populated: false,
        }];
        let mut next_id = 0u64; // highest remapped span id seen so far
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            a.lines += 1;
            let fields = match json::parse(line) {
                Ok(v @ Json::Obj(_)) => v,
                _ => {
                    a.skipped += 1;
                    continue;
                }
            };
            let get_u = |k: &str| fields.u64_field(k);
            let get_s = |k: &str| fields.str_field(k).unwrap_or_default().to_string();
            if fields.str_field("ev") == Some("trace_meta") {
                if a.trace_id.is_none() {
                    let tid = get_s("trace_id");
                    if !tid.is_empty() {
                        a.trace_id = Some(tid);
                    }
                }
                sections.push(Section {
                    process: get_s("process"),
                    parent_span: get_u("parent_span"),
                    base: next_id,
                    run: None,
                    roots: Vec::new(),
                    populated: false,
                });
                continue;
            }
            let sec = sections.last_mut().expect("sections is never empty");
            // Span ids are section-local: offset them into the merged
            // numbering. An id whose offset overflows has no place in the
            // tree, so its line is skipped.
            let offset =
                |k: &str| get_u(k).map(|raw| raw.checked_add(sec.base).ok_or(())).transpose();
            let (Ok(id), Ok(parent), Ok(span)) = (offset("id"), offset("parent"), offset("span"))
            else {
                a.skipped += 1;
                continue;
            };
            match fields.str_field("ev") {
                Some("span_start") => {
                    let Some(id) = id else { continue };
                    sec.populated = true;
                    next_id = next_id.max(id);
                    if let Some(p) = parent.and_then(|p| a.spans.get_mut(&p)) {
                        p.children.push(id);
                    }
                    if parent.is_none() {
                        sec.roots.push(id);
                    }
                    a.spans.insert(
                        id,
                        Span {
                            id,
                            parent,
                            stage: get_s("stage"),
                            dur_us: 0,
                            children: Vec::new(),
                            solver_us: 0,
                            solver_calls: 0,
                            process: sec.process.clone(),
                        },
                    );
                }
                Some("span_end") => {
                    sec.populated = true;
                    if let Some(span) = id.and_then(|id| a.spans.get_mut(&id)) {
                        span.dur_us = get_u("dur_us").unwrap_or(0);
                    }
                }
                Some("solver_call") => {
                    sec.populated = true;
                    let call = SolverCall {
                        span,
                        preds: get_u("preds").unwrap_or(0),
                        verdict: get_s("verdict"),
                        lookup: get_s("lookup"),
                        tier: get_s("tier"),
                        dur_us: get_u("dur_us").unwrap_or(0),
                        seq: a.lines,
                    };
                    if let Some(span) = call.span.and_then(|id| a.spans.get_mut(&id)) {
                        span.solver_us += call.dur_us;
                        span.solver_calls += 1;
                    }
                    a.solver_calls.push(call);
                }
                Some("run") => {
                    sec.populated = true;
                    sec.run =
                        Some(RunInfo { func: get_s("func"), dur_us: get_u("dur_us").unwrap_or(0) })
                }
                _ => {}
            }
        }
        if a.lines == a.skipped {
            return Err("no parseable trace lines".to_string());
        }

        // Stitch: the first populated section is the primary tree; every
        // later populated section grafts under the primary span its
        // `trace_meta` named. A section with a `run` summary gets a
        // synthesized `run` span holding its roots (the shard's service
        // time as one node); one without grafts its roots directly. A
        // parent id that resolves to no recorded span leaves the section
        // as extra roots — orphans are tolerated, not an error.
        let populated: Vec<usize> =
            (0..sections.len()).filter(|&i| sections[i].populated).collect();
        let Some(&pi) = populated.first() else { return Ok(a) };
        let primary_base = sections[pi].base;
        a.run = sections[pi].run.take();
        a.roots = std::mem::take(&mut sections[pi].roots);
        if !sections[pi].process.is_empty() {
            a.processes.push(sections[pi].process.clone());
        }
        for &i in &populated[1..] {
            let sec = &mut sections[i];
            let run = sec.run.take();
            let roots = std::mem::take(&mut sec.roots);
            let process = sec.process.clone();
            let parent = sec
                .parent_span
                .and_then(|p| p.checked_add(primary_base))
                .filter(|p| a.spans.contains_key(p));
            if !process.is_empty() {
                a.processes.push(process.clone());
            }
            // The synthesized `run` span takes the next free id; with none
            // left, the section's roots graft directly.
            match run.zip(next_id.checked_add(1)) {
                Some((run, id)) => {
                    next_id = id;
                    for r in &roots {
                        if let Some(sp) = a.spans.get_mut(r) {
                            sp.parent = Some(id);
                        }
                    }
                    match parent {
                        Some(p) => a.spans.get_mut(&p).expect("filtered above").children.push(id),
                        None => a.roots.push(id),
                    }
                    a.spans.insert(
                        id,
                        Span {
                            id,
                            parent,
                            stage: "run".to_string(),
                            dur_us: run.dur_us,
                            children: roots,
                            solver_us: 0,
                            solver_calls: 0,
                            process,
                        },
                    );
                }
                None => match parent {
                    Some(p) => {
                        for r in &roots {
                            if let Some(sp) = a.spans.get_mut(r) {
                                sp.parent = Some(p);
                            }
                        }
                        a.spans.get_mut(&p).expect("filtered above").children.extend(roots);
                    }
                    None => a.roots.extend(roots),
                },
            }
        }
        Ok(a)
    }

    /// A span's exclusive self-time: inclusive duration minus direct
    /// children and its own solver calls (saturating — clock jitter can
    /// make nested sums exceed the parent by a few µs).
    pub fn exclusive_us(&self, id: u64) -> u64 {
        let Some(span) = self.spans.get(&id) else { return 0 };
        let children: u64 =
            span.children.iter().filter_map(|c| self.spans.get(c)).map(|c| c.dur_us).sum();
        span.dur_us.saturating_sub(children + span.solver_us)
    }

    /// Per-stage totals, pipeline-stage order first, then any unknown
    /// stages alphabetically. `solver` aggregates the solver-call events
    /// (its time is exclusive by definition).
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        let mut by_stage: BTreeMap<&str, StageTotal> = BTreeMap::new();
        for span in self.spans.values() {
            let agg = by_stage.entry(span.stage.as_str()).or_insert_with(|| StageTotal {
                stage: span.stage.clone(),
                count: 0,
                inclusive_us: 0,
                exclusive_us: 0,
            });
            agg.count += 1;
            agg.inclusive_us += span.dur_us;
            agg.exclusive_us += self.exclusive_us(span.id);
        }
        let solver_us: u64 = self.solver_calls.iter().map(|c| c.dur_us).sum();
        if !self.solver_calls.is_empty() {
            let agg = by_stage.entry("solver").or_insert_with(|| StageTotal {
                stage: "solver".to_string(),
                count: 0,
                inclusive_us: 0,
                exclusive_us: 0,
            });
            agg.count += self.solver_calls.len() as u64;
            agg.inclusive_us += solver_us;
            agg.exclusive_us += solver_us;
        }
        let rank = |stage: &str| {
            crate::Stage::ALL
                .iter()
                .position(|s| s.label() == stage)
                .unwrap_or(crate::Stage::ALL.len())
        };
        let mut out: Vec<StageTotal> = by_stage.into_values().collect();
        out.sort_by(|a, b| rank(&a.stage).cmp(&rank(&b.stage)).then(a.stage.cmp(&b.stage)));
        out
    }

    /// Sum of exclusive self-times across all spans plus all solver calls
    /// — the "where did the time go" total, ≤ wall clock for a single-
    /// threaded trace.
    pub fn exclusive_total_us(&self) -> u64 {
        self.spans.keys().map(|&id| self.exclusive_us(id)).sum::<u64>()
            + self.solver_calls.iter().map(|c| c.dur_us).sum::<u64>()
    }

    /// Exclusive self-time per process, in [`Self::processes`] order —
    /// the cross-tier "where did the time go" split of a merged trace.
    /// Solver calls attribute to their enclosing span's process; calls
    /// outside any span fall to the first process. Empty for a trace
    /// recorded without a `trace_meta` header.
    pub fn process_totals(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for p in &self.processes {
            // Several shard sections share one process label; merge them.
            if !out.iter().any(|(q, _)| q == p) {
                out.push((p.clone(), 0));
            }
        }
        for span in self.spans.values() {
            if let Some(i) = out.iter().position(|(p, _)| p == &span.process) {
                out[i].1 += self.exclusive_us(span.id) + span.solver_us;
            }
        }
        let orphan_solver: u64 =
            self.solver_calls.iter().filter(|c| c.span.is_none()).map(|c| c.dur_us).sum();
        if let Some(first) = out.first_mut() {
            first.1 += orphan_solver;
        }
        out
    }

    /// The critical path: starting from the heaviest root span, descend
    /// into the heaviest direct child until a leaf. Empty without spans.
    pub fn critical_path(&self) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut cur = self
            .roots
            .iter()
            .filter_map(|id| self.spans.get(id))
            .max_by_key(|s| (s.dur_us, std::cmp::Reverse(s.id)));
        while let Some(span) = cur {
            path.push(PathStep { stage: span.stage.clone(), id: span.id, dur_us: span.dur_us });
            cur = span
                .children
                .iter()
                .filter_map(|id| self.spans.get(id))
                .max_by_key(|s| (s.dur_us, std::cmp::Reverse(s.id)));
        }
        path
    }

    /// The `k` slowest solver calls, slowest first (ties: input order).
    pub fn top_solver_calls(&self, k: usize) -> Vec<&SolverCall> {
        let mut calls: Vec<&SolverCall> = self.solver_calls.iter().collect();
        calls.sort_by_key(|c| (std::cmp::Reverse(c.dur_us), c.seq));
        calls.truncate(k);
        calls
    }

    /// Folded stacks: `stage;stage;… exclusive_us`, one entry per distinct
    /// stack, sorted by stack string — the input format of flamegraph
    /// tooling. Solver calls fold one level deeper than their span.
    pub fn folded_stacks(&self) -> Vec<(String, u64)> {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for span in self.spans.values() {
            let stack = self.stack_of(span.id);
            let excl = self.exclusive_us(span.id);
            if excl > 0 {
                *folded.entry(stack.clone()).or_insert(0) += excl;
            }
            if span.solver_us > 0 {
                *folded.entry(format!("{stack};solver")).or_insert(0) += span.solver_us;
            }
        }
        // Solver calls outside any span still deserve a frame.
        let orphan_solver: u64 =
            self.solver_calls.iter().filter(|c| c.span.is_none()).map(|c| c.dur_us).sum();
        if orphan_solver > 0 {
            *folded.entry("solver".to_string()).or_insert(0) += orphan_solver;
        }
        folded.into_iter().collect()
    }

    /// Wall clock: the `run` event when present, else the summed duration
    /// of root spans.
    pub fn wall_us(&self) -> u64 {
        match &self.run {
            Some(run) if run.dur_us > 0 => run.dur_us,
            _ => self.roots.iter().filter_map(|id| self.spans.get(id)).map(|s| s.dur_us).sum(),
        }
    }

    fn stack_of(&self, id: u64) -> String {
        let mut stages = Vec::new();
        let mut cur = self.spans.get(&id);
        while let Some(span) = cur {
            stages.push(span.stage.as_str());
            cur = span.parent.and_then(|p| self.spans.get(&p));
        }
        stages.reverse();
        stages.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stage, TraceSink, Val};
    use std::time::Duration;

    /// Builds a real recorded trace through the sink, then checks the
    /// reconstruction subtracts children and solver calls correctly.
    #[test]
    fn exclusive_time_subtracts_children_and_solver_calls() {
        let sink = TraceSink::recording();
        {
            let _prune = sink.span(Stage::Prune);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _guard = sink.span(Stage::PassingGuard);
                std::thread::sleep(Duration::from_millis(2));
            }
            sink.solver_call(3, "sat", "miss", "simplex", Duration::from_millis(3));
        }
        let lines = sink.lines();
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.spans.len(), 2);
        assert_eq!(a.roots.len(), 1);
        let root = a.roots[0];
        let prune = &a.spans[&root];
        assert_eq!(prune.stage, "prune");
        assert_eq!(prune.solver_calls, 1);
        let guard_id = prune.children[0];
        let excl = a.exclusive_us(root);
        let guard_dur = a.spans[&guard_id].dur_us;
        assert_eq!(excl, prune.dur_us - guard_dur - prune.solver_us);
        // The 4 ms self-sleep is split between exclusive time and the
        // (synthetic, unslept) 3 ms solver event that gets subtracted.
        assert!(
            excl + prune.solver_us >= 3_500,
            "prune slept ≥4ms outside its child, got excl {excl} + solver {} µs",
            prune.solver_us
        );
        assert!(excl < prune.dur_us, "exclusive must subtract nested work");

        let totals = a.stage_totals();
        let by_name = |n: &str| totals.iter().find(|t| t.stage == n).unwrap();
        assert_eq!(by_name("prune").exclusive_us, excl);
        assert_eq!(by_name("passing_guard").exclusive_us, guard_dur);
        assert_eq!(by_name("solver").count, 1);
        assert_eq!(by_name("solver").exclusive_us, 3_000);
        // Stage order follows the pipeline.
        assert_eq!(
            totals.iter().map(|t| t.stage.as_str()).collect::<Vec<_>>(),
            vec!["prune", "passing_guard", "solver"]
        );

        let path = a.critical_path();
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].stage, "prune");
        assert_eq!(path[1].stage, "passing_guard");

        let folded = a.folded_stacks();
        assert!(folded.iter().any(|(s, _)| s == "prune"));
        assert!(folded.iter().any(|(s, _)| s == "prune;passing_guard"));
        assert!(folded.iter().any(|(s, v)| s == "prune;solver" && *v == 3_000));
        // Folded exclusive values sum to the exclusive total.
        assert_eq!(folded.iter().map(|(_, v)| v).sum::<u64>(), a.exclusive_total_us());
    }

    #[test]
    fn top_solver_calls_sorts_by_duration() {
        let sink = TraceSink::recording();
        sink.solver_call(1, "sat", "miss", "interval", Duration::from_micros(5));
        sink.solver_call(9, "unsat", "miss", "simplex", Duration::from_micros(500));
        sink.solver_call(2, "sat", "hit", "syntactic", Duration::from_micros(50));
        let lines = sink.lines();
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();
        let top = a.top_solver_calls(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].preds, 9);
        assert_eq!(top[0].tier, "simplex");
        assert_eq!(top[1].preds, 2);
        assert_eq!(top[1].lookup, "hit");
    }

    #[test]
    fn run_event_supplies_wall_clock() {
        let sink = TraceSink::recording();
        {
            let _s = sink.span(Stage::TestGen);
        }
        sink.event("run", &[("func", Val::S("f")), ("dur_us", Val::U(1234))]);
        let lines = sink.lines();
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.wall_us(), 1234);
        assert_eq!(a.run.as_ref().unwrap().func, "f");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(TraceAnalysis::from_lines([]).is_err());
        assert!(TraceAnalysis::from_lines(["garbage", "more garbage"]).is_err());
    }

    const TID: &str = "00112233445566778899aabbccddeeff";

    /// Section-local span ids are offset by a per-section base; an id
    /// whose offset would overflow `u64` cannot be placed in the merged
    /// tree, so its line is skipped instead of panicking (debug) or
    /// wrapping onto another section's ids (release).
    #[test]
    fn overflowing_section_ids_are_skipped() {
        let max = u64::MAX;
        let lines = [
            format!(r#"{{"ev":"trace_meta","trace_id":"{TID}","process":"preinfer-router"}}"#),
            r#"{"ev":"span_start","id":1,"parent":null,"stage":"route"}"#.to_string(),
            r#"{"ev":"span_start","id":2,"parent":1,"stage":"upstream_rtt"}"#.to_string(),
            r#"{"ev":"span_end","id":2,"dur_us":50}"#.to_string(),
            r#"{"ev":"span_end","id":1,"dur_us":60}"#.to_string(),
            format!(
                r#"{{"ev":"trace_meta","trace_id":"{TID}","process":"preinferd","parent_span":2}}"#
            ),
            format!(r#"{{"ev":"span_start","id":{max},"parent":null,"stage":"testgen"}}"#),
            format!(r#"{{"ev":"span_start","id":1,"parent":{max},"stage":"prune"}}"#),
            format!(r#"{{"ev":"span_end","id":{max},"dur_us":7}}"#),
            format!(r#"{{"ev":"solver_call","span":{max},"preds":1,"dur_us":3}}"#),
            r#"{"ev":"run","func":"f","dur_us":40}"#.to_string(),
        ];
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.skipped, 4, "every line with an overflowing id is skipped");
        assert!(a.solver_calls.is_empty());
        assert_eq!(a.spans[&1].dur_us, 60, "no shard line lands on a router span");
        assert_eq!(a.spans[&2].dur_us, 50, "no shard line lands on a router span");
        assert_eq!(a.spans.len(), 3, "route, upstream_rtt and the shard's synthesized run");
    }

    /// A router section (flat spans) followed by a shard section whose
    /// `trace_meta` names the router's `upstream_rtt` span: a real router
    /// sink's lines merged with a shard section written out with fixed
    /// durations, checking the shard's work lands as a synthesized `run`
    /// node under the rtt span.
    #[test]
    fn merged_sections_nest_shard_spans_under_router_rtt() {
        let router = TraceSink::recording_in_trace("preinfer-router", TID, None);
        let route = router.begin_span("route", None);
        let decide = router.begin_span("route_decide", Some(route));
        router.end_span(decide, "route_decide", Duration::from_micros(40));
        let rtt = router.begin_span("upstream_rtt", Some(route));
        router.end_span(rtt, "upstream_rtt", Duration::from_micros(5_000));
        router.end_span(route, "route", Duration::from_micros(5_200));

        // The shard's section as its sink writes it: a 1 000 µs testgen
        // span holding one 300 µs solver call, inside a 4 000 µs run.
        let mut lines = router.lines();
        lines.extend([
            format!(
                r#"{{"ev":"trace_meta","trace_id":"{TID}","process":"preinferd","parent_span":{rtt}}}"#
            ),
            r#"{"ev":"span_start","id":1,"parent":null,"stage":"testgen"}"#.to_string(),
            r#"{"ev":"solver_call","span":1,"preds":2,"verdict":"unsat","lookup":"miss","tier":"interval","dur_us":300}"#.to_string(),
            r#"{"ev":"span_end","id":1,"stage":"testgen","dur_us":1000}"#.to_string(),
            r#"{"ev":"run","func":"m","dur_us":4000}"#.to_string(),
        ]);
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();

        assert_eq!(a.trace_id.as_deref(), Some(TID));
        assert_eq!(a.processes, vec!["preinfer-router", "preinferd"]);
        // route + route_decide + upstream_rtt + shard testgen + synthesized run.
        assert_eq!(a.spans.len(), 5);
        assert_eq!(a.roots.len(), 1, "one merged tree, root = route");
        assert!(a.run.is_none(), "shard run becomes a span, not the primary summary");
        assert_eq!(a.wall_us(), 5_200, "wall clock is the router root");

        let rtt_span = &a.spans[&rtt];
        assert_eq!(rtt_span.children.len(), 1);
        let run_id = rtt_span.children[0];
        let run_span = &a.spans[&run_id];
        assert_eq!(run_span.stage, "run");
        assert_eq!(run_span.dur_us, 4_000);
        assert_eq!(run_span.process, "preinferd");
        assert_eq!(run_span.parent, Some(rtt));
        // The shard's testgen span was renumbered past the router ids and
        // reparented under the synthesized run node.
        let testgen_id = run_span.children[0];
        assert!(testgen_id > route && testgen_id > rtt);
        assert_eq!(a.spans[&testgen_id].stage, "testgen");
        assert_eq!(a.spans[&testgen_id].parent, Some(run_id));

        // Critical path descends across the process boundary.
        let path: Vec<String> = a.critical_path().into_iter().map(|s| s.stage).collect();
        assert_eq!(path, vec!["route", "upstream_rtt", "run", "testgen"]);

        // Cross-tier exclusive split: both tiers present, sums match the
        // global exclusive total, and the total stays within wall clock.
        let per = a.process_totals();
        assert_eq!(per.len(), 2);
        assert!(per.iter().all(|(_, us)| *us > 0));
        assert_eq!(per.iter().map(|(_, us)| us).sum::<u64>(), a.exclusive_total_us());
        assert!(a.exclusive_total_us() <= a.wall_us());
    }

    /// A section naming a parent span that never arrived must degrade to
    /// extra roots, never an error or a dropped span.
    #[test]
    fn orphan_section_becomes_extra_roots() {
        let router = TraceSink::recording_in_trace("preinfer-router", TID, None);
        let route = router.begin_span("route", None);
        router.end_span(route, "route", Duration::from_micros(900));

        let shard = TraceSink::recording_in_trace("preinferd", TID, Some(77));
        {
            let _t = shard.span(Stage::Partition);
        }
        shard.event("run", &[("func", Val::S("m")), ("dur_us", Val::U(500))]);

        let mut lines = router.lines();
        lines.extend(shard.lines());
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.roots.len(), 2, "router root + orphaned shard run");
        let orphan = a.spans[a.roots.last().unwrap()].clone();
        assert_eq!(orphan.stage, "run");
        assert_eq!(orphan.parent, None);
        assert_eq!(a.spans[&orphan.children[0]].stage, "partition");
        // Without a primary `run` summary the wall clock sums the roots.
        assert_eq!(a.wall_us(), 900 + 500);
    }

    /// Two shard sections reusing the same local span ids (every sink
    /// numbers from 1) and the same trace id must not alias: namespacing
    /// is positional, not id- or trace-id-keyed.
    #[test]
    fn duplicate_span_ids_across_shards_do_not_alias() {
        let router = TraceSink::recording_in_trace("preinfer-router", TID, None);
        let route = router.begin_span("route", None);
        let rtt_a = router.begin_span("upstream_rtt", Some(route));
        router.end_span(rtt_a, "upstream_rtt", Duration::from_micros(2_000));
        let rtt_b = router.begin_span("upstream_rtt", Some(route));
        router.end_span(rtt_b, "upstream_rtt", Duration::from_micros(3_000));
        router.end_span(route, "route", Duration::from_micros(6_000));

        let mut lines = router.lines();
        for (parent, stage) in [(rtt_a, Stage::TestGen), (rtt_b, Stage::Prune)] {
            let shard = TraceSink::recording_in_trace("preinferd", TID, Some(parent));
            {
                let _s = shard.span(stage);
            }
            shard.event("run", &[("func", Val::S("m")), ("dur_us", Val::U(1_000))]);
            lines.extend(shard.lines());
        }
        let a = TraceAnalysis::from_lines(lines.iter().map(String::as_str)).unwrap();
        // 3 router spans + 2 × (shard stage span + synthesized run).
        assert_eq!(a.spans.len(), 7);
        assert_eq!(a.processes, vec!["preinfer-router", "preinferd", "preinferd"]);
        let run_a = a.spans[&rtt_a].children[0];
        let run_b = a.spans[&rtt_b].children[0];
        assert_ne!(run_a, run_b);
        assert_eq!(a.spans[&a.spans[&run_a].children[0]].stage, "testgen");
        assert_eq!(a.spans[&a.spans[&run_b].children[0]].stage, "prune");
    }

    /// Per-line `t_us` timestamps are process-relative and never enter
    /// any duration arithmetic, so wildly skewed clocks across sections
    /// change nothing in the merged analysis.
    #[test]
    fn cross_process_clock_skew_is_irrelevant() {
        let merged = [
            format!(r#"{{"ev":"trace_meta","seq":0,"t_us":0,"trace_id":"{TID}","process":"preinfer-router","parent_span":null}}"#),
            r#"{"ev":"span_start","seq":1,"t_us":10,"id":1,"parent":null,"stage":"route"}"#.into(),
            r#"{"ev":"span_start","seq":2,"t_us":20,"id":2,"parent":1,"stage":"upstream_rtt"}"#.into(),
            r#"{"ev":"span_end","seq":3,"t_us":5020,"id":2,"stage":"upstream_rtt","dur_us":5000}"#.into(),
            r#"{"ev":"span_end","seq":4,"t_us":5100,"id":1,"stage":"route","dur_us":5090}"#.into(),
            // The shard clock is hours ahead — its t_us values dwarf the
            // router's, which must not matter.
            format!(r#"{{"ev":"trace_meta","seq":0,"t_us":7200000000,"trace_id":"{TID}","process":"preinferd","parent_span":2}}"#),
            r#"{"ev":"span_start","seq":1,"t_us":7200000100,"id":1,"parent":null,"stage":"testgen"}"#.into(),
            r#"{"ev":"span_end","seq":2,"t_us":7200003100,"id":1,"stage":"testgen","dur_us":3000}"#.into(),
            r#"{"ev":"run","seq":3,"t_us":7200004000,"func":"m","dur_us":4100}"#.into(),
        ];
        let a = TraceAnalysis::from_lines(merged.iter().map(String::as_str)).unwrap();
        assert_eq!(a.wall_us(), 5_090);
        let rtt = &a.spans[&2];
        let run_id = rtt.children[0];
        assert_eq!(a.spans[&run_id].dur_us, 4_100);
        // Durations come from dur_us fields alone: rtt exclusive is its
        // duration minus the nested shard run, regardless of skew.
        assert_eq!(a.exclusive_us(2), 5_000 - 4_100);
        assert!(a.exclusive_total_us() <= a.wall_us());
    }
}
