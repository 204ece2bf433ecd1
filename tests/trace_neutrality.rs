//! Trace neutrality: observability never changes an answer.
//!
//! The obs layer threads an `Option<Arc<TraceSink>>` through every stage of
//! the pipeline — test generation, partitioning, pruning, generalization,
//! assembly, and each solver call. The contract these tests lock in is that
//! the sink is *observation-only*: every inference output (the suite, ψ, α,
//! disjunct order, pruning counters) is byte-identical with tracing off,
//! with an aggregate sink, and with a full recording sink; and the recorded
//! stream itself is well-formed JSON lines with properly nested spans.
//! Over the whole corpus, the `aggregate sink` and `no sink` rows of
//! `tests/common/` render the ψ golden, which its production pass renders
//! with a recording sink.

mod common;

use preinfer::obs;
use preinfer::prelude::*;
use std::sync::Arc;

/// Runs the whole pipeline for one subject, with a solver cache and `sink`
/// on every stage, and renders its ψ lines.
fn traced_summaries(m: &subjects::SubjectMethod, sink: Option<Arc<obs::TraceSink>>) -> Vec<String> {
    common::run_psi_lines(m, &common::run_config(BackendKind::Tiered, true, sink))
}

/// The full corpus: ψ (and everything else observable) is the ψ golden,
/// which is rendered with a recording sink, with tracing off and with an
/// aggregate sink.
#[test]
fn corpus_inference_identical_with_and_without_tracing() {
    common::assert_rows_render_psi_golden(&["no sink", "aggregate sink"]);
}

/// The motivating example, in depth: untraced, aggregate and recording
/// runs agree byte for byte, and the recording run actually recorded.
#[test]
fn motivating_example_is_trace_neutral() {
    let m = subjects::motivating::motivating();
    let untraced = traced_summaries(&m, None);
    let aggregate = traced_summaries(&m, Some(Arc::new(obs::TraceSink::aggregate())));
    let recording_sink = Arc::new(obs::TraceSink::recording());
    let recorded = traced_summaries(&m, Some(recording_sink.clone()));
    assert!(!untraced.is_empty(), "motivating example triggered no ACLs");
    assert_eq!(untraced, aggregate, "aggregate sink changed inference output");
    assert_eq!(untraced, recorded, "recording sink changed inference output");
    let lines = recording_sink.lines();
    assert!(lines.len() > 100, "recording captured only {} events", lines.len());
    // Every pipeline stage gets spanned, and every event family fires.
    for stage in ["testgen", "partition", "prune", "generalize", "assemble", "passing_guard"] {
        assert!(
            lines.iter().any(|l| l.contains(&format!("\"stage\":\"{stage}\""))),
            "stage {stage} never appears in the trace"
        );
    }
    for ev in [
        "flip",
        "testgen_done",
        "partition",
        "path_pruned",
        "prune_decision",
        "template_match",
        "psi",
        "solver_call",
    ] {
        assert!(
            lines.iter().any(|l| l.contains(&format!("\"ev\":\"{ev}\""))),
            "event {ev} never appears in the trace"
        );
    }
}

/// `evaluate_method` output (as `tables --json` renders it) is identical
/// with stage-timing collection on and off, once the single volatile
/// `stage_timings` line is dropped.
#[test]
fn method_result_json_identical_modulo_stage_timings() {
    let m = subjects::all_subjects()
        .into_iter()
        .find(|m| m.name == "guarded_div")
        .expect("guarded_div in corpus");
    let json_with = |trace: bool| -> Vec<String> {
        let cfg = report::EvalConfig { trace, jobs: 1, ..Default::default() };
        let result = report::evaluate_method(&m, &cfg);
        report::results_to_json(&[result])
            .lines()
            .filter(|l| !l.contains("\"stage_timings\""))
            .map(String::from)
            .collect()
    };
    let traced = json_with(true);
    let untraced = json_with(false);
    assert_eq!(traced, untraced, "stage timing collection changed the rendered results");
}

/// The recorded stream is structurally sound: spans nest (every `span_end`
/// closes an open span of the same id, parents are open at start time),
/// `seq` is dense, and the JSON survives a round-trip through the serving
/// layer's strict parser (checked again in the server's own tests).
#[test]
fn recorded_spans_nest_and_seq_is_dense() {
    let m = subjects::motivating::motivating();
    let sink = Arc::new(obs::TraceSink::recording());
    let _ = traced_summaries(&m, Some(sink.clone()));
    let mut open: Vec<u64> = Vec::new();
    let field = |line: &str, key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    };
    for (i, line) in sink.lines().iter().enumerate() {
        assert_eq!(field(line, "seq"), Some(i as u64), "seq not dense at line {i}: {line}");
        if line.contains("\"ev\":\"span_start\"") {
            let id = field(line, "id").expect("span_start has an id");
            if let Some(parent) = field(line, "parent") {
                assert!(open.contains(&parent), "parent {parent} not open at line {i}: {line}");
            }
            open.push(id);
        } else if line.contains("\"ev\":\"span_end\"") {
            let id = field(line, "id").expect("span_end has an id");
            let pos = open.iter().rposition(|&o| o == id);
            assert!(pos.is_some(), "span_end for unopened id {id} at line {i}: {line}");
            open.remove(pos.unwrap());
        }
    }
    assert!(open.is_empty(), "spans left open at end of trace: {open:?}");
}
