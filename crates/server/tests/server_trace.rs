//! The serving layer's observability contract: the trace stream a
//! recording sink captures during `run_infer` is consumable by the
//! server's own strict JSON parser, and the `stats` verb exposes the
//! per-stage latency histograms fed by the daemon's aggregate sink.

use server::{json, run_infer, Client, InferRequest, Server, ServerConfig, SummaryPolicy};
use solver::{Deadline, SolverCache, TierCounters};
use std::sync::Arc;

fn motivating_request() -> InferRequest {
    let m = subjects::motivating::motivating();
    InferRequest {
        program: m.source.to_string(),
        func: Some(m.name.to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    }
}

#[test]
fn run_infer_trace_lines_parse_with_the_servers_own_parser() {
    let cache = Arc::new(SolverCache::new());
    let sink = Arc::new(obs::TraceSink::recording());
    let trace = Some(sink.clone());
    run_infer(
        &motivating_request(),
        &cache,
        &Deadline::default(),
        &trace,
        &Arc::new(TierCounters::default()),
        &Arc::default(),
        &SummaryPolicy::default(),
    )
    .expect("inference succeeds");
    let lines = sink.lines();
    assert!(!lines.is_empty(), "recording sink captured nothing");
    for line in lines.iter() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("unparsable trace line {line}: {e}"));
        let ev = v.str_field("ev").expect("every event names its kind");
        assert!(v.u64_field("seq").is_some(), "event {ev} lacks a seq");
        match ev {
            "span_start" | "span_end" => {
                assert!(v.str_field("stage").is_some(), "{ev} lacks a stage");
            }
            "solver_call" => {
                assert!(
                    v.str_field("verdict").is_some() && v.str_field("lookup").is_some(),
                    "solver_call lacks verdict/lookup labels"
                );
                assert!(
                    matches!(
                        v.str_field("tier"),
                        Some("syntactic" | "interval" | "simplex" | "none")
                    ),
                    "solver_call lacks a tier label"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn stats_verb_serves_stage_histograms() {
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");
    cl.infer(&motivating_request()).expect("infer round-trip");
    let stats = cl.stats().expect("stats round-trip");
    let cache = stats.get("cache").expect("stats carries a cache object");
    assert!(
        cache.get("evicted_entries").and_then(|v| v.as_u64()).is_some(),
        "stats.cache lacks evicted_entries"
    );
    let tiers = stats.get("solver_tiers").expect("stats carries solver tier attribution");
    let mut answered = 0;
    for field in ["answered_by_syntactic", "answered_by_interval", "answered_by_simplex"] {
        answered += tiers
            .get(field)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("stats.solver_tiers lacks {field}"));
    }
    assert!(answered > 0, "no solver query was attributed to any tier after an inference");
    assert!(tiers.get("escalations").and_then(|v| v.as_u64()).is_some());
    let stages = stats.get("stages").expect("stats carries per-stage histograms");
    for stage in ["testgen", "partition", "prune", "generalize", "assemble", "solver"] {
        let s = stages.get(stage).unwrap_or_else(|| panic!("stats.stages lacks {stage}"));
        assert!(
            s.get("count").and_then(|v| v.as_u64()).expect("stage count") > 0,
            "stage {stage} recorded no activity after an inference"
        );
        for field in ["total_us", "mean_us", "p50_us", "p90_us", "p99_us"] {
            assert!(s.get(field).and_then(|v| v.as_u64()).is_some(), "stage {stage} lacks {field}");
        }
    }
    server.handle().shutdown();
    server.join();
}
