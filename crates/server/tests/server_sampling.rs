//! Per-request tracing contract: head sampling is a deterministic
//! function of the admission order (same ids sampled on every run, under
//! any worker count), tail capture retains slow requests even with head
//! sampling off, the retained-trace ring evicts oldest-first, and — the
//! invariant everything else rides on — sampling never changes a served ψ.

use server::{
    served_psis, Client, InferRequest, Router, RouterConfig, Server, ServerConfig, ShellConfig,
    TraceSelect,
};

fn infer_req(program: &str, func: &str) -> InferRequest {
    InferRequest {
        program: program.to_string(),
        func: Some(func.to_string()),
        deadline_ms: None,
        tests: None,
        trace: None,
    }
}

fn motivating_req() -> InferRequest {
    let m = subjects::motivating::motivating();
    infer_req(m.source, m.name)
}

/// Submits `n` sequential requests and returns the head-sampled request
/// ids the `trace` verb reports, oldest first.
fn sampled_ids(cfg: ServerConfig, n: usize) -> Vec<u64> {
    let server = Server::start(cfg).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");
    for _ in 0..n {
        let resp = cl.infer(&motivating_req()).expect("infer round-trip");
        assert!(served_psis(&resp).is_some(), "inference failed");
    }
    let resp = cl.trace(TraceSelect::Last(100)).expect("trace round-trip");
    let mut ids: Vec<u64> = resp
        .get("traces")
        .and_then(|t| t.as_array())
        .expect("trace verb returns a traces array")
        .iter()
        .filter(|t| t.str_field("reason") == Some("head"))
        .map(|t| t.u64_field("request_id").expect("trace carries request_id"))
        .collect();
    ids.reverse(); // the verb serves newest first
    server.handle().shutdown();
    server.join();
    ids
}

#[test]
fn head_sampling_is_deterministic_across_runs_and_worker_counts() {
    let cfg = |workers: usize| ServerConfig {
        workers,
        shell: ShellConfig { trace_sample: 3, ..ShellConfig::default() },
        ..ServerConfig::default()
    };
    // 1-based admission ids, 1-in-3: requests 1, 4, 7, 10.
    let expect = vec![1, 4, 7, 10];
    assert_eq!(sampled_ids(cfg(1), 10), expect);
    // Same sequence on a fresh daemon: the sampled set is a pure function
    // of arrival order, not of wall clock, RNG, or scheduling.
    assert_eq!(sampled_ids(cfg(1), 10), expect);
    // And independent of parallelism (one connection → sequential
    // admission regardless of the worker count).
    assert_eq!(sampled_ids(cfg(4), 10), expect);
}

#[test]
fn tail_capture_retains_slow_requests_with_head_sampling_off() {
    let server = Server::start(ServerConfig {
        shell: ShellConfig {
            trace_sample: 0,
            slow_trace_ms: Some(0), // every request is "slow": service > 0 ms
            ..ShellConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");
    cl.infer(&motivating_req()).expect("infer round-trip");
    let resp = cl.trace(TraceSelect::Last(1)).expect("trace round-trip");
    let traces = resp.get("traces").and_then(|t| t.as_array()).expect("traces array");
    assert_eq!(traces.len(), 1, "slow request was not retained");
    let t = &traces[0];
    assert_eq!(t.str_field("reason"), Some("slow"));
    assert_eq!(t.u64_field("request_id"), Some(1));
    assert!(t.u64_field("service_us").unwrap() > 0);
    let events = t.get("events").and_then(|e| e.as_array()).expect("events array");
    assert!(!events.is_empty(), "retained trace carries no events");
    // The trailing `run` summary makes the export self-describing.
    let run = events
        .iter()
        .find(|e| e.str_field("ev") == Some("run"))
        .expect("retained trace ends with a run event");
    assert_eq!(run.u64_field("request_id"), Some(1));
    assert!(run.u64_field("dur_us").is_some() && run.u64_field("queue_us").is_some());

    // `--slow-trace-ms 0` means the same on the router: every routed
    // request is retained, with reason `slow`.
    let router = Router::start(RouterConfig {
        shards: vec![addr],
        shell: ShellConfig { slow_trace_ms: Some(0), ..ShellConfig::default() },
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut via_router = Client::connect(&router.local_addr().to_string()).expect("connect");
    for _ in 0..3 {
        via_router.infer(&motivating_req()).expect("routed infer round-trip");
    }
    let resp = via_router.trace(TraceSelect::Last(10)).expect("trace round-trip");
    let traces = resp.get("traces").and_then(|t| t.as_array()).expect("traces array");
    let routed: Vec<_> =
        traces.iter().filter(|t| t.str_field("process") == Some("preinfer-router")).collect();
    assert_eq!(routed.len(), 3, "every routed request is retained: {resp:?}");
    assert!(routed.iter().all(|t| t.str_field("reason") == Some("slow")), "{resp:?}");
    router.handle().shutdown();
    router.join();
    server.handle().shutdown();
    server.join();
}

#[test]
fn trace_ring_evicts_oldest_and_serves_by_request_id() {
    let server = Server::start(ServerConfig {
        shell: ShellConfig {
            trace_sample: 1, // retain every request
            trace_buffer: 2,
            ..ShellConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");
    for _ in 0..3 {
        cl.infer(&motivating_req()).expect("infer round-trip");
    }
    let resp = cl.trace(TraceSelect::Last(10)).expect("trace round-trip");
    let ids: Vec<u64> = resp
        .get("traces")
        .and_then(|t| t.as_array())
        .expect("traces array")
        .iter()
        .map(|t| t.u64_field("request_id").unwrap())
        .collect();
    assert_eq!(ids, vec![3, 2], "ring must hold the newest two, newest first");
    // The evicted request is gone; a retained one is fetchable by id.
    let gone = cl.trace(TraceSelect::ById(1)).expect("trace round-trip");
    assert_eq!(gone.get("traces").and_then(|t| t.as_array()).unwrap().len(), 0);
    let kept = cl.trace(TraceSelect::ById(3)).expect("trace round-trip");
    assert_eq!(kept.get("traces").and_then(|t| t.as_array()).unwrap().len(), 1);
    // `stats` accounts for the retention and the eviction.
    let stats = cl.stats().expect("stats round-trip");
    let traces = stats.get("traces").expect("stats carries a traces object");
    assert_eq!(traces.u64_field("retained_head"), Some(3));
    assert_eq!(traces.u64_field("evicted"), Some(1));
    assert_eq!(traces.u64_field("buffered"), Some(2));
    server.handle().shutdown();
    server.join();
}

#[test]
fn stats_exposes_uptime_queue_capacity_and_queue_wait() {
    let server = Server::start(ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");
    let resp = cl.infer(&motivating_req()).expect("infer round-trip");
    assert_eq!(resp.u64_field("request_id"), Some(1), "infer response echoes the admission id");
    let stats = cl.stats().expect("stats round-trip");
    let counters = stats.get("counters").expect("counters object");
    assert_eq!(counters.u64_field("queue_capacity"), Some(64));
    assert!(counters.u64_field("uptime_s").is_some(), "counters lacks uptime_s");
    let wait =
        stats.get("latency").and_then(|l| l.get("queue_wait")).expect("latency carries queue_wait");
    assert!(
        wait.u64_field("count").unwrap() >= 1,
        "queue_wait histogram recorded nothing after an inference"
    );
    server.handle().shutdown();
    server.join();
}

#[test]
fn metrics_verb_serves_prometheus_exposition() {
    let server = Server::start(ServerConfig {
        shell: ShellConfig { trace_sample: 1, ..ShellConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut cl = Client::connect(&addr).expect("connect");
    cl.infer(&motivating_req()).expect("infer round-trip");
    // A request inside a sampled cross-process trace context leaves its
    // trace_id as an exemplar on the latency histograms.
    let mut in_trace = motivating_req();
    in_trace.trace = Some(server::TraceContext {
        trace_id: "00112233445566778899aabbccddeeff".to_string(),
        parent_span_id: Some(3),
        sampled: true,
    });
    cl.infer(&in_trace).expect("infer round-trip (in trace)");
    let resp = cl.metrics().expect("metrics round-trip");
    assert_eq!(resp.str_field("verb"), Some("metrics"));
    let text = resp.str_field("text").expect("metrics response carries the exposition text");

    // Cache, tier, stage, verb, queue, and trace series are all present.
    for needle in [
        "# TYPE preinfer_cache_lookups_total counter",
        "preinfer_cache_lookups_total{result=\"hit\"}",
        "preinfer_cache_lookups_total{result=\"miss\"}",
        "preinfer_solver_tier_answers_total{tier=\"interval\"}",
        "preinfer_stage_duration_us_bucket{stage=\"prune\",le=\"+Inf\"}",
        "preinfer_stage_duration_us_count{stage=\"prune\"}",
        "preinfer_request_duration_us_bucket{verb=\"infer\",le=\"+Inf\"}",
        "preinfer_queue_wait_us_count",
        "preinfer_queue_depth",
        "preinfer_queue_capacity 64",
        "preinfer_uptime_seconds",
        "preinfer_infer_results_total{result=\"ok\"} 2",
        "preinfer_traces_retained_total{reason=\"head\"} 1",
        "preinfer_traces_retained_total{reason=\"context\"} 1",
        "preinfer_trace_buffer_entries 2",
        // The context-carrying request's exemplar, on whatever latency
        // bucket its duration landed in.
        " # {trace_id=\"00112233445566778899aabbccddeeff\"} ",
    ] {
        assert!(text.contains(needle), "exposition lacks `{needle}`:\n{text}");
    }

    // Every line matches the text format: comments are HELP/TYPE, samples
    // end in a parseable value (with an optional OpenMetrics exemplar
    // suffix on bucket lines), histogram bucket counts are cumulative.
    let mut last_bucket: Option<(String, u64)> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (sample, exemplar) = match line.split_once(" # ") {
            Some((s, e)) => (s, Some(e)),
            None => (line, None),
        };
        if let Some(ex) = exemplar {
            // `# {label="..."} value`, and only on bucket lines.
            assert!(sample.contains("_bucket{"), "exemplar on a non-bucket line: {line}");
            let (labels, ex_value) =
                ex.rsplit_once(' ').unwrap_or_else(|| panic!("no exemplar value: {line}"));
            assert!(
                labels.starts_with("{trace_id=\"") && labels.ends_with("\"}"),
                "bad exemplar labels: {line}"
            );
            assert!(ex_value.parse::<f64>().is_ok(), "unparseable exemplar value: {line}");
        }
        let (series, value) = sample.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable sample value: {line}"
        );
        if let Some((name, _)) = series.split_once('{') {
            if name.ends_with("_bucket") {
                let v: u64 = value.parse().expect("bucket counts are integers");
                let key = series.split("le=").next().unwrap_or(series).to_string();
                if let Some((prev_key, prev)) = &last_bucket {
                    if *prev_key == key {
                        assert!(v >= *prev, "bucket counts must be cumulative: {line}");
                    }
                }
                last_bucket = Some((key, v));
                continue;
            }
        }
        last_bucket = None;
    }
    server.handle().shutdown();
    server.join();
}

/// A request the daemon samples itself is recorded under a trace id it
/// mints: the retained trace carries a 32-hex id, `trace --trace-id`
/// serves it, and the request's `infer` latency sample links to it as an
/// exemplar.
#[test]
fn self_sampled_traces_get_a_trace_id_and_an_exemplar() {
    let server = Server::start(ServerConfig {
        shell: ShellConfig { trace_sample: 1, ..ShellConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
    cl.infer(&motivating_req()).expect("infer round-trip");
    let traces = |resp: server::json::Json| -> Vec<server::json::Json> {
        resp.get("traces").and_then(|t| t.as_array()).expect("traces array").to_vec()
    };
    let last = traces(cl.trace(TraceSelect::Last(1)).expect("trace round-trip"));
    assert_eq!(last.len(), 1, "the sampled request was not retained");
    let tid = last[0].str_field("trace_id").expect("retained trace has a trace_id").to_string();
    assert!(
        tid.len() == 32 && tid.chars().all(|c| c.is_ascii_hexdigit()),
        "trace id {tid:?} is not 32 hex digits"
    );
    let by_id = traces(cl.trace(TraceSelect::ByTraceId(tid.clone())).expect("trace round-trip"));
    assert_eq!(by_id.len(), 1, "trace --trace-id {tid} found nothing");
    assert_eq!(by_id[0].u64_field("request_id"), Some(1));
    let resp = cl.metrics().expect("metrics round-trip");
    let text = resp.str_field("text").expect("exposition text");
    let exemplar = format!(" # {{trace_id=\"{tid}\"}} ");
    assert!(
        text.lines().any(|l| {
            l.starts_with("preinfer_request_duration_us_bucket{verb=\"infer\",")
                && l.contains(&exemplar)
        }),
        "infer latency lacks the sampled request's exemplar:\n{text}"
    );
    server.handle().shutdown();
    server.join();
}

/// An `infer` answered inline — here a typed `overloaded` rejection,
/// which never reaches a worker — still leaves its sampled trace_id as
/// the exemplar on the infer latency histogram. Exemplars are kept only
/// for samples of at least ~1 ms, so the rejected program carries a
/// ~220 KB comment: decoding it makes even the rejection that slow.
#[test]
fn inline_overloaded_replies_keep_their_latency_exemplar() {
    let tid = "0123456789abcdef0123456789abcdef";
    let mut probe = motivating_req();
    probe.program.push_str(&"// padding keeps this frame slow to decode\n".repeat(5_000));
    probe.trace = Some(server::TraceContext {
        trace_id: tid.to_string(),
        parent_span_id: None,
        sampled: true,
    });
    // 4000 uncalled functions make a filler ~20x slower for a worker to
    // compile than for the connection core to decode.
    let mut filler = motivating_req();
    for i in 0..4_000 {
        filler.program.push_str(&format!("fn pad{i}(x int) -> int {{ return x + {i}; }}\n"));
    }
    let frames = [("fill-0", &filler), ("fill-1", &filler), ("probe", &probe)];
    // One worker and one queue slot: the first filler occupies the
    // worker, the second takes the slot while the first compiles, so the
    // probe pipelined behind them is rejected. Timing-dependent, so allow
    // a few rounds on fresh daemons.
    for _round in 0..5 {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        })
        .expect("bind loopback");
        let mut cl = Client::connect(&server.local_addr().to_string()).expect("connect");
        for (id, req) in frames {
            let frame = server::protocol::render_infer(Some(id), req);
            server::protocol::write_frame(cl.stream_mut(), &frame).expect("pipelined write");
        }
        let mut rejected = false;
        for _ in 0..frames.len() {
            let resp = cl.read_response().expect("pipelined response");
            if resp.str_field("id") == Some("probe") {
                rejected = resp.str_field("error") == Some("overloaded");
            }
        }
        if rejected {
            let resp = cl.metrics().expect("metrics round-trip");
            let text = resp.str_field("text").expect("exposition text");
            let exemplar = format!(" # {{trace_id=\"{tid}\"}} ");
            assert!(
                text.lines().any(|l| {
                    l.starts_with("preinfer_request_duration_us_bucket{verb=\"infer\",")
                        && l.contains(&exemplar)
                }),
                "infer latency lacks the overloaded reply's exemplar:\n{text}"
            );
        }
        server.handle().shutdown();
        server.join();
        if rejected {
            return;
        }
    }
    panic!("a probe pipelined behind two fillers was never rejected by a 1-slot queue");
}

/// The tentpole invariant: per-request recording sinks never change a
/// served answer. Every corpus subject's ψ is byte-identical between a
/// daemon that samples every request and one that never samples.
#[test]
fn sampling_never_changes_a_served_psi_across_the_corpus() {
    let sampled = Server::start(ServerConfig {
        shell: ShellConfig { trace_sample: 1, slow_trace_ms: Some(0), ..ShellConfig::default() },
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let plain = Server::start(ServerConfig::default()).expect("bind loopback");
    let mut cl_sampled = Client::connect(&sampled.local_addr().to_string()).expect("connect");
    let mut cl_plain = Client::connect(&plain.local_addr().to_string()).expect("connect");

    let corpus = subjects::all_subjects();
    assert!(corpus.len() >= 50, "corpus unexpectedly small: {}", corpus.len());
    for m in &corpus {
        let req = infer_req(m.source, m.name);
        let with = served_psis(&cl_sampled.infer(&req).expect("infer (sampled)"))
            .unwrap_or_else(|| panic!("{}: sampled daemon errored", m.name));
        let without = served_psis(&cl_plain.infer(&req).expect("infer (plain)"))
            .unwrap_or_else(|| panic!("{}: plain daemon errored", m.name));
        assert_eq!(with, without, "{}: sampling changed a served ψ", m.name);
    }
    // Sanity: the sampled daemon actually recorded per-request traces.
    let stats = cl_sampled.stats().expect("stats round-trip");
    let retained = stats
        .get("traces")
        .and_then(|t| t.get("retained_head"))
        .and_then(|v| v.as_u64())
        .expect("stats carries traces.retained_head");
    assert_eq!(retained, corpus.len() as u64, "every request should have been head-sampled");

    sampled.handle().shutdown();
    sampled.join();
    plain.handle().shutdown();
    plain.join();
}
