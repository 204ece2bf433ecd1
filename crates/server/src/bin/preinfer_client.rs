//! `preinfer-client` — CLI client and load generator for `preinferd`.
//!
//! ```text
//! preinfer-client --addr HOST:PORT ping
//! preinfer-client --addr HOST:PORT stats
//! preinfer-client --addr HOST:PORT metrics
//! preinfer-client --addr HOST:PORT trace [--last K | --request-id N | --trace-id X]
//! preinfer-client --addr HOST:PORT infer program.ml [--fn NAME]
//!                 [--deadline-ms N] [--tests N] [--jobs N]
//! preinfer-client --addr HOST:PORT corpus [NAME] [--check-offline]
//! preinfer-client --addr HOST:PORT load --requests N --concurrency C
//!                 [--pipeline D] [--duration-s S] [--deadline-ms N]
//!                 [--label-shards N]
//!                 [--out BENCH_server.json]
//! ```
//!
//! * `metrics` prints the daemon's Prometheus text exposition verbatim
//!   (pipe it to a scrape file or `promtool check metrics`).
//! * `trace` prints retained request traces: a summary header per trace on
//!   stderr, the recorded events as JSON lines on stdout — so
//!   `preinfer-client trace --last 1 | preinfer-trace -` just works.
//! * `infer` submits one program and prints the served preconditions.
//! * `corpus` submits evaluation-corpus subjects by name (all of them
//!   without a NAME); with `--check-offline` it also runs the offline
//!   pipeline locally and exits non-zero unless every served ψ is
//!   byte-identical — the scriptable form of the differential test.
//! * `load` is the load generator: C connections submitting N requests
//!   total (or running for `--duration-s` seconds), each keeping
//!   `--pipeline` requests in flight, reporting throughput and latency
//!   quantiles (p50/p90/p99/p99.9) to stdout and to a
//!   `BENCH_server.json` file. `--label-shards` tags the report with the
//!   server topology being measured.

use server::{served_psis, Client, Histogram, InferRequest};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: preinfer-client --addr HOST:PORT <command>\n\
         \n\
         commands:\n\
         \x20 ping                              liveness check\n\
         \x20 stats                             cache counters + latency histograms\n\
         \x20 metrics                           Prometheus text exposition\n\
         \x20 trace [--last K | --request-id N | --trace-id X]\n\
         \x20                                   retained request traces (events\n\
         \x20                                   as JSON lines on stdout);\n\
         \x20                                   --trace-id fetches a stitched\n\
         \x20                                   multi-process distributed trace\n\
         \x20 infer FILE [--fn NAME] [--deadline-ms N] [--tests N] [--jobs N]\n\
         \x20 corpus [NAME] [--check-offline]   submit corpus subject(s);\n\
         \x20                                   --check-offline diffs against the\n\
         \x20                                   local offline pipeline\n\
         \x20 load --requests N --concurrency C [--pipeline D] [--duration-s S]\n\
         \x20      [--deadline-ms N] [--label-shards N]\n\
         \x20      [--out FILE]                 load generator: C connections,\n\
         \x20                                   D requests in flight each\n\
         \x20                                   (default 1); --duration-s runs\n\
         \x20                                   for S seconds instead of a\n\
         \x20                                   fixed request count (default\n\
         \x20                                   out: BENCH_server.json)"
    );
    std::process::exit(2);
}

struct Common {
    addr: String,
    rest: Vec<String>,
}

fn parse_common() -> Common {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next(),
            "--help" | "-h" => usage(),
            _ => rest.push(a),
        }
    }
    let Some(addr) = addr else { usage() };
    if rest.is_empty() {
        usage();
    }
    Common { addr, rest }
}

fn flag_value(rest: &[String], flag: &str) -> Option<String> {
    rest.iter().position(|a| a == flag).and_then(|i| rest.get(i + 1).cloned())
}

fn parse_u64_flag(rest: &[String], flag: &str) -> Option<u64> {
    flag_value(rest, flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
}

fn main() -> ExitCode {
    let c = parse_common();
    match c.rest[0].as_str() {
        "ping" => simple(&c.addr, |cl| cl.ping()),
        "stats" => simple(&c.addr, |cl| cl.stats()),
        "metrics" => cmd_metrics(&c),
        "trace" => cmd_trace(&c),
        "infer" => cmd_infer(&c),
        "corpus" => cmd_corpus(&c),
        "load" => cmd_load(&c),
        _ => usage(),
    }
}

fn simple(
    addr: &str,
    f: impl FnOnce(&mut Client) -> Result<server::json::Json, server::ClientError>,
) -> ExitCode {
    let mut cl = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            return ExitCode::FAILURE;
        }
    };
    match f(&mut cl) {
        Ok(resp) => {
            println!("{}", render(&resp));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            ExitCode::FAILURE
        }
    }
}

use server::json::render;

/// `metrics`: print the exposition text verbatim, not re-rendered JSON —
/// the output is meant for Prometheus tooling.
fn cmd_metrics(c: &Common) -> ExitCode {
    let mut cl = match Client::connect(&c.addr) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cl.metrics() {
        Ok(resp) => match resp.str_field("text") {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("preinfer-client: malformed metrics response: {}", render(&resp));
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `trace`: summary per trace on stderr, recorded events as JSON lines on
/// stdout (pipeable straight into `preinfer-trace -`).
fn cmd_trace(c: &Common) -> ExitCode {
    use server::TraceSelect;
    let select = match (
        parse_u64_flag(&c.rest, "--request-id"),
        parse_u64_flag(&c.rest, "--last"),
        flag_value(&c.rest, "--trace-id"),
    ) {
        (Some(rid), None, None) => TraceSelect::ById(rid),
        (None, k, None) => TraceSelect::Last(k.unwrap_or(1).max(1)),
        // Against a router this returns the stitched multi-process trace:
        // the router part plus every shard part sharing the trace id.
        (None, None, Some(tid)) => TraceSelect::ByTraceId(tid),
        _ => usage(),
    };
    let mut cl = match Client::connect(&c.addr) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            return ExitCode::FAILURE;
        }
    };
    let resp = match cl.trace(select) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(traces) = resp.get("traces").and_then(|t| t.as_array()) else {
        eprintln!("preinfer-client: malformed trace response: {}", render(&resp));
        return ExitCode::FAILURE;
    };
    if traces.is_empty() {
        eprintln!("preinfer-client: no retained traces match");
        return ExitCode::FAILURE;
    }
    for t in traces {
        // The owning tier: the router tags its parts with `process`, the
        // merged shard parts carry their shard index.
        let tier = match (t.str_field("process"), t.u64_field("shard")) {
            (Some(p), _) => format!(" {p}"),
            (None, Some(s)) => format!(" shard={s}"),
            (None, None) => String::new(),
        };
        eprintln!(
            "# request {}{} func={} reason={} trace_id={} queue_us={} service_us={}",
            t.u64_field("request_id").unwrap_or(0),
            tier,
            t.str_field("func").unwrap_or("?"),
            t.str_field("reason").unwrap_or("?"),
            t.str_field("trace_id").unwrap_or("-"),
            t.u64_field("queue_us").unwrap_or(0),
            t.u64_field("service_us").unwrap_or(0),
        );
        for ev in t.get("events").and_then(|e| e.as_array()).unwrap_or(&[]) {
            println!("{}", render(ev));
        }
    }
    ExitCode::SUCCESS
}

fn infer_request_from_flags(program: String, rest: &[String]) -> InferRequest {
    InferRequest {
        program,
        func: flag_value(rest, "--fn"),
        deadline_ms: parse_u64_flag(rest, "--deadline-ms"),
        tests: parse_u64_flag(rest, "--tests").map(|v| v as usize),
        jobs: parse_u64_flag(rest, "--jobs").unwrap_or(1) as usize,
        trace: None,
    }
}

fn cmd_infer(c: &Common) -> ExitCode {
    let Some(path) = c.rest.get(1).filter(|p| !p.starts_with("--")) else { usage() };
    let program = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("preinfer-client: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let req = infer_request_from_flags(program, &c.rest);
    simple(&c.addr, move |cl| cl.infer(&req))
}

fn cmd_corpus(c: &Common) -> ExitCode {
    let check_offline = c.rest.iter().any(|a| a == "--check-offline");
    let name = c.rest.get(1).filter(|a| !a.starts_with("--")).cloned();
    let subjects: Vec<subjects::SubjectMethod> = subjects::all_subjects()
        .into_iter()
        .filter(|m| name.as_deref().map(|n| m.name == n).unwrap_or(true))
        .collect();
    if subjects.is_empty() {
        eprintln!("preinfer-client: no corpus subject named {:?}", name.unwrap_or_default());
        return ExitCode::FAILURE;
    }
    let mut cl = match Client::connect(&c.addr) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("preinfer-client: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut mismatches = 0usize;
    for m in &subjects {
        let req = InferRequest {
            program: m.source.to_string(),
            func: Some(m.name.to_string()),
            deadline_ms: None,
            tests: None,
            jobs: 1,
            trace: None,
        };
        let resp = match cl.infer(&req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("preinfer-client: {}: {e}", m.name);
                return ExitCode::FAILURE;
            }
        };
        let Some(served) = served_psis(&resp) else {
            eprintln!("preinfer-client: {}: server error: {}", m.name, render(&resp));
            return ExitCode::FAILURE;
        };
        if check_offline {
            let offline = offline_psis(m);
            if served == offline {
                println!("{}: OK ({} precondition(s) match offline)", m.name, served.len());
            } else {
                mismatches += 1;
                eprintln!(
                    "{}: MISMATCH\n  served:  {:?}\n  offline: {:?}",
                    m.name, served, offline
                );
            }
        } else {
            println!("{}: {} precondition(s): {:?}", m.name, served.len(), served);
        }
    }
    if mismatches > 0 {
        eprintln!("preinfer-client: {mismatches} subject(s) diverged from offline");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The offline pipeline's rendered ψ strings for one subject, in ACL order
/// (mirrors `service::run_infer` exactly, minus the daemon).
fn offline_psis(m: &subjects::SubjectMethod) -> Vec<String> {
    let tp = m.compile();
    let suite = testgen::generate_tests(&tp, m.name, &testgen::TestGenConfig::default());
    let cfg = preinfer_core::PreInferConfig::default();
    preinfer_core::infer_all_preconditions(&tp, m.name, &suite, &cfg, 1)
        .iter()
        .map(|(_, inf)| inf.precondition.psi.to_string())
        .collect()
}

fn cmd_load(c: &Common) -> ExitCode {
    let requests = parse_u64_flag(&c.rest, "--requests").unwrap_or(50) as usize;
    let concurrency = (parse_u64_flag(&c.rest, "--concurrency").unwrap_or(4) as usize).max(1);
    let pipeline = (parse_u64_flag(&c.rest, "--pipeline").unwrap_or(1) as usize).max(1);
    let duration_s = parse_u64_flag(&c.rest, "--duration-s");
    let deadline_ms = parse_u64_flag(&c.rest, "--deadline-ms");
    let label_shards = parse_u64_flag(&c.rest, "--label-shards").unwrap_or(1);
    let out_path = flag_value(&c.rest, "--out").unwrap_or_else(|| "BENCH_server.json".to_string());
    // A small, fast subject keeps the loop tight; the warm cache makes
    // repeat submissions cheap, which is exactly what we are measuring.
    let subject = subjects::all_subjects()
        .into_iter()
        .find(|m| m.name == "guarded_div")
        .expect("corpus has guarded_div");
    let program = subject.source.to_string();
    let func = subject.name.to_string();

    let latency = Arc::new(Histogram::new());
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let timed_out = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let stop_at = duration_s.map(|s| started + std::time::Duration::from_secs(s));
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            let (latency, ok, overloaded, timed_out, failed, next) = (
                Arc::clone(&latency),
                Arc::clone(&ok),
                Arc::clone(&overloaded),
                Arc::clone(&timed_out),
                Arc::clone(&failed),
                Arc::clone(&next),
            );
            let (addr, program, func) = (c.addr.clone(), program.clone(), func.clone());
            scope.spawn(move || {
                let Ok(mut cl) = Client::connect(&addr) else {
                    failed.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let req = InferRequest {
                    program,
                    func: Some(func),
                    deadline_ms,
                    tests: None,
                    jobs: 1,
                    trace: None,
                };
                // In duration mode the stop condition is the clock; in
                // request mode it is the shared allocation counter.
                let may_issue = |next: &AtomicUsize| match stop_at {
                    Some(t) => Instant::now() < t,
                    None => next.fetch_add(1, Ordering::Relaxed) < requests,
                };
                // `--pipeline D` keeps D requests in flight per
                // connection; responses can complete out of order (the
                // daemon's workers finish in any order), so each carries
                // a unique id and latency is matched by id.
                let mut pending: std::collections::HashMap<String, Instant> =
                    std::collections::HashMap::new();
                let mut seq = 0u64;
                loop {
                    while pending.len() < pipeline && may_issue(&next) {
                        let id = format!("q{seq}");
                        seq += 1;
                        let frame = server::protocol::render_infer(Some(&id), &req);
                        if server::protocol::write_frame(cl.stream_mut(), &frame).is_err() {
                            failed.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        pending.insert(id, Instant::now());
                    }
                    if pending.is_empty() {
                        return;
                    }
                    let resp = match server::protocol::read_frame(cl.stream_mut())
                        .ok()
                        .and_then(|text| server::json::parse(&text).ok())
                    {
                        Some(r) => r,
                        None => {
                            // Connection gone: every in-flight request dies.
                            failed.fetch_add(pending.len() as u64, Ordering::Relaxed);
                            return;
                        }
                    };
                    if let Some(t0) = resp.str_field("id").and_then(|id| pending.remove(id)) {
                        latency.record(t0.elapsed());
                    }
                    if resp.str_field("error") == Some("overloaded") {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    } else if resp.get("ok").and_then(|v| v.as_bool()) == Some(true) {
                        ok.fetch_add(1, Ordering::Relaxed);
                        if resp.get("timed_out").and_then(|v| v.as_bool()) == Some(true) {
                            timed_out.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (p50, p90, p99) = latency.percentiles_us();
    let p999 = latency.quantile_us(0.999);
    let completed = ok.load(Ordering::Relaxed);
    let report = server::json::ObjBuilder::new()
        .str("workload", "guarded_div infer")
        .u64("shards", label_shards)
        .u64("requests", if stop_at.is_some() { completed } else { requests as u64 })
        .u64("concurrency", concurrency as u64)
        .u64("pipeline_depth", pipeline as u64)
        .u64("duration_s", duration_s.unwrap_or(0))
        .u64("completed", completed)
        .u64("overloaded", overloaded.load(Ordering::Relaxed))
        .u64("timed_out", timed_out.load(Ordering::Relaxed))
        .u64("failed", failed.load(Ordering::Relaxed))
        .f64("wall_s", elapsed)
        .f64("throughput_rps", if elapsed > 0.0 { completed as f64 / elapsed } else { 0.0 })
        .f64("p50_ms", p50 as f64 / 1e3)
        .f64("p90_ms", p90 as f64 / 1e3)
        .f64("p99_ms", p99 as f64 / 1e3)
        .f64("p999_ms", p999 as f64 / 1e3)
        .f64("mean_ms", latency.mean_us() as f64 / 1e3)
        .build();
    println!("{report}");
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("preinfer-client: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
