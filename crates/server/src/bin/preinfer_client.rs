//! `preinfer-client` — CLI client for `preinferd`.
//!
//! ```text
//! preinfer-client --addr HOST:PORT ping
//! preinfer-client --addr HOST:PORT stats
//! preinfer-client --addr HOST:PORT metrics
//! preinfer-client --addr HOST:PORT trace [--last K | --request-id N | --trace-id X]
//! preinfer-client --addr HOST:PORT infer program.ml [--fn NAME]
//!                 [--deadline-ms N] [--tests N]
//! preinfer-client --addr HOST:PORT corpus [NAME] [--check-offline]
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

use server::{offline_psis, served_psis, Client, InferRequest};
use std::process::ExitCode;

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
         \x20 infer FILE [--fn NAME] [--deadline-ms N] [--tests N]\n\
         \x20 corpus [NAME] [--check-offline]   submit corpus subject(s);\n\
         \x20                                   --check-offline diffs against the\n\
         \x20                                   local offline pipeline"
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
            let offline = offline_psis(&m.compile(), m.name);
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
