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
//!
//! Exit status: 0 on success; 1 when the daemon answers `"ok":false`
//! (the reply is still printed) or cannot be reached; 2 with the usage
//! text on a flag the command does not take or a flag without its value.

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

/// One command's arguments after the command word: at most `positional`
/// plain arguments, the flags in `valued` each with a value, and the
/// switches in `switches`. Anything else is a usage error.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(rest: &[String], positional: usize, valued: &[&str], switches: &[&str]) -> Args {
        let mut args = Args { positional: Vec::new(), flags: Vec::new() };
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let value = it.next().filter(|v| !v.starts_with("--")).unwrap_or_else(|| usage());
                args.flags.push((a.clone(), Some(value.clone())));
            } else if switches.contains(&a.as_str()) {
                args.flags.push((a.clone(), None));
            } else if a.starts_with("--") || args.positional.len() == positional {
                usage();
            } else {
                args.positional.push(a.clone());
            }
        }
        args
    }

    fn value(&self, flag: &str) -> Option<String> {
        self.flags.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.clone())
    }

    fn u64(&self, flag: &str) -> Option<u64> {
        self.value(flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }
}

fn main() -> ExitCode {
    let c = parse_common();
    // What each command takes: positionals, flags with a value, switches.
    let (positional, valued, switches): (usize, &[&str], &[&str]) = match c.rest[0].as_str() {
        "ping" | "stats" | "metrics" => (0, &[], &[]),
        "trace" => (0, &["--last", "--request-id", "--trace-id"], &[]),
        "infer" => (1, &["--fn", "--deadline-ms", "--tests"], &[]),
        "corpus" => (1, &[], &["--check-offline"]),
        _ => usage(),
    };
    let args = Args::parse(&c.rest[1..], positional, valued, switches);
    match c.rest[0].as_str() {
        "ping" => simple(&c.addr, |cl| cl.ping()),
        "stats" => simple(&c.addr, |cl| cl.stats()),
        "metrics" => cmd_metrics(&c.addr),
        "trace" => cmd_trace(&c.addr, &args),
        "infer" => cmd_infer(&c.addr, &args),
        _ => cmd_corpus(&c.addr, &args),
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
            if resp.get("ok").and_then(|v| v.as_bool()) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
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
fn cmd_metrics(addr: &str) -> ExitCode {
    let mut cl = match Client::connect(addr) {
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
fn cmd_trace(addr: &str, args: &Args) -> ExitCode {
    use server::TraceSelect;
    let select = match (args.u64("--request-id"), args.u64("--last"), args.value("--trace-id")) {
        (Some(rid), None, None) => TraceSelect::ById(rid),
        (None, k, None) => TraceSelect::Last(k.unwrap_or(1).max(1)),
        // Against a router this returns the stitched multi-process trace:
        // the router part plus every shard part sharing the trace id.
        (None, None, Some(tid)) => TraceSelect::ByTraceId(tid),
        _ => usage(),
    };
    let mut cl = match Client::connect(addr) {
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

fn cmd_infer(addr: &str, args: &Args) -> ExitCode {
    let Some(path) = args.positional.first() else { usage() };
    let program = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("preinfer-client: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let req = InferRequest {
        program,
        func: args.value("--fn"),
        deadline_ms: args.u64("--deadline-ms"),
        tests: args.u64("--tests").map(|v| v as usize),
        trace: None,
    };
    simple(addr, move |cl| cl.infer(&req))
}

fn cmd_corpus(addr: &str, args: &Args) -> ExitCode {
    let check_offline = args.has("--check-offline");
    let name = args.positional.first().cloned();
    let subjects: Vec<subjects::SubjectMethod> = subjects::all_subjects()
        .into_iter()
        .filter(|m| name.as_deref().map(|n| m.name == n).unwrap_or(true))
        .collect();
    if subjects.is_empty() {
        eprintln!("preinfer-client: no corpus subject named {:?}", name.unwrap_or_default());
        return ExitCode::FAILURE;
    }
    let mut cl = match Client::connect(addr) {
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
