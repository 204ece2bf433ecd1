//! `preinferd` — the resident precondition-inference daemon.
//!
//! ```text
//! preinferd [--addr HOST:PORT] [--workers N] [--queue N]
//!           [--idle-timeout-ms N]
//!           [--interproc inline|summary]
//!           [--trace-sample N] [--slow-trace-ms N] [--trace-buffer K]
//! ```
//!
//! One epoll thread serves every connection and a worker pool runs
//! inference; a connection may pipeline requests, answered in completion
//! order.
//!
//! Prints `listening on HOST:PORT` once bound (scripts parse this to learn
//! the port when binding `:0`). SIGTERM or SIGINT triggers a graceful
//! shutdown: the daemon stops accepting, in-flight and queued requests
//! drain, then the process exits 0.

use server::{Server, ServerConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: preinferd [--addr HOST:PORT] [--workers N] [--queue N]\n\
         \x20                [--idle-timeout-ms N]\n\
         \x20                [--interproc inline|summary]\n\
         \x20                [--trace-sample N] [--slow-trace-ms N]\n\
         \x20                [--trace-buffer K]\n\
         \n\
         Serves the PreInfer pipeline over the length-prefixed JSON protocol\n\
         (see PROTOCOL.md). Defaults: --addr 127.0.0.1:0 (prints the bound\n\
         port), --workers = cores, --queue 64. SIGTERM drains and exits 0.\n\
         \n\
         One event-driven thread serves every connection; a connection\n\
         may pipeline requests, and `infer` replies arrive in completion\n\
         order, matched by `id`.\n\
         \n\
         --idle-timeout-ms N (default 60000, 0 = off) closes connections\n\
         that stay silent with no in-flight work, with a typed\n\
         `idle_timeout` response.\n\
         \n\
         --interproc inline|summary (default inline) chooses how user\n\
         calls are handled: inline unrolls callee bodies; summary applies\n\
         bottom-up callee ψ-summaries at call sites, reusing a\n\
         daemon-lifetime table across requests (α-equivalent callee\n\
         closures hit instead of re-inferring; see `stats.summaries`).\n\
         \n\
         Tracing: --trace-sample N head-samples every N-th request\n\
         (deterministic, 0 = off); --slow-trace-ms T also retains any\n\
         request slower than T ms (absent = off, 0 = every request);\n\
         --trace-buffer K (default 64) bounds the retained-trace ring\n\
         served by the `trace` verb."
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| usage()),
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--workers" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--queue" => {
                cfg.queue_capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--interproc" => {
                cfg.interproc = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--trace-sample" => {
                cfg.trace_sample =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--slow-trace-ms" => {
                cfg.slow_trace_ms =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--trace-buffer" => {
                cfg.trace_buffer = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cfg
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("preinferd: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Parsed by scripts; keep the format stable.
    server::wait_for_signal(|| println!("listening on {}", server.local_addr()));
    eprintln!("preinferd: signal received, draining …");
    server.handle().shutdown();
    server.join();
    eprintln!("preinferd: drained, bye");
    ExitCode::SUCCESS
}
