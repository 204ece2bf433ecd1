//! `preinfer-router` — key-affinity sharding front for `preinferd`.
//!
//! ```text
//! preinfer-router --shard HOST:PORT [--shard HOST:PORT ...]
//!                 [--addr HOST:PORT] [--conns-per-shard N]
//!                 [--idle-timeout-ms N]
//!                 [--trace-sample N] [--slow-trace-ms N] [--trace-buffer K]
//! ```
//!
//! Prints `listening on HOST:PORT` once bound. SIGTERM/SIGINT drains
//! downstream connections and exits 0 (shards keep running; stop them
//! separately).

use server::{Router, RouterConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: preinfer-router --shard HOST:PORT [--shard HOST:PORT ...]\n\
         \x20                      [--addr HOST:PORT] [--conns-per-shard N]\n\
         \x20                      [--idle-timeout-ms N] [--trace-sample N]\n\
         \x20                      [--slow-trace-ms N] [--trace-buffer K]\n\
         \n\
         Fronts N preinferd shard daemons with key-affinity routing: every\n\
         infer request's target method is canonicalized (α-renamed) and\n\
         hashed, so α-equivalent methods always reach the shard whose\n\
         caches already hold their verdicts. stats/metrics/trace fan out\n\
         to every shard and merge; ping answers locally. A shard with no\n\
         live connection yields a typed `upstream_unavailable` error and\n\
         is re-dialed with bounded backoff.\n\
         \n\
         Shard order is the hash space: restart the router with the same\n\
         --shard list in the same order to keep affinity.\n\
         \n\
         Distributed tracing: --trace-sample N head-samples every N-th\n\
         routed infer request (deterministic, 0 = off) — the router mints\n\
         a 128-bit trace context, records its own route/upstream spans,\n\
         and injects the context into the forwarded frame so the shard\n\
         records under the same trace_id; `trace --trace-id X` then\n\
         returns the stitched multi-process trace. --slow-trace-ms T also\n\
         retains any routed request slower than T ms end-to-end (absent =\n\
         off, 0 = every request), as on preinferd; --trace-buffer K\n\
         (default 64) bounds the retained-trace ring.\n\
         \n\
         Defaults: --addr 127.0.0.1:0 (prints the bound port),\n\
         --conns-per-shard 2, --idle-timeout-ms 60000 (0 = off)."
    );
    std::process::exit(2);
}

fn parse_args() -> RouterConfig {
    let mut cfg = RouterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| usage()),
            "--shard" => cfg.shards.push(args.next().unwrap_or_else(|| usage())),
            "--conns-per-shard" => {
                cfg.conns_per_shard = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
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
    if cfg.shards.is_empty() {
        usage();
    }
    cfg
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let router = match Router::start(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("preinfer-router: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Parsed by scripts; keep the format stable.
    server::wait_for_signal(|| println!("listening on {}", router.local_addr()));
    eprintln!("preinfer-router: signal received, draining …");
    router.handle().shutdown();
    router.join();
    eprintln!("preinfer-router: drained, bye");
    ExitCode::SUCCESS
}
