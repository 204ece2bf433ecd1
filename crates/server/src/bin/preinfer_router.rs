//! `preinfer-router` — key-affinity sharding front for `preinferd`. Its
//! flags are in `USAGE` below and in the shared part `server::shell`
//! prints after it.

use server::{shell, Router, RouterConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: preinfer-router --shard HOST:PORT [--shard HOST:PORT ...]\n\
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
     is re-dialed with bounded backoff. --conns-per-shard N (default 2)\n\
     pools upstream connections per shard.\n\
     \n\
     Shard order is the hash space: restart the router with the same\n\
     --shard list in the same order to keep affinity. Shards keep\n\
     running when the router stops; stop them separately.\n\
     \n\
     Distributed tracing: the tracing flags sample routed infer\n\
     requests. The router mints a 128-bit trace context, records its\n\
     own route/upstream spans, and injects the context into the\n\
     forwarded frame so the shard records under the same trace_id;\n\
     `trace --trace-id X` then returns the stitched multi-process\n\
     trace.";

fn main() -> ExitCode {
    let mut cfg = RouterConfig::default();
    shell::parse_flags(USAGE, &mut cfg.shell, |flag, value| {
        match flag {
            "--shard" => cfg.shards.push(value.to_string()),
            "--conns-per-shard" => cfg.conns_per_shard = shell::positive(value)?,
            _ => return None,
        }
        Some(())
    });
    if cfg.shards.is_empty() {
        shell::refuse(USAGE);
    }
    shell::serve("preinfer-router", Router::start(cfg))
}
