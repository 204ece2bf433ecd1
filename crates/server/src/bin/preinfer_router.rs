//! `preinfer-router` — key-affinity sharding front for `preinferd`. Its
//! flags are in `USAGE` below and in the shared part `server::shell`
//! prints after it.

use server::{shell, Router, RouterConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: preinfer-router --shard HOST:PORT [--shard HOST:PORT ...]\n\
     \x20                      [--addr HOST:PORT] [--idle-timeout-ms N]\n\
     \x20                      [--trace-sample N] [--slow-trace-ms N]\n\
     \x20                      [--trace-buffer K]\n\
     \n\
     Fronts N preinferd shard daemons with key-affinity routing: every\n\
     infer request's target method is canonicalized (α-renamed) and\n\
     hashed, so α-equivalent methods always reach the shard whose\n\
     caches already hold their verdicts. stats/metrics/trace fan out\n\
     to every shard and merge; ping answers locally. The router holds\n\
     one pipelined connection to each shard. A shard with no live\n\
     connection yields a typed `upstream_unavailable` error and is\n\
     re-dialed with bounded backoff.\n\
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
        (flag == "--shard").then(|| cfg.shards.push(value.to_string()))
    });
    if cfg.shards.is_empty() {
        shell::refuse(USAGE);
    }
    shell::serve("preinfer-router", Router::start(cfg))
}
