"""Cross-checks the two renderings of one process's registry: every value
that both the `stats` verb and the `metrics` verb serve must be equal.

    python3 scripts/check_observables.py STATS_JSON METRICS_TEXT

STATS_JSON is a `stats` response and METRICS_TEXT a `metrics` exposition,
scraped back to back from an idle preinferd or preinfer-router.
For a router the check covers its own `router` block against its own
series and each nested shard report against that shard's `shard="i"`
series. Values that move between two scrapes are not compared: uptime,
open connections and connection/request counts (each scrape is a
connection and a request), the router's fan-out count, resident bytes,
and the `stats`/`metrics` verb latencies.
"""

import json
import sys

# `stats` key path -> series, for values both verbs serve and that hold
# still while the process is idle.
DAEMON = {
    "counters.infers_ok": 'preinfer_infer_results_total{result="ok"}',
    "counters.infer_errors": 'preinfer_infer_results_total{result="error"}',
    "counters.overloaded": 'preinfer_infer_results_total{result="overloaded"}',
    "counters.timed_out": 'preinfer_infer_results_total{result="timed_out"}',
    "counters.queue_depth": "preinfer_queue_depth",
    "counters.queue_capacity": "preinfer_queue_capacity",
    "counters.bad_requests": "preinfer_bad_requests_total",
    "counters.idle_closed": 'preinfer_connection_events_total{event="idle_closed"}',
    "cache.hits": 'preinfer_cache_lookups_total{result="hit"}',
    "cache.misses": 'preinfer_cache_lookups_total{result="miss"}',
    "cache.entries": "preinfer_cache_entries",
    "cache.evictions": "preinfer_cache_eviction_sweeps_total",
    "cache.evicted_entries": "preinfer_cache_evicted_entries_total",
    "memory.cache_bytes": "preinfer_cache_bytes",
    "solver_tiers.answered_by_syntactic": 'preinfer_solver_tier_answers_total{tier="syntactic"}',
    "solver_tiers.answered_by_interval": 'preinfer_solver_tier_answers_total{tier="interval"}',
    "solver_tiers.answered_by_simplex": 'preinfer_solver_tier_answers_total{tier="simplex"}',
    "solver_tiers.escalations": "preinfer_solver_escalations_total",
    "solver_incremental.sessions": "preinfer_solver_incremental_sessions_total",
    "solver_incremental.queries": "preinfer_solver_incremental_queries_total",
    "solver_incremental.pushes": "preinfer_solver_incremental_pushes_total",
    "solver_incremental.pops": "preinfer_solver_incremental_pops_total",
    "solver_incremental.reused_depth_sum": "preinfer_solver_incremental_reused_depth_total",
    "summaries.hits": 'preinfer_summary_table_lookups_total{result="hit"}',
    "summaries.misses": 'preinfer_summary_table_lookups_total{result="miss"}',
    "summaries.inserts": "preinfer_summary_table_inserts_total",
    "summaries.entries": "preinfer_summary_table_entries",
    "summaries.applies": "preinfer_summary_applies_total",
    "summaries.fallbacks": "preinfer_summary_fallbacks_total",
    "latency.infer.count": 'preinfer_request_duration_us_count{verb="infer"}',
    "latency.queue_wait.count": "preinfer_queue_wait_us_count",
}
ROUTER = {
    "shards": "preinfer_router_shards",
    "live_upstreams": "preinfer_router_upstream_connections",
    "forwarded": "preinfer_router_forwarded_total",
    "unavailable": "preinfer_router_unavailable_total",
    "reconnects": "preinfer_router_reconnects_total",
    "unmatched": "preinfer_router_unmatched_total",
    "bad_requests": "preinfer_bad_requests_total",
    "idle_closed": 'preinfer_connection_events_total{event="idle_closed"}',
}
# Both processes serve their trace ring the same way.
TRACES = {
    "traces.buffered": "preinfer_trace_buffer_entries",
    "traces.retained_head": 'preinfer_traces_retained_total{reason="head"}',
    "traces.retained_slow": 'preinfer_traces_retained_total{reason="slow"}',
    "traces.retained_context": 'preinfer_traces_retained_total{reason="context"}',
    "traces.evicted": "preinfer_traces_evicted_total",
}


def daemon_pairs(stats):
    pairs = dict(DAEMON, **TRACES)
    for stage in stats["stages"]:
        pairs[f"stages.{stage}.count"] = f'preinfer_stage_duration_us_count{{stage="{stage}"}}'
        pairs[f"stages.{stage}.total_us"] = f'preinfer_stage_duration_us_sum{{stage="{stage}"}}'
    for arena in stats["memory"]["arena_nodes"]:
        pairs[f"memory.arena_nodes.{arena}"] = f'preinfer_arena_nodes{{arena="{arena}"}}'
    return pairs


def with_shard(series, shard):
    """The series as the router's merged exposition labels it."""
    name, brace, rest = series.partition("{")
    return f'{name}{{shard="{shard}"' + ("," + rest if brace else "}")


def check(what, stats, pairs, samples, shard=None):
    for path, series in pairs.items():
        value = stats
        for key in path.split("."):
            value = value[key]
        if shard is not None:
            series = with_shard(series, shard)
        assert series in samples, f"{what}: no series {series} for stats {path}"
        assert value == samples[series], (
            f"{what}: stats {path} = {value} but metrics {series} = {samples[series]}")
    return len(pairs)


stats = json.load(open(sys.argv[1]))
samples = {}
for line in open(sys.argv[2]).read().splitlines():
    if line and not line.startswith("#"):
        series, value = line.partition(" # ")[0].rsplit(" ", 1)
        samples[series] = float(value)

if "router" in stats:
    n = check("router", stats["router"], dict(ROUTER, **TRACES), samples)
    for part in stats["shards"]:
        shard = part["shard"]
        n += check(f"shard {shard}", part["stats"], daemon_pairs(part["stats"]), samples, shard)
    what = f"router + {len(stats['shards'])} shards"
else:
    n = check("daemon", stats, daemon_pairs(stats), samples)
    what = "daemon"
print(f"observables cross-check ({what}): {n} values equal in stats and metrics")
