#!/usr/bin/env bash
# Repository gate. In order: cargo fmt --check; clippy -D warnings;
# rustdoc -D warnings; the workspace tests; the four examples;
# symbolic/solver/testgen tests in release; perf_smoke
# (paired A/B timings written to target/perf_smoke/) and its gates on the
# solver cache, disabled-tracing noise, tiered vs simplex-only, incremental
# vs scratch and summary vs inline; the benchmark's ψ smoke
# (preinfer_bench --smoke, all four workloads) and the serving gates
# (throughput, peak RSS) on its serve and routed runs; the preinfer
# --trace-out and preinfer-trace smokes; and the preinferd, summary-mode
# preinferd, router and stitched-trace smokes, each checking served ψ
# against the offline run; the preinferd and router smokes also
# cross-check `stats` against `metrics`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the address a preinferd or preinfer-router logging to $1 bound
# (port 0 → OS-assigned, announced as `listening on HOST:PORT`), waiting
# up to 10 s for the announcement.
wait_for_addr() {
    local addr
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$1" | head -n1)"
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        sleep 0.1
    done
    echo "$1: never announced its address" >&2
    return 1
}

# The serving processes the smokes start, by name; each logs to NAME.out.
declare -A SERVING=()

# `start_serving NAME CMD...` runs CMD in the background, logging to
# NAME.out (`wait_for_addr NAME.out` then prints the address it bound).
start_serving() {
    local name="$1"
    shift
    "$@" >"$name.out" 2>&1 &
    SERVING[$name]=$!
}

# `stop_serving NAME...` sends each SIGTERM, which must drain it and exit
# 0, then removes its log.
stop_serving() {
    local name
    for name in "$@"; do kill -TERM "${SERVING[$name]}"; done
    for name in "$@"; do
        wait "${SERVING[$name]}" || { echo "$name exited non-zero after SIGTERM"; exit 1; }
        unset "SERVING[$name]"
        rm -f "$name.out"
    done
}

# On any exit, kill whatever serving process is still running and remove
# the serving smokes' files.
on_exit() {
    local name
    for name in "${!SERVING[@]}"; do
        kill "${SERVING[$name]}" 2>/dev/null || true
        rm -f "$name.out"
    done
    rm -f server_metrics.txt server_stats.json server_trace.jsonl server_trace_report.txt \
        summary_stats1.json summary_stats2.json router_trace_hdr.txt router_trace.jsonl \
        router_trace_report.txt router_metrics.txt router_stats.json
}
trap on_exit EXIT

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --quiet -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== cargo test"
cargo test --workspace -q

echo "== examples"
# An example that panics, or fails one of its assertions, fails the gate.
for example in quickstart reverse_words custom_template debugging_workflow; do
    cargo run --release --quiet --example "$example" >/dev/null
done

echo "== cargo test --release (symbolic, solver, testgen)"
# Canonical forms use wrapping arithmetic so debug and release builds
# agree (DESIGN.md §5e); release builds wrap on overflow silently, so the
# crates that fold and canonicalize terms are tested in release too.
cargo test --release -q -p symbolic -p solver -p testgen

echo "== perf smoke (BENCH_solver_cache.json, BENCH_solver_tiers.json, BENCH_solver_incremental.json, BENCH_interproc.json)"
# perf_smoke writes its four BENCH files under target/, so a gate run
# leaves the committed ones in the repository root untouched; the gates
# (each mechanism pays for itself) are in scripts/check_perf_smoke.py.
cargo build --release -p bench --quiet
./target/release/perf_smoke target/perf_smoke
python3 scripts/check_perf_smoke.py target/perf_smoke

echo "== benchmark ψ smoke (preinfer_bench --smoke, all four workloads)"
# The repository benchmark checks each of its 82 pinned methods against
# its ψ oracle, offline, served by preinferd and routed through
# preinfer-router, and exits non-zero on any failed request or ψ mismatch.
# It builds apart from target/ (into .bench_build/, as run.py does), and
# the workspace's `cargo test` never builds it, so its own unit tests run
# here too.
cargo build --release --quiet -p server --bin preinferd --bin preinfer-router \
    --target-dir .bench_build
cargo build --release --quiet --manifest-path preinfer_bench/Cargo.toml --target-dir .bench_build
cargo test --manifest-path preinfer_bench/Cargo.toml --target-dir .bench_build -q
./.bench_build/release/preinfer_bench --seed 1 --smoke

echo "== serving gate (preinfer_bench --smoke: serve_uniform, serve_zipf, routed_uniform)"
# The smoke above also measured the serving workloads: a default
# preinferd (and a router over two shards) running the real pipeline over
# the 82 pinned methods. Each must answer every request with the oracle's
# ψ, shed nothing, resolve a real latency tail, and keep its closed-loop
# throughput at or above a floor. Each floor is q1 - 3*IQR (linearly
# interpolated quartiles) of client.throughput_per_s over 10 smoke runs,
# seeds 1-10, on a 2-core x86_64 Linux host; the runs read (req/s)
#   serve_uniform  2344 2450 2512 2704 2832 2878 2896 2934 2976 3312
#   serve_zipf     2296 2564 2578 2672 2686 2928 3256 3342 3358 4052
#   routed_uniform 1946 1982 2004 2036 2040 2122 2290 2388 2450 3002
python3 - <<'EOF'
import json
FLOORS = {"serve_uniform": 1466.0, "serve_zipf": 444.0, "routed_uniform": 957.0}
runs = {r["workload"]: r for r in json.load(open(".bench_build/release/preinfer_bench.json"))}
for name, floor in FLOORS.items():
    r = runs[name]
    v = lambda metric: r["per_layer"][metric]["value"]
    assert r["failed"] == 0 and r["mismatches"] == 0, (
        f"{name}: {r['failed']} failed, {r['mismatches']} ψ mismatches")
    assert v("server.overloaded") == 0 and v("server.timed_out") == 0, (
        f"{name}: {v('server.overloaded'):.0f} overloaded, {v('server.timed_out'):.0f} timed out")
    p50, p90, p99 = (v(f"client.latency_{q}_ms") for q in ("p50", "p90", "p99"))
    assert p50 < p90 < p99, f"{name}: degenerate latency tail: p50 {p50} / p90 {p90} / p99 {p99} ms"
    rps = v("client.throughput_per_s")
    assert rps >= floor, f"{name}: {rps:.0f} req/s below the {floor:.0f} req/s floor"
    print(f"serving gate: {name} {rps:.0f} req/s (floor {floor:.0f}), "
          f"p50 {p50:.2f} / p90 {p90:.2f} / p99 {p99:.2f} ms, {r['attempted']} requests")
EOF
# The same runs' serving processes must stay within a peak-RSS ceiling
# (VmHWM summed over the daemon, or the router and both shards). Each
# ceiling is q3 + 3*IQR (linearly interpolated quartiles) of peak_rss_mb
# over 10 smoke runs, seeds 1-10, on a 2-core x86_64 Linux host, rounded
# up to the next 0.01 MB; the runs read (MB)
#   serve_uniform  4.96 5.01 5.04 5.04 5.05 5.05 5.06 5.06 5.07 5.14
#   serve_zipf     5.03 5.05 5.07 5.07 5.07 5.07 5.08 5.09 5.12 5.15
#   routed_uniform 11.00 11.05 11.15 11.15 11.15 11.19 11.24 11.27 11.30 11.33
# The 5.14 serve_uniform run is above its own ceiling; 20 further runs,
# seeds 11-30, all read below every ceiling.
python3 - <<'EOF'
import json
CEILINGS = {"serve_uniform": 5.13, "serve_zipf": 5.17, "routed_uniform": 11.61}
runs = {r["workload"]: r for r in json.load(open(".bench_build/release/preinfer_bench.json"))}
for name, ceiling in CEILINGS.items():
    rss = runs[name]["end_to_end"]["peak_rss_mb"]["value"]
    assert rss <= ceiling, f"{name}: peak RSS {rss:.2f} MB above the {ceiling:.2f} MB ceiling"
    print(f"serving memory gate: {name} peak RSS {rss:.2f} MB (ceiling {ceiling:.2f})")
EOF

echo "== trace smoke (preinfer --trace-out)"
cargo build --release --bin preinfer --quiet
cat > trace_smoke.ml <<'EOF'
fn lookup(table [int], key int) -> int {
    if (key < 0) { return -1; }
    return table[key % 4];
}
EOF
./target/release/preinfer trace_smoke.ml --trace-out trace_smoke.jsonl
# Every line must parse as JSON, and the pipeline runs as one job, so
# the top-level stage spans are disjoint: their durations must
# sum to no more than the run event's wall clock.
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open("trace_smoke.jsonl")]
assert lines, "empty trace"
top = {e["id"] for e in lines if e["ev"] == "span_start" and e.get("parent") is None}
spans = sum(e["dur_us"] for e in lines if e["ev"] == "span_end" and e["id"] in top)
run = next(e for e in lines if e["ev"] == "run")
assert spans <= run["dur_us"], f"stage spans ({spans} us) exceed wall clock ({run['dur_us']} us)"
print(f"trace smoke: {len(lines)} events, {len(top)} top-level spans, "
      f"{spans} of {run['dur_us']} us inside top-level stages")
EOF

echo "== trace analysis smoke (preinfer-trace)"
cargo build --release --bin preinfer-trace --quiet
./target/release/preinfer-trace trace_smoke.jsonl --folded - > trace_smoke.txt
# The analyzer's exclusive self-times are disjoint by construction, so
# their total can never exceed the run's wall clock.
python3 - <<'EOF'
import re
report = open("trace_smoke.txt").read()
m = re.search(r"exclusive total ([\d.]+) ms over a ([\d.]+) ms wall clock", report)
assert m, f"preinfer-trace printed no exclusive-total line:\n{report}"
excl, wall = float(m.group(1)), float(m.group(2))
assert excl <= wall, f"exclusive total {excl} ms exceeds wall clock {wall} ms"
folded = [l for l in report.splitlines() if re.fullmatch(r"[\w;]+ \d+", l)]
assert folded, f"preinfer-trace emitted no folded stacks:\n{report}"
print(f"trace analysis smoke: exclusive {excl} ms <= wall {wall} ms, "
      f"{len(folded)} folded stacks")
EOF
rm -f trace_smoke.ml trace_smoke.jsonl trace_smoke.txt

echo "== server smoke (preinferd + preinfer-client)"
cargo build --release -p server --quiet
start_serving server_smoke ./target/release/preinferd --addr 127.0.0.1:0 --trace-sample 2
ADDR="$(wait_for_addr server_smoke.out)"
# A corpus slice, each served ψ checked byte-for-byte against the offline
# pipeline (the client exits non-zero on any divergence).
for SUBJECT in guarded_div reverse_words binary_search; do
    ./target/release/preinfer-client --addr "$ADDR" corpus "$SUBJECT" --check-offline
done
# The metrics verb must serve well-formed Prometheus text exposition,
# one HELP/TYPE pair and one contiguous group per family (traced requests
# may append OpenMetrics exemplars after " # " on histogram bucket lines;
# scripts/check_metrics.py validates them too).
./target/release/preinfer-client --addr "$ADDR" metrics > server_metrics.txt
python3 scripts/check_metrics.py server_metrics.txt
python3 - <<'EOF'
lines = open("server_metrics.txt").read().splitlines()
for needle in ("preinfer_infer_results_total{result=\"ok\"} 3",
               "preinfer_queue_capacity 64",
               "preinfer_traces_retained_total{reason=\"head\"} 2"):
    assert any(l == needle for l in lines), f"exposition lacks `{needle}`"
EOF
# `stats` and `metrics` render one registry: every value both serve must
# be equal once the slice is done (values that move between two scrapes,
# such as uptime and request counts, are left out; see the script).
./target/release/preinfer-client --addr "$ADDR" stats > server_stats.json
python3 scripts/check_observables.py server_stats.json server_metrics.txt
# A head-sampled trace must round-trip through the analyzer. (Analyze to
# a file, not a pipe: `grep -q` exiting at first match would SIGPIPE the
# analyzer mid-write, which `pipefail` turns into a spurious failure.)
./target/release/preinfer-client --addr "$ADDR" trace --last 1 > server_trace.jsonl
./target/release/preinfer-trace server_trace.jsonl > server_trace_report.txt
grep -q "exclusive total" server_trace_report.txt \
    || { echo "preinfer-trace could not analyze a served trace"; exit 1; }
rm -f server_trace_report.txt
# SIGTERM must drain and exit 0.
stop_serving server_smoke
rm -f server_metrics.txt server_stats.json server_trace.jsonl

echo "== interproc summary smoke (preinferd --interproc summary)"
# A summary-mode daemon over two passes of the multi-function slice: every
# served ψ stays byte-identical to the offline (inline) pipeline, the
# daemon-lifetime `summaries` stats block is populated, and the second
# pass strictly increases the table hit rate (α-equivalent callee closures
# resolve from the shared table instead of being re-inferred).
start_serving summary_smoke ./target/release/preinferd --addr 127.0.0.1:0 --interproc summary
SADDR="$(wait_for_addr summary_smoke.out)"
for SUBJECT in lift_guard chain_depth diamond branchy_scale; do
    ./target/release/preinfer-client --addr "$SADDR" corpus "$SUBJECT" --check-offline
done
./target/release/preinfer-client --addr "$SADDR" stats > summary_stats1.json
for SUBJECT in lift_guard chain_depth diamond branchy_scale; do
    ./target/release/preinfer-client --addr "$SADDR" corpus "$SUBJECT" --check-offline
done
./target/release/preinfer-client --addr "$SADDR" stats > summary_stats2.json
python3 - <<'EOF'
import json
s1 = json.load(open("summary_stats1.json"))["summaries"]
s2 = json.load(open("summary_stats2.json"))["summaries"]
assert s1["mode"] == "summary", s1
for field in ("inserts", "entries", "applies", "misses"):
    assert s1[field] > 0, f"cold pass left summaries.{field} at zero: {s1}"
rate1 = s1["hits"] / (s1["hits"] + s1["misses"])
rate2 = s2["hits"] / (s2["hits"] + s2["misses"])
assert s2["hits"] > s1["hits"], f"second pass never hit the table: {s1} -> {s2}"
assert rate2 > rate1, f"hit rate did not increase across passes: {rate1:.3f} -> {rate2:.3f}"
print(f"interproc summary smoke: {s2['entries']} table entries, hit rate "
      f"{rate1:.1%} -> {rate2:.1%}, {s2['applies']} applies, {s2['fallbacks']} fallbacks")
EOF
stop_serving summary_smoke
rm -f summary_stats1.json summary_stats2.json

echo "== router smoke (2 shards + preinfer-router)"
# Two shard daemons fronted by the key-affinity router;
# a corpus slice served *through* the router must still be byte-identical
# to the offline pipeline, and SIGTERM must drain all three processes.
start_serving shard0 ./target/release/preinferd --addr 127.0.0.1:0
start_serving shard1 ./target/release/preinferd --addr 127.0.0.1:0
SHARD0="$(wait_for_addr shard0.out)"
SHARD1="$(wait_for_addr shard1.out)"
# --trace-sample 1: every routed infer is traced end-to-end — the ψ
# differential below doubles as the routed trace-neutrality check.
start_serving router_smoke ./target/release/preinfer-router --addr 127.0.0.1:0 \
    --shard "$SHARD0" --shard "$SHARD1" --trace-sample 1
RADDR="$(wait_for_addr router_smoke.out)"
for SUBJECT in guarded_div reverse_words binary_search; do
    ./target/release/preinfer-client --addr "$RADDR" corpus "$SUBJECT" --check-offline
done
# Merged stats must report both shards live behind the router.
./target/release/preinfer-client --addr "$RADDR" stats | python3 -c '
import json, sys
s = json.load(sys.stdin)
r = s["router"]
assert r["shards"] == 2, r
assert r["live_upstreams"] == 2, r
assert len(s["shards"]) == 2, "merged stats must nest both shard reports"
assert r["unavailable"] == 0, "no request may have failed over"
for shard in s["shards"]:
    assert shard["stats"]["counters"]["open_connections"] >= 1, shard
    memory = shard["stats"]["memory"]
    assert memory["resident_bytes"] > 0 and memory["arena_nodes"]["cpreds"] > 0, shard
print(f"router smoke: 2 shards live, {r['\''forwarded'\'']} requests forwarded")'

echo "== distributed trace smoke (stitched multi-process trace)"
# Pull the router's most recent retained trace id, then fetch the
# stitched trace by trace_id and analyze the merged stream: spans from
# both processes must join into one tree whose exclusive total stays
# within the router's wall clock.
./target/release/preinfer-client --addr "$RADDR" trace --last 1 \
    >/dev/null 2>router_trace_hdr.txt
TID="$(sed -n 's/.*trace_id=\([0-9a-f]\{32\}\).*/\1/p' router_trace_hdr.txt | head -n1)"
[ -n "$TID" ] || { echo "router retained no traced request"; cat router_trace_hdr.txt; exit 1; }
./target/release/preinfer-client --addr "$RADDR" trace --trace-id "$TID" \
    >router_trace.jsonl 2>router_trace_hdr.txt
grep -q "preinfer-router" router_trace_hdr.txt \
    || { echo "stitched trace lacks the router part"; cat router_trace_hdr.txt; exit 1; }
grep -q "shard=" router_trace_hdr.txt \
    || { echo "stitched trace lacks a shard part"; cat router_trace_hdr.txt; exit 1; }
./target/release/preinfer-trace - < router_trace.jsonl > router_trace_report.txt
python3 - "$TID" <<'EOF'
import re, sys
tid = sys.argv[1]
report = open("router_trace_report.txt").read()
assert f"trace {tid}: preinfer-router → preinferd" in report, \
    f"merged analysis did not join both processes:\n{report}"
m = re.search(r"exclusive total ([\d.]+) ms over a ([\d.]+) ms wall clock", report)
assert m, f"no exclusive-total line:\n{report}"
excl, wall = float(m.group(1)), float(m.group(2))
assert excl <= wall, f"cross-tier exclusive {excl} ms exceeds router wall clock {wall} ms"
assert "cross-tier exclusive self-time:" in report, f"no cross-tier split:\n{report}"
for stage in ("route", "upstream_rtt", "run"):
    assert re.search(rf"^\s+{stage} \(", report, re.M), \
        f"critical path lacks the {stage} span:\n{report}"
print(f"distributed trace smoke: trace {tid[:8]}… stitched across 2 processes, "
      f"exclusive {excl} ms <= wall {wall} ms")
EOF
# Merged metrics must stay valid exposition (the daemon's validator, so
# families both tiers export stay one group each) and now carry
# shard-side exemplars linking latency buckets to this trace id's family.
./target/release/preinfer-client --addr "$RADDR" metrics > router_metrics.txt
python3 scripts/check_metrics.py router_metrics.txt
python3 - <<'EOF'
lines = open("router_metrics.txt").read().splitlines()
assert any(" # {trace_id=\"" in l for l in lines), \
    "traced routed requests left no exemplars in the merged exposition"
assert any("preinfer_traces_retained_total{reason=\"head\"}" in l and "shard" not in l
           for l in lines), "router's own trace-retention counters missing"
assert any("preinfer_traces_retained_total{shard=\"0\",reason=\"context\"}" in l
           or "preinfer_traces_retained_total{shard=\"1\",reason=\"context\"}" in l
           for l in lines), "shards did not retain context-sampled traces"
exemplars = sum(" # {trace_id=\"" in l for l in lines)
print(f"router metrics smoke: {len(lines)} lines, {exemplars} exemplars")
EOF
# The router's own block and each nested shard report must equal the
# merged exposition's router series and `shard="i"` series.
./target/release/preinfer-client --addr "$RADDR" stats > router_stats.json
python3 scripts/check_observables.py router_stats.json router_metrics.txt
rm -f router_trace_hdr.txt router_trace.jsonl router_trace_report.txt router_metrics.txt router_stats.json
# SIGTERM must drain the router and both shards, all exiting 0.
stop_serving router_smoke
stop_serving shard0 shard1

echo "== OK"
