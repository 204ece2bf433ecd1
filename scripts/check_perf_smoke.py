#!/usr/bin/env python3
"""Gates the four BENCH_*.json files perf_smoke wrote into a directory.

Usage: check_perf_smoke.py OUT_DIR

Every perf_smoke comparison is a record whose `ratio.median` is the median
over bracketed rounds of arm / mean of its two bases, and whose
`base_gap_pct` is the median signed gap between the two bases, which run
the same code (the sign alternates by round, so linear drift cancels).
Each mechanism must pay for itself:

- solver cache: cached / uncached <= 1.0 on every case where the cache
  sees any hits (all-miss cases only measure store overhead), except
  paper_tables::5_method_slice (see PAPER_TABLES_CEILING);
- disabled tracing: the two disabled runs of the trace_overhead record may
  differ by no more than 2% either way;
- solver tiers: tiered / simplex-only <= 1.02 (the tiers should be faster),
  with the cheap tiers answering at least 25% of executed queries;
- warm sessions: incremental / scratch <= 1.0;
- summaries: summary / inline <= 0.85 on the multi-function slice, with a
  warm summary table.

Equivalence of the answers is the tests' job. Prints every gated value and
exits 1 if any gate fails.
"""
import json
import os
import sys

out = sys.argv[1]
cache, tiers, inc, ip = (
    json.load(open(os.path.join(out, f"BENCH_{name}.json")))
    for name in ("solver_cache", "solver_tiers", "solver_incremental", "interproc"))

# The cache saves only about 1.5% of the Section V protocol on the paper
# tables slice, so a fixed 1.0 limit there failed about one run in ten.
# Its ceiling is q3 + 3*IQR (linearly interpolated quartiles) of its
# cached/uncached median over 10 perf_smoke runs on a 2-core x86_64 Linux
# host, rounded up to the next 0.001; the runs read
#   0.9861 0.9872 0.9854 0.9832 0.9899 0.9847 0.9874 0.9862 0.9815 0.9885
PAPER_TABLES_CEILING = 0.995
CACHE_LIMITS = {"paper_tables::5_method_slice": PAPER_TABLES_CEILING}

# (gate, value, limit, holds, detail)
GATES = [(f"solver cache {c['case']} cached/uncached", c["cached_vs_uncached"]["ratio"]["median"],
          CACHE_LIMITS.get(c["case"], 1.0), None, f"hit rate {c['cache_hit_rate']:.1%}")
         for c in cache["cases"] if c["cache_hit_rate"] > 0]
GATES += [
    ("|disabled tracing base gap| %", abs(cache["trace_overhead"]["base_gap_pct"]), 2.0, None, ""),
    ("solver tiers tiered/simplex_only", tiers["tiered_vs_simplex_only"]["ratio"]["median"], 1.02,
     tiers["tier1_answer_rate"] >= 0.25, f"tier-1 rate {tiers['tier1_answer_rate']:.1%} (floor 25%)"),
    ("solver incremental/scratch", inc["incremental_vs_scratch"]["ratio"]["median"], 1.0, None, ""),
    ("interproc summary/inline", ip["summary_vs_inline"]["ratio"]["median"], 0.85,
     ip["table_hits"] >= ip["table_entries"] > 0,
     f"{ip['table_hits']} warm hits over {ip['table_entries']} table entries"),
]

failed = 0
for gate, value, limit, holds, detail in GATES:
    ok = value <= limit and holds is not False
    failed += not ok
    print(f"perf gate {'ok  ' if ok else 'FAIL'} {gate}: {value:.3f} (limit {limit})"
          + (f", {detail}" if detail else ""))
sys.exit(1 if failed else 0)
