//! Perf smoke: times end-to-end inference with the solver cache and the
//! parallel driver against the serial/uncached baseline and emits
//! `BENCH_solver_cache.json` in the working directory, plus a tiered-vs-
//! simplex-only backend comparison (`BENCH_solver_tiers.json`), warm
//! sessions against the scratch reference (`BENCH_solver_incremental.json`)
//! and summary against inline interprocedural inference
//! (`BENCH_interproc.json`).
//!
//! This is the quick, scriptable counterpart of `cargo bench -p bench
//! --bench solver_cache`: a handful of repetitions per configuration, the
//! minimum wall-clock kept (least-noise estimator), plus the cache's
//! hit/miss counters from the cached run. Every timed arm also reports the
//! quartiles of all its samples (`spread_ms`), so a reader can tell a
//! regression from run-to-run noise.

use preinfer_core::{infer_all_preconditions, PreInferConfig};
use report::{evaluate_corpus, EvalConfig};
use solver::{BackendKind, CacheStats, SolverCache, TierSnapshot};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use subjects::SubjectMethod;
use testgen::{generate_tests, TestGenConfig};

const REPS: usize = 3;

/// Reps for the incremental-vs-scratch case, which gates on a ratio of two
/// sub-100ms wall clocks and so needs more samples than the tier timings.
const INCREMENTAL_REPS: usize = 8;

/// Every timed sample of one arm, in nanoseconds.
#[derive(Default)]
struct Samples(Vec<u128>);

impl Samples {
    fn push(&mut self, ns: u128) -> u128 {
        self.0.push(ns);
        ns
    }

    /// The fastest sample (the least-noise time estimator), in ms.
    fn min_ms(&self) -> f64 {
        self.0.iter().min().map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// `{"q1": …, "median": …, "q3": …}` over every sample, in ms, with
    /// linearly interpolated quartiles.
    fn spread_json(&self) -> String {
        let mut v: Vec<f64> = self.0.iter().map(|&ns| ns as f64 / 1e6).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        format!("{{\"q1\": {:.3}, \"median\": {:.3}, \"q3\": {:.3}}}", q(0.25), q(0.5), q(0.75))
    }
}

struct CaseResult {
    name: String,
    uncached: Samples,
    cached: Samples,
    parallel: Samples,
    /// Median of per-rep paired uncached/cached ratios (see
    /// [`measure_cache_arms`]) — the number the check-script gate consumes.
    speedup_cache: f64,
    speedup_cache_parallel: f64,
    stats: CacheStats,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Reps for the cached-vs-uncached cases, whose gate consumes a ratio of
/// two single-digit-millisecond wall clocks and therefore needs the same
/// robust treatment as `trace_overhead`, not a best-of-3.
const CACHE_REPS: usize = 7;

/// How a timed inference sample is configured in [`measure_cache_arms`].
#[derive(Clone, Copy)]
enum Arm {
    Uncached,
    Cached,
    Parallel,
}

/// Robust timings for one cache case: every sample per arm, and the
/// speedups as medians of per-rep *paired* ratios, each cached/parallel
/// sample compared against the mean of the two uncached samples bracketing
/// it in time.
struct ArmStats {
    uncached: Samples,
    cached: Samples,
    parallel: Samples,
    speedup_cache: f64,
    speedup_parallel: f64,
    /// Median |gap| between the two uncached samples of a rep, in percent
    /// — pure run-to-run noise, used to pick the quietest pass.
    noise_pct: f64,
}

/// Samples the three arms bracketed (uncached, cached, uncached,
/// parallel) per rep so machine-level drift cancels out of the paired
/// ratios, and a few descheduled reps cannot move the median the way
/// they move a ratio of two block minima. The first uncached sample laid
/// down by the caller's warm-up is not part of any rep, so cold-start
/// costs (page cache, lazy statics, the term interner's dedup map) are
/// charged to no arm.
fn measure_cache_arms(mut once: impl FnMut(Arm) -> u128) -> ArmStats {
    once(Arm::Uncached); // warm-up, untimed
    let (mut uncached, mut cached, mut parallel) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut ratios, mut pratios, mut noises) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CACHE_REPS {
        let u1 = uncached.push(once(Arm::Uncached));
        let c = cached.push(once(Arm::Cached));
        let u2 = uncached.push(once(Arm::Uncached));
        let p = parallel.push(once(Arm::Parallel));
        let base = (u1 as f64 + u2 as f64) / 2.0;
        ratios.push(base / c as f64);
        pratios.push(base / p as f64);
        noises.push(100.0 * ((u2 as f64 - u1 as f64) / u1 as f64).abs());
    }
    ArmStats {
        uncached,
        cached,
        parallel,
        speedup_cache: median(ratios),
        speedup_parallel: median(pratios),
        noise_pct: median(noises),
    }
}

/// Runs `pass` up to four times and keeps the quietest result (smallest
/// uncached-vs-uncached noise estimate), stopping early once a pass is
/// quiet enough (≤2%). Same shape as `trace_overhead`'s retry: the
/// selection criterion is *noise*, never the gated ratio itself, so a
/// real regression — which shows up in every pass — cannot be retried
/// away, while one descheduled measurement window can.
fn quietest_pass(mut pass: impl FnMut() -> ArmStats) -> ArmStats {
    let mut best = pass();
    for _ in 0..3 {
        if best.noise_pct <= 2.0 {
            break;
        }
        let next = pass();
        if next.noise_pct < best.noise_pct {
            best = next;
        }
    }
    best
}

/// One timed inference under the given cache/jobs configuration. The
/// cache is cleared first so every sample pays the warm-up misses again.
fn time_inference_once(
    m: &SubjectMethod,
    tp: &minilang::TypedProgram,
    suite: &testgen::Suite,
    cache: Option<&Arc<SolverCache>>,
    jobs: usize,
) -> u128 {
    if let Some(c) = cache {
        c.clear();
    }
    let mut cfg = PreInferConfig::default();
    cfg.prune.solver_cache = cache.cloned();
    cfg.prune.jobs = jobs;
    let start = Instant::now();
    let out = infer_all_preconditions(tp, m.name, suite, &cfg, jobs);
    let elapsed = start.elapsed().as_nanos();
    assert!(!out.is_empty(), "{} inferred nothing", m.name);
    elapsed
}

fn run_case(m: &SubjectMethod, jobs: usize) -> CaseResult {
    let tp = m.compile();
    let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
    let cache = Arc::new(SolverCache::new());
    let parallel_cache = Arc::new(SolverCache::new());
    let stats = quietest_pass(|| {
        measure_cache_arms(|arm| match arm {
            Arm::Uncached => time_inference_once(m, &tp, &suite, None, 1),
            Arm::Cached => time_inference_once(m, &tp, &suite, Some(&cache), 1),
            Arm::Parallel => time_inference_once(m, &tp, &suite, Some(&parallel_cache), jobs),
        })
    });
    // Stats from the final serial-cached repetition: one full inference's
    // traffic against an initially empty cache.
    CaseResult {
        name: format!("{}::{}", m.namespace, m.name),
        uncached: stats.uncached,
        cached: stats.cached,
        parallel: stats.parallel,
        speedup_cache: stats.speedup_cache,
        speedup_cache_parallel: stats.speedup_parallel,
        stats: cache.stats(),
    }
}

/// The `paper_tables` workload: the full Section V protocol
/// ([`evaluate_corpus`]: generation, inference, both baselines, scoring)
/// over a representative corpus slice, as the table benches run it.
fn run_tables_case(jobs: usize) -> CaseResult {
    let names = ["bubble_sort", "guarded_div", "stack_pop", "inverse_sum", "binary_search"];
    let methods: Vec<SubjectMethod> =
        subjects::all_subjects().into_iter().filter(|m| names.contains(&m.name)).collect();
    // One timed corpus evaluation, recording cache traffic on the side.
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut once = |solver_cache: bool, jobs: usize| -> u128 {
        let cfg = EvalConfig { jobs, solver_cache, ..EvalConfig::default() };
        let start = Instant::now();
        let results = evaluate_corpus(&methods, &cfg);
        let elapsed = start.elapsed().as_nanos();
        if solver_cache {
            hits = results.iter().map(|r| r.solver_cache_hits).sum();
            misses = results.iter().map(|r| r.solver_cache_misses).sum();
        }
        elapsed
    };
    let stats = quietest_pass(|| {
        measure_cache_arms(|arm| match arm {
            Arm::Uncached => once(false, 1),
            Arm::Cached => once(true, 1),
            Arm::Parallel => once(true, jobs),
        })
    });
    CaseResult {
        name: format!("paper_tables::{}_method_slice", methods.len()),
        uncached: stats.uncached,
        cached: stats.cached,
        parallel: stats.parallel,
        speedup_cache: stats.speedup_cache,
        speedup_cache_parallel: stats.speedup_parallel,
        stats: CacheStats { hits, misses, ..CacheStats::default() },
    }
}

/// The tiered-backend comparison: the same Section V slice as
/// [`run_tables_case`], solver cache *off* (every query executes, so the
/// timing difference is pure backend cost and the counters reflect raw
/// query traffic), tiered vs simplex-only.
struct SolverTiersResult {
    tiered: Samples,
    simplex_only: Samples,
    tiers: TierSnapshot,
}

/// Times the corpus-slice workload under both backend stacks. Reps are
/// interleaved (tiered, simplex, tiered, simplex, …) so machine-level
/// drift hits both configurations the same way.
fn run_solver_tiers_case() -> SolverTiersResult {
    let names = ["bubble_sort", "guarded_div", "stack_pop", "inverse_sum", "binary_search"];
    let methods: Vec<SubjectMethod> =
        subjects::all_subjects().into_iter().filter(|m| names.contains(&m.name)).collect();
    let run = |backend: BackendKind| -> (u128, TierSnapshot) {
        let cfg = EvalConfig {
            jobs: 1,
            solver_cache: false,
            solver_backend: backend,
            ..EvalConfig::default()
        };
        let start = Instant::now();
        let results = evaluate_corpus(&methods, &cfg);
        let elapsed = start.elapsed().as_nanos();
        let tiers =
            results.iter().fold(TierSnapshot::default(), |acc, r| acc.plus(&r.solver_tiers));
        (elapsed, tiers)
    };
    let (mut tiered, mut simplex_only) = (Samples::default(), Samples::default());
    let mut tiers = TierSnapshot::default();
    for _ in 0..REPS {
        let (t, snapshot) = run(BackendKind::Tiered);
        tiered.push(t);
        tiers = snapshot; // identical every rep: counters are per-run
        simplex_only.push(run(BackendKind::Simplex).0);
    }
    SolverTiersResult { tiered, simplex_only, tiers }
}

/// The incremental-solving comparison: warm [`IncrementalSession`]s vs
/// from-scratch [`solve_preds_with`] on the *solver workload itself* —
/// Algorithm 1's implied-check sweeps replayed from the corpus's real
/// failing paths.
struct SolverIncrementalResult {
    incremental: Samples,
    scratch: Samples,
    sweeps: usize,
    queries: usize,
}

/// One failing path's implied-check sweep: for entries `e_0 … e_{n-1}`,
/// the queries `e_0 ∧ … ∧ e_{j-1} ∧ ¬e_j` for `j = n-1` down to `0` —
/// exactly the per-path query sequence the pruning loop issues.
struct PathSweep {
    sig: solver::FuncSig,
    queries: Vec<Vec<symbolic::pred::Pred>>,
}

/// Times the incremental session against the scratch entry point on the
/// corpus's deep failing-path sweeps (paths with at least six entries —
/// the prefix-sharing regime the session exists for; shallower paths
/// measure session setup, not sharing). The pipeline around the solver
/// (interpreter, test generation) is identical in both modes, so this
/// case replays the solver calls alone: the warm arm pays session
/// creation, diffing, pushes *and* solves; the scratch arm pays
/// canonicalization and building per query. Reps are interleaved (warm,
/// scratch, warm, scratch, …) so machine-level drift hits both arms the
/// same way; the gate reads the minimum per arm, and extra reps because
/// it consumes a ratio of two small numbers.
fn run_solver_incremental_case() -> SolverIncrementalResult {
    const MIN_PATH_DEPTH: usize = 6;
    let mut sweeps: Vec<PathSweep> = Vec::new();
    for m in subjects::all_subjects() {
        let tp = m.compile();
        let sig = solver::FuncSig::of(m.func(&tp));
        let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
        for run in suite.runs.iter().filter(|r| r.failed()) {
            let entries = &run.path.entries;
            if entries.len() < MIN_PATH_DEPTH {
                continue;
            }
            let queries = (0..entries.len())
                .rev()
                .map(|j| {
                    let mut preds: Vec<symbolic::pred::Pred> =
                        entries[..j].iter().map(|e| e.pred.clone()).collect();
                    preds.push(entries[j].pred.negated());
                    preds
                })
                .collect();
            sweeps.push(PathSweep { sig: sig.clone(), queries });
        }
    }
    let queries: usize = sweeps.iter().map(|s| s.queries.len()).sum();
    assert!(queries > 0, "incremental bench found no deep failing-path sweeps");

    let cfg = solver::SolverConfig::default();
    let warm = || -> u128 {
        let start = Instant::now();
        for sw in &sweeps {
            let mut session = solver::IncrementalSession::new(&sw.sig, &cfg, None);
            for q in &sw.queries {
                let _ = session.solve_preds(q);
            }
        }
        start.elapsed().as_nanos()
    };
    let scratch = || -> u128 {
        let start = Instant::now();
        for sw in &sweeps {
            for q in &sw.queries {
                let _ = solver::solve_preds_with(q, &sw.sig, &cfg, None);
            }
        }
        start.elapsed().as_nanos()
    };
    // Warm-up pass doubling as an equivalence spot check (the corpus
    // replay in tests/session_replay.rs is the real guarantee; this catches
    // a broken build before it pollutes the timing).
    for sw in &sweeps {
        let mut session = solver::IncrementalSession::new(&sw.sig, &cfg, None);
        for q in &sw.queries {
            let (w, _) = session.solve_preds(q);
            let (s, _) = solver::solve_preds_with(q, &sw.sig, &cfg, None);
            assert_eq!(w, s, "incremental/scratch divergence in bench workload");
        }
    }
    let (mut incremental, mut scratch_arm) = (Samples::default(), Samples::default());
    for _ in 0..INCREMENTAL_REPS {
        incremental.push(warm());
        scratch_arm.push(scratch());
    }
    SolverIncrementalResult { incremental, scratch: scratch_arm, sweeps: sweeps.len(), queries }
}

/// The interprocedural comparison: inline callee unrolling vs bottom-up
/// ψ-summary application over the multi-function corpus slice, end to end
/// (generation + inference per method). The summary arm runs against one
/// warm [`SummaryTable`] shared across methods and reps — the serving
/// scenario, where every α-equivalent callee closure after the first is a
/// table hit and the per-request cost is resolution plus the collapsed
/// entry-level path space.
struct InterprocResult {
    methods: usize,
    inline: Samples,
    summary: Samples,
    table_entries: usize,
    table_hits: u64,
    applies: u64,
}

/// Reps for the interproc case: interleaved (inline, summary, inline, …)
/// so machine-level drift hits both modes the same way; the gate reads
/// the minimum per arm.
const INTERPROC_REPS: usize = 7;

fn run_interproc_case() -> InterprocResult {
    use preinfer_core::{build_summaries, SummaryBuildConfig, SummaryTable};
    let methods: Vec<(SubjectMethod, minilang::TypedProgram)> = subjects::all_subjects()
        .into_iter()
        .filter(|m| m.namespace == "Interproc.Summaries")
        .map(|m| {
            let tp = m.compile();
            (m, tp)
        })
        .collect();
    assert!(!methods.is_empty(), "interproc bench found no multi-function subjects");

    let inline_pass = || -> u128 {
        let start = Instant::now();
        for (m, tp) in &methods {
            let suite = generate_tests(tp, m.name, &TestGenConfig::default());
            let mut cfg = PreInferConfig::default();
            cfg.prune.jobs = 1;
            let out = infer_all_preconditions(tp, m.name, &suite, &cfg, 1);
            std::hint::black_box(out);
        }
        start.elapsed().as_nanos()
    };
    // The summary arm times the daemon's steady state: the table was
    // populated when each closure was first seen and the per-program
    // `ResolvedSummaries` handle is reused across requests, so a request
    // pays generation + inference with callee paths collapsed to ψ atoms —
    // not the one-time bottom-up build. The build cost is what the first
    // column of the report's inline-vs-summary axis accounts for.
    let table = Arc::new(SummaryTable::new());
    let apply_stats: Arc<concolic::SummaryApplyStats> = Default::default();
    let resolved: Vec<Option<Arc<concolic::ResolvedSummaries>>> = methods
        .iter()
        .map(|(m, tp)| {
            let build = build_summaries(
                tp,
                m.name,
                &table,
                &SummaryBuildConfig { stats: apply_stats.clone(), ..Default::default() },
            );
            (!build.resolved.is_empty()).then_some(build.resolved)
        })
        .collect();
    let summary_pass = || -> u128 {
        let start = Instant::now();
        for ((m, tp), res) in methods.iter().zip(&resolved) {
            let mut tg = TestGenConfig::default();
            let mut cfg = PreInferConfig::default();
            cfg.prune.jobs = 1;
            if let Some(res) = res {
                tg.concolic.summaries = Some(res.clone());
                cfg.prune.concolic.summaries = Some(res.clone());
            }
            let suite = generate_tests(tp, m.name, &tg);
            let out = infer_all_preconditions(tp, m.name, &suite, &cfg, 1);
            std::hint::black_box(out);
        }
        start.elapsed().as_nanos()
    };
    // Warm-up (untimed) for both arms, then prove the table is warm: a
    // re-resolution of every method's closures must be all hits.
    std::hint::black_box((inline_pass(), summary_pass()));
    let hits_before = table.hits();
    for (m, tp) in &methods {
        let build = build_summaries(
            tp,
            m.name,
            &table,
            &SummaryBuildConfig { stats: apply_stats.clone(), ..Default::default() },
        );
        std::hint::black_box(build);
    }
    let warm_hits = table.hits() - hits_before;
    let (mut inline, mut summary) = (Samples::default(), Samples::default());
    for _ in 0..INTERPROC_REPS {
        inline.push(inline_pass());
        summary.push(summary_pass());
    }
    InterprocResult {
        methods: methods.len(),
        inline,
        summary,
        table_entries: table.len(),
        table_hits: warm_hits,
        applies: apply_stats.applies(),
    }
}

/// Everything `trace_overhead` measures, in the units the JSON footer
/// reports: best-of-N per-inference times plus robust paired overhead
/// estimates (percent).
struct TraceOverhead {
    disabled_ms: f64,
    disabled_rerun_ms: f64,
    aggregate_ms: f64,
    disabled_overhead_percent: f64,
    aggregate_overhead_percent: f64,
}

/// Measures the cost of the observability layer on the motivating example.
/// Each round samples disabled tracing, an aggregate sink, and disabled
/// tracing again, back to back, so machine-level drift hits all three the
/// same way. The overhead estimates are *medians of per-round paired
/// differences* — the two disabled samples against each other (their gap
/// is pure noise: the disabled path is code-identical either way), and the
/// aggregate sample against the mean of the two disabled samples that
/// bracket it in time (cancelling linear drift) — so a few descheduled
/// rounds cannot move the estimate the way they move a best-of-N minimum.
///
/// On a machine with persistent background load even the paired median
/// wanders a couple of percent, so the whole measurement runs up to six
/// passes and keeps the quietest one (smallest |disabled| estimate). That
/// still catches a real disabled-path regression — real cost shows up in
/// *every* pass — while not failing the gate on one noisy window.
fn trace_overhead() -> TraceOverhead {
    let m = subjects::motivating::motivating();
    let tp = m.compile();
    let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
    // One timed sample = a batch of 10 back-to-back inferences (each with a
    // fresh cache), long enough that scheduler hiccups average out within
    // the sample instead of dominating it.
    let run_batch = |sink: &Option<Arc<obs::TraceSink>>| -> f64 {
        let start = Instant::now();
        for _ in 0..10 {
            let mut cfg = PreInferConfig::default();
            cfg.prune.solver_cache = Some(Arc::new(SolverCache::new()));
            cfg.prune.solver.trace = sink.clone();
            cfg.prune.trace = sink.clone();
            let out = infer_all_preconditions(&tp, m.name, &suite, &cfg, 1);
            assert!(!out.is_empty(), "motivating example inferred nothing");
        }
        start.elapsed().as_nanos() as f64
    };
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.total_cmp(b));
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    };
    let aggregate = Some(Arc::new(obs::TraceSink::aggregate()));
    let measure_once = || -> TraceOverhead {
        let (mut d1_min, mut agg_min, mut d2_min) = (f64::MAX, f64::MAX, f64::MAX);
        let (mut noise_pcts, mut agg_pcts) = (Vec::new(), Vec::new());
        run_batch(&None); // warm-up: page cache, allocator, branch predictors
        for round in 0..12 {
            let d1 = run_batch(&None);
            let agg = run_batch(&aggregate);
            let d2 = run_batch(&None);
            d1_min = d1_min.min(d1);
            agg_min = agg_min.min(agg);
            d2_min = d2_min.min(d2);
            // Alternate which position is the baseline so any systematic
            // early-vs-late-in-round skew flips sign and cancels in the
            // median instead of accumulating.
            if round % 2 == 0 {
                noise_pcts.push(100.0 * (d2 - d1) / d1);
            } else {
                noise_pcts.push(100.0 * (d1 - d2) / d2);
            }
            agg_pcts.push(100.0 * (agg - (d1 + d2) / 2.0) / ((d1 + d2) / 2.0));
        }
        TraceOverhead {
            disabled_ms: d1_min / 1e7,
            disabled_rerun_ms: d2_min / 1e7,
            aggregate_ms: agg_min / 1e7,
            disabled_overhead_percent: median(noise_pcts),
            aggregate_overhead_percent: median(agg_pcts),
        }
    };
    let mut best = measure_once();
    for _ in 0..5 {
        if best.disabled_overhead_percent.abs() <= 1.0 {
            break;
        }
        let next = measure_once();
        if next.disabled_overhead_percent.abs() < best.disabled_overhead_percent.abs() {
            best = next;
        }
    }
    best
}

fn main() {
    let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut picks = vec![subjects::motivating::motivating()];
    let all = subjects::all_subjects();
    for name in ["bubble_sort", "inverse_sum", "binary_search"] {
        if let Some(m) = all.iter().find(|m| m.name == name) {
            picks.push(m.clone());
        }
    }

    let mut results: Vec<CaseResult> = picks.iter().map(|m| run_case(m, jobs)).collect();
    results.push(run_tables_case(jobs));

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"reps\": {CACHE_REPS},");
    let _ = writeln!(json, "  \"cases\": [");
    for (i, r) in results.iter().enumerate() {
        let hit_rate = r.stats.hit_rate();
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"case\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"serial_uncached_ms\": {:.3},", r.uncached.min_ms());
        let _ = writeln!(json, "      \"serial_cached_ms\": {:.3},", r.cached.min_ms());
        let _ = writeln!(json, "      \"parallel_cached_ms\": {:.3},", r.parallel.min_ms());
        let _ = writeln!(
            json,
            "      \"spread_ms\": {{\"serial_uncached\": {}, \"serial_cached\": {}, \
             \"parallel_cached\": {}}},",
            r.uncached.spread_json(),
            r.cached.spread_json(),
            r.parallel.spread_json()
        );
        let _ = writeln!(json, "      \"cache_hits\": {},", r.stats.hits);
        let _ = writeln!(json, "      \"cache_misses\": {},", r.stats.misses);
        let _ = writeln!(json, "      \"cache_hit_rate\": {hit_rate:.4},");
        let _ = writeln!(json, "      \"speedup_cache\": {:.3},", r.speedup_cache);
        let _ = writeln!(json, "      \"speedup_cache_parallel\": {:.3}", r.speedup_cache_parallel);
        let _ = write!(json, "    }}");
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    let TraceOverhead {
        disabled_ms,
        disabled_rerun_ms,
        aggregate_ms,
        disabled_overhead_percent,
        aggregate_overhead_percent,
    } = trace_overhead();
    let _ = writeln!(json, "  \"trace_overhead\": {{");
    let _ = writeln!(json, "    \"disabled_ms\": {disabled_ms:.3},");
    let _ = writeln!(json, "    \"disabled_rerun_ms\": {disabled_rerun_ms:.3},");
    let _ = writeln!(json, "    \"aggregate_ms\": {aggregate_ms:.3},");
    let _ = writeln!(json, "    \"disabled_overhead_percent\": {disabled_overhead_percent:.3},");
    let _ = writeln!(json, "    \"aggregate_overhead_percent\": {aggregate_overhead_percent:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write("BENCH_solver_cache.json", &json).expect("write BENCH_solver_cache.json");

    let st = run_solver_tiers_case();
    let t = &st.tiers;
    let (tiered_ms, simplex_only_ms) = (st.tiered.min_ms(), st.simplex_only.min_ms());
    let mut tiers_json = String::from("{\n");
    let _ = writeln!(tiers_json, "  \"case\": \"paper_tables::5_method_slice\",");
    let _ = writeln!(tiers_json, "  \"reps\": {REPS},");
    let _ = writeln!(tiers_json, "  \"tiered_ms\": {tiered_ms:.3},");
    let _ = writeln!(tiers_json, "  \"simplex_only_ms\": {simplex_only_ms:.3},");
    let _ = writeln!(
        tiers_json,
        "  \"spread_ms\": {{\"tiered\": {}, \"simplex_only\": {}}},",
        st.tiered.spread_json(),
        st.simplex_only.spread_json()
    );
    let _ =
        writeln!(tiers_json, "  \"tiered_vs_simplex_ratio\": {:.4},", tiered_ms / simplex_only_ms);
    let _ = writeln!(tiers_json, "  \"answered_by_syntactic\": {},", t.answered_by_syntactic);
    let _ = writeln!(tiers_json, "  \"answered_by_interval\": {},", t.answered_by_interval);
    let _ = writeln!(tiers_json, "  \"answered_by_simplex\": {},", t.answered_by_simplex);
    let _ = writeln!(tiers_json, "  \"escalations\": {},", t.escalations);
    let _ = writeln!(tiers_json, "  \"tier1_answer_rate\": {:.4}", t.tier1_rate());
    tiers_json.push_str("}\n");
    std::fs::write("BENCH_solver_tiers.json", &tiers_json).expect("write BENCH_solver_tiers.json");

    let si = run_solver_incremental_case();
    let (incremental_ms, scratch_ms) = (si.incremental.min_ms(), si.scratch.min_ms());
    let mut inc_json = String::from("{\n");
    let _ = writeln!(inc_json, "  \"case\": \"corpus_failing_paths::algorithm1_sweeps\",");
    let _ = writeln!(inc_json, "  \"reps\": {INCREMENTAL_REPS},");
    let _ = writeln!(inc_json, "  \"sweeps\": {},", si.sweeps);
    let _ = writeln!(inc_json, "  \"queries\": {},", si.queries);
    let _ = writeln!(inc_json, "  \"incremental_ms\": {incremental_ms:.3},");
    let _ = writeln!(inc_json, "  \"scratch_ms\": {scratch_ms:.3},");
    let _ = writeln!(
        inc_json,
        "  \"spread_ms\": {{\"incremental\": {}, \"scratch\": {}}},",
        si.incremental.spread_json(),
        si.scratch.spread_json()
    );
    let _ = writeln!(
        inc_json,
        "  \"incremental_vs_scratch_ratio\": {:.4}",
        incremental_ms / scratch_ms
    );
    inc_json.push_str("}\n");
    std::fs::write("BENCH_solver_incremental.json", &inc_json)
        .expect("write BENCH_solver_incremental.json");

    let ip = run_interproc_case();
    let (inline_ms, summary_ms) = (ip.inline.min_ms(), ip.summary.min_ms());
    let ip_ratio = summary_ms / inline_ms;
    let mut ip_json = String::from("{\n");
    let _ = writeln!(ip_json, "  \"case\": \"interproc::summary_vs_inline\",");
    let _ = writeln!(ip_json, "  \"reps\": {INTERPROC_REPS},");
    let _ = writeln!(ip_json, "  \"methods\": {},", ip.methods);
    let _ = writeln!(ip_json, "  \"inline_ms\": {inline_ms:.3},");
    let _ = writeln!(ip_json, "  \"summary_ms\": {summary_ms:.3},");
    let _ = writeln!(
        ip_json,
        "  \"spread_ms\": {{\"inline\": {}, \"summary\": {}}},",
        ip.inline.spread_json(),
        ip.summary.spread_json()
    );
    let _ = writeln!(ip_json, "  \"summary_vs_inline_ratio\": {ip_ratio:.4},");
    let _ = writeln!(ip_json, "  \"table_entries\": {},", ip.table_entries);
    let _ = writeln!(ip_json, "  \"table_hits\": {},", ip.table_hits);
    let _ = writeln!(ip_json, "  \"summary_applies\": {}", ip.applies);
    ip_json.push_str("}\n");
    std::fs::write("BENCH_interproc.json", &ip_json).expect("write BENCH_interproc.json");

    println!(
        "perf smoke: {jobs} thread(s), {CACHE_REPS} bracketed reps per cache case \
         (median paired speedups)"
    );
    for r in &results {
        println!(
            "  {:<44} serial {:>8.2} ms | cached {:>8.2} ms ({:.2}x) | parallel+cached {:>8.2} ms ({:.2}x) | hit rate {:.1}%",
            r.name,
            r.uncached.min_ms(),
            r.cached.min_ms(),
            r.speedup_cache,
            r.parallel.min_ms(),
            r.speedup_cache_parallel,
            r.stats.hit_rate() * 100.0,
        );
    }
    println!(
        "  trace overhead: disabled {disabled_ms:.2} ms / rerun {disabled_rerun_ms:.2} ms \
         ({disabled_overhead_percent:+.2}% noise) | aggregate sink {aggregate_ms:.2} ms \
         ({aggregate_overhead_percent:+.2}%)"
    );
    println!(
        "  solver tiers: tiered {:.2} ms vs simplex-only {:.2} ms ({:.3}x) | \
         {} syntactic / {} interval / {} simplex, {} escalation(s) ({:.1}% above simplex)",
        tiered_ms,
        simplex_only_ms,
        tiered_ms / simplex_only_ms,
        t.answered_by_syntactic,
        t.answered_by_interval,
        t.answered_by_simplex,
        t.escalations,
        100.0 * t.tier1_rate(),
    );
    println!(
        "  solver incremental: warm sessions {:.2} ms vs scratch {:.2} ms ({:.3}x) \
         over {} Algorithm-1 sweeps / {} queries",
        incremental_ms,
        scratch_ms,
        incremental_ms / scratch_ms,
        si.sweeps,
        si.queries,
    );
    println!(
        "  interproc: summary {:.2} ms vs inline {:.2} ms ({:.3}x) over {} multi-function \
         methods | {} table entries, {} warm hits, {} summary applies",
        summary_ms, inline_ms, ip_ratio, ip.methods, ip.table_entries, ip.table_hits, ip.applies,
    );
    println!(
        "wrote BENCH_solver_cache.json, BENCH_solver_tiers.json, BENCH_solver_incremental.json \
         and BENCH_interproc.json"
    );
}
