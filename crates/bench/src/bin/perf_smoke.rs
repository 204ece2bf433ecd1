//! Perf smoke: shows that each solver-side mechanism pays for itself by
//! timing it against the configuration without it. Usage: `perf_smoke
//! OUT_DIR`. Writes four files into `OUT_DIR`:
//!
//! - `BENCH_solver_cache.json`: per case, the solver cache and the parallel
//!   driver against serial uncached inference, plus the `trace_overhead`
//!   footer (an aggregate trace sink against disabled tracing);
//! - `BENCH_solver_tiers.json`: the tiered backend against simplex only;
//! - `BENCH_solver_incremental.json`: warm sessions against scratch solving;
//! - `BENCH_interproc.json`: summary against inline interprocedural
//!   inference.
//!
//! Every comparison is one [`compare`] call and renders as one record,
//! keyed `ARM_vs_BASE` (the footer keeps its name `trace_overhead`). A
//! pass runs [`ROUNDS`] bracketed rounds (base, arm, base) and reports the
//! median and quartiles of the per-round ratio of the arm to the mean of
//! its two bases, so drift cancels and a few descheduled rounds cannot
//! move the median. The two bases run the same code, so their gap is
//! noise: up to [`MAX_PASSES`] passes run and the one whose median gap is
//! closest to zero is kept. It is never chosen by its ratio, so a real
//! regression, which shows in every pass, cannot be retried away.

use obs::json::escape;
use preinfer_core::{infer_all_preconditions, PreInferConfig};
use report::{evaluate_corpus, EvalConfig};
use solver::{BackendKind, CacheStats, SolverCache, TierSnapshot};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use subjects::SubjectMethod;
use testgen::{generate_tests, TestGenConfig};

/// Bracketed (base, arm, base) rounds per pass. Odd, so the median ratio
/// is one round's ratio.
const ROUNDS: usize = 31;

/// Passes a comparison may run looking for a quiet one.
const MAX_PASSES: usize = 4;

/// A pass whose median base-vs-base gap is within ± this (percent) is
/// quiet enough to keep without rerunning.
const QUIET_PCT: f64 = 1.0;

/// Linearly interpolated `[q1, median, q3]` of `v`.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    [q(0.25), q(0.5), q(0.75)]
}

/// One paired A/B measurement: the record every BENCH file shares.
#[derive(Debug)]
struct Comparison {
    /// Quartiles of the per-round ratio arm / mean of its two bases.
    ratio: [f64; 3],
    /// Median per-round gap between the two bases, in percent of their
    /// mean (signed, see [`paired_pass`]): how far two runs of the same
    /// code disagree, the pass's noise.
    base_gap_pct: f64,
    base_ms: [f64; 3],
    arm_ms: [f64; 3],
    passes: usize,
}

impl Comparison {
    fn json(&self) -> String {
        let q = |[q1, m, q3]: [f64; 3]| {
            format!("{{\"q1\": {q1:.4}, \"median\": {m:.4}, \"q3\": {q3:.4}}}")
        };
        format!(
            "{{\"ratio\": {}, \"base_gap_pct\": {:.3}, \"base_ms\": {}, \"arm_ms\": {}, \
             \"rounds\": {ROUNDS}, \"passes\": {}}}",
            q(self.ratio),
            self.base_gap_pct,
            q(self.base_ms),
            q(self.arm_ms),
            self.passes
        )
    }

    fn print(&self, label: &str) {
        let [q1, m, q3] = self.ratio;
        println!(
            "  {label:<52} {m:.3}x [{q1:.3}, {q3:.3}] | base {:.2} ms, arm {:.2} ms | \
             base gap {:+.2}% | {} pass(es)",
            self.base_ms[1], self.arm_ms[1], self.base_gap_pct, self.passes
        );
    }
}

/// One pass of [`ROUNDS`] bracketed rounds; each closure times one sample
/// and returns it in ms.
fn paired_pass(base: &mut impl FnMut() -> f64, arm: &mut impl FnMut() -> f64) -> Comparison {
    let (mut bases, mut arms, mut ratios, mut gaps) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        let (b1, a, b2) = (base(), arm(), base());
        let mean = (b1 + b2) / 2.0;
        ratios.push(a / mean);
        // Linear drift moves the second base the same way every round;
        // alternating the sign cancels it from the median gap, as the
        // bracketing cancels it from the ratio.
        let sign = if round % 2 == 0 { 1.0 } else { -1.0 };
        gaps.push(sign * 100.0 * (b2 - b1) / mean);
        bases.extend([b1, b2]);
        arms.push(a);
    }
    Comparison {
        ratio: quartiles(ratios),
        base_gap_pct: quartiles(gaps)[1],
        base_ms: quartiles(bases),
        arm_ms: quartiles(arms),
        passes: 1,
    }
}

/// Runs `pass` until one is quiet (|gap| ≤ [`QUIET_PCT`]) or
/// [`MAX_PASSES`] ran, and keeps the pass with the smallest |gap|.
fn quietest(mut pass: impl FnMut() -> Comparison) -> Comparison {
    let mut best = pass();
    let mut passes = 1;
    while passes < MAX_PASSES && best.base_gap_pct.abs() > QUIET_PCT {
        let next = pass();
        passes += 1;
        if next.base_gap_pct.abs() < best.base_gap_pct.abs() {
            best = next;
        }
    }
    Comparison { passes, ..best }
}

/// The one measurement routine: an untimed warm-up of each side (page
/// cache, lazy statics, the term interner's dedup map), then the quietest
/// of up to [`MAX_PASSES`] paired passes.
fn compare(mut base: impl FnMut() -> f64, mut arm: impl FnMut() -> f64) -> Comparison {
    base();
    arm();
    quietest(|| paired_pass(&mut base, &mut arm))
}

/// Wall clock of `f`, in ms; the result is dropped after the clock stops.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(out);
    ms
}

/// Writes `fields` (already-rendered JSON values) as one object, a field
/// per line.
fn write_bench(dir: &Path, name: &str, fields: &[(&str, String)]) {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    let path = dir.join(name);
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// One cache case: inference of one method, serial uncached against the
/// serial cached and the parallel cached runs.
fn run_case(m: &SubjectMethod, jobs: usize) -> String {
    let tp = m.compile();
    let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
    // The cache is cleared first so every sample pays the warm-up misses
    // again.
    let infer = |cache: Option<&Arc<SolverCache>>, jobs: usize| {
        if let Some(c) = cache {
            c.clear();
        }
        let mut cfg = PreInferConfig::default();
        cfg.prune.solver_cache = cache.cloned();
        cfg.prune.jobs = jobs;
        timed(|| {
            let out = infer_all_preconditions(&tp, m.name, &suite, &cfg, jobs);
            assert!(!out.is_empty(), "{} inferred nothing", m.name);
            out
        })
    };
    let (cache, parallel_cache) = (Arc::new(SolverCache::new()), Arc::new(SolverCache::new()));
    let name = format!("{}::{}", m.namespace, m.name);
    let cached = compare(|| infer(None, 1), || infer(Some(&cache), 1));
    // Counters of the last cached sample: one full inference's traffic
    // against an initially empty cache.
    let stats = cache.stats();
    let parallel = compare(|| infer(None, 1), || infer(Some(&parallel_cache), jobs));
    case_json(&name, &stats, &cached, &parallel)
}

fn case_json(name: &str, s: &CacheStats, cached: &Comparison, par: &Comparison) -> String {
    cached.print(&format!("{name} cached/uncached"));
    par.print(&format!("{name} parallel/uncached"));
    format!(
        "{{\"case\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \
         \"cached_vs_uncached\": {}, \"parallel_vs_uncached\": {}}}",
        escape(name),
        s.hits,
        s.misses,
        s.hit_rate(),
        cached.json(),
        par.json()
    )
}

/// The `paper_tables` slice: five methods that the full Section V protocol
/// ([`evaluate_corpus`]: generation, inference, both baselines, scoring)
/// runs over.
fn tables_slice() -> Vec<SubjectMethod> {
    let names = ["bubble_sort", "guarded_div", "stack_pop", "inverse_sum", "binary_search"];
    subjects::all_subjects().into_iter().filter(|m| names.contains(&m.name)).collect()
}

/// The `paper_tables` cache case: the Section V protocol over
/// [`tables_slice`], with and without the solver cache and in parallel.
fn run_tables_case(jobs: usize) -> String {
    let methods = tables_slice();
    let eval = |solver_cache: bool, jobs: usize| {
        evaluate_corpus(&methods, &EvalConfig { jobs, solver_cache, ..EvalConfig::default() })
    };
    let cached = compare(|| timed(|| eval(false, 1)), || timed(|| eval(true, 1)));
    let parallel = compare(|| timed(|| eval(false, 1)), || timed(|| eval(true, jobs)));
    let results = eval(true, 1);
    let stats = CacheStats {
        hits: results.iter().map(|r| r.solver_cache_hits).sum(),
        misses: results.iter().map(|r| r.solver_cache_misses).sum(),
        ..CacheStats::default()
    };
    let name = format!("paper_tables::{}_method_slice", methods.len());
    case_json(&name, &stats, &cached, &parallel)
}

/// The cost of the observability layer on the motivating example: an
/// aggregate sink against disabled tracing. One sample is a batch of 10
/// back-to-back inferences (each with a fresh cache), long enough that
/// scheduler hiccups average out within it; it reports ms per inference.
fn trace_overhead() -> Comparison {
    let m = subjects::motivating::motivating();
    let tp = m.compile();
    let suite = generate_tests(&tp, m.name, &TestGenConfig::default());
    let batch = |sink: &Option<Arc<obs::TraceSink>>| {
        let ms = timed(|| {
            for _ in 0..10 {
                let mut cfg = PreInferConfig::default();
                cfg.prune.solver_cache = Some(Arc::new(SolverCache::new()));
                cfg.prune.solver.trace = sink.clone();
                cfg.prune.trace = sink.clone();
                let out = infer_all_preconditions(&tp, m.name, &suite, &cfg, 1);
                assert!(!out.is_empty(), "motivating example inferred nothing");
            }
        });
        ms / 10.0
    };
    let aggregate = Some(Arc::new(obs::TraceSink::aggregate()));
    compare(|| batch(&None), || batch(&aggregate))
}

/// The tiered backend against simplex only, on the Section V protocol
/// over [`tables_slice`] with the solver cache off (every query executes,
/// so the difference is pure backend cost and the counters are raw query
/// traffic).
fn run_solver_tiers_case() -> Vec<(&'static str, String)> {
    let methods = tables_slice();
    let eval = |backend: BackendKind| {
        let mut cfg = EvalConfig { jobs: 1, solver_cache: false, ..EvalConfig::default() };
        cfg.testgen.solver.backend = backend;
        evaluate_corpus(&methods, &cfg)
    };
    let tiered =
        compare(|| timed(|| eval(BackendKind::Simplex)), || timed(|| eval(BackendKind::Tiered)));
    tiered.print("solver tiers tiered/simplex_only");
    let t = eval(BackendKind::Tiered)
        .iter()
        .fold(TierSnapshot::default(), |acc, r| acc.plus(&r.solver_tiers));
    vec![
        ("case", escape("paper_tables::5_method_slice")),
        ("tiered_vs_simplex_only", tiered.json()),
        ("answered_by_syntactic", t.answered_by_syntactic.to_string()),
        ("answered_by_interval", t.answered_by_interval.to_string()),
        ("answered_by_simplex", t.answered_by_simplex.to_string()),
        ("escalations", t.escalations.to_string()),
        ("tier1_answer_rate", format!("{:.4}", t.tier1_rate())),
    ]
}

/// Warm [`solver::IncrementalSession`]s against from-scratch
/// [`solver::solve_preds_with`] on Algorithm 1's implied-check sweeps
/// (`e_0 ∧ … ∧ e_{j-1} ∧ ¬e_j` for `j = n-1` down to `0`, as the pruning
/// loop issues them), replayed from the corpus's failing paths with at
/// least six entries: the prefix-sharing regime the session exists for.
/// Only the solver calls are replayed, since the pipeline around them is
/// the same in both modes.
fn run_solver_incremental_case() -> Vec<(&'static str, String)> {
    const MIN_PATH_DEPTH: usize = 6;
    let mut sweeps: Vec<(solver::FuncSig, Vec<Vec<symbolic::pred::Pred>>)> = Vec::new();
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
            sweeps.push((sig.clone(), queries));
        }
    }
    let queries: usize = sweeps.iter().map(|(_, q)| q.len()).sum();
    assert!(queries > 0, "incremental bench found no deep failing-path sweeps");

    let cfg = solver::SolverConfig::default();
    // An equivalence spot check before timing (the corpus replay in
    // tests/session_replay.rs is the real guarantee; this catches a broken
    // build before it pollutes the timing).
    for (sig, qs) in &sweeps {
        let mut session = solver::IncrementalSession::new(sig, &cfg, None);
        for q in qs {
            let (w, _) = session.solve_preds(q);
            let (s, _) = solver::solve_preds_with(q, sig, &cfg, None);
            assert_eq!(w, s, "incremental/scratch divergence in bench workload");
        }
    }
    let warm = || {
        for (sig, qs) in &sweeps {
            let mut session = solver::IncrementalSession::new(sig, &cfg, None);
            for q in qs {
                let _ = session.solve_preds(q);
            }
        }
    };
    let scratch = || {
        for (sig, qs) in &sweeps {
            for q in qs {
                let _ = solver::solve_preds_with(q, sig, &cfg, None);
            }
        }
    };
    let incremental = compare(|| timed(scratch), || timed(warm));
    incremental.print("solver incremental/scratch");
    vec![
        ("case", escape("corpus_failing_paths::algorithm1_sweeps")),
        ("sweeps", sweeps.len().to_string()),
        ("queries", queries.to_string()),
        ("incremental_vs_scratch", incremental.json()),
    ]
}

/// Inline callee unrolling against bottom-up ψ-summary application over
/// the multi-function corpus slice, end to end (generation + inference
/// per method). The summary arm runs against one warm [`SummaryTable`]
/// shared across methods and rounds: the serving scenario, where every
/// α-equivalent callee closure after the first is a table hit and a
/// request pays resolution plus the collapsed entry-level path space.
///
/// [`SummaryTable`]: preinfer_core::SummaryTable
fn run_interproc_case() -> Vec<(&'static str, String)> {
    use preinfer_core::{build_summaries, SummaryBuildConfig, SummaryTable};
    let methods: Vec<(minilang::TypedProgram, SubjectMethod)> = subjects::all_subjects()
        .into_iter()
        .filter(|m| m.namespace == "Interproc.Summaries")
        .map(|m| (m.compile(), m))
        .collect();
    assert!(!methods.is_empty(), "interproc bench found no multi-function subjects");

    let inline_pass = || {
        for (tp, m) in &methods {
            let suite = generate_tests(tp, m.name, &TestGenConfig::default());
            let mut cfg = PreInferConfig::default();
            cfg.prune.jobs = 1;
            std::hint::black_box(infer_all_preconditions(tp, m.name, &suite, &cfg, 1));
        }
    };
    // The summary arm times the daemon's steady state: the table was
    // populated when each closure was first seen and the per-program
    // `ResolvedSummaries` handle is reused across requests, so a request
    // pays generation + inference with callee paths collapsed to ψ atoms,
    // not the one-time bottom-up build.
    let table = Arc::new(SummaryTable::new());
    let apply_stats: Arc<concolic::SummaryApplyStats> = Default::default();
    let build_all = || -> Vec<Option<Arc<concolic::ResolvedSummaries>>> {
        let cfg = SummaryBuildConfig { stats: apply_stats.clone(), ..Default::default() };
        methods
            .iter()
            .map(|(tp, m)| {
                let build = build_summaries(tp, m.name, &table, &cfg);
                (!build.resolved.is_empty()).then_some(build.resolved)
            })
            .collect()
    };
    let resolved = build_all();
    let summary_pass = || {
        for ((tp, m), res) in methods.iter().zip(&resolved) {
            let mut tg = TestGenConfig::default();
            let mut cfg = PreInferConfig::default();
            cfg.prune.jobs = 1;
            if let Some(res) = res {
                tg.concolic.summaries = Some(res.clone());
                cfg.prune.concolic.summaries = Some(res.clone());
            }
            let suite = generate_tests(tp, m.name, &tg);
            std::hint::black_box(infer_all_preconditions(tp, m.name, &suite, &cfg, 1));
        }
    };
    // Prove the table is warm: a re-resolution of every method's closures
    // must be all hits.
    let hits_before = table.hits();
    build_all();
    let warm_hits = table.hits() - hits_before;
    let summary = compare(|| timed(inline_pass), || timed(summary_pass));
    summary.print("interproc summary/inline");
    vec![
        ("case", escape("interproc::summary_vs_inline")),
        ("methods", methods.len().to_string()),
        ("summary_vs_inline", summary.json()),
        ("table_entries", table.len().to_string()),
        ("table_hits", warm_hits.to_string()),
        ("summary_applies", apply_stats.applies().to_string()),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out_dir] = args.as_slice() else {
        eprintln!("usage: perf_smoke OUT_DIR");
        std::process::exit(2);
    };
    let dir = Path::new(out_dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {out_dir}: {e}"));
    let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("perf smoke: {jobs} thread(s), {ROUNDS} bracketed rounds per pass, ratio arm/base");

    let all = subjects::all_subjects();
    let mut picks = vec![subjects::motivating::motivating()];
    for name in ["bubble_sort", "inverse_sum", "binary_search"] {
        picks.extend(all.iter().find(|m| m.name == name).cloned());
    }
    let mut cases: Vec<String> = picks.iter().map(|m| run_case(m, jobs)).collect();
    cases.push(run_tables_case(jobs));
    let trace = trace_overhead();
    trace.print("trace overhead aggregate/disabled");
    write_bench(
        dir,
        "BENCH_solver_cache.json",
        &[
            ("jobs", jobs.to_string()),
            ("cases", format!("[\n    {}\n  ]", cases.join(",\n    "))),
            ("trace_overhead", trace.json()),
        ],
    );

    write_bench(dir, "BENCH_solver_tiers.json", &run_solver_tiers_case());
    write_bench(dir, "BENCH_solver_incremental.json", &run_solver_incremental_case());
    write_bench(dir, "BENCH_interproc.json", &run_interproc_case());
    println!("wrote the four BENCH_*.json files to {}", dir.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn quartiles_interpolate_between_samples() {
        assert_eq!(quartiles(vec![5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(vec![4.0, 3.0, 2.0, 1.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(vec![7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn paired_pass_brackets_each_arm_sample_between_two_bases() {
        // Round i: bases 10 and 6 + i (mean 8 + i/2), arm (8 + i/2) · r_i
        // with the ratios r_i scrambled, so the reported ratio is right only
        // if each arm sample is divided by the mean of its own two bases.
        let r: Vec<f64> = (0..ROUNDS).map(|i| 0.5 + ((i * 4) % ROUNDS) as f64 / 10.0).collect();
        let log = RefCell::new(String::new());
        let (mut b, mut a) = (0usize, 0usize);
        let mut base = || {
            log.borrow_mut().push('B');
            let sample = [10.0, 6.0 + (b / 2) as f64][b % 2];
            b += 1;
            sample
        };
        let mut arm = || {
            log.borrow_mut().push('A');
            a += 1;
            (8.0 + (a - 1) as f64 / 2.0) * r[a - 1]
        };
        let c = paired_pass(&mut base, &mut arm);
        assert_eq!(*log.borrow(), "BAB".repeat(ROUNDS));
        let expected = quartiles(r.clone());
        for (got, want) in c.ratio.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "ratio {:?} != {expected:?}", c.ratio);
        }
        // Gap i: 100 (i - 4) / (8 + i/2), its sign alternating by round.
        let gaps = (0..ROUNDS)
            .map(|i| (-1f64).powi(i as i32) * 100.0 * (i as f64 - 4.0) / (8.0 + i as f64 / 2.0))
            .collect();
        assert!((c.base_gap_pct - quartiles(gaps)[1]).abs() < 1e-12);
        assert_eq!(c.passes, 1);
    }

    fn pass(base_gap_pct: f64, ratio: f64) -> Comparison {
        let ratio = [ratio; 3];
        Comparison { ratio, base_gap_pct, base_ms: [1.0; 3], arm_ms: ratio, passes: 1 }
    }

    #[test]
    fn quietest_keeps_the_quieter_pass_over_a_better_ratio() {
        // Noisy passes with better ratios around the one quieter pass.
        let mut script = vec![pass(-5.0, 0.7), pass(1.5, 0.95), pass(-3.0, 0.6), pass(2.0, 0.5)];
        script.reverse();
        let c = quietest(|| script.pop().expect("ran too many passes"));
        assert_eq!((c.base_gap_pct, c.ratio[1], c.passes), (1.5, 0.95, MAX_PASSES));
    }

    #[test]
    fn quietest_stops_at_the_first_quiet_pass() {
        let mut script = vec![pass(-0.4, 1.1), pass(3.0, 0.9)];
        script.reverse();
        let c = quietest(|| script.pop().expect("ran too many passes"));
        assert_eq!((c.base_gap_pct, c.ratio[1], c.passes), (-0.4, 1.1, 1));
        assert_eq!(script.len(), 1, "a quiet first pass is kept without rerunning");
    }
}
