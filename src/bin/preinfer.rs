//! The `preinfer` command-line tool: infer preconditions for a MiniLang
//! program the way the paper's prototype extends Pex.
//!
//! ```text
//! preinfer path/to/program.ml [--fn NAME] [--baselines] [--tests N]
//!          [--interproc inline|summary]
//!          [--timeout-ms N] [--verbose] [--trace-out FILE]
//! ```
//!
//! Generates a test suite for the function (default: the first one), then
//! prints, for every assertion-containing location the suite triggers, the
//! inferred precondition `ψ`, the failure condition `α`, pruning statistics
//! and suite-based quality. The method runs as one job, with one
//! canonicalizing solver cache shared by test generation and inference.
//! `--baselines` additionally prints FixIt's and DySy's inferences for
//! comparison.

use preinfer::prelude::*;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    path: String,
    func: Option<String>,
    baselines: bool,
    max_runs: Option<usize>,
    interproc: InterprocMode,
    timeout_ms: Option<u64>,
    verbose: bool,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: preinfer <program.ml> [--fn NAME] [--baselines] [--tests N]\n\
         \x20               [--interproc inline|summary]\n\
         \x20               [--timeout-ms N] [--verbose] [--trace-out FILE]\n\
         \n\
         Infers preconditions for every assertion-containing location that\n\
         generated tests can make fail, per the PreInfer (DSN 2018) pipeline.\n\
         \n\
         --interproc M      `inline` (default) unrolls callee bodies into the\n\
         \x20                  caller's path condition; `summary` infers each\n\
         \x20                  non-recursive callee's ψ once bottom-up and\n\
         \x20                  applies ψ(actuals) at call sites instead. ψ for\n\
         \x20                  the entry is identical or strictly stronger\n\
         \x20                  (callee-internal atoms drop out of disjuncts)\n\
         --timeout-ms N     wall-clock deadline for the whole run, checked\n\
         \x20                  before each solver call and every 1024\n\
         \x20                  executor steps; a run that passes it reports\n\
         \x20                  a partial (still sound) result as timed out\n\
         --trace-out FILE   record a structured JSON-lines trace of every\n\
         \x20                  pipeline stage (spans, per-decision events,\n\
         \x20                  solver calls) to FILE; results are identical\n\
         \x20                  with or without tracing"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        func: None,
        baselines: false,
        max_runs: None,
        interproc: InterprocMode::default(),
        timeout_ms: None,
        verbose: false,
        trace_out: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fn" => opts.func = args.next().or_else(|| usage()),
            "--baselines" => opts.baselines = true,
            "--verbose" => opts.verbose = true,
            "--interproc" => {
                opts.interproc = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--tests" => {
                opts.max_runs =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--timeout-ms" => {
                opts.timeout_ms =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--trace-out" => opts.trace_out = args.next().or_else(|| usage()),
            "--help" | "-h" => usage(),
            other if opts.path.is_empty() && !other.starts_with('-') => {
                opts.path = other.to_string()
            }
            _ => usage(),
        }
    }
    if opts.path.is_empty() {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("preinfer: cannot read {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let program = match minilang::compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("preinfer: {e}");
            return ExitCode::FAILURE;
        }
    };
    let func_name = match program.program().entry(opts.func.as_deref(), &opts.path) {
        Ok(f) => f.name.clone(),
        Err(e) => {
            eprintln!("preinfer: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cache = Arc::new(SolverCache::new());
    let deadline = opts.timeout_ms.map(Deadline::after_ms).unwrap_or_default();
    // Recording sink when a trace file is requested: buffers every span and
    // event as a JSON line. Observation-only — ψ is identical either way.
    let sink = opts.trace_out.as_ref().map(|_| Arc::new(preinfer::obs::TraceSink::recording()));
    let run_start = std::time::Instant::now();
    let tiers = Arc::new(TierCounters::default());
    let inc_stats = Arc::new(IncrementalCounters::default());
    let mut tg = TestGenConfig::default();
    if let Some(n) = opts.max_runs {
        tg.max_runs = n;
    }
    let run = SummaryBuildConfig::new(
        tg,
        Some(cache.clone()),
        deadline,
        sink.clone(),
        tiers.clone(),
        inc_stats.clone(),
    );
    // Summary mode: infer every non-recursive reachable callee's ψ first
    // (bottom-up), then apply the summaries at call sites.
    let table = SummaryTable::new();
    let table = (opts.interproc == InterprocMode::Summary).then_some(&table);
    if table.is_some() {
        println!("building callee ψ-summaries for `{func_name}` …");
    }
    println!("generating tests for `{func_name}` …");
    let MethodRun { suite, inferences: inferred, summaries: summary_build } =
        run.run(&program, &func_name, table);
    let elapsed = run_start.elapsed();
    // Every answer the deadline changed was changed after the clock passed
    // it, so one look at the end tells whether this run was cut short.
    let timed_out = match opts.timeout_ms {
        Some(ms) if deadline.expired() => {
            format!(" [TIMED OUT after {ms} ms — results are partial but sound]")
        }
        _ => String::new(),
    };
    let func = program.func(&func_name).expect("checked above");
    println!(
        "{} tests, {:.1}% block coverage, {} exception-throwing location(s)\n",
        suite.len(),
        suite.coverage_percent(func),
        suite.triggered_acls().len()
    );
    if suite.triggered_acls().is_empty() {
        println!("no failures found — nothing to infer.{timed_out}");
        finish_trace(&opts, &sink, &func_name, run_start, 0);
        return ExitCode::SUCCESS;
    }

    for (acl, inf) in &inferred {
        let acl = *acl;
        let (pass, fail) = suite.partition(acl);
        println!("── {acl} ─ {} failing / {} passing tests", fail.len(), pass.len());
        if opts.verbose {
            for f in fail.iter().take(3) {
                println!("   e.g. failing input {}", f.state);
            }
        }
        println!("   PreInfer ψ: {}", inf.precondition.psi);
        if opts.verbose {
            println!("   PreInfer α: {}", inf.precondition.alpha);
            println!(
                "   pruning: {} examined, {} removed, {} kept by c-depend, {} by d-impact, {} by the guard, {} dynamic runs, {} cache hits / {} misses",
                inf.prune_stats.examined,
                inf.prune_stats.removed,
                inf.prune_stats.kept_c_depend,
                inf.prune_stats.kept_d_impact,
                inf.prune_stats.kept_guard,
                inf.prune_stats.dynamic_runs,
                inf.prune_stats.solver_cache_hits,
                inf.prune_stats.solver_cache_misses,
            );
        }
        let blocked = fail
            .iter()
            .filter(|r| !preinfer::preinfer_core::validates(&inf.precondition.psi, &r.state))
            .count();
        let admitted = pass
            .iter()
            .filter(|r| preinfer::preinfer_core::validates(&inf.precondition.psi, &r.state))
            .count();
        println!(
            "   blocks {blocked}/{} failing and admits {admitted}/{} passing tests (|ψ| = {})",
            fail.len(),
            pass.len(),
            inf.precondition.psi.complexity()
        );
        if opts.baselines {
            if let Some(p) = infer_fixit(acl, &suite) {
                println!("   FixIt    ψ: {}", p.psi);
            }
            if let Some(p) = infer_dysy(acl, &suite) {
                let s = p.psi.to_string();
                let shown =
                    if s.len() > 160 { format!("{}… [{} chars]", &s[..160], s.len()) } else { s };
                println!("   DySy     ψ: {shown}");
            }
        }
        println!();
    }

    print!(
        "inferred {} precondition(s) in {:.2}s (tests and inference){timed_out}",
        inferred.len(),
        elapsed.as_secs_f64(),
    );
    let c = cache.stats();
    println!(
        "; solver cache: {} hits / {} misses ({:.0}% hit rate), {} entries, {} evicted in {} sweep(s)",
        c.hits,
        c.misses,
        100.0 * c.hit_rate(),
        c.entries,
        c.evicted_entries,
        c.evictions
    );
    let t = tiers.snapshot();
    println!(
        "solver tiers: {} syntactic / {} interval / {} simplex answer(s), \
         {} escalation(s) ({:.0}% answered above simplex)",
        t.answered_by_syntactic,
        t.answered_by_interval,
        t.answered_by_simplex,
        t.escalations,
        100.0 * t.tier1_rate(),
    );
    let i = inc_stats.snapshot();
    println!(
        "incremental solving: {} session(s), {} queries, {} push(es) / {} pop(s), \
         mean reused depth {:.1}",
        i.sessions,
        i.queries,
        i.pushes,
        i.pops,
        i.avg_reused_depth(),
    );
    if let Some(build) = &summary_build {
        let stats = &build.resolved.stats;
        print!(
            "interproc summaries: {} callee(s) summarized, {} apply(ies) / {} fallback(s)",
            build.summarized.len(),
            stats.applies(),
            stats.fallbacks(),
        );
        if build.fallbacks.is_empty() {
            println!();
        } else {
            let listed: Vec<String> =
                build.fallbacks.iter().map(|(f, r)| format!("{f} ({r})")).collect();
            println!("; inlined: {}", listed.join(", "));
        }
    }
    finish_trace(&opts, &sink, &func_name, run_start, inferred.len());
    ExitCode::SUCCESS
}

/// Stamps the final `run` event, writes the JSON-lines trace file, and
/// prints the per-stage timing breakdown. No-op without `--trace-out`.
fn finish_trace(
    opts: &Options,
    sink: &Option<Arc<preinfer::obs::TraceSink>>,
    func_name: &str,
    run_start: std::time::Instant,
    acls: usize,
) {
    let (Some(path), Some(sink)) = (&opts.trace_out, sink) else { return };
    sink.event(
        "run",
        &[
            ("func", preinfer::obs::Val::S(func_name)),
            ("dur_us", preinfer::obs::Val::U(run_start.elapsed().as_micros() as u64)),
            ("acls", preinfer::obs::Val::U(acls as u64)),
        ],
    );
    match std::fs::File::create(path) {
        Ok(mut f) => {
            if let Err(e) = sink.write_jsonl(&mut f) {
                eprintln!("preinfer: cannot write trace to {path}: {e}");
            } else {
                println!("wrote {} trace event(s) to {path}", sink.lines().len());
            }
        }
        Err(e) => eprintln!("preinfer: cannot create {path}: {e}"),
    }
    // Exclusive self-time per stage via the same span-tree reconstruction
    // `preinfer-trace` uses (inclusive totals alone double-count nested
    // work: a `prune` span contains every solver call fired inside it).
    let lines = sink.lines();
    let analysis = preinfer::obs::TraceAnalysis::from_lines(lines.iter().map(String::as_str)).ok();
    let exclusive = |label: &str| {
        analysis
            .as_ref()
            .and_then(|a| a.stage_totals().into_iter().find(|t| t.stage == label))
            .map(|t| t.exclusive_us)
    };
    println!("stage breakdown (excl = self-time, nested work subtracted):");
    for (stage, snap) in sink.stages() {
        if snap.count == 0 {
            continue;
        }
        println!(
            "  {:>14}: {:>6} × mean {} µs (p50 {} / p90 {} / p99 {}), total {:.3}s, excl {:.3}s",
            stage.label(),
            snap.count,
            snap.mean_us,
            snap.p50_us,
            snap.p90_us,
            snap.p99_us,
            snap.total_us as f64 / 1e6,
            exclusive(stage.label()).unwrap_or(snap.total_us) as f64 / 1e6,
        );
    }
}
