//! `offline_cold`: the pipeline in process, one method at a time, with
//! every cache cold.
//!
//! Each step does what the `preinfer` CLI does for one method:
//! `minilang::compile`, then a fresh `SolverCache` shared by
//! `testgen::generate_tests` and `preinfer_core::infer_all_preconditions`
//! with one job. Nothing is reused across methods except the process-wide
//! term interner, so solver, concolic execution and pruning do all the
//! work and no server layer runs.

use crate::inputs::Method;
use crate::report::{put, Measured, Metrics, Tally, TraceTotals};
use crate::stats::{quantile, ratio, shuffle, sorted, Rng};
use obs::{Stage, TraceAnalysis, TraceSink};
use preinfer_core::{infer_all_preconditions, PreInferConfig};
use solver::{IncrementalCounters, SolverCache, TierCounters};
use std::sync::Arc;
use std::time::{Duration, Instant};
use testgen::{generate_tests, TestGenConfig};

/// In a traced run, every this-many-th method also records full traces.
const RECORD_EVERY: u64 = 50;

/// Seed streams: warm-up passes, then measured passes from here on.
const STREAM_WARMUP: u64 = 0x100;
const STREAM_PASS: u64 = 0x1000;

/// Observation shared by every method of one phase.
struct Probe {
    tiers: Arc<TierCounters>,
    incremental: Arc<IncrementalCounters>,
    /// Aggregate sinks on the test-generation and inference configs, so
    /// solver time splits by caller (traced runs only).
    sinks: Option<(Arc<TraceSink>, Arc<TraceSink>)>,
}

impl Probe {
    fn new(traced: bool) -> Probe {
        Probe {
            tiers: Arc::default(),
            incremental: Arc::default(),
            sinks: traced
                .then(|| (Arc::new(TraceSink::aggregate()), Arc::new(TraceSink::aggregate()))),
        }
    }
}

/// One method's outcome and the time each public entry point took; also
/// the running total over a phase.
#[derive(Default)]
struct Step {
    total: Duration,
    compile: Duration,
    testgen: Duration,
    core: Duration,
    tests: usize,
    lookups: (u64, u64),
    prune: (usize, usize, usize),
}

impl Step {
    fn add(&mut self, s: &Step) {
        self.total += s.total;
        self.compile += s.compile;
        self.testgen += s.testgen;
        self.core += s.core;
        self.tests += s.tests;
        self.lookups = (self.lookups.0 + s.lookups.0, self.lookups.1 + s.lookups.1);
        self.prune = (self.prune.0 + s.prune.0, self.prune.1 + s.prune.1, self.prune.2 + s.prune.2);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one method, returning its timings and its `(ACL, ψ)` outcome.
/// `sinks` overrides the probe's aggregate sinks (a recorded method gets
/// recording sinks of its own).
fn step(
    m: &Method,
    probe: &Probe,
    sinks: Option<&(Arc<TraceSink>, Arc<TraceSink>)>,
) -> Result<(Step, Vec<(String, String)>), String> {
    let sinks = sinks.or(probe.sinks.as_ref());
    let t0 = Instant::now();
    let program = minilang::compile(m.source).map_err(|e| format!("{}: {e}", m.id))?;
    let compile = t0.elapsed();
    let cache = Arc::new(SolverCache::new());
    let mut tg = TestGenConfig { solver_cache: Some(cache.clone()), ..TestGenConfig::default() };
    tg.solver.tiers = probe.tiers.clone();
    tg.solver.incremental_stats = probe.incremental.clone();
    tg.solver.trace = sinks.map(|s| s.0.clone());
    tg.trace = tg.solver.trace.clone();
    let t1 = Instant::now();
    let suite = generate_tests(&program, m.func, &tg);
    let testgen = t1.elapsed();
    let mut cfg = PreInferConfig::default();
    cfg.prune.solver_cache = Some(cache.clone());
    cfg.prune.jobs = 1;
    cfg.prune.solver.tiers = probe.tiers.clone();
    cfg.prune.solver.incremental_stats = probe.incremental.clone();
    cfg.prune.solver.trace = sinks.map(|s| s.1.clone());
    cfg.prune.trace = cfg.prune.solver.trace.clone();
    let t2 = Instant::now();
    let inferred = infer_all_preconditions(&program, m.func, &suite, &cfg, 1);
    let core = t2.elapsed();
    let total = t0.elapsed();
    // Outside the timed span: render what the oracle checks.
    let stats = cache.stats();
    let prune = inferred.iter().fold((0, 0, 0), |(e, r, d), (_, inf)| {
        let s = &inf.prune_stats;
        (e + s.examined, r + s.removed, d + s.dynamic_runs)
    });
    let acls = inferred
        .iter()
        .map(|(acl, inf)| (format!("{acl:?}"), inf.precondition.psi.to_string()))
        .collect();
    let step = Step {
        total,
        compile,
        testgen,
        core,
        tests: suite.len(),
        lookups: (stats.hits, stats.misses),
        prune,
    };
    Ok((step, acls))
}

/// Runs `m`, checks it against the oracle, and counts the outcome.
fn checked(
    m: &Method,
    probe: &Probe,
    sinks: Option<&(Arc<TraceSink>, Arc<TraceSink>)>,
    tally: &mut Tally,
) -> Option<Step> {
    tally.attempted += 1;
    match step(m, probe, sinks) {
        Ok((s, acls)) if m.matches(acls.iter().map(|(a, p)| (a.as_str(), p.as_str()))) => Some(s),
        Ok((_, acls)) => {
            eprintln!("ψ mismatch on {}: got {acls:?}", m.id);
            tally.failed += 1;
            tally.mismatches += 1;
            None
        }
        Err(e) => {
            eprintln!("offline step failed: {e}");
            tally.failed += 1;
            None
        }
    }
}

/// Measures `offline_cold` over the `n_methods` pinned methods.
pub fn measure(
    n_methods: usize,
    seed: u64,
    secs: f64,
    traced: bool,
    setups: usize,
) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    // Closed loop, one thread: each pass visits every method once in a
    // fresh seeded order. Only sums and latencies are kept, in a buffer
    // written through before the loop: the harness's own memory is then
    // the same in every run, and peak RSS moves only with the pipeline.
    let probe = Probe::new(traced);
    let mut sums = Step::default();
    let mut lat: Vec<f64> = vec![-1.0; (secs * 5_000.0) as usize];
    lat.clear();
    let mut totals = TraceTotals::default();
    let mut keys = (0..).flat_map(|pass| {
        let mut order: Vec<usize> = (0..n_methods).collect();
        shuffle(&mut order, &mut Rng::stream(seed, STREAM_PASS + pass));
        order
    });
    // The measured span is cut into one slice per set-up, each preceded by
    // its set-up, so the set-ups sample the host over the whole run.
    let slice = Duration::from_secs_f64(secs / setups as f64);
    crate::warm_cpus();
    for s in 0..setups as u64 {
        // Set-up: load and resolve the pinned inputs, then one pass over
        // every method (the interner and allocator warm up in the first).
        let t = Instant::now();
        let methods = crate::inputs::load()?;
        let mut order: Vec<usize> = (0..methods.len()).collect();
        shuffle(&mut order, &mut Rng::stream(seed, STREAM_WARMUP + s));
        let warm = Probe::new(false);
        for i in order {
            checked(&methods[i], &warm, None, &mut tally);
        }
        setup_s.push(t.elapsed().as_secs_f64());

        let start = Instant::now();
        while start.elapsed() < slice {
            let i = keys.next().expect("the pass sequence is endless");
            let record = traced && (tally.attempted % RECORD_EVERY == 0);
            let rec = record
                .then(|| (Arc::new(TraceSink::recording()), Arc::new(TraceSink::recording())));
            if let Some(s) = checked(&methods[i], &probe, rec.as_ref(), &mut tally) {
                lat.push(ms(s.total));
                sums.add(&s);
            }
            if let (Some((tg, inf)), Some((tg_agg, inf_agg))) = (&rec, &probe.sinks) {
                tg_agg.absorb(tg);
                inf_agg.absorb(inf);
                for (sink, first) in [(tg, true), (inf, false)] {
                    let lines = sink.lines();
                    if let Ok(a) = TraceAnalysis::from_lines(lines.iter().map(String::as_str)) {
                        totals.add(&a, first);
                    }
                }
            }
        }
    }

    let n = lat.len() as u64;
    let mut e2e = Metrics::new();
    let setups_n = setup_s.len() as u64;
    put(&mut e2e, "setup_s", quantile(&sorted(setup_s), 0.5), setups_n);
    put(&mut e2e, "peak_rss_mb", crate::peak_rss_mb(std::process::id()).unwrap_or(0.0), 1);

    // Throughput counts only time inside the pipeline calls, not the
    // oracle checks.
    let mut l = Metrics::new();
    put(&mut l, "client.throughput_per_s", ratio(n as f64, sums.total.as_secs_f64()), n);
    let lat = sorted(lat);
    put(&mut l, "client.latency_p50_ms", quantile(&lat, 0.50), n);
    put(&mut l, "client.latency_p90_ms", quantile(&lat, 0.90), n);
    put(&mut l, "client.latency_p99_ms", quantile(&lat, 0.99), n);
    let per = |x: f64| ratio(x, n as f64);
    put(&mut l, "minilang.compile_us", per(ms(sums.compile) * 1e3), n);
    put(&mut l, "testgen.ms_per_method", per(ms(sums.testgen)), n);
    put(&mut l, "testgen.tests_per_method", per(sums.tests as f64), n);
    let (hits, misses) = sums.lookups;
    put(&mut l, "solver.queries_per_method", per((hits + misses) as f64), n);
    put(&mut l, "solver.cache_hit_rate", ratio(hits as f64, (hits + misses) as f64), hits + misses);
    let t = probe.tiers.snapshot();
    put(
        &mut l,
        "solver.simplex_share",
        ratio(t.answered_by_simplex as f64, t.total() as f64),
        t.total(),
    );
    let inc = probe.incremental.snapshot();
    put(&mut l, "solver.incremental_reused_depth", inc.avg_reused_depth(), inc.queries);
    put(&mut l, "preinfer-core.ms_per_method", per(ms(sums.core)), n);
    let (examined, removed, runs) = sums.prune;
    put(&mut l, "preinfer-core.dynamic_runs_per_method", per(runs as f64), n);
    put(
        &mut l,
        "preinfer-core.removed_ratio",
        ratio(removed as f64, examined as f64),
        examined as u64,
    );
    if let Some((tg, inf)) = &probe.sinks {
        let total_ms = |s: &TraceSink, stage| s.snapshot(stage).total_us as f64 / 1e3;
        put(&mut l, "solver.testgen_ms", per(total_ms(tg, Stage::Solver)), n);
        put(&mut l, "solver.prune_ms", per(total_ms(inf, Stage::Solver)), n);
        put(
            &mut l,
            "testgen.self_ms_per_method",
            per(total_ms(tg, Stage::TestGen) - total_ms(tg, Stage::Solver)),
            n,
        );
        // Every inference solver call runs inside a prune span.
        put(
            &mut l,
            "preinfer-core.prune_self_ms",
            per(total_ms(inf, Stage::Prune) - total_ms(inf, Stage::Solver)),
            n,
        );
        put(&mut l, "preinfer-core.generalize_ms", per(total_ms(inf, Stage::Generalize)), n);
        put(&mut l, "preinfer-core.assemble_ms", per(total_ms(inf, Stage::Assemble)), n);
        put(&mut l, "preinfer-core.passing_guard_ms", per(total_ms(inf, Stage::PassingGuard)), n);
        totals.put_into(&mut l);
    }
    Ok(Measured { tally, e2e, layers: l })
}
