//! Corpus evaluation: runs the Section V protocol over every subject method
//! and scores PreInfer, FixIt and DySy per assertion-containing location.

use baselines::{infer_dysy, infer_fixit};
use concolic::{run_concolic, ConcolicConfig};
use minilang::{program_check_sites, CheckId, LoopPos, MethodEntryState, TypedProgram};
use obs::{LatencySummary, Stage};
use preinfer_core::metrics::PROBE_SEED;
use preinfer_core::{
    evaluate_precondition, map_parallel, random_probe, MethodRun, PrecondQuality,
    SummaryBuildConfig, SummaryTable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use solver::{Deadline, SolverCache, TierCounters, TierSnapshot};
use std::sync::Arc;
use subjects::SubjectMethod;
use symbolic::{Formula, PathOutcome};
use testgen::TestGenConfig;

/// The three approaches, in the tables' column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Approach {
    PreInfer,
    FixIt,
    DySy,
}

impl Approach {
    /// All approaches in table order.
    pub const ALL: [Approach; 3] = [Approach::PreInfer, Approach::FixIt, Approach::DySy];

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            Approach::PreInfer => "PreInfer",
            Approach::FixIt => "FixIt",
            Approach::DySy => "DySy",
        }
    }
}

/// One approach's scored result at one ACL.
#[derive(Debug, Clone)]
pub struct ApproachResult {
    pub sufficient: bool,
    pub necessary: bool,
    pub correct: Option<bool>,
    pub complexity: usize,
    pub relative_complexity: Option<f64>,
    /// Whether the inferred precondition contains a quantifier.
    pub quantified: bool,
    /// Rendered `ψ` (truncated for giant DySy formulas).
    pub psi: String,
}

impl ApproachResult {
    /// `#Both`: sufficient and necessary.
    pub fn both(&self) -> bool {
        self.sufficient && self.necessary
    }
}

/// Scored results for one triggered ACL.
#[derive(Debug, Clone)]
pub struct AclResult {
    pub namespace: String,
    pub subject: String,
    pub method: String,
    pub kind: String,
    pub loop_pos_label: String,
    pub loop_pos: LoopPos,
    /// Whether the ground truth needs a quantifier (Table VI membership);
    /// `None` when the ACL carries no annotation.
    pub quantified_target: Option<bool>,
    pub preinfer: ApproachResult,
    pub fixit: ApproachResult,
    pub dysy: ApproachResult,
}

impl AclResult {
    /// The result for a given approach.
    pub fn of(&self, a: Approach) -> &ApproachResult {
        match a {
            Approach::PreInfer => &self.preinfer,
            Approach::FixIt => &self.fixit,
            Approach::DySy => &self.dysy,
        }
    }
}

/// Per-method evaluation output.
#[derive(Debug, Clone)]
pub struct MethodResult {
    pub namespace: String,
    pub subject: String,
    pub method: String,
    pub coverage_percent: f64,
    pub tests: usize,
    /// Solver-cache hits observed while evaluating this method (0 when the
    /// cache is disabled). Diagnostics: hit counts depend on traffic order.
    pub solver_cache_hits: u64,
    /// Solver-cache misses observed while evaluating this method.
    pub solver_cache_misses: u64,
    /// Per-stage latency summaries from an aggregate [`obs::TraceSink`]
    /// (stages with zero samples are omitted; empty when
    /// [`EvalConfig::trace`] is off). Diagnostics only — the timings never
    /// feed back into inference, and every other field is byte-identical
    /// with tracing on or off.
    pub stage_timings: Vec<(Stage, LatencySummary)>,
    /// Per-tier solver answer counts for this method (executed solves
    /// only — cache hits replay tiers without counting). Diagnostics:
    /// like cache hit counts, the split depends on traffic order.
    pub solver_tiers: TierSnapshot,
    /// The interprocedural mode this method was evaluated under
    /// (`"inline"` or `"summary"`).
    pub interproc: &'static str,
    /// Callees with stored ψ-summaries (0 in inline mode).
    pub summarized_callees: usize,
    /// Summary-table hits during the bottom-up build (α-equivalent closure
    /// reuse; depends on what earlier methods populated when the table is
    /// shared — diagnostics, like the solver-cache counters).
    pub summary_table_hits: u64,
    /// Checks summarized at call sites during this method's executions.
    pub summary_applies: u64,
    /// Per-check or per-call fallbacks to inline recording.
    pub summary_fallbacks: u64,
    pub acls: Vec<AclResult>,
}

/// Evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Test-generation settings; pruning solves with the same
    /// `SolverConfig`, so `testgen.solver.backend` picks the backend for
    /// both (perf_smoke's simplex-only arm sets it).
    pub testgen: TestGenConfig,
    /// Worker threads for [`evaluate_corpus`] (methods are independent, so
    /// any value produces identical results). `0`/`1` is serial.
    pub jobs: usize,
    /// Front every solver call with a per-method canonicalizing cache.
    pub solver_cache: bool,
    /// Collect per-stage timing aggregates into
    /// [`MethodResult::stage_timings`] (an aggregate sink: histograms only,
    /// no event buffering). Timings are diagnostics; every other result
    /// field is identical with tracing on or off.
    pub trace: bool,
    /// How user calls are treated: `None` inlines the callee body (the
    /// default, the paper's behaviour); a table applies bottom-up
    /// ψ-summaries at call sites, shared across methods so α-equivalent
    /// callee closures reuse each other's inference.
    pub summary_table: Option<Arc<SummaryTable>>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            testgen: TestGenConfig::default(),
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            solver_cache: true,
            trace: true,
            summary_table: None,
        }
    }
}

/// Extra execution-classified probe states per method for the Suff/Nece
/// check — the counterpart of the paper's "re-run Pex against the inserted
/// precondition" validation: each probe state is executed and labelled
/// passing/failing per ACL by what actually happens.
const CHECK_PROBES: usize = 150;

/// Executes [`CHECK_PROBES`] random states on the concolic executor,
/// returning each with the check it failed at (if any). Runs a budget
/// stopped (out of fuel or past the call-depth bound) are dropped.
fn classified_probes(
    tp: &TypedProgram,
    func: &minilang::Func,
) -> Vec<(MethodEntryState, Option<CheckId>)> {
    let mut rng = StdRng::seed_from_u64(PROBE_SEED ^ 0x9E37);
    let mut out = Vec::with_capacity(CHECK_PROBES);
    for _ in 0..CHECK_PROBES {
        let state = random_probe(func, &mut rng);
        let run = run_concolic(tp, &func.name, &state, &ConcolicConfig::default(), None);
        match run.path.outcome {
            PathOutcome::OutOfFuel | PathOutcome::CallDepthExceeded => {}
            PathOutcome::Completed => out.push((state, None)),
            PathOutcome::Failed(id) => out.push((state, Some(id))),
        }
    }
    out
}

fn render_psi(psi: &Formula) -> String {
    let s = psi.to_string();
    if s.len() > 400 {
        format!("{}… [{} chars]", &s[..400], s.len())
    } else {
        s
    }
}

/// Runs the full protocol on one subject method.
pub fn evaluate_method(m: &SubjectMethod, cfg: &EvalConfig) -> MethodResult {
    let tp = m.compile();
    let func = m.func(&tp).clone();
    // Per-method cache, aggregate sink (per-stage histograms only, no
    // per-event buffering) and tier counters, shared by test generation
    // and pruning; no deadline.
    let cache = cfg.solver_cache.then(|| Arc::new(SolverCache::new()));
    let sink = cfg.trace.then(|| Arc::new(obs::TraceSink::aggregate()));
    let tiers = Arc::new(TierCounters::default());
    let run = SummaryBuildConfig::new(
        cfg.testgen.clone(),
        cache.clone(),
        Deadline::none(),
        sink.clone(),
        tiers.clone(),
        Default::default(),
    );
    // With a summary table: infer each reachable callee's ψ once,
    // bottom-up, and apply ψ(actuals) at call sites instead of unrolling.
    let MethodRun { suite, inferences, summaries } =
        run.run(&tp, m.name, cfg.summary_table.as_deref());
    let coverage = suite.coverage_percent(&func);
    // Program-wide: a triggered ACL may live inside a callee (reached
    // through inlining or reported through a summary application).
    let sites = program_check_sites(tp.program());
    let probes = classified_probes(&tp, &func);
    let mut acls = Vec::new();
    for acl in suite.triggered_acls() {
        let Some(site) = sites.iter().find(|s| s.id == acl) else { continue };
        let truth_alpha = m.truth_alpha(&tp, acl);
        let truth_psi = truth_alpha.as_ref().map(|a| a.negated());
        let quantified_target = m.truth_quantified(&tp, acl);
        let (pass, fail) = suite.partition(acl);
        // The checking set: the shared suite plus execution-classified
        // probes (the paper's "insert and re-run Pex" validation).
        let mut pass_states: Vec<&MethodEntryState> = pass.iter().map(|r| &r.state).collect();
        let mut fail_states: Vec<&MethodEntryState> = fail.iter().map(|r| &r.state).collect();
        for (state, failed_at) in &probes {
            if *failed_at == Some(acl) {
                fail_states.push(state);
            } else {
                pass_states.push(state);
            }
        }

        let score = |psi: &Formula, quantified: bool| -> ApproachResult {
            let q: PrecondQuality =
                evaluate_precondition(psi, &func, &pass_states, &fail_states, truth_psi.as_ref());
            ApproachResult {
                sufficient: q.sufficient,
                necessary: q.necessary,
                correct: q.correct,
                complexity: q.complexity,
                relative_complexity: q.relative_complexity,
                quantified,
                psi: render_psi(psi),
            }
        };

        let preinfer = inferences
            .iter()
            .find(|(id, _)| *id == acl)
            .map(|(_, inf)| score(&inf.precondition.psi, inf.precondition.quantified))
            .unwrap_or_else(|| score(&Formula::t(), false));
        let fixit = infer_fixit(acl, &suite)
            .map(|p| score(&p.psi, p.psi.is_quantified()))
            .unwrap_or_else(|| score(&Formula::t(), false));
        let dysy = infer_dysy(acl, &suite)
            .map(|p| score(&p.psi, p.psi.is_quantified()))
            .unwrap_or_else(|| score(&Formula::t(), false));

        acls.push(AclResult {
            namespace: m.namespace.to_string(),
            subject: m.subject.to_string(),
            method: m.name.to_string(),
            kind: acl.kind.to_string(),
            loop_pos_label: site.loop_pos.to_string(),
            loop_pos: site.loop_pos,
            quantified_target,
            preinfer,
            fixit,
            dysy,
        });
    }
    let cache_stats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let stage_timings = sink
        .as_ref()
        .map(|s| s.stages().filter(|(_, summary)| summary.count > 0).collect())
        .unwrap_or_default();
    MethodResult {
        namespace: m.namespace.to_string(),
        subject: m.subject.to_string(),
        method: m.name.to_string(),
        coverage_percent: coverage,
        tests: suite.len(),
        solver_cache_hits: cache_stats.hits,
        solver_cache_misses: cache_stats.misses,
        stage_timings,
        solver_tiers: tiers.snapshot(),
        interproc: if cfg.summary_table.is_some() { "summary" } else { "inline" },
        summarized_callees: summaries.as_ref().map_or(0, |b| b.summarized.len()),
        summary_table_hits: summaries.as_ref().map_or(0, |b| b.table_hits),
        summary_applies: summaries.as_ref().map_or(0, |b| b.resolved.stats.applies()),
        summary_fallbacks: summaries.as_ref().map_or(0, |b| b.resolved.stats.fallbacks()),
        acls,
    }
}

/// Runs the protocol over a set of methods, fanning methods across
/// `cfg.jobs` worker threads. Methods are evaluated independently (each
/// with its own suite, probes, and solver cache), so the results are
/// identical for any thread count; output order follows `methods`.
pub fn evaluate_corpus(methods: &[SubjectMethod], cfg: &EvalConfig) -> Vec<MethodResult> {
    map_parallel(methods, cfg.jobs, |m| evaluate_method(m, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end sanity on a handful of methods spanning the phenomena:
    /// a plain null case, a quantified existential case, and a guard case
    /// where FixIt loses necessity.
    #[test]
    fn spot_check_three_methods() {
        let cfg = EvalConfig::default();
        let all = subjects::all_subjects();

        let bubble = all.iter().find(|m| m.name == "bubble_sort").unwrap();
        let r = evaluate_method(bubble, &cfg);
        assert!(r.coverage_percent > 50.0);
        let null_acl = r.acls.iter().find(|a| a.kind == "NullReference").unwrap();
        assert!(null_acl.preinfer.both(), "psi = {}", null_acl.preinfer.psi);
        assert_eq!(null_acl.preinfer.correct, Some(true), "psi = {}", null_acl.preinfer.psi);

        let inverse = all.iter().find(|m| m.name == "inverse_sum").unwrap();
        let r = evaluate_method(inverse, &cfg);
        let div_acl = r.acls.iter().find(|a| a.kind == "DivideByZero").unwrap();
        assert_eq!(div_acl.quantified_target, Some(true));
        assert!(div_acl.preinfer.quantified, "psi = {}", div_acl.preinfer.psi);
        assert!(div_acl.preinfer.both(), "psi = {}", div_acl.preinfer.psi);
        assert!(!div_acl.fixit.quantified);

        let guarded = all.iter().find(|m| m.name == "guarded_div").unwrap();
        let r = evaluate_method(guarded, &cfg);
        let acl = r.acls.iter().find(|a| a.kind == "DivideByZero").unwrap();
        assert!(acl.preinfer.both(), "psi = {}", acl.preinfer.psi);
        assert_eq!(acl.preinfer.correct, Some(true), "psi = {}", acl.preinfer.psi);
        assert!(!acl.fixit.necessary, "FixIt loses the guard: psi = {}", acl.fixit.psi);
    }
}
