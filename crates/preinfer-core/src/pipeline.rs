//! The end-to-end PreInfer pipeline (Section IV): collect path conditions
//! from the shared test suite, prune, generalize, assemble — and
//! [`SummaryBuildConfig::run`], the one per-method run (callee summaries,
//! test generation, then inference for every triggered ACL) that the CLI,
//! the daemon, the table drivers and the summary builder all go through.

use crate::generalize::{default_templates, generalize_path_traced, GeneralizedPath, Template};
use crate::interproc::{build_summaries, SummaryBuild, SummaryTable};
use crate::precondition::{assemble, InferredPrecondition};
use crate::pruning::{prune_failing_paths, PruneConfig, PruneStats};
use concolic::ResolvedSummaries;
use minilang::{CheckId, MethodEntryState, TypedProgram};
use solver::{Deadline, IncrementalCounters, SolverCache, TierCounters};
use std::sync::Arc;
use testgen::{generate_tests, Suite, TestGenConfig};

/// PreInfer configuration.
pub struct PreInferConfig {
    pub prune: PruneConfig,
    pub templates: Vec<Box<dyn Template>>,
}

impl Default for PreInferConfig {
    fn default() -> Self {
        PreInferConfig { prune: PruneConfig::default(), templates: default_templates() }
    }
}

/// Inference outcome for one ACL.
#[derive(Debug)]
pub struct Inference {
    pub precondition: InferredPrecondition,
    pub prune_stats: PruneStats,
    /// The generalized reduced disjuncts, for inspection/debugging.
    pub disjuncts: Vec<GeneralizedPath>,
}

/// Runs PreInfer for one assertion-containing location against a shared
/// suite. Returns `None` when the suite contains no failing test for `acl`
/// (there is nothing to infer from).
pub fn infer_precondition(
    program: &TypedProgram,
    func_name: &str,
    acl: CheckId,
    suite: &Suite,
    cfg: &PreInferConfig,
) -> Option<Inference> {
    let trace = &cfg.prune.trace;
    let (passing, failing) = {
        let _span = obs::maybe_span(trace, obs::Stage::Partition);
        suite.partition(acl)
    };
    if let Some(sink) = obs::recording_sink(trace) {
        let acl_str = format!("{acl}");
        sink.event(
            "partition",
            &[
                ("acl", obs::Val::S(&acl_str)),
                ("passing", obs::Val::U(passing.len() as u64)),
                ("failing", obs::Val::U(failing.len() as u64)),
            ],
        );
    }
    if failing.is_empty() {
        return None;
    }
    if passing.is_empty() {
        // The paper's reported weakness (§V-C): with no passing paths,
        // PreInfer "cannot infer anything" beyond the raw disjunction of the
        // failing path conditions.
        let disjuncts: Vec<GeneralizedPath> = failing
            .iter()
            .map(|r| GeneralizedPath {
                parts: r
                    .path
                    .entries
                    .iter()
                    .map(|e| symbolic::Formula::pred(e.pred.clone()))
                    .collect(),
                quantified: false,
            })
            .collect();
        let precondition = {
            let _span = obs::maybe_span(trace, obs::Stage::Assemble);
            assemble(&disjuncts)
        };
        emit_psi(trace, &precondition, disjuncts.len());
        return Some(Inference { precondition, prune_stats: Default::default(), disjuncts });
    }
    let (reduced, prune_stats) =
        prune_failing_paths(program, func_name, acl, &passing, &failing, &cfg.prune);
    let passing_states: Vec<&MethodEntryState> = passing.iter().map(|r| &r.state).collect();
    let disjuncts: Vec<GeneralizedPath> = reduced
        .iter()
        .map(|r| {
            let _span = obs::maybe_span(trace, obs::Stage::Generalize);
            generalize_path_traced(r, &cfg.templates, &passing_states, trace)
        })
        .collect();
    let precondition = {
        let _span = obs::maybe_span(trace, obs::Stage::Assemble);
        assemble(&disjuncts)
    };
    emit_psi(trace, &precondition, disjuncts.len());
    Some(Inference { precondition, prune_stats, disjuncts })
}

/// Emits the final `psi` event (recording sinks only).
fn emit_psi(
    trace: &Option<std::sync::Arc<obs::TraceSink>>,
    precondition: &InferredPrecondition,
    disjuncts: usize,
) {
    if let Some(sink) = obs::recording_sink(trace) {
        let psi = precondition.psi.to_string();
        sink.event(
            "psi",
            &[
                ("psi", obs::Val::S(&psi)),
                ("quantified", obs::Val::B(precondition.quantified)),
                ("disjuncts", obs::Val::U(disjuncts as u64)),
            ],
        );
    }
}

/// Runs PreInfer for *every* ACL the suite triggers, fanning the per-ACL
/// [`infer_precondition`] calls across `jobs` worker threads.
///
/// Results are returned sorted by ACL id, regardless of which worker
/// finished first, and each inference is independent of scheduling:
/// per-path pruning uses private witness pools, and any shared
/// [`solver::SolverCache`] in `cfg.prune` stores only values that are pure
/// functions of their canonical keys. `jobs = 1` and `jobs = N` therefore
/// produce identical output (the determinism tests lock this in).
pub fn infer_all_preconditions(
    program: &TypedProgram,
    func_name: &str,
    suite: &Suite,
    cfg: &PreInferConfig,
    jobs: usize,
) -> Vec<(CheckId, Inference)> {
    let mut acls = suite.triggered_acls();
    acls.sort();
    let results: Vec<Option<Inference>> = crate::par::map_parallel(&acls, jobs, |acl| {
        infer_precondition(program, func_name, *acl, suite, cfg)
    });
    acls.into_iter().zip(results).filter_map(|(acl, inf)| inf.map(|inf| (acl, inf))).collect()
}

/// One inference run of one method: test generation and pruning.
/// [`SummaryBuildConfig::new`] is the one place a run's shared plumbing is
/// wired; [`SummaryBuildConfig::run`] executes it. The `Default` run has no
/// cache, deadline or sink. Every front end runs one job per method;
/// `prune.jobs` (1 unless a caller widens it) bounds both the per-ACL and
/// the per-failing-path fan-out.
#[derive(Debug, Clone, Default)]
pub struct SummaryBuildConfig {
    pub testgen: TestGenConfig,
    pub prune: PruneConfig,
    /// Apply/fallback counters installed into the resolved view — pass a
    /// shared handle to aggregate across builds (the daemon does, for its
    /// lifetime `summaries` stats); the default is a fresh per-build one.
    pub stats: Arc<concolic::SummaryApplyStats>,
}

/// What one run produced.
#[derive(Debug)]
pub struct MethodRun {
    /// The generated test suite.
    pub suite: Suite,
    /// One inference per triggered ACL, sorted by ACL id.
    pub inferences: Vec<(CheckId, Inference)>,
    /// The callee-summary build, when the run was given a table.
    pub summaries: Option<SummaryBuild>,
}

impl SummaryBuildConfig {
    /// A run with `testgen`'s budgets and one solver cache, deadline, trace
    /// sink and set of tier and session counters shared by test generation
    /// and pruning. Pruning solves under test generation's
    /// [`solver::SolverConfig`] and runs one job.
    pub fn new(
        mut testgen: TestGenConfig,
        cache: Option<Arc<SolverCache>>,
        deadline: Deadline,
        trace: Option<Arc<obs::TraceSink>>,
        tiers: Arc<TierCounters>,
        sessions: Arc<IncrementalCounters>,
    ) -> SummaryBuildConfig {
        testgen.solver_cache = cache.clone();
        testgen.solver.deadline = deadline;
        testgen.solver.trace = trace.clone();
        testgen.solver.tiers = tiers;
        testgen.solver.incremental_stats = sessions;
        testgen.trace = trace.clone();
        let prune = PruneConfig {
            solver: testgen.solver.clone(),
            solver_cache: cache,
            trace,
            ..PruneConfig::default()
        };
        SummaryBuildConfig { testgen, prune, stats: Default::default() }
    }

    /// Runs `func` end to end: with a `table`, first builds the callee
    /// ψ-summaries bottom-up ([`build_summaries`]) and applies them at call
    /// sites; then generates the suite and infers ψ for every ACL it
    /// triggers.
    pub fn run(
        &self,
        program: &TypedProgram,
        func: &str,
        table: Option<&SummaryTable>,
    ) -> MethodRun {
        let summaries = table.map(|table| build_summaries(program, func, table, self));
        let (suite, inferences) =
            self.infer(program, func, summaries.as_ref().map(|b| b.resolved.clone()));
        MethodRun { suite, inferences, summaries }
    }

    /// Test generation then per-ACL inference, with `summaries` (when
    /// non-empty) applied at call sites by both stages' executors.
    pub(crate) fn infer(
        &self,
        program: &TypedProgram,
        func: &str,
        summaries: Option<Arc<ResolvedSummaries>>,
    ) -> (Suite, Vec<(CheckId, Inference)>) {
        let mut testgen = self.testgen.clone();
        let mut prune = self.prune.clone();
        if let Some(summaries) = summaries.filter(|s| !s.is_empty()) {
            testgen.concolic.summaries = Some(summaries.clone());
            prune.concolic.summaries = Some(summaries);
        }
        let suite = generate_tests(program, func, &testgen);
        let jobs = prune.jobs;
        let cfg = PreInferConfig { prune, ..PreInferConfig::default() };
        let inferences = infer_all_preconditions(program, func, &suite, &cfg, jobs);
        (suite, inferences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "
        fn example(s [str], a int, b int, c int, d int) -> int {
            let sum = 0;
            if (a > 0) { b = b + 1; }
            if (c > 0) { d = d + 1; }
            if (b > 0) { sum = sum + 1; }
            if (d > 0) {
                for (let i = 0; i < len(s); i = i + 1) {
                    sum = sum + strlen(s[i]);
                }
                return sum;
            }
            return sum;
        }";

    /// The motivating example end to end: the inferred α for the element ACL
    /// matches the paper's ground truth at Fig. 1 Line 5 (semantically).
    #[test]
    fn fig1_element_acl_full_inference() {
        let tp = minilang::compile(FIG1).unwrap();
        let func = tp.func("example").unwrap().clone();
        let suite = generate_tests(&tp, "example", &TestGenConfig::default());
        let acl = suite
            .triggered_acls()
            .into_iter()
            .find(|a| {
                let (_, fail) = suite.partition(*a);
                fail.iter().any(|r| {
                    r.path
                        .last_branch()
                        .map(|e| e.pred.to_string().starts_with("s["))
                        .unwrap_or(false)
                })
            })
            .expect("element ACL triggered");
        let inf = infer_precondition(&tp, "example", acl, &suite, &PreInferConfig::default())
            .expect("failing tests exist");
        // The inferred precondition must be quantified, sufficient, and
        // necessary; and must agree with the ground truth everywhere.
        assert!(inf.precondition.quantified, "alpha: {}", inf.precondition.alpha);
        let truth_alpha = symbolic::parse_spec(
            "((c > 0 && d + 1 > 0) || (c <= 0 && d > 0)) && s != null \
             && exists i. i < len(s) && s[i] == null",
            &func,
        )
        .unwrap();
        let truth_psi = truth_alpha.negated();
        let (pass, fail) = suite.partition(acl);
        let pass_states: Vec<_> = pass.iter().map(|r| &r.state).collect();
        let fail_states: Vec<_> = fail.iter().map(|r| &r.state).collect();
        let q = crate::metrics::evaluate_precondition(
            &inf.precondition.psi,
            &func,
            &pass_states,
            &fail_states,
            Some(&truth_psi),
        );
        assert!(q.sufficient, "not sufficient: alpha = {}", inf.precondition.alpha);
        assert!(q.necessary, "not necessary: alpha = {}", inf.precondition.alpha);
        assert_eq!(q.correct, Some(true), "alpha = {}", inf.precondition.alpha);
    }

    /// The Line-14 analogue ACL (null `s`): ground truth
    /// `((c>0 ∧ d+1>0) ∨ (c≤0 ∧ d>0)) ∧ s == null`.
    #[test]
    fn fig1_null_s_acl_full_inference() {
        let tp = minilang::compile(FIG1).unwrap();
        let func = tp.func("example").unwrap().clone();
        let suite = generate_tests(&tp, "example", &TestGenConfig::default());
        let acl = suite
            .triggered_acls()
            .into_iter()
            .find(|a| {
                let (_, fail) = suite.partition(*a);
                fail.iter().any(|r| {
                    r.path.last_branch().map(|e| e.pred.to_string() == "s == null").unwrap_or(false)
                })
            })
            .expect("null-s ACL triggered");
        let inf = infer_precondition(&tp, "example", acl, &suite, &PreInferConfig::default())
            .expect("failing tests exist");
        let truth_alpha =
            symbolic::parse_spec("((c > 0 && d + 1 > 0) || (c <= 0 && d > 0)) && s == null", &func)
                .unwrap();
        let (pass, fail) = suite.partition(acl);
        let pass_states: Vec<_> = pass.iter().map(|r| &r.state).collect();
        let fail_states: Vec<_> = fail.iter().map(|r| &r.state).collect();
        let q = crate::metrics::evaluate_precondition(
            &inf.precondition.psi,
            &func,
            &pass_states,
            &fail_states,
            Some(&truth_alpha.negated()),
        );
        assert!(q.both(), "alpha = {}", inf.precondition.alpha);
        assert_eq!(q.correct, Some(true), "alpha = {}", inf.precondition.alpha);
    }

    /// §V-C: with no passing paths, inference returns the raw disjunction
    /// of the failing path conditions without pruning.
    #[test]
    fn no_passing_paths_fallback() {
        let tp = minilang::compile("fn f(x int) { let zero = x - x; let y = 1 / zero; }").unwrap();
        let suite = generate_tests(&tp, "f", &TestGenConfig::default());
        let acl = suite.triggered_acls()[0];
        let (pass, _) = suite.partition(acl);
        assert!(pass.is_empty(), "every input fails");
        let plain = infer_precondition(&tp, "f", acl, &suite, &PreInferConfig::default()).unwrap();
        assert_eq!(plain.prune_stats, crate::PruneStats::default(), "no pruning ran");
    }

    /// The even-index step template (in the default registry) fires end to
    /// end on an every-other-element loop: the failing family `a[0] == 0,
    /// a[2] == 0, …` has no witnesses at odd indices, so the plain
    /// Universal cannot generalize it, and `StepTemplate { step: 2,
    /// offset: 0 }` produces `∀i. (0 ≤ i ∧ i < len(a) ∧ i % 2 == 0) ⟹
    /// a[i] == 0`.
    #[test]
    fn step_template_fires_on_every_other_element_loop() {
        const SRC: &str = "
            fn even_elems_zero(a [int]) -> int {
                let nonzero = 0;
                for (let i = 0; i < len(a); i = i + 2) {
                    if (a[i] != 0) { nonzero = nonzero + 1; }
                }
                return 100 / nonzero;
            }";
        let tp = minilang::compile(SRC).unwrap();
        let suite = generate_tests(&tp, "even_elems_zero", &TestGenConfig::default());
        let acl = suite
            .triggered_acls()
            .into_iter()
            .find(|a| a.kind == minilang::CheckKind::DivByZero)
            .expect("division ACL triggered");
        let inf =
            infer_precondition(&tp, "even_elems_zero", acl, &suite, &PreInferConfig::default())
                .expect("failing tests exist");
        assert!(inf.precondition.quantified, "alpha: {}", inf.precondition.alpha);
        let alpha = inf.precondition.alpha.to_string();
        assert!(
            alpha.contains("(i % 2) == 0") && alpha.contains("a[i] == 0"),
            "step template did not fire: alpha = {alpha}"
        );
        // The suite cannot fool the quantified disjunct: every failing test
        // is blocked, and no passing test is.
        let (pass, fail) = suite.partition(acl);
        assert!(fail.iter().all(|r| !crate::metrics::validates(&inf.precondition.psi, &r.state)));
        assert!(pass.iter().all(|r| crate::metrics::validates(&inf.precondition.psi, &r.state)));
    }

    #[test]
    fn no_failing_tests_means_no_inference() {
        let tp = minilang::compile("fn f(x int) -> int { return x + 1; }").unwrap();
        let suite = generate_tests(&tp, "f", &TestGenConfig::default());
        assert!(suite.triggered_acls().is_empty());
    }
}
