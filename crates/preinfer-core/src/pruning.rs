//! Dynamic predicate pruning (Section IV-A, Algorithm 1).
//!
//! For each failing path condition, predicates are examined backward from
//! the last-branch predicate and removed when they are *irrelevant*: neither
//! **c-depend** (needed for location reachability, Definition 5) nor
//! **d-impact** (needed for expression preservation, Definition 6), and —
//! the §III-A safety condition — removal must not make the reduced path
//! condition admit any observed passing state (`ρ_p ∧ ρ'_f` must stay
//! unsatisfiable; checked dynamically by evaluating the candidate reduction
//! over the passing tests' method-entry states).
//!
//! Witnesses for the two relations are searched among all collected paths;
//! in *dynamic* mode the engine additionally manufactures candidate
//! witnesses the way the underlying DSE tool would: solve
//! `prefix ∧ ¬φ_j`, execute the model, and add the observed path to the
//! pool.

use concolic::{run_concolic, ConcolicConfig};
use minilang::{CheckId, MethodEntryState, TypedProgram};
use solver::{CacheLookup, FuncSig, IncrementalSession, SolveResult, SolverCache, SolverConfig};
use std::sync::Arc;
use symbolic::eval::{eval_pred, Env};
use symbolic::{canon_pred, EntryKind, PathCondition, PathEntry, Pred};
use testgen::TestRun;

/// Budget for manufactured witnesses per failing path: past it, pruning
/// stops issuing implied-predicate checks and manufacturing deviation
/// witnesses (solve `prefix ∧ ¬φ_j`, execute the model — the "dynamic" in
/// dynamic predicate pruning). Per *path*, not per ACL: each path prunes
/// against its own private witness extension, which is what makes per-path
/// pruning order-independent and therefore parallelizable — see DESIGN.md,
/// "Parallelism & caching".
pub const MAX_DYNAMIC_RUNS: usize = 64;

/// Pruning configuration.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// Solver budget for witness generation.
    pub solver: SolverConfig,
    /// Callee summaries for witness runs.
    pub concolic: ConcolicConfig,
    /// Shared canonicalizing memo table fronting every solver call. Cached
    /// verdicts are pure functions of the canonical query, so sharing the
    /// cache across paths, ACLs, and threads never changes any result.
    pub solver_cache: Option<Arc<SolverCache>>,
    /// Worker threads for per-failing-path pruning. `0` or `1` is serial;
    /// any value produces identical output (paths are pruned independently).
    pub jobs: usize,
    /// Observation-only trace sink: wraps each failing path's pruning in a
    /// `prune` span and, when recording, emits one `prune_decision` event
    /// per kept/removed predicate. Never influences what is pruned.
    pub trace: Option<Arc<obs::TraceSink>>,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            solver: SolverConfig::default(),
            concolic: ConcolicConfig::default(),
            solver_cache: None,
            jobs: 1,
            trace: None,
        }
    }
}

/// A failing path after pruning: the kept entries, in original order.
#[derive(Debug, Clone)]
pub struct ReducedPath {
    /// Kept entries (branch entries that survived plus still-relevant pins).
    pub entries: Vec<PathEntry>,
    /// The method-entry state of the originating failing test.
    pub state: MethodEntryState,
}

/// Statistics from one pruning invocation (reported by the benches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    pub examined: usize,
    pub kept_c_depend: usize,
    pub kept_d_impact: usize,
    pub kept_guard: usize,
    pub removed: usize,
    pub dynamic_runs: usize,
    /// Solver-cache hits observed by this invocation's own solver calls.
    /// Whether a given call hits depends on what earlier traffic (possibly
    /// from other threads) populated, so these are diagnostics, not part of
    /// the deterministic output contract.
    pub solver_cache_hits: usize,
    /// Solver-cache misses observed by this invocation's own solver calls.
    pub solver_cache_misses: usize,
}

impl PruneStats {
    /// Accumulates another invocation's counters into `self`.
    pub fn merge(&mut self, other: &PruneStats) {
        self.examined += other.examined;
        self.kept_c_depend += other.kept_c_depend;
        self.kept_d_impact += other.kept_d_impact;
        self.kept_guard += other.kept_guard;
        self.removed += other.removed;
        self.dynamic_runs += other.dynamic_runs;
        self.solver_cache_hits += other.solver_cache_hits;
        self.solver_cache_misses += other.solver_cache_misses;
    }

    fn count_lookup(&mut self, lookup: CacheLookup) {
        match lookup {
            CacheLookup::Hit => self.solver_cache_hits += 1,
            CacheLookup::Miss => self.solver_cache_misses += 1,
            CacheLookup::Bypass => {}
        }
    }
}

/// Prunes every failing path of `acl`.
///
/// `passing` and `failing` are the suite partition for this ACL (Section
/// V-B); the returned reductions are in the same order as `failing`.
///
/// Each failing path is pruned against the same immutable *base* witness
/// pool (every collected path) plus a private extension of manufactured
/// witnesses, so the result for a path does not depend on which other paths
/// were pruned before it. That independence makes the per-path fan-out
/// (`cfg.jobs > 1`) produce byte-identical output to the serial run.
pub fn prune_failing_paths(
    program: &TypedProgram,
    func_name: &str,
    acl: CheckId,
    passing: &[&TestRun],
    failing: &[&TestRun],
    cfg: &PruneConfig,
) -> (Vec<ReducedPath>, PruneStats) {
    let func = program.func(func_name).expect("known function");
    let sig = FuncSig::of(func);
    // Base witness pool: all collected paths (passing and failing).
    let base_pool: Vec<PathCondition> =
        passing.iter().chain(failing.iter()).map(|r| r.path.clone()).collect();
    let passing_states: Vec<&MethodEntryState> = passing.iter().map(|r| &r.state).collect();

    let prune_run = |run: &TestRun| -> (ReducedPath, PruneStats) {
        let _span = obs::maybe_span(&cfg.trace, obs::Stage::Prune);
        let mut stats = PruneStats::default();
        let reduced = prune_one(
            program,
            func_name,
            &sig,
            acl,
            &run.path,
            &passing_states,
            &base_pool,
            cfg,
            &mut stats,
        );
        if let Some(sink) = obs::recording_sink(&cfg.trace) {
            sink.event(
                "path_pruned",
                &[
                    ("entries", obs::Val::U(run.path.entries.len() as u64)),
                    ("kept", obs::Val::U(reduced.len() as u64)),
                    ("removed", obs::Val::U(stats.removed as u64)),
                ],
            );
        }
        (ReducedPath { entries: reduced, state: run.state.clone() }, stats)
    };

    let results: Vec<(ReducedPath, PruneStats)> =
        crate::par::map_parallel(failing, cfg.jobs, |run| prune_run(run));

    let mut stats = PruneStats::default();
    let mut out = Vec::with_capacity(results.len());
    for (reduced, s) in results {
        stats.merge(&s);
        out.push(reduced);
    }
    (out, stats)
}

#[allow(clippy::too_many_arguments)]
fn prune_one(
    program: &TypedProgram,
    func_name: &str,
    sig: &FuncSig,
    acl: CheckId,
    path: &PathCondition,
    passing_states: &[&MethodEntryState],
    base_pool: &[PathCondition],
    cfg: &PruneConfig,
    stats: &mut PruneStats,
) -> Vec<PathEntry> {
    let n = path.entries.len();
    if n == 0 {
        return Vec::new();
    }
    // Witnesses manufactured while pruning *this* path. Kept private so the
    // reduction is a function of (path, base pool) alone.
    let mut local_pool: Vec<PathCondition> = Vec::new();
    // All solver queries below conjoin prefixes of this one path, so they
    // share a single warm session.
    let mut session = IncrementalSession::new(sig, &cfg.solver, cfg.solver_cache.clone());
    // One `prune_decision` event per examined predicate when recording.
    let decision = |kind: &'static str, j: usize| {
        if let Some(sink) = obs::recording_sink(&cfg.trace) {
            let pred = path.entries[j].pred.to_string();
            sink.event(
                "prune_decision",
                &[
                    ("decision", obs::Val::S(kind)),
                    ("idx", obs::Val::U(j as u64)),
                    ("pred", obs::Val::S(&pred)),
                ],
            );
        }
    };
    // kept[j] - whether entry j survives. The last branch entry (the
    // assertion-violating condition) is always kept; pins are resolved last.
    let mut kept = vec![true; n];
    let last_branch_idx = path
        .entries
        .iter()
        .rposition(|e| e.kind.is_branch())
        .expect("failing path has a last branch");
    // Compare violating conditions up to collection-element position: the
    // same violated property at a different iteration is *not* an expression
    // change (otherwise any loop program defeats pruning).
    let last_canon = canon_pred(&crate::generalize::abstract_all_indices(
        &path.entries[last_branch_idx].pred,
        "_ix",
    ));
    // Positional comparisons use the violating condition as it stands.
    let last_canon_positional = canon_pred(&path.entries[last_branch_idx].pred);

    for j in (0..n).rev() {
        if j == last_branch_idx {
            continue;
        }
        if cfg.solver.deadline.expired() {
            // Deadline passed: keep every remaining predicate (sound, just
            // less reduced) rather than issuing further solver calls.
            break;
        }
        let is_pin = path.entries[j].kind == EntryKind::Pin;
        stats.examined += 1;
        // --- implied predicates: if `prefix ∧ ¬φ_j` is unsatisfiable, φ_j
        // is entailed by the preceding predicates and dropping it loses
        // nothing (the deviation the relations would probe does not exist).
        if stats.dynamic_runs < MAX_DYNAMIC_RUNS {
            let mut preds: Vec<Pred> = path.entries[..j].iter().map(|e| e.pred.clone()).collect();
            preds.push(path.entries[j].pred.negated());
            if session_solve(&mut session, &preds, stats) == SolveResult::Unsat {
                kept[j] = false;
                stats.removed += 1;
                decision("implied", j);
                continue;
            }
        }
        // Concretization pins are not branch decisions: the relations have
        // no deviating paths to probe, so pins go straight to the removal
        // guard and verification below.
        if !is_pin {
            // --- c-depend: does some deviation at j still reach the ACL? ------
            let mut reaches_witness =
                find_deviation(base_pool, &local_pool, path, j, |q| q.reaches_check(acl));
            if !reaches_witness && stats.dynamic_runs < MAX_DYNAMIC_RUNS {
                if let Some(newly) =
                    manufacture(program, func_name, acl, path, j, cfg, &mut session, stats)
                {
                    let reaches = newly.reaches_check(acl);
                    local_pool.push(newly);
                    reaches_witness = reaches_witness || reaches;
                }
            }
            if !reaches_witness {
                // No deviation reaches the location: c-depend holds — keep.
                stats.kept_c_depend += 1;
                decision("c_depend", j);
                continue;
            }
            // --- d-impact: does some deviation change the violating expression?
            // Element-family predicates (those dereferencing a collection at a
            // constant index) compare violating conditions *positionally*: a
            // deviation failing at a different element is an expression change,
            // which is what keeps the overly specific families alive for the
            // generalization step (Section IV-B's premise). Scalar predicates
            // compare up to element position, so loop-length diversity in the
            // suite cannot block their pruning.
            let positional =
                !crate::generalize::index_occurrences(&path.entries[j].pred).is_empty();
            let d_impact = find_deviation(base_pool, &local_pool, path, j, |q| {
                q.outcome.failed_check() == Some(acl)
                    && q.last_branch()
                        .map(|e| {
                            if positional {
                                canon_pred(&e.pred) != last_canon_positional
                            } else {
                                canon_pred(&crate::generalize::abstract_all_indices(&e.pred, "_ix"))
                                    != last_canon
                            }
                        })
                        .unwrap_or(false)
            });
            if d_impact {
                stats.kept_d_impact += 1;
                decision("d_impact", j);
                continue;
            }
        }
        // --- §III-A guard: removal must not admit a passing state. ---------
        kept[j] = false;
        let admits = {
            let _guard_span = obs::maybe_span(&cfg.trace, obs::Stage::PassingGuard);
            passing_states.iter().any(|state| satisfied_by(&path.entries, &kept, state))
        };
        if admits {
            kept[j] = true;
            stats.kept_guard += 1;
            decision("guard", j);
            continue;
        }
        // --- removal verification: would `candidate ∧ ¬φ_j` pass at e? -----
        // Solve `candidate ∧ ¬φ_j` and execute the model; if that input does
        // *not* fail at the ACL, the reduced path would capture passing
        // behaviour, so the removal is rejected. (An `Unsat` answer proves
        // the removal lossless; `Unknown` conservatively keeps φ_j.)
        let mut preds: Vec<Pred> = path
            .entries
            .iter()
            .enumerate()
            .filter(|(k, _)| kept[*k])
            .map(|(_, e)| e.pred.clone())
            .collect();
        preds.push(path.entries[j].pred.negated());
        let verdict = match session_solve(&mut session, &preds, stats) {
            SolveResult::Unsat => Removal::Lossless,
            SolveResult::Unknown => Removal::Rejected,
            SolveResult::Sat(model) => {
                stats.dynamic_runs += 1;
                let path = execute(program, func_name, &model, cfg);
                let fails_here = path.outcome.failed_check() == Some(acl);
                local_pool.push(path);
                if fails_here {
                    Removal::Accepted
                } else {
                    Removal::Rejected
                }
            }
        };
        if let Some(sink) = obs::recording_sink(&cfg.trace) {
            let label = match verdict {
                Removal::Lossless => "lossless",
                Removal::Accepted => "accepted",
                Removal::Rejected => "rejected",
            };
            sink.event(
                "verify",
                &[("idx", obs::Val::U(j as u64)), ("verdict", obs::Val::S(label))],
            );
        }
        if verdict == Removal::Rejected {
            kept[j] = true;
            stats.kept_guard += 1;
            decision("guard", j);
            continue;
        }
        stats.removed += 1;
        decision("removed", j);
    }

    // Pins that survive the loop are load-bearing: the passing guard or the
    // removal verification decided they must stay —
    // other removals may lean on them as logical support, so no post-hoc
    // relevance filtering is applied.
    path.entries.iter().enumerate().filter(|(j, _)| kept[*j]).map(|(_, e)| e.clone()).collect()
}

/// One pruning solver call through the path's warm session, with its
/// cache-lookup accounting landing in `stats`.
fn session_solve(
    session: &mut IncrementalSession,
    preds: &[Pred],
    stats: &mut PruneStats,
) -> SolveResult {
    let (result, lookup) = session.solve_preds(preds);
    stats.count_lookup(lookup);
    result
}

/// Runs a solver model concolically, stopping at the deadline: a run cut
/// short ends as `OutOfFuel`, which neither reaches nor fails at any check,
/// so the predicate it was run for is kept.
fn execute(
    program: &TypedProgram,
    func_name: &str,
    model: &MethodEntryState,
    cfg: &PruneConfig,
) -> PathCondition {
    run_concolic(program, func_name, model, &cfg.concolic, cfg.solver.deadline.instant()).path
}

/// Verdict of the removal-verification step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Removal {
    /// `candidate ∧ ¬φ_j` is unsatisfiable: dropping φ_j loses nothing.
    Lossless,
    /// The deviating witness fails at the ACL: the widened disjunct still
    /// only covers failing behaviour.
    Accepted,
    /// The deviating witness passes (or the solver is unsure): keep φ_j.
    Rejected,
}

/// Whether the conjunction of the kept entries' predicates holds on `state`.
/// Evaluation errors (guarded dereferences) count as "not satisfied".
fn satisfied_by(entries: &[PathEntry], kept: &[bool], state: &MethodEntryState) -> bool {
    let env = Env::new(state);
    entries.iter().zip(kept).filter(|(_, &k)| k).all(|(e, _)| eval_pred(&e.pred, &env) == Ok(true))
}

/// Searches the base pool and this path's local extension for a path
/// deviating from `path` at `j` satisfying `f`.
fn find_deviation(
    base_pool: &[PathCondition],
    local_pool: &[PathCondition],
    path: &PathCondition,
    j: usize,
    f: impl Fn(&PathCondition) -> bool,
) -> bool {
    base_pool.iter().chain(local_pool).any(|q| path.deviates_at(q, j) && f(q))
}

/// Manufactures a deviation witness for position `j`: solves
/// `prefix ∧ ¬φ_j ∧ suffix` (steering the witness toward the
/// assertion-containing location — the paper's location-reachability
/// concern) and, if that is unsatisfiable or the run does not reach the
/// target, falls back to `prefix ∧ ¬φ_j` alone. Executes each model and
/// returns the first observed path that reaches `acl` (or the last observed
/// path otherwise, still useful for the pool).
#[allow(clippy::too_many_arguments)]
fn manufacture(
    program: &TypedProgram,
    func_name: &str,
    acl: CheckId,
    path: &PathCondition,
    j: usize,
    cfg: &PruneConfig,
    session: &mut IncrementalSession,
    stats: &mut PruneStats,
) -> Option<PathCondition> {
    let prefix_neg = |with_suffix: bool| -> Vec<Pred> {
        let mut preds: Vec<Pred> = path.entries[..j].iter().map(|e| e.pred.clone()).collect();
        preds.push(path.entries[j].pred.negated());
        if with_suffix {
            preds.extend(path.entries[j + 1..].iter().map(|e| e.pred.clone()));
        }
        preds
    };
    let mut last = None;
    for with_suffix in [true, false] {
        stats.dynamic_runs += 1;
        let solved = session_solve(session, &prefix_neg(with_suffix), stats);
        if let SolveResult::Sat(model) = solved {
            let path = execute(program, func_name, &model, cfg);
            let reaches = path.reaches_check(acl);
            last = Some(path);
            if reaches {
                return last;
            }
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use testgen::{generate_tests, TestGenConfig};

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

    /// The central pruning example of the paper: on the t_f1-style failing
    /// path, `a > 0` and `b + 1 > 0` are pruned while `c > 0`, `d + 1 > 0`,
    /// `s != null`, `0 < len(s)` and `s[0] == null` are kept.
    #[test]
    fn fig1_table1_pruning() {
        let tp = minilang::compile(FIG1).unwrap();
        let suite = generate_tests(&tp, "example", &TestGenConfig::default());
        // The element ACL: a failing run whose last branch mentions s[0].
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
            .expect("element ACL");
        let (pass, _fail) = suite.partition(acl);
        // Execute the paper's exact t_f1: (s: {null}, a: 1, b: 0, c: 1, d: 0).
        let tf1_state = minilang::MethodEntryState::from_pairs([
            ("s".to_string(), minilang::InputValue::ArrayStr(Some(vec![None]))),
            ("a".to_string(), minilang::InputValue::Int(1)),
            ("b".to_string(), minilang::InputValue::Int(0)),
            ("c".to_string(), minilang::InputValue::Int(1)),
            ("d".to_string(), minilang::InputValue::Int(0)),
        ]);
        let tf1_out = run_concolic(&tp, "example", &tf1_state, &ConcolicConfig::default(), None);
        assert_eq!(tf1_out.path.outcome.failed_check(), Some(acl), "t_f1 fails at the element ACL");
        let tf1 = TestRun::new(tf1_state, tf1_out);
        let (reduced, _stats) =
            prune_failing_paths(&tp, "example", acl, &pass, &[&tf1], &PruneConfig::default());
        let kept: Vec<String> = reduced[0].entries.iter().map(|e| e.pred.to_string()).collect();
        assert!(!kept.contains(&"a > 0".to_string()), "a > 0 must be pruned: {kept:?}");
        assert!(!kept.contains(&"(b + 1) > 0".to_string()), "b + 1 > 0 must be pruned: {kept:?}");
        for want in ["c > 0", "(d + 1) > 0", "s != null", "0 < len(s)", "s[0] == null"] {
            assert!(kept.contains(&want.to_string()), "{want} must be kept: {kept:?}");
        }
    }

    #[test]
    fn reduced_paths_never_admit_passing_states() {
        let tp = minilang::compile(FIG1).unwrap();
        let suite = generate_tests(&tp, "example", &TestGenConfig::default());
        for acl in suite.triggered_acls() {
            let (pass, fail) = suite.partition(acl);
            let (reduced, _) =
                prune_failing_paths(&tp, "example", acl, &pass, &fail, &PruneConfig::default());
            for r in &reduced {
                let kept = vec![true; r.entries.len()];
                for p in &pass {
                    assert!(
                        !satisfied_by(&r.entries, &kept, &p.state),
                        "passing state {} satisfies reduced path {:?}",
                        p.state,
                        r.entries.iter().map(|e| e.pred.to_string()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn last_branch_is_always_kept() {
        let tp = minilang::compile(
            "fn f(x int, y int) -> int { if (x > 0) { assert(y != 3); } return 0; }",
        )
        .unwrap();
        let suite = generate_tests(&tp, "f", &TestGenConfig::default());
        let acl = suite.triggered_acls()[0];
        let (pass, fail) = suite.partition(acl);
        let (reduced, _) =
            prune_failing_paths(&tp, "f", acl, &pass, &fail, &PruneConfig::default());
        for r in &reduced {
            let last = r.entries.last().expect("non-empty reduction");
            assert_eq!(last.pred.to_string(), "y == 3");
        }
    }

    /// A deviation at `x != 7` runs a 20 000-iteration loop before the
    /// assertion, so a deadline cuts the witness or verification run for
    /// that predicate while the solves before it still answer.
    const LONG_DEVIATION: &str = "
        fn f(x int, y int) -> int {
            let s = 0;
            if (x == 7) {
                for (let i = 0; i < 20000; i = i + 1) { s = s + 1; }
            }
            assert(y != 3);
            return s;
        }";

    #[test]
    fn a_run_cut_by_the_deadline_keeps_its_predicate() {
        let tp = minilang::compile(LONG_DEVIATION).unwrap();
        let run = |x: i64, y: i64| {
            let state = MethodEntryState::from_pairs([
                ("x".to_string(), minilang::InputValue::Int(x)),
                ("y".to_string(), minilang::InputValue::Int(y)),
            ]);
            let out = run_concolic(&tp, "f", &state, &ConcolicConfig::default(), None);
            TestRun::new(state, out)
        };
        let (pass, fail) = (run(0, 0), run(0, 3));
        let acl = fail.path.outcome.failed_check().expect("y == 3 fails");
        let prune = |cfg: &PruneConfig| {
            let (reduced, _) = prune_failing_paths(&tp, "f", acl, &[&pass], &[&fail], cfg);
            reduced[0].entries.iter().map(|e| e.pred.to_string()).collect::<Vec<_>>()
        };
        // Without a deadline the witness and the verification run both
        // reach the assertion, so `x != 7` is removed.
        assert_eq!(prune(&PruneConfig::default()), ["y == 3"]);

        let cut = [1, 2, 4, 8, 16, 32, 64].into_iter().any(|d| {
            let sink = Arc::new(obs::TraceSink::recording());
            let mut cfg = PruneConfig { trace: Some(sink.clone()), ..PruneConfig::default() };
            cfg.solver.deadline = solver::Deadline::after_ms(d);
            cfg.solver.trace = cfg.trace.clone();
            let kept = prune(&cfg);
            // Two answered solves then `c_depend` mean the witness run was
            // cut; three then `guard`, the verification run. Otherwise the
            // deadline fell on the solver gate or after the last run.
            let lines = sink.lines();
            let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
            let answered = count("\"ev\":\"solver_call\"") - count("\"verdict\":\"deadline\"");
            let kept_by = (count("\"decision\":\"c_depend\""), count("\"decision\":\"guard\""));
            let cut_run = matches!((answered, kept_by), (2, (1, 0)) | (3, (0, 1)));
            if cut_run {
                assert_eq!(kept, ["x != 7", "y == 3"], "deadline {d} ms cut a run");
            }
            cut_run
        });
        assert!(cut, "no deadline in the sweep cut a witness or verification run");
    }
}
