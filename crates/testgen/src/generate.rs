//! Pex-like generational test generation.
//!
//! Starting from the all-defaults seed (plus a few random fuzz seeds), the
//! engine repeatedly *flips* a branch of an explored path: it asks the
//! solver for inputs satisfying `φ₁ ∧ … ∧ φ_{j-1} ∧ ¬φ_j`, executes the
//! model concolically, and enqueues the new path's suffix for further
//! flipping. Implicit-check branches are flipped too — that is exactly how
//! the engine discovers failing tests (inputs violating a check).
//!
//! Two sets deduplicate the work: explored paths (a run whose path was
//! seen before is kept in the suite but not expanded) and attempted flip
//! queries (one solver call per distinct `φ₁ ∧ … ∧ φ_{j-1} ∧ ¬φ_j`). Both
//! compare canonical forms, keyed by *signatures*: vectors of dense `u32`
//! ids that one `generate_tests` call hands out, one per distinct
//! canonical predicate. A run's predicates are canonicalized once, when it
//! executes; a flip's signature is its run's signature prefix `[..j]` plus
//! the id of the negated entry's canonical form, so a flip canonicalizes
//! one predicate, not `j + 1`, and its solver query is built only when the
//! signature is new. `tests/testgen_differential.rs` pins that
//! the same flips are attempted, in the same order, with the same verdicts
//! (`testgen_corpus.golden`).

use crate::suite::{Suite, TestRun};
use concolic::{run_concolic, ConcolicConfig};
use minilang::{InputValue, MethodEntryState, Ty, TypedProgram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use solver::{FuncSig, IncrementalSession, SolveResult, SolverCache, SolverConfig};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use symbolic::{canon_pred, CanonPred, Pred};

/// Maximum branch-flip attempts (solver calls) per method.
pub const MAX_FLIPS: usize = 600;
/// Maximum flips attempted per branch site (bounds loop unrolling, like
/// Pex's per-branch fairness bounds).
pub const MAX_FLIPS_PER_SITE: usize = 8;
/// Deepest path position considered for flipping.
pub const MAX_FLIP_DEPTH: usize = 48;
/// Extra random fuzz seeds beside the defaults seed.
pub const RANDOM_SEEDS: usize = 6;
/// Seed of the fuzz-seed generator (the whole pipeline is deterministic).
const RNG_SEED: u64 = 0x5EED;

/// Test-generation configuration.
#[derive(Debug, Clone)]
pub struct TestGenConfig {
    /// Maximum number of executed tests per method.
    pub max_runs: usize,
    /// Callee summaries for the concolic executor.
    pub concolic: ConcolicConfig,
    /// Solver budget.
    pub solver: SolverConfig,
    /// Canonicalizing memo table fronting branch-flip solver calls; safe to
    /// share with the inference pipeline (entries are pure functions of the
    /// canonical query, so sharing never changes generated suites).
    pub solver_cache: Option<Arc<SolverCache>>,
    /// Observation-only trace sink: wraps the whole generation in a
    /// `test_gen` span and emits one `flip` event per branch-flip attempt
    /// when recording. Never influences which tests are generated.
    pub trace: Option<Arc<obs::TraceSink>>,
}

impl Default for TestGenConfig {
    fn default() -> Self {
        TestGenConfig {
            max_runs: 140,
            concolic: ConcolicConfig::default(),
            solver: SolverConfig::default(),
            solver_cache: None,
            trace: None,
        }
    }
}

/// Executed runs plus what deduplicates them (see the module docs): seen
/// entry states, path and flip signatures, and the canonical-predicate ids
/// signatures are made of (equal ids ⇔ equal canonical forms).
#[derive(Default)]
struct Explored {
    suite: Suite,
    seen_states: HashSet<MethodEntryState>,
    seen_paths: HashSet<Vec<u32>>,
    attempted_flips: HashSet<Vec<u32>>,
    /// `signatures[i]` is the signature of `suite.runs[i]`.
    signatures: Vec<Vec<u32>>,
    ids: HashMap<CanonPred, u32>,
}

impl Explored {
    fn id(&mut self, canon: CanonPred) -> u32 {
        let next = u32::try_from(self.ids.len()).expect("fewer than 2^32 predicates per call");
        *self.ids.entry(canon).or_insert(next)
    }

    /// Runs `state` concolically unless it was run before; returns the new
    /// run's index when its path is fresh.
    fn execute(
        &mut self,
        program: &TypedProgram,
        func_name: &str,
        state: MethodEntryState,
        cfg: &TestGenConfig,
    ) -> Option<usize> {
        if !self.seen_states.insert(state.clone()) {
            return None;
        }
        let outcome =
            run_concolic(program, func_name, &state, &cfg.concolic, cfg.solver.deadline.instant());
        let signature: Vec<u32> = outcome.path.entries.iter().map(|e| self.id(e.canon())).collect();
        let fresh_path = self.seen_paths.insert(signature.clone());
        self.signatures.push(signature);
        self.suite.runs.push(TestRun::new(state, outcome));
        fresh_path.then(|| self.suite.runs.len() - 1)
    }

    /// Records the flip of entry `j` of run `run_idx` to `negated`; false
    /// when the same query was attempted before.
    fn first_attempt(&mut self, run_idx: usize, j: usize, negated: &Pred) -> bool {
        let id = self.id(canon_pred(negated));
        let mut flip_sig = self.signatures[run_idx][..j].to_vec();
        flip_sig.push(id);
        self.attempted_flips.insert(flip_sig)
    }
}

/// Generates a test suite for `func_name` by generational exploration.
///
/// # Panics
///
/// Panics if the function does not exist in the program.
pub fn generate_tests(program: &TypedProgram, func_name: &str, cfg: &TestGenConfig) -> Suite {
    let func = program.func(func_name).unwrap_or_else(|| panic!("unknown function {func_name}"));
    let _span = obs::maybe_span(&cfg.trace, obs::Stage::TestGen);
    let sig = FuncSig::of(func);
    let mut rng = StdRng::seed_from_u64(RNG_SEED);

    let mut ex = Explored::default();
    let mut site_flips: HashMap<minilang::NodeId, usize> = HashMap::new();
    // Work queue of (run index, entry index to flip).
    let mut queue: std::collections::VecDeque<(usize, usize)> = Default::default();

    // Seeds: all-defaults plus random fuzz.
    let mut seeds = vec![MethodEntryState::seed_for(func)];
    for _ in 0..RANDOM_SEEDS {
        seeds.push(random_state(func, &mut rng));
    }
    for seed in seeds {
        if ex.suite.len() >= cfg.max_runs {
            break;
        }
        if let Some(idx) = ex.execute(program, func_name, seed, cfg) {
            for j in 0..ex.suite.runs[idx].path.entries.len() {
                queue.push_back((idx, j));
            }
        }
    }

    let mut flips = 0usize;
    // Flip queries are prefixes of already-explored paths with one negated
    // tail, so consecutive flips share long prefixes; they all run through
    // one warm session (the longest-common-prefix diff in `solve_preds`
    // does the sharing).
    let mut session = IncrementalSession::new(&sig, &cfg.solver, cfg.solver_cache.clone());
    while let Some((run_idx, j)) = queue.pop_front() {
        if ex.suite.len() >= cfg.max_runs || flips >= MAX_FLIPS {
            break;
        }
        if cfg.solver.deadline.expired() {
            // Out of wall-clock budget: the suite so far is a valid (if
            // smaller) suite — stop exploring instead of burning the queue.
            break;
        }
        if j >= MAX_FLIP_DEPTH {
            continue;
        }
        let Some(entry) = ex.suite.runs[run_idx].path.entries.get(j) else { continue };
        if !entry.kind.is_branch() {
            continue; // pins are not decisions
        }
        let (site, negated) = (entry.site, entry.pred.negated());
        let site_count = site_flips.entry(site).or_insert(0);
        if *site_count >= MAX_FLIPS_PER_SITE {
            continue;
        }
        *site_count += 1;
        if !ex.first_attempt(run_idx, j, &negated) {
            continue;
        }
        flips += 1;
        // Constraint: prefix (including pins) plus the negated predicate.
        let entries = &ex.suite.runs[run_idx].path.entries;
        let mut preds: Vec<Pred> = entries[..j].iter().map(|e| e.pred.clone()).collect();
        preds.push(negated);
        let verdict = session.solve_preds(&preds).0;
        if let Some(sink) = obs::recording_sink(&cfg.trace) {
            let site = format!("{site:?}");
            sink.event(
                "flip",
                &[
                    ("site", obs::Val::S(&site)),
                    ("depth", obs::Val::U(j as u64)),
                    ("verdict", obs::Val::S(verdict.label())),
                ],
            );
        }
        match verdict {
            SolveResult::Sat(model) => {
                if let Some(idx) = ex.execute(program, func_name, model, cfg) {
                    // Expand only the suffix the new path discovered.
                    let new_len = ex.suite.runs[idx].path.entries.len();
                    for k in j..new_len {
                        queue.push_back((idx, k));
                    }
                }
            }
            SolveResult::Unsat | SolveResult::Unknown => {}
        }
    }
    if let Some(sink) = obs::recording_sink(&cfg.trace) {
        sink.event(
            "testgen_done",
            &[("runs", obs::Val::U(ex.suite.len() as u64)), ("flips", obs::Val::U(flips as u64))],
        );
    }
    ex.suite
}

/// A random input state for fuzz seeding.
fn random_state(func: &minilang::Func, rng: &mut StdRng) -> MethodEntryState {
    let mut state = MethodEntryState::new();
    for p in &func.params {
        state.set(&p.name, random_value(p.ty, rng));
    }
    state
}

fn random_value(ty: Ty, rng: &mut StdRng) -> InputValue {
    match ty {
        Ty::Int => InputValue::Int(rng.gen_range(-8..=8)),
        Ty::Bool => InputValue::Bool(rng.gen_bool(0.5)),
        Ty::Str => {
            if rng.gen_bool(0.25) {
                InputValue::Str(None)
            } else {
                InputValue::Str(Some(random_chars(rng)))
            }
        }
        Ty::ArrayInt => {
            if rng.gen_bool(0.25) {
                InputValue::ArrayInt(None)
            } else {
                let len = rng.gen_range(0..=4);
                InputValue::ArrayInt(Some((0..len).map(|_| rng.gen_range(-5..=5)).collect()))
            }
        }
        Ty::ArrayStr => {
            if rng.gen_bool(0.25) {
                InputValue::ArrayStr(None)
            } else {
                let len = rng.gen_range(0..=4);
                InputValue::ArrayStr(Some(
                    (0..len)
                        .map(|_| if rng.gen_bool(0.3) { None } else { Some(random_chars(rng)) })
                        .collect(),
                ))
            }
        }
        Ty::Void => unreachable!("void parameter"),
    }
}

fn random_chars(rng: &mut StdRng) -> Vec<i64> {
    let len = rng.gen_range(0..=4);
    (0..len).map(|_| if rng.gen_bool(0.3) { 32 } else { rng.gen_range(97..=99) }).collect()
}
