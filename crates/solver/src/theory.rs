//! The theory layer's front door: configuration, entry points, and the
//! one solve pipeline both front doors run.
//!
//! A query arrives as a conjunction of [`Pred`]s over a [`FuncSig`], either
//! through [`solve_preds_with`] (the scratch reference: canonicalize the
//! whole list, solve on a fresh builder) or through an
//! [`crate::IncrementalSession`] (canonical form maintained across pushes
//! and pops, solved on a warm builder). Pruning and test generation always
//! use sessions; the scratch path is what the solver tests and
//! `perf_smoke` compare sessions against. Either way the query runs
//! through `solve_query`, which owns every stage exactly once: the
//! deadline gate, cache lookup and store, tier dispatch
//! (`solve_canonical`: under [`BackendKind::Tiered`] the interval tier
//! runs first and escalates out-of-fragment queries to the simplex tier;
//! under [`BackendKind::Simplex`] every query goes straight to the bottom
//! tier), binding the positional verdict to the caller's names, model
//! re-validation and the `solver_call` trace record. Escalation is
//! verdict-preserving (see [`crate::backend`]), so both backend stacks
//! return byte-identical results — the tiered stack is purely a fast path.
//!
//! The deadline is checked once, at the gate: a query that passes it runs
//! to completion under `budget_nodes`, so every verdict, stored or not, is
//! a pure function of its canonical key and a cache miss always stores.
//!
//! Every model is *re-validated* by concretely evaluating the original
//! predicates before being returned; a model that fails re-validation is
//! reported as `Unknown`, never returned.

use crate::backend::{BackendKind, Tier, TierCounters};
use crate::cache::{CacheLookup, SolverCache};
use crate::canon::CanonQuery;
use crate::interval::solve_interval;
use minilang::{Func, MethodEntryState, Ty};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::{Duration, Instant};
use symbolic::eval::{eval_pred, Env};
use symbolic::pred::Pred;

/// Signature of the method under test: parameter names and types, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSig {
    params: Vec<(String, Ty)>,
}

impl FuncSig {
    /// Builds a signature from a function definition.
    pub fn of(func: &Func) -> FuncSig {
        FuncSig { params: func.params.iter().map(|p| (p.name.clone(), p.ty)).collect() }
    }

    /// Builds a signature from explicit pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (impl Into<String>, Ty)>) -> FuncSig {
        FuncSig { params: pairs.into_iter().map(|(n, t)| (n.into(), t)).collect() }
    }

    /// The type of a parameter.
    pub fn ty_of(&self, name: &str) -> Option<Ty> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
    }

    /// Iterates parameters in declaration order.
    pub fn params(&self) -> impl Iterator<Item = (&str, Ty)> {
        self.params.iter().map(|(n, t)| (n.as_str(), *t))
    }
}

/// Configuration for a solve.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Total branch-and-bound node budget (shared across theory choices).
    pub budget_nodes: u64,
    /// Largest array/string length the model builder will materialize.
    pub max_model_len: i64,
    /// Which backend stack answers queries. Part of the cache key (the
    /// stored tier label is backend-dependent); verdicts are identical
    /// either way. The pipeline runs the default `Tiered` stack;
    /// `Simplex` is the reference arm the backend differential tests and
    /// `perf_smoke` compare it against.
    pub backend: BackendKind,
    /// Per-tier answer counters, shared by every solve that clones this
    /// config. Observation-only — never part of the cache key. Callers
    /// that want one set of numbers across test generation and pruning
    /// install the same `Arc` in both configs.
    pub tiers: Arc<TierCounters>,
    /// Wall-clock deadline checked before each solve: once expired, entry
    /// points return [`SolveResult::Unknown`] without solving and without
    /// touching the cache. Test generation and pruning also pass it to the
    /// concolic executor. Not part of the cache key.
    pub deadline: crate::deadline::Deadline,
    /// Incremental-session counters (sessions opened, queries, pushes,
    /// pops, reused depth), shared by every session opened under a clone of
    /// this config. Observation-only — never part of the cache key.
    pub incremental_stats: Arc<crate::incremental::IncrementalCounters>,
    /// Per-call instrumentation: every solver call records
    /// its predicate count, verdict, [`CacheLookup`], answering tier and
    /// duration. Like the deadline, observation-only — never part of the
    /// cache key, and `None` (the default) costs nothing, not even a
    /// clock read.
    pub trace: Option<Arc<obs::TraceSink>>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            budget_nodes: 20_000,
            max_model_len: 4_096,
            backend: BackendKind::default(),
            tiers: Arc::new(TierCounters::default()),
            deadline: crate::deadline::Deadline::none(),
            incremental_stats: Arc::new(crate::incremental::IncrementalCounters::default()),
            trace: None,
        }
    }
}

/// Outcome of solving a conjunction of predicates.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveResult {
    /// A concrete method-entry state satisfying every predicate.
    Sat(MethodEntryState),
    /// The conjunction is unsatisfiable.
    Unsat,
    /// Undecided within budget (or outside the supported fragment).
    Unknown,
}

impl SolveResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&MethodEntryState> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Short lowercase label for diagnostics and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            SolveResult::Sat(_) => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown => "unknown",
        }
    }
}

/// Solves the conjunction of `preds` for inputs typed by `sig`.
///
/// The query is canonicalized first (α-renamed to positional placeholders,
/// predicates canonicalized, sorted, de-duplicated — see [`CanonQuery`]), so
/// the verdict *and the model* depend only on the canonical form: permuting
/// the conjunction or renaming the parameters cannot change the answer.
/// That invariance is what lets a [`SolverCache`] (see [`solve_preds_with`])
/// return memoized results that are bit-identical to a fresh solve.
pub fn solve_preds(preds: &[Pred], sig: &FuncSig, cfg: &SolverConfig) -> SolveResult {
    solve_preds_with(preds, sig, cfg, None).0
}

/// [`solve_preds`] with an optional cache, also reporting whether the
/// lookup hit ([`CacheLookup::Bypass`] when `cache` is `None`). The
/// scratch reference: the whole list is canonicalized per call and the
/// bottom tier is a fresh builder over the sorted canonical conjuncts.
pub fn solve_preds_with(
    preds: &[Pred],
    sig: &FuncSig,
    cfg: &SolverConfig,
    cache: Option<&SolverCache>,
) -> (SolveResult, CacheLookup) {
    solve_query(
        cfg,
        cache,
        preds,
        None,
        || CanonQuery::build(preds, sig),
        |q| crate::builder::solve_fresh(q, cfg),
    )
}

/// The solve pipeline, shared by [`solve_preds_with`] and
/// [`crate::IncrementalSession::solve`]. `originals` are the caller's
/// predicates (counted in the trace, re-validated against every model);
/// `canonicalize` produces their canonical form, and runs only once the
/// deadline gate has passed; `bottom` is the simplex tier over that form —
/// a fresh builder or a session's warm one. `reused` is the session's
/// reused stack depth, recorded on its trace events.
pub(crate) fn solve_query<Q: Borrow<CanonQuery>>(
    cfg: &SolverConfig,
    cache: Option<&SolverCache>,
    originals: &[Pred],
    reused: Option<u64>,
    canonicalize: impl FnOnce() -> Q,
    bottom: impl FnOnce(&CanonQuery) -> SolveResult,
) -> (SolveResult, CacheLookup) {
    // Deadline gate: answered before canonicalization so an expired request
    // neither solves nor inserts anything into the cache. `Unknown` is the
    // conservative verdict every caller already handles. The call is still
    // traced (verdict label `deadline`) so traces count every solver call
    // even under deadline pressure.
    if cfg.deadline.expired() {
        let lookup = CacheLookup::Bypass;
        if let Some(sink) = cfg.trace.as_ref() {
            let preds = originals.len();
            sink.solver_call(preds, "deadline", lookup.label(), "none", reused, Duration::ZERO);
        }
        return (SolveResult::Unknown, lookup);
    }
    let start = cfg.trace.as_ref().map(|_| Instant::now());
    let q = canonicalize();
    let q = q.borrow();
    let (verdict, lookup, tier) = match cache {
        Some(cache) => {
            let key = q.key(cfg);
            match cache.lookup(&key) {
                // Hits solve nothing: no tier counts, no builder work.
                Some((verdict, tier)) => (verdict, CacheLookup::Hit, tier),
                // Solve outside the shard lock: queries can be slow, and two
                // threads racing on the same key compute the same value.
                None => {
                    let (result, tier) = solve_canonical(q, cfg, bottom);
                    let verdict = q.positional(result);
                    cache.store(key, verdict.clone(), tier);
                    (verdict, CacheLookup::Miss, tier)
                }
            }
        }
        None => {
            let (result, tier) = solve_canonical(q, cfg, bottom);
            (q.positional(result), CacheLookup::Bypass, tier)
        }
    };
    // Hit, miss and bypass alike bind the positional verdict to the
    // caller's parameter names.
    let mut result = q.named(verdict);
    // Soundness net: re-validate any model against the original predicates.
    // This runs on the caller side (not inside the cache) so cached entries
    // stay pure functions of their canonical keys.
    if let SolveResult::Sat(state) = &result {
        let env = Env::new(state);
        if originals.iter().any(|p| eval_pred(p, &env) != Ok(true)) {
            result = SolveResult::Unknown;
        }
    }
    if let (Some(start), Some(sink)) = (start, cfg.trace.as_ref()) {
        let (preds, verdict) = (originals.len(), result.label());
        sink.solver_call(preds, verdict, lookup.label(), tier.label(), reused, start.elapsed());
    }
    (result, lookup)
}

/// Dispatches a canonical conjunction through the configured backend
/// stack, attributing the answer to the tier that produced it, with
/// `bottom` as the simplex tier. Counters tick only here — on work
/// actually executed — so cache hits replay tiers without re-counting.
fn solve_canonical(
    q: &CanonQuery,
    cfg: &SolverConfig,
    bottom: impl FnOnce(&CanonQuery) -> SolveResult,
) -> (SolveResult, Tier) {
    if cfg.backend == BackendKind::Tiered {
        match solve_interval(q.canon_preds(), q.canon_sig(), cfg) {
            Some((result, tier)) => {
                cfg.tiers.count(tier);
                return (result, tier);
            }
            None => cfg.tiers.count_escalation(),
        }
    }
    let result = bottom(q);
    cfg.tiers.count(Tier::Simplex);
    (result, Tier::Simplex)
}
