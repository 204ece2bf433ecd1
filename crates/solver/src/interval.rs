//! Tier 0/1: syntactic contradiction detection and per-monomial bounds
//! propagation over canonical conjuncts.
//!
//! The cheap front of the tiered solver. It decides a query only when the
//! simplex tier would provably return the *same* verdict (and, for `Sat`,
//! the same model) — otherwise it escalates. Three decision rules:
//!
//! - **Tier 0 (syntactic)**: a `Const(false)` conjunct, or a complementary
//!   pair `p ∧ ¬p` (exact structural match — [`CanonPred::negated`] stays
//!   canonical, so negations of list members are list members when
//!   present). Pruning's implication checks (`prefix ∧ ¬φ_j` where `φ_j`
//!   appears in the prefix) land here constantly.
//! - **Tier 1 Unsat**: intersect unit conjuncts (`±m + c ≤ 0`, `m + c = 0`)
//!   with well-formedness ranges (lengths ≥ 0, chars in the Unicode scalar
//!   range, `%k` bounded by `|k|−1`); an empty interval on any monomial
//!   means a constraint subset is unsatisfiable, hence the conjunction is.
//! - **Tier 1 Sat**: when *every* conjunct is consumed as a boolean atom,
//!   a parameter-nullness atom, or a unit bound on a plain integer
//!   variable, the L1-minimal model is per-variable `clamp(0, [lo, hi])` —
//!   exactly the unique optimum branch-and-bound would return — built
//!   through the shared `model::build_model`.
//!
//! Escalation guards keep the verdicts aligned with simplex in the corner
//! cases where the full stack answers `Unknown` instead of `Unsat`: places
//! whose roots are missing from the signature (the builder's consistency
//! check), and choice-heavy queries whose DFS leaf count would exhaust the
//! node budget before every leaf is refuted. Canonical unit conjuncts have
//! gcd-normalized (±1) coefficients, so every propagated bound is integral
//! and each refuted DFS leaf costs exactly one budget tick — that is what
//! makes the leaf-count guard exact.

use crate::backend::Tier;
use crate::model::build_model;
use crate::theory::{FuncSig, SolveResult, SolverConfig};
use std::collections::{BTreeMap, HashMap};
use symbolic::linform::{CPred, CanonPred, LinExpr, Monomial};
use symbolic::term::{Place, PlaceNode, SymVar, SymVarNode};

/// Sentinel "infinity" for one-sided ranges; all real bounds derive from
/// `i64` values, so `i128` arithmetic around it cannot wrap.
const INF: i128 = i128::MAX / 2;

/// Decides `preds` at tier 0 or 1, or escalates (`None`) to the simplex
/// tier. A decision always matches what the simplex tier would return for
/// the same query under the same config — verdict *and* model.
pub(crate) fn solve_interval(
    preds: &[CPred],
    sig: &FuncSig,
    cfg: &SolverConfig,
) -> Option<(SolveResult, Tier)> {
    // ---- Tier 0: syntactic contradictions -------------------------------
    // Interned conjuncts make both scans id comparisons: `contains` is a
    // u32 sweep, and the complementary-pair check matches `p.negated()`
    // (itself a memoized lookup) by id instead of re-comparing structure.
    if preds.contains(&CanonPred::Const(false).intern()) {
        // The simplex builder errors out while *adding* this conjunct —
        // before any signature or budget consideration — so Unsat is safe
        // unconditionally.
        return Some((SolveResult::Unsat, Tier::Syntactic));
    }
    let mut saw_arith_pair = false;
    for p in preds {
        if !preds.contains(&p.negated()) {
            continue;
        }
        match p.node() {
            // Conflicting boolean/nullness decisions surface as insertion
            // conflicts during building, again before signature/budget
            // checks: unconditionally safe.
            CanonPred::Bool { .. } | CanonPred::Null { .. } => {
                return Some((SolveResult::Unsat, Tier::Syntactic))
            }
            // Arithmetic pairs are refuted leaf by leaf; safety depends on
            // the escalation guards below.
            _ => saw_arith_pair = true,
        }
    }
    if saw_arith_pair {
        return unsat_decidable(preds, sig, cfg).then_some((SolveResult::Unsat, Tier::Syntactic));
    }

    // ---- Tier 1: bounds propagation -------------------------------------
    // `boxy` stays true while every conjunct is consumed exactly (boolean
    // atom, parameter nullness, unit bound on a plain integer variable) —
    // the fragment where the model can be built directly.
    let mut bounds: BTreeMap<Monomial, (i128, i128)> = BTreeMap::new();
    let mut nulls: BTreeMap<Place, bool> = BTreeMap::new();
    let mut bools: BTreeMap<String, bool> = BTreeMap::new();
    let mut boxy = true;
    let tighten =
        |bounds: &mut BTreeMap<Monomial, (i128, i128)>, m: &Monomial, lo: i128, hi: i128| {
            let r = bounds.entry(m.clone()).or_insert_with(|| wf_range(m));
            r.0 = r.0.max(lo);
            r.1 = r.1.min(hi);
        };
    for p in preds {
        match p.node() {
            CanonPred::Const(_) => {}
            CanonPred::Bool { name, positive } => {
                bools.insert(name.clone(), *positive);
            }
            CanonPred::Null { place, positive } => {
                // Only direct parameter nullness mirrors the builder
                // exactly (element places drag in dereference constraints).
                if matches!(place.node(), PlaceNode::Param(_)) && sig.ty_of(place.root()).is_some()
                {
                    nulls.insert(*place, *positive);
                } else {
                    boxy = false;
                }
            }
            CanonPred::Le(e) => match unit(e) {
                Some((m, k, c)) => {
                    // k·m + c ≤ 0 with k ∈ {+1, −1}.
                    if k > 0 {
                        tighten(&mut bounds, m, -INF, -(c as i128));
                    } else {
                        tighten(&mut bounds, m, c as i128, INF);
                    }
                    boxy &= plain_int(m);
                }
                None => boxy = false,
            },
            CanonPred::Eq(e) => match unit(e) {
                // Canonical: first (only) coefficient is +1, so m = −c.
                Some((m, k, c)) => {
                    let v = if k > 0 { -(c as i128) } else { c as i128 };
                    tighten(&mut bounds, m, v, v);
                    boxy &= plain_int(m);
                }
                None => boxy = false,
            },
            CanonPred::Ne(_) => boxy = false,
            CanonPred::IsSpace { arg, positive } => {
                if *positive {
                    // is_space codes all lie in [9, 32]: a sound hull.
                    if let Some((m, k, c)) = unit(arg) {
                        if k > 0 {
                            tighten(&mut bounds, m, 9 - c as i128, 32 - c as i128);
                        } else {
                            tighten(&mut bounds, m, c as i128 - 32, c as i128 - 9);
                        }
                    }
                }
                boxy = false;
            }
        }
    }

    if bounds.values().any(|&(lo, hi)| lo > hi) {
        return unsat_decidable(preds, sig, cfg).then_some((SolveResult::Unsat, Tier::Interval));
    }
    if !boxy || cfg.budget_nodes == 0 {
        // A box Sat still costs the simplex tier one branch-and-bound node;
        // with a zero budget it would answer Unknown, so mirror that.
        return None;
    }

    // ---- Tier 1 Sat: pure box — replicate the L1-minimal model ----------
    let mut assign: HashMap<Monomial, i64> = HashMap::new();
    for (m, &(lo, hi)) in &bounds {
        let v = if lo > 0 {
            lo
        } else if hi < 0 {
            hi
        } else {
            0
        };
        let Ok(v64) = i64::try_from(v) else {
            return None;
        };
        assign.insert(m.clone(), v64);
    }
    build_model(sig, &assign, &nulls, &bools, cfg)
        .map(|state| (SolveResult::Sat(state), Tier::Interval))
}

/// `k·m + c` for a single-monomial expression with a unit coefficient —
/// the only shape canonical unit conjuncts take (gcd normalization).
fn unit(e: &LinExpr) -> Option<(&Monomial, i64, i64)> {
    match e.as_unit() {
        Some((m, k, c)) if k == 1 || k == -1 => Some((m, k, c)),
        _ => None,
    }
}

fn plain_int(m: &Monomial) -> bool {
    matches!(m, Monomial::Var(v) if matches!(v.node(), SymVarNode::Int(_)))
}

/// Well-formedness range the simplex builder would impose on a monomial
/// (as hard rows or within every choice alternative).
fn wf_range(m: &Monomial) -> (i128, i128) {
    match m {
        Monomial::Var(v) => match v.node() {
            SymVarNode::Len(_) => (0, INF),
            SymVarNode::Char(_, _) => (0, 0x10FFFF),
            _ => (-INF, INF),
        },
        Monomial::Rem(_, k) if *k != 0 => {
            let b = (k.unsigned_abs() - 1) as i128;
            (-b, b)
        }
        _ => (-INF, INF),
    }
}

/// Whether an interval-level contradiction may be reported as `Unsat`, or
/// must escalate because the simplex tier could answer `Unknown` instead:
///
/// 1. Every place the builder would record in its null map must have its
///    root in the signature, or the builder's consistency check returns
///    `Unknown` before solving.
/// 2. The DFS leaf count (product of choice-atom alternatives) must fit in
///    the node budget: each refuted leaf costs one branch-and-bound tick,
///    and with integral bounds every leaf is refuted at its root LP.
fn unsat_decidable(preds: &[CPred], sig: &FuncSig, cfg: &SolverConfig) -> bool {
    let mut vars: Vec<SymVar> = Vec::new();
    let mut divrem: Vec<(&LinExpr, i64)> = Vec::new();
    let mut leaves: u128 = 1;
    for p in preds {
        match p.node() {
            CanonPred::Const(_) | CanonPred::Bool { .. } => {}
            CanonPred::Null { place, .. } => {
                if sig.ty_of(place.root()).is_none() {
                    return false;
                }
                collect_place_index_vars(place, &mut vars);
            }
            CanonPred::Le(e) | CanonPred::Eq(e) => {
                e.collect_vars(&mut vars);
                collect_divrem(e, &mut divrem);
            }
            CanonPred::Ne(e) => {
                e.collect_vars(&mut vars);
                collect_divrem(e, &mut divrem);
                leaves = leaves.saturating_mul(2);
            }
            CanonPred::IsSpace { arg, .. } => {
                arg.collect_vars(&mut vars);
                collect_divrem(arg, &mut divrem);
                leaves = leaves.saturating_mul(4);
            }
        }
    }
    for _ in &divrem {
        leaves = leaves.saturating_mul(2);
    }
    for v in &vars {
        let place = match v.node() {
            SymVarNode::Int(_) => continue,
            SymVarNode::Len(p) | SymVarNode::IntElem(p, _) | SymVarNode::Char(p, _) => p,
        };
        if sig.ty_of(place.root()).is_none() {
            return false;
        }
    }
    leaves <= cfg.budget_nodes as u128
}

/// Index terms inside element places carry their own variables (the
/// builder registers them via `bound_index`); collect them for the
/// signature-root guard.
fn collect_place_index_vars(place: &Place, vars: &mut Vec<SymVar>) {
    if let PlaceNode::Elem(base, ix) = place.node() {
        ix.collect_vars(vars);
        collect_place_index_vars(base, vars);
    }
}

/// Distinct `(inner, k)` Div/Rem groups anywhere in the expression — each
/// one the builder expands into a two-alternative sign choice.
fn collect_divrem<'e>(e: &'e LinExpr, out: &mut Vec<(&'e LinExpr, i64)>) {
    for (m, _) in e.terms() {
        if let Monomial::Div(inner, k) | Monomial::Rem(inner, k) = m {
            if !out.iter().any(|(e2, k2)| *e2 == inner.as_ref() && k2 == k) {
                out.push((inner, *k));
                collect_divrem(inner, out);
            }
        }
    }
}
