//! The simplex tier's constraint builder: from canonical conjuncts to
//! integer constraints, explored by DFS over choice atoms.
//!
//! Responsibilities:
//!
//! 1. **Boolean/nullness atoms** — decided eagerly; conflicts are UNSAT.
//! 2. **Well-formedness** — every dereferenced place implies its base is
//!    non-null and every index is within bounds; lengths are non-negative;
//!    characters lie in the Unicode scalar range. This mirrors the fact that
//!    the concrete execution that produced (or will follow) the path really
//!    performs those dereferences.
//! 3. **Choice atoms** — `!=` splits into `< / >`, `is_space` into its code
//!    points, truncated `/`/`%` into sign cases — explored by DFS.
//! 4. **Model construction** — via [`crate::model::build_model`], shared
//!    with the interval tier.
//!
//! # Incrementality and order independence
//!
//! The builder supports push/pop reuse (see [`crate::incremental`]): a
//! *trailed* builder logs every map mutation so [`Builder::undo_to`] can
//! restore any earlier [`BuilderMark`] exactly. Pruning and test generation
//! always solve through such a warm builder; the untrailed builder of
//! [`solve_fresh`] is the scratch reference the solver tests compare
//! sessions against. Because an incremental session feeds predicates in
//! *path order* while the scratch reference feeds them in *canonical
//! (sorted) order*, the solve itself must not observe
//! insertion order. [`Builder::solve_current`] therefore normalizes before
//! searching: hard rows and choice atoms are sorted, and column indices are
//! assigned by the sorted monomial order rather than first-registration
//! order. The accumulated *sets* (columns, null/bool decisions) and
//! *multisets* (hard rows, choices) are functions of the set of canonical
//! conjuncts alone, so after normalization a warm solve and a scratch solve
//! of the same conjunction run the identical search and return byte-identical
//! verdicts and models.

use crate::canon::CanonQuery;
use crate::intsolve::{solve_int, Budget, IntProblem, IntResult};
use crate::model::build_model;
use crate::theory::{FuncSig, SolveResult, SolverConfig};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use symbolic::linform::{lin_of_term, CPred, CanonPred, LinExpr, Monomial};
use symbolic::term::{Place, PlaceNode, SymVar, SymVarNode, Term};

/// The scratch bottom tier: a fresh untrailed builder over the sorted
/// canonical list, solved through the full simplex + branch-and-bound
/// stack. The reference semantics every cheaper tier — and every warm
/// session builder — must agree with.
pub(crate) fn solve_fresh(q: &CanonQuery, cfg: &SolverConfig) -> SolveResult {
    let mut builder = Builder::new(false);
    for p in q.canon_preds() {
        if builder.add_canon(*p).is_err() {
            return SolveResult::Unsat;
        }
    }
    builder.solve_current(q.canon_sig(), cfg)
}

/// Marker for early unsatisfiability during constraint building.
#[derive(Debug)]
pub(crate) struct UnsatErr;

/// One alternative of a choice: a set of extra `expr ≤ 0` rows.
type Alternative = Vec<LinExpr>;

/// One undoable map mutation. Vector growth (hard rows, choices, div/rem
/// groups) is undone by truncation and needs no per-op record.
enum TrailOp {
    /// A monomial column was inserted (it was not present before).
    Column(Monomial),
    /// `nulls` was written; the payload is the previous value.
    Null(Place, Option<bool>),
    /// `bools` was written; the payload is the previous value.
    Bool(String, Option<bool>),
}

/// A restorable point in a trailed builder's mutation history.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BuilderMark {
    trail: usize,
    hard: usize,
    choices: usize,
    divrem: usize,
}

pub(crate) struct Builder {
    /// Monomial columns. Solve-time indices come from the sorted order of
    /// this set, never from registration order.
    columns: BTreeSet<Monomial>,
    /// Hard rows: `expr ≤ 0`.
    hard: Vec<LinExpr>,
    /// Choice atoms: pick exactly one alternative each.
    choices: Vec<Vec<Alternative>>,
    /// Nullness decisions: place → is-null.
    nulls: BTreeMap<Place, bool>,
    /// Boolean parameter decisions.
    bools: BTreeMap<String, bool>,
    /// Div/Rem groups already expanded.
    divrem_done: Vec<(LinExpr, i64)>,
    /// Mutation log for [`Builder::undo_to`]; `None` in scratch builders.
    trail: Option<Vec<TrailOp>>,
}

impl Builder {
    pub(crate) fn new(trailed: bool) -> Self {
        Builder {
            columns: BTreeSet::new(),
            hard: Vec::new(),
            choices: Vec::new(),
            nulls: BTreeMap::new(),
            bools: BTreeMap::new(),
            divrem_done: Vec::new(),
            trail: trailed.then(Vec::new),
        }
    }

    /// A restore point covering every structure `add_canon` can touch.
    pub(crate) fn mark(&self) -> BuilderMark {
        BuilderMark {
            trail: self.trail.as_ref().map_or(0, Vec::len),
            hard: self.hard.len(),
            choices: self.choices.len(),
            divrem: self.divrem_done.len(),
        }
    }

    /// Rewinds to `mark`, undoing map mutations in reverse order and
    /// truncating the append-only vectors. Restores the exact state at the
    /// time of [`Builder::mark`] — including after a failed `add_canon`,
    /// whose partial mutations are on the trail like any others.
    pub(crate) fn undo_to(&mut self, mark: &BuilderMark) {
        self.hard.truncate(mark.hard);
        self.choices.truncate(mark.choices);
        self.divrem_done.truncate(mark.divrem);
        let mut trail = self.trail.take();
        if let Some(ops) = trail.as_mut() {
            while ops.len() > mark.trail {
                match ops.pop().expect("trail length checked") {
                    TrailOp::Column(m) => {
                        self.columns.remove(&m);
                    }
                    TrailOp::Null(place, prev) => match prev {
                        Some(v) => {
                            self.nulls.insert(place, v);
                        }
                        None => {
                            self.nulls.remove(&place);
                        }
                    },
                    TrailOp::Bool(name, prev) => match prev {
                        Some(v) => {
                            self.bools.insert(name, v);
                        }
                        None => {
                            self.bools.remove(&name);
                        }
                    },
                }
            }
        }
        self.trail = trail;
    }

    /// Inserts a column, logging it when new. Returns whether it was new.
    fn insert_column(&mut self, m: &Monomial) -> bool {
        if self.columns.insert(m.clone()) {
            if let Some(t) = &mut self.trail {
                t.push(TrailOp::Column(m.clone()));
            }
            true
        } else {
            false
        }
    }

    /// Records a nullness decision; a conflicting earlier decision is UNSAT.
    fn set_null(&mut self, place: Place, value: bool) -> Result<(), UnsatErr> {
        let prev = self.nulls.insert(place, value);
        if let Some(t) = &mut self.trail {
            t.push(TrailOp::Null(place, prev));
        }
        match prev {
            Some(p) if p != value => Err(UnsatErr),
            _ => Ok(()),
        }
    }

    /// Records a boolean decision; a conflicting earlier decision is UNSAT.
    fn set_bool(&mut self, name: String, value: bool) -> Result<(), UnsatErr> {
        let prev = self.bools.insert(name.clone(), value);
        if let Some(t) = &mut self.trail {
            t.push(TrailOp::Bool(name, prev));
        }
        match prev {
            Some(p) if p != value => Err(UnsatErr),
            _ => Ok(()),
        }
    }

    pub(crate) fn add_canon(&mut self, p: CPred) -> Result<(), UnsatErr> {
        match p.node() {
            CanonPred::Const(true) => Ok(()),
            CanonPred::Const(false) => Err(UnsatErr),
            CanonPred::Bool { name, positive } => self.set_bool(name.clone(), *positive),
            CanonPred::Null { place, positive } => self.decide_null(*place, *positive),
            CanonPred::Le(e) => {
                self.register_expr(e)?;
                self.hard.push(e.clone());
                Ok(())
            }
            CanonPred::Eq(e) => {
                self.register_expr(e)?;
                self.hard.push(e.clone());
                self.hard.push(e.scale(-1));
                Ok(())
            }
            CanonPred::Ne(e) => {
                self.register_expr(e)?;
                // e <= -1  OR  -e <= -1
                let a = e.add(&LinExpr::constant(1)); // e + 1 <= 0 ⇔ e <= -1
                let b = e.scale(-1).add(&LinExpr::constant(1));
                self.choices.push(vec![vec![a], vec![b]]);
                Ok(())
            }
            CanonPred::IsSpace { arg, positive } => {
                self.register_expr(arg)?;
                if *positive {
                    // arg ∈ {9, 10, 13, 32}
                    let alts = [32i64, 9, 10, 13]
                        .iter()
                        .map(|&code| {
                            let diff = arg.add(&LinExpr::constant(-code));
                            vec![diff.clone(), diff.scale(-1)]
                        })
                        .collect();
                    self.choices.push(alts);
                } else {
                    // arg ∈ (−∞,8] ∪ [11,12] ∪ [14,31] ∪ [33,∞)
                    let le = |bound: i64| arg.add(&LinExpr::constant(-bound)); // arg - bound <= 0
                    let ge = |bound: i64| arg.scale(-1).add(&LinExpr::constant(bound)); // bound - arg <= 0
                    self.choices.push(vec![
                        vec![le(8)],
                        vec![ge(11), le(12)],
                        vec![ge(14), le(31)],
                        vec![ge(33)],
                    ]);
                }
                Ok(())
            }
        }
    }

    fn decide_null(&mut self, place: Place, is_null: bool) -> Result<(), UnsatErr> {
        // Dereference the *base* chain (not the place itself).
        if let PlaceNode::Elem(base, ix) = place.node() {
            self.deref_place(base)?;
            self.bound_index(base, ix)?;
        }
        self.set_null(place, is_null)
    }

    /// Marks a place as dereferenced: itself non-null, bases recursively
    /// non-null, and indices within bounds.
    fn deref_place(&mut self, place: &Place) -> Result<(), UnsatErr> {
        self.set_null(*place, false)?;
        if let PlaceNode::Elem(base, ix) = place.node() {
            self.deref_place(base)?;
            self.bound_index(base, ix)?;
        }
        Ok(())
    }

    /// Adds `0 ≤ ix` and `ix ≤ len(base) − 1`.
    fn bound_index(&mut self, base: &Place, ix: &Term) -> Result<(), UnsatErr> {
        let ixe = lin_of_term(ix);
        self.register_expr(&ixe)?;
        let len = self.len_expr(base)?;
        // -ix <= 0
        self.hard.push(ixe.scale(-1));
        // ix - len + 1 <= 0
        self.hard.push(ixe.sub(&len).add(&LinExpr::constant(1)));
        Ok(())
    }

    /// The length variable expression for a place, registering it (and its
    /// well-formedness) on first use.
    fn len_expr(&mut self, place: &Place) -> Result<LinExpr, UnsatErr> {
        let var = SymVarNode::Len(*place).intern();
        let mono = Monomial::Var(var);
        if self.insert_column(&mono) {
            let mut e = LinExpr::zero();
            // -len <= 0
            e = e.sub(&mono_expr(&mono));
            self.hard.push(e);
            self.deref_place(place)?;
        }
        Ok(mono_expr(&mono))
    }

    /// Registers every monomial of an expression: allocates columns, adds
    /// well-formedness, and expands Div/Rem groups.
    fn register_expr(&mut self, e: &LinExpr) -> Result<(), UnsatErr> {
        let monos: Vec<Monomial> = e.terms().map(|(m, _)| m.clone()).collect();
        for m in monos {
            self.register_mono(&m)?;
        }
        Ok(())
    }

    fn register_mono(&mut self, m: &Monomial) -> Result<(), UnsatErr> {
        if !self.insert_column(m) {
            return Ok(());
        }
        match m {
            Monomial::Var(v) => self.register_var_wf(v)?,
            Monomial::Div(inner, k) | Monomial::Rem(inner, k) => {
                self.register_expr(inner)?;
                self.expand_divrem(inner, *k)?;
            }
        }
        Ok(())
    }

    fn register_var_wf(&mut self, v: &SymVar) -> Result<(), UnsatErr> {
        match v.node() {
            SymVarNode::Int(_) => Ok(()),
            SymVarNode::Len(place) => {
                // -len <= 0 plus place dereference.
                let e = mono_expr(&Monomial::Var(*v)).scale(-1);
                self.hard.push(e);
                self.deref_place(place)
            }
            SymVarNode::IntElem(place, ix) => {
                self.deref_place(place)?;
                self.bound_index(place, ix)
            }
            SymVarNode::Char(place, ix) => {
                self.deref_place(place)?;
                self.bound_index(place, ix)?;
                // 0 <= char <= 0x10FFFF
                let c = mono_expr(&Monomial::Var(*v));
                self.hard.push(c.scale(-1));
                self.hard.push(c.add(&LinExpr::constant(-0x10FFFF)));
                Ok(())
            }
        }
    }

    /// Ties `q = inner / k`, `r = inner % k` together:
    /// `inner == k·q + r`, with a sign choice on the dividend.
    fn expand_divrem(&mut self, inner: &LinExpr, k: i64) -> Result<(), UnsatErr> {
        if self.divrem_done.iter().any(|(e, kk)| e == inner && *kk == k) {
            return Ok(());
        }
        self.divrem_done.push((inner.clone(), k));
        let q = Monomial::Div(Box::new(inner.clone()), k);
        let r = Monomial::Rem(Box::new(inner.clone()), k);
        // Ensure both columns exist (without re-expanding).
        for m in [&q, &r] {
            self.insert_column(m);
        }
        let qe = mono_expr(&q);
        let re = mono_expr(&r);
        // inner - k*q - r == 0
        let tie = inner.sub(&qe.scale(k)).sub(&re);
        self.hard.push(tie.clone());
        self.hard.push(tie.scale(-1));
        let kabs = k.abs();
        // Case A: inner >= 0 → 0 <= r <= |k|-1
        let a = vec![
            inner.scale(-1),                         // -inner <= 0
            re.scale(-1),                            // -r <= 0
            re.add(&LinExpr::constant(-(kabs - 1))), // r <= |k|-1
        ];
        // Case B: inner <= 0 → -(|k|-1) <= r <= 0
        let b = vec![
            inner.clone(),                                     // inner <= 0
            re.clone(),                                        // r <= 0
            re.scale(-1).add(&LinExpr::constant(-(kabs - 1))), // -r <= |k|-1
        ];
        self.choices.push(vec![a, b]);
        Ok(())
    }

    // ---- search ----------------------------------------------------------

    /// Solves the accumulated constraints without consuming the builder.
    ///
    /// Normalizes first (see module docs): column indices follow the sorted
    /// monomial order and hard rows / choice atoms are sorted, so the search
    /// depends only on the *set* of canonical conjuncts added, never on the
    /// order they arrived in. A fresh budget is drawn per call.
    pub(crate) fn solve_current(&self, sig: &FuncSig, cfg: &SolverConfig) -> SolveResult {
        // Consistency of the null map against the signature: only nullable
        // parameters may appear as places.
        for (place, _) in self.nulls.iter() {
            if sig.ty_of(place.root()).is_none() {
                return SolveResult::Unknown;
            }
        }
        let norm = Norm::of(self);
        let mut budget = Budget::new(cfg.budget_nodes);
        let mut picked: Vec<usize> = Vec::new();
        match self.dfs(&norm, &mut picked, &mut budget, sig, cfg) {
            DfsResult::Sat(model) => model,
            DfsResult::Unsat => SolveResult::Unsat,
            DfsResult::Unknown => SolveResult::Unknown,
        }
    }

    fn dfs(
        &self,
        norm: &Norm<'_>,
        picked: &mut Vec<usize>,
        budget: &mut Budget,
        sig: &FuncSig,
        cfg: &SolverConfig,
    ) -> DfsResult {
        if picked.len() == norm.choices.len() {
            return self.solve_leaf(norm, picked, budget, sig, cfg);
        }
        let level = picked.len();
        let mut saw_unknown = false;
        for alt in 0..norm.choices[level].len() {
            picked.push(alt);
            match self.dfs(norm, picked, budget, sig, cfg) {
                DfsResult::Sat(m) => {
                    picked.pop();
                    return DfsResult::Sat(m);
                }
                DfsResult::Unknown => saw_unknown = true,
                DfsResult::Unsat => {}
            }
            picked.pop();
        }
        if saw_unknown {
            DfsResult::Unknown
        } else {
            DfsResult::Unsat
        }
    }

    fn solve_leaf(
        &self,
        norm: &Norm<'_>,
        picked: &[usize],
        budget: &mut Budget,
        sig: &FuncSig,
        cfg: &SolverConfig,
    ) -> DfsResult {
        let n = norm.rank.len();
        let mut problem = IntProblem::new(n);
        let add_expr = |p: &mut IntProblem, e: &LinExpr| {
            let mut row = vec![0i64; n];
            for (m, c) in e.terms() {
                let idx = norm.rank[m];
                row[idx] += c;
            }
            p.le(row, e.constant_part().wrapping_neg());
        };
        for e in &norm.hard {
            add_expr(&mut problem, e);
        }
        for (level, &alt) in picked.iter().enumerate() {
            for e in &norm.choices[level][alt] {
                add_expr(&mut problem, e);
            }
        }
        let solved = solve_int(&problem, budget);
        match solved {
            IntResult::Unsat => DfsResult::Unsat,
            IntResult::Unknown => DfsResult::Unknown,
            IntResult::Sat(values) => {
                let assign: HashMap<Monomial, i64> =
                    norm.rank.iter().map(|(&m, &i)| (m.clone(), values[i])).collect();
                match build_model(sig, &assign, &self.nulls, &self.bools, cfg) {
                    Some(state) => DfsResult::Sat(SolveResult::Sat(state)),
                    None => DfsResult::Unknown,
                }
            }
        }
    }
}

/// The order-normalized view one solve runs against.
struct Norm<'a> {
    /// Monomial → column, assigned by sorted monomial order.
    rank: BTreeMap<&'a Monomial, usize>,
    hard: Vec<LinExpr>,
    choices: Vec<Vec<Alternative>>,
}

impl<'a> Norm<'a> {
    fn of(b: &'a Builder) -> Norm<'a> {
        let rank: BTreeMap<&Monomial, usize> =
            b.columns.iter().enumerate().map(|(i, m)| (m, i)).collect();
        let mut hard = b.hard.clone();
        hard.sort_unstable();
        let mut choices = b.choices.clone();
        choices.sort_unstable();
        Norm { rank, hard, choices }
    }
}

enum DfsResult {
    Sat(SolveResult),
    Unsat,
    Unknown,
}

fn mono_expr(m: &Monomial) -> LinExpr {
    LinExpr::mono(m.clone())
}
