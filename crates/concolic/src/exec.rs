//! The concolic executor: concrete execution with a symbolic shadow,
//! producing *sound path conditions* (Section III of the paper).
//!
//! Every decision that depends on the inputs appends a predicate in its
//! taken form: explicit branch atoms (`if`/`while`/`assert` conditions are
//! decomposed through `&&`/`||`/`!` exactly as short-circuit evaluation
//! branches), implicit checks (null, bounds, division, allocation size), and
//! concretization *pins* (when a value leaves the linear fragment — a
//! symbolic×symbolic product, a symbolic divisor, a symbolic array index —
//! the executor pins the offending operand to its concrete value, the
//! standard DART/Pex concretization, recorded so the path condition stays
//! sound).

use crate::cval::{materialize, ArrIntObj, ArrStrObj, CStr, CVal};
use crate::summary::ResolvedSummaries;
use interp::{FUEL, MAX_ARRAY_CELLS, MAX_CALL_DEPTH};
use minilang::ast::*;
use minilang::{CheckId, CheckKind, InputValue, MethodEntryState, NodeId, Span, TypedProgram};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use symbolic::rename::{apply_actuals, ActualBinding};
use symbolic::{
    eval_pred, CmpOp, EntryKind, Env, EvalError, Formula, PathCondition, PathEntry, PathOutcome,
    Place, Pred, Term,
};

/// Path-condition entries one run may record before it ends as
/// `OutOfFuel` (guards pathological loops). The step, call-depth and
/// allocation budgets are [`FUEL`], [`MAX_CALL_DEPTH`] and
/// [`MAX_ARRAY_CELLS`].
pub const MAX_ENTRIES: usize = 4_096;

/// Under a deadline, the executor reads the clock every this many steps,
/// starting at the first; a run past the deadline ends as `OutOfFuel`.
pub const CLOCK_EVERY: u64 = 1_024;

/// Executor configuration.
#[derive(Debug, Clone, Default)]
pub struct ConcolicConfig {
    /// Callee ψ-summaries to apply at call sites (`None` = inline every
    /// call, the original behaviour).
    pub summaries: Option<Arc<ResolvedSummaries>>,
}

/// Result of a concolic run.
#[derive(Debug, Clone)]
pub struct ConcolicOutcome {
    /// The collected path condition; its `outcome` field describes how the
    /// run ended (completed / failed at a check / out of fuel).
    pub path: PathCondition,
    /// Blocks visited (for Table IV coverage).
    pub visited_blocks: HashSet<NodeId>,
}

impl ConcolicOutcome {
    /// The violated check, if the run failed.
    pub fn failed_check(&self) -> Option<CheckId> {
        self.path.outcome.failed_check()
    }
}

/// Runs `func_name` concolically on `state`. Past `deadline` the run
/// stops as [`PathOutcome::OutOfFuel`]: a run a resource bound cut short
/// says nothing about which inputs reach an error, and the suite partition
/// drops it.
///
/// # Panics
///
/// Panics if the function is unknown or the state does not conform to its
/// signature.
pub fn run_concolic(
    program: &TypedProgram,
    func_name: &str,
    state: &MethodEntryState,
    config: &ConcolicConfig,
    deadline: Option<Instant>,
) -> ConcolicOutcome {
    let func = program.func(func_name).unwrap_or_else(|| panic!("unknown function {func_name}"));
    assert!(state.conforms_to(func), "state {state} does not conform to {func_name}");
    let mut m = Exec {
        program,
        config,
        deadline,
        fuel: FUEL,
        entries: Vec::new(),
        visited: HashSet::new(),
    };
    let mut env: HashMap<String, CVal> = HashMap::new();
    for p in &func.params {
        let place = Place::param(p.name.clone());
        env.insert(p.name.clone(), materialize(state.get(&p.name).expect("conforming"), place));
    }
    let outcome = match m.exec_block(&func.body, &mut Frame { env, depth: 0 }) {
        Ok(_) => PathOutcome::Completed,
        Err(Stop::Check(id)) => PathOutcome::Failed(id),
        Err(Stop::Fuel) => PathOutcome::OutOfFuel,
        Err(Stop::CallDepth) => PathOutcome::CallDepthExceeded,
    };
    ConcolicOutcome {
        path: PathCondition { entries: m.entries, outcome },
        visited_blocks: m.visited,
    }
}

enum Flow {
    Normal,
    Return(CVal),
    Break,
    Continue,
}

enum Stop {
    /// A violated check; the violating predicate is the last recorded entry.
    Check(CheckId),
    /// Step budget exhausted (runaway loop) or deadline passed.
    Fuel,
    /// Call-depth bound exceeded (runaway recursion).
    CallDepth,
}

type R<T> = Result<T, Stop>;

struct Frame {
    env: HashMap<String, CVal>,
    depth: u32,
}

struct Exec<'a> {
    program: &'a TypedProgram,
    config: &'a ConcolicConfig,
    deadline: Option<Instant>,
    fuel: u64,
    entries: Vec<PathEntry>,
    visited: HashSet<NodeId>,
}

impl<'a> Exec<'a> {
    fn tick(&mut self) -> R<()> {
        if self.fuel == 0 || self.entries.len() > MAX_ENTRIES {
            return Err(Stop::Fuel);
        }
        if let Some(at) = self.deadline {
            if (FUEL - self.fuel).is_multiple_of(CLOCK_EVERY) && Instant::now() >= at {
                return Err(Stop::Fuel);
            }
        }
        self.fuel -= 1;
        Ok(())
    }

    // ---- path-condition recording ------------------------------------------

    /// Records an explicit branch decision; constant predicates carry no
    /// information about the inputs and are dropped.
    fn record_branch(&mut self, pred: Pred, site: NodeId, span: Span) {
        if pred.is_trivially_true() || pred.is_trivially_false() {
            return;
        }
        self.entries.push(PathEntry { pred, kind: EntryKind::ExplicitBranch, site, span });
    }

    /// Records a passed check. Check entries are always kept (they witness
    /// that the path traverses the assertion-containing location).
    fn record_check_pass(&mut self, pred: Pred, check: CheckId, site: NodeId, span: Span) {
        self.entries.push(PathEntry { pred, kind: EntryKind::Check(check), site, span });
    }

    /// Records a violated check and aborts.
    fn record_check_fail(&mut self, pred: Pred, check: CheckId, site: NodeId, span: Span) -> Stop {
        self.entries.push(PathEntry { pred, kind: EntryKind::Check(check), site, span });
        Stop::Check(check)
    }

    /// Records a concretization pin (`term == concrete`).
    fn pin(&mut self, term: &Term, concrete: i64, site: NodeId, span: Span) {
        if term.as_const().is_some() {
            return;
        }
        let pred = Pred::cmp(CmpOp::Eq, *term, Term::int(concrete));
        self.entries.push(PathEntry { pred, kind: EntryKind::Pin, site, span });
    }

    // ---- statements ----------------------------------------------------------

    fn exec_block(&mut self, b: &Block, frame: &mut Frame) -> R<Flow> {
        self.visited.insert(b.id);
        // Block scoping: `let`s declared here disappear afterwards, and a
        // shadowed outer binding is restored (mutations of outer variables
        // persist).
        let mut declared: Vec<(String, Option<CVal>)> = Vec::new();
        let mut flow = Flow::Normal;
        for s in &b.stmts {
            match self.exec_stmt(s, frame, &mut declared)? {
                Flow::Normal => {}
                other => {
                    flow = other;
                    break;
                }
            }
        }
        for (name, prev) in declared.into_iter().rev() {
            match prev {
                Some(v) => {
                    frame.env.insert(name, v);
                }
                None => {
                    frame.env.remove(&name);
                }
            }
        }
        Ok(flow)
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        frame: &mut Frame,
        declared: &mut Vec<(String, Option<CVal>)>,
    ) -> R<Flow> {
        self.tick()?;
        match &s.kind {
            StmtKind::Let { name, init, .. } => {
                let v = self.eval(init, frame)?;
                let prev = frame.env.insert(name.clone(), v);
                declared.push((name.clone(), prev));
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, value } => {
                match target {
                    AssignTarget::Var(name) => {
                        let v = self.eval(value, frame)?;
                        frame.env.insert(name.clone(), v);
                    }
                    AssignTarget::Index { array, index } => {
                        let arr = self.eval(array, frame)?;
                        let idx = self.eval(index, frame)?;
                        let v = self.eval(value, frame)?;
                        self.store_elem(s.id, s.span, &arr, idx, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                let c = self.eval_condition(cond, frame)?;
                if c {
                    self.exec_block(then_blk, frame)
                } else if let Some(e) = else_blk {
                    self.exec_block(e, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => loop {
                self.tick()?;
                if !self.eval_condition(cond, frame)? {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body, frame)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                }
            },
            StmtKind::Assert { cond } => {
                let check = CheckId { node: s.id, kind: CheckKind::AssertFail };
                let mark = self.entries.len();
                let c = self.eval_condition(cond, frame)?;
                // The assert's decision is the last branch entry its
                // condition produced; retag it as the check so failing paths
                // end in the assertion-violating condition.
                self.retag_assert(mark, check, c, s.span);
                if c {
                    Ok(Flow::Normal)
                } else {
                    Err(Stop::Check(check))
                }
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => CVal::Unit,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Expr { expr } => {
                self.eval(expr, frame)?;
                Ok(Flow::Normal)
            }
            StmtKind::BlockStmt { block } => self.exec_block(block, frame),
        }
    }

    fn retag_assert(&mut self, mark: usize, check: CheckId, result: bool, span: Span) {
        let retagged =
            self.entries.len().checked_sub(1).filter(|&last| {
                last >= mark && self.entries[last].kind == EntryKind::ExplicitBranch
            });
        match retagged {
            Some(last) => self.entries[last].kind = EntryKind::Check(check),
            None => {
                // Condition produced no branch entry (constant or pinned):
                // record a constant witness of traversing the location.
                self.entries.push(PathEntry {
                    pred: Pred::Const(result),
                    kind: EntryKind::Check(check),
                    site: check.node,
                    span,
                });
            }
        }
    }

    // ---- conditions -----------------------------------------------------------

    /// Evaluates a boolean expression as a branch condition, decomposing
    /// `&&`/`||`/`!` into the atomic decisions short-circuit evaluation
    /// actually takes, recording one predicate per decision.
    fn eval_condition(&mut self, e: &Expr, frame: &mut Frame) -> R<bool> {
        match &e.kind {
            ExprKind::BoolLit(b) => Ok(*b),
            ExprKind::Unary(UnOp::Not, inner) => Ok(!self.eval_condition(inner, frame)?),
            ExprKind::Binary(BinOp::And, l, r) => {
                if !self.eval_condition(l, frame)? {
                    Ok(false)
                } else {
                    self.eval_condition(r, frame)
                }
            }
            ExprKind::Binary(BinOp::Or, l, r) => {
                if self.eval_condition(l, frame)? {
                    Ok(true)
                } else {
                    self.eval_condition(r, frame)
                }
            }
            ExprKind::Binary(op, l, r)
                if matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) =>
            {
                let (lc, lt) = self.eval(l, frame)?.as_int();
                let (rc, rt) = self.eval(r, frame)?.as_int();
                let cmp = match op {
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                let taken = cmp.eval(lc, rc);
                let pred = Pred::cmp(cmp, lt, rt);
                let pred = if taken { pred } else { pred.negated() };
                self.record_branch(pred, e.id, e.span);
                Ok(taken)
            }
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne), l, r) => {
                self.eval_equality(e, *op, l, r, frame)
            }
            ExprKind::BuiltinCall { builtin: Builtin::IsSpace, args } => {
                let (c, t) = self.eval(&args[0], frame)?.as_int();
                let result = matches!(c, 32 | 9 | 10 | 13);
                if t.as_const().is_none() {
                    self.record_branch(Pred::IsSpace { arg: t, positive: result }, e.id, e.span);
                }
                Ok(result)
            }
            ExprKind::Var(_) | ExprKind::Call { .. } | ExprKind::Index(..) => {
                let v = self.eval(e, frame)?;
                let CVal::Bool(c, origin) = v else { panic!("typechecked bool condition") };
                if let Some(name) = origin {
                    self.record_branch(Pred::BoolVar { name, positive: c }, e.id, e.span);
                }
                Ok(c)
            }
            other => panic!("non-boolean condition {other:?} (typechecked)"),
        }
    }

    fn eval_equality(
        &mut self,
        e: &Expr,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        frame: &mut Frame,
    ) -> R<bool> {
        let want_eq = op == BinOp::Eq;
        let lv = self.eval(l, frame)?;
        let rv = self.eval(r, frame)?;
        match (&lv, &rv) {
            (CVal::Int(lc, lt), CVal::Int(rc, rt)) => {
                let eq = lc == rc;
                let taken = eq == want_eq;
                let cmp = if eq { CmpOp::Eq } else { CmpOp::Ne };
                self.record_branch(Pred::cmp(cmp, *lt, *rt), e.id, e.span);
                Ok(taken)
            }
            (CVal::Bool(lb, _), CVal::Bool(rb, _)) => {
                // Boolean equality: operands were already pinned/recorded by
                // their own evaluation; the comparison itself adds nothing.
                Ok((lb == rb) == want_eq)
            }
            _ => {
                // Reference vs null (the only reference comparison allowed).
                let (refv, _nullv) =
                    if lv.is_null() && lv.ref_origin().is_none() && rv.ref_origin().is_some() {
                        (&rv, &lv)
                    } else {
                        (&lv, &rv)
                    };
                let is_null = refv.is_null();
                // The other side is the null literal (typechecked), so the
                // comparison result is `is_null`.
                let result = is_null == want_eq;
                if let Some(place) = refv.ref_origin() {
                    self.record_branch(
                        Pred::Null { place: *place, positive: is_null },
                        e.id,
                        e.span,
                    );
                }
                Ok(result)
            }
        }
    }

    // ---- expressions ----------------------------------------------------------

    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> R<CVal> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(CVal::Int(*v, Term::int(*v))),
            ExprKind::BoolLit(b) => Ok(CVal::Bool(*b, None)),
            ExprKind::StrLit(s) => {
                Ok(CVal::Str(CStr::literal(s.chars().map(|c| c as i64).collect())))
            }
            ExprKind::Null => Ok(match self.program.ty_of(e.id) {
                Ty::ArrayInt => CVal::ArrInt(None, None),
                Ty::ArrayStr => CVal::ArrStr(None, None),
                _ => CVal::Str(CStr::null()),
            }),
            ExprKind::Var(name) => Ok(frame.env.get(name).expect("typechecked var").clone()),
            ExprKind::Unary(UnOp::Neg, inner) => {
                let (c, t) = self.eval(inner, frame)?.as_int();
                Ok(CVal::Int(c.wrapping_neg(), t.neg()))
            }
            ExprKind::Unary(UnOp::Not, _) | ExprKind::Binary(BinOp::And | BinOp::Or, ..) => {
                let c = self.eval_condition(e, frame)?;
                Ok(CVal::Bool(c, None))
            }
            ExprKind::Binary(op, l, r) if op.is_arith() => self.eval_arith(e, *op, l, r, frame),
            ExprKind::Binary(..) => {
                // Comparisons / equality in value position: decide (recording
                // the decision) and pin the result.
                let c = self.eval_condition(e, frame)?;
                Ok(CVal::Bool(c, None))
            }
            ExprKind::Index(arr, idx) => {
                let a = self.eval(arr, frame)?;
                let i = self.eval(idx, frame)?;
                self.load_elem(e.id, e.span, &a, i)
            }
            ExprKind::BuiltinCall { builtin, args } => self.eval_builtin(e, *builtin, args, frame),
            ExprKind::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                self.call(e.id, e.span, name, vals, frame.depth)
            }
        }
    }

    fn call(
        &mut self,
        site: NodeId,
        span: Span,
        name: &str,
        args: Vec<CVal>,
        depth: u32,
    ) -> R<CVal> {
        if depth + 1 > MAX_CALL_DEPTH {
            return Err(Stop::CallDepth);
        }
        self.tick()?;
        let callee = self.program.func(name).expect("typechecked call");
        if let Some(res) = self.config.summaries.clone() {
            if let Some(checks) = res.by_func.get(name).filter(|c| !c.is_empty()) {
                match bindings_of(&args) {
                    Some(bindings) => {
                        return self.call_summary(
                            site, span, callee, args, depth, checks, &bindings, &res,
                        );
                    }
                    None => {
                        // An actual without a symbolic origin (literal, fresh
                        // allocation, mutated array): ψ(actuals) cannot be
                        // expressed over the inputs — inline this call.
                        res.stats.fallback();
                    }
                }
            }
        }
        self.call_inline(callee, args, depth)
    }

    fn call_inline(&mut self, callee: &Func, args: Vec<CVal>, depth: u32) -> R<CVal> {
        let mut env = HashMap::new();
        for (p, v) in callee.params.iter().zip(args) {
            env.insert(p.name.clone(), v);
        }
        let mut frame = Frame { env, depth: depth + 1 };
        match self.exec_block(&callee.body, &mut frame)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(CVal::Unit),
        }
    }

    /// Executes the callee with a scratch entry buffer, then replaces its
    /// internal path-condition entries by per-check ψ decompositions over
    /// the call-site actuals. The callee still runs concretely: the return
    /// value, visited blocks, fuel consumption and outcome are exact; only
    /// the recorded predicates change.
    #[allow(clippy::too_many_arguments)]
    fn call_summary(
        &mut self,
        site: NodeId,
        span: Span,
        callee: &Func,
        args: Vec<CVal>,
        depth: u32,
        checks: &HashMap<CheckId, Formula>,
        bindings: &[ActualBinding],
        res: &ResolvedSummaries,
    ) -> R<CVal> {
        let synth = synthetic_state(&args);
        let mut env = HashMap::new();
        for (p, v) in callee.params.iter().zip(args) {
            env.insert(p.name.clone(), v);
        }
        let mut frame = Frame { env, depth: depth + 1 };
        let saved = std::mem::take(&mut self.entries);
        let result = self.exec_block(&callee.body, &mut frame);
        let scratch = std::mem::replace(&mut self.entries, saved);

        if matches!(result, Err(Stop::Fuel) | Err(Stop::CallDepth)) {
            // Budget exhaustion: the run is discarded by the partition
            // anyway; keep the raw entries for fidelity and propagate.
            self.entries.extend(scratch);
            return result.map(|_| CVal::Unit);
        }
        let failed = match &result {
            Err(Stop::Check(id)) => Some(*id),
            _ => None,
        };

        // Passing region: every check traversed before the violation (or
        // all of them on a completed call), first traversal only.
        let pass_region = &scratch[..scratch.len() - usize::from(failed.is_some())];
        let mut seen: Vec<CheckId> = Vec::new();
        for entry in pass_region {
            let Some(id) = entry.kind.check_id() else { continue };
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            let decomposed = checks.get(&id).is_some_and(|psi| {
                self.record_summary_decomposition(psi, bindings, &synth, id, site, span, true)
            });
            if decomposed {
                res.stats.apply();
            } else {
                res.stats.fallback();
                for e in pass_region.iter().filter(|e| e.kind.check_id() == Some(id)) {
                    self.entries.push(e.clone());
                }
            }
        }

        // Pins keep caller-visible terms (return values flowing out of the
        // callee) inside the linear fragment — copied through *after* the
        // summarized atoms: a pin equates a term with its concrete value
        // (e.g. a division's symbolic divisor), so placing it before the
        // check entry would make every flip of ψ(actuals) infeasible.
        for entry in scratch.iter().filter(|e| e.kind == EntryKind::Pin) {
            self.entries.push(entry.clone());
        }

        // Failing side: the last scratch entry is the violating condition;
        // the path condition must end with ¬ψ's decisive atom (or the raw
        // violating predicate on fallback).
        if let Some(id) = failed {
            let decomposed = checks.get(&id).is_some_and(|psi| {
                self.record_summary_decomposition(psi, bindings, &synth, id, site, span, false)
            });
            if decomposed {
                res.stats.apply();
            } else {
                res.stats.fallback();
                self.entries.push(scratch.last().expect("violating entry").clone());
            }
        }

        match result {
            Ok(Flow::Return(v)) => Ok(v),
            Ok(_) => Ok(CVal::Unit),
            Err(e) => Err(e),
        }
    }

    /// Records the short-circuit decomposition of `ψ(actuals)` for one
    /// check: walks the stored `%i`-form ψ and its actual-substituted twin
    /// in lockstep, evaluating each atom concretely on the synthetic callee
    /// entry state, and records every informative visited atom in its taken
    /// form — the last one tagged as the check entry. Returns `false`
    /// (recording nothing) when evaluation is undefined, the formula is
    /// quantified, or the concrete verdict disagrees with the observed
    /// pass/fail — the caller then falls back to the raw callee entries.
    #[allow(clippy::too_many_arguments)]
    fn record_summary_decomposition(
        &mut self,
        psi: &Formula,
        bindings: &[ActualBinding],
        synth: &MethodEntryState,
        check: CheckId,
        site: NodeId,
        span: Span,
        expect_pass: bool,
    ) -> bool {
        let subst = apply_actuals(psi, bindings);
        let env = Env::new(synth);
        let mut atoms: Vec<Pred> = Vec::new();
        let verdict = match walk_decomposition(psi, &subst, &env, &mut atoms) {
            Ok(v) => v,
            Err(_) => return false,
        };
        if verdict != expect_pass {
            return false;
        }
        match atoms.len() {
            0 => self.entries.push(PathEntry {
                pred: Pred::Const(verdict),
                kind: EntryKind::Check(check),
                site,
                span,
            }),
            n => {
                for (i, pred) in atoms.into_iter().enumerate() {
                    let kind = if i + 1 == n {
                        EntryKind::Check(check)
                    } else {
                        EntryKind::ExplicitBranch
                    };
                    self.entries.push(PathEntry { pred, kind, site, span });
                }
            }
        }
        true
    }

    fn eval_arith(
        &mut self,
        e: &Expr,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        frame: &mut Frame,
    ) -> R<CVal> {
        let (lc, lt) = self.eval(l, frame)?.as_int();
        let (rc, rt) = self.eval(r, frame)?.as_int();
        match op {
            BinOp::Add => Ok(CVal::Int(lc.wrapping_add(rc), lt.add(rt))),
            BinOp::Sub => Ok(CVal::Int(lc.wrapping_sub(rc), lt.sub(rt))),
            BinOp::Mul => {
                let term = match (lt.as_const(), rt.as_const()) {
                    (Some(k), _) => rt.mul(k),
                    (None, Some(k)) => lt.mul(k),
                    (None, None) => {
                        // Nonlinear: pin the right operand (DART-style).
                        self.pin(&rt, rc, e.id, e.span);
                        lt.mul(rc)
                    }
                };
                Ok(CVal::Int(lc.wrapping_mul(rc), term))
            }
            BinOp::Div | BinOp::Rem => {
                let check = CheckId { node: e.id, kind: CheckKind::DivByZero };
                if rc == 0 {
                    let pred = Pred::cmp(CmpOp::Eq, rt, Term::int(0));
                    return Err(self.record_check_fail(pred, check, e.id, e.span));
                }
                let pred = Pred::cmp(CmpOp::Ne, rt, Term::int(0));
                self.record_check_pass(pred, check, e.id, e.span);
                // Keep the divisor constant in the term language.
                let divisor = match rt.as_const() {
                    Some(k) => k,
                    None => {
                        self.pin(&rt, rc, e.id, e.span);
                        rc
                    }
                };
                if op == BinOp::Div {
                    Ok(CVal::Int(lc.wrapping_div(rc), lt.div(divisor)))
                } else {
                    Ok(CVal::Int(lc.wrapping_rem(rc), lt.rem(divisor)))
                }
            }
            _ => unreachable!("non-arith op in eval_arith"),
        }
    }

    /// Emits the implicit null check for a dereference of `v`.
    fn null_check(&mut self, v: &CVal, node: NodeId, span: Span) -> R<()> {
        let check = CheckId { node, kind: CheckKind::NullDeref };
        let pred = match v.ref_origin() {
            Some(place) => Pred::Null { place: *place, positive: v.is_null() },
            None => Pred::Const(!v.is_null()),
        };
        if v.is_null() {
            Err(self.record_check_fail(pred, check, node, span))
        } else {
            self.record_check_pass(pred, check, node, span);
            Ok(())
        }
    }

    /// Emits the implicit bounds check: `0 <= idx < len`.
    fn bounds_check(
        &mut self,
        idx_c: i64,
        idx_t: &Term,
        len_c: i64,
        len_t: &Term,
        node: NodeId,
        span: Span,
    ) -> R<()> {
        let check = CheckId { node, kind: CheckKind::IndexOutOfRange };
        if idx_c < 0 {
            let pred = Pred::cmp(CmpOp::Lt, *idx_t, Term::int(0));
            return Err(self.record_check_fail(pred, check, node, span));
        }
        if idx_c >= len_c {
            let pred = Pred::cmp(CmpOp::Ge, *idx_t, *len_t);
            return Err(self.record_check_fail(pred, check, node, span));
        }
        // Passing side: record the informative upper bound; the lower bound
        // only when the index is symbolic.
        if idx_t.as_const().is_none() {
            self.record_branch(Pred::cmp(CmpOp::Ge, *idx_t, Term::int(0)), node, span);
        }
        self.record_check_pass(Pred::cmp(CmpOp::Lt, *idx_t, *len_t), check, node, span);
        Ok(())
    }

    /// Concretizes a symbolic array/string index (records a pin), returning
    /// the concrete cell number.
    fn concretize_index(&mut self, idx_c: i64, idx_t: &Term, node: NodeId, span: Span) -> usize {
        if idx_t.as_const().is_none() {
            self.pin(idx_t, idx_c, node, span);
        }
        idx_c as usize
    }

    fn load_elem(&mut self, node: NodeId, span: Span, arr: &CVal, idx: CVal) -> R<CVal> {
        self.null_check(arr, node, span)?;
        let (ic, it) = idx.as_int();
        match arr {
            CVal::ArrInt(Some(obj), _) => {
                let obj = obj.borrow();
                let (lc, lt) = (obj.cells.len() as i64, obj.len_term);
                self.bounds_check(ic, &it, lc, &lt, node, span)?;
                let cell = self.concretize_index(ic, &it, node, span);
                let (c, t) = obj.cells[cell];
                Ok(CVal::Int(c, t))
            }
            CVal::ArrStr(Some(obj), _) => {
                let obj = obj.borrow();
                let (lc, lt) = (obj.cells.len() as i64, obj.len_term);
                self.bounds_check(ic, &it, lc, &lt, node, span)?;
                let cell = self.concretize_index(ic, &it, node, span);
                Ok(CVal::Str(obj.cells[cell].clone()))
            }
            other => panic!("typechecked array, got {other:?}"),
        }
    }

    fn store_elem(&mut self, node: NodeId, span: Span, arr: &CVal, idx: CVal, v: CVal) -> R<()> {
        self.null_check(arr, node, span)?;
        let (ic, it) = idx.as_int();
        match arr {
            CVal::ArrInt(Some(obj), _) => {
                let (lc, lt) = {
                    let o = obj.borrow();
                    (o.cells.len() as i64, o.len_term)
                };
                self.bounds_check(ic, &it, lc, &lt, node, span)?;
                let cell = self.concretize_index(ic, &it, node, span);
                let (c, t) = v.as_int();
                obj.borrow_mut().cells[cell] = (c, t);
                Ok(())
            }
            CVal::ArrStr(Some(obj), _) => {
                let (lc, lt) = {
                    let o = obj.borrow();
                    (o.cells.len() as i64, o.len_term)
                };
                self.bounds_check(ic, &it, lc, &lt, node, span)?;
                let cell = self.concretize_index(ic, &it, node, span);
                let CVal::Str(s) = v else { panic!("typechecked element") };
                obj.borrow_mut().cells[cell] = s;
                Ok(())
            }
            other => panic!("typechecked array, got {other:?}"),
        }
    }

    fn eval_builtin(&mut self, e: &Expr, b: Builtin, args: &[Expr], frame: &mut Frame) -> R<CVal> {
        match b {
            Builtin::Len => {
                let v = self.eval(&args[0], frame)?;
                self.null_check(&v, e.id, e.span)?;
                match &v {
                    CVal::ArrInt(Some(obj), _) => {
                        let o = obj.borrow();
                        Ok(CVal::Int(o.cells.len() as i64, o.len_term))
                    }
                    CVal::ArrStr(Some(obj), _) => {
                        let o = obj.borrow();
                        Ok(CVal::Int(o.cells.len() as i64, o.len_term))
                    }
                    other => panic!("typechecked len, got {other:?}"),
                }
            }
            Builtin::StrLen => {
                let v = self.eval(&args[0], frame)?;
                self.null_check(&v, e.id, e.span)?;
                let CVal::Str(s) = &v else { panic!("typechecked strlen") };
                let chars = s.val.as_ref().expect("non-null after check");
                let term = match &s.origin {
                    Some(place) => Term::len(*place),
                    None => Term::int(chars.len() as i64),
                };
                Ok(CVal::Int(chars.len() as i64, term))
            }
            Builtin::CharAt => {
                let v = self.eval(&args[0], frame)?;
                let idx = self.eval(&args[1], frame)?;
                self.null_check(&v, e.id, e.span)?;
                let CVal::Str(s) = &v else { panic!("typechecked char_at") };
                let chars = s.val.as_ref().expect("non-null after check").clone();
                let (ic, it) = idx.as_int();
                let (lc, lt) = (
                    chars.len() as i64,
                    match &s.origin {
                        Some(place) => Term::len(*place),
                        None => Term::int(chars.len() as i64),
                    },
                );
                self.bounds_check(ic, &it, lc, &lt, e.id, e.span)?;
                let cell = self.concretize_index(ic, &it, e.id, e.span);
                let term = match &s.origin {
                    Some(place) => Term::char_at(*place, Term::int(cell as i64)),
                    None => Term::int(chars[cell]),
                };
                Ok(CVal::Int(chars[cell], term))
            }
            Builtin::IsSpace => {
                let c = self.eval_condition(e, frame)?;
                Ok(CVal::Bool(c, None))
            }
            Builtin::NewIntArray | Builtin::NewStrArray => {
                let (nc, nt) = self.eval(&args[0], frame)?.as_int();
                let check = CheckId { node: e.id, kind: CheckKind::NegativeSize };
                if nc < 0 {
                    let pred = Pred::cmp(CmpOp::Lt, nt, Term::int(0));
                    return Err(self.record_check_fail(pred, check, e.id, e.span));
                }
                self.record_check_pass(Pred::cmp(CmpOp::Ge, nt, Term::int(0)), check, e.id, e.span);
                if nc > MAX_ARRAY_CELLS {
                    return Err(Stop::Fuel);
                }
                if b == Builtin::NewIntArray {
                    let cells = vec![(0i64, Term::int(0)); nc as usize];
                    let obj = ArrIntObj { cells, len_term: nt, origin: None };
                    Ok(CVal::ArrInt(Some(Rc::new(RefCell::new(obj))), None))
                } else {
                    let cells = vec![CStr::null(); nc as usize];
                    let obj = ArrStrObj { cells, len_term: nt, origin: None };
                    Ok(CVal::ArrStr(Some(Rc::new(RefCell::new(obj))), None))
                }
            }
            Builtin::Abs => {
                let (c, t) = self.eval(&args[0], frame)?.as_int();
                // abs branches internally on the sign.
                if t.as_const().is_none() {
                    let pred = if c >= 0 {
                        Pred::cmp(CmpOp::Ge, t, Term::int(0))
                    } else {
                        Pred::cmp(CmpOp::Lt, t, Term::int(0))
                    };
                    self.record_branch(pred, e.id, e.span);
                }
                let term = if c >= 0 { t } else { t.neg() };
                Ok(CVal::Int(c.wrapping_abs(), term))
            }
        }
    }
}

// ---- summary application helpers -------------------------------------------

/// Positional [`ActualBinding`]s for the call's argument values, or `None`
/// when any actual cannot be bound soundly: a reference without an input
/// origin (literal, fresh allocation) or an array whose shadow cells no
/// longer match its entry-state contents (the caller mutated it, so the
/// stored ψ's `place[k]` atoms would refer to stale values).
fn bindings_of(args: &[CVal]) -> Option<Vec<ActualBinding>> {
    args.iter()
        .map(|v| match v {
            CVal::Int(_, t) => Some(ActualBinding::Int(*t)),
            CVal::Bool(b, origin) => {
                Some(ActualBinding::Bool { origin: origin.clone(), value: *b })
            }
            CVal::Str(s) => s.origin.map(ActualBinding::Ref),
            CVal::ArrInt(obj, origin) => {
                let place = (*origin)?;
                if let Some(obj) = obj {
                    let o = obj.borrow();
                    if o.len_term != Term::len(place) {
                        return None;
                    }
                    for (k, (_, t)) in o.cells.iter().enumerate() {
                        if *t != Term::int_elem(place, Term::int(k as i64)) {
                            return None;
                        }
                    }
                }
                Some(ActualBinding::Ref(place))
            }
            CVal::ArrStr(obj, origin) => {
                let place = (*origin)?;
                if let Some(obj) = obj {
                    let o = obj.borrow();
                    if o.len_term != Term::len(place) {
                        return None;
                    }
                    for (k, cell) in o.cells.iter().enumerate() {
                        if cell.origin != Some(Place::elem(place, k as i64)) {
                            return None;
                        }
                    }
                }
                Some(ActualBinding::Ref(place))
            }
            CVal::Unit => None,
        })
        .collect()
}

/// The callee's entry state under canonical parameter names, for concrete
/// evaluation of stored `%i`-form summaries.
fn synthetic_state(args: &[CVal]) -> MethodEntryState {
    MethodEntryState::from_pairs(
        args.iter().enumerate().map(|(i, v)| (format!("%{i}"), input_of(v))),
    )
}

fn input_of(v: &CVal) -> InputValue {
    match v {
        CVal::Int(c, _) => InputValue::Int(*c),
        CVal::Bool(b, _) => InputValue::Bool(*b),
        CVal::Str(s) => InputValue::Str(s.val.as_ref().map(|rc| rc.as_ref().clone())),
        CVal::ArrInt(obj, _) => InputValue::ArrayInt(
            obj.as_ref().map(|o| o.borrow().cells.iter().map(|(c, _)| *c).collect()),
        ),
        CVal::ArrStr(obj, _) => InputValue::ArrayStr(obj.as_ref().map(|o| {
            o.borrow().cells.iter().map(|s| s.val.as_ref().map(|rc| rc.as_ref().clone())).collect()
        })),
        CVal::Unit => unreachable!("unit argument"),
    }
}

/// Walks a stored summary and its actual-substituted twin in lockstep,
/// mirroring short-circuit evaluation: only the atoms evaluation actually
/// visits are recorded, each in its taken form. The concrete verdict comes
/// from the original `%i`-form against the synthetic state; the recorded
/// predicate is the substituted atom (over the caller's inputs).
/// Quantified summaries are refused (never stored, defensively rejected).
fn walk_decomposition(
    orig: &Formula,
    subst: &Formula,
    env: &Env<'_>,
    atoms: &mut Vec<Pred>,
) -> Result<bool, EvalError> {
    match (orig, subst) {
        (Formula::Pred(p), Formula::Pred(q)) => {
            let v = eval_pred(p, env)?;
            let taken = if v { q.clone() } else { q.negated() };
            if !taken.is_trivially_true() && !taken.is_trivially_false() {
                atoms.push(taken);
            }
            Ok(v)
        }
        (Formula::Not(a), Formula::Not(b)) => Ok(!walk_decomposition(a, b, env, atoms)?),
        (Formula::And(xs), Formula::And(ys)) if xs.len() == ys.len() => {
            for (x, y) in xs.iter().zip(ys) {
                if !walk_decomposition(x, y, env, atoms)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        (Formula::Or(xs), Formula::Or(ys)) if xs.len() == ys.len() => {
            for (x, y) in xs.iter().zip(ys) {
                if walk_decomposition(x, y, env, atoms)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        (Formula::Implies(a, b), Formula::Implies(c, d)) => {
            if !walk_decomposition(a, c, env, atoms)? {
                Ok(true)
            } else {
                walk_decomposition(b, d, env, atoms)
            }
        }
        _ => Err(EvalError::TypeMismatch("unsupported summary shape".to_string())),
    }
}
