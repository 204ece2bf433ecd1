//! The concrete MiniLang interpreter.
//!
//! Executes a type-checked program on a method-entry state, raising the
//! implicit runtime checks (null dereference, division by zero, bounds,
//! negative allocation) and explicit assertions that define the paper's
//! assertion-containing locations, and recording basic-block coverage for
//! Table IV.

use crate::value::Value;
use minilang::ast::*;
use minilang::{CheckId, CheckKind, MethodEntryState, NodeId, Span, TypedProgram};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// A runtime failure: a violated check at an assertion-containing location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    pub check: CheckId,
    pub span: Span,
    pub message: String,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {}: {}", self.check.kind, self.span.line, self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// How an execution ended.
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// Completed, possibly with a return value.
    Completed(Value),
    /// Aborted with a violated check.
    Failed(RuntimeError),
    /// Exceeded the step budget (runaway loop).
    OutOfFuel,
    /// Exceeded the call-depth bound (runaway recursion).
    CallDepthExceeded,
}

impl ExecResult {
    /// The violated check, if the run failed.
    pub fn failed_check(&self) -> Option<CheckId> {
        match self {
            ExecResult::Failed(e) => Some(e.check),
            _ => None,
        }
    }
}

/// Result of a run plus observation data.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    pub result: ExecResult,
    /// Block nodes visited during the run (across all functions executed).
    pub visited_blocks: HashSet<NodeId>,
    /// Steps consumed.
    pub steps: u64,
}

/// Statements one run may execute before it ends as `OutOfFuel`. The
/// concolic executor reads the same budget, so both executors agree on
/// where a runaway loop stops.
pub const FUEL: u64 = 100_000;

/// Deepest call nesting one run may reach before it ends as
/// `CallDepthExceeded` (both executors).
pub const MAX_CALL_DEPTH: u32 = 64;

/// Largest array `new_int_array` / `new_str_array` may allocate, in cells.
/// A larger size ends the run as `OutOfFuel` (both executors) instead of
/// allocating it: like the step budget, it bounds what one run can cost.
pub const MAX_ARRAY_CELLS: i64 = 1 << 20;

/// Runs `func_name` on `state`.
///
/// # Panics
///
/// Panics if the function does not exist or the state does not conform to
/// its signature — callers are expected to validate first (the type checker
/// and [`MethodEntryState::conforms_to`] make this cheap).
pub fn run(program: &TypedProgram, func_name: &str, state: &MethodEntryState) -> ExecOutcome {
    let func = program.func(func_name).unwrap_or_else(|| panic!("unknown function {func_name}"));
    assert!(state.conforms_to(func), "state {state} does not conform to {func_name}");
    let mut m = Machine { program, fuel: FUEL, visited: HashSet::new() };
    let mut env: HashMap<String, Value> = HashMap::new();
    for p in &func.params {
        env.insert(
            p.name.clone(),
            Value::from_input(state.get(&p.name).expect("conforming state")),
        );
    }
    let result = match m.exec_block(&func.body, &mut Frame { env, depth: 0 }) {
        Ok(Flow::Return(v)) => ExecResult::Completed(v),
        Ok(_) => ExecResult::Completed(Value::Unit),
        Err(Stop::Check(e)) => ExecResult::Failed(e),
        Err(Stop::Fuel) => ExecResult::OutOfFuel,
        Err(Stop::CallDepth) => ExecResult::CallDepthExceeded,
    };
    ExecOutcome { result, visited_blocks: m.visited, steps: FUEL - m.fuel }
}

/// Structured control flow inside a function body.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// Abnormal termination of the whole execution.
enum Stop {
    Check(RuntimeError),
    Fuel,
    CallDepth,
}

type Exec<T> = Result<T, Stop>;

struct Frame {
    env: HashMap<String, Value>,
    depth: u32,
}

struct Machine<'a> {
    program: &'a TypedProgram,
    fuel: u64,
    visited: HashSet<NodeId>,
}

impl<'a> Machine<'a> {
    fn tick(&mut self) -> Exec<()> {
        if self.fuel == 0 {
            return Err(Stop::Fuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn fail(&self, node: NodeId, kind: CheckKind, span: Span, message: impl Into<String>) -> Stop {
        Stop::Check(RuntimeError { check: CheckId { node, kind }, span, message: message.into() })
    }

    fn exec_block(&mut self, b: &Block, frame: &mut Frame) -> Exec<Flow> {
        self.visited.insert(b.id);
        // Block scoping: `let`s declared here disappear afterwards, and a
        // shadowed outer binding is restored (mutations of outer variables
        // persist).
        let mut declared: Vec<(String, Option<Value>)> = Vec::new();
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
        declared: &mut Vec<(String, Option<Value>)>,
    ) -> Exec<Flow> {
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
                        let slot = frame.env.get_mut(name).expect("typechecked variable");
                        *slot = v;
                    }
                    AssignTarget::Index { array, index } => {
                        let arr = self.eval(array, frame)?;
                        let idx = self.eval(index, frame)?.as_int().expect("typechecked index");
                        let v = self.eval(value, frame)?;
                        self.store_elem(s.id, s.span, &arr, idx, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                let c = self.eval(cond, frame)?.as_bool().expect("typechecked cond");
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
                let c = self.eval(cond, frame)?.as_bool().expect("typechecked cond");
                if !c {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body, frame)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => return Ok(Flow::Normal),
                    Flow::Return(v) => return Ok(Flow::Return(v)),
                }
            },
            StmtKind::Assert { cond } => {
                let c = self.eval(cond, frame)?.as_bool().expect("typechecked cond");
                if c {
                    Ok(Flow::Normal)
                } else {
                    Err(self.fail(s.id, CheckKind::AssertFail, s.span, "assertion violated"))
                }
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Unit,
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

    fn store_elem(
        &mut self,
        node: NodeId,
        span: Span,
        arr: &Value,
        idx: i64,
        v: Value,
    ) -> Exec<()> {
        // `null` literals evaluate to a single polymorphic null (is_null),
        // so null checks match any variant before shape dispatch.
        if arr.is_null() {
            return Err(self.fail(node, CheckKind::NullDeref, span, "write through null array"));
        }
        match arr {
            Value::ArrayInt(Some(a)) => {
                let mut xs = a.borrow_mut();
                if idx < 0 || idx as usize >= xs.len() {
                    return Err(self.fail(
                        node,
                        CheckKind::IndexOutOfRange,
                        span,
                        format!("index {idx} out of range (len {})", xs.len()),
                    ));
                }
                xs[idx as usize] = v.as_int().expect("typechecked element");
                Ok(())
            }
            Value::ArrayStr(Some(a)) => {
                let mut xs = a.borrow_mut();
                if idx < 0 || idx as usize >= xs.len() {
                    return Err(self.fail(
                        node,
                        CheckKind::IndexOutOfRange,
                        span,
                        format!("index {idx} out of range (len {})", xs.len()),
                    ));
                }
                xs[idx as usize] = match v {
                    Value::Str(s) => s,
                    _ => unreachable!("typechecked element"),
                };
                Ok(())
            }
            _ => unreachable!("typechecked array"),
        }
    }

    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> Exec<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::BoolLit(b) => Ok(Value::Bool(*b)),
            ExprKind::StrLit(s) => {
                Ok(Value::Str(Some(Rc::new(s.chars().map(|c| c as i64).collect()))))
            }
            ExprKind::Null => {
                // The checked placeholder type is Str; any nullable works.
                match self.program.ty_of(e.id) {
                    Ty::ArrayInt => Ok(Value::ArrayInt(None)),
                    Ty::ArrayStr => Ok(Value::ArrayStr(None)),
                    _ => Ok(Value::Str(None)),
                }
            }
            ExprKind::Var(name) => Ok(frame.env.get(name).expect("typechecked variable").clone()),
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner, frame)?;
                Ok(match op {
                    UnOp::Neg => Value::Int(v.as_int().expect("typechecked").wrapping_neg()),
                    UnOp::Not => Value::Bool(!v.as_bool().expect("typechecked")),
                })
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(e, *op, l, r, frame),
            ExprKind::Index(arr, idx) => {
                let a = self.eval(arr, frame)?;
                let i = self.eval(idx, frame)?.as_int().expect("typechecked");
                self.load_elem(e.id, e.span, &a, i)
            }
            ExprKind::BuiltinCall { builtin, args } => self.eval_builtin(e, *builtin, args, frame),
            ExprKind::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, frame)?);
                }
                self.call(name, vals, frame.depth)
            }
        }
    }

    fn call(&mut self, name: &str, args: Vec<Value>, depth: u32) -> Exec<Value> {
        if depth + 1 > MAX_CALL_DEPTH {
            return Err(Stop::CallDepth);
        }
        self.tick()?;
        let callee = self.program.func(name).expect("typechecked call");
        let mut env = HashMap::new();
        for (p, v) in callee.params.iter().zip(args) {
            env.insert(p.name.clone(), v);
        }
        let mut frame = Frame { env, depth: depth + 1 };
        match self.exec_block(&callee.body, &mut frame)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    fn eval_binary(
        &mut self,
        e: &Expr,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        frame: &mut Frame,
    ) -> Exec<Value> {
        // Short-circuit boolean operators first.
        match op {
            BinOp::And => {
                let lv = self.eval(l, frame)?.as_bool().expect("typechecked");
                if !lv {
                    return Ok(Value::Bool(false));
                }
                return self.eval(r, frame);
            }
            BinOp::Or => {
                let lv = self.eval(l, frame)?.as_bool().expect("typechecked");
                if lv {
                    return Ok(Value::Bool(true));
                }
                return self.eval(r, frame);
            }
            _ => {}
        }
        let lv = self.eval(l, frame)?;
        let rv = self.eval(r, frame)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let a = lv.as_int().expect("typechecked");
                let b = rv.as_int().expect("typechecked");
                let v = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    BinOp::Div | BinOp::Rem => {
                        if b == 0 {
                            return Err(self.fail(
                                e.id,
                                CheckKind::DivByZero,
                                e.span,
                                "division by zero",
                            ));
                        }
                        if op == BinOp::Div {
                            a.wrapping_div(b)
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(v))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let a = lv.as_int().expect("typechecked");
                let b = rv.as_int().expect("typechecked");
                Ok(Value::Bool(match op {
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    _ => unreachable!(),
                }))
            }
            BinOp::Eq | BinOp::Ne => {
                let eq = match (&lv, &rv) {
                    (Value::Int(a), Value::Int(b)) => a == b,
                    (Value::Bool(a), Value::Bool(b)) => a == b,
                    // Reference comparisons: only against null (typechecked).
                    _ => lv.is_null() && rv.is_null(),
                };
                Ok(Value::Bool(if op == BinOp::Eq { eq } else { !eq }))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn load_elem(&mut self, node: NodeId, span: Span, arr: &Value, idx: i64) -> Exec<Value> {
        if arr.is_null() {
            return Err(self.fail(node, CheckKind::NullDeref, span, "read through null array"));
        }
        match arr {
            Value::ArrayInt(Some(a)) => {
                let xs = a.borrow();
                if idx < 0 || idx as usize >= xs.len() {
                    Err(self.fail(
                        node,
                        CheckKind::IndexOutOfRange,
                        span,
                        format!("index {idx} out of range (len {})", xs.len()),
                    ))
                } else {
                    Ok(Value::Int(xs[idx as usize]))
                }
            }
            Value::ArrayStr(Some(a)) => {
                let xs = a.borrow();
                if idx < 0 || idx as usize >= xs.len() {
                    Err(self.fail(
                        node,
                        CheckKind::IndexOutOfRange,
                        span,
                        format!("index {idx} out of range (len {})", xs.len()),
                    ))
                } else {
                    Ok(Value::Str(xs[idx as usize].clone()))
                }
            }
            _ => unreachable!("typechecked array"),
        }
    }

    fn eval_builtin(
        &mut self,
        e: &Expr,
        b: Builtin,
        args: &[Expr],
        frame: &mut Frame,
    ) -> Exec<Value> {
        match b {
            Builtin::Len => {
                let v = self.eval(&args[0], frame)?;
                if v.is_null() {
                    return Err(self.fail(e.id, CheckKind::NullDeref, e.span, "len of null array"));
                }
                match v {
                    Value::ArrayInt(Some(a)) => Ok(Value::Int(a.borrow().len() as i64)),
                    Value::ArrayStr(Some(a)) => Ok(Value::Int(a.borrow().len() as i64)),
                    _ => unreachable!("typechecked"),
                }
            }
            Builtin::StrLen => {
                let v = self.eval(&args[0], frame)?;
                if v.is_null() {
                    return Err(self.fail(e.id, CheckKind::NullDeref, e.span, "strlen of null"));
                }
                match v {
                    Value::Str(Some(s)) => Ok(Value::Int(s.len() as i64)),
                    _ => unreachable!("typechecked"),
                }
            }
            Builtin::CharAt => {
                let s = self.eval(&args[0], frame)?;
                let i = self.eval(&args[1], frame)?.as_int().expect("typechecked");
                if s.is_null() {
                    return Err(self.fail(e.id, CheckKind::NullDeref, e.span, "char_at of null"));
                }
                match s {
                    Value::Str(Some(cs)) => {
                        if i < 0 || i as usize >= cs.len() {
                            Err(self.fail(
                                e.id,
                                CheckKind::IndexOutOfRange,
                                e.span,
                                format!("char index {i} out of range (len {})", cs.len()),
                            ))
                        } else {
                            Ok(Value::Int(cs[i as usize]))
                        }
                    }
                    _ => unreachable!("typechecked"),
                }
            }
            Builtin::IsSpace => {
                let c = self.eval(&args[0], frame)?.as_int().expect("typechecked");
                Ok(Value::Bool(matches!(c, 32 | 9 | 10 | 13)))
            }
            Builtin::NewIntArray => {
                let n = self.eval(&args[0], frame)?.as_int().expect("typechecked");
                if n < 0 {
                    Err(self.fail(
                        e.id,
                        CheckKind::NegativeSize,
                        e.span,
                        format!("negative size {n}"),
                    ))
                } else if n > MAX_ARRAY_CELLS {
                    Err(Stop::Fuel)
                } else {
                    Ok(Value::ArrayInt(Some(Rc::new(std::cell::RefCell::new(vec![0; n as usize])))))
                }
            }
            Builtin::NewStrArray => {
                let n = self.eval(&args[0], frame)?.as_int().expect("typechecked");
                if n < 0 {
                    Err(self.fail(
                        e.id,
                        CheckKind::NegativeSize,
                        e.span,
                        format!("negative size {n}"),
                    ))
                } else if n > MAX_ARRAY_CELLS {
                    Err(Stop::Fuel)
                } else {
                    Ok(Value::ArrayStr(Some(Rc::new(std::cell::RefCell::new(vec![
                        None;
                        n as usize
                    ])))))
                }
            }
            Builtin::Abs => {
                let v = self.eval(&args[0], frame)?.as_int().expect("typechecked");
                Ok(Value::Int(v.wrapping_abs()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minilang::{compile, InputValue};

    fn run_src(src: &str, func: &str, state: MethodEntryState) -> ExecOutcome {
        let tp = compile(src).expect("compile");
        run(&tp, func, &state)
    }

    #[test]
    fn arithmetic_and_return() {
        let out = run_src(
            "fn f(x int) -> int { return x * 2 + 1; }",
            "f",
            MethodEntryState::from_pairs([("x", InputValue::Int(20))]),
        );
        match out.result {
            ExecResult::Completed(Value::Int(41)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn division_by_zero_fails_with_check() {
        let out = run_src(
            "fn f(x int) -> int { return 10 / x; }",
            "f",
            MethodEntryState::from_pairs([("x", InputValue::Int(0))]),
        );
        match out.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::DivByZero),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn null_array_len_fails() {
        let out = run_src(
            "fn f(a [int]) -> int { return len(a); }",
            "f",
            MethodEntryState::from_pairs([("a", InputValue::ArrayInt(None))]),
        );
        match out.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::NullDeref),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let out = run_src(
            "fn f(a [int]) -> int { return a[5]; }",
            "f",
            MethodEntryState::from_pairs([("a", InputValue::ArrayInt(Some(vec![1, 2])))]),
        );
        match out.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::IndexOutOfRange),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn motivating_example_tf1_fails_at_element_null_check() {
        let src = "
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
        // t_f1: (s: {null}, a: 1, b: 0, c: 1, d: 0)
        let state = MethodEntryState::from_pairs([
            ("s".to_string(), InputValue::ArrayStr(Some(vec![None]))),
            ("a".to_string(), InputValue::Int(1)),
            ("b".to_string(), InputValue::Int(0)),
            ("c".to_string(), InputValue::Int(1)),
            ("d".to_string(), InputValue::Int(0)),
        ]);
        let out = run_src(src, "example", state);
        match out.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::NullDeref),
            other => panic!("{other:?}"),
        }
        // And a passing run covers the loop blocks.
        let state = MethodEntryState::from_pairs([
            ("s".to_string(), InputValue::ArrayStr(Some(vec![Some(vec![97])]))),
            ("a".to_string(), InputValue::Int(1)),
            ("b".to_string(), InputValue::Int(0)),
            ("c".to_string(), InputValue::Int(1)),
            ("d".to_string(), InputValue::Int(0)),
        ]);
        let out = run_src(src, "example", state);
        // b becomes 1 (sum+1) and strlen("a") adds 1 → 2.
        match out.result {
            ExecResult::Completed(Value::Int(2)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explicit_assert_fails() {
        let out = run_src(
            "fn f(x int) { assert(x > 0); }",
            "f",
            MethodEntryState::from_pairs([("x", InputValue::Int(0))]),
        );
        match out.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::AssertFail),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let out = run_src(
            "fn f(x int) { while (true) { x = x + 1; } }",
            "f",
            MethodEntryState::from_pairs([("x", InputValue::Int(0))]),
        );
        assert!(matches!(out.result, ExecResult::OutOfFuel));
    }

    #[test]
    fn call_and_recursion() {
        let src = "
            fn fact(n int) -> int {
                if (n <= 1) { return 1; }
                return n * fact(n - 1);
            }
            fn main(n int) -> int { return fact(n); }";
        let out = run_src(src, "main", MethodEntryState::from_pairs([("n", InputValue::Int(5))]));
        match out.result {
            ExecResult::Completed(Value::Int(120)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failure_inside_callee_propagates() {
        let src = "
            fn helper(a [int], i int) -> int { return a[i]; }
            fn main(a [int]) -> int { return helper(a, 3); }";
        let out = run_src(
            src,
            "main",
            MethodEntryState::from_pairs([("a", InputValue::ArrayInt(Some(vec![1])))]),
        );
        match out.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::IndexOutOfRange),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_writes_are_observable() {
        let src = "
            fn f(a [int]) -> int {
                a[0] = 7;
                return a[0];
            }";
        let out = run_src(
            src,
            "f",
            MethodEntryState::from_pairs([("a", InputValue::ArrayInt(Some(vec![0])))]),
        );
        match out.result {
            ExecResult::Completed(Value::Int(7)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_array_and_negative_size() {
        let ok = run_src(
            "fn f(n int) -> int { let a = new_int_array(n); return len(a); }",
            "f",
            MethodEntryState::from_pairs([("n", InputValue::Int(3))]),
        );
        assert!(matches!(ok.result, ExecResult::Completed(Value::Int(3))));
        let bad = run_src(
            "fn f(n int) -> int { let a = new_int_array(n); return len(a); }",
            "f",
            MethodEntryState::from_pairs([("n", InputValue::Int(-1))]),
        );
        match bad.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::NegativeSize),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_circuit_protects_null() {
        let src = "fn f(s str) -> bool { return s != null && strlen(s) > 0; }";
        let out = run_src(src, "f", MethodEntryState::from_pairs([("s", InputValue::Str(None))]));
        match out.result {
            ExecResult::Completed(Value::Bool(false)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn block_coverage_partial_then_full() {
        let src = "fn f(x int) -> int { if (x > 0) { return 1; } else { return 2; } }";
        let tp = compile(src).unwrap();
        let blocks = minilang::block_ids(tp.func("f").unwrap());
        assert_eq!(blocks.len(), 3);
        let out = run(&tp, "f", &MethodEntryState::from_pairs([("x", InputValue::Int(1))]));
        let cov = minilang::coverage_percent(&blocks, &out.visited_blocks);
        assert!((cov - 2.0 / 3.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn is_space_builtin() {
        let src = "fn f(c int) -> bool { return is_space(c); }";
        for (c, want) in [(32i64, true), (9, true), (97, false)] {
            let out = run_src(src, "f", MethodEntryState::from_pairs([("c", InputValue::Int(c))]));
            match out.result {
                ExecResult::Completed(Value::Bool(b)) => assert_eq!(b, want),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn char_at_and_strlen() {
        let src = "fn f(s str) -> int { return char_at(s, strlen(s) - 1); }";
        let out =
            run_src(src, "f", MethodEntryState::from_pairs([("s", InputValue::str_from("xyz"))]));
        match out.result {
            ExecResult::Completed(Value::Int(v)) => assert_eq!(v, 'z' as i64),
            other => panic!("{other:?}"),
        }
        let empty =
            run_src(src, "f", MethodEntryState::from_pairs([("s", InputValue::str_from(""))]));
        match empty.result {
            ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::IndexOutOfRange),
            other => panic!("{other:?}"),
        }
    }
}
