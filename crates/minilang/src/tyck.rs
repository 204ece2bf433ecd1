//! Type checker for MiniLang.
//!
//! Produces a [`TypedProgram`] wrapper that records the type of every
//! expression node; downstream passes (the concolic executor)
//! consult it instead of re-deriving types.

use crate::ast::*;
use crate::span::{NodeId, Span};
use std::collections::HashMap;
use std::fmt;

/// A type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    pub message: String,
    pub span: Span,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for TypeError {}

/// The type of an expression during checking: either a known MiniLang type
/// or the polymorphic type of the `null` literal (unifies with any nullable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckedTy {
    Known(Ty),
    Null,
}

impl CheckedTy {
    fn matches(self, want: Ty) -> bool {
        match self {
            CheckedTy::Known(t) => t == want,
            CheckedTy::Null => want.is_nullable(),
        }
    }

    fn describe(self) -> String {
        match self {
            CheckedTy::Known(t) => t.to_string(),
            CheckedTy::Null => "null".to_string(),
        }
    }
}

/// A type-checked program: the AST plus a per-node expression-type table.
#[derive(Debug, Clone)]
pub struct TypedProgram {
    program: Program,
    expr_tys: HashMap<NodeId, Ty>,
}

impl TypedProgram {
    /// The underlying AST.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.program.func(name)
    }

    /// The checked type of an expression node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an expression node of this program.
    pub fn ty_of(&self, id: NodeId) -> Ty {
        *self.expr_tys.get(&id).unwrap_or_else(|| panic!("no type recorded for {id}"))
    }
}

/// Type-checks a parsed program.
///
/// # Errors
///
/// Returns the first type error found (undeclared variables, operator/operand
/// mismatches, call arity/type errors, bad `return`s, `void` misuse, …).
pub fn check_program(program: Program) -> Result<TypedProgram, TypeError> {
    let mut cx = Checker { program: &program, expr_tys: HashMap::new() };
    for f in &program.funcs {
        cx.check_func(f)?;
    }
    let expr_tys = cx.expr_tys;
    Ok(TypedProgram { program, expr_tys })
}

struct Checker<'a> {
    program: &'a Program,
    expr_tys: HashMap<NodeId, Ty>,
}

/// Lexically scoped variable environment.
struct Scopes {
    frames: Vec<HashMap<String, Ty>>,
}

impl Scopes {
    fn new() -> Self {
        Scopes { frames: vec![HashMap::new()] }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, name: &str, ty: Ty) -> bool {
        self.frames.last_mut().expect("scope").insert(name.to_string(), ty).is_none()
    }

    fn lookup(&self, name: &str) -> Option<Ty> {
        self.frames.iter().rev().find_map(|f| f.get(name).copied())
    }
}

impl<'a> Checker<'a> {
    fn err<T>(&self, span: Span, message: impl Into<String>) -> Result<T, TypeError> {
        Err(TypeError { message: message.into(), span })
    }

    fn check_func(&mut self, f: &Func) -> Result<(), TypeError> {
        let mut scopes = Scopes::new();
        for p in &f.params {
            if p.ty == Ty::Void {
                return self.err(p.span, "parameters cannot be void");
            }
            if !scopes.declare(&p.name, p.ty) {
                return self.err(p.span, format!("duplicate parameter `{}`", p.name));
            }
        }
        self.check_block(&f.body, &mut scopes, f)
    }

    fn check_block(&mut self, b: &Block, scopes: &mut Scopes, f: &Func) -> Result<(), TypeError> {
        scopes.push();
        for s in &b.stmts {
            self.check_stmt(s, scopes, f)?;
        }
        scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, s: &Stmt, scopes: &mut Scopes, f: &Func) -> Result<(), TypeError> {
        match &s.kind {
            StmtKind::Let { name, ty, init } => {
                let init_ty = self.check_expr(init, scopes)?;
                let var_ty = match (ty, init_ty) {
                    (Some(declared), got) => {
                        if !got.matches(*declared) {
                            return self.err(
                                s.span,
                                format!(
                                    "let `{name}`: declared {declared} but initializer is {}",
                                    got.describe()
                                ),
                            );
                        }
                        *declared
                    }
                    (None, CheckedTy::Known(t)) => t,
                    (None, CheckedTy::Null) => {
                        return self.err(
                            s.span,
                            format!("let `{name}` = null requires a type annotation"),
                        );
                    }
                };
                if var_ty == Ty::Void {
                    return self.err(s.span, format!("let `{name}`: cannot bind a void value"));
                }
                if !scopes.declare(name, var_ty) {
                    return self.err(s.span, format!("`{name}` already declared in this scope"));
                }
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let value_ty = self.check_expr(value, scopes)?;
                match target {
                    AssignTarget::Var(name) => {
                        let Some(var_ty) = scopes.lookup(name) else {
                            return self.err(
                                s.span,
                                format!("assignment to undeclared variable `{name}`"),
                            );
                        };
                        if !value_ty.matches(var_ty) {
                            return self.err(
                                s.span,
                                format!(
                                    "cannot assign {} to `{name}: {var_ty}`",
                                    value_ty.describe()
                                ),
                            );
                        }
                        Ok(())
                    }
                    AssignTarget::Index { array, index } => {
                        let arr_ty = self.check_expr(array, scopes)?;
                        let idx_ty = self.check_expr(index, scopes)?;
                        let CheckedTy::Known(arr_ty) = arr_ty else {
                            return self.err(s.span, "cannot index null");
                        };
                        let Some(elem) = arr_ty.elem() else {
                            return self.err(s.span, format!("cannot index into {arr_ty}"));
                        };
                        if !idx_ty.matches(Ty::Int) {
                            return self.err(s.span, "array index must be int");
                        }
                        if !value_ty.matches(elem) {
                            return self.err(
                                s.span,
                                format!(
                                    "cannot store {} into element of {arr_ty}",
                                    value_ty.describe()
                                ),
                            );
                        }
                        Ok(())
                    }
                }
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                self.check_cond(cond, scopes)?;
                self.check_block(then_blk, scopes, f)?;
                if let Some(e) = else_blk {
                    self.check_block(e, scopes, f)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                self.check_cond(cond, scopes)?;
                self.check_block(body, scopes, f)
            }
            StmtKind::Assert { cond } => self.check_cond(cond, scopes),
            StmtKind::Return { value } => match (value, f.ret) {
                (None, Ty::Void) => Ok(()),
                (None, other) => self.err(s.span, format!("missing return value of type {other}")),
                (Some(_), Ty::Void) => self.err(s.span, "void function cannot return a value"),
                (Some(v), want) => {
                    let got = self.check_expr(v, scopes)?;
                    if got.matches(want) {
                        Ok(())
                    } else {
                        self.err(
                            s.span,
                            format!(
                                "return type mismatch: expected {want}, found {}",
                                got.describe()
                            ),
                        )
                    }
                }
            },
            StmtKind::Break | StmtKind::Continue => Ok(()),
            StmtKind::Expr { expr } => {
                self.check_expr(expr, scopes)?;
                Ok(())
            }
            StmtKind::BlockStmt { block } => self.check_block(block, scopes, f),
        }
    }

    fn check_cond(&mut self, cond: &Expr, scopes: &mut Scopes) -> Result<(), TypeError> {
        let t = self.check_expr(cond, scopes)?;
        if t.matches(Ty::Bool) {
            Ok(())
        } else {
            self.err(cond.span, format!("condition must be bool, found {}", t.describe()))
        }
    }

    fn record(&mut self, e: &Expr, t: CheckedTy) -> Result<CheckedTy, TypeError> {
        // The `null` literal is recorded with a nullable placeholder type; its
        // concrete type never matters at runtime (it evaluates to Null).
        let ty = match t {
            CheckedTy::Known(t) => t,
            CheckedTy::Null => Ty::Str,
        };
        self.expr_tys.insert(e.id, ty);
        Ok(t)
    }

    fn check_expr(&mut self, e: &Expr, scopes: &mut Scopes) -> Result<CheckedTy, TypeError> {
        let t = match &e.kind {
            ExprKind::IntLit(_) => CheckedTy::Known(Ty::Int),
            ExprKind::BoolLit(_) => CheckedTy::Known(Ty::Bool),
            ExprKind::StrLit(_) => CheckedTy::Known(Ty::Str),
            ExprKind::Null => CheckedTy::Null,
            ExprKind::Var(name) => match scopes.lookup(name) {
                Some(t) => CheckedTy::Known(t),
                None => return self.err(e.span, format!("undeclared variable `{name}`")),
            },
            ExprKind::Unary(op, inner) => {
                let it = self.check_expr(inner, scopes)?;
                match op {
                    UnOp::Neg if it.matches(Ty::Int) => CheckedTy::Known(Ty::Int),
                    UnOp::Not if it.matches(Ty::Bool) => CheckedTy::Known(Ty::Bool),
                    UnOp::Neg => {
                        return self.err(e.span, format!("cannot negate {}", it.describe()))
                    }
                    UnOp::Not => {
                        return self.err(e.span, format!("cannot apply `!` to {}", it.describe()))
                    }
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lt = self.check_expr(l, scopes)?;
                let rt = self.check_expr(r, scopes)?;
                self.check_binary(e.span, *op, lt, rt)?
            }
            ExprKind::Index(arr, idx) => {
                let at = self.check_expr(arr, scopes)?;
                let it = self.check_expr(idx, scopes)?;
                let CheckedTy::Known(at) = at else {
                    return self.err(e.span, "cannot index null");
                };
                let Some(elem) = at.elem() else {
                    return self
                        .err(e.span, format!("cannot index into {at} (use char_at for str)"));
                };
                if !it.matches(Ty::Int) {
                    return self.err(e.span, "array index must be int");
                }
                CheckedTy::Known(elem)
            }
            ExprKind::BuiltinCall { builtin, args } => {
                let mut tys = Vec::new();
                for a in args {
                    tys.push(self.check_expr(a, scopes)?);
                }
                self.check_builtin(e.span, *builtin, &tys)?
            }
            ExprKind::Call { name, args } => {
                let Some(callee) = self.program.func(name) else {
                    return self.err(e.span, format!("call to unknown function `{name}`"));
                };
                if callee.params.len() != args.len() {
                    return self.err(
                        e.span,
                        format!(
                            "`{name}` expects {} argument(s), got {}",
                            callee.params.len(),
                            args.len()
                        ),
                    );
                }
                let want: Vec<Ty> = callee.params.iter().map(|p| p.ty).collect();
                for (a, w) in args.iter().zip(want) {
                    let got = self.check_expr(a, scopes)?;
                    if !got.matches(w) {
                        return self.err(
                            a.span,
                            format!(
                                "argument type mismatch: expected {w}, found {}",
                                got.describe()
                            ),
                        );
                    }
                }
                CheckedTy::Known(callee.ret)
            }
        };
        self.record(e, t)
    }

    fn check_binary(
        &self,
        span: Span,
        op: BinOp,
        lt: CheckedTy,
        rt: CheckedTy,
    ) -> Result<CheckedTy, TypeError> {
        use BinOp::*;
        let both_int = lt.matches(Ty::Int)
            && rt.matches(Ty::Int)
            && lt != CheckedTy::Null
            && rt != CheckedTy::Null;
        match op {
            Add | Sub | Mul | Div | Rem => {
                if both_int {
                    Ok(CheckedTy::Known(Ty::Int))
                } else {
                    self.err(span, format!("`{}` requires int operands", op.symbol()))
                }
            }
            Lt | Le | Gt | Ge => {
                if both_int {
                    Ok(CheckedTy::Known(Ty::Bool))
                } else {
                    self.err(span, format!("`{}` requires int operands", op.symbol()))
                }
            }
            And | Or => {
                if lt.matches(Ty::Bool)
                    && rt.matches(Ty::Bool)
                    && lt != CheckedTy::Null
                    && rt != CheckedTy::Null
                {
                    Ok(CheckedTy::Known(Ty::Bool))
                } else {
                    self.err(span, format!("`{}` requires bool operands", op.symbol()))
                }
            }
            Eq | Ne => {
                let ok = match (lt, rt) {
                    (CheckedTy::Known(Ty::Int), CheckedTy::Known(Ty::Int)) => true,
                    (CheckedTy::Known(Ty::Bool), CheckedTy::Known(Ty::Bool)) => true,
                    // Reference comparisons exist only against `null`.
                    (CheckedTy::Known(t), CheckedTy::Null)
                    | (CheckedTy::Null, CheckedTy::Known(t)) => t.is_nullable(),
                    (CheckedTy::Null, CheckedTy::Null) => true,
                    _ => false,
                };
                if ok {
                    Ok(CheckedTy::Known(Ty::Bool))
                } else {
                    self.err(
                        span,
                        format!(
                            "`{}` not defined for {} and {} (reference types compare only to null)",
                            op.symbol(),
                            lt.describe(),
                            rt.describe()
                        ),
                    )
                }
            }
        }
    }

    fn check_builtin(
        &self,
        span: Span,
        b: Builtin,
        args: &[CheckedTy],
    ) -> Result<CheckedTy, TypeError> {
        let arity = |n: usize| -> Result<(), TypeError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(TypeError {
                    message: format!("`{}` expects {n} argument(s), got {}", b.name(), args.len()),
                    span,
                })
            }
        };
        match b {
            Builtin::Len => {
                arity(1)?;
                match args[0] {
                    CheckedTy::Known(t) if t.is_array() => Ok(CheckedTy::Known(Ty::Int)),
                    other => self
                        .err(span, format!("`len` expects an array, found {}", other.describe())),
                }
            }
            Builtin::StrLen => {
                arity(1)?;
                if args[0].matches(Ty::Str) {
                    Ok(CheckedTy::Known(Ty::Int))
                } else {
                    self.err(span, format!("`strlen` expects str, found {}", args[0].describe()))
                }
            }
            Builtin::CharAt => {
                arity(2)?;
                if args[0].matches(Ty::Str)
                    && args[1].matches(Ty::Int)
                    && args[1] != CheckedTy::Null
                {
                    Ok(CheckedTy::Known(Ty::Int))
                } else {
                    self.err(span, "`char_at` expects (str, int)")
                }
            }
            Builtin::IsSpace => {
                arity(1)?;
                if args[0].matches(Ty::Int) && args[0] != CheckedTy::Null {
                    Ok(CheckedTy::Known(Ty::Bool))
                } else {
                    self.err(span, "`is_space` expects int")
                }
            }
            Builtin::NewIntArray => {
                arity(1)?;
                if args[0].matches(Ty::Int) && args[0] != CheckedTy::Null {
                    Ok(CheckedTy::Known(Ty::ArrayInt))
                } else {
                    self.err(span, "`new_int_array` expects int")
                }
            }
            Builtin::NewStrArray => {
                arity(1)?;
                if args[0].matches(Ty::Int) && args[0] != CheckedTy::Null {
                    Ok(CheckedTy::Known(Ty::ArrayStr))
                } else {
                    self.err(span, "`new_str_array` expects int")
                }
            }
            Builtin::Abs => {
                arity(1)?;
                if args[0].matches(Ty::Int) && args[0] != CheckedTy::Null {
                    Ok(CheckedTy::Known(Ty::Int))
                } else {
                    self.err(span, "`abs` expects int")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<TypedProgram, TypeError> {
        check_program(parse_program(src).expect("parse"))
    }

    #[test]
    fn accepts_motivating_example_shape() {
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
        let tp = check(src).expect("typecheck");
        assert!(tp.func("example").is_some());
    }

    #[test]
    fn rejects_undeclared_variable() {
        assert!(check("fn f() { x = 1; }").is_err());
        assert!(check("fn f() -> int { return y; }").is_err());
    }

    #[test]
    fn rejects_bool_arith() {
        assert!(check("fn f(b bool) -> int { return b + 1; }").is_err());
    }

    #[test]
    fn rejects_str_str_equality() {
        assert!(check("fn f(s str, t str) -> bool { return s == t; }").is_err());
    }

    #[test]
    fn accepts_null_comparisons() {
        assert!(check("fn f(s str, a [int]) -> bool { return s == null && a != null; }").is_ok());
    }

    #[test]
    fn rejects_int_null_comparison() {
        assert!(check("fn f(x int) -> bool { return x == null; }").is_err());
    }

    #[test]
    fn let_null_requires_annotation() {
        assert!(check("fn f() { let s = null; }").is_err());
        assert!(check("fn f() { let s str = null; }").is_ok());
    }

    #[test]
    fn rejects_wrong_return_type() {
        assert!(check("fn f() -> int { return true; }").is_err());
        assert!(check("fn f() { return 1; }").is_err());
        assert!(check("fn f() -> int { return; }").is_err());
    }

    #[test]
    fn checks_user_calls() {
        let src = "
            fn helper(x int) -> int { return x + 1; }
            fn main(y int) -> int { return helper(y); }";
        assert!(check(src).is_ok());
        assert!(check("fn main(y int) -> int { return helper(y); }").is_err());
        let bad_arity = "
            fn helper(x int) -> int { return x; }
            fn main(y int) -> int { return helper(y, y); }";
        assert!(check(bad_arity).is_err());
    }

    #[test]
    fn index_rules() {
        assert!(check("fn f(a [int]) -> int { return a[0]; }").is_ok());
        assert!(check("fn f(s [str]) -> str { return s[0]; }").is_ok());
        assert!(check("fn f(s str) -> int { return s[0]; }").is_err());
        assert!(check("fn f(a [int], b bool) -> int { return a[b]; }").is_err());
    }

    #[test]
    fn builtin_rules() {
        assert!(check("fn f(s str) -> int { return char_at(s, 0); }").is_ok());
        assert!(check("fn f(c int) -> bool { return is_space(c); }").is_ok());
        assert!(check("fn f(n int) -> [int] { return new_int_array(n); }").is_ok());
        assert!(check("fn f(s str) -> int { return len(s); }").is_err());
        assert!(check("fn f(a [int]) -> int { return strlen(a); }").is_err());
    }

    #[test]
    fn scoping_allows_shadowing_across_blocks_only() {
        assert!(check("fn f() { let x = 1; let x = 2; }").is_err());
        assert!(check("fn f() { let x = 1; if (x > 0) { let x = 2; x = x + 1; } }").is_ok());
    }

    #[test]
    fn loop_scoped_variable_not_visible_after_for() {
        let src = "fn f(n int) -> int { for (let i = 0; i < n; i = i + 1) { } return i; }";
        assert!(check(src).is_err());
    }

    #[test]
    fn void_call_in_expr_position_rejected_as_value() {
        let src = "
            fn proc(x int) { return; }
            fn main(y int) -> int { return proc(y) + 1; }";
        assert!(check(src).is_err());
    }

    #[test]
    fn expression_types_recorded() {
        let src = "fn f(a [int], i int) -> int { return a[i] + 1; }";
        let tp = check(src).unwrap();
        let f = tp.func("f").unwrap();
        let StmtKind::Return { value: Some(v) } = &f.body.stmts[0].kind else { panic!() };
        assert_eq!(tp.ty_of(v.id), Ty::Int);
    }
}
