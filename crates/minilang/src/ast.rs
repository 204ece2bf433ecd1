//! Abstract syntax for MiniLang.
//!
//! MiniLang is a small, deterministic, sequential, C#-flavoured imperative
//! language: exactly the fragment the paper's evaluation subjects live in.
//! Programs are sets of first-order functions over `int`, `bool`, nullable
//! `str`, and nullable arrays `[int]` / `[str]`. Runtime checks (null
//! dereference, division by zero, array bounds, negative allocation size and
//! explicit `assert`) define the *assertion-containing locations* the paper
//! infers preconditions for.

use crate::span::{NodeId, Span};
use std::collections::HashMap;
use std::fmt;

/// A MiniLang type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Nullable immutable string (characters are observed as `int` codes).
    Str,
    /// Nullable array of `int`.
    ArrayInt,
    /// Nullable array of (nullable) `str`.
    ArrayStr,
    /// The absent return type of a procedure.
    Void,
}

impl Ty {
    /// Whether values of this type may be `null`.
    pub fn is_nullable(self) -> bool {
        matches!(self, Ty::Str | Ty::ArrayInt | Ty::ArrayStr)
    }

    /// Whether this is an array type.
    pub fn is_array(self) -> bool {
        matches!(self, Ty::ArrayInt | Ty::ArrayStr)
    }

    /// Element type of an array type.
    pub fn elem(self) -> Option<Ty> {
        match self {
            Ty::ArrayInt => Some(Ty::Int),
            Ty::ArrayStr => Some(Ty::Str),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Bool => write!(f, "bool"),
            Ty::Str => write!(f, "str"),
            Ty::ArrayInt => write!(f, "[int]"),
            Ty::ArrayStr => write!(f, "[str]"),
            Ty::Void => write!(f, "void"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation (`-e`).
    Neg,
    /// Boolean negation (`!e`).
    Not,
}

/// Binary operators. `And`/`Or` are short-circuiting everywhere, like C#.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// Whether the operator is a comparison producing `bool` from two `int`s.
    pub fn is_int_cmp(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Whether the operator is `+ - * / %`.
    pub fn is_arith(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)
    }

    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Built-in functions. Resolved from call syntax by the type checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `len(a)` — length of an array. Implicit null check on `a`.
    Len,
    /// `strlen(s)` — length of a string. Implicit null check on `s`.
    StrLen,
    /// `char_at(s, i)` — character code at index `i`. Implicit null + bounds checks.
    CharAt,
    /// `is_space(c)` — whether character code `c` is whitespace.
    IsSpace,
    /// `new_int_array(n)` — fresh zero-filled `[int]`. Implicit `n >= 0` check.
    NewIntArray,
    /// `new_str_array(n)` — fresh null-filled `[str]`. Implicit `n >= 0` check.
    NewStrArray,
    /// `abs(x)` — absolute value.
    Abs,
}

impl Builtin {
    /// Resolves a call-site name to a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "len" => Builtin::Len,
            "strlen" => Builtin::StrLen,
            "char_at" => Builtin::CharAt,
            "is_space" => Builtin::IsSpace,
            "new_int_array" => Builtin::NewIntArray,
            "new_str_array" => Builtin::NewStrArray,
            "abs" => Builtin::Abs,
            _ => return None,
        })
    }

    /// Surface name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Len => "len",
            Builtin::StrLen => "strlen",
            Builtin::CharAt => "char_at",
            Builtin::IsSpace => "is_space",
            Builtin::NewIntArray => "new_int_array",
            Builtin::NewStrArray => "new_str_array",
            Builtin::Abs => "abs",
        }
    }
}

/// An expression with identity and position.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub id: NodeId,
    pub span: Span,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    BoolLit(bool),
    StrLit(String),
    Null,
    Var(String),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `a[i]` — implicit null + bounds checks at this node.
    Index(Box<Expr>, Box<Expr>),
    /// Call of a user function (checked non-builtin name).
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// Call of a [`Builtin`], resolved at parse time.
    BuiltinCall {
        builtin: Builtin,
        args: Vec<Expr>,
    },
}

/// Assignment left-hand sides.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignTarget {
    /// `x = e;`
    Var(String),
    /// `a[i] = e;` — implicit null + bounds checks.
    Index { array: Expr, index: Expr },
}

/// A statement with identity and position.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub id: NodeId,
    pub span: Span,
}

/// Statement forms. `for` loops are desugared by the parser into
/// `{ init; while (cond) { body; step; } }` (with `continue` jumping to the
/// step, handled by the desugaring's loop structure).
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    Let {
        name: String,
        ty: Option<Ty>,
        init: Expr,
    },
    Assign {
        target: AssignTarget,
        value: Expr,
    },
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    While {
        cond: Expr,
        body: Block,
    },
    Assert {
        cond: Expr,
    },
    Return {
        value: Option<Expr>,
    },
    Break,
    Continue,
    Expr {
        expr: Expr,
    },
    /// A bare block, introduced by `for`-desugaring to scope the loop
    /// variable. Executing it has no control-flow effect of its own.
    BlockStmt {
        block: Block,
    },
}

/// A `{ ... }` sequence of statements; the unit of basic-block coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub id: NodeId,
    pub span: Span,
}

/// A function parameter. Parameters of the method under test are the
/// *method inputs* over which path conditions and preconditions range.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub ty: Ty,
    pub id: NodeId,
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    pub name: String,
    pub params: Vec<Param>,
    pub ret: Ty,
    pub body: Block,
    pub id: NodeId,
    pub span: Span,
}

/// A parsed program: an ordered set of functions plus the node-id budget
/// (used to size side tables in later passes).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub funcs: Vec<Func>,
    index: HashMap<String, usize>,
    node_count: u32,
}

impl Program {
    /// Builds a program from functions, indexing them by name.
    ///
    /// # Panics
    ///
    /// Panics if two functions share a name (the parser rejects this first).
    pub fn new(funcs: Vec<Func>, node_count: u32) -> Self {
        let mut index = HashMap::new();
        for (i, f) in funcs.iter().enumerate() {
            let prev = index.insert(f.name.clone(), i);
            assert!(prev.is_none(), "duplicate function name {}", f.name);
        }
        Program { funcs, index, node_count }
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.index.get(name).map(|&i| &self.funcs[i])
    }

    /// The function a run targets: the one named, else the first. `Err`
    /// says why there is none, calling the program `within` (the daemon
    /// says "program", the CLI names its source file).
    pub fn entry(&self, name: Option<&str>, within: &str) -> Result<&Func, String> {
        match name {
            Some(name) => {
                self.func(name).ok_or_else(|| format!("no function `{name}` in {within}"))
            }
            None => self.funcs.first().ok_or_else(|| format!("{within} has no functions")),
        }
    }

    /// Number of AST node ids allocated while parsing this program.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_properties() {
        assert!(Ty::Str.is_nullable());
        assert!(Ty::ArrayInt.is_nullable());
        assert!(!Ty::Int.is_nullable());
        assert_eq!(Ty::ArrayStr.elem(), Some(Ty::Str));
        assert_eq!(Ty::Int.elem(), None);
        assert!(Ty::ArrayInt.is_array());
        assert!(!Ty::Bool.is_array());
    }

    #[test]
    fn builtin_round_trip() {
        for b in [
            Builtin::Len,
            Builtin::StrLen,
            Builtin::CharAt,
            Builtin::IsSpace,
            Builtin::NewIntArray,
            Builtin::NewStrArray,
            Builtin::Abs,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("foo"), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_int_cmp());
        assert!(!BinOp::Eq.is_int_cmp());
        assert!(BinOp::Div.is_arith());
        assert!(!BinOp::And.is_arith());
        assert_eq!(BinOp::Ne.symbol(), "!=");
    }
}
