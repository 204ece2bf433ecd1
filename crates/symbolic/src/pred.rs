//! Atomic predicates over symbolic terms.
//!
//! A path condition (Section III of the paper) is an ordered conjunction of
//! these predicates; each one records what a branch (explicit or implicit)
//! decided about the method inputs.

use crate::term::{Place, Term};
use std::fmt;

/// Comparison operators over integer terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// The operator satisfied exactly when `self` is not.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// The operator with swapped operands (`a op b` ⇔ `b op.flipped() a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    /// Evaluates the comparison on concrete values.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// An atomic predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// `lhs op rhs` over integer terms.
    Cmp(CmpOp, Term, Term),
    /// `place == null` (when `positive`) or `place != null`.
    Null { place: Place, positive: bool },
    /// A boolean parameter, asserted or negated.
    BoolVar { name: String, positive: bool },
    /// `is_space(t)` (when `positive`) or its negation. Interpreted:
    /// `t ∈ {32, 9, 10, 13}` (space, tab, LF, CR).
    IsSpace { arg: Term, positive: bool },
    /// Constant truth.
    Const(bool),
}

/// Character codes recognized by `is_space`.
pub const SPACE_CODES: [i64; 4] = [32, 9, 10, 13];

impl Pred {
    /// `lhs op rhs`.
    pub fn cmp(op: CmpOp, lhs: Term, rhs: Term) -> Pred {
        Pred::Cmp(op, lhs, rhs)
    }

    /// `place == null`.
    pub fn is_null(place: Place) -> Pred {
        Pred::Null { place, positive: true }
    }

    /// `place != null`.
    pub fn not_null(place: Place) -> Pred {
        Pred::Null { place, positive: false }
    }

    /// Logical negation.
    pub fn negated(&self) -> Pred {
        match self {
            Pred::Cmp(op, a, b) => Pred::Cmp(op.negated(), *a, *b),
            Pred::Null { place, positive } => Pred::Null { place: *place, positive: !positive },
            Pred::BoolVar { name, positive } => {
                Pred::BoolVar { name: name.clone(), positive: !positive }
            }
            Pred::IsSpace { arg, positive } => Pred::IsSpace { arg: *arg, positive: !positive },
            Pred::Const(b) => Pred::Const(!b),
        }
    }

    /// Whether the predicate is the trivially true constant.
    pub fn is_trivially_true(&self) -> bool {
        match self {
            Pred::Const(true) => true,
            Pred::Cmp(op, a, b) => match (a.as_const(), b.as_const()) {
                (Some(x), Some(y)) => op.eval(x, y),
                _ => false,
            },
            _ => false,
        }
    }

    /// Whether the predicate is the trivially false constant.
    pub fn is_trivially_false(&self) -> bool {
        self.negated().is_trivially_true()
    }

    /// Substitutes int variable `name` by `replacement` throughout.
    pub fn subst_var(&self, name: &str, replacement: &Term) -> Pred {
        match self {
            Pred::Cmp(op, a, b) => {
                Pred::Cmp(*op, a.subst_var(name, replacement), b.subst_var(name, replacement))
            }
            Pred::Null { place, positive } => {
                Pred::Null { place: place.subst_var(name, replacement), positive: *positive }
            }
            Pred::BoolVar { .. } | Pred::Const(_) => self.clone(),
            Pred::IsSpace { arg, positive } => {
                Pred::IsSpace { arg: arg.subst_var(name, replacement), positive: *positive }
            }
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Pred::Null { place, positive: true } => write!(f, "{place} == null"),
            Pred::Null { place, positive: false } => write!(f, "{place} != null"),
            Pred::BoolVar { name, positive: true } => write!(f, "{name}"),
            Pred::BoolVar { name, positive: false } => write!(f, "!{name}"),
            Pred::IsSpace { arg, positive: true } => write!(f, "is_space({arg})"),
            Pred::IsSpace { arg, positive: false } => write!(f, "!is_space({arg})"),
            Pred::Const(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Place;

    #[test]
    fn negation_is_involutive() {
        let preds = [
            Pred::cmp(CmpOp::Lt, Term::var("a"), Term::int(3)),
            Pred::is_null(Place::param("s")),
            Pred::BoolVar { name: "b".into(), positive: true },
            Pred::IsSpace { arg: Term::var("c"), positive: false },
            Pred::Const(true),
        ];
        for p in preds {
            assert_eq!(p.negated().negated(), p);
        }
    }

    #[test]
    fn cmp_negation_table() {
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.negated(), CmpOp::Ne);
        assert_eq!(CmpOp::Le.flipped(), CmpOp::Ge);
        assert!(CmpOp::Le.eval(2, 2));
        assert!(!CmpOp::Lt.eval(2, 2));
    }

    #[test]
    fn trivial_truth_detection() {
        assert!(Pred::cmp(CmpOp::Lt, Term::int(1), Term::int(2)).is_trivially_true());
        assert!(Pred::cmp(CmpOp::Gt, Term::int(1), Term::int(2)).is_trivially_false());
        assert!(!Pred::cmp(CmpOp::Lt, Term::var("x"), Term::int(2)).is_trivially_true());
    }

    #[test]
    fn display_matches_paper_style() {
        let p = Pred::cmp(CmpOp::Eq, Term::int_elem(Place::param("s"), Term::int(0)), Term::int(0));
        assert_eq!(p.to_string(), "s[0] == 0");
        assert_eq!(Pred::is_null(Place::param("s")).to_string(), "s == null");
        assert_eq!(Pred::not_null(Place::elem(Place::param("s"), 1)).to_string(), "s[1] != null");
    }

    #[test]
    fn substitution_in_null_atoms() {
        let p = Pred::is_null(Place::elem_at(Place::param("s"), Term::var("i")));
        let p2 = p.subst_var("i", &Term::int(3));
        assert_eq!(p2.to_string(), "s[3] == null");
    }
}
