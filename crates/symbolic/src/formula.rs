//! First-order formulas: the language of preconditions.
//!
//! Inferred preconditions (`ψ = ¬α`) and ground-truth preconditions are
//! formulas over the method inputs, possibly with quantifiers introduced by
//! collection-element generalization (Section IV-B of the paper).
//!
//! # Quantifier semantics
//!
//! Paper templates write `∃i, (i < s.length ∧ s[i] == null)` with the
//! intended domain being *valid collection indices*. We make that precise:
//! a quantified variable ranges over `0 .. D` where `D` is the maximum
//! length of the non-null array/string inputs the body dereferences (and 0
//! when there are none, making `∃` false and `∀` true). Evaluation under a
//! concrete [`minilang::MethodEntryState`] is therefore total and decidable.

use crate::pred::Pred;
use std::fmt;

/// Quantifier kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    Exists,
    Forall,
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::Exists => write!(f, "exists"),
            Quantifier::Forall => write!(f, "forall"),
        }
    }
}

/// A first-order formula over the method inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    Pred(Pred),
    Not(Box<Formula>),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    Implies(Box<Formula>, Box<Formula>),
    Quant { q: Quantifier, var: String, body: Box<Formula> },
}

impl Formula {
    /// The constant `true`.
    pub fn t() -> Formula {
        Formula::Pred(Pred::Const(true))
    }

    /// The constant `false`.
    pub fn f() -> Formula {
        Formula::Pred(Pred::Const(false))
    }

    /// An atomic formula.
    pub fn pred(p: Pred) -> Formula {
        Formula::Pred(p)
    }

    /// Conjunction with flattening and unit/absorbing-element simplification.
    pub fn and(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::Pred(Pred::Const(true)) => {}
                Formula::Pred(Pred::Const(false)) => return Formula::f(),
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::t(),
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// Disjunction with flattening and unit/absorbing-element simplification.
    pub fn or(parts: impl IntoIterator<Item = Formula>) -> Formula {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Formula::Pred(Pred::Const(false)) => {}
                Formula::Pred(Pred::Const(true)) => return Formula::t(),
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::f(),
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Negation. Atomic predicates are negated in place (no connective is
    /// spent); compound formulas get a `Not` node or use De Morgan one level.
    pub fn negated(&self) -> Formula {
        match self {
            Formula::Pred(p) => Formula::Pred(p.negated()),
            Formula::Not(inner) => (**inner).clone(),
            Formula::And(parts) => Formula::or(parts.iter().map(|p| p.negated())),
            Formula::Or(parts) => Formula::and(parts.iter().map(|p| p.negated())),
            Formula::Implies(a, b) => Formula::and([(**a).clone(), b.negated()]),
            Formula::Quant { q, var, body } => Formula::Quant {
                q: match q {
                    Quantifier::Exists => Quantifier::Forall,
                    Quantifier::Forall => Quantifier::Exists,
                },
                var: var.clone(),
                body: Box::new(body.negated()),
            },
        }
    }

    /// `a ==> b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// `exists var. body`.
    pub fn exists(var: impl Into<String>, body: Formula) -> Formula {
        Formula::Quant { q: Quantifier::Exists, var: var.into(), body: Box::new(body) }
    }

    /// `forall var. body`.
    pub fn forall(var: impl Into<String>, body: Formula) -> Formula {
        Formula::Quant { q: Quantifier::Forall, var: var.into(), body: Box::new(body) }
    }

    /// The paper's complexity metric `|ψ|`: the number of logical
    /// connectives and quantifiers.
    pub fn complexity(&self) -> usize {
        match self {
            Formula::Pred(_) => 0,
            Formula::Not(inner) => 1 + inner.complexity(),
            Formula::And(parts) | Formula::Or(parts) => {
                parts.len().saturating_sub(1) + parts.iter().map(Formula::complexity).sum::<usize>()
            }
            Formula::Implies(a, b) => 1 + a.complexity() + b.complexity(),
            Formula::Quant { body, .. } => 1 + body.complexity(),
        }
    }

    /// Whether the formula contains any quantifier.
    pub fn is_quantified(&self) -> bool {
        match self {
            Formula::Pred(_) => false,
            Formula::Not(inner) => inner.is_quantified(),
            Formula::And(parts) | Formula::Or(parts) => parts.iter().any(Formula::is_quantified),
            Formula::Implies(a, b) => a.is_quantified() || b.is_quantified(),
            Formula::Quant { .. } => true,
        }
    }

    /// Collects the atomic predicates (ignoring polarity context).
    pub fn collect_preds<'a>(&'a self, out: &mut Vec<&'a Pred>) {
        match self {
            Formula::Pred(p) => out.push(p),
            Formula::Not(inner) => inner.collect_preds(out),
            Formula::And(parts) | Formula::Or(parts) => {
                for p in parts {
                    p.collect_preds(out);
                }
            }
            Formula::Implies(a, b) => {
                a.collect_preds(out);
                b.collect_preds(out);
            }
            Formula::Quant { body, .. } => body.collect_preds(out),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(formula: &Formula, parent_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // precedence: quant/implies 1, or 2, and 3, not 4, atom 5
            let prec = match formula {
                Formula::Pred(_) => 5,
                Formula::Not(_) => 4,
                Formula::And(_) => 3,
                Formula::Or(_) => 2,
                Formula::Implies(..) | Formula::Quant { .. } => 1,
            };
            let needs = prec < parent_prec;
            if needs {
                write!(f, "(")?;
            }
            match formula {
                Formula::Pred(p) => write!(f, "{p}")?,
                Formula::Not(inner) => {
                    write!(f, "!")?;
                    go(inner, 5, f)?;
                }
                Formula::And(parts) => {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " && ")?;
                        }
                        go(p, 4, f)?;
                    }
                }
                Formula::Or(parts) => {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " || ")?;
                        }
                        go(p, 3, f)?;
                    }
                }
                Formula::Implies(a, b) => {
                    go(a, 2, f)?;
                    write!(f, " ==> ")?;
                    go(b, 2, f)?;
                }
                Formula::Quant { q, var, body } => {
                    write!(f, "{q} {var}. ")?;
                    go(body, 2, f)?;
                }
            }
            if needs {
                write!(f, ")")?;
            }
            Ok(())
        }
        go(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;
    use crate::term::{Place, Term};

    fn lt(a: &str, k: i64) -> Formula {
        Formula::pred(Pred::cmp(CmpOp::Lt, Term::var(a), Term::int(k)))
    }

    #[test]
    fn and_or_flatten_and_simplify() {
        let a = lt("x", 1);
        let b = lt("y", 2);
        assert_eq!(Formula::and([Formula::t(), a.clone()]), a);
        assert_eq!(Formula::and([Formula::f(), a.clone()]), Formula::f());
        assert_eq!(Formula::or([Formula::t(), a.clone()]), Formula::t());
        let nested = Formula::and([a.clone(), Formula::and([b.clone()])]);
        assert_eq!(nested, Formula::and([a, b]));
    }

    #[test]
    fn complexity_counts_connectives_and_quantifiers() {
        // The motivating example's ground truth at Line 5 (Fig. 1):
        // ((c>0 && d+1>0) || (c<=0 && d>0)) && s != null ==> quantified…
        let c_pos = Formula::and([lt("zero", 1), lt("one", 2)]); // 1 connective
        assert_eq!(c_pos.complexity(), 1);
        let disj = Formula::or([c_pos.clone(), c_pos.clone()]); // 1 + 1 + 1 = 3
        assert_eq!(disj.complexity(), 3);
        let q = Formula::exists("i", lt("i", 3)); // 1 quantifier
        assert_eq!(q.complexity(), 1);
        let whole = Formula::implies(disj, q); // 3 + 1 + 1 = 5
        assert_eq!(whole.complexity(), 5);
    }

    #[test]
    fn atomic_negation_is_free() {
        let p = lt("x", 3);
        assert_eq!(p.negated().complexity(), 0);
        assert_eq!(p.negated(), Formula::pred(Pred::cmp(CmpOp::Ge, Term::var("x"), Term::int(3))));
    }

    #[test]
    fn negation_of_quantifier_dualizes() {
        let q = Formula::exists("i", lt("i", 3));
        let n = q.negated();
        match n {
            Formula::Quant { q: Quantifier::Forall, ref var, ref body } => {
                assert_eq!(var, "i");
                assert!(matches!(**body, Formula::Pred(_)));
            }
            other => panic!("expected forall, got {other}"),
        }
    }

    #[test]
    fn display_with_quantifier() {
        let s = Place::param("s");
        let body = Formula::and([
            Formula::pred(Pred::cmp(CmpOp::Lt, Term::var("i"), Term::len(s))),
            Formula::pred(Pred::is_null(Place::elem_at(s, Term::var("i")))),
        ]);
        let f = Formula::exists("i", body);
        assert_eq!(f.to_string(), "exists i. i < len(s) && s[i] == null");
    }

    #[test]
    fn is_quantified_detection() {
        assert!(!lt("x", 1).is_quantified());
        assert!(Formula::exists("i", lt("i", 2)).is_quantified());
        assert!(Formula::and([lt("x", 1), Formula::forall("i", lt("i", 2))]).is_quantified());
        // `or` absorbs into `true`, erasing the quantifier.
        assert!(!Formula::or([Formula::exists("i", Formula::t()), Formula::t()]).is_quantified());
    }
}
