//! The one structure-preserving rewrite of predicates and formulas.
//!
//! Every rewrite the pipeline makes by name or by element index is a
//! [`Rewrite`] hook set over the traversal below: the solver's α-renaming
//! of a query into its cache key, the renaming of a callee's ψ into its
//! summary and its instantiation at a call site ([`crate::rename`]), and
//! the index abstraction of Algorithm 1's d-impact check and the §IV-B
//! templates. The traversal rebuilds every node through the raw
//! `.intern()` constructors, never through the folding builders, so a
//! rewritten predicate keeps its shape and rendering modulo the rewritten
//! leaves, and a rewrite that changes nothing returns the same interned
//! handles.
//!
//! `subst_var` on [`Term`], [`Place`] and [`Pred`] stays apart on
//! purpose: it rebuilds through the folding builders (instantiating
//! `i := 2` folds `i + 1` to `3`), which no hook set here may do.

use crate::formula::Formula;
use crate::pred::Pred;
use crate::term::{Place, PlaceNode, SymVar, SymVarNode, Term, TermNode};

/// A hook set over the structure-preserving traversal. Each hook sees the
/// original node and returns `None` to leave it alone. The int-variable,
/// place-root and boolean-variable hooks are never called for a name
/// bound by an enclosing quantifier.
pub trait Rewrite: Sized {
    /// A replacement for the int variable `name`.
    fn int_var(&mut self, _name: &str) -> Option<Term> {
        None
    }

    /// A replacement for the parameter place `name`, the root of a place.
    fn param_place(&mut self, _name: &str) -> Option<Place> {
        None
    }

    /// A replacement for the boolean variable `name` of polarity `positive`.
    fn bool_var(&mut self, _name: &str, _positive: bool) -> Option<Pred> {
        None
    }

    /// A replacement for the index `ix` of an element of `base` (an array
    /// element, a string element or a `char_at`). Declining rewrites the
    /// index term itself.
    fn elem_index(&mut self, _base: Place, _ix: Term) -> Option<Term> {
        None
    }

    /// Rewrites a formula.
    fn rewrite_formula(&mut self, f: &Formula) -> Formula {
        Walk { hooks: self, bound: Vec::new() }.formula(f)
    }

    /// Rewrites a predicate.
    fn rewrite_pred(&mut self, p: &Pred) -> Pred {
        Walk { hooks: self, bound: Vec::new() }.pred(p)
    }
}

/// One traversal: the hooks plus the names bound by the quantifiers
/// enclosing the current node.
struct Walk<'h, 'f, H> {
    hooks: &'h mut H,
    bound: Vec<&'f str>,
}

impl<'f, H: Rewrite> Walk<'_, 'f, H> {
    fn free(&self, name: &str) -> bool {
        !self.bound.contains(&name)
    }

    fn formula(&mut self, f: &'f Formula) -> Formula {
        match f {
            Formula::Pred(p) => Formula::Pred(self.pred(p)),
            Formula::Not(inner) => Formula::Not(Box::new(self.formula(inner))),
            Formula::And(parts) => Formula::And(parts.iter().map(|p| self.formula(p)).collect()),
            Formula::Or(parts) => Formula::Or(parts.iter().map(|p| self.formula(p)).collect()),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(self.formula(a)), Box::new(self.formula(b)))
            }
            Formula::Quant { q, var, body } => {
                self.bound.push(var);
                let body = Box::new(self.formula(body));
                self.bound.pop();
                Formula::Quant { q: *q, var: var.clone(), body }
            }
        }
    }

    fn pred(&mut self, p: &Pred) -> Pred {
        match p {
            Pred::Cmp(op, a, b) => Pred::Cmp(*op, self.term(*a), self.term(*b)),
            Pred::Null { place, positive } => {
                Pred::Null { place: self.place(*place), positive: *positive }
            }
            Pred::BoolVar { name, positive } if self.free(name) => {
                self.hooks.bool_var(name, *positive).unwrap_or_else(|| p.clone())
            }
            Pred::IsSpace { arg, positive } => {
                Pred::IsSpace { arg: self.term(*arg), positive: *positive }
            }
            Pred::BoolVar { .. } | Pred::Const(_) => p.clone(),
        }
    }

    fn term(&mut self, t: Term) -> Term {
        match t.node() {
            TermNode::Const(_) => t,
            TermNode::Var(v) => match v.node() {
                SymVarNode::Int(name) if self.free(name) => self.hooks.int_var(name).unwrap_or(t),
                SymVarNode::Int(_) => t,
                _ => TermNode::Var(self.symvar(*v)).intern(),
            },
            TermNode::Add(a, b) => TermNode::Add(self.term(*a), self.term(*b)).intern(),
            TermNode::Sub(a, b) => TermNode::Sub(self.term(*a), self.term(*b)).intern(),
            TermNode::Neg(a) => TermNode::Neg(self.term(*a)).intern(),
            TermNode::Mul(k, a) => TermNode::Mul(*k, self.term(*a)).intern(),
            TermNode::Div(a, k) => TermNode::Div(self.term(*a), *k).intern(),
            TermNode::Rem(a, k) => TermNode::Rem(self.term(*a), *k).intern(),
        }
    }

    fn symvar(&mut self, v: SymVar) -> SymVar {
        match v.node() {
            SymVarNode::Int(_) => v,
            SymVarNode::Len(p) => SymVarNode::Len(self.place(*p)).intern(),
            SymVarNode::IntElem(p, ix) => {
                SymVarNode::IntElem(self.place(*p), self.index(*p, *ix)).intern()
            }
            SymVarNode::Char(p, ix) => {
                SymVarNode::Char(self.place(*p), self.index(*p, *ix)).intern()
            }
        }
    }

    fn place(&mut self, p: Place) -> Place {
        match p.node() {
            PlaceNode::Param(name) if self.free(name) => self.hooks.param_place(name).unwrap_or(p),
            PlaceNode::Param(_) => p,
            PlaceNode::Elem(base, ix) => {
                PlaceNode::Elem(self.place(*base), self.index(*base, *ix)).intern()
            }
        }
    }

    fn index(&mut self, base: Place, ix: Term) -> Term {
        match self.hooks.elem_index(base, ix) {
            Some(replacement) => replacement,
            None => self.term(ix),
        }
    }
}
