//! Whole-formula rewrites for interprocedural summaries, and the
//! α-renaming the solver's cache keys share. Both are [`Rewrite`] hook
//! sets over the one structure-preserving traversal, so a rewritten
//! formula displays exactly like the original modulo names:
//!
//! * [`rename_formula`] — α-renaming of parameter names, used when a
//!   callee's inferred ψ (over its own parameter names) is stored in the
//!   summary table keyed by the canonical `%i` positional form.
//! * [`apply_actuals`] — substitution of call-site actuals into a stored
//!   `%i`-form ψ: integer parameters become the actual's symbolic term,
//!   reference parameters become the actual's origin place, boolean
//!   parameters become the actual's origin name (or a constant when the
//!   actual has no symbolic origin).

use crate::formula::Formula;
use crate::pred::Pred;
use crate::rewrite::Rewrite;
use crate::term::{Place, Term};

/// α-renaming by `(from, to)` pairs: integer variables, reference place
/// roots and boolean variables named `from` become `to`.
pub struct Renamer<'m>(pub &'m [(String, String)]);

impl Renamer<'_> {
    fn to(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(from, _)| from == name).map(|(_, to)| to.as_str())
    }
}

impl Rewrite for Renamer<'_> {
    fn int_var(&mut self, name: &str) -> Option<Term> {
        self.to(name).map(Term::var)
    }

    fn param_place(&mut self, name: &str) -> Option<Place> {
        self.to(name).map(Place::param)
    }

    fn bool_var(&mut self, name: &str, positive: bool) -> Option<Pred> {
        self.to(name).map(|to| Pred::BoolVar { name: to.to_string(), positive })
    }
}

/// Renames parameter names throughout a formula: integer variables,
/// reference place roots, and boolean variables whose name appears in
/// `map` are rewritten to the mapped name. Quantifier-bound variables
/// shadow map entries of the same name.
pub fn rename_formula(f: &Formula, map: &[(String, String)]) -> Formula {
    Renamer(map).rewrite_formula(f)
}

/// What a callee parameter is bound to at a call site, for
/// [`apply_actuals`]. Bindings are positional: index `i` binds parameter
/// `%i` of the stored canonical formula.
#[derive(Debug, Clone)]
pub enum ActualBinding {
    /// An integer actual: its symbolic term.
    Int(Term),
    /// A reference actual (string or array): its symbolic origin place.
    Ref(Place),
    /// A boolean actual: its symbolic origin name, if it is a direct
    /// parameter reference, plus its concrete value for the originless case.
    Bool { origin: Option<String>, value: bool },
}

/// Substitutes positional actuals into a canonical (`%i`-named) formula.
///
/// Integer parameters are replaced term-for-term; reference parameters are
/// replaced at the place level (so `len(%0)` becomes `len(a)` and
/// `%0[k] == null` becomes `a[k] == null`); boolean parameters become the
/// origin variable, or a constant truth when the actual carries no origin.
pub fn apply_actuals(f: &Formula, actuals: &[ActualBinding]) -> Formula {
    Actuals(actuals).rewrite_formula(f)
}

/// The [`apply_actuals`] hook set: `%i` resolves to binding `i`.
struct Actuals<'a>(&'a [ActualBinding]);

impl Actuals<'_> {
    fn binding(&self, name: &str) -> Option<&ActualBinding> {
        name.strip_prefix('%').and_then(|d| d.parse().ok()).and_then(|i: usize| self.0.get(i))
    }
}

impl Rewrite for Actuals<'_> {
    fn int_var(&mut self, name: &str) -> Option<Term> {
        match self.binding(name) {
            Some(ActualBinding::Int(term)) => Some(*term),
            _ => None,
        }
    }

    fn param_place(&mut self, name: &str) -> Option<Place> {
        match self.binding(name) {
            Some(ActualBinding::Ref(origin)) => Some(*origin),
            _ => None,
        }
    }

    fn bool_var(&mut self, name: &str, positive: bool) -> Option<Pred> {
        match self.binding(name)? {
            ActualBinding::Bool { origin: Some(orig), .. } => {
                Some(Pred::BoolVar { name: orig.clone(), positive })
            }
            ActualBinding::Bool { origin: None, value } => Some(Pred::Const(*value == positive)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;

    #[test]
    fn rename_reaches_vars_places_and_bools() {
        let map = vec![("x".to_string(), "%0".to_string()), ("s".to_string(), "%1".to_string())];
        let f = Formula::and([
            Formula::pred(Pred::cmp(CmpOp::Gt, Term::var("x"), Term::int(0))),
            Formula::pred(Pred::not_null(Place::param("s"))),
            Formula::pred(Pred::cmp(CmpOp::Lt, Term::var("x"), Term::len(Place::param("s")))),
            Formula::pred(Pred::BoolVar { name: "x".into(), positive: false }),
        ]);
        let renamed = rename_formula(&f, &map);
        assert_eq!(renamed.to_string(), "%0 > 0 && %1 != null && %0 < len(%1) && !%0");
    }

    #[test]
    fn rename_respects_quantifier_shadowing() {
        let map = vec![("i".to_string(), "%0".to_string())];
        let f =
            Formula::exists("i", Formula::pred(Pred::cmp(CmpOp::Lt, Term::var("i"), Term::int(3))));
        assert_eq!(rename_formula(&f, &map), f, "bound i shadows the parameter rename");
    }

    #[test]
    fn apply_substitutes_int_terms() {
        // ψ(%0) = %0 != 0, actual = b + 1
        let f = Formula::pred(Pred::cmp(CmpOp::Ne, Term::var("%0"), Term::int(0)));
        let actual = Term::var("b").add(Term::int(1));
        let g = apply_actuals(&f, &[ActualBinding::Int(actual)]);
        assert_eq!(g.to_string(), "(b + 1) != 0");
    }

    #[test]
    fn apply_substitutes_places_inside_len_and_elems() {
        // ψ(%0, %1) = %0 != null && %1 < len(%0) && %0[%1] == 0
        let p0 = Place::param("%0");
        let f = Formula::and([
            Formula::pred(Pred::not_null(p0)),
            Formula::pred(Pred::cmp(CmpOp::Lt, Term::var("%1"), Term::len(p0))),
            Formula::pred(Pred::cmp(CmpOp::Eq, Term::int_elem(p0, Term::var("%1")), Term::int(0))),
        ]);
        let g = apply_actuals(
            &f,
            &[ActualBinding::Ref(Place::param("data")), ActualBinding::Int(Term::var("k"))],
        );
        assert_eq!(g.to_string(), "data != null && k < len(data) && data[k] == 0");
    }

    #[test]
    fn apply_resolves_bools_by_origin_or_constant() {
        let f = Formula::pred(Pred::BoolVar { name: "%0".into(), positive: true });
        let named =
            apply_actuals(&f, &[ActualBinding::Bool { origin: Some("flag".into()), value: true }]);
        assert_eq!(named.to_string(), "flag");
        let constant = apply_actuals(&f, &[ActualBinding::Bool { origin: None, value: false }]);
        assert_eq!(constant.to_string(), "false");
    }

    #[test]
    fn apply_leaves_nonplaceholder_names_alone() {
        let f = Formula::pred(Pred::cmp(CmpOp::Gt, Term::var("x"), Term::var("%0")));
        let g = apply_actuals(&f, &[ActualBinding::Int(Term::int(7))]);
        assert_eq!(g.to_string(), "x > 7");
    }
}
