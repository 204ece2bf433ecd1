//! Integer-valued symbolic terms over method inputs.
//!
//! Every leaf denotes a component of the *method-entry state*: an `int`
//! parameter, the length of a (string or array) input, an integer array
//! element, or a character of a string input. Indices are themselves terms,
//! so quantified formulas can mention `s[i]`, `s[i + 1]`, etc.; in path
//! conditions produced by the concolic executor indices are always constant.
//!
//! `Term`, `Place` and `SymVar` are hash-consed handles into the global
//! interner (see [`crate::intern`]): `Copy`, pointer-sized, with O(1)
//! equality and hashing by arena id. Pattern-match through
//! [`Term::node`]/[`Place::node`]/[`SymVar::node`], and construct either
//! through the folding builder methods below or through
//! [`TermNode::intern`] (and siblings) for structure-preserving rewrites.

use crate::intern::{intern_handle, Interned, Interner};
use std::fmt;
use std::sync::OnceLock;

fn places() -> &'static Interner<PlaceNode> {
    static ARENA: OnceLock<Interner<PlaceNode>> = OnceLock::new();
    ARENA.get_or_init(Interner::new)
}

fn symvars() -> &'static Interner<SymVarNode> {
    static ARENA: OnceLock<Interner<SymVarNode>> = OnceLock::new();
    ARENA.get_or_init(Interner::new)
}

fn terms() -> &'static Interner<TermNode> {
    static ARENA: OnceLock<Interner<TermNode>> = OnceLock::new();
    ARENA.get_or_init(Interner::new)
}

/// Distinct node counts of the process-wide hash-consing arenas, as
/// `(arena, nodes)` in a fixed order: places, symbolic variables, terms and
/// interned canonical predicates ([`crate::CPred`]). Every node lives for
/// the life of the process, so the counts only grow.
pub fn arena_sizes() -> [(&'static str, usize); 4] {
    [
        ("places", places().len()),
        ("symvars", symvars().len()),
        ("terms", terms().len()),
        ("cpreds", crate::linform::cpred_count()),
    ]
}

/// A nullable input *place*: a string or array parameter, or a string
/// element of a `[str]` parameter. Interned handle; see [`PlaceNode`].
#[derive(Clone, Copy)]
pub struct Place(&'static Interned<PlaceNode>);

/// The structure of a [`Place`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlaceNode {
    /// A reference-typed parameter (`str`, `[int]`, `[str]`).
    Param(String),
    /// The string element `base[index]` of a `[str]` place.
    Elem(Place, Term),
}

intern_handle!(Place, PlaceNode, PlaceId);

impl PlaceNode {
    /// Hash-conses this node into its unique [`Place`] handle.
    pub fn intern(self) -> Place {
        Place(places().intern(self))
    }
}

impl Place {
    /// Convenience constructor for a parameter place.
    pub fn param(name: impl Into<String>) -> Place {
        PlaceNode::Param(name.into()).intern()
    }

    /// Convenience constructor for an element place with a constant index.
    pub fn elem(base: Place, index: i64) -> Place {
        PlaceNode::Elem(base, Term::int(index)).intern()
    }

    /// Convenience constructor for an element place with a term index.
    pub fn elem_at(base: Place, index: Term) -> Place {
        PlaceNode::Elem(base, index).intern()
    }

    /// The root parameter name of this place.
    pub fn root(&self) -> &'static str {
        match self.node() {
            PlaceNode::Param(name) => name,
            PlaceNode::Elem(base, _) => base.root(),
        }
    }

    /// Whether the place mentions the given (bound or input) int variable.
    pub fn mentions_var(&self, name: &str) -> bool {
        match self.node() {
            PlaceNode::Param(_) => false,
            PlaceNode::Elem(base, ix) => base.mentions_var(name) || ix.mentions_var(name),
        }
    }
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            PlaceNode::Param(name) => write!(f, "{name}"),
            PlaceNode::Elem(base, ix) => write!(f, "{base}[{ix}]"),
        }
    }
}

/// A symbolic scalar variable: the atoms of the integer theory.
/// Interned handle; see [`SymVarNode`].
#[derive(Clone, Copy)]
pub struct SymVar(&'static Interned<SymVarNode>);

/// The structure of a [`SymVar`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SymVarNode {
    /// An `int` parameter, or a quantifier-bound integer variable.
    Int(String),
    /// `len(place)` for arrays, `strlen(place)` for strings.
    Len(Place),
    /// `place[index]` where `place` is an `[int]` input.
    IntElem(Place, Term),
    /// `char_at(place, index)` where `place` is a `str` input.
    Char(Place, Term),
}

intern_handle!(SymVar, SymVarNode, SymVarId);

impl SymVarNode {
    /// Hash-conses this node into its unique [`SymVar`] handle.
    pub fn intern(self) -> SymVar {
        SymVar(symvars().intern(self))
    }
}

impl SymVar {
    /// An `int` parameter or bound variable.
    pub fn int(name: impl Into<String>) -> SymVar {
        SymVarNode::Int(name.into()).intern()
    }

    /// Whether the variable (transitively) mentions the named int variable.
    pub fn mentions_var(&self, name: &str) -> bool {
        match self.node() {
            SymVarNode::Int(n) => n == name,
            SymVarNode::Len(p) => p.mentions_var(name),
            SymVarNode::IntElem(p, ix) | SymVarNode::Char(p, ix) => {
                p.mentions_var(name) || ix.mentions_var(name)
            }
        }
    }

    /// The place dereferenced by this variable, if any.
    pub fn place(&self) -> Option<&'static Place> {
        match self.node() {
            SymVarNode::Int(_) => None,
            SymVarNode::Len(p) | SymVarNode::IntElem(p, _) | SymVarNode::Char(p, _) => Some(p),
        }
    }
}

impl fmt::Display for SymVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            SymVarNode::Int(name) => write!(f, "{name}"),
            SymVarNode::Len(p) => write!(f, "len({p})"),
            SymVarNode::IntElem(p, ix) => write!(f, "{p}[{ix}]"),
            SymVarNode::Char(p, ix) => write!(f, "char_at({p}, {ix})"),
        }
    }
}

/// An integer-valued symbolic term. Interned handle; see [`TermNode`].
///
/// `Mul` keeps one side constant and `Div`/`Rem` keep constant divisors: the
/// concolic executor pins (concretizes) the other operand when needed, so
/// terms stay within the linear fragment the solver understands.
#[derive(Clone, Copy)]
pub struct Term(&'static Interned<TermNode>);

/// The structure of a [`Term`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TermNode {
    Const(i64),
    Var(SymVar),
    Add(Term, Term),
    Sub(Term, Term),
    Neg(Term),
    /// `k * t` with constant `k`.
    Mul(i64, Term),
    /// `t / k`, truncated toward zero, with constant `k != 0`.
    Div(Term, i64),
    /// `t % k`, sign of the dividend, with constant `k != 0`.
    Rem(Term, i64),
}

intern_handle!(Term, TermNode, TermId);

impl TermNode {
    /// Hash-conses this node into its unique [`Term`] handle. Unlike the
    /// builder methods below this performs *no* folding — it is the
    /// structure-preserving seam for rewrites (substitution, renaming,
    /// index abstraction).
    pub fn intern(self) -> Term {
        Term(terms().intern(self))
    }
}

#[allow(clippy::should_implement_trait)] // `add`/`sub`/… are deliberate builder names: they
                                         // fold constants and normalize, which operator impls must not silently do.
impl Term {
    /// Constant term.
    pub fn int(v: i64) -> Term {
        TermNode::Const(v).intern()
    }

    /// Integer input (or bound) variable.
    pub fn var(name: impl Into<String>) -> Term {
        TermNode::Var(SymVar::int(name)).intern()
    }

    /// The term reading the given scalar variable.
    pub fn of_var(v: SymVar) -> Term {
        TermNode::Var(v).intern()
    }

    /// `len(place)`.
    pub fn len(place: Place) -> Term {
        TermNode::Var(SymVarNode::Len(place).intern()).intern()
    }

    /// `place[index]` for an `[int]` place.
    pub fn int_elem(place: Place, index: Term) -> Term {
        TermNode::Var(SymVarNode::IntElem(place, index).intern()).intern()
    }

    /// `char_at(place, index)`.
    pub fn char_at(place: Place, index: Term) -> Term {
        TermNode::Var(SymVarNode::Char(place, index).intern()).intern()
    }

    /// `self + rhs` with light constant folding.
    pub fn add(self, rhs: Term) -> Term {
        match (self.node(), rhs.node()) {
            (TermNode::Const(a), TermNode::Const(b)) => Term::int(a.wrapping_add(*b)),
            (_, TermNode::Const(0)) => self,
            (TermNode::Const(0), _) => rhs,
            _ => TermNode::Add(self, rhs).intern(),
        }
    }

    /// `self - rhs` with light constant folding.
    pub fn sub(self, rhs: Term) -> Term {
        match (self.node(), rhs.node()) {
            (TermNode::Const(a), TermNode::Const(b)) => Term::int(a.wrapping_sub(*b)),
            (_, TermNode::Const(0)) => self,
            _ => TermNode::Sub(self, rhs).intern(),
        }
    }

    /// `-self` with light constant folding.
    pub fn neg(self) -> Term {
        match self.node() {
            TermNode::Const(a) => Term::int(a.wrapping_neg()),
            TermNode::Neg(inner) => *inner,
            _ => TermNode::Neg(self).intern(),
        }
    }

    /// `k * self` with light constant folding.
    pub fn mul(self, k: i64) -> Term {
        match (k, self.node()) {
            (_, TermNode::Const(a)) => Term::int(a.wrapping_mul(k)),
            (0, _) => Term::int(0),
            (1, _) => self,
            _ => TermNode::Mul(k, self).intern(),
        }
    }

    /// `self / k` (truncating). `k` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; the concolic executor only builds divisions after
    /// the divide-by-zero check passed.
    pub fn div(self, k: i64) -> Term {
        assert!(k != 0, "symbolic division by zero");
        match self.node() {
            TermNode::Const(a) => Term::int(a.wrapping_div(k)),
            _ => TermNode::Div(self, k).intern(),
        }
    }

    /// `self % k`. `k` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn rem(self, k: i64) -> Term {
        assert!(k != 0, "symbolic remainder by zero");
        match self.node() {
            TermNode::Const(a) => Term::int(a.wrapping_rem(k)),
            _ => TermNode::Rem(self, k).intern(),
        }
    }

    /// Whether the term is a constant.
    pub fn as_const(&self) -> Option<i64> {
        match self.node() {
            TermNode::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether the term mentions the named int variable (free occurrence).
    pub fn mentions_var(&self, name: &str) -> bool {
        match self.node() {
            TermNode::Const(_) => false,
            TermNode::Var(v) => v.mentions_var(name),
            TermNode::Add(a, b) | TermNode::Sub(a, b) => {
                a.mentions_var(name) || b.mentions_var(name)
            }
            TermNode::Neg(a) | TermNode::Mul(_, a) | TermNode::Div(a, _) | TermNode::Rem(a, _) => {
                a.mentions_var(name)
            }
        }
    }

    /// Substitutes every occurrence of int variable `name` by `replacement`.
    pub fn subst_var(&self, name: &str, replacement: &Term) -> Term {
        match self.node() {
            TermNode::Const(_) => *self,
            TermNode::Var(v) => match v.node() {
                SymVarNode::Int(n) if n == name => *replacement,
                SymVarNode::Int(_) => *self,
                SymVarNode::Len(p) => {
                    Term::of_var(SymVarNode::Len(subst_place(p, name, replacement)).intern())
                }
                SymVarNode::IntElem(p, ix) => Term::of_var(
                    SymVarNode::IntElem(
                        subst_place(p, name, replacement),
                        ix.subst_var(name, replacement),
                    )
                    .intern(),
                ),
                SymVarNode::Char(p, ix) => Term::of_var(
                    SymVarNode::Char(
                        subst_place(p, name, replacement),
                        ix.subst_var(name, replacement),
                    )
                    .intern(),
                ),
            },
            TermNode::Add(a, b) => {
                a.subst_var(name, replacement).add(b.subst_var(name, replacement))
            }
            TermNode::Sub(a, b) => {
                a.subst_var(name, replacement).sub(b.subst_var(name, replacement))
            }
            TermNode::Neg(a) => a.subst_var(name, replacement).neg(),
            TermNode::Mul(k, a) => a.subst_var(name, replacement).mul(*k),
            TermNode::Div(a, k) => a.subst_var(name, replacement).div(*k),
            TermNode::Rem(a, k) => a.subst_var(name, replacement).rem(*k),
        }
    }

    /// Collects all scalar variables occurring in the term, in first
    /// occurrence order, skipping variables already present in `out`.
    /// Dedup is by interned id (one hash-set probe per node), so wide
    /// conjunctions collect in one linear pass.
    pub fn collect_vars(&self, out: &mut Vec<SymVar>) {
        let mut seen: std::collections::HashSet<SymVarId> = out.iter().map(|v| v.id()).collect();
        self.collect_vars_seen(out, &mut seen);
    }

    pub(crate) fn collect_vars_seen(
        &self,
        out: &mut Vec<SymVar>,
        seen: &mut std::collections::HashSet<SymVarId>,
    ) {
        match self.node() {
            TermNode::Const(_) => {}
            TermNode::Var(v) => {
                if seen.insert(v.id()) {
                    out.push(*v);
                }
                collect_place_vars(v, out, seen);
            }
            TermNode::Add(a, b) | TermNode::Sub(a, b) => {
                a.collect_vars_seen(out, seen);
                b.collect_vars_seen(out, seen);
            }
            TermNode::Neg(a) | TermNode::Mul(_, a) | TermNode::Div(a, _) | TermNode::Rem(a, _) => {
                a.collect_vars_seen(out, seen)
            }
        }
    }
}

fn subst_place(p: &Place, name: &str, replacement: &Term) -> Place {
    match p.node() {
        PlaceNode::Param(_) => *p,
        PlaceNode::Elem(base, ix) => {
            PlaceNode::Elem(subst_place(base, name, replacement), ix.subst_var(name, replacement))
                .intern()
        }
    }
}

fn collect_place_vars(
    v: &SymVar,
    out: &mut Vec<SymVar>,
    seen: &mut std::collections::HashSet<SymVarId>,
) {
    match v.node() {
        SymVarNode::Int(_) => {}
        SymVarNode::Len(p) => collect_in_place(p, out, seen),
        SymVarNode::IntElem(p, ix) | SymVarNode::Char(p, ix) => {
            collect_in_place(p, out, seen);
            ix.collect_vars_seen(out, seen);
        }
    }
}

fn collect_in_place(
    p: &Place,
    out: &mut Vec<SymVar>,
    seen: &mut std::collections::HashSet<SymVarId>,
) {
    if let PlaceNode::Elem(base, ix) = p.node() {
        collect_in_place(base, out, seen);
        ix.collect_vars_seen(out, seen);
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            TermNode::Const(v) => write!(f, "{v}"),
            TermNode::Var(v) => write!(f, "{v}"),
            TermNode::Add(a, b) => write!(f, "({a} + {b})"),
            TermNode::Sub(a, b) => write!(f, "({a} - {b})"),
            TermNode::Neg(a) => write!(f, "-({a})"),
            TermNode::Mul(k, a) => write!(f, "({k} * {a})"),
            TermNode::Div(a, k) => write!(f, "({a} / {k})"),
            TermNode::Rem(a, k) => write!(f, "({a} % {k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fold_constants() {
        assert_eq!(Term::int(2).add(Term::int(3)), Term::int(5));
        assert_eq!(Term::var("x").add(Term::int(0)), Term::var("x"));
        assert_eq!(Term::var("x").mul(1), Term::var("x"));
        assert_eq!(Term::var("x").mul(0), Term::int(0));
        assert_eq!(Term::int(7).div(2), Term::int(3));
        assert_eq!(Term::int(-7).rem(2), Term::int(-1));
        assert_eq!(Term::var("x").neg().neg(), Term::var("x"));
    }

    #[test]
    #[should_panic(expected = "symbolic division by zero")]
    fn div_by_zero_panics() {
        let _ = Term::var("x").div(0);
    }

    #[test]
    fn substitution_reaches_indices_and_places() {
        // s[i] with s : [str]; substitute i := 2
        let place = Place::elem_at(Place::param("s"), Term::var("i"));
        let t = Term::len(place);
        let t2 = t.subst_var("i", &Term::int(2));
        assert_eq!(t2.to_string(), "len(s[2])");
        assert!(!t2.mentions_var("i"));
        assert!(t.mentions_var("i"));
    }

    #[test]
    fn mentions_var_on_scalars() {
        let t = Term::var("a").add(Term::var("b").mul(3));
        assert!(t.mentions_var("a"));
        assert!(t.mentions_var("b"));
        assert!(!t.mentions_var("c"));
    }

    #[test]
    fn collect_vars_dedups() {
        let t = Term::var("x").add(Term::var("x")).add(Term::len(Place::param("a")));
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn display_is_readable() {
        let t = Term::int_elem(Place::param("a"), Term::int(3)).add(Term::int(1));
        assert_eq!(t.to_string(), "(a[3] + 1)");
    }

    #[test]
    fn place_root_traverses_elements() {
        let p = Place::elem(Place::param("s"), 4);
        assert_eq!(p.root(), "s");
    }

    #[test]
    fn interned_handles_are_identical_for_equal_structure() {
        let a = Term::var("x").add(Term::int(1));
        let b = Term::var("x").add(Term::int(1));
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.node(), b.node()));
        let c = Term::var("x").add(Term::int(2));
        assert_ne!(a.id(), c.id());
        assert_ne!(a, c);
    }

    #[test]
    fn handle_ord_is_structural_not_id_order() {
        // Intern the larger term first so id order and structural order
        // disagree; Ord must follow structure (Const < Var).
        let v = Term::var("zzz_ord_probe");
        let c = Term::int(999_999_101);
        assert!(c < v, "Const must order before Var regardless of intern order");
        assert_eq!(v.cmp(&v), std::cmp::Ordering::Equal);
    }

    #[test]
    fn collect_vars_wide_conjunction_is_linear() {
        // 1k distinct variables: quadratic `contains` dedup would make this
        // test visibly slow; the id-set pass keeps it trivially fast.
        let mut t = Term::int(0);
        for k in 0..1000 {
            t = t.add(Term::var(format!("v{k}")));
        }
        // Repeat every variable once more so dedup actually fires 1000 times.
        for k in 0..1000 {
            t = t.add(Term::var(format!("v{k}")));
        }
        let start = std::time::Instant::now();
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars.len(), 1000);
        // First-occurrence order is preserved.
        assert_eq!(vars[0].to_string(), "v0");
        assert_eq!(vars[999].to_string(), "v999");
        assert!(
            start.elapsed() < std::time::Duration::from_millis(200),
            "collect_vars took {:?} on a 2k-node term — dedup is not linear",
            start.elapsed()
        );
    }
}
