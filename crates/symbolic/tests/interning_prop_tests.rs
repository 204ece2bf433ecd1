//! Property-based tests for the hash-consing term interner.
//!
//! Two claims carry the whole interning refactor:
//!
//! 1. **Identity ⇔ structure.** Handle equality (an id compare) holds
//!    exactly when the underlying nodes are structurally equal, and
//!    re-interning a structurally identical tree returns the *same* handle
//!    (same id, same arena slot) — that is what makes `Eq`/`Hash` O(1)
//!    without changing which terms are "the same".
//! 2. **Observational transparency.** Display, `subst_var`, and
//!    `canon_pred` produce identical results whether they run on an
//!    original handle or on an independently re-interned copy of the same
//!    structure — interning is invisible to every consumer.
//!
//! A third claim rests on them: the structure-preserving [`Rewrite`]
//! traversal never folds, so a rewrite that changes nothing, or a renaming
//! undone by its inverse, returns the original handles. The strategies
//! therefore also build unfolded shapes (`x + 0`, `-(-x)`, `1 * x`) that a
//! folding rebuild would collapse.
//!
//! The rebuilders below deliberately go through the raw `.intern()` node
//! constructors (no folding) so each property exercises the dedup map
//! rather than the builder normalizations.

use proptest::prelude::*;
use symbolic::{
    canon_pred, CmpOp, Place, PlaceNode, Pred, Renamer, Rewrite, SymVar, SymVarNode, Term, TermNode,
};

fn rebuild_place(p: &Place) -> Place {
    match p.node() {
        PlaceNode::Param(n) => PlaceNode::Param(n.clone()).intern(),
        PlaceNode::Elem(b, i) => PlaceNode::Elem(rebuild_place(b), rebuild_term(i)).intern(),
    }
}

fn rebuild_var(v: &SymVar) -> SymVar {
    match v.node() {
        SymVarNode::Int(n) => SymVarNode::Int(n.clone()).intern(),
        SymVarNode::Len(p) => SymVarNode::Len(rebuild_place(p)).intern(),
        SymVarNode::IntElem(p, i) => {
            SymVarNode::IntElem(rebuild_place(p), rebuild_term(i)).intern()
        }
        SymVarNode::Char(p, i) => SymVarNode::Char(rebuild_place(p), rebuild_term(i)).intern(),
    }
}

fn rebuild_term(t: &Term) -> Term {
    match t.node() {
        TermNode::Const(v) => TermNode::Const(*v).intern(),
        TermNode::Var(v) => TermNode::Var(rebuild_var(v)).intern(),
        TermNode::Add(a, b) => TermNode::Add(rebuild_term(a), rebuild_term(b)).intern(),
        TermNode::Sub(a, b) => TermNode::Sub(rebuild_term(a), rebuild_term(b)).intern(),
        TermNode::Neg(a) => TermNode::Neg(rebuild_term(a)).intern(),
        TermNode::Mul(k, a) => TermNode::Mul(*k, rebuild_term(a)).intern(),
        TermNode::Div(a, k) => TermNode::Div(rebuild_term(a), *k).intern(),
        TermNode::Rem(a, k) => TermNode::Rem(rebuild_term(a), *k).intern(),
    }
}

fn rebuild_pred(p: &Pred) -> Pred {
    match p {
        Pred::Cmp(op, a, b) => Pred::Cmp(*op, rebuild_term(a), rebuild_term(b)),
        Pred::Null { place, positive } => {
            Pred::Null { place: rebuild_place(place), positive: *positive }
        }
        Pred::BoolVar { name, positive } => {
            Pred::BoolVar { name: name.clone(), positive: *positive }
        }
        Pred::IsSpace { arg, positive } => {
            Pred::IsSpace { arg: rebuild_term(arg), positive: *positive }
        }
        Pred::Const(b) => Pred::Const(*b),
    }
}

/// Small terms over x, y and one array `a` — same shape space as the
/// symbolic layer's other property tests — built both through the folding
/// builders and through the raw constructors.
fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(Term::int),
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::len(Place::param("a"))),
        (0i64..3).prop_map(|k| Term::int_elem(Place::param("a"), Term::int(k))),
        (0i64..3).prop_map(|k| Term::char_at(Place::param("a"), Term::int(k))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), -4i64..=4).prop_map(|(a, k)| a.mul(k)),
            (inner.clone(), prop_oneof![Just(-3i64), Just(2), Just(5)]).prop_map(|(a, k)| a.div(k)),
            (inner.clone(), prop_oneof![Just(2i64), Just(7)]).prop_map(|(a, k)| a.rem(k)),
            inner.clone().prop_map(|a| a.neg()),
            inner.clone().prop_map(|i| Term::int_elem(Place::param("a"), i)),
            // Unfolded shapes, one per node kind the builders fold.
            inner.clone().prop_map(|a| TermNode::Add(a, Term::int(0)).intern()),
            inner.clone().prop_map(|a| TermNode::Sub(a, Term::int(0)).intern()),
            inner.clone().prop_map(|a| TermNode::Mul(1, a).intern()),
            inner.prop_map(|a| TermNode::Neg(TermNode::Neg(a).intern()).intern()),
            (-20i64..=20).prop_map(|c| TermNode::Div(Term::int(c), 2).intern()),
            (-20i64..=20).prop_map(|c| TermNode::Rem(Term::int(c), 7).intern()),
        ]
    })
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    prop_oneof![
        (cmp, term_strategy(), term_strategy()).prop_map(|(op, a, b)| Pred::cmp(op, a, b)),
        proptest::bool::ANY.prop_map(|p| Pred::Null { place: Place::param("a"), positive: p }),
        (term_strategy(), proptest::bool::ANY).prop_map(|(i, p)| Pred::Null {
            place: Place::elem_at(Place::param("a"), i),
            positive: p
        }),
        (prop_oneof![Just("x"), Just("y")], proptest::bool::ANY)
            .prop_map(|(n, p)| Pred::BoolVar { name: n.to_string(), positive: p }),
        (term_strategy(), proptest::bool::ANY)
            .prop_map(|(t, p)| Pred::IsSpace { arg: t, positive: p }),
    ]
}

/// The hook set whose every hook declines.
struct Identity;

impl Rewrite for Identity {}

/// The strategies' names.
const NAMES: [&str; 3] = ["x", "y", "a"];

/// The `k`-th permutation (of six) of [`NAMES`], as `(from, to)` pairs.
fn permutation(k: usize) -> Vec<(String, String)> {
    const ORDERS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    NAMES
        .iter()
        .zip(ORDERS[k])
        .map(|(from, to)| (from.to_string(), NAMES[to].to_string()))
        .collect()
}

/// The inverse of a renaming.
fn inverse(map: &[(String, String)]) -> Vec<(String, String)> {
    map.iter().map(|(from, to)| (to.clone(), from.clone())).collect()
}

proptest! {
    /// Re-interning a structurally identical tree yields the *same* handle:
    /// equal id, and handle equality agrees with structural node equality.
    #[test]
    fn reinterning_returns_the_same_handle(t in term_strategy()) {
        let r = rebuild_term(&t);
        prop_assert_eq!(t.id(), r.id());
        prop_assert_eq!(t, r);
        prop_assert_eq!(t.node(), r.node());
    }

    /// Handle equality is exactly structural equality — ids never alias two
    /// different structures and never split one structure across two ids.
    #[test]
    fn id_equality_iff_structural_equality(a in term_strategy(), b in term_strategy()) {
        prop_assert_eq!(a == b, a.node() == b.node());
        prop_assert_eq!(a.id() == b.id(), a.node() == b.node());
        // Ord stays structural (not id order): observable output depends
        // on it, and id allocation order is nondeterministic under threads.
        prop_assert_eq!(a.cmp(&b), a.node().cmp(b.node()));
    }

    /// Display is a pure function of structure: an independently interned
    /// copy renders byte-identically.
    #[test]
    fn display_round_trips_through_interning(t in term_strategy()) {
        prop_assert_eq!(t.to_string(), rebuild_term(&t).to_string());
    }

    /// Substitution commutes with re-interning: substituting on a rebuilt
    /// handle returns the identical handle the original substitution does.
    #[test]
    fn subst_var_round_trips_through_interning(
        t in term_strategy(),
        r in term_strategy(),
    ) {
        let s1 = t.subst_var("x", &r);
        let s2 = rebuild_term(&t).subst_var("x", &rebuild_term(&r));
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(s1.id(), s2.id());
    }

    /// Canonicalization sees through interning: a rebuilt predicate
    /// canonicalizes to the same `CanonPred` (and the same interned
    /// `CPred`) as the original.
    #[test]
    fn canon_pred_round_trips_through_interning(p in pred_strategy()) {
        let c1 = canon_pred(&p);
        let c2 = canon_pred(&rebuild_pred(&p));
        prop_assert_eq!(&c1, &c2);
        prop_assert_eq!(c1.intern(), c2.intern());
    }

    /// The identity rewrite rebuilds every node to the same interned
    /// handle, for terms and predicates alike.
    #[test]
    fn identity_rewrite_returns_the_same_handles(t in term_strategy(), p in pred_strategy()) {
        let Pred::Cmp(_, r, _) = Identity.rewrite_pred(&Pred::Cmp(CmpOp::Eq, t, t)) else {
            unreachable!("a comparison rewrites to a comparison")
        };
        prop_assert_eq!(r.id(), t.id());
        prop_assert_eq!(Identity.rewrite_pred(&p), p);
    }

    /// α-renaming by a permutation of the names, then by its inverse,
    /// returns the original handles.
    #[test]
    fn renaming_by_a_permutation_and_back_returns_the_same_handles(
        t in term_strategy(),
        p in pred_strategy(),
        k in 0usize..6,
    ) {
        let there = permutation(k);
        let back = inverse(&there);
        let round_trip = |q: &Pred| Renamer(&back).rewrite_pred(&Renamer(&there).rewrite_pred(q));
        let Pred::Cmp(_, r, _) = round_trip(&Pred::Cmp(CmpOp::Eq, t, t)) else {
            unreachable!("a comparison rewrites to a comparison")
        };
        prop_assert_eq!(r.id(), t.id());
        prop_assert_eq!(round_trip(&p), p);
    }
}
