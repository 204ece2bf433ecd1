//! Property-based tests for the symbolic layer: negation involutions,
//! canonicalization soundness (evaluation-preserving), formula algebra, and
//! path-prefix comparison.

use minilang::{InputValue, MethodEntryState, NodeId, Span};
use proptest::prelude::*;
use symbolic::eval::{eval_pred, Env};
use symbolic::{
    canon_pred, CmpOp, EntryKind, Formula, PathCondition, PathEntry, PathOutcome, Place, Pred, Term,
};

/// Strategy: small integer terms over variables x, y and the length/element
/// space of one array `a`.
fn term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(Term::int),
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::len(Place::param("a"))),
        (0i64..3).prop_map(|k| Term::int_elem(Place::param("a"), Term::int(k))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), -4i64..=4).prop_map(|(a, k)| a.mul(k)),
            (inner.clone(), prop_oneof![Just(-3i64), Just(-2), Just(2), Just(3), Just(5)])
                .prop_map(|(a, k)| a.div(k)),
            (inner.clone(), prop_oneof![Just(2i64), Just(3), Just(7)]).prop_map(|(a, k)| a.rem(k)),
            inner.prop_map(|a| a.neg()),
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
        (term_strategy(), proptest::bool::ANY)
            .prop_map(|(t, p)| Pred::IsSpace { arg: t, positive: p }),
    ]
}

fn state_strategy() -> impl Strategy<Value = MethodEntryState> {
    (-10i64..=10, -10i64..=10, proptest::option::of(proptest::collection::vec(-5i64..=5, 3..=5)))
        .prop_map(|(x, y, a)| {
            MethodEntryState::from_pairs([
                ("x".to_string(), InputValue::Int(x)),
                ("y".to_string(), InputValue::Int(y)),
                ("a".to_string(), InputValue::ArrayInt(a)),
            ])
        })
}

proptest! {
    /// Negation is a semantic complement wherever evaluation is defined.
    #[test]
    fn negation_complements_evaluation(p in pred_strategy(), st in state_strategy()) {
        let env = Env::new(&st);
        if let (Ok(v), Ok(nv)) = (eval_pred(&p, &env), eval_pred(&p.negated(), &env)) {
            prop_assert_eq!(v, !nv);
        }
    }

    /// Double negation is the identity, structurally.
    #[test]
    fn negation_is_involutive(p in pred_strategy()) {
        prop_assert_eq!(p.negated().negated(), p);
    }

    /// Canonicalization respects semantics: two predicates with equal
    /// canonical forms evaluate identically on every state.
    #[test]
    fn canonical_equality_implies_semantic_equality(
        p in pred_strategy(),
        q in pred_strategy(),
        st in state_strategy(),
    ) {
        if canon_pred(&p) == canon_pred(&q) {
            let env = Env::new(&st);
            let (vp, vq) = (eval_pred(&p, &env), eval_pred(&q, &env));
            // Errors can only arise from array dereferences; equal canonical
            // forms dereference the same places.
            prop_assert_eq!(vp.ok(), vq.ok());
        }
    }

    /// Canonicalization commutes with negation.
    #[test]
    fn canon_commutes_with_negation(p in pred_strategy()) {
        prop_assert_eq!(canon_pred(&p.negated()), canon_pred(&p).negated());
    }

    /// Formula negation flips evaluation and preserves the complexity
    /// metric's scale (atomic negations are free; De Morgan preserves
    /// connective counts).
    #[test]
    fn formula_negation_flips(parts in proptest::collection::vec(pred_strategy(), 1..4), st in state_strategy()) {
        let f = Formula::and(parts.into_iter().map(Formula::pred));
        let n = f.negated();
        let env_state = st;
        if let (Ok(v), Ok(nv)) = (
            symbolic::eval_on_state(&f, &env_state),
            symbolic::eval_on_state(&n, &env_state),
        ) {
            prop_assert_eq!(v, !nv);
        }
        prop_assert_eq!(n.negated().complexity(), f.complexity());
    }

    /// The spec DSL round-trips through Display for quantifier-free
    /// formulas: parse(print(f)) is semantically equal to f on all probes.
    #[test]
    fn display_reparse_semantic_roundtrip(
        parts in proptest::collection::vec(pred_strategy(), 1..3),
        st in state_strategy(),
    ) {
        use minilang::Ty;
        use std::collections::HashMap;
        let f = Formula::or(parts.into_iter().map(Formula::pred));
        let printed = f.to_string();
        let sig: HashMap<String, Ty> = [
            ("x".to_string(), Ty::Int),
            ("y".to_string(), Ty::Int),
            ("a".to_string(), Ty::ArrayInt),
        ]
        .into();
        // The DSL accepts everything the printer emits for this fragment.
        let reparsed = symbolic::parse_spec_with_sig(&printed, &sig)
            .unwrap_or_else(|e| panic!("unparseable {printed:?}: {e}"));
        let v1 = symbolic::eval_on_state(&f, &st).ok();
        let v2 = symbolic::eval_on_state(&reparsed, &st).ok();
        prop_assert_eq!(v1, v2, "{}", printed);
    }
}

/// One path-condition atom in one of several spellings that differ in
/// syntax but share a canonical form. `family` picks the constraint:
/// `x < k`, `a - b > 0`, `x == k` or `a == null`; `positive` picks it or
/// its negation; `spelling` picks the syntax.
fn spell(family: u8, k: i64, positive: bool, spelling: u8) -> Pred {
    use CmpOp::*;
    let (x, a, b) = (Term::var("x"), Term::var("a"), Term::var("b"));
    let (c, c1, zero) = (Term::int(k), Term::int(k - 1), Term::int(0));
    let cmp = Pred::cmp;
    match (family, positive, spelling % 4) {
        // x < k  ⇔  x <= k - 1  ⇔  k > x  ⇔  k - 1 >= x
        (0, true, 0) => cmp(Lt, x, c),
        (0, true, 1) => cmp(Le, x, c1),
        (0, true, 2) => cmp(Gt, c, x),
        (0, true, _) => cmp(Ge, c1, x),
        // x >= k  ⇔  x > k - 1  ⇔  k <= x  ⇔  k - 1 < x
        (0, false, 0) => cmp(Lt, x, c).negated(),
        (0, false, 1) => cmp(Gt, x, c1),
        (0, false, 2) => cmp(Le, c, x),
        (0, false, _) => cmp(Lt, c1, x),
        // a - b > 0  ⇔  b < a  ⇔  a > b  ⇔  b - a < 0
        (1, true, 0) => cmp(Gt, a.sub(b), zero),
        (1, true, 1) => cmp(Lt, b, a),
        (1, true, 2) => cmp(Gt, a, b),
        (1, true, _) => cmp(Lt, b.sub(a), zero),
        (1, false, 0) => cmp(Gt, a.sub(b), zero).negated(),
        (1, false, 1) => cmp(Ge, b, a),
        (1, false, 2) => cmp(Le, a, b),
        (1, false, _) => cmp(Ge, b.sub(a), zero),
        // x == k  ⇔  k == x  ⇔  x - k == 0
        (2, true, 0) => cmp(Eq, x, c),
        (2, true, 1) => cmp(Eq, c, x),
        (2, true, _) => cmp(Eq, x.sub(c), zero),
        (2, false, 0) => cmp(Eq, x, c).negated(),
        (2, false, 1) => cmp(Ne, c, x),
        (2, false, _) => cmp(Ne, x.sub(c), zero),
        _ => Pred::Null { place: Place::param("s"), positive },
    }
}

/// A path entry: `(site, family, k, positive, spelling)`.
type Atom = (u32, u8, i64, bool, u8);

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (0u32..3, 0u8..4, 0i64..3, proptest::bool::ANY, 0u8..4)
}

/// How the second path's entry relates to the first path's at the same
/// position: the same constraint respelled (most often, so long shared
/// prefixes occur), its negation respelled, or an unrelated atom.
fn edit_strategy() -> impl Strategy<Value = (u8, u8, Atom)> {
    (0u8..8, 0u8..4, atom_strategy())
}

fn path_of(atoms: &[Atom]) -> PathCondition {
    let entries = atoms
        .iter()
        .map(|&(site, family, k, positive, spelling)| PathEntry {
            pred: spell(family, k, positive, spelling),
            kind: EntryKind::ExplicitBranch,
            site: NodeId(site),
            span: Span::new(site, 1),
        })
        .collect();
    PathCondition { entries, outcome: PathOutcome::Completed }
}

/// `PathCondition::shares_prefix` by canonical forms alone.
fn canonical_shares_prefix(p: &PathCondition, q: &PathCondition, j: usize) -> bool {
    p.len() >= j
        && q.len() >= j
        && p.entries[..j]
            .iter()
            .zip(&q.entries[..j])
            .all(|(a, b)| a.site == b.site && canon_pred(&a.pred) == canon_pred(&b.pred))
}

/// `PathCondition::deviates_at` by canonical forms alone.
fn canonical_deviates_at(p: &PathCondition, q: &PathCondition, j: usize) -> bool {
    let (Some(a), Some(b)) = (p.entries.get(j), q.entries.get(j)) else {
        return false;
    };
    canonical_shares_prefix(p, q, j)
        && a.site == b.site
        && canon_pred(&a.pred.negated()) == canon_pred(&b.pred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The syntax-first prefix comparison answers exactly what comparing
    /// canonical forms answers, at every position, on paths whose entries
    /// are respelled, negated and respelled, or replaced.
    #[test]
    fn prefix_comparison_matches_canonical_reference(
        base in proptest::collection::vec(atom_strategy(), 0..6),
        edits in proptest::collection::vec(edit_strategy(), 6),
        extra in proptest::collection::vec(atom_strategy(), 0..2),
    ) {
        let other: Vec<Atom> = base
            .iter()
            .zip(&edits)
            .map(|(&(site, family, k, positive, _), &(how, spelling, fresh))| match how {
                0..=4 => (site, family, k, positive, spelling),
                5 | 6 => (site, family, k, !positive, spelling),
                _ => fresh,
            })
            .chain(extra)
            .collect();
        let (p, q) = (path_of(&base), path_of(&other));
        for j in 0..=base.len().max(other.len()) + 1 {
            for (l, r) in [(&p, &q), (&q, &p)] {
                let shares = canonical_shares_prefix(l, r, j);
                prop_assert_eq!(l.shares_prefix(r, j), shares, "j={} {} | {}", j, l, r);
                let deviates = canonical_deviates_at(l, r, j);
                prop_assert_eq!(l.deviates_at(r, j), deviates, "j={} {} | {}", j, l, r);
            }
        }
    }
}
