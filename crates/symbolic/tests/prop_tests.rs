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

/// A test-only reference for [`symbolic::LinExpr`]: the `BTreeMap`
/// representation and arithmetic the flat sorted vector replaced (`add` is
/// clone then `add_term`, `scale` keeps products that wrap to 0), plus the
/// canonicalization and rendering built on it.
mod reference {
    use std::collections::BTreeMap;
    use std::fmt;
    use symbolic::{CmpOp, Monomial, Pred, SymVar, Term, TermNode};

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Mono {
        Var(SymVar),
        Div(Box<Lin>, i64),
        Rem(Box<Lin>, i64),
    }

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
    pub struct Lin {
        pub terms: BTreeMap<Mono, i64>,
        pub constant: i64,
    }

    impl Lin {
        fn constant(v: i64) -> Lin {
            Lin { terms: BTreeMap::new(), constant: v }
        }

        fn mono(m: Mono) -> Lin {
            let mut e = Lin::default();
            e.add_term(m, 1);
            e
        }

        fn add_term(&mut self, m: Mono, coeff: i64) {
            if coeff == 0 {
                return;
            }
            let c = self.terms.entry(m.clone()).or_insert(0);
            *c = c.wrapping_add(coeff);
            if *c == 0 {
                self.terms.remove(&m);
            }
        }

        pub fn add(&self, other: &Lin) -> Lin {
            let mut out = self.clone();
            out.constant = out.constant.wrapping_add(other.constant);
            for (m, &c) in &other.terms {
                out.add_term(m.clone(), c);
            }
            out
        }

        pub fn sub(&self, other: &Lin) -> Lin {
            self.add(&other.scale(-1))
        }

        pub fn scale(&self, k: i64) -> Lin {
            if k == 0 {
                return Lin::default();
            }
            Lin {
                terms: self.terms.iter().map(|(m, c)| (m.clone(), c.wrapping_mul(k))).collect(),
                constant: self.constant.wrapping_mul(k),
            }
        }

        fn coeff_gcd(&self) -> i64 {
            fn gcd(a: u64, b: u64) -> u64 {
                if b == 0 {
                    a
                } else {
                    gcd(b, a % b)
                }
            }
            let g = self.terms.values().fold(0u64, |g, &c| gcd(g, c.unsigned_abs()));
            i64::try_from(g).unwrap_or(1)
        }

        /// The flat expression's shape in reference terms.
        pub fn of(e: &symbolic::LinExpr) -> Lin {
            let mut terms = BTreeMap::new();
            for (m, c) in e.terms() {
                assert!(terms.insert(Mono::of(m), c).is_none(), "duplicate monomial in {e}");
            }
            Lin { terms, constant: e.constant_part() }
        }
    }

    impl Mono {
        pub fn of(m: &Monomial) -> Mono {
            match m {
                Monomial::Var(v) => Mono::Var(*v),
                Monomial::Div(e, k) => Mono::Div(Box::new(Lin::of(e)), *k),
                Monomial::Rem(e, k) => Mono::Rem(Box::new(Lin::of(e)), *k),
            }
        }
    }

    impl fmt::Display for Mono {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Mono::Var(v) => write!(f, "{v}"),
                Mono::Div(e, k) => write!(f, "(({e}) / {k})"),
                Mono::Rem(e, k) => write!(f, "(({e}) % {k})"),
            }
        }
    }

    impl fmt::Display for Lin {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut first = true;
            for (m, &c) in &self.terms {
                if first {
                    match c {
                        1 => write!(f, "{m}")?,
                        -1 => write!(f, "-{m}")?,
                        _ => write!(f, "{c}*{m}")?,
                    }
                    first = false;
                } else if c >= 0 {
                    match c {
                        1 => write!(f, " + {m}")?,
                        _ => write!(f, " + {c}*{m}")?,
                    }
                } else if c == -1 {
                    write!(f, " - {m}")?;
                } else {
                    write!(f, " - {}*{m}", c.wrapping_neg())?;
                }
            }
            if first {
                write!(f, "{}", self.constant)
            } else if self.constant > 0 {
                write!(f, " + {}", self.constant)
            } else if self.constant < 0 {
                write!(f, " - {}", self.constant.wrapping_neg())
            } else {
                Ok(())
            }
        }
    }

    pub fn lin_of_term(t: &Term) -> Lin {
        match t.node() {
            TermNode::Const(v) => Lin::constant(*v),
            TermNode::Var(v) => Lin::mono(Mono::Var(*v)),
            TermNode::Add(a, b) => lin_of_term(a).add(&lin_of_term(b)),
            TermNode::Sub(a, b) => lin_of_term(a).sub(&lin_of_term(b)),
            TermNode::Neg(a) => lin_of_term(a).scale(-1),
            TermNode::Mul(k, a) => lin_of_term(a).scale(*k),
            TermNode::Div(a, k) => {
                let inner = lin_of_term(a);
                if inner.terms.is_empty() {
                    Lin::constant(inner.constant.wrapping_div(*k))
                } else {
                    Lin::mono(Mono::Div(Box::new(inner), *k))
                }
            }
            TermNode::Rem(a, k) => {
                let inner = lin_of_term(a);
                if inner.terms.is_empty() {
                    Lin::constant(inner.constant.wrapping_rem(*k))
                } else {
                    Lin::mono(Mono::Rem(Box::new(inner), *k))
                }
            }
        }
    }

    /// The canonical form of a comparison, rendered. A linear part whose
    /// coefficients all wrapped to 0 is its constant.
    pub fn canon_cmp(op: CmpOp, a: &Term, b: &Term) -> String {
        let (la, lb) = (lin_of_term(a), lin_of_term(b));
        let one = Lin::constant(1);
        match op {
            CmpOp::Lt => canon_le(la.sub(&lb).add(&one)),
            CmpOp::Le => canon_le(la.sub(&lb)),
            CmpOp::Gt => canon_le(lb.sub(&la).add(&one)),
            CmpOp::Ge => canon_le(lb.sub(&la)),
            CmpOp::Eq => canon_eq(la.sub(&lb), true),
            CmpOp::Ne => canon_eq(la.sub(&lb), false),
        }
    }

    fn canon_le(e: Lin) -> String {
        if e.terms.is_empty() {
            return (e.constant <= 0).to_string();
        }
        let g = e.coeff_gcd();
        if g == 0 {
            return (e.constant <= 0).to_string();
        }
        if g == 1 {
            return format!("{e} <= 0");
        }
        let bound = e.constant.wrapping_neg().div_euclid(g);
        let mut scaled = Lin::constant(-bound);
        for (m, &coeff) in &e.terms {
            scaled.add_term(m.clone(), coeff / g);
        }
        format!("{scaled} <= 0")
    }

    fn canon_eq(e: Lin, equal: bool) -> String {
        if e.terms.is_empty() {
            return ((e.constant == 0) == equal).to_string();
        }
        let g = e.coeff_gcd();
        if g == 0 {
            return ((e.constant == 0) == equal).to_string();
        }
        if e.constant % g != 0 {
            return (!equal).to_string();
        }
        let mut normalized = Lin::constant(e.constant / g);
        for (m, &coeff) in &e.terms {
            normalized.add_term(m.clone(), coeff / g);
        }
        let flip = normalized.terms.values().next().is_some_and(|&c| c < 0);
        let normalized = if flip { normalized.scale(-1) } else { normalized };
        format!("{normalized} {} 0", if equal { "==" } else { "!=" })
    }

    /// The rendered canonical form of `p`, for comparisons.
    pub fn canon_pred(p: &Pred) -> String {
        match p {
            Pred::Cmp(op, a, b) => canon_cmp(*op, a, b),
            other => panic!("reference canonicalizes comparisons only, got {other}"),
        }
    }
}

/// Coefficients and constants that exercise wrapping: small values,
/// values at and next to the `i64` bounds, and powers of two whose
/// products wrap to exactly 0.
fn wide_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        -3i64..=3,
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(i64::MAX),
        Just(i64::MAX - 1),
        (1u32..=63).prop_map(|s| 1i64.wrapping_shl(s)),
        (1u32..=63).prop_map(|s| 1i64.wrapping_shl(s).wrapping_neg()),
    ]
}

/// Terms with `Div`/`Rem` monomials, wide constants, and nested `Mul`s
/// (the builders fold a constant multiplicand only, so `x·2^62·4` stays a
/// term whose linear form has an `x` coefficient that wrapped to 0).
fn wide_term_strategy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        wide_i64().prop_map(Term::int),
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::var("z")),
        Just(Term::len(Place::param("a"))),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), wide_i64()).prop_map(|(a, k)| a.mul(k)),
            (inner.clone(), wide_i64(), wide_i64()).prop_map(|(a, k, l)| a.mul(k).mul(l)),
            (inner.clone(), prop_oneof![Just(-3i64), Just(2), Just(7), Just(i64::MIN)])
                .prop_map(|(a, k)| a.div(k)),
            (inner.clone(), prop_oneof![Just(2i64), Just(-5), Just(i64::MAX)])
                .prop_map(|(a, k)| a.rem(k)),
            inner.prop_map(|a| a.neg()),
        ]
    })
}

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The flat sorted-vector `LinExpr` is observationally the `BTreeMap`
    /// one it replaced: same terms in the same order (zero coefficients
    /// included), same rendering, same pairwise order, same canonical
    /// predicates — through `lin_of_term` and through direct
    /// `add`/`sub`/`scale`.
    #[test]
    fn flat_linexpr_matches_btreemap_reference(
        s in wide_term_strategy(),
        t in wide_term_strategy(),
        k in wide_i64(),
        op in cmp_op_strategy(),
    ) {
        use symbolic::lin_of_term;
        let (a, b) = (lin_of_term(&s), lin_of_term(&t));
        let (ra, rb) = (reference::lin_of_term(&s), reference::lin_of_term(&t));
        let cases = [
            (a.clone(), ra.clone()),
            (a.add(&b), ra.add(&rb)),
            (a.sub(&b), ra.sub(&rb)),
            (b.sub(&a), rb.sub(&ra)),
            (a.scale(k), ra.scale(k)),
            (a.scale(k).add(&b), ra.scale(k).add(&rb)),
            (b.add(&a.scale(k)), rb.add(&ra.scale(k))),
            (b.sub(&a.scale(k)), rb.sub(&ra.scale(k))),
        ];
        for (flat, want) in &cases {
            let terms: Vec<_> = flat.terms().map(|(m, c)| (reference::Mono::of(m), c)).collect();
            let want_terms: Vec<_> = want.terms.iter().map(|(m, &c)| (m.clone(), c)).collect();
            prop_assert_eq!(&terms, &want_terms, "{}", want);
            prop_assert_eq!(flat.constant_part(), want.constant);
            prop_assert_eq!(flat.to_string(), want.to_string());
        }
        for (x, rx) in &cases {
            for (y, ry) in &cases {
                prop_assert_eq!(x.cmp(y), rx.cmp(ry), "{} vs {}", rx, ry);
            }
        }
        let p = Pred::cmp(op, s, t);
        prop_assert_eq!(canon_pred(&p).to_string(), reference::canon_pred(&p));
        let n = p.negated();
        prop_assert_eq!(canon_pred(&n).to_string(), reference::canon_pred(&n));
    }
}
