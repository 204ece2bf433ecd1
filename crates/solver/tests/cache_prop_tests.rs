//! Property-based tests for the canonicalizing cache key and the cached
//! solve path.
//!
//! The cache's correctness rests on two claims: (1) the canonical key is
//! invariant under conjunction order and parameter names, so syntactically
//! different spellings of the same query share an entry; (2) a `Sat`
//! verdict served through the cache still carries a model that satisfies
//! the *caller's* predicates, not just the canonical ones.

use minilang::Ty;
use proptest::prelude::*;
use solver::{solve_preds_with, CanonQuery, FuncSig, SolveResult, SolverCache, SolverConfig};
use symbolic::eval::eval_on_state;
use symbolic::{CmpOp, Formula, Place, PlaceNode, Pred, SymVar, SymVarNode, Term, TermNode};

fn sig(x: &str, y: &str, s: &str) -> FuncSig {
    FuncSig::from_pairs([
        (x.to_string(), Ty::Int),
        (y.to_string(), Ty::Int),
        (s.to_string(), Ty::Str),
    ])
}

/// Renames the three parameters of [`sig`] throughout a predicate. The
/// test's own independent implementation of α-renaming — deliberately not
/// the cache's — so the two can disagree.
fn rename_pred(p: &Pred, from: &[&str; 3], to: &[&str; 3]) -> Pred {
    let name = |n: &str| -> String {
        match from.iter().position(|f| *f == n) {
            Some(i) => to[i].to_string(),
            None => n.to_string(),
        }
    };
    fn walk_term(t: &Term, name: &dyn Fn(&str) -> String) -> Term {
        match t.node() {
            TermNode::Const(v) => TermNode::Const(*v).intern(),
            TermNode::Var(v) => TermNode::Var(walk_var(v, name)).intern(),
            TermNode::Add(a, b) => TermNode::Add(walk_term(a, name), walk_term(b, name)).intern(),
            TermNode::Sub(a, b) => TermNode::Sub(walk_term(a, name), walk_term(b, name)).intern(),
            TermNode::Neg(a) => TermNode::Neg(walk_term(a, name)).intern(),
            TermNode::Mul(k, a) => TermNode::Mul(*k, walk_term(a, name)).intern(),
            TermNode::Div(a, k) => TermNode::Div(walk_term(a, name), *k).intern(),
            TermNode::Rem(a, k) => TermNode::Rem(walk_term(a, name), *k).intern(),
        }
    }
    fn walk_var(v: &SymVar, name: &dyn Fn(&str) -> String) -> SymVar {
        match v.node() {
            SymVarNode::Int(n) => SymVar::int(name(n)),
            SymVarNode::Len(p) => SymVarNode::Len(walk_place(p, name)).intern(),
            SymVarNode::IntElem(p, i) => {
                SymVarNode::IntElem(walk_place(p, name), walk_term(i, name)).intern()
            }
            SymVarNode::Char(p, i) => {
                SymVarNode::Char(walk_place(p, name), walk_term(i, name)).intern()
            }
        }
    }
    fn walk_place(p: &Place, name: &dyn Fn(&str) -> String) -> Place {
        match p.node() {
            PlaceNode::Param(n) => Place::param(name(n)),
            PlaceNode::Elem(b, i) => {
                PlaceNode::Elem(walk_place(b, name), walk_term(i, name)).intern()
            }
        }
    }
    match p {
        Pred::Cmp(op, a, b) => Pred::Cmp(*op, walk_term(a, &name), walk_term(b, &name)),
        Pred::Null { place, positive } => {
            Pred::Null { place: walk_place(place, &name), positive: *positive }
        }
        Pred::BoolVar { name: n, positive } => Pred::BoolVar { name: name(n), positive: *positive },
        Pred::IsSpace { arg, positive } => {
            Pred::IsSpace { arg: walk_term(arg, &name), positive: *positive }
        }
        Pred::Const(b) => Pred::Const(*b),
    }
}

fn term_xy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-5i64..=5).prop_map(Term::int),
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::len(Place::param("s"))),
    ];
    leaf.prop_recursive(1, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner, -3i64..=3).prop_map(|(a, k)| a.mul(k)),
        ]
    })
}

fn pred_xys() -> impl Strategy<Value = Pred> {
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    prop_oneof![
        (cmp, term_xy(), term_xy()).prop_map(|(op, a, b)| Pred::cmp(op, a, b)),
        proptest::bool::ANY.prop_map(|pos| Pred::Null { place: Place::param("s"), positive: pos }),
    ]
}

/// A deterministic permutation driven by a generated seed: rotate by `k`
/// and reverse when `flip` — enough to cover "any order" without needing a
/// shuffle primitive in the vendored shim.
fn permute(preds: &[Pred], k: usize, flip: bool) -> Vec<Pred> {
    let mut out: Vec<Pred> = Vec::with_capacity(preds.len());
    let n = preds.len().max(1);
    for i in 0..preds.len() {
        out.push(preds[(i + k) % n].clone());
    }
    if flip {
        out.reverse();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Permuting the conjunction and renaming every parameter leaves the
    /// canonical cache key unchanged.
    #[test]
    fn key_invariant_under_permutation_and_renaming(
        preds in proptest::collection::vec(pred_xys(), 1..5),
        k in 0usize..8,
        flip in proptest::bool::ANY,
    ) {
        let cfg = SolverConfig::default();
        let original = CanonQuery::build(&preds, &sig("x", "y", "s"));

        let permuted = permute(&preds, k, flip);
        let q = CanonQuery::build(&permuted, &sig("x", "y", "s"));
        prop_assert_eq!(original.key(&cfg), q.key(&cfg), "permutation changed the key");

        let renamed: Vec<Pred> = permuted
            .iter()
            .map(|p| rename_pred(p, &["x", "y", "s"], &["alpha", "beta", "gamma"]))
            .collect();
        let q = CanonQuery::build(&renamed, &sig("alpha", "beta", "gamma"));
        prop_assert_eq!(original.key(&cfg), q.key(&cfg), "renaming changed the key");
    }

    /// Re-spelling a parameter's name must NOT collide when the constraint
    /// actually differs: swapping which parameter a one-sided bound talks
    /// about gives a different key unless the conjunction is symmetric.
    #[test]
    fn keys_separate_asymmetric_queries(n in 1i64..20) {
        let cfg = SolverConfig::default();
        let on_x = vec![Pred::cmp(CmpOp::Gt, Term::var("x"), Term::int(n))];
        let on_y_only = vec![Pred::cmp(CmpOp::Gt, Term::var("y"), Term::int(n + 1))];
        let a = CanonQuery::build(&on_x, &sig("x", "y", "s"));
        let b = CanonQuery::build(&on_y_only, &sig("x", "y", "s"));
        prop_assert!(a.key(&cfg) != b.key(&cfg), "distinct constraints collided: {:?}", a.key(&cfg));
    }

    /// A `Sat` answer served through the cache — on both the miss and the
    /// hit path, and under a renamed re-ask — satisfies the caller's
    /// original predicates.
    #[test]
    fn cached_sat_models_satisfy_the_askers_predicates(
        preds in proptest::collection::vec(pred_xys(), 1..4),
        k in 0usize..6,
        flip in proptest::bool::ANY,
    ) {
        let cfg = SolverConfig::default();
        let cache = SolverCache::new();
        // The vendored shim's property body uses `String` as its error
        // type (real proptest uses `TestCaseError`).
        let check = |asked: &[Pred], names: [&str; 3]| -> Result<(), String> {
            let (result, _) =
                solve_preds_with(asked, &sig(names[0], names[1], names[2]), &cfg, Some(&cache));
            if let SolveResult::Sat(model) = result {
                for p in asked {
                    let v = eval_on_state(&Formula::pred(p.clone()), &model);
                    prop_assert_eq!(
                        v,
                        Ok(true),
                        "model {} violates {} (asked as {:?})",
                        model,
                        p,
                        names
                    );
                }
            }
            Ok(())
        };
        // Miss path, then hit path with the same spelling, then hit path
        // with a permuted and renamed spelling of the same query.
        check(&preds, ["x", "y", "s"])?;
        check(&preds, ["x", "y", "s"])?;
        let respelled: Vec<Pred> = permute(&preds, k, flip)
            .iter()
            .map(|p| rename_pred(p, &["x", "y", "s"], &["u", "v", "w"]))
            .collect();
        check(&respelled, ["u", "v", "w"])?;
    }
}
