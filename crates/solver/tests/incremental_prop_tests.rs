//! Property-based equivalence of the incremental prefix-sharing session
//! (`solver::incremental`) against the scratch solving path: on random
//! predicate stacks under arbitrary push/pop interleavings, a warm
//! session must return *identical* results — same verdict, same model bit
//! for bit — at every prefix depth, and its Unsat answers must survive a
//! brute-force window check.
//!
//! This is the executable form of the equivalence contract in the
//! `incremental` module docs: the trail-backed builder normalizes at
//! solve time, so reusing mutations across queries is unobservable
//! through the solving API. That is what lets warm sessions be the only
//! solving path the pipeline runs: they change how fast a query is
//! answered, never the answer.

use minilang::{InputValue, MethodEntryState, Ty};
use proptest::prelude::*;
use solver::{solve_preds_with, FuncSig, IncrementalSession, SolveResult, SolverConfig};
use symbolic::eval::eval_on_state;
use symbolic::{CmpOp, Formula, Place, Pred, Term};

fn sig_xy() -> FuncSig {
    FuncSig::from_pairs([("x", Ty::Int), ("y", Ty::Int), ("a", Ty::ArrayInt)])
}

fn cfg() -> SolverConfig {
    // Small budget for proptest speed, exactly as in `tier_prop_tests`;
    // the equivalence property is budget-uniform (warm and scratch draw
    // the same fresh budget per query), so this costs no coverage.
    SolverConfig { budget_nodes: 32, ..SolverConfig::default() }
}

fn term_xy() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-6i64..=6).prop_map(Term::int),
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::len(Place::param("a"))),
    ];
    leaf.prop_recursive(1, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), -3i64..=3).prop_map(|(a, k)| a.mul(k)),
            (inner, prop_oneof![Just(2i64), Just(5)]).prop_map(|(a, k)| a.rem(k)),
        ]
    })
}

fn cmp_pred() -> impl Strategy<Value = Pred> {
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    (cmp, term_xy(), term_xy()).prop_map(|(op, a, b)| Pred::cmp(op, a, b))
}

fn pred_xy() -> impl Strategy<Value = Pred> {
    // The vendored shim's `prop_oneof` is unweighted; repeating the
    // comparison arm biases the mix toward arithmetic.
    prop_oneof![
        cmp_pred(),
        cmp_pred(),
        cmp_pred(),
        cmp_pred(),
        Just(Pred::is_null(Place::param("a"))),
        Just(Pred::not_null(Place::param("a"))),
    ]
}

fn scratch(preds: &[Pred]) -> SolveResult {
    solve_preds_with(preds, &sig_xy(), &cfg(), None).0
}

fn satisfies(preds: &[Pred], m: &MethodEntryState) -> bool {
    preds.iter().all(|p| eval_on_state(&Formula::pred(p.clone()), m) == Ok(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Growing a session one predicate at a time, then unwinding it one
    /// mark at a time, matches scratch at *every* prefix depth — verdicts
    /// and models bit for bit, on the way up and on the way back down.
    #[test]
    fn every_prefix_depth_matches_scratch_up_and_down(
        preds in proptest::collection::vec(pred_xy(), 1..5),
    ) {
        let sig = sig_xy();
        let cfg = cfg();
        let mut session = IncrementalSession::new(&sig, &cfg, None);
        for (i, p) in preds.iter().enumerate() {
            session.push(p);
            let (warm, _) = session.solve();
            prop_assert_eq!(
                &warm, &scratch(&preds[..=i]),
                "push diverged at depth {} of {:?}", i + 1, preds
            );
        }
        for depth in (0..preds.len()).rev() {
            session.pop_to(depth);
            let (warm, _) = session.solve();
            prop_assert_eq!(
                &warm, &scratch(&preds[..depth]),
                "pop diverged at depth {} of {:?}", depth, preds
            );
        }
    }

    /// Arbitrary interleavings of pushes and pops-to-arbitrary-marks stay
    /// equivalent to scratch-solving the session's current stack.
    #[test]
    fn arbitrary_push_pop_interleavings_match_scratch(
        pool in proptest::collection::vec(pred_xy(), 1..5),
        script in proptest::collection::vec((0usize..4, 0usize..8), 1..10),
    ) {
        let sig = sig_xy();
        let cfg = cfg();
        let mut session = IncrementalSession::new(&sig, &cfg, None);
        let mut shadow: Vec<Pred> = Vec::new();
        for (op, arg) in script {
            if op == 0 && !shadow.is_empty() {
                let mark = arg % (shadow.len() + 1);
                session.pop_to(mark);
                shadow.truncate(mark);
            } else {
                let p = pool[arg % pool.len()].clone();
                session.push(&p);
                shadow.push(p);
            }
            prop_assert_eq!(session.depth(), shadow.len());
            let (warm, _) = session.solve();
            prop_assert_eq!(
                &warm, &scratch(&shadow),
                "interleaving diverged on stack {:?}", &shadow
            );
        }
    }

    /// A warm session's Unsat is sound: no assignment in a brute-force
    /// window satisfies the prefix it was claimed for.
    #[test]
    fn warm_unsat_survives_window_brute_force(
        preds in proptest::collection::vec(pred_xy(), 1..4),
    ) {
        let sig = sig_xy();
        let cfg = cfg();
        let mut session = IncrementalSession::new(&sig, &cfg, None);
        for (i, p) in preds.iter().enumerate() {
            session.push(p);
            if session.solve().0 != SolveResult::Unsat {
                continue;
            }
            let prefix = &preds[..=i];
            for x in -8i64..=8 {
                for y in -8i64..=8 {
                    for a in [None, Some(vec![0i64; 2])] {
                        let st = MethodEntryState::from_pairs([
                            ("x".to_string(), InputValue::Int(x)),
                            ("y".to_string(), InputValue::Int(y)),
                            ("a".to_string(), InputValue::ArrayInt(a.clone())),
                        ]);
                        prop_assert!(
                            !satisfies(prefix, &st),
                            "warm Unsat but x={x} y={y} a={a:?} satisfies {:?}",
                            prefix
                        );
                    }
                }
            }
        }
    }
}
