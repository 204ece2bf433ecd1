//! Soundness property tests for the concolic executor.
//!
//! * The paper's §III replay check on random states of a handful of corpus
//!   methods: a run's path condition is satisfiable, and a run on its model
//!   records the same path and ends the same way.
//! * Every recorded path-condition predicate holds on the *originating*
//!   entry state (taken-form soundness).

mod replay;

use concolic::{run_concolic, ConcolicConfig};
use minilang::{InputValue, MethodEntryState, Ty};
use proptest::prelude::*;
use replay::{replay, Replay};
use symbolic::eval::{eval_pred, Env};

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
    fn random_target_states_replay_their_path_conditions(
        idx in 0usize..7,
        seed in proptest::num::u64::ANY,
    ) {
        let methods = targets();
        let m = &methods[idx % methods.len()];
        let tp = m.compile();
        // The seed drives the state strategy, so each case draws its own state.
        let mut runner = proptest::test_runner::TestRunner::from_seed(seed);
        let state = state_for(m)
            .new_tree(&mut runner)
            .map(|t| t.current())
            .unwrap_or_else(|_| MethodEntryState::seed_for(m.func(&tp)));
        let run = run_concolic(&tp, m.name, &state, &ConcolicConfig::default(), None);
        let label = format!("{}::{} on {state}", m.namespace, m.name);
        let verdict = replay(&tp, m.name, &run.path, &label);
        prop_assert!(
            matches!(verdict, Replay::Replayed | Replay::BudgetStopped),
            "{:?}: {}",
            verdict,
            label
        );
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
