//! Path-condition collection tests, anchored on the paper's Tables I and II,
//! plus the soundness loop: solving a collected path condition and re-running
//! must follow the same path to the same outcome.

mod replay;

use concolic::{run_concolic, ConcolicConfig};
use minilang::{compile, CheckKind, InputValue, MethodEntryState, TypedProgram};
use replay::{replay, Replay};
use symbolic::{EntryKind, PathOutcome};

/// The paper's Figure 1 method, ported to MiniLang. The implicit assertion
/// at the paper's Line 14 (`s != null`) arises from `len(s)`; the one at
/// Line 16 (`s[i] != null`) arises from `strlen(s[i])`.
const FIG1: &str = "
fn example(s [str], a int, b int, c int, d int) -> int {
    let sum = 0;
    if (a > 0) { b = b + 1; }
    if (c > 0) { d = d + 1; }
    if (b > 0) { sum = sum + 1; }
    if (d > 0) {
        for (let i = 0; i < len(s); i = i + 1) {
            sum = sum + strlen(s[i]);
        }
        return sum;
    }
    return sum;
}";

fn fig1() -> TypedProgram {
    compile(FIG1).unwrap()
}

fn fig1_state(s: InputValue, a: i64, b: i64, c: i64, d: i64) -> MethodEntryState {
    MethodEntryState::from_pairs([
        ("s".to_string(), s),
        ("a".to_string(), InputValue::Int(a)),
        ("b".to_string(), InputValue::Int(b)),
        ("c".to_string(), InputValue::Int(c)),
        ("d".to_string(), InputValue::Int(d)),
    ])
}

#[test]
fn table1_path_condition_for_tf1() {
    let tp = fig1();
    // t_f1: (s: {null}, a: 1, b: 0, c: 1, d: 0)
    let state = fig1_state(InputValue::ArrayStr(Some(vec![None])), 1, 0, 1, 0);
    let out = run_concolic(&tp, "example", &state, &ConcolicConfig::default(), None);
    assert!(matches!(out.path.outcome, PathOutcome::Failed(c) if c.kind == CheckKind::NullDeref));
    let preds: Vec<String> = out.path.entries.iter().map(|e| e.pred.to_string()).collect();
    // The paper's Table I sequence (we additionally record benign duplicate
    // checks at the element access; canonical dedup removes them later).
    let expected_subsequence =
        ["a > 0", "c > 0", "(b + 1) > 0", "(d + 1) > 0", "s != null", "0 < len(s)", "s[0] == null"];
    let mut pos = 0;
    for want in expected_subsequence {
        pos = preds[pos..]
            .iter()
            .position(|p| p == want)
            .map(|off| pos + off + 1)
            .unwrap_or_else(|| panic!("missing {want:?} in order within {preds:?}"));
    }
    // The last-branch predicate is the assertion-violating condition.
    assert_eq!(out.path.last_branch().unwrap().pred.to_string(), "s[0] == null");
}

#[test]
fn table2_path_condition_for_tf3() {
    let tp = fig1();
    // t_f3: (s: {"a","a",null}, a: 1, b: 0, c: 1, d: 0)
    let a = Some(vec![97i64]);
    let state = fig1_state(InputValue::ArrayStr(Some(vec![a.clone(), a, None])), 1, 0, 1, 0);
    let out = run_concolic(&tp, "example", &state, &ConcolicConfig::default(), None);
    let preds: Vec<String> = out.path.entries.iter().map(|e| e.pred.to_string()).collect();
    for want in [
        "a > 0",
        "c > 0",
        "(b + 1) > 0",
        "(d + 1) > 0",
        "s != null",
        "0 < len(s)",
        "s[0] != null",
        "1 < len(s)",
        "s[1] != null",
        "2 < len(s)",
        "s[2] == null",
    ] {
        assert!(preds.contains(&want.to_string()), "missing {want:?} in {preds:?}");
    }
    assert_eq!(out.path.last_branch().unwrap().pred.to_string(), "s[2] == null");
}

#[test]
fn passing_path_tp1_reaches_check_without_violation() {
    let tp = fig1();
    // t_p1-like: (s: {"aa"}, a: 0, b: 1, c: 1, d: 0) — a <= 0 branch, reaches
    // the element check but all elements are non-null.
    let state = fig1_state(InputValue::ArrayStr(Some(vec![Some(vec![97, 97])])), 0, 1, 1, 0);
    let out = run_concolic(&tp, "example", &state, &ConcolicConfig::default(), None);
    assert!(matches!(out.path.outcome, PathOutcome::Completed));
    let preds: Vec<String> = out.path.entries.iter().map(|e| e.pred.to_string()).collect();
    assert!(preds.contains(&"a <= 0".to_string()), "{preds:?}");
    assert!(preds.contains(&"s[0] != null".to_string()), "{preds:?}");
    // 1 >= len(s): the loop exits after one iteration.
    assert!(preds.contains(&"1 >= len(s)".to_string()), "{preds:?}");
}

/// The paper's §III soundness check on Fig. 1 states: each run's path
/// condition is satisfiable, and a run on its model records the same path
/// (same branch sites and canonical predicates) and ends the same way.
#[test]
fn solved_path_conditions_replay_the_same_path() {
    let tp = fig1();
    let states = vec![
        fig1_state(InputValue::ArrayStr(Some(vec![None])), 1, 0, 1, 0),
        fig1_state(InputValue::ArrayStr(Some(vec![Some(vec![97]), None])), 5, -3, 0, 2),
        fig1_state(InputValue::ArrayStr(None), 0, 0, 1, 1),
        fig1_state(InputValue::ArrayStr(Some(vec![])), -1, 4, 2, 0),
        fig1_state(InputValue::ArrayStr(None), 1, 0, 1, 0),
        fig1_state(InputValue::ArrayStr(None), 0, 0, 0, 0),
        fig1_state(InputValue::ArrayStr(Some(vec![None])), 0, 0, 0, 5),
        fig1_state(InputValue::ArrayStr(Some(vec![Some(vec![97])])), 2, 2, 2, 2),
        fig1_state(InputValue::ArrayStr(Some(vec![])), 1, 1, 1, 1),
    ];
    for state in states {
        let run = run_concolic(&tp, "example", &state, &ConcolicConfig::default(), None);
        let verdict = replay(&tp, "example", &run.path, &state.to_string());
        assert_eq!(verdict, Replay::Replayed, "{state}");
    }
}

#[test]
fn pins_recorded_for_nonlinear_ops() {
    let tp = compile("fn f(x int, y int) -> int { return x * y; }").unwrap();
    let state = MethodEntryState::from_pairs([
        ("x".to_string(), InputValue::Int(3)),
        ("y".to_string(), InputValue::Int(4)),
    ]);
    let out = run_concolic(&tp, "f", &state, &ConcolicConfig::default(), None);
    let pins: Vec<_> = out.path.entries.iter().filter(|e| e.kind == EntryKind::Pin).collect();
    assert_eq!(pins.len(), 1);
    assert_eq!(pins[0].pred.to_string(), "y == 4");
}

#[test]
fn division_records_check_and_symbolic_quotient() {
    let tp = compile("fn f(x int) -> int { if (x / 2 > 3) { return 1; } return 0; }").unwrap();
    let state = MethodEntryState::from_pairs([("x", InputValue::Int(10))]);
    let out = run_concolic(&tp, "f", &state, &ConcolicConfig::default(), None);
    let preds: Vec<String> = out.path.entries.iter().map(|e| e.pred.to_string()).collect();
    assert!(preds.iter().any(|p| p.contains("(x / 2) > 3")), "{preds:?}");
}

#[test]
fn assert_retags_last_decision_as_check() {
    let tp = compile("fn f(x int) { assert(x > 0); }").unwrap();
    let ok = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("x", InputValue::Int(5))]),
        &ConcolicConfig::default(),
        None,
    );
    assert!(matches!(ok.path.outcome, PathOutcome::Completed));
    let e = ok.path.entries.last().unwrap();
    assert!(matches!(e.kind, EntryKind::Check(c) if c.kind == CheckKind::AssertFail));
    assert_eq!(e.pred.to_string(), "x > 0");
    let bad = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("x", InputValue::Int(0))]),
        &ConcolicConfig::default(),
        None,
    );
    assert!(matches!(bad.path.outcome, PathOutcome::Failed(c) if c.kind == CheckKind::AssertFail));
    assert_eq!(bad.path.last_branch().unwrap().pred.to_string(), "x <= 0");
}

#[test]
fn bool_param_branches_record_boolvar() {
    let tp = compile("fn f(flag bool) -> int { if (flag) { return 1; } return 0; }").unwrap();
    let out = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("flag", InputValue::Bool(true))]),
        &ConcolicConfig::default(),
        None,
    );
    assert_eq!(out.path.to_string(), "flag");
    let out = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("flag", InputValue::Bool(false))]),
        &ConcolicConfig::default(),
        None,
    );
    assert_eq!(out.path.to_string(), "!flag");
}

#[test]
fn callee_branches_join_callers_path_condition() {
    let src = "
        fn is_valid(x int) -> bool { return x > 10; }
        fn main(x int) -> int {
            if (is_valid(x)) { return 1; }
            return 0;
        }";
    let tp = compile(src).unwrap();
    let out = run_concolic(
        &tp,
        "main",
        &MethodEntryState::from_pairs([("x", InputValue::Int(20))]),
        &ConcolicConfig::default(),
        None,
    );
    assert_eq!(out.path.to_string(), "x > 10");
}

#[test]
fn writes_preserve_symbolic_identity() {
    // Writing an input-derived value into a fresh array and reading it back
    // must keep the symbolic term.
    let src = "
        fn f(x int) -> int {
            let a = new_int_array(2);
            a[0] = x + 1;
            if (a[0] > 5) { return 1; }
            return 0;
        }";
    let tp = compile(src).unwrap();
    let out = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("x", InputValue::Int(9))]),
        &ConcolicConfig::default(),
        None,
    );
    let preds: Vec<String> = out.path.entries.iter().map(|e| e.pred.to_string()).collect();
    assert!(preds.iter().any(|p| p.contains("(x + 1) > 5")), "{preds:?}");
}

#[test]
fn string_chars_symbolic_through_char_at() {
    let src = "fn f(s str) -> int { if (is_space(char_at(s, 0))) { return 1; } return 0; }";
    let tp = compile(src).unwrap();
    let out = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("s", InputValue::str_from(" x"))]),
        &ConcolicConfig::default(),
        None,
    );
    let preds: Vec<String> = out.path.entries.iter().map(|e| e.pred.to_string()).collect();
    assert!(preds.contains(&"is_space(char_at(s, 0))".to_string()), "{preds:?}");
}

#[test]
fn is_space_on_literal_strings_is_concrete() {
    let src = r#"fn f(x int) -> int {
        let t = "a";
        if (is_space(char_at(t, 0))) { return 1; }
        return x;
    }"#;
    let tp = compile(src).unwrap();
    let out = run_concolic(
        &tp,
        "f",
        &MethodEntryState::from_pairs([("x", InputValue::Int(1))]),
        &ConcolicConfig::default(),
        None,
    );
    // No symbolic content from the literal: only constant checks remain.
    assert!(out.path.entries.iter().all(|e| !matches!(e.kind, EntryKind::ExplicitBranch)
        || !e.pred.to_string().contains("is_space")));
}
