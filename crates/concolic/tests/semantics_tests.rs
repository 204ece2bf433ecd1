//! MiniLang semantics on the concolic executor: arithmetic, control flow,
//! scoping, short-circuit order, aliasing, the implicit checks, the run
//! budgets and block coverage.
//!
//! `run_concolic` returns no value, so a return-value check appends a
//! wrapper `fn check(<f's params>) { assert(f(<params>) == <want>); }` to
//! the source and runs `check` on the same state: `Completed` means the
//! value was equal, a failure at the wrapper's assert means it was not.

use concolic::{run_concolic, ConcolicConfig};
use minilang::{compile, CheckKind, InputValue, MethodEntryState};
use std::fmt;
use symbolic::PathOutcome;

/// How `func` ends on `pairs`.
fn outcome(src: &str, func: &str, pairs: Vec<(&str, InputValue)>) -> PathOutcome {
    let tp = compile(src).expect("compiles");
    let state = MethodEntryState::from_pairs(pairs);
    run_concolic(&tp, func, &state, &ConcolicConfig::default(), None).path.outcome
}

/// The kind of check `func` fails at on `pairs`.
fn failed_kind(src: &str, func: &str, pairs: Vec<(&str, InputValue)>) -> CheckKind {
    match outcome(src, func, pairs) {
        PathOutcome::Failed(id) => id.kind,
        other => panic!("{other:?}"),
    }
}

/// Asserts that `func` returns `want`, a MiniLang expression, on `pairs`,
/// through the `check` wrapper described in the module doc.
fn assert_returns(src: &str, func: &str, pairs: Vec<(&str, InputValue)>, want: impl fmt::Display) {
    let plain = compile(src).expect("compiles");
    let params = &plain.func(func).expect("function exists").params;
    let decls: Vec<String> = params.iter().map(|p| format!("{} {}", p.name, p.ty)).collect();
    let args: Vec<&str> = params.iter().map(|p| p.name.as_str()).collect();
    let wrapped = format!(
        "{src}\nfn check({}) {{ assert({func}({}) == {want}); }}",
        decls.join(", "),
        args.join(", ")
    );
    let tp = compile(&wrapped).expect("wrapper compiles");
    let wrapper_assert = tp.func("check").unwrap().body.stmts[0].id;
    let state = MethodEntryState::from_pairs(pairs);
    match run_concolic(&tp, "check", &state, &ConcolicConfig::default(), None).path.outcome {
        PathOutcome::Completed => {}
        PathOutcome::Failed(id) if id.node == wrapper_assert => {
            panic!("{func} on {state} does not return {want}")
        }
        other => panic!("{func} on {state}: {other:?} instead of returning {want}"),
    }
}

#[test]
fn arithmetic_and_return() {
    assert_returns(
        "fn f(x int) -> int { return x * 2 + 1; }",
        "f",
        vec![("x", InputValue::Int(20))],
        41,
    );
}

#[test]
fn division_by_zero_fails_with_check() {
    let src = "fn f(x int) -> int { return 10 / x; }";
    assert_eq!(failed_kind(src, "f", vec![("x", InputValue::Int(0))]), CheckKind::DivByZero);
}

#[test]
fn null_array_len_fails() {
    let src = "fn f(a [int]) -> int { return len(a); }";
    let kind = failed_kind(src, "f", vec![("a", InputValue::ArrayInt(None))]);
    assert_eq!(kind, CheckKind::NullDeref);
}

#[test]
fn out_of_bounds_read_fails() {
    let src = "fn f(a [int]) -> int { return a[5]; }";
    let kind = failed_kind(src, "f", vec![("a", InputValue::ArrayInt(Some(vec![1, 2])))]);
    assert_eq!(kind, CheckKind::IndexOutOfRange);
}

#[test]
fn motivating_example_tf1_fails_at_element_null_check() {
    let src = "
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
    let state = |s: InputValue| {
        vec![
            ("s", s),
            ("a", InputValue::Int(1)),
            ("b", InputValue::Int(0)),
            ("c", InputValue::Int(1)),
            ("d", InputValue::Int(0)),
        ]
    };
    // t_f1: (s: {null}, a: 1, b: 0, c: 1, d: 0)
    let kind = failed_kind(src, "example", state(InputValue::ArrayStr(Some(vec![None]))));
    assert_eq!(kind, CheckKind::NullDeref);
    // And a passing run: b becomes 1 (sum+1) and strlen("a") adds 1 → 2.
    assert_returns(src, "example", state(InputValue::ArrayStr(Some(vec![Some(vec![97])]))), 2);
}

#[test]
fn explicit_assert_fails() {
    let src = "fn f(x int) { assert(x > 0); }";
    assert_eq!(failed_kind(src, "f", vec![("x", InputValue::Int(0))]), CheckKind::AssertFail);
}

#[test]
fn infinite_loop_runs_out_of_fuel() {
    let src = "fn f(x int) { while (true) { x = x + 1; } }";
    assert_eq!(outcome(src, "f", vec![("x", InputValue::Int(0))]), PathOutcome::OutOfFuel);
}

#[test]
fn call_and_recursion() {
    let src = "
        fn fact(n int) -> int {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        fn main(n int) -> int { return fact(n); }";
    assert_returns(src, "main", vec![("n", InputValue::Int(5))], 120);
}

#[test]
fn failure_inside_callee_propagates() {
    let src = "
        fn helper(a [int], i int) -> int { return a[i]; }
        fn main(a [int]) -> int { return helper(a, 3); }";
    let kind = failed_kind(src, "main", vec![("a", InputValue::ArrayInt(Some(vec![1])))]);
    assert_eq!(kind, CheckKind::IndexOutOfRange);
}

#[test]
fn array_writes_are_observable() {
    let src = "
        fn f(a [int]) -> int {
            a[0] = 7;
            return a[0];
        }";
    assert_returns(src, "f", vec![("a", InputValue::ArrayInt(Some(vec![0])))], 7);
}

#[test]
fn new_array_and_negative_size() {
    let src = "fn f(n int) -> int { let a = new_int_array(n); return len(a); }";
    assert_returns(src, "f", vec![("n", InputValue::Int(3))], 3);
    assert_eq!(failed_kind(src, "f", vec![("n", InputValue::Int(-1))]), CheckKind::NegativeSize);
}

#[test]
fn short_circuit_protects_null() {
    let src = "fn f(s str) -> bool { return s != null && strlen(s) > 0; }";
    assert_returns(src, "f", vec![("s", InputValue::Str(None))], false);
}

#[test]
fn block_coverage_partial_then_full() {
    let src = "fn f(x int) -> int { if (x > 0) { return 1; } else { return 2; } }";
    let tp = compile(src).unwrap();
    let blocks = minilang::block_ids(tp.func("f").unwrap());
    assert_eq!(blocks.len(), 3);
    let state = MethodEntryState::from_pairs([("x", InputValue::Int(1))]);
    let out = run_concolic(&tp, "f", &state, &ConcolicConfig::default(), None);
    let cov = minilang::coverage_percent(&blocks, &out.visited_blocks);
    assert!((cov - 2.0 / 3.0 * 100.0).abs() < 1e-9);
}

#[test]
fn is_space_builtin() {
    let src = "fn f(c int) -> bool { return is_space(c); }";
    for (c, want) in [(32i64, true), (9, true), (97, false)] {
        assert_returns(src, "f", vec![("c", InputValue::Int(c))], want);
    }
}

#[test]
fn char_at_and_strlen() {
    let src = "fn f(s str) -> int { return char_at(s, strlen(s) - 1); }";
    assert_returns(src, "f", vec![("s", InputValue::str_from("xyz"))], 'z' as i64);
    let kind = failed_kind(src, "f", vec![("s", InputValue::str_from(""))]);
    assert_eq!(kind, CheckKind::IndexOutOfRange);
}

#[test]
fn break_exits_innermost_loop_only() {
    let src = "
        fn f(n int) -> int {
            let hits = 0;
            let i = 0;
            while (i < n) {
                let j = 0;
                while (true) {
                    hits = hits + 1;
                    if (j >= 1) { break; }
                    j = j + 1;
                }
                i = i + 1;
            }
            return hits;
        }";
    assert_returns(src, "f", vec![("n", InputValue::Int(3))], 6);
}

#[test]
fn continue_skips_rest_of_while_body() {
    let src = "
        fn f(n int) -> int {
            let odd_sum = 0;
            let i = 0;
            while (i < n) {
                i = i + 1;
                if (i % 2 == 0) { continue; }
                odd_sum = odd_sum + i;
            }
            return odd_sum;
        }";
    assert_returns(src, "f", vec![("n", InputValue::Int(6))], 1 + 3 + 5);
}

#[test]
fn block_scoping_restores_shadowed_variables() {
    let src = "
        fn f(x int) -> int {
            if (x > 0) {
                let x = 100;
                x = x + 1;
            }
            return x;
        }";
    assert_returns(src, "f", vec![("x", InputValue::Int(7))], 7);
}

#[test]
fn short_circuit_skips_side_conditions() {
    // The right operand would divide by zero; `false &&` must protect it.
    let src = "fn f(x int) -> bool { return x > 100 && 1 / (x - x) > 0; }";
    assert_returns(src, "f", vec![("x", InputValue::Int(1))], false);
    // And evaluate it when the left side passes.
    assert_eq!(failed_kind(src, "f", vec![("x", InputValue::Int(101))]), CheckKind::DivByZero);
}

#[test]
fn arrays_alias_through_call_boundaries() {
    let src = "
        fn poke(a [int]) { a[0] = 99; }
        fn f(a [int]) -> int {
            poke(a);
            return a[0];
        }";
    assert_returns(src, "f", vec![("a", InputValue::ArrayInt(Some(vec![1])))], 99);
}

#[test]
fn int_arguments_are_by_value() {
    let src = "
        fn bump(x int) -> int { x = x + 1; return x; }
        fn f(x int) -> int {
            let y = bump(x);
            return x * 10 + y;
        }";
    assert_returns(src, "f", vec![("x", InputValue::Int(3))], 34);
}

#[test]
fn wrapping_arithmetic_matches_rust() {
    let src = "fn f(x int) -> int { return x + 1; }";
    // i64::MIN; `9223372036854775808` is not an int literal.
    let min = "(-9223372036854775807 - 1)";
    assert_returns(src, "f", vec![("x", InputValue::Int(i64::MAX))], min);
}

#[test]
fn negative_modulo_keeps_dividend_sign() {
    let src = "fn f(x int) -> int { return x % 4; }";
    assert_returns(src, "f", vec![("x", InputValue::Int(-7))], -3);
}

#[test]
fn deep_recursion_hits_depth_limit_not_stack_overflow() {
    let src = "
        fn down(n int) -> int {
            if (n <= 0) { return 0; }
            return down(n - 1);
        }
        fn f(n int) -> int { return down(n); }";
    let out = outcome(src, "f", vec![("n", InputValue::Int(10_000))]);
    assert_eq!(out, PathOutcome::CallDepthExceeded);
}

#[test]
fn created_string_array_elements_start_null() {
    let src = "
        fn f(n int) -> int {
            let xs = new_str_array(3);
            return strlen(xs[0]);
        }";
    assert_eq!(failed_kind(src, "f", vec![("n", InputValue::Int(0))]), CheckKind::NullDeref);
}

#[test]
fn string_literals_index_correctly() {
    let src = r#"
        fn f(i int) -> int {
            let s = "abc";
            return char_at(s, i);
        }"#;
    assert_returns(src, "f", vec![("i", InputValue::Int(2))], 'c' as i64);
}

#[test]
fn else_if_chains_pick_first_match() {
    let src = "
        fn f(x int) -> int {
            if (x > 10) { return 3; }
            else if (x > 5) { return 2; }
            else if (x > 0) { return 1; }
            else { return 0; }
        }";
    for (x, want) in [(20, 3), (7, 2), (3, 1), (-1, 0)] {
        assert_returns(src, "f", vec![("x", InputValue::Int(x))], want);
    }
}

#[test]
fn abs_builtin_both_signs() {
    let src = "fn f(x int) -> int { return abs(x); }";
    assert_returns(src, "f", vec![("x", InputValue::Int(-5))], 5);
    assert_returns(src, "f", vec![("x", InputValue::Int(5))], 5);
    assert_returns(src, "f", vec![("x", InputValue::Int(0))], 0);
}
