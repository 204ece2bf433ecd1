//! Semantics corner cases for the interpreter: control flow, scoping,
//! short-circuit order, aliasing, and arithmetic edges.

use interp::{run, ExecResult, Value};
use minilang::{compile, CheckKind, InputValue, MethodEntryState};

fn exec(src: &str, pairs: Vec<(&str, InputValue)>) -> ExecResult {
    let tp = compile(src).expect("compiles");
    let state = MethodEntryState::from_pairs(pairs);
    run(&tp, "f", &state).result
}

fn expect_int(r: ExecResult) -> i64 {
    match r {
        ExecResult::Completed(Value::Int(v)) => v,
        other => panic!("{other:?}"),
    }
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
    assert_eq!(expect_int(exec(src, vec![("n", InputValue::Int(3))])), 6);
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
    assert_eq!(expect_int(exec(src, vec![("n", InputValue::Int(6))])), 1 + 3 + 5);
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
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(7))])), 7);
}

#[test]
fn short_circuit_skips_side_conditions() {
    // The right operand would divide by zero; `false &&` must protect it.
    let src = "fn f(x int) -> bool { return x > 100 && 1 / (x - x) > 0; }";
    match exec(src, vec![("x", InputValue::Int(1))]) {
        ExecResult::Completed(Value::Bool(false)) => {}
        other => panic!("{other:?}"),
    }
    // And evaluate it when the left side passes.
    match exec(src, vec![("x", InputValue::Int(101))]) {
        ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::DivByZero),
        other => panic!("{other:?}"),
    }
}

#[test]
fn arrays_alias_through_call_boundaries() {
    let src = "
        fn poke(a [int]) { a[0] = 99; }
        fn f(a [int]) -> int {
            poke(a);
            return a[0];
        }";
    assert_eq!(expect_int(exec(src, vec![("a", InputValue::ArrayInt(Some(vec![1])))])), 99);
}

#[test]
fn int_arguments_are_by_value() {
    let src = "
        fn bump(x int) -> int { x = x + 1; return x; }
        fn f(x int) -> int {
            let y = bump(x);
            return x * 10 + y;
        }";
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(3))])), 34);
}

#[test]
fn wrapping_arithmetic_matches_rust() {
    let src = "fn f(x int) -> int { return x + 1; }";
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(i64::MAX))])), i64::MIN);
}

#[test]
fn negative_modulo_keeps_dividend_sign() {
    let src = "fn f(x int) -> int { return x % 4; }";
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(-7))])), -3);
}

#[test]
fn deep_recursion_hits_depth_limit_not_stack_overflow() {
    let src = "
        fn down(n int) -> int {
            if (n <= 0) { return 0; }
            return down(n - 1);
        }
        fn f(n int) -> int { return down(n); }";
    match exec(src, vec![("n", InputValue::Int(10_000))]) {
        ExecResult::CallDepthExceeded => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn created_string_array_elements_start_null() {
    let src = "
        fn f(n int) -> int {
            let xs = new_str_array(3);
            return strlen(xs[0]);
        }";
    match exec(src, vec![("n", InputValue::Int(0))]) {
        ExecResult::Failed(e) => assert_eq!(e.check.kind, CheckKind::NullDeref),
        other => panic!("{other:?}"),
    }
}

#[test]
fn string_literals_index_correctly() {
    let src = r#"
        fn f(i int) -> int {
            let s = "abc";
            return char_at(s, i);
        }"#;
    assert_eq!(expect_int(exec(src, vec![("i", InputValue::Int(2))])), 'c' as i64);
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
        assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(x))])), want);
    }
}

#[test]
fn abs_builtin_both_signs() {
    let src = "fn f(x int) -> int { return abs(x); }";
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(-5))])), 5);
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(5))])), 5);
    assert_eq!(expect_int(exec(src, vec![("x", InputValue::Int(0))])), 0);
}
