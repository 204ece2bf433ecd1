//! The allocation budget: a well-typed program whose test generation finds
//! an allocation size past `concolic::MAX_ARRAY_CELLS` ends that run as
//! `OutOfFuel` instead of attempting the allocation, and the `preinfer`
//! CLI finishes normally on it.

use concolic::{run_concolic, ConcolicConfig, MAX_ARRAY_CELLS};
use minilang::InputValue;
use std::process::Command;
use symbolic::PathOutcome;
use testgen::{generate_tests, TestGenConfig};

/// Allocates `n` cells once `n` exceeds 2^60.
const HUGE_ALLOC: &str = "
fn f(n int) -> int {
    if (n > 1152921504606846976) { let a = new_int_array(n); return len(a); }
    return 0;
}
";

#[test]
fn the_generated_oversized_allocation_runs_out_of_fuel() {
    let tp = minilang::compile(HUGE_ALLOC).unwrap();
    let suite = generate_tests(&tp, "f", &TestGenConfig::default());
    let huge = suite
        .runs
        .iter()
        .find(|r| matches!(r.state.get("n"), Some(InputValue::Int(n)) if *n > MAX_ARRAY_CELLS))
        .expect("test generation flips the branch to an oversized size");
    assert_eq!(huge.path.outcome, PathOutcome::OutOfFuel);
    let concolic = run_concolic(&tp, "f", &huge.state, &ConcolicConfig::default(), None);
    assert_eq!(concolic.path.outcome, PathOutcome::OutOfFuel);
    assert!(suite.triggered_acls().is_empty(), "a budget stop is not a check failure");
}

#[test]
fn preinfer_exits_normally_on_an_oversized_allocation() {
    let dir = std::env::temp_dir().join(format!("preinfer-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let program = dir.join("huge_alloc.ml");
    std::fs::write(&program, HUGE_ALLOC).unwrap();
    let out =
        Command::new(env!("CARGO_BIN_EXE_preinfer")).arg(&program).output().expect("preinfer runs");
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "preinfer failed: {}", String::from_utf8_lossy(&out.stderr));
}
