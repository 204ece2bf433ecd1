//! Regression: `i64::MIN` constants and coefficients must not panic the
//! simplex tier in debug builds.
//!
//! The simplex tier used to negate row constants and coefficients with
//! plain `-`, so debug builds panicked with "attempt to negate with
//! overflow" on `x + y <= i64::MIN` and friends, while release builds
//! wrapped. Both now negate with `wrapping_neg` (DESIGN.md §5e), and the
//! coefficient-magnitude guard turns the wrapped rows into `Unknown`, in
//! debug and release alike. Two variables keep each query out of the
//! interval tier, and every query runs under both backend stacks.

use minilang::Ty;
use solver::{solve_preds, BackendKind, FuncSig, IntProblem, SolveResult, SolverConfig};
use symbolic::{CmpOp, Pred, Term};

fn sig_xy() -> FuncSig {
    FuncSig::from_pairs([("x", Ty::Int), ("y", Ty::Int)])
}

fn x_plus_y() -> Term {
    Term::var("x").add(Term::var("y"))
}

fn solve_both(preds: &[Pred]) -> SolveResult {
    let results: Vec<SolveResult> = [BackendKind::Tiered, BackendKind::Simplex]
        .into_iter()
        .map(|backend| {
            solve_preds(preds, &sig_xy(), &SolverConfig { backend, ..Default::default() })
        })
        .collect();
    assert_eq!(results[0], results[1], "backends disagree on {preds:?}");
    results[0].clone()
}

#[test]
fn sum_against_i64_min_is_unknown() {
    for op in [CmpOp::Le, CmpOp::Ge, CmpOp::Eq] {
        let preds = [Pred::cmp(op, x_plus_y(), Term::int(i64::MIN))];
        assert_eq!(solve_both(&preds), SolveResult::Unknown, "x + y {op:?} i64::MIN");
    }
}

#[test]
fn sum_above_i64_max_is_unknown() {
    let preds = [Pred::cmp(CmpOp::Gt, x_plus_y(), Term::int(i64::MAX))];
    assert_eq!(solve_both(&preds), SolveResult::Unknown);
}

#[test]
fn i64_min_coefficient_is_unknown() {
    let lhs = Term::var("x").mul(i64::MIN).add(Term::var("y"));
    let preds = [Pred::cmp(CmpOp::Le, lhs, Term::int(1))];
    assert_eq!(solve_both(&preds), SolveResult::Unknown);
}

#[test]
fn int_problem_eq_wraps_i64_min() {
    let mut p = IntProblem::new(2);
    p.eq(vec![i64::MIN, 1], i64::MIN);
    assert_eq!(p.rows[1], (vec![i64::MIN, -1], i64::MIN), "negation wraps as in release");
}
