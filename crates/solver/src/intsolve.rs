//! Integer feasibility by branch & bound on the rational relaxation.
//!
//! Variables are *free* integers (path-condition variables can be negative).
//! Each free `x` is split as `x = x⁺ − x⁻` with `x± ≥ 0`, and the LP
//! minimizes `Σ (x⁺ + x⁻)` — the L1 norm — which both bounds the relaxation
//! (so simplex never reports unbounded) and biases the search toward small,
//! human-readable models, the same bias Pex's model construction shows.

use crate::rational::Rat;
use crate::simplex::{solve_lp_within, Lp, LpResult};

/// A system of integer linear constraints `a · x ≤ b` over free variables.
#[derive(Debug, Clone, Default)]
pub struct IntProblem {
    /// Number of integer variables.
    pub num_vars: usize,
    /// Constraint rows.
    pub rows: Vec<(Vec<i64>, i64)>,
}

impl IntProblem {
    /// Creates a problem with `num_vars` variables and no constraints.
    pub fn new(num_vars: usize) -> Self {
        IntProblem { num_vars, rows: Vec::new() }
    }

    /// Adds `a · x ≤ b`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != num_vars`.
    pub fn le(&mut self, a: Vec<i64>, b: i64) {
        assert_eq!(a.len(), self.num_vars, "row arity mismatch");
        self.rows.push((a, b));
    }

    /// Adds `a · x == b` (as two inequalities). Negation wraps, so an
    /// `i64::MIN` entry stays `i64::MIN` in debug and release alike.
    pub fn eq(&mut self, a: Vec<i64>, b: i64) {
        let neg: Vec<i64> = a.iter().map(|&c| c.wrapping_neg()).collect();
        self.le(a, b);
        self.le(neg, b.wrapping_neg());
    }
}

/// Outcome of an integer solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntResult {
    /// A satisfying integer assignment.
    Sat(Vec<i64>),
    /// Provably no integer solution.
    Unsat,
    /// Budget exhausted before a decision.
    Unknown,
}

/// Simplex work units (tableau cells pivoted over) granted per
/// branch-and-bound node.
///
/// The pool is shared, not per node: a corpus-sized node re-solves its
/// relaxation in a few pivots over a few-hundred-cell tableau, and
/// typical searches decide in a handful of nodes, so real queries use a
/// small fraction of `nodes × 512`. Only adversarial queries — long
/// degenerate pivot runs over branching-bloated tableaus at every node —
/// drain it, which is exactly the per-node cost blowup the pool exists
/// to bound: one exact-rational cell update costs fractions of a
/// microsecond, so the default 20k-node budget caps total simplex work
/// at seconds, not minutes.
const WORK_PER_NODE: u64 = 512;

/// Search budget shared across branch-and-bound nodes (and, at the layer
/// above, across theory-choice branches).
///
/// Two coupled meters: a node count (one per LP relaxation solved) and a
/// simplex work pool charged by [`solve_lp_within`]. Counting nodes
/// alone lets a single pathological relaxation burn unbounded time in
/// pivots; the pool keeps total simplex work proportional to the budget.
#[derive(Debug, Clone)]
pub struct Budget {
    nodes: u64,
    work: u64,
}

impl Budget {
    /// A budget allowing `nodes` LP solves and `nodes ×`
    /// `WORK_PER_NODE` simplex work units overall.
    pub fn new(nodes: u64) -> Self {
        Budget { nodes, work: nodes.saturating_mul(WORK_PER_NODE) }
    }

    /// Consumes one unit; returns false when exhausted.
    pub fn tick(&mut self) -> bool {
        if self.nodes == 0 || self.work == 0 {
            false
        } else {
            self.nodes -= 1;
            true
        }
    }

    /// The shared simplex work pool, for [`solve_lp_within`].
    fn work_pool(&mut self) -> &mut u64 {
        &mut self.work
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new(20_000)
    }
}

/// Solves integer feasibility.
pub fn solve_int(p: &IntProblem, budget: &mut Budget) -> IntResult {
    let mut extra: Vec<(Vec<i64>, i64)> = Vec::new();
    branch(p, &mut extra, budget, 0)
}

fn build_lp(p: &IntProblem, extra: &[(Vec<i64>, i64)]) -> Lp {
    // variables 2i (positive part) and 2i+1 (negative part)
    let n = p.num_vars * 2;
    let mut rows = Vec::with_capacity(p.rows.len() + extra.len());
    for (a, b) in p.rows.iter().chain(extra.iter()) {
        let mut coefs = vec![Rat::ZERO; n];
        for (i, &c) in a.iter().enumerate() {
            coefs[2 * i] = Rat::from_int(c);
            coefs[2 * i + 1] = Rat::from_int(c.wrapping_neg());
        }
        rows.push((coefs, Rat::from_int(*b)));
    }
    Lp { num_vars: n, rows, objective: vec![Rat::ONE; n] }
}

fn branch(
    p: &IntProblem,
    extra: &mut Vec<(Vec<i64>, i64)>,
    budget: &mut Budget,
    depth: u32,
) -> IntResult {
    if !budget.tick() || depth > 200 {
        return IntResult::Unknown;
    }
    let lp = build_lp(p, extra);
    let point = match solve_lp_within(&lp, budget.work_pool()) {
        LpResult::Infeasible => return IntResult::Unsat,
        LpResult::Optimal { x, .. } => x,
        LpResult::Unbounded { x } => x, // unreachable with the L1 objective
        // A simplex resource guard tripped — coefficient-magnitude growth
        // or an exhausted work pool: no relaxation verdict exists for
        // this node, which is the same epistemic state as an exhausted
        // node budget.
        LpResult::Blowup => return IntResult::Unknown,
    };
    // Recover the free variables and find a fractional one.
    let mut values = Vec::with_capacity(p.num_vars);
    let mut fractional: Option<(usize, Rat)> = None;
    for i in 0..p.num_vars {
        let v = point[2 * i] - point[2 * i + 1];
        if v.is_integer() {
            values.push(v.as_integer().expect("integral") as i64);
        } else {
            values.push(0);
            if fractional.is_none() {
                fractional = Some((i, v));
            }
        }
    }
    let Some((i, v)) = fractional else {
        return IntResult::Sat(values);
    };
    // Branch on x_i <= floor(v) then x_i >= ceil(v) — nearest-to-zero first.
    let floor = v.floor() as i64;
    let ceil = v.ceil() as i64;
    let mut unit = vec![0i64; p.num_vars];
    unit[i] = 1;
    let neg_unit: Vec<i64> = unit.iter().map(|&c| -c).collect();
    let branches: [(Vec<i64>, i64); 2] = if v.is_negative() {
        [(neg_unit.clone(), -ceil), (unit.clone(), floor)]
    } else {
        [(unit.clone(), floor), (neg_unit.clone(), -ceil)]
    };
    let mut saw_unknown = false;
    for (a, b) in branches {
        extra.push((a, b));
        let r = branch(p, extra, budget, depth + 1);
        extra.pop();
        match r {
            IntResult::Sat(m) => return IntResult::Sat(m),
            IntResult::Unknown => saw_unknown = true,
            IntResult::Unsat => {}
        }
    }
    if saw_unknown {
        IntResult::Unknown
    } else {
        IntResult::Unsat
    }
}

/// Checks a model against the problem (used by tests and callers that wish
/// to assert soundness).
pub fn satisfies(p: &IntProblem, model: &[i64]) -> bool {
    p.rows.iter().all(|(a, b)| {
        let lhs: i64 = a.iter().zip(model).map(|(&c, &x)| c * x).sum();
        lhs <= *b
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_bounds() {
        // 3 <= x <= 7
        let mut p = IntProblem::new(1);
        p.le(vec![-1], -3);
        p.le(vec![1], 7);
        match solve_int(&p, &mut Budget::default()) {
            IntResult::Sat(m) => {
                assert!(satisfies(&p, &m));
                assert_eq!(m[0], 3, "L1 bias should pick the smallest magnitude");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_solution() {
        // x <= -5
        let mut p = IntProblem::new(1);
        p.le(vec![1], -5);
        match solve_int(&p, &mut Budget::default()) {
            IntResult::Sat(m) => {
                assert!(satisfies(&p, &m));
                assert_eq!(m[0], -5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_over_integers_but_feasible_over_rationals() {
        // 2x == 1 — fractional only. (Encoded as two inequalities.)
        let mut p = IntProblem::new(1);
        p.eq(vec![2], 1);
        assert_eq!(solve_int(&p, &mut Budget::default()), IntResult::Unsat);
    }

    #[test]
    fn two_variable_system() {
        // x + y == 10, x - y <= -4  → y >= 7
        let mut p = IntProblem::new(2);
        p.eq(vec![1, 1], 10);
        p.le(vec![1, -1], -4);
        match solve_int(&p, &mut Budget::default()) {
            IntResult::Sat(m) => {
                assert!(satisfies(&p, &m));
                assert!(m[1] >= 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plainly_contradictory() {
        let mut p = IntProblem::new(1);
        p.le(vec![1], 0);
        p.le(vec![-1], -1);
        assert_eq!(solve_int(&p, &mut Budget::default()), IntResult::Unsat);
    }

    #[test]
    fn unconstrained_vars_default_to_zero() {
        let p = IntProblem::new(3);
        match solve_int(&p, &mut Budget::default()) {
            IntResult::Sat(m) => assert_eq!(m, vec![0, 0, 0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut p = IntProblem::new(2);
        p.eq(vec![2, 2], 5); // unsat over ints; the relaxation needs a branch
        assert_eq!(solve_int(&p, &mut Budget::new(0)), IntResult::Unknown);
    }

    /// Brute-force comparison on random small systems: whenever the solver
    /// answers, it agrees with exhaustive search over a window.
    #[test]
    fn agrees_with_brute_force_on_small_windows() {
        // Deterministic pseudo-random generation (no rand dependency here).
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..200 {
            let nv = (next() % 3 + 1) as usize;
            let nr = (next() % 4 + 1) as usize;
            let mut p = IntProblem::new(nv);
            for _ in 0..nr {
                let a: Vec<i64> = (0..nv).map(|_| (next() % 7) as i64 - 3).collect();
                let b = (next() % 11) as i64 - 5;
                p.le(a, b);
            }
            // Window search in [-6, 6]^nv; if brute force finds a model the
            // solver must answer Sat (its search space is a superset).
            let mut brute: Option<Vec<i64>> = None;
            let w = 6i64;
            let mut idx = vec![-w; nv];
            'outer: loop {
                if satisfies(&p, &idx) {
                    brute = Some(idx.clone());
                    break;
                }
                let mut k = 0;
                loop {
                    idx[k] += 1;
                    if idx[k] <= w {
                        break;
                    }
                    idx[k] = -w;
                    k += 1;
                    if k == nv {
                        break 'outer;
                    }
                }
            }
            match solve_int(&p, &mut Budget::default()) {
                IntResult::Sat(m) => {
                    assert!(satisfies(&p, &m), "solver model violates constraints: {m:?}");
                }
                IntResult::Unsat => {
                    assert!(brute.is_none(), "solver said Unsat but {brute:?} satisfies");
                }
                IntResult::Unknown => {}
            }
        }
    }
}
