//! Property-based tests for the solver: agreement with brute-force search
//! over small windows, model soundness by construction, and the sparse
//! simplex pivot against a dense reference.

use minilang::{InputValue, MethodEntryState, Ty};
use proptest::prelude::*;
use solver::simplex::solve_lp_within;
use solver::{solve_preds, FuncSig, Lp, Rat, SolveResult, SolverConfig};
use symbolic::eval::eval_on_state;
use symbolic::{CmpOp, Formula, Pred, Term};

fn sig_xy() -> FuncSig {
    FuncSig::from_pairs([("x", Ty::Int), ("y", Ty::Int)])
}

fn term_xy() -> impl Strategy<Value = Term> {
    let leaf =
        prop_oneof![(-6i64..=6).prop_map(Term::int), Just(Term::var("x")), Just(Term::var("y")),];
    leaf.prop_recursive(1, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), -3i64..=3).prop_map(|(a, k)| a.mul(k)),
            (inner.clone(), prop_oneof![Just(2i64), Just(3)]).prop_map(|(a, k)| a.div(k)),
            (inner, prop_oneof![Just(2i64), Just(5)]).prop_map(|(a, k)| a.rem(k)),
        ]
    })
}

fn pred_xy() -> impl Strategy<Value = Pred> {
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

fn satisfied(preds: &[Pred], x: i64, y: i64) -> bool {
    let st = MethodEntryState::from_pairs([
        ("x".to_string(), InputValue::Int(x)),
        ("y".to_string(), InputValue::Int(y)),
    ]);
    preds.iter().all(|p| eval_on_state(&Formula::pred(p.clone()), &st) == Ok(true))
}

proptest! {
    // Debug-mode exact-rational arithmetic makes each solve expensive; a
    // moderate case count keeps the suite fast while release runs (and CI
    // with PROPTEST_CASES) can crank it up.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whenever brute force finds a model in [-8, 8]², the solver must not
    /// say Unsat; whenever the solver returns Sat, the model satisfies the
    /// conjunction (the solver re-validates internally, but assert anyway).
    #[test]
    fn agrees_with_window_brute_force(preds in proptest::collection::vec(pred_xy(), 1..4)) {
        let mut witness = None;
        'outer: for x in -8..=8 {
            for y in -8..=8 {
                if satisfied(&preds, x, y) {
                    witness = Some((x, y));
                    break 'outer;
                }
            }
        }
        match solve_preds(&preds, &sig_xy(), &SolverConfig::default()) {
            SolveResult::Sat(model) => {
                let all = preds.iter().all(|p| {
                    eval_on_state(&Formula::pred(p.clone()), &model) == Ok(true)
                });
                prop_assert!(all, "model {model} violates the conjunction");
            }
            SolveResult::Unsat => {
                prop_assert!(witness.is_none(), "solver said Unsat but {witness:?} satisfies");
            }
            SolveResult::Unknown => {}
        }
    }

    /// A conjunction together with its own negated first element is Unsat.
    #[test]
    fn pred_and_negation_unsat(p in pred_xy()) {
        let preds = vec![p.clone(), p.negated()];
        match solve_preds(&preds, &sig_xy(), &SolverConfig::default()) {
            SolveResult::Sat(m) => {
                // Only possible if evaluation is undefined — impossible for
                // pure int terms.
                prop_assert!(false, "sat on contradiction: {m}");
            }
            SolveResult::Unsat | SolveResult::Unknown => {}
        }
    }
}

/// A dense two-phase simplex, kept here only as the reference for the
/// sparse pivot in `solver::simplex`: the same tableau layout, entering and
/// leaving rules, work charge and growth guard, but every pivot walks every
/// cell and then rescans the whole tableau for oversized entries.
mod dense {
    use solver::{Lp, LpResult, Rat};

    const MAX_COEF_BITS: u32 = 48;
    const STALL_LIMIT: u32 = 16;

    fn oversized(r: &Rat) -> bool {
        r.num().unsigned_abs() >= 1u128 << MAX_COEF_BITS
            || r.den().unsigned_abs() >= 1u128 << MAX_COEF_BITS
    }

    struct Tableau {
        n: usize,
        m: usize,
        cols: usize,
        t: Vec<Vec<Rat>>,
        basis: Vec<usize>,
        work_left: u64,
        aborted: bool,
    }

    impl Tableau {
        fn pivot(&mut self, row: usize, col: usize) {
            let cost = ((self.m + 1) * (self.cols + 1)) as u64;
            if self.work_left < cost {
                self.aborted = true;
                return;
            }
            self.work_left -= cost;
            let inv = self.t[row][col].recip();
            for j in 0..=self.cols {
                self.t[row][j] = self.t[row][j] * inv;
            }
            for i in 0..=self.m {
                let factor = self.t[i][col];
                if i == row || factor.is_zero() {
                    continue;
                }
                for j in 0..=self.cols {
                    let delta = factor * self.t[row][j];
                    self.t[i][j] = self.t[i][j] - delta;
                }
            }
            self.basis[row] = col;
            if !self.aborted {
                self.aborted = self.t.iter().flatten().any(oversized);
            }
        }

        fn entering(&self, allowed: usize, bland: bool) -> Option<usize> {
            let costs = &self.t[self.m][..allowed];
            if bland {
                return costs.iter().position(Rat::is_negative);
            }
            let mut best: Option<usize> = None;
            for (j, c) in costs.iter().enumerate() {
                if c.is_negative() && best.is_none_or(|b| *c < costs[b]) {
                    best = Some(j);
                }
            }
            best
        }

        fn optimize(&mut self, allowed: usize) -> bool {
            let mut stalled = 0u32;
            loop {
                if self.aborted {
                    return true;
                }
                let Some(col) = self.entering(allowed, stalled >= STALL_LIMIT) else {
                    return true;
                };
                let mut leave: Option<(usize, Rat)> = None;
                for i in 0..self.m {
                    if self.t[i][col].is_positive() {
                        let ratio = self.t[i][self.cols] / self.t[i][col];
                        if leave.is_none_or(|(bi, br)| {
                            ratio < br || (ratio == br && self.basis[i] < self.basis[bi])
                        }) {
                            leave = Some((i, ratio));
                        }
                    }
                }
                let Some((row, _)) = leave else {
                    return false;
                };
                let before = self.t[self.m][self.cols];
                self.pivot(row, col);
                stalled =
                    if self.t[self.m][self.cols] == before { stalled.saturating_add(1) } else { 0 };
            }
        }

        fn install_objective(&mut self, c: &[Rat]) {
            let m = self.m;
            self.t[m] = vec![Rat::ZERO; self.cols + 1];
            self.t[m][..c.len()].copy_from_slice(c);
            for i in 0..m {
                let coef = self.t[m][self.basis[i]];
                if coef.is_zero() {
                    continue;
                }
                for j in 0..=self.cols {
                    let delta = coef * self.t[i][j];
                    self.t[m][j] = self.t[m][j] - delta;
                }
            }
        }

        fn extract_x(&self) -> Vec<Rat> {
            let mut x = vec![Rat::ZERO; self.n];
            for (i, &b) in self.basis.iter().enumerate() {
                if b < self.n {
                    x[b] = self.t[i][self.cols];
                }
            }
            x
        }
    }

    /// `solver::simplex::solve_lp_within` with the dense pivot.
    pub fn solve_lp_within(lp: &Lp, work: &mut u64) -> LpResult {
        let (n, m) = (lp.num_vars, lp.rows.len());
        let art = lp.rows.iter().filter(|(_, b)| b.is_negative()).count();
        let cols = n + m + art;
        let mut t = vec![vec![Rat::ZERO; cols + 1]; m + 1];
        let mut basis = vec![0usize; m];
        let mut next_art = n + m;
        for (i, (a, b)) in lp.rows.iter().enumerate() {
            let sign = if b.is_negative() { -Rat::ONE } else { Rat::ONE };
            for (j, &coef) in a.iter().enumerate() {
                t[i][j] = coef * sign;
            }
            t[i][n + i] = sign;
            t[i][cols] = *b * sign;
            if b.is_negative() {
                t[i][next_art] = Rat::ONE;
                basis[i] = next_art;
                next_art += 1;
            } else {
                basis[i] = n + i;
            }
        }
        let aborted = t.iter().flatten().any(oversized);
        let mut tab = Tableau { n, m, cols, t, basis, work_left: *work, aborted };
        let res = tab.solve(&lp.objective);
        *work = tab.work_left;
        res
    }

    impl Tableau {
        fn solve(&mut self, objective: &[Rat]) -> LpResult {
            if self.aborted {
                return LpResult::Blowup;
            }
            if self.cols > self.n + self.m {
                let mut phase1 = vec![Rat::ZERO; self.cols];
                for slot in phase1.iter_mut().skip(self.n + self.m) {
                    *slot = Rat::ONE;
                }
                self.install_objective(&phase1);
                self.optimize(self.cols);
                if self.aborted {
                    return LpResult::Blowup;
                }
                if !self.t[self.m][self.cols].is_zero() {
                    return LpResult::Infeasible;
                }
                for i in 0..self.m {
                    if self.aborted {
                        return LpResult::Blowup;
                    }
                    if self.basis[i] >= self.n + self.m {
                        if let Some(col) = (0..self.n + self.m).find(|&j| !self.t[i][j].is_zero()) {
                            self.pivot(i, col);
                        }
                    }
                }
            }
            self.install_objective(objective);
            let bounded = self.optimize(self.n + self.m);
            if self.aborted {
                return LpResult::Blowup;
            }
            if !bounded {
                return LpResult::Unbounded { x: self.extract_x() };
            }
            LpResult::Optimal { x: self.extract_x(), obj: -self.t[self.m][self.cols] }
        }
    }
}

/// A small LP coefficient, zero almost half the time (sparse rows); the
/// range is narrow, so equal ratios — degenerate ties in the leaving-row
/// test — come up often.
fn small_coef() -> impl Strategy<Value = i64> {
    (-5i64..=5).prop_map(|v| if v.abs() > 3 { 0 } else { v })
}

/// A random LP with up to 3 variables and 4 rows. Right-hand sides are
/// often negative (phase 1 with artificials) or zero (degenerate
/// vertices). In two cases of three, entries past the growth guard's reach
/// are mixed in: `2^26` in about one constraint cell in four, whose
/// products cross `2^48` within a pivot or two, or `±2^49` in about half
/// the objective cells. The objective row is installed after construction,
/// so only a pivot's post-scan can notice it; a positive one is never an
/// entering column and may sit in a column no pivot writes. The two are
/// exclusive, which keeps every intermediate value far inside `i128`.
fn lp_strategy() -> impl Strategy<Value = Lp> {
    let cell = || (small_coef(), 0u8..4);
    let rows = proptest::collection::vec((proptest::collection::vec(cell(), 3), -4i64..=4), 4);
    let objective = proptest::collection::vec(cell(), 3);
    (1usize..=3, 1usize..=4, 0u8..3, rows, objective).prop_map(|(n, m, big, rows, objective)| {
        let row_cell = |&(v, dice): &(i64, u8)| match (big, dice) {
            (1, 0) => 1 << 26,
            _ => v,
        };
        let objective_cell = |&(v, dice): &(i64, u8)| match (big, dice) {
            (2, 0) => -(1 << 49),
            (2, 1) => 1 << 49,
            _ => v,
        };
        Lp {
            num_vars: n,
            rows: rows[..m]
                .iter()
                .map(|(a, b)| {
                    (a[..n].iter().map(row_cell).map(Rat::from_int).collect(), Rat::from_int(*b))
                })
                .collect(),
            objective: objective[..n].iter().map(objective_cell).map(Rat::from_int).collect(),
        }
    })
}

/// Work pools from "not even one pivot" to unlimited, so some solves run
/// out mid-phase and must report `Blowup` with the same remaining pool.
fn work_pool() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..=40, 40u64..=400, Just(u64::MAX)]
}

proptest! {
    // Pure LP solves are cheap even in debug builds.
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The sparse pivot is the dense one minus the no-op cells: same
    /// verdict, same point, same objective, and the same work charged,
    /// `Blowup` from the growth guard or an exhausted pool included.
    #[test]
    fn sparse_pivot_matches_dense_reference(lp in lp_strategy(), pool in work_pool()) {
        let (mut sparse_pool, mut dense_pool) = (pool, pool);
        let sparse = solve_lp_within(&lp, &mut sparse_pool);
        let dense = dense::solve_lp_within(&lp, &mut dense_pool);
        prop_assert_eq!(&sparse, &dense, "{:?}", lp);
        prop_assert_eq!(sparse_pool, dense_pool, "{:?}", lp);
    }
}
