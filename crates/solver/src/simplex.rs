//! Two-phase primal simplex over exact rationals.
//!
//! Solves `min c·x  s.t.  A·x ≤ b, x ≥ 0`. Problem sizes here (path
//! conditions) are tens of variables and rows, so a dense rational tableau
//! is simple and fast enough. Most of its cells are zero, so a pivot
//! updates only the columns where the pivot row is nonzero, in the rows
//! where the pivot column is nonzero.
//!
//! ## Pivot rule: Dantzig with a Bland's-rule fallback
//!
//! The entering column is chosen by Dantzig's rule (most negative reduced
//! cost) because it converges in few pivots on real tableaus. Dantzig
//! alone can cycle on degenerate problems, so after [`STALL_LIMIT`]
//! consecutive pivots with no objective improvement the rule falls back
//! to Bland's (first negative reduced cost), which provably terminates
//! from any tableau; any strict improvement returns to Dantzig. Leaving
//! rows always use the minimum-ratio test with a lowest-basis-index
//! tiebreak, so the search stays deterministic.
//!
//! ## Resource guards
//!
//! Exact rationals have two failure modes a float tableau does not:
//!
//! * **Coefficient growth** — adversarial mixes of `rem`, multiplication,
//!   and array-length constraints produce pivot sequences whose entries
//!   gain bits every iteration, so each pivot costs more than the last
//!   (gcd normalization over ever-larger integers) until a `Rat`
//!   operation overflows `i128` and panics. A magnitude guard aborts the
//!   solve when any entry's numerator or denominator reaches
//!   [`MAX_COEF_BITS`] bits.
//! * **Pivot blowup** — degenerate stalls can burn thousands of pivots in
//!   a single solve, branch-and-bound multiplies that per node, and the
//!   tableau itself grows with branching depth so late pivots cost far
//!   more than early ones. A work allowance ([`solve_lp_within`]) charges
//!   every pivot's actual cell count against a caller-owned pool so total
//!   simplex *work* — not just pivot count — stays proportional to the
//!   caller's budget.
//!
//! Either guard tripping yields [`LpResult::Blowup`] — "no verdict",
//! which `intsolve` maps to `Unknown`, the same answer a budget exhaust
//! gives. Neither guard is reachable by realistic path-condition queries;
//! they only bound the adversarial tail.

use crate::rational::Rat;

/// Coefficient-magnitude guard threshold, in bits.
///
/// Real path-condition tableaus keep entries within a few decimal digits
/// (program constants, array lengths ≤ the model cap, small
/// subdeterminants); 48 bits (~2.8e14) is orders of magnitude above any
/// of that, while still leaving `i128` headroom so the pivot that crosses
/// the line normally completes and is caught right after.
const MAX_COEF_BITS: u32 = 48;

/// Consecutive non-improving pivots tolerated under Dantzig's rule before
/// the entering-column choice falls back to Bland's rule.
const STALL_LIMIT: u32 = 16;

/// True when `r`'s numerator or denominator has reached the guard bound.
fn oversized(r: &Rat) -> bool {
    r.num().unsigned_abs() >= 1u128 << MAX_COEF_BITS
        || r.den().unsigned_abs() >= 1u128 << MAX_COEF_BITS
}

/// A linear program in `min c·x, A·x ≤ b, x ≥ 0` form.
#[derive(Debug, Clone)]
pub struct Lp {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Rows `(a, b)` meaning `a · x ≤ b` (`a.len() == num_vars`).
    pub rows: Vec<(Vec<Rat>, Rat)>,
    /// Objective coefficients (`len == num_vars`); minimized.
    pub objective: Vec<Rat>,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpResult {
    /// No feasible point exists.
    Infeasible,
    /// An optimal vertex.
    Optimal { x: Vec<Rat>, obj: Rat },
    /// The objective is unbounded below; `x` is some feasible point.
    Unbounded { x: Vec<Rat> },
    /// A resource guard tripped mid-solve — exact-rational entries blew
    /// past [`MAX_COEF_BITS`] bits, or the caller's work allowance ran
    /// dry — and the tableau was abandoned with no verdict. Callers must
    /// treat this as "unknown", never as infeasibility.
    Blowup,
}

impl LpResult {
    /// The solution point, if one exists (optimal or unbounded-feasible).
    pub fn point(&self) -> Option<&[Rat]> {
        match self {
            LpResult::Infeasible | LpResult::Blowup => None,
            LpResult::Optimal { x, .. } | LpResult::Unbounded { x } => Some(x),
        }
    }
}

/// Solves the LP with an effectively unlimited work allowance.
///
/// # Panics
///
/// Panics if row or objective lengths disagree with `num_vars`.
pub fn solve_lp(lp: &Lp) -> LpResult {
    let mut work = u64::MAX;
    solve_lp_within(lp, &mut work)
}

/// Solves the LP, charging every pivot's tableau-cell count (rows ×
/// columns — its actual arithmetic cost, which grows as branch-and-bound
/// stacks branching rows) against `*work`.
///
/// On return `*work` has been decremented by the work performed. When the
/// pool cannot cover a pivot the result is [`LpResult::Blowup`]; sharing
/// one pool across many solves (as branch-and-bound does) caps *total*
/// simplex work, not just one call's.
///
/// # Panics
///
/// Panics if row or objective lengths disagree with `num_vars`.
pub fn solve_lp_within(lp: &Lp, work: &mut u64) -> LpResult {
    for (a, _) in &lp.rows {
        assert_eq!(a.len(), lp.num_vars, "row length mismatch");
    }
    assert_eq!(lp.objective.len(), lp.num_vars, "objective length mismatch");
    let mut t = Tableau::new(lp, *work);
    let res = t.solve();
    *work -= t.work_used;
    res
}

/// Dense simplex tableau.
///
/// Columns: `0..n` structural, `n..n+m` slacks, `n+m..n+m+art` artificials,
/// then the RHS. Row `m` is the current phase's objective row (reduced
/// costs), holding the *negated* objective value in its RHS cell.
struct Tableau {
    n: usize,
    m: usize,
    cols: usize,
    /// `m + 1` rows by `cols + 1` columns.
    t: Vec<Vec<Rat>>,
    basis: Vec<usize>,
    objective: Vec<Rat>,
    /// Work units (tableau cells) still allowed; a pivot that does not
    /// fit aborts the solve.
    work_left: u64,
    /// Work units consumed so far (charged back to the caller's pool).
    work_used: u64,
    /// Sticky flag: a resource guard tripped. Once set the tableau is
    /// dead — no further pivots run and the solve reports
    /// [`LpResult::Blowup`].
    aborted: bool,
    /// The scaled pivot row's nonzero `(column, value)` cells, kept between
    /// pivots so the buffer is allocated once per solve.
    pivot_row: Vec<(usize, Rat)>,
}

impl Tableau {
    fn new(lp: &Lp, allowance: u64) -> Tableau {
        let n = lp.num_vars;
        let m = lp.rows.len();
        let art = lp.rows.iter().filter(|(_, b)| b.is_negative()).count();
        let cols = n + m + art;
        let mut t = vec![vec![Rat::ZERO; cols + 1]; m + 1];
        let mut basis = vec![0usize; m];
        let mut next_art = n + m;
        for (i, (a, b)) in lp.rows.iter().enumerate() {
            let flip = b.is_negative();
            let sign = if flip { -Rat::ONE } else { Rat::ONE };
            for (j, &coef) in a.iter().enumerate() {
                t[i][j] = coef * sign;
            }
            t[i][n + i] = sign; // slack
            t[i][cols] = *b * sign;
            if flip {
                t[i][next_art] = Rat::ONE;
                basis[i] = next_art;
                next_art += 1;
            } else {
                basis[i] = n + i;
            }
        }
        // An input whose raw coefficients already exceed the guard would
        // let the very first pivot blow up before any post-pivot check.
        let aborted = t.iter().flatten().any(oversized);
        Tableau {
            n,
            m,
            cols,
            t,
            basis,
            objective: lp.objective.clone(),
            work_left: allowance,
            work_used: 0,
            aborted,
            pivot_row: Vec::new(),
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        // Charge the dense tableau's cell count, so a pivot on a
        // branching-bloated 200-row tableau costs its true weight rather
        // than the same single tick as a 3-row one. The sparse update below
        // does less arithmetic, but the charge (and so every budget and
        // `Blowup` verdict) stays the dense one.
        let cost = ((self.m + 1) * (self.cols + 1)) as u64;
        if self.work_left < cost {
            self.aborted = true;
            return;
        }
        self.work_left -= cost;
        self.work_used += cost;
        let pivot_val = self.t[row][col];
        debug_assert!(!pivot_val.is_zero());
        let inv = pivot_val.recip();
        // Scale the pivot row and keep its nonzero cells: a zero cell is a
        // fixed point of both the scaling (0 · inv = 0) and the row update
        // (delta = 0), so only these columns change anywhere.
        let mut nonzero = std::mem::take(&mut self.pivot_row);
        nonzero.clear();
        for (j, cell) in self.t[row].iter_mut().enumerate() {
            if !cell.is_zero() {
                *cell = *cell * inv;
                nonzero.push((j, *cell));
            }
        }
        let mut grew = nonzero.iter().any(|(_, v)| oversized(v));
        for (i, r) in self.t.iter_mut().enumerate() {
            let factor = r[col];
            if i == row || factor.is_zero() {
                continue;
            }
            for &(j, v) in &nonzero {
                r[j] = r[j] - factor * v;
                grew |= oversized(&r[j]);
            }
        }
        self.pivot_row = nonzero;
        self.basis[row] = col;
        // Growth detection: cells this pivot did not write are unchanged,
        // and while the tableau is live no constraint-row cell is oversized
        // (construction and every earlier pivot checked them), so checking
        // the written cells covers those rows. The objective row is also
        // rewritten by `install_objective`, unchecked, so it is rescanned
        // whole; together this finds exactly what a full-tableau scan would.
        if !self.aborted {
            self.aborted = grew || self.t[self.m].iter().any(oversized);
        }
    }

    /// Entering column by Dantzig's rule: the most negative reduced cost
    /// (lowest index on ties, for determinism).
    fn dantzig_col(&self, allowed: usize) -> Option<usize> {
        let mut best: Option<(usize, Rat)> = None;
        for j in 0..allowed {
            let c = self.t[self.m][j];
            if c.is_negative() && best.as_ref().is_none_or(|(_, b)| c < *b) {
                best = Some((j, c));
            }
        }
        best.map(|(j, _)| j)
    }

    /// Entering column by Bland's rule: the first negative reduced cost.
    fn bland_col(&self, allowed: usize) -> Option<usize> {
        (0..allowed).find(|&j| self.t[self.m][j].is_negative())
    }

    /// Runs simplex iterations on the current objective row, considering
    /// entering columns `< allowed`. Returns `false` if the objective is
    /// unbounded below.
    fn optimize(&mut self, allowed: usize) -> bool {
        // Consecutive pivots with no objective movement; at STALL_LIMIT
        // the entering rule degrades from Dantzig to Bland's.
        let mut stalled: u32 = 0;
        loop {
            if self.aborted {
                // Claim "bounded"; `solve` checks `aborted` before
                // trusting any optimize outcome.
                return true;
            }
            let col = if stalled < STALL_LIMIT {
                self.dantzig_col(allowed)
            } else {
                self.bland_col(allowed)
            };
            let Some(col) = col else {
                return true;
            };
            let mut leave: Option<(usize, Rat)> = None;
            for i in 0..self.m {
                if self.t[i][col].is_positive() {
                    let ratio = self.t[i][self.cols] / self.t[i][col];
                    let better = match &leave {
                        None => true,
                        Some((bi, br)) => {
                            ratio < *br || (ratio == *br && self.basis[i] < self.basis[*bi])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((row, _)) = leave else {
                return false;
            };
            let before = self.t[self.m][self.cols];
            self.pivot(row, col);
            // A degenerate pivot leaves the (negated) objective cell
            // untouched; strict movement resets the stall counter and
            // with it the Dantzig rule. Bland's terminates from any
            // tableau, so every stall phase ends — in an optimum, an
            // unbounded ray, or an improving pivot.
            if self.t[self.m][self.cols] == before {
                stalled = stalled.saturating_add(1);
            } else {
                stalled = 0;
            }
        }
    }

    /// Installs `c` as the objective row, reduced against the current basis.
    fn install_objective(&mut self, c: &[Rat]) {
        for j in 0..=self.cols {
            self.t[self.m][j] = Rat::ZERO;
        }
        for (j, coef) in c.iter().enumerate() {
            self.t[self.m][j] = *coef;
        }
        for i in 0..self.m {
            let b = self.basis[i];
            let coef = self.t[self.m][b];
            if coef.is_zero() {
                continue;
            }
            for j in 0..=self.cols {
                let delta = coef * self.t[i][j];
                self.t[self.m][j] = self.t[self.m][j] - delta;
            }
        }
    }

    fn extract_x(&self) -> Vec<Rat> {
        let mut x = vec![Rat::ZERO; self.n];
        for i in 0..self.m {
            if self.basis[i] < self.n {
                x[self.basis[i]] = self.t[i][self.cols];
            }
        }
        x
    }

    fn solve(&mut self) -> LpResult {
        if self.aborted {
            return LpResult::Blowup;
        }
        let has_artificials = self.cols > self.n + self.m;
        if has_artificials {
            // Phase 1: minimize the sum of artificial variables. The cost of
            // each artificial is 1; reduce against the (artificial) basis.
            let mut phase1 = vec![Rat::ZERO; self.cols];
            for slot in phase1.iter_mut().skip(self.n + self.m) {
                *slot = Rat::ONE;
            }
            self.install_objective(&phase1);
            let bounded = self.optimize(self.cols);
            debug_assert!(bounded, "phase-1 objective is bounded below by 0");
            if self.aborted {
                return LpResult::Blowup;
            }
            if !self.t[self.m][self.cols].is_zero() {
                return LpResult::Infeasible;
            }
            // Drive remaining zero-valued artificials out of the basis.
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
        // Phase 2 with the real objective; artificials may not re-enter.
        let c = self.objective.clone();
        self.install_objective(&c);
        let allowed = self.n + self.m;
        let bounded = self.optimize(allowed);
        if self.aborted {
            return LpResult::Blowup;
        }
        if !bounded {
            return LpResult::Unbounded { x: self.extract_x() };
        }
        let x = self.extract_x();
        let obj = -self.t[self.m][self.cols];
        LpResult::Optimal { x, obj }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Rat {
        Rat::from_int(v)
    }

    fn row(coefs: &[i64], b: i64) -> (Vec<Rat>, Rat) {
        (coefs.iter().map(|&c| r(c)).collect(), r(b))
    }

    #[test]
    fn trivial_feasible_minimum() {
        // min x  s.t.  x <= 10, -x <= -3  (i.e. x >= 3)
        let lp =
            Lp { num_vars: 1, rows: vec![row(&[1], 10), row(&[-1], -3)], objective: vec![r(1)] };
        match solve_lp(&lp) {
            LpResult::Optimal { x, obj } => {
                assert_eq!(x[0], r(3));
                assert_eq!(obj, r(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infeasible_system() {
        // x <= 1 and x >= 3
        let lp =
            Lp { num_vars: 1, rows: vec![row(&[1], 1), row(&[-1], -3)], objective: vec![r(0)] };
        assert_eq!(solve_lp(&lp), LpResult::Infeasible);
    }

    #[test]
    fn two_variable_optimum() {
        // min -x - y  s.t. x + y <= 4, x <= 2, y <= 3
        let lp = Lp {
            num_vars: 2,
            rows: vec![row(&[1, 1], 4), row(&[1, 0], 2), row(&[0, 1], 3)],
            objective: vec![r(-1), r(-1)],
        };
        match solve_lp(&lp) {
            LpResult::Optimal { obj, .. } => assert_eq!(obj, r(-4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbounded_detected() {
        // min -x  s.t. -x <= 0 (x >= 0 only)
        let lp = Lp { num_vars: 1, rows: vec![row(&[-1], 0)], objective: vec![r(-1)] };
        assert!(matches!(solve_lp(&lp), LpResult::Unbounded { .. }));
    }

    #[test]
    fn fractional_vertex() {
        // min -x s.t. 2x <= 5  → x = 5/2
        let lp = Lp { num_vars: 1, rows: vec![row(&[2], 5)], objective: vec![r(-1)] };
        match solve_lp(&lp) {
            LpResult::Optimal { x, .. } => assert_eq!(x[0], Rat::new(5, 2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_via_two_rows() {
        // x + y = 3 (as <= and >=), min x → x=0, y=3
        let lp = Lp {
            num_vars: 2,
            rows: vec![row(&[1, 1], 3), row(&[-1, -1], -3)],
            objective: vec![r(1), r(0)],
        };
        match solve_lp(&lp) {
            LpResult::Optimal { x, obj } => {
                assert_eq!(obj, r(0));
                assert_eq!(x[0] + x[1], r(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_coefficients_abort_with_blowup_not_a_verdict() {
        // An entry past the magnitude guard kills the solve before any
        // pivot can push exact-rational arithmetic toward i128 overflow.
        let big = Rat::from_int(1i64 << 50);
        let lp = Lp { num_vars: 1, rows: vec![(vec![big], Rat::ONE)], objective: vec![r(-1)] };
        let res = solve_lp(&lp);
        assert_eq!(res, LpResult::Blowup);
        assert!(res.point().is_none(), "Blowup must not expose a point");
    }

    #[test]
    fn guard_is_far_above_realistic_magnitudes() {
        // Path-condition-sized coefficients (array-length caps, program
        // constants) sail through: the guard only exists for pathological
        // pivot growth.
        let lp = Lp {
            num_vars: 1,
            rows: vec![row(&[4096], 1 << 20), row(&[-1], 0)],
            objective: vec![r(1)],
        };
        assert!(matches!(solve_lp(&lp), LpResult::Optimal { .. }));
    }

    #[test]
    fn exhausted_work_pool_aborts_and_charges_the_pool() {
        // min -x - y over a triangle needs at least two pivots (each
        // costing 4 rows × 6 columns = 24 work units); a pool covering
        // only the first must abort as Blowup rather than answer.
        let lp = Lp {
            num_vars: 2,
            rows: vec![row(&[1, 1], 4), row(&[1, 0], 2), row(&[0, 1], 3)],
            objective: vec![r(-1), r(-1)],
        };
        let mut pool = 30u64;
        assert_eq!(solve_lp_within(&lp, &mut pool), LpResult::Blowup);
        assert_eq!(pool, 6, "the abandoned solve still charges the pivot it ran");

        // A generous pool reaches the same optimum as the unlimited entry
        // point and reports how much it consumed.
        let mut pool = 10_000u64;
        assert_eq!(solve_lp_within(&lp, &mut pool), solve_lp(&lp));
        assert!(pool < 10_000, "work was charged");
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classic degenerate setup; the Bland fallback must terminate.
        let lp = Lp {
            num_vars: 3,
            rows: vec![row(&[1, 1, 1], 0), row(&[1, -1, 0], 0), row(&[0, 1, -1], 0)],
            objective: vec![r(-1), r(-1), r(-1)],
        };
        // x = 0 is the only feasible point (x+y+z <= 0, x,y,z >= 0).
        match solve_lp(&lp) {
            LpResult::Optimal { obj, .. } => assert_eq!(obj, r(0)),
            other => panic!("{other:?}"),
        }
    }
}
