//! # mrls-lp — a small, self-contained linear-programming solver
//!
//! Phase 1 of the multi-resource scheduling algorithm (Lemma 3 of the paper)
//! solves a linear-programming relaxation of the Discrete Time-Cost Tradeoff
//! problem: minimise the makespan lower bound `L` subject to the critical-path
//! constraints `C(p) ≤ L` and the average-area constraint `A(p) ≤ L`, with one
//! convex-combination variable per (job, non-dominated allocation) pair.
//!
//! To keep the reproduction fully self-contained (no external LP solver), this
//! crate implements a classic **dense, two-phase primal simplex** method:
//!
//! * arbitrary `≤`, `≥`, `=` constraints over non-negative variables,
//! * phase 1 drives artificial variables out of the basis (detecting
//!   infeasibility), phase 2 optimises the real objective,
//! * Dantzig pricing with an automatic switch to Bland's rule after a
//!   degeneracy streak, which guarantees termination in exact arithmetic
//!   (in floating point a solve can still end in
//!   [`LpError::IterationLimit`]),
//! * unboundedness detection,
//! * per-solve pivot counts ([`PivotCounts`]: phase 1, phase 2, and pivots
//!   chosen under Bland's rule) on every [`Solution`].
//!
//! Each iteration prices row by row, skipping rows whose basic cost is zero,
//! into one reused reduced-cost buffer, and a pivot updates every other row
//! only at the nonzero columns of the normalised pivot row (see
//! [`simplex`]). A test-only copy of the column-by-column solver this one
//! replaced pins it: on fixed-seed generated programs, including the
//! scheduler's time–cost tradeoff relaxations, both return the same outcome,
//! objective and solution, compared with `==`.
//!
//! The relaxations a 20-second `serve-dag` benchmark run solves average 360
//! variables and 76 constraint rows, at most 738 × 139 (before slack and
//! artificial columns), which a dense row-major tableau handles comfortably.
//!
//! ## Example
//!
//! ```
//! use mrls_lp::{LinearProgram, Relation, LpOutcome};
//!
//! // minimise -x0 - 2 x1  subject to  x0 + x1 <= 4,  x1 <= 3,  x >= 0
//! let mut lp = LinearProgram::minimize(2, vec![-1.0, -2.0]);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0).unwrap();
//! lp.add_constraint(vec![(1, 1.0)], Relation::Le, 3.0).unwrap();
//! match lp.solve().unwrap() {
//!     LpOutcome::Optimal(sol) => {
//!         assert!((sol.objective - (-7.0)).abs() < 1e-7);
//!         assert!((sol.x[0] - 1.0).abs() < 1e-7);
//!         assert!((sol.x[1] - 3.0).abs() < 1e-7);
//!     }
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod problem;
#[cfg(test)]
mod reference;
pub mod simplex;

pub use problem::{Constraint, LinearProgram, LpError, Relation};
pub use simplex::{LpOutcome, PivotCounts, Solution};
