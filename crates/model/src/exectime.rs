//! Execution-time functions `t_j(p_j)` for moldable jobs.
//!
//! Assumption 2 of the paper says the execution time of every job is known for
//! every possible allocation; Assumption 3 requires the function to be
//! *monotonic* (more resources never hurt) and to have *non-superlinear*
//! speedup with respect to each resource type:
//!
//! ```text
//! p ⪯ q   ⇒   t(q) ≤ t(p) ≤ (max_i q_i / p_i) · t(q)
//! ```
//!
//! This module provides several families that satisfy Assumption 3 by
//! construction (see the per-variant documentation), plus an explicit
//! table-driven model used for hand-crafted instances such as the Theorem 6
//! lower bound. [`crate::assumptions`] offers checkers that verify the
//! assumption numerically on any candidate allocation grid.

use crate::allocation::Allocation;
use serde::{Deserialize, Serialize};

/// An execution-time model. All variants return a strictly positive, finite
/// time for every allocation with at least one unit per resource type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecTimeSpec {
    /// **Generalised Amdahl model.**
    ///
    /// `t(p) = seq + Σ_i work_i / p_i`.
    ///
    /// `seq` is the inherently sequential part; `work_i` is the parallelisable
    /// work on resource type `i`. Monotonic and non-superlinear: shrinking
    /// allocation `q` to `p` multiplies each term by at most `max_i q_i/p_i`.
    Amdahl {
        /// Sequential (non-parallelisable) time.
        seq: f64,
        /// Parallelisable work per resource type; length `d`.
        work: Vec<f64>,
    },

    /// **Power-law (Downey-style) model.**
    ///
    /// `t(p) = base · Π_i p_i^{-alpha_i}` with `alpha_i ≥ 0` and
    /// `Σ_i alpha_i ≤ 1`, which is exactly the condition under which the
    /// combined speedup stays non-superlinear (the slowdown when shrinking by
    /// per-type ratios `r_i ≥ 1` is `Π r_i^{alpha_i} ≤ (max_i r_i)^{Σ alpha}
    /// ≤ max_i r_i`).
    PowerLaw {
        /// Time under the all-ones allocation.
        base: f64,
        /// Per-type exponents; their sum must be at most 1.
        alpha: Vec<f64>,
    },

    /// **Roofline / bottleneck model.**
    ///
    /// `t(p) = work / min_i min(p_i, plateau_i)`: the job is limited by its
    /// scarcest resource, and each type stops helping beyond its plateau
    /// (maximum useful parallelism). Satisfies Assumption 3 because the
    /// bottleneck term shrinks by at most the largest per-type ratio.
    Roofline {
        /// Total work of the job.
        work: f64,
        /// Per-type plateau (maximum exploitable amount); length `d`.
        plateau: Vec<u64>,
    },

    /// **Communication-penalty model.**
    ///
    /// `t(p) = seq + Σ_i work_i / p_i + Σ_i comm_i · (p_i - 1)` — an Amdahl
    /// profile plus a linear communication/management overhead that grows
    /// with the allocation. The overhead makes large allocations genuinely
    /// unattractive (non-trivial Pareto fronts) while keeping monotonicity of
    /// the *time-optimal prefix*: note that this model is **not** monotonic
    /// beyond the point where overhead dominates, which is precisely why the
    /// dominated-allocation filter of Equation (2) matters. The non-dominated
    /// frontier it induces still satisfies Assumption 3 (see
    /// `assumptions::check_profile_assumption3`).
    CommPenalty {
        /// Sequential time.
        seq: f64,
        /// Parallelisable work per resource type.
        work: Vec<f64>,
        /// Per-unit communication overhead per resource type.
        comm: Vec<f64>,
    },

    /// **Explicit table.** Times are looked up for each allocation; missing
    /// allocations fall back to the nearest dominated entry (the largest
    /// tabulated allocation `⪯` the query), or `fallback` if none exists.
    /// Used by hand-crafted instances (e.g. the Theorem 6 tree, where a job
    /// needs one unit of a single type and any extra resource does not help).
    Table {
        /// Map from allocation amounts to execution time.
        entries: Vec<(Vec<u64>, f64)>,
        /// Time returned when no tabulated allocation is `⪯` the query.
        fallback: f64,
    },

    /// A fixed, allocation-independent execution time (a purely sequential
    /// job). Useful as a degenerate case in tests and for rigid baselines.
    Constant {
        /// The execution time.
        time: f64,
    },
}

impl ExecTimeSpec {
    /// Evaluates the execution time under `alloc`. The allocation must have at
    /// least one unit of every resource type the model refers to; this is
    /// enforced upstream by [`crate::SystemConfig::validate_allocation`].
    pub fn time(&self, alloc: &Allocation) -> f64 {
        self.time_of(alloc.amounts())
    }

    /// [`ExecTimeSpec::time`] on the per-type amounts of an allocation, so
    /// the profile builder can evaluate candidates held in one reused buffer.
    pub(crate) fn time_of(&self, alloc: &[u64]) -> f64 {
        match self {
            ExecTimeSpec::Amdahl { seq, work } => {
                let mut t = *seq;
                for (i, &w) in work.iter().enumerate() {
                    if w > 0.0 && alloc[i] == 0 {
                        return f64::INFINITY;
                    }
                    if w > 0.0 {
                        t += w / alloc[i] as f64;
                    }
                }
                t
            }
            ExecTimeSpec::PowerLaw { base, alpha } => {
                let mut t = *base;
                for (i, &a) in alpha.iter().enumerate() {
                    if a > 0.0 && alloc[i] == 0 {
                        return f64::INFINITY;
                    }
                    if a > 0.0 {
                        t /= (alloc[i] as f64).powf(a);
                    }
                }
                t
            }
            ExecTimeSpec::Roofline { work, plateau } => {
                let bottleneck = plateau
                    .iter()
                    .enumerate()
                    .map(|(i, &m)| alloc[i].min(m.max(1)))
                    .min()
                    .unwrap_or(1);
                if bottleneck == 0 {
                    return f64::INFINITY;
                }
                work / bottleneck as f64
            }
            ExecTimeSpec::CommPenalty { seq, work, comm } => {
                let mut t = *seq;
                for (i, &w) in work.iter().enumerate() {
                    if w > 0.0 && alloc[i] == 0 {
                        return f64::INFINITY;
                    }
                    if w > 0.0 {
                        t += w / alloc[i] as f64;
                    }
                }
                for (i, &c) in comm.iter().enumerate() {
                    t += c * (alloc[i].saturating_sub(1)) as f64;
                }
                t
            }
            ExecTimeSpec::Table { entries, fallback } => {
                // Return the entry for the largest tabulated allocation that
                // fits under `alloc` (component-wise); among those, the
                // smallest time (more resources can only reuse a smaller
                // tabulated configuration, never run slower).
                let mut best: Option<f64> = None;
                for (amounts, t) in entries {
                    let fits = amounts.len() == alloc.len()
                        && amounts.iter().enumerate().all(|(i, &a)| a <= alloc[i]);
                    if fits {
                        best = Some(match best {
                            Some(b) => b.min(*t),
                            None => *t,
                        });
                    }
                }
                best.unwrap_or(*fallback)
            }
            ExecTimeSpec::Constant { time } => *time,
        }
    }

    /// Number of resource types the model refers to, if it is dimension
    /// specific (`None` for [`ExecTimeSpec::Constant`]).
    pub fn dimension(&self) -> Option<usize> {
        match self {
            ExecTimeSpec::Amdahl { work, .. } => Some(work.len()),
            ExecTimeSpec::PowerLaw { alpha, .. } => Some(alpha.len()),
            ExecTimeSpec::Roofline { plateau, .. } => Some(plateau.len()),
            ExecTimeSpec::CommPenalty { work, .. } => Some(work.len()),
            ExecTimeSpec::Table { entries, .. } => entries.first().map(|(a, _)| a.len()),
            ExecTimeSpec::Constant { .. } => None,
        }
    }

    /// A convenience constructor for a Table model describing the Theorem 6
    /// style jobs: the job needs `amount` units of resource `resource_type`
    /// (out of `d` types) and takes `time`; any allocation offering at least
    /// that amount runs in `time`, anything else is effectively not runnable
    /// (`fallback` is a very large value).
    pub fn single_resource_unit(d: usize, resource_type: usize, amount: u64, time: f64) -> Self {
        let mut amounts = vec![0u64; d];
        amounts[resource_type] = amount;
        // A job that "only requires a unit resource allocation from a single
        // resource type" (Theorem 6): other types are requested at zero.
        ExecTimeSpec::Table {
            entries: vec![(amounts, time)],
            fallback: time * 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: &[u64]) -> Allocation {
        Allocation::new(v.to_vec())
    }

    #[test]
    fn amdahl_basic() {
        let m = ExecTimeSpec::Amdahl {
            seq: 1.0,
            work: vec![8.0, 4.0],
        };
        assert!((m.time(&a(&[1, 1])) - 13.0).abs() < 1e-12);
        assert!((m.time(&a(&[8, 4])) - 3.0).abs() < 1e-12);
        assert!((m.time(&a(&[2, 1])) - 9.0).abs() < 1e-12);
        assert_eq!(m.dimension(), Some(2));
    }

    #[test]
    fn amdahl_monotone() {
        let m = ExecTimeSpec::Amdahl {
            seq: 0.5,
            work: vec![10.0, 6.0, 3.0],
        };
        let small = m.time(&a(&[1, 1, 1]));
        let big = m.time(&a(&[4, 2, 3]));
        assert!(big < small);
    }

    #[test]
    fn power_law_basic() {
        let m = ExecTimeSpec::PowerLaw {
            base: 16.0,
            alpha: vec![0.5, 0.5],
        };
        assert!((m.time(&a(&[1, 1])) - 16.0).abs() < 1e-12);
        assert!((m.time(&a(&[4, 4])) - 4.0).abs() < 1e-12);
        assert!((m.time(&a(&[4, 1])) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn roofline_bottleneck() {
        let m = ExecTimeSpec::Roofline {
            work: 24.0,
            plateau: vec![4, 8],
        };
        assert!((m.time(&a(&[1, 8])) - 24.0).abs() < 1e-12);
        assert!((m.time(&a(&[4, 8])) - 6.0).abs() < 1e-12);
        // Beyond the plateau of type 0 there is no further gain.
        assert!((m.time(&a(&[16, 8])) - 6.0).abs() < 1e-12);
        assert_eq!(m.dimension(), Some(2));
    }

    #[test]
    fn comm_penalty_can_be_non_monotone() {
        let m = ExecTimeSpec::CommPenalty {
            seq: 0.0,
            work: vec![4.0],
            comm: vec![1.0],
        };
        // 1 unit: 4.0; 2 units: 2 + 1 = 3; 4 units: 1 + 3 = 4 — large
        // allocations become dominated, which the profile layer prunes.
        assert!((m.time(&a(&[1])) - 4.0).abs() < 1e-12);
        assert!((m.time(&a(&[2])) - 3.0).abs() < 1e-12);
        assert!((m.time(&a(&[4])) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn table_lookup_and_fallback() {
        let m = ExecTimeSpec::Table {
            entries: vec![(vec![2, 1], 5.0), (vec![1, 2], 7.0), (vec![2, 2], 3.0)],
            fallback: 100.0,
        };
        assert!((m.time(&a(&[2, 1])) - 5.0).abs() < 1e-12);
        assert!((m.time(&a(&[2, 2])) - 3.0).abs() < 1e-12);
        assert!((m.time(&a(&[1, 1])) - 100.0).abs() < 1e-12);
        // A bigger allocation can reuse the best smaller configuration.
        assert!((m.time(&a(&[4, 4])) - 3.0).abs() < 1e-12);
        assert_eq!(m.dimension(), Some(2));
    }

    #[test]
    fn single_resource_unit_constructor() {
        let m = ExecTimeSpec::single_resource_unit(3, 1, 1, 1.0);
        assert!((m.time(&a(&[1, 1, 1])) - 1.0).abs() < 1e-12);
        assert!((m.time(&a(&[2, 2, 2])) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_ignores_allocation() {
        let m = ExecTimeSpec::Constant { time: 2.5 };
        assert!((m.time(&a(&[1, 1])) - 2.5).abs() < 1e-12);
        assert!((m.time(&a(&[9, 9])) - 2.5).abs() < 1e-12);
        assert_eq!(m.dimension(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let m = ExecTimeSpec::Amdahl {
            seq: 1.0,
            work: vec![2.0, 3.0],
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: ExecTimeSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn assumption3_holds_for_amdahl_and_powerlaw_samples() {
        let models = vec![
            ExecTimeSpec::Amdahl {
                seq: 1.0,
                work: vec![6.0, 3.0],
            },
            ExecTimeSpec::PowerLaw {
                base: 12.0,
                alpha: vec![0.4, 0.3],
            },
            ExecTimeSpec::Roofline {
                work: 20.0,
                plateau: vec![6, 6],
            },
        ];
        for m in models {
            for p0 in 1..=4u64 {
                for p1 in 1..=4u64 {
                    for q0 in p0..=4u64 {
                        for q1 in p1..=4u64 {
                            let p = a(&[p0, p1]);
                            let q = a(&[q0, q1]);
                            let tp = m.time(&p);
                            let tq = m.time(&q);
                            let ratio = p.max_ratio_from(&q);
                            assert!(tq <= tp + 1e-9, "monotonicity violated for {m:?}");
                            assert!(
                                tp <= ratio * tq + 1e-9,
                                "non-superlinearity violated for {m:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
