//! The DP `SpFptasAllocator::solve` replaced, kept for tests only: the
//! binarised expression as boxed `DpNode`s, a fresh table per node and
//! test, a stored best point per leaf bucket, and no pre-check. Kept as it
//! was apart from renames and never improved;
//! `solve_is_pinned_to_the_reference` pins the production solve to it, and
//! `series_convolve_is_pinned_to_the_reference` checks the series nodes of
//! the trees it builds.

use super::{DpWork, SpFptasAllocator};
use crate::error::CoreError;
use crate::Result;
use mrls_dag::{SpDecomposition, SpExpr};
use mrls_model::{AllocationDecision, Instance, JobProfile};

/// The production `series_convolve` with the signature `build_dp_reference`
/// was written against: fresh vectors, `usize` split points.
pub(super) fn series_convolve_vecs(
    la: &[f64],
    ra: &[f64],
    candidates: &mut u64,
) -> (Vec<f64>, Vec<usize>) {
    let mut min_area = vec![0.0; la.len()];
    let mut split = vec![0; la.len()];
    let mut steps = super::Steps::default();
    super::series_convolve(la, ra, &mut min_area, &mut split, &mut steps, candidates);
    let split = split
        .into_iter()
        .map(|s| {
            if s == u32::MAX {
                usize::MAX
            } else {
                s as usize
            }
        })
        .collect();
    (min_area, split)
}

/// A binarised series-parallel expression annotated with DP tables.
pub(super) enum DpNode {
    Leaf {
        job: usize,
        /// `best_point[b]` = index of the cheapest profile point whose rounded
        /// time fits in `b` buckets (`None` if no point fits).
        best_point: Vec<Option<usize>>,
        min_area: Vec<f64>,
    },
    Series {
        left: Box<DpNode>,
        right: Box<DpNode>,
        /// `split[b]` = bucket budget given to the left child when the total
        /// budget is `b` (`usize::MAX` when infeasible).
        split: Vec<usize>,
        min_area: Vec<f64>,
    },
    Parallel {
        left: Box<DpNode>,
        right: Box<DpNode>,
        min_area: Vec<f64>,
    },
}

impl DpNode {
    pub(super) fn min_area(&self) -> &[f64] {
        match self {
            DpNode::Leaf { min_area, .. }
            | DpNode::Series { min_area, .. }
            | DpNode::Parallel { min_area, .. } => min_area,
        }
    }

    /// Writes the chosen profile-point index of every job under this node
    /// into `choice`, assuming a critical-path budget of `bucket`.
    fn extract(&self, bucket: usize, choice: &mut [usize]) {
        match self {
            DpNode::Leaf {
                job, best_point, ..
            } => {
                choice[*job] =
                    best_point[bucket].expect("extraction only follows feasible buckets");
            }
            DpNode::Series {
                left, right, split, ..
            } => {
                let left_budget = split[bucket];
                debug_assert_ne!(left_budget, usize::MAX);
                left.extract(left_budget, choice);
                right.extract(bucket - left_budget, choice);
            }
            DpNode::Parallel { left, right, .. } => {
                left.extract(bucket, choice);
                right.extract(bucket, choice);
            }
        }
    }
}

/// Binarises an [`SpExpr`] into nested two-child series/parallel nodes.
pub(super) fn binarize(expr: &SpExpr) -> SpExpr {
    match expr {
        SpExpr::Job(j) => SpExpr::Job(*j),
        SpExpr::Series(children) => fold_binary(children, true),
        SpExpr::Parallel(children) => fold_binary(children, false),
    }
}

fn fold_binary(children: &[SpExpr], series: bool) -> SpExpr {
    let mut iter = children.iter().map(binarize);
    let first = iter.next().expect("SP expressions have at least one child");
    iter.fold(first, |acc, next| {
        if series {
            SpExpr::Series(vec![acc, next])
        } else {
            SpExpr::Parallel(vec![acc, next])
        }
    })
}

impl SpFptasAllocator {
    /// Runs the FPTAS and returns the allocation decision together with the
    /// smallest feasible target `X` found (a certified *upper* bound scale:
    /// `L_min ≥ X_final / (1+ε)` because `X_final/(1+ε)` was infeasible).
    pub(super) fn solve_reference(
        &self,
        instance: &Instance,
        profiles: &[JobProfile],
    ) -> Result<(AllocationDecision, f64)> {
        let n = instance.num_jobs();
        if n == 0 {
            return Ok((vec![], 0.0));
        }
        let decomposition =
            SpDecomposition::decompose(&instance.dag).map_err(|_| CoreError::NotSeriesParallel)?;
        let expr = binarize(&decomposition.expr);
        let height = instance.dag.height().max(1);

        // Lower bound on L_min: every job contributes its minimum area to A,
        // and each job alone forces max(t, a) >= min_p max(t, a).
        let area_lb: f64 = profiles.iter().map(|p| p.min_area_point().area).sum();
        let single_lb = profiles
            .iter()
            .map(|p| {
                let pt = p.min_max_time_area_point();
                pt.time.max(pt.area)
            })
            .fold(0.0f64, f64::max);
        // Critical-path lower bound with every job at its fastest.
        let min_times: Vec<f64> = profiles.iter().map(|p| p.min_time_point().time).collect();
        let cp_lb = instance.dag.critical_path_length(&min_times);
        let mut lo = area_lb.max(single_lb).max(cp_lb).max(1e-12);

        // Upper bound: the local min-max heuristic decision.
        let heuristic: AllocationDecision = profiles
            .iter()
            .map(|p| p.min_max_time_area_point().alloc.clone())
            .collect();
        let mut hi = instance.lower_bound_of(&heuristic)?.max(lo * (1.0 + 1e-9));

        let mut work = DpWork::default();
        let mut best: Option<(AllocationDecision, f64)> = None;
        // If the upper bound is already feasible (it is, by construction of the
        // DP with X = hi), remember it; then shrink towards lo.
        for _ in 0..100 {
            if hi / lo <= 1.0 + self.epsilon / 4.0 {
                break;
            }
            let x = (lo * hi).sqrt();
            match self.feasible_reference(x, &expr, profiles, height, n, &mut work) {
                Some(decision) => {
                    best = Some((decision, x));
                    hi = x;
                }
                None => {
                    lo = x;
                }
            }
        }
        if best.is_none() {
            // Fall back to the heuristic upper bound: X = hi must be feasible.
            if let Some(decision) =
                self.feasible_reference(hi, &expr, profiles, height, n, &mut work)
            {
                best = Some((decision, hi));
            }
        }
        if mrls_obs::enabled() {
            mrls_obs::counter_add("fptas.solves", 1);
            mrls_obs::counter_add("fptas.feasibility_tests", work.feasibility_tests);
            mrls_obs::counter_add("fptas.series_nodes", work.series_nodes);
            mrls_obs::counter_add("fptas.series_candidates", work.series_candidates);
        }
        match best {
            Some((decision, x)) => Ok((decision, x)),
            // As a last resort return the heuristic decision itself.
            None => Ok((heuristic, hi)),
        }
    }

    /// DP feasibility test: is there an allocation with `A ≤ X` and
    /// `C ≤ (1+ε)X`? Returns the allocation decision if so.
    fn feasible_reference(
        &self,
        x: f64,
        expr: &SpExpr,
        profiles: &[JobProfile],
        height: usize,
        n: usize,
        work: &mut DpWork,
    ) -> Option<AllocationDecision> {
        work.feasibility_tests += 1;
        let (delta, max_bucket) = self.buckets(x, height, n);
        let node = self.build_dp_reference(expr, profiles, delta, max_bucket, x, work)?;
        let areas = node.min_area();
        let feasible_bucket = (0..=max_bucket).find(|&b| areas[b] <= x + 1e-9)?;
        let mut choice = vec![usize::MAX; n];
        node.extract(feasible_bucket, &mut choice);
        let decision = profiles
            .iter()
            .enumerate()
            .map(|(j, p)| p.points()[choice[j]].alloc.clone())
            .collect();
        Some(decision)
    }

    pub(super) fn build_dp_reference(
        &self,
        expr: &SpExpr,
        profiles: &[JobProfile],
        delta: f64,
        max_bucket: usize,
        x: f64,
        work: &mut DpWork,
    ) -> Option<DpNode> {
        match expr {
            SpExpr::Job(j) => {
                let profile = &profiles[*j];
                let mut best_point = vec![None; max_bucket + 1];
                let mut min_area = vec![f64::INFINITY; max_bucket + 1];
                for (k, p) in profile.points().iter().enumerate() {
                    if p.time > (1.0 + self.epsilon) * x + 1e-12 {
                        continue;
                    }
                    let b = ((p.time / delta).ceil() as usize).min(max_bucket + 1);
                    if b > max_bucket {
                        continue;
                    }
                    if p.area < min_area[b] {
                        min_area[b] = p.area;
                        best_point[b] = Some(k);
                    }
                }
                // Cumulative minima: a budget of b buckets can also use any
                // cheaper point that fits in fewer buckets.
                for b in 1..=max_bucket {
                    if min_area[b - 1] < min_area[b] {
                        min_area[b] = min_area[b - 1];
                        best_point[b] = best_point[b - 1];
                    }
                }
                if min_area[max_bucket].is_infinite() {
                    return None;
                }
                Some(DpNode::Leaf {
                    job: *j,
                    best_point,
                    min_area,
                })
            }
            SpExpr::Parallel(children) => {
                debug_assert_eq!(children.len(), 2, "expression is binarised");
                let left =
                    self.build_dp_reference(&children[0], profiles, delta, max_bucket, x, work)?;
                let right =
                    self.build_dp_reference(&children[1], profiles, delta, max_bucket, x, work)?;
                let min_area: Vec<f64> = (0..=max_bucket)
                    .map(|b| left.min_area()[b] + right.min_area()[b])
                    .collect();
                Some(DpNode::Parallel {
                    left: Box::new(left),
                    right: Box::new(right),
                    min_area,
                })
            }
            SpExpr::Series(children) => {
                debug_assert_eq!(children.len(), 2, "expression is binarised");
                let left =
                    self.build_dp_reference(&children[0], profiles, delta, max_bucket, x, work)?;
                let right =
                    self.build_dp_reference(&children[1], profiles, delta, max_bucket, x, work)?;
                work.series_nodes += 1;
                let (min_area, split) = series_convolve_vecs(
                    left.min_area(),
                    right.min_area(),
                    &mut work.series_candidates,
                );
                if min_area[max_bucket].is_infinite() {
                    return None;
                }
                Some(DpNode::Series {
                    left: Box::new(left),
                    right: Box::new(right),
                    split,
                    min_area,
                })
            }
        }
    }
}
