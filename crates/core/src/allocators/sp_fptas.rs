//! The FPTAS allocator for series-parallel graphs and trees (Lemma 7, after
//! Lepère, Trystram, Woeginger).
//!
//! The allocator finds a resource allocation `p′` with
//! `L(p′) = max(A(p′), C(p′)) ≤ (1 + ε′)·L_min`, where `ε′ = O(ε)` is the
//! effective approximation slack (see [`SpFptasAllocator::effective_epsilon`]).
//! Combined with the µ-adjustment and list scheduling it yields the improved
//! ratios of Theorems 3 and 4.
//!
//! ## How it works
//!
//! 1. Compute the series-parallel decomposition of the precedence graph
//!    (an error is returned if the graph is not series-parallel).
//! 2. Binary-search a target value `X`. For a fixed `X`, decide with a
//!    dynamic program over the (binarised) decomposition whether an
//!    allocation exists with `A ≤ X` and `C ≤ (1 + ε)·X`:
//!    * execution times are discretised into buckets of width
//!      `δ = ε·X / H`, where `H` is the graph height (the maximum number of
//!      jobs on any path), so rounding the times up to bucket boundaries adds
//!      at most `ε·X` to any path;
//!    * each DP node stores, for every bucket `b`, the minimum achievable
//!      total area when the critical path is at most `b·δ`:
//!      leaves take cumulative minima over their profile points, series nodes
//!      convolve (`C` adds), parallel nodes add area at equal `b` (`C` maxes);
//!    * backpointers allow reconstructing the allocation.
//!
//!    Every table is non-increasing in `b` (IEEE addition is monotone, so
//!    this holds in floating point too), which lets the series convolution
//!    scan only the *steps* of one child table, the buckets where it strictly
//!    drops, instead of all `O(B²)` bucket pairs:
//!    * if the left table has no more steps than the right, each budget `b`
//!      scans the left steps `s ≤ b`: within a run of equal left values the
//!      right value only grows with the left budget, so the run's first
//!      bucket is its best;
//!    * otherwise each budget visits the right steps from the largest down,
//!      which visits the left-budget intervals in increasing order; the
//!      right value is constant on an interval, so its best sum is at the
//!      interval's end, and a binary search finds the first left budget of
//!      the winning interval that reaches it.
//!
//!    Both cases keep the first minimiser under a strict `<`, exactly as the
//!    full scan does, so the tables and split points are bit-identical to it
//!    and each series node costs `O(B·(min #steps + log B))`. The full scan
//!    is kept for tests only as `series_convolve_reference`; a fixed-seed
//!    test pins the two on random table pairs and at every series node of
//!    generated chains, trees, SP and fork-join graphs.
//!
//!    The bucket count is capped (`200 000 / n + 4·H + 16`). The cap no
//!    longer guards the running time, but lifting it changes the buckets and
//!    so the allocations on deep instances such as a 300-job chain.
//! 3. The smallest feasible `X` found gives the returned allocation.
//!
//! Each solve adds the counters `fptas.solves`, `fptas.feasibility_tests`,
//! `fptas.series_nodes` (series convolutions) and `fptas.series_candidates`
//! (the sums they evaluate, binary-search probes included) to `mrls_obs`.

use super::Allocator;
use crate::error::CoreError;
use crate::Result;
use mrls_dag::{SpDecomposition, SpExpr};
use mrls_model::{AllocationDecision, Instance, JobProfile};

/// The series-parallel / tree FPTAS allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpFptasAllocator {
    epsilon: f64,
}

/// The DP work of one solve, added to the obs counters at its end.
#[derive(Debug, Default)]
struct DpWork {
    feasibility_tests: u64,
    series_nodes: u64,
    series_candidates: u64,
}

/// A binarised series-parallel expression annotated with DP tables.
enum DpNode {
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
    fn min_area(&self) -> &[f64] {
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
fn binarize(expr: &SpExpr) -> SpExpr {
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
    /// Creates the allocator with approximation parameter `ε ∈ (0, 1]`.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                valid_range: "(0, 1]",
            });
        }
        Ok(SpFptasAllocator { epsilon })
    }

    /// The configured `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The effective slack `ε′` such that `L(p′) ≤ (1 + ε′)·L_min`: one factor
    /// `(1+ε)` from the time discretisation and one from the binary-search
    /// granularity.
    pub fn effective_epsilon(&self) -> f64 {
        (1.0 + self.epsilon) * (1.0 + self.epsilon) - 1.0
    }

    /// Runs the FPTAS and returns the allocation decision together with the
    /// smallest feasible target `X` found (a certified *upper* bound scale:
    /// `L_min ≥ X_final / (1+ε)` because `X_final/(1+ε)` was infeasible).
    pub fn solve(
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
            match self.feasible(x, &expr, profiles, height, n, &mut work) {
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
            if let Some(decision) = self.feasible(hi, &expr, profiles, height, n, &mut work) {
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

    /// The bucket width `δ` and the largest bucket of the DP at target `x`.
    fn buckets(&self, x: f64, height: usize, n: usize) -> (f64, usize) {
        let delta = self.epsilon * x / height as f64;
        // Budget in buckets: C ≤ (1+ε)X  ⇒  at most ceil((1+ε)X/δ) buckets.
        let max_bucket = (((1.0 + self.epsilon) * x) / delta).ceil() as usize;
        // Cap the bucket count; the module docs say why the cap stays.
        (delta, max_bucket.min(200_000 / n.max(1) + height * 4 + 16))
    }

    /// DP feasibility test: is there an allocation with `A ≤ X` and
    /// `C ≤ (1+ε)X`? Returns the allocation decision if so.
    fn feasible(
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
        let node = self.build_dp(expr, profiles, delta, max_bucket, x, work)?;
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

    fn build_dp(
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
                let left = self.build_dp(&children[0], profiles, delta, max_bucket, x, work)?;
                let right = self.build_dp(&children[1], profiles, delta, max_bucket, x, work)?;
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
                let left = self.build_dp(&children[0], profiles, delta, max_bucket, x, work)?;
                let right = self.build_dp(&children[1], profiles, delta, max_bucket, x, work)?;
                work.series_nodes += 1;
                let (min_area, split) = series_convolve(
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

/// The steps of a non-increasing table: the buckets where it strictly drops,
/// its first finite bucket included.
fn steps(table: &[f64]) -> Vec<usize> {
    let mut prev = f64::INFINITY;
    let mut out = Vec::new();
    for (b, &v) in table.iter().enumerate() {
        if v < prev {
            out.push(b);
        }
        prev = v;
    }
    out
}

/// The series node's min-plus convolution of its children's non-increasing
/// tables `la` and `ra`: for every budget `b`, the least `la[bl] + ra[b − bl]`
/// over `bl ≤ b` and the first `bl` that attains it (`usize::MAX` while every
/// sum is infinite). Scans the steps of the table with fewer of them (see
/// the module docs) and adds the sums it evaluates to `candidates`.
fn series_convolve(la: &[f64], ra: &[f64], candidates: &mut u64) -> (Vec<f64>, Vec<usize>) {
    debug_assert_eq!(la.len(), ra.len());
    debug_assert!(la.windows(2).all(|w| w[1] <= w[0]) && ra.windows(2).all(|w| w[1] <= w[0]));
    let mut min_area = vec![f64::INFINITY; la.len()];
    let mut split = vec![usize::MAX; la.len()];
    let (left_steps, right_steps) = (steps(la), steps(ra));
    // `k` counts the scanned table's steps `≤ b`.
    let mut k = 0;
    if left_steps.len() <= right_steps.len() {
        for b in 0..la.len() {
            while k < left_steps.len() && left_steps[k] <= b {
                k += 1;
            }
            *candidates += k as u64;
            for &s in &left_steps[..k] {
                let a = la[s] + ra[b - s];
                if a < min_area[b] {
                    min_area[b] = a;
                    split[b] = s;
                }
            }
        }
    } else {
        for b in 0..la.len() {
            while k < right_steps.len() && right_steps[k] <= b {
                k += 1;
            }
            *candidates += k as u64;
            // Right step `right_steps[i]` covers the left budgets from
            // `b + 1 − right_steps[i + 1]` (0 for the largest step) up to
            // `b − right_steps[i]`; its best sum is at that end.
            let mut best = f64::INFINITY;
            let mut best_step = None;
            for i in (0..k).rev() {
                let t = right_steps[i];
                let a = la[b - t] + ra[t];
                if a < best {
                    best = a;
                    best_step = Some(i);
                }
            }
            let Some(i) = best_step else { continue };
            let rt = ra[right_steps[i]];
            let mut lo = if i + 1 < k {
                b + 1 - right_steps[i + 1]
            } else {
                0
            };
            let mut hi = b - right_steps[i];
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                *candidates += 1;
                if la[mid] + rt <= best {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            // `la[lo] + rt` is at most `best` and no sum is below it, so it
            // is `best`.
            min_area[b] = best;
            split[b] = lo;
        }
    }
    (min_area, split)
}

impl Allocator for SpFptasAllocator {
    fn allocate(&self, instance: &Instance, profiles: &[JobProfile]) -> Result<AllocationDecision> {
        Ok(self.solve(instance, profiles)?.0)
    }

    fn name(&self) -> &'static str {
        "sp-fptas"
    }

    fn certified_lower_bound(&self, instance: &Instance, profiles: &[JobProfile]) -> Option<f64> {
        // L(p') <= (1+eps') L_min  =>  L_min >= L(p') / (1+eps').
        let (decision, _) = self.solve(instance, profiles).ok()?;
        let l = instance.lower_bound_of(&decision).ok()?;
        Some(l / (1.0 + self.effective_epsilon()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::lp_rounding::LpRoundingAllocator;
    use mrls_dag::Dag;
    use mrls_model::{AllocationSpace, ExecTimeSpec, MoldableJob, SystemConfig};
    use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};

    /// The series convolution `series_convolve` replaced: the full scan over
    /// every pair of bucket budgets, kept as it was apart from the rename.
    /// Never improved; `series_convolve_is_pinned_to_the_reference` pins the
    /// production convolution to it.
    fn series_convolve_reference(
        la: &[f64],
        ra: &[f64],
        max_bucket: usize,
    ) -> (Vec<f64>, Vec<usize>) {
        let mut min_area = vec![f64::INFINITY; max_bucket + 1];
        let mut split = vec![usize::MAX; max_bucket + 1];
        for b in 0..=max_bucket {
            for bl in 0..=b {
                let a = la[bl] + ra[b - bl];
                if a < min_area[b] {
                    min_area[b] = a;
                    split[b] = bl;
                }
            }
        }
        (min_area, split)
    }

    /// SplitMix64, the fixed-seed generator of the pin and its corpus.
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

    /// A random non-increasing table of `len` buckets: an infinite prefix
    /// (the whole table one time in ten), then values on a grid of `grid`
    /// that drop by 1–3 grid points with a per-table probability and
    /// otherwise stay on a plateau, never below 0.
    fn random_table(rng: &mut Rng, len: usize, grid: f64) -> Vec<f64> {
        let finite_from = if rng.range(0, 9) == 0 {
            len
        } else {
            rng.range(0, len / 2)
        };
        let drop_per_mille = [5, 30, 150, 500, 1000][rng.range(0, 4)];
        let mut level = rng.range(0, 400);
        (0..len)
            .map(|b| {
                if b < finite_from {
                    return f64::INFINITY;
                }
                if b > finite_from && rng.range(1, 1000) <= drop_per_mille {
                    level = level.saturating_sub(rng.range(1, 3));
                }
                level as f64 * grid
            })
            .collect()
    }

    /// The series nodes under `node`, each checked against the reference
    /// applied to its children's tables.
    fn assert_series_nodes_match_reference(node: &DpNode) -> usize {
        match node {
            DpNode::Leaf { .. } => 0,
            DpNode::Parallel { left, right, .. } => {
                assert_series_nodes_match_reference(left)
                    + assert_series_nodes_match_reference(right)
            }
            DpNode::Series {
                left,
                right,
                split,
                min_area,
            } => {
                let (want_area, want_split) = series_convolve_reference(
                    left.min_area(),
                    right.min_area(),
                    min_area.len() - 1,
                );
                let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(min_area), bits(&want_area));
                assert_eq!(split, &want_split);
                1 + assert_series_nodes_match_reference(left)
                    + assert_series_nodes_match_reference(right)
            }
        }
    }

    /// The FPTAS at real sizes, 44 generated instances with the job recipe of
    /// `mrls generate` (three resource types of capacity 16, powers-of-two
    /// allocations, mixed speedup families): 6 chains of 50–150 jobs, 11 out-
    /// and 11 in-trees of 100–500, 11 random SP graphs of 50–250 and 5
    /// fork-join graphs, with ε cycling through 0.1, 0.2 and 0.3.
    fn pin_corpus() -> Vec<(Instance, SpFptasAllocator)> {
        let mut rng = Rng(0x005f_97a5_c0de);
        (0..44)
            .map(|k| {
                let dag = match [0, 1, 2, 3, 4, 1, 2, 3][k % 8] {
                    0 => DagRecipe::Chain {
                        n: rng.range(50, 150),
                    },
                    1 => DagRecipe::RandomOutTree {
                        n: rng.range(100, 500),
                        max_children: rng.range(2, 4),
                    },
                    2 => DagRecipe::RandomInTree {
                        n: rng.range(100, 500),
                        max_children: rng.range(2, 4),
                    },
                    3 => DagRecipe::RandomSeriesParallel {
                        n: rng.range(50, 250),
                        series_prob: [0.3, 0.5, 0.7][rng.range(0, 2)],
                    },
                    _ => DagRecipe::ForkJoin {
                        width: rng.range(2, 12),
                        stages: rng.range(2, 6),
                    },
                };
                let instance = InstanceRecipe {
                    system: SystemRecipe::Uniform { d: 3, p: 16 },
                    dag,
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
                let epsilon = [0.1, 0.2, 0.3][k % 3];
                (instance, SpFptasAllocator::new(epsilon).unwrap())
            })
            .collect()
    }

    #[test]
    fn series_convolve_is_pinned_to_the_reference() {
        // (a) Random table pairs: the same min_area bits and split points,
        // with each branch of `series_convolve` on at least a quarter.
        let mut rng = Rng(0x7ab1e5);
        let pairs = 20_000;
        let mut left_scans = 0;
        for _ in 0..pairs {
            let len = rng.range(1, 400);
            let grid = [0.5, 0.1, 1.0][rng.range(0, 2)];
            let la = random_table(&mut rng, len, grid);
            let ra = random_table(&mut rng, len, grid);
            if steps(&la).len() <= steps(&ra).len() {
                left_scans += 1;
            }
            let (area, split) = series_convolve(&la, &ra, &mut 0);
            let (want_area, want_split) = series_convolve_reference(&la, &ra, len - 1);
            for b in 0..len {
                assert_eq!(
                    area[b].to_bits(),
                    want_area[b].to_bits(),
                    "{la:?} {ra:?} b={b}"
                );
                assert_eq!(split[b], want_split[b], "{la:?} {ra:?} b={b}");
            }
        }
        assert!(
            left_scans >= pairs / 4 && pairs - left_scans >= pairs / 4,
            "{left_scans} of {pairs} pairs scanned the left table"
        );

        // (b) Real DP trees: every series node of the corpus, built at three
        // targets from the final X up, equals the reference applied to its
        // children's tables.
        let mut series_nodes = 0;
        for (instance, alloc) in pin_corpus() {
            let profiles = instance.profiles().unwrap();
            let (_, x) = alloc.solve(&instance, &profiles).unwrap();
            let expr = binarize(&SpDecomposition::decompose(&instance.dag).unwrap().expr);
            let (height, n) = (instance.dag.height().max(1), instance.num_jobs());
            for target in [x, 1.5 * x, 4.0 * x] {
                let (delta, max_bucket) = alloc.buckets(target, height, n);
                let node = alloc
                    .build_dp(
                        &expr,
                        &profiles,
                        delta,
                        max_bucket,
                        target,
                        &mut DpWork::default(),
                    )
                    .expect("the DP covers every target from the final X up");
                series_nodes += assert_series_nodes_match_reference(&node);
            }
        }
        assert!(series_nodes > 0);
    }

    fn sp_instance(dag: Dag, caps: Vec<u64>, work: f64) -> Instance {
        let n = dag.num_nodes();
        let d = caps.len();
        let jobs: Vec<MoldableJob> = (0..n)
            .map(|j| {
                MoldableJob::new(
                    j,
                    ExecTimeSpec::Amdahl {
                        seq: 0.5,
                        work: vec![work; d],
                    },
                )
            })
            .collect();
        Instance::new(SystemConfig::new(caps).unwrap(), dag, jobs).unwrap()
    }

    #[test]
    fn rejects_invalid_epsilon() {
        assert!(SpFptasAllocator::new(0.0).is_err());
        assert!(SpFptasAllocator::new(1.5).is_err());
        assert!(SpFptasAllocator::new(0.2).is_ok());
    }

    #[test]
    fn rejects_non_sp_graphs() {
        let dag = Dag::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        let inst = sp_instance(dag, vec![4, 4], 4.0);
        let profiles = inst.profiles().unwrap();
        let alloc = SpFptasAllocator::new(0.2).unwrap();
        assert_eq!(
            alloc.solve(&inst, &profiles).unwrap_err(),
            CoreError::NotSeriesParallel
        );
    }

    #[test]
    fn chain_allocation_close_to_lp_bound() {
        let inst = sp_instance(Dag::chain(5), vec![6, 6], 6.0);
        let profiles = inst.profiles().unwrap();
        let alloc = SpFptasAllocator::new(0.1).unwrap();
        let (decision, _) = alloc.solve(&inst, &profiles).unwrap();
        let l = inst.lower_bound_of(&decision).unwrap();
        // Compare against the LP fractional optimum (a valid lower bound on
        // L_min): the FPTAS must be within (1 + eps') of it.
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        assert!(
            l <= (1.0 + alloc.effective_epsilon()) * frac.objective * (1.0 + 1e-6) + 1e-9,
            "FPTAS L(p')={l}, LP bound={}",
            frac.objective
        );
    }

    #[test]
    fn diamond_allocation_close_to_lp_bound() {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let inst = sp_instance(dag, vec![8, 4], 8.0);
        let profiles = inst.profiles().unwrap();
        let alloc = SpFptasAllocator::new(0.15).unwrap();
        let (decision, _) = alloc.solve(&inst, &profiles).unwrap();
        let l = inst.lower_bound_of(&decision).unwrap();
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        assert!(l <= (1.0 + alloc.effective_epsilon()) * frac.objective + 1e-6);
    }

    #[test]
    fn independent_bag_matches_exact_allocator() {
        use crate::allocators::independent::IndependentOptimalAllocator;
        let inst = sp_instance(Dag::independent(6), vec![4, 4], 5.0);
        let profiles = inst.profiles().unwrap();
        let (_, l_exact) = IndependentOptimalAllocator::solve(&inst, &profiles).unwrap();
        let alloc = SpFptasAllocator::new(0.05).unwrap();
        let (decision, _) = alloc.solve(&inst, &profiles).unwrap();
        let l_fptas = inst.lower_bound_of(&decision).unwrap();
        assert!(
            l_fptas <= (1.0 + alloc.effective_epsilon()) * l_exact + 1e-9,
            "fptas {l_fptas} vs exact {l_exact}"
        );
    }

    #[test]
    fn out_tree_allocation_is_valid_and_bounded() {
        let dag = Dag::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let tree = sp_instance(dag, vec![6, 6, 6], 5.0);
        let cases =
            std::iter::once((tree, SpFptasAllocator::new(0.2).unwrap())).chain(pin_corpus());
        for (inst, alloc) in cases {
            let profiles = inst.profiles().unwrap();
            let (decision, x) = alloc.solve(&inst, &profiles).unwrap();
            assert_eq!(decision.len(), inst.num_jobs());
            for a in &decision {
                assert!(inst.system.validate_allocation(a).is_ok());
            }
            let metrics = inst.evaluate_decision(&decision).unwrap();
            // The DP guarantees A <= X and C <= (1+eps)X.
            assert!(metrics.average_total_area <= x + 1e-6);
            assert!(metrics.critical_path <= (1.0 + alloc.epsilon()) * x + 1e-6);
        }
    }

    #[test]
    fn certified_lower_bound_is_valid() {
        let inst = sp_instance(Dag::chain(4), vec![5, 5], 4.0);
        let profiles = inst.profiles().unwrap();
        let alloc = SpFptasAllocator::new(0.1).unwrap();
        let lb = alloc.certified_lower_bound(&inst, &profiles).unwrap();
        // The LP optimum is a lower bound on L_min as well; the FPTAS bound
        // must not exceed L_min, so in particular it must not exceed any
        // integral decision's L(p).
        let fast: Vec<_> = profiles
            .iter()
            .map(|p| p.min_time_point().alloc.clone())
            .collect();
        assert!(lb <= inst.lower_bound_of(&fast).unwrap() + 1e-6);
        assert!(lb > 0.0);
    }

    #[test]
    fn empty_instance() {
        let inst = sp_instance(Dag::independent(0), vec![4], 1.0);
        let profiles = inst.profiles().unwrap();
        let alloc = SpFptasAllocator::new(0.3).unwrap();
        let (decision, x) = alloc.solve(&inst, &profiles).unwrap();
        assert!(decision.is_empty());
        assert_eq!(x, 0.0);
    }

    #[test]
    fn effective_epsilon_formula() {
        let alloc = SpFptasAllocator::new(0.1).unwrap();
        assert!((alloc.effective_epsilon() - 0.21).abs() < 1e-12);
        assert!((alloc.epsilon() - 0.1).abs() < 1e-15);
    }
}
