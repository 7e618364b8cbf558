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
//! 3. The smallest feasible `X` found gives the returned allocation. If no
//!    test succeeds, `solve` returns the local min-max heuristic's
//!    allocation, which carries no FPTAS guarantee.
//!
//! ## The flat DP
//!
//! Each solve flattens the binarised expression once into a post-order
//! array, so a node's right child is the node before it. A feasibility test
//! builds the tables bottom-up on a stack of pooled buffers. A child's table
//! goes back to the pool as soon as its parent is built, so a test holds
//! only the tables of the nodes whose parent is not built yet. Split points
//! live in one flat `u32` array, a row per series node. A test that
//! succeeds swaps that array with a second one, which keeps its rows, and
//! the solve extracts the allocation once, from the last test that
//! succeeded. A leaf's table is a step function of its points' buckets. Its
//! choice is recomputed at extraction instead of being stored per bucket:
//! the largest bucket within the budget that attains the least area, then
//! the first point of that bucket with that area. That is the point the
//! cumulative scan keeps, since a bucket's own minimum replaces the running
//! one unless the running one is strictly smaller. Tables, split points,
//! decisions and `X` are bit-identical to the recursive DP over boxed nodes
//! that this replaced. The test-only `reference` submodule keeps that DP,
//! and `solve_is_pinned_to_the_reference` compares the two.
//!
//! ## The pre-check
//!
//! Before it builds any table at `X`, a test takes the longest path of
//! smallest buckets: each job's bucket is that of its fastest point, with
//! the DP's own bucket expression and time filter (series nodes add,
//! saturating, and parallel nodes take the maximum). A node's table is
//! finite only from that many buckets on, so if the path exceeds the
//! largest bucket, the DP would return `None`, and the test is skipped.
//! This skip changes no decision, `X` or table.
//!
//! ## Why the bucket cap stays
//!
//! The bucket count is capped at `200 000 / n + 4·H + 16`. At ε = 0.1 the
//! uncapped count is about `11·H`, so the cap binds on every deep graph.
//! There the pre-check usually skips every test, and `solve` falls back to
//! the heuristic: every chain of more than about 180 jobs whose critical
//! path sets `L` does. Lifting the cap would restore the guarantee there,
//! but it changes the buckets, and so the allocations and plans, on those
//! instances; it is left for a change that measures that. The cap also
//! bounds memory: the two split arrays take 8 B per bucket per series node,
//! which for an uncapped 3 000-job chain at ε = 0.1 (about 33 000 buckets)
//! is about 0.8 GB.
//!
//! ## Counters
//!
//! Each solve adds these counters to `mrls_obs`:
//! * `fptas.solves`;
//! * `fptas.feasibility_tests`, every test, skipped ones included;
//! * `fptas.tests_skipped`, the tests the pre-check proves infeasible;
//! * `fptas.series_nodes`, the series convolutions built;
//! * `fptas.series_candidates`, the sums they evaluate, binary-search probes
//!   included;
//! * `fptas.heuristic_fallbacks`, the solves that returned the heuristic's
//!   allocation, which has lost the guarantee of Theorems 3–4.

use super::Allocator;
use crate::error::CoreError;
use crate::Result;
use mrls_dag::{SpDecomposition, SpExpr};
use mrls_model::{AllocationDecision, Instance, JobProfile};

#[cfg(test)]
mod reference;

/// The series-parallel / tree FPTAS allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpFptasAllocator {
    epsilon: f64,
}

/// The DP work of one solve, added to the obs counters at its end.
#[derive(Debug, Default)]
struct DpWork {
    feasibility_tests: u64,
    tests_skipped: u64,
    series_nodes: u64,
    series_candidates: u64,
}

/// One node of the binarised expression in post-order: its right child is
/// the node just before it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Leaf {
        job: usize,
    },
    /// `row` is the node's row of split points.
    Series {
        left: usize,
        row: usize,
    },
    Parallel {
        left: usize,
    },
}

/// The bucket grid of one feasibility test at target `X`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    delta: f64,
    max_bucket: usize,
    /// Points slower than `(1+ε)X + 1e-12` fit in no budget.
    time_limit: f64,
}

impl Grid {
    /// The bucket of a point of time `time`, `None` if it fits in no budget.
    #[inline]
    fn bucket(&self, time: f64) -> Option<usize> {
        if time > self.time_limit {
            return None;
        }
        let b = (time / self.delta).ceil() as usize;
        (b <= self.max_bucket).then_some(b)
    }
}

/// The DP of one solve: the flattened expression and the buffers every
/// feasibility test reuses.
#[derive(Default)]
struct FlatDp<'a> {
    profiles: &'a [JobProfile],
    ops: Vec<Op>,
    series_nodes: usize,
    /// Each job's least time over all its points, NaN if any is NaN (a NaN
    /// time lands in bucket 0): the pre-check's leaf times.
    fastest: Vec<f64>,
    /// The tables built whose parent is not built yet, a stack.
    live: Vec<Vec<f64>>,
    /// Released tables.
    pool: Vec<Vec<f64>>,
    /// `splits[row·(B+1) + b]` = the left child's budget at the series
    /// node's budget `b` (`u32::MAX` while infeasible).
    splits: Vec<u32>,
    /// The split points, grid and root budget of the last test that
    /// succeeded, which extraction follows.
    kept: Vec<u32>,
    kept_root: Option<(Grid, usize)>,
    /// Scratch of the pre-check (path lengths), the leaf fill (a leaf's
    /// `(bucket, area)` pairs) and the series convolution.
    lengths: Vec<usize>,
    points: Vec<(usize, f64)>,
    steps: Steps,
}

impl<'a> FlatDp<'a> {
    fn new(expr: &SpExpr, profiles: &'a [JobProfile]) -> Self {
        let least = |m: f64, t: f64| if t < m || t.is_nan() { t } else { m };
        let fastest = profiles
            .iter()
            .map(|p| p.points().iter().map(|q| q.time).fold(f64::INFINITY, least))
            .collect();
        let mut dp = FlatDp {
            profiles,
            fastest,
            ..FlatDp::default()
        };
        dp.flatten(expr);
        dp
    }

    /// Appends `expr` binarised as a left fold of its children, in
    /// post-order, and returns its root's index.
    fn flatten(&mut self, expr: &SpExpr) -> usize {
        let (children, series) = match expr {
            SpExpr::Job(job) => {
                self.ops.push(Op::Leaf { job: *job });
                return self.ops.len() - 1;
            }
            SpExpr::Series(children) => (children, true),
            SpExpr::Parallel(children) => (children, false),
        };
        let (first, rest) = children
            .split_first()
            .expect("SP expressions have at least one child");
        let mut left = self.flatten(first);
        for child in rest {
            self.flatten(child);
            self.ops.push(if series {
                self.series_nodes += 1;
                Op::Series {
                    left,
                    row: self.series_nodes - 1,
                }
            } else {
                Op::Parallel { left }
            });
            left = self.ops.len() - 1;
        }
        left
    }

    /// `true` if the longest path of smallest buckets exceeds the largest
    /// bucket, which proves that `evaluate` would return `None`.
    fn path_exceeds(&mut self, grid: &Grid) -> bool {
        let stack = &mut self.lengths;
        stack.clear();
        for op in &self.ops {
            let length = match *op {
                Op::Leaf { job } => grid
                    .bucket(self.fastest[job])
                    .unwrap_or(grid.max_bucket + 1),
                Op::Series { .. } => {
                    let right = stack.pop().expect("post-order");
                    let left = stack.pop().expect("post-order");
                    left.saturating_add(right)
                }
                Op::Parallel { .. } => {
                    let right = stack.pop().expect("post-order");
                    let left = stack.pop().expect("post-order");
                    left.max(right)
                }
            };
            if length > grid.max_bucket {
                return true;
            }
            stack.push(length);
        }
        false
    }

    /// A buffer of `len` buckets from the pool; its contents are stale.
    fn table(&mut self, len: usize) -> Vec<f64> {
        let mut table = self.pool.pop().unwrap_or_default();
        table.resize(len, 0.0);
        table
    }

    /// Builds every table bottom-up and returns the root's; `None` as soon
    /// as a leaf or a series node is infinite at the largest bucket.
    fn evaluate(&mut self, grid: &Grid, work: &mut DpWork) -> Option<&[f64]> {
        let len = grid.max_bucket + 1;
        self.pool.append(&mut self.live);
        self.splits.resize(self.series_nodes * len, 0);
        for i in 0..self.ops.len() {
            match self.ops[i] {
                Op::Leaf { job } => {
                    let mut table = self.table(len);
                    self.fill_leaf(&mut table, job, grid);
                    let infeasible = table[grid.max_bucket].is_infinite();
                    self.live.push(table);
                    if infeasible {
                        return None;
                    }
                }
                Op::Parallel { .. } => {
                    let right = self.live.pop().expect("post-order");
                    let left = self.live.last_mut().expect("post-order");
                    for (l, r) in left.iter_mut().zip(&right) {
                        *l += *r;
                    }
                    self.pool.push(right);
                }
                Op::Series { row, .. } => {
                    let right = self.live.pop().expect("post-order");
                    let left = self.live.pop().expect("post-order");
                    let mut table = self.table(len);
                    work.series_nodes += 1;
                    series_convolve(
                        &left,
                        &right,
                        &mut table,
                        &mut self.splits[row * len..(row + 1) * len],
                        &mut self.steps,
                        &mut work.series_candidates,
                    );
                    self.pool.push(left);
                    self.pool.push(right);
                    let infeasible = table[grid.max_bucket].is_infinite();
                    self.live.push(table);
                    if infeasible {
                        return None;
                    }
                }
            }
        }
        self.live.last().map(Vec::as_slice)
    }

    /// Fills a leaf's table: at each budget, the least area of the points
    /// that fit in it. A bucket's own minimum (its first strictly smaller
    /// area) replaces the running one unless that is strictly smaller.
    fn fill_leaf(&mut self, table: &mut [f64], job: usize, grid: &Grid) {
        let points = &mut self.points;
        points.clear();
        points.extend(
            self.profiles[job]
                .points()
                .iter()
                .filter_map(|p| Some((grid.bucket(p.time)?, p.area))),
        );
        // Profiles are sorted by time, so this finds the buckets in order.
        points.sort_by_key(|&(b, _)| b);
        let (mut filled, mut running) = (0, f64::INFINITY);
        for group in points.chunk_by(|a, b| a.0 == b.0) {
            let bucket = group[0].0;
            table[filled..bucket].fill(running);
            let own = group
                .iter()
                .fold(f64::INFINITY, |own, &(_, a)| if a < own { a } else { own });
            // Neither is NaN: `own` keeps only strictly smaller areas.
            if running >= own {
                running = own;
            }
            filled = bucket;
        }
        table[filled..].fill(running);
    }

    /// Keeps the split points of the last `evaluate`, feasible at the root
    /// budget `budget`, for extraction.
    fn keep(&mut self, grid: Grid, budget: usize) {
        std::mem::swap(&mut self.splits, &mut self.kept);
        self.kept_root = Some((grid, budget));
    }

    /// Every job's chosen point index under the kept test.
    fn extract(&self) -> Vec<usize> {
        let (grid, budget) = self.kept_root.expect("a feasibility test succeeded");
        let len = grid.max_bucket + 1;
        let mut choice = vec![usize::MAX; self.profiles.len()];
        // `(node, budget)` pairs still to descend into.
        let mut pending = vec![(self.ops.len() - 1, budget)];
        while let Some((i, b)) = pending.pop() {
            match self.ops[i] {
                Op::Leaf { job } => choice[job] = leaf_choice(&self.profiles[job], b, &grid),
                Op::Series { left, row } => {
                    let split = self.kept[row * len + b];
                    debug_assert_ne!(split, u32::MAX, "extraction follows feasible buckets");
                    let split = split as usize;
                    pending.push((left, split));
                    pending.push((i - 1, b - split));
                }
                Op::Parallel { left } => {
                    pending.push((left, b));
                    pending.push((i - 1, b));
                }
            }
        }
        choice
    }
}

/// The point a leaf's table uses at budget `b`: least area, then largest
/// bucket, then first in the profile (see the module docs).
fn leaf_choice(profile: &JobProfile, b: usize, grid: &Grid) -> usize {
    let mut best: Option<(f64, usize, usize)> = None;
    for (k, p) in profile.points().iter().enumerate() {
        let Some(bucket) = grid.bucket(p.time).filter(|&pb| pb <= b) else {
            continue;
        };
        let better = match best {
            None => p.area < f64::INFINITY,
            Some((area, best_bucket, _)) => {
                p.area < area || (p.area == area && bucket > best_bucket)
            }
        };
        if better {
            best = Some((p.area, bucket, k));
        }
    }
    best.expect("extraction only follows feasible buckets").2
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
        let mut dp = FlatDp::new(&decomposition.expr, profiles);
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
        let mut best_x: Option<f64> = None;
        let mut test = |x: f64| self.feasible(x, &mut dp, height, n, &mut work);
        // If the upper bound is already feasible (it is, by construction of the
        // DP with X = hi), remember it; then shrink towards lo.
        for _ in 0..100 {
            if hi / lo <= 1.0 + self.epsilon / 4.0 {
                break;
            }
            let x = (lo * hi).sqrt();
            if test(x) {
                best_x = Some(x);
                hi = x;
            } else {
                lo = x;
            }
        }
        // Fall back to the heuristic upper bound: X = hi must be feasible.
        if best_x.is_none() && test(hi) {
            best_x = Some(hi);
        }
        if mrls_obs::enabled() {
            mrls_obs::counter_add("fptas.solves", 1);
            mrls_obs::counter_add("fptas.feasibility_tests", work.feasibility_tests);
            mrls_obs::counter_add("fptas.tests_skipped", work.tests_skipped);
            mrls_obs::counter_add("fptas.series_nodes", work.series_nodes);
            mrls_obs::counter_add("fptas.series_candidates", work.series_candidates);
            mrls_obs::counter_add("fptas.heuristic_fallbacks", best_x.is_none() as u64);
        }
        match best_x {
            Some(x) => {
                let choice = dp.extract();
                let decision = profiles
                    .iter()
                    .enumerate()
                    .map(|(j, p)| p.points()[choice[j]].alloc.clone())
                    .collect();
                Ok((decision, x))
            }
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

    /// The bucket grid of the DP at target `x`.
    fn grid(&self, x: f64, height: usize, n: usize) -> Grid {
        let (delta, max_bucket) = self.buckets(x, height, n);
        Grid {
            delta,
            max_bucket,
            time_limit: (1.0 + self.epsilon) * x + 1e-12,
        }
    }

    /// DP feasibility test: is there an allocation with `A ≤ X` and
    /// `C ≤ (1+ε)X`? If so, keeps the test for extraction.
    fn feasible(
        &self,
        x: f64,
        dp: &mut FlatDp<'_>,
        height: usize,
        n: usize,
        work: &mut DpWork,
    ) -> bool {
        work.feasibility_tests += 1;
        let grid = self.grid(x, height, n);
        if dp.path_exceeds(&grid) {
            work.tests_skipped += 1;
            return false;
        }
        let Some(areas) = dp.evaluate(&grid, work) else {
            return false;
        };
        let Some(bucket) = (0..=grid.max_bucket).find(|&b| areas[b] <= x + 1e-9) else {
            return false;
        };
        dp.keep(grid, bucket);
        true
    }
}

/// The step lists of a series node's two tables, reused from node to node.
#[derive(Debug, Default)]
struct Steps {
    left: Vec<usize>,
    right: Vec<usize>,
}

/// The steps of a non-increasing table: the buckets where it strictly drops,
/// its first finite bucket included.
fn steps(table: &[f64], out: &mut Vec<usize>) {
    out.clear();
    let mut prev = f64::INFINITY;
    for (b, &v) in table.iter().enumerate() {
        if v < prev {
            out.push(b);
        }
        prev = v;
    }
}

/// The series node's min-plus convolution of its children's non-increasing
/// tables `la` and `ra`: for every budget `b`, the least `la[bl] + ra[b − bl]`
/// over `bl ≤ b` into `min_area[b]`, and the first `bl` that attains it into
/// `split[b]` (`u32::MAX` while every sum is infinite). Scans the steps of
/// the table with fewer of them (see the module docs) and adds the sums it
/// evaluates to `candidates`.
///
/// Each step is swept over every budget it reaches in one contiguous pass.
/// The sums a budget sees and the order in which it sees them are those of
/// a scan of the steps per budget, so the strict `<` keeps the same
/// minimiser.
fn series_convolve(
    la: &[f64],
    ra: &[f64],
    min_area: &mut [f64],
    split: &mut [u32],
    steps_of: &mut Steps,
    candidates: &mut u64,
) {
    let len = la.len();
    debug_assert!(ra.len() == len && min_area.len() == len && split.len() == len);
    debug_assert!(la.windows(2).all(|w| w[1] <= w[0]) && ra.windows(2).all(|w| w[1] <= w[0]));
    // Budgets then fit in `u32` below the `u32::MAX` sentinel.
    assert!(
        len <= u32::MAX as usize,
        "the bucket cap bounds the budgets"
    );
    steps(la, &mut steps_of.left);
    steps(ra, &mut steps_of.right);
    let (left_steps, right_steps) = (&steps_of.left[..], &steps_of.right[..]);
    min_area.fill(f64::INFINITY);
    split.fill(u32::MAX);
    if left_steps.len() <= right_steps.len() {
        // Budget `b` sees the left steps `s ≤ b` in increasing order.
        for &s in left_steps {
            *candidates += (len - s) as u64;
            let left = la[s];
            let budgets = min_area[s..].iter_mut().zip(&mut split[s..]);
            for ((area, at), &right) in budgets.zip(&ra[..len - s]) {
                let a = left + right;
                if a < *area {
                    *area = a;
                    *at = s as u32;
                }
            }
        }
        return;
    }
    // Budget `b` sees the right steps `t ≤ b` from the largest down. Right
    // step `right_steps[i]` covers the left budgets from
    // `b + 1 − right_steps[i + 1]` (0 for the largest step) up to
    // `b − right_steps[i]`; its best sum is at that end. `split` holds the
    // index of the winning step until the search below replaces it.
    for (i, &t) in right_steps.iter().enumerate().rev() {
        *candidates += (len - t) as u64;
        let right = ra[t];
        let budgets = min_area[t..].iter_mut().zip(&mut split[t..]);
        for ((area, at), &left) in budgets.zip(&la[..len - t]) {
            let a = left + right;
            if a < *area {
                *area = a;
                *at = i as u32;
            }
        }
    }
    for b in 0..len {
        if split[b] == u32::MAX {
            continue;
        }
        let i = split[b] as usize;
        let (best, rt) = (min_area[b], ra[right_steps[i]]);
        let mut lo = match right_steps.get(i + 1) {
            Some(&next) if next <= b => b + 1 - next,
            _ => 0,
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
        // `la[lo] + rt` is at most `best` and no sum is below it, so it is
        // `best`.
        split[b] = lo as u32;
    }
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
    use super::reference::DpNode;
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
            let (mut left, mut right) = (Vec::new(), Vec::new());
            steps(&la, &mut left);
            steps(&ra, &mut right);
            if left.len() <= right.len() {
                left_scans += 1;
            }
            let (area, split) = reference::series_convolve_vecs(&la, &ra, &mut 0);
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
            let expr =
                reference::binarize(&SpDecomposition::decompose(&instance.dag).unwrap().expr);
            let (height, n) = (instance.dag.height().max(1), instance.num_jobs());
            for target in [x, 1.5 * x, 4.0 * x] {
                let (delta, max_bucket) = alloc.buckets(target, height, n);
                let node = alloc
                    .build_dp_reference(
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

    /// The series splits of a reference tree, in post-order.
    fn reference_splits(node: &DpNode, out: &mut Vec<Vec<usize>>) {
        match node {
            DpNode::Leaf { .. } => {}
            DpNode::Parallel { left, right, .. } => {
                reference_splits(left, out);
                reference_splits(right, out);
            }
            DpNode::Series {
                left, right, split, ..
            } => {
                reference_splits(left, out);
                reference_splits(right, out);
                out.push(split.clone());
            }
        }
    }

    /// The flat DP builds the tables of the recursive one: at targets below
    /// and above the final `X` of every corpus instance, the same `None`
    /// or the same root table bits and split rows, with the same work
    /// counted; and a skipped test is one the recursive DP fails.
    #[test]
    fn flat_dp_tables_are_pinned_to_the_reference() {
        let (mut built, mut skipped) = (0, 0);
        for (instance, alloc) in pin_corpus() {
            let profiles = instance.profiles().unwrap();
            let (_, x) = alloc.solve(&instance, &profiles).unwrap();
            let decomposition = SpDecomposition::decompose(&instance.dag).unwrap();
            let expr = reference::binarize(&decomposition.expr);
            let mut dp = FlatDp::new(&decomposition.expr, &profiles);
            let (height, n) = (instance.dag.height().max(1), instance.num_jobs());
            for target in [x / 2.0, x / 1.1, x, 1.5 * x, 4.0 * x] {
                let grid = alloc.grid(target, height, n);
                let (mut got_work, mut want_work) = (DpWork::default(), DpWork::default());
                let want = alloc.build_dp_reference(
                    &expr,
                    &profiles,
                    grid.delta,
                    grid.max_bucket,
                    target,
                    &mut want_work,
                );
                if dp.path_exceeds(&grid) {
                    assert!(want.is_none(), "a skipped test must fail");
                    skipped += 1;
                }
                let got = dp.evaluate(&grid, &mut got_work).map(<[f64]>::to_vec);
                assert_eq!(
                    (got_work.series_nodes, got_work.series_candidates),
                    (want_work.series_nodes, want_work.series_candidates)
                );
                let Some(node) = want else {
                    assert!(got.is_none());
                    continue;
                };
                let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.unwrap()), bits(node.min_area()));
                let mut want_splits = Vec::new();
                reference_splits(&node, &mut want_splits);
                let len = grid.max_bucket + 1;
                assert_eq!(dp.splits.len(), want_splits.len() * len);
                for (row, want) in dp.splits.chunks(len).zip(&want_splits) {
                    let row: Vec<usize> = row
                        .iter()
                        .map(|&s| {
                            if s == u32::MAX {
                                usize::MAX
                            } else {
                                s as usize
                            }
                        })
                        .collect();
                    assert_eq!(&row, want);
                }
                built += 1;
            }
        }
        assert!(
            built >= 132 && skipped > 0,
            "{built} built, {skipped} skipped"
        );
    }

    /// An instance of the `plan` benchmark suite's job recipe (the pin
    /// corpus's) on the given graph.
    fn recipe_instance(dag: DagRecipe, seed: u64) -> Instance {
        InstanceRecipe {
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
        .generate(seed)
        .instance
    }

    /// The benchmark's `sub_seed` (splitmix64 finaliser).
    fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
        let mut z = seed
            ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The whole solve against the recursive DP: the same `Ok`/`Err`, the
    /// same decision and `X` by its bits, at ε = 0.1, 0.2 and 0.3, on the
    /// pin corpus; the `plan` suite's trees, SP graphs, chain and fork-join
    /// graph of passes 0–1 of seeds 1–2 and pass 0 of seeds 3–4; 300- and
    /// 1 000-job chains; bushy out- and in-forests; and a graph that is not
    /// series-parallel.
    #[test]
    fn solve_is_pinned_to_the_reference() {
        let mut cases: Vec<Instance> = pin_corpus().into_iter().map(|(i, _)| i).collect();
        let (n, max_children, series_prob) = (2500, 3, 0.5);
        let suite = [
            (DagRecipe::RandomOutTree { n, max_children }, 1),
            (DagRecipe::RandomInTree { n, max_children }, 3),
            (
                DagRecipe::RandomSeriesParallel {
                    n: 250,
                    series_prob,
                },
                5,
            ),
            (
                DagRecipe::RandomSeriesParallel {
                    n: 250,
                    series_prob,
                },
                6,
            ),
            (DagRecipe::Chain { n: 300 }, 9),
            (
                DagRecipe::ForkJoin {
                    width: 50,
                    stages: 4,
                },
                10,
            ),
        ];
        for (seed, pass) in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (4, 0)] {
            for (dag, stream) in &suite {
                cases.push(recipe_instance(dag.clone(), sub_seed(seed, *stream, pass)));
            }
        }
        for (n, seed) in [(300, 7), (1000, 8)] {
            cases.push(recipe_instance(DagRecipe::Chain { n }, seed));
        }
        let mut rng = Rng(0x0b05_4f0e);
        for k in 0..6 {
            let n = rng.range(100, 600);
            let tree = recipe_instance(
                DagRecipe::RandomOutTree { n, max_children: 0 },
                rng.next_u64(),
            );
            // Cutting one edge in eight makes a forest of bushy trees.
            let edges: Vec<(usize, usize)> =
                tree.dag.edges().filter(|_| rng.range(0, 7) != 0).collect();
            let forest = Dag::from_edges(n, &edges).unwrap();
            let dag = if k % 2 == 0 {
                forest
            } else {
                forest.reversed()
            };
            cases.push(Instance::new(tree.system.clone(), dag, tree.jobs.clone()).unwrap());
        }
        let n_graph = Dag::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        cases.push(sp_instance(n_graph, vec![4, 4], 4.0));

        let mut fallbacks = 0;
        for (k, instance) in cases.iter().enumerate() {
            let profiles = instance.profiles().unwrap();
            for epsilon in [0.1, 0.2, 0.3] {
                let alloc = SpFptasAllocator::new(epsilon).unwrap();
                let got = alloc.solve(instance, &profiles);
                let want = alloc.solve_reference(instance, &profiles);
                match (got, want) {
                    (Ok((got, x)), Ok((want, want_x))) => {
                        assert!(got == want, "case {k} at ε = {epsilon}: decisions differ");
                        assert_eq!(x.to_bits(), want_x.to_bits(), "case {k} at ε = {epsilon}");
                        let heuristic: AllocationDecision = profiles
                            .iter()
                            .map(|p| p.min_max_time_area_point().alloc.clone())
                            .collect();
                        fallbacks += (got == heuristic) as usize;
                    }
                    (got, want) => assert_eq!(
                        got.map(|_| ()),
                        want.map(|_| ()),
                        "case {k} at ε = {epsilon}"
                    ),
                }
            }
        }
        assert!(fallbacks > 0, "no case returned the heuristic");
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
