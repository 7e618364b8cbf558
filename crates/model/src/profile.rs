//! Job profiles: the non-dominated `(allocation, time, area)` points.
//!
//! Phase 1 of the algorithm (Section 4.1.2) discards, for every job `j`, the
//! subset `D_j` of *dominated* allocations — those for which some other
//! allocation is both strictly faster and has strictly smaller average area
//! (Equation 2) — and only works with the remaining set `N_j`. A
//! [`JobProfile`] is exactly this Pareto frontier, pre-sorted by increasing
//! execution time, which is the form both the LP relaxation and the rounding
//! step consume.

use crate::allocation::{Allocation, SystemConfig};
use crate::error::ModelError;
use crate::exectime::ExecTimeSpec;
use crate::space::{AllocationSpace, Candidates};
use crate::Result;
use serde::{Deserialize, Serialize};

/// One candidate allocation of a job together with its execution time and
/// average area on the target system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocPoint {
    /// The resource allocation `p_j`.
    pub alloc: Allocation,
    /// Execution time `t_j(p_j)`.
    pub time: f64,
    /// Average area `a_j(p_j) = (1/d) Σ_i p_j(i) · t_j(p_j) / P(i)`
    /// (Definition 1).
    pub area: f64,
}

impl AllocPoint {
    /// Builds a point by evaluating `spec` under `alloc` on `system`.
    pub fn evaluate(
        spec: &ExecTimeSpec,
        alloc: Allocation,
        system: &SystemConfig,
        job: usize,
    ) -> Result<AllocPoint> {
        system.validate_allocation(&alloc)?;
        let time = spec.time(&alloc);
        if !time.is_finite() || time <= 0.0 {
            return Err(ModelError::InvalidExecutionTime { job, value: time });
        }
        let area = average_area(&alloc, time, system);
        Ok(AllocPoint { alloc, time, area })
    }

    /// Work `w_j^{(i)} = p_j(i) · t_j(p_j)` on resource type `i`
    /// (Definition 1).
    pub fn work(&self, i: usize) -> f64 {
        self.alloc[i] as f64 * self.time
    }

    /// Area on a single resource type `a_j^{(i)} = w_j^{(i)} / P(i)`.
    pub fn area_on(&self, i: usize, system: &SystemConfig) -> f64 {
        self.work(i) / system.capacity(i) as f64
    }
}

/// Average area of an allocation with a given execution time (Definition 1).
pub fn average_area(alloc: &Allocation, time: f64, system: &SystemConfig) -> f64 {
    average_area_of(alloc.amounts(), time, system)
}

/// [`average_area`] on the per-type amounts of an allocation.
fn average_area_of(alloc: &[u64], time: f64, system: &SystemConfig) -> f64 {
    let d = system.num_resource_types();
    let sum: f64 = (0..d)
        .map(|i| alloc[i] as f64 * time / system.capacity(i) as f64)
        .sum();
    sum / d as f64
}

/// Equation 2's sweep over points sorted by `(time, area)`: keeps, in
/// order, every point that no strictly faster point beats with a strictly
/// smaller area, and drops the rest. Points whose times differ by at most
/// `1e-12` form one group and cannot dominate each other.
fn retain_non_dominated<T>(sorted: &mut Vec<T>, time_area: impl Fn(&T) -> (f64, f64)) {
    let mut kept = 0usize;
    let mut best_area_strictly_faster = f64::INFINITY;
    let mut i = 0usize;
    while i < sorted.len() {
        let t = time_area(&sorted[i]).0;
        let mut group_end = i;
        while group_end < sorted.len() && (time_area(&sorted[group_end]).0 - t).abs() <= 1e-12 {
            group_end += 1;
        }
        let mut group_min_area = f64::INFINITY;
        for k in i..group_end {
            // Slots `kept..k` hold dropped points only.
            let area = time_area(&sorted[k]).1;
            if area <= best_area_strictly_faster {
                sorted.swap(kept, k);
                kept += 1;
            }
            group_min_area = group_min_area.min(area);
        }
        best_area_strictly_faster = best_area_strictly_faster.min(group_min_area);
        i = group_end;
    }
    sorted.truncate(kept);
}

/// The non-dominated allocation set `N_j` of one job, sorted by increasing
/// execution time (hence non-increasing area).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    points: Vec<AllocPoint>,
}

impl JobProfile {
    /// Builds the profile of a job: evaluate the execution-time model on
    /// every candidate allocation and prune dominated points (Equation 2).
    ///
    /// Candidates are evaluated in place (a grid through one reused buffer)
    /// and recorded as `(candidate index, time, area)`; an `Allocation` is
    /// built only for the points kept. Every recorded time is finite and
    /// positive and every area is non-negative and never `-0.0` or NaN, so
    /// ordering by `total_cmp` on time, then area, then the index is the
    /// order a stable sort of the candidates by time and area gives. The
    /// test-only `reference` submodule keeps the builder that materialised
    /// every candidate, and the `build_is_pinned_to_the_reference_*` tests
    /// compare the two bit for bit.
    pub fn build(
        spec: &ExecTimeSpec,
        space: &AllocationSpace,
        system: &SystemConfig,
        job: usize,
        enumeration_limit: u128,
    ) -> Result<JobProfile> {
        let candidates = space
            .candidates(system, enumeration_limit)
            .map_err(|e| match e {
                ModelError::EmptyAllocationSpace { .. } => ModelError::EmptyAllocationSpace { job },
                e => e,
            })?;
        // Allocations on which the model cannot run (e.g. zero units of a
        // resource type the job genuinely needs → infinite time) are simply
        // not usable points; drop them. Only error out if nothing remains.
        let mut records: Vec<(usize, f64, f64)> = Vec::with_capacity(candidates.len());
        let mut last_invalid = 0.0f64;
        let mut record = |k: usize, alloc: &[u64], time: f64| {
            if !time.is_finite() || time <= 0.0 {
                last_invalid = time;
                return;
            }
            records.push((k, time, average_area_of(alloc, time, system)));
        };
        match &candidates {
            Candidates::Grid(grid) => match spec {
                // `time_of` with each `powf` taken once per axis value: the
                // same inputs give the same `f64`, and grid values are at
                // least 1, so no zero component makes the time infinite.
                ExecTimeSpec::PowerLaw { base, alpha } => {
                    let powers: Vec<Vec<f64>> = alpha
                        .iter()
                        .zip(grid.axes())
                        .map(|(&a, axis)| axis.iter().map(|&v| (v as f64).powf(a)).collect())
                        .collect();
                    grid.for_each(|k, digits, alloc| {
                        let mut t = *base;
                        for (i, &a) in alpha.iter().enumerate() {
                            if a > 0.0 {
                                t /= powers[i][digits[i]];
                            }
                        }
                        record(k, alloc, t)
                    })
                }
                _ => grid.for_each(|k, _, alloc| record(k, alloc, spec.time_of(alloc))),
            },
            Candidates::Explicit(allocs) => {
                for (k, alloc) in allocs.iter().enumerate() {
                    record(k, alloc.amounts(), spec.time_of(alloc.amounts()));
                }
            }
        }
        if records.is_empty() {
            return Err(ModelError::InvalidExecutionTime {
                job,
                value: last_invalid,
            });
        }
        records.sort_unstable_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then(a.2.total_cmp(&b.2))
                .then(a.0.cmp(&b.0))
        });
        retain_non_dominated(&mut records, |r| (r.1, r.2));
        let points = records
            .iter()
            .map(|&(k, time, area)| AllocPoint {
                alloc: candidates.get(k),
                time,
                area,
            })
            .collect();
        Ok(JobProfile { points })
    }

    /// Builds a profile from explicit points, pruning dominated ones. The
    /// `job` index is only used for error attribution by callers; an empty
    /// point set yields an empty profile.
    pub fn from_points(mut points: Vec<AllocPoint>, _job: usize) -> JobProfile {
        // Sort by (time asc, area asc) and sweep keeping the running minimum
        // area: a point is dominated iff some strictly faster point has
        // strictly smaller area (Equation 2 uses strict inequalities on both
        // coordinates).
        points.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.area
                        .partial_cmp(&b.area)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        retain_non_dominated(&mut points, |p| (p.time, p.area));
        points.shrink_to_fit();
        JobProfile { points }
    }

    /// The non-dominated points, sorted by increasing time.
    pub fn points(&self) -> &[AllocPoint] {
        &self.points
    }

    /// Number of non-dominated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the profile has no points (only possible for pathological
    /// inputs; [`JobProfile::build`] errors out instead).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The fastest point (minimum execution time).
    pub fn min_time_point(&self) -> &AllocPoint {
        self.points
            .first()
            .expect("profiles are built from at least one allocation")
    }

    /// The cheapest point (minimum average area; ties broken towards the
    /// faster point because the scan keeps the first strictly-smaller area).
    pub fn min_area_point(&self) -> &AllocPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.area
                    .partial_cmp(&b.area)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("profiles are built from at least one allocation")
    }

    /// The point with the smallest `max(time, area)`, a handy single-job
    /// proxy for `L_min`.
    pub fn min_max_time_area_point(&self) -> &AllocPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.time
                    .max(a.area)
                    .partial_cmp(&b.time.max(b.area))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("profiles are built from at least one allocation")
    }

    /// Among points with `time ≤ deadline`, the one with the smallest area;
    /// `None` if no point is fast enough. This is the inner step of the
    /// independent-job optimal allocator (Lemma 8).
    pub fn cheapest_within_deadline(&self, deadline: f64) -> Option<&AllocPoint> {
        self.points
            .iter()
            .filter(|p| p.time <= deadline + 1e-12)
            .min_by(|a, b| {
                a.area
                    .partial_cmp(&b.area)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The fastest point among those with area at most `area_budget`;
    /// `None` if even the cheapest point exceeds the budget.
    pub fn fastest_within_area(&self, area_budget: f64) -> Option<&AllocPoint> {
        self.points.iter().find(|p| p.area <= area_budget + 1e-12)
    }

    /// Finds the profile point for a specific allocation, if it is on the
    /// frontier.
    pub fn point_for(&self, alloc: &Allocation) -> Option<&AllocPoint> {
        self.points.iter().find(|p| &p.alloc == alloc)
    }

    /// Checks the Pareto invariant: the points are sorted by non-decreasing
    /// time and no point is dominated (Equation 2) by another point of the
    /// profile.
    pub fn is_pareto_consistent(&self) -> bool {
        for w in self.points.windows(2) {
            if w[1].time < w[0].time - 1e-12 {
                return false;
            }
        }
        for (i, p) in self.points.iter().enumerate() {
            for (k, q) in self.points.iter().enumerate() {
                if i != k && q.time < p.time - 1e-12 && q.area < p.area - 1e-12 {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DEFAULT_ENUMERATION_LIMIT;

    fn system2() -> SystemConfig {
        SystemConfig::new(vec![4, 8]).unwrap()
    }

    fn amdahl2() -> ExecTimeSpec {
        ExecTimeSpec::Amdahl {
            seq: 1.0,
            work: vec![8.0, 8.0],
        }
    }

    #[test]
    fn average_area_definition() {
        let s = system2();
        let alloc = Allocation::new(vec![2, 4]);
        // w1 = 2t, a1 = 2t/4; w2 = 4t, a2 = 4t/8; average = (0.5t + 0.5t)/2
        let a = average_area(&alloc, 10.0, &s);
        assert!((a - 5.0).abs() < 1e-12);
    }

    #[test]
    fn build_profile_prunes_dominated() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        assert!(!profile.is_empty());
        assert!(profile.is_pareto_consistent());
        // The fastest point must be the full allocation for a pure Amdahl
        // profile.
        assert_eq!(profile.min_time_point().alloc, Allocation::new(vec![4, 8]));
        // The cheapest point is the all-ones allocation.
        assert_eq!(profile.min_area_point().alloc, Allocation::new(vec![1, 1]));
        // Far fewer points than the 32 grid points survive.
        assert!(profile.len() < 32);
    }

    #[test]
    fn explicit_points_domination() {
        let mk = |t: f64, a: f64| AllocPoint {
            alloc: Allocation::new(vec![1]),
            time: t,
            area: a,
        };
        let profile = JobProfile::from_points(
            vec![mk(1.0, 5.0), mk(2.0, 3.0), mk(3.0, 4.0), mk(4.0, 1.0)],
            0,
        );
        // (3.0, 4.0) is dominated by (2.0, 3.0).
        assert_eq!(profile.len(), 3);
        assert!(profile.is_pareto_consistent());
    }

    #[test]
    fn equal_time_points_do_not_dominate_each_other() {
        let mk = |t: f64, a: f64| AllocPoint {
            alloc: Allocation::new(vec![1]),
            time: t,
            area: a,
        };
        let profile = JobProfile::from_points(vec![mk(1.0, 5.0), mk(1.0, 3.0)], 0);
        // Equation 2 requires *strictly* smaller time, so both survive.
        assert_eq!(profile.len(), 2);
    }

    #[test]
    fn strictly_dominated_by_faster_and_cheaper_is_removed() {
        let mk = |t: f64, a: f64| AllocPoint {
            alloc: Allocation::new(vec![1]),
            time: t,
            area: a,
        };
        let profile = JobProfile::from_points(vec![mk(1.0, 1.0), mk(2.0, 2.0)], 0);
        assert_eq!(profile.len(), 1);
        assert!((profile.min_time_point().time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_and_area_queries() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        let fastest = profile.min_time_point().time;
        let cheapest_area = profile.min_area_point().area;
        // With a deadline equal to the fastest time, we get a point at that
        // time; with a huge deadline we get the cheapest point.
        let p1 = profile.cheapest_within_deadline(fastest).unwrap();
        assert!(p1.time <= fastest + 1e-12);
        let p2 = profile.cheapest_within_deadline(1e12).unwrap();
        assert!((p2.area - cheapest_area).abs() < 1e-12);
        // Impossible deadline.
        assert!(profile.cheapest_within_deadline(fastest * 0.5).is_none());
        // Area queries.
        let q1 = profile.fastest_within_area(cheapest_area).unwrap();
        assert!(q1.area <= cheapest_area + 1e-12);
        assert!(profile.fastest_within_area(cheapest_area * 0.5).is_none());
    }

    #[test]
    fn point_for_lookup() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        let full = Allocation::new(vec![4, 8]);
        assert!(profile.point_for(&full).is_some());
        // A dominated allocation is absent: (4, 1) has t = 1 + 2 + 8 = 11 and
        // average area 6.19, while (2, 3) achieves t = 7.67 and area 3.35 —
        // both strictly better — so Pareto pruning must have dropped (4, 1).
        assert!(profile.point_for(&Allocation::new(vec![2, 3])).is_some());
        assert!(profile.point_for(&Allocation::new(vec![4, 1])).is_none());
    }

    #[test]
    fn work_and_per_resource_area() {
        let s = system2();
        let p = AllocPoint::evaluate(&amdahl2(), Allocation::new(vec![2, 2]), &s, 0).unwrap();
        // t = 1 + 4 + 4 = 9
        assert!((p.time - 9.0).abs() < 1e-12);
        assert!((p.work(0) - 18.0).abs() < 1e-12);
        assert!((p.area_on(0, &s) - 4.5).abs() < 1e-12);
        assert!((p.area_on(1, &s) - 2.25).abs() < 1e-12);
        assert!((p.area - (4.5 + 2.25) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_time_rejected() {
        let bad = ExecTimeSpec::Constant { time: 0.0 };
        let s = system2();
        assert!(matches!(
            AllocPoint::evaluate(&bad, Allocation::new(vec![1, 1]), &s, 3),
            Err(ModelError::InvalidExecutionTime { job: 3, .. })
        ));
        // A profile whose model can never run errors out as well.
        assert!(matches!(
            JobProfile::build(&bad, &AllocationSpace::FullGrid, &s, 3, 1_000_000),
            Err(ModelError::InvalidExecutionTime { job: 3, .. })
        ));
    }

    #[test]
    fn zero_component_points_are_dropped_not_fatal() {
        // A job that needs only resource type 0: allocations with zero units
        // of type 1 are fine, allocations with zero units of type 0 are
        // unusable and silently dropped.
        let s = system2();
        let spec = ExecTimeSpec::Amdahl {
            seq: 0.5,
            work: vec![4.0, 0.0],
        };
        let space = AllocationSpace::Explicit(vec![
            Allocation::new(vec![0, 1]),
            Allocation::new(vec![1, 0]),
            Allocation::new(vec![2, 0]),
        ]);
        let profile = JobProfile::build(&spec, &space, &s, 0, 1_000_000).unwrap();
        assert_eq!(profile.len(), 2);
        assert!(profile.points().iter().all(|p| p.alloc[0] >= 1));
    }

    #[test]
    fn comm_penalty_profile_is_pareto() {
        let s = SystemConfig::new(vec![16]).unwrap();
        let spec = ExecTimeSpec::CommPenalty {
            seq: 0.5,
            work: vec![16.0],
            comm: vec![0.4],
        };
        let profile = JobProfile::build(
            &spec,
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        assert!(profile.is_pareto_consistent());
        // Very large allocations are dominated because the overhead makes
        // them both slower and larger in area.
        assert!(profile.min_time_point().alloc[0] < 16);
    }

    #[test]
    fn serde_roundtrip() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::PowersOfTwo,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        let json = serde_json::to_string(&profile).unwrap();
        let back: JobProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(profile, back);
    }

    /// SplitMix64: the pin's fixed-seed stream of cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A value on a coarse grid half the time, so that times and areas
        /// tie exactly between candidates.
        fn value(&mut self, lo: f64, hi: f64) -> f64 {
            if self.below(2) == 0 {
                lo + (hi - lo) * self.below(9) as f64 / 8.0
            } else {
                lo + (hi - lo) * self.unit()
            }
        }
    }

    /// Asserts that `build` and the reference give the same `Ok`/`Err`
    /// (variant and value), the same points in the same order, allocations
    /// equal and times and areas equal bit for bit. Returns whether the
    /// build succeeded.
    fn assert_pinned(
        spec: &ExecTimeSpec,
        space: &AllocationSpace,
        system: &SystemConfig,
        limit: u128,
    ) -> bool {
        let new = JobProfile::build(spec, space, system, 7, limit);
        let old = reference::build_reference(spec, space, system, 7, limit);
        let case = || {
            format!(
                "{spec:?} on {space:?}, capacities {:?}",
                system.capacities()
            )
        };
        match (new, old) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.len(), old.len(), "point count: {}", case());
                for (p, q) in new.points().iter().zip(old.points()) {
                    assert_eq!(p.alloc, q.alloc, "{}", case());
                    assert_eq!(p.time.to_bits(), q.time.to_bits(), "{}", case());
                    assert_eq!(p.area.to_bits(), q.area.to_bits(), "{}", case());
                }
                true
            }
            (Err(new), Err(old)) => {
                // `Debug` prints every float so that it reads back to the
                // same bits, NaN as `NaN`.
                assert_eq!(format!("{new:?}"), format!("{old:?}"), "{}", case());
                false
            }
            (new, old) => panic!("{}: build {new:?}, reference {old:?}", case()),
        }
    }

    fn random_spec(rng: &mut Rng, d: usize, caps: &[u64]) -> ExecTimeSpec {
        // Zero work, exponents and plateaus leave a type unused, so zero
        // components of explicit candidates run on some types only.
        let per_type = |rng: &mut Rng, hi: f64| -> Vec<f64> {
            (0..d)
                .map(|_| {
                    if rng.below(4) == 0 {
                        0.0
                    } else {
                        rng.value(0.0, hi)
                    }
                })
                .collect()
        };
        match rng.below(6) {
            0 => ExecTimeSpec::Amdahl {
                seq: rng.value(0.0, 4.0),
                work: per_type(rng, 60.0),
            },
            1 => {
                let alpha = per_type(rng, 1.0);
                let sum: f64 = alpha.iter().sum::<f64>().max(1.0);
                ExecTimeSpec::PowerLaw {
                    base: rng.value(1.0, 90.0),
                    alpha: alpha.iter().map(|a| a / sum).collect(),
                }
            }
            2 => ExecTimeSpec::Roofline {
                work: rng.value(1.0, 80.0),
                plateau: caps.iter().map(|&c| rng.below(c.min(64) + 1)).collect(),
            },
            3 => ExecTimeSpec::CommPenalty {
                seq: rng.value(0.0, 4.0),
                work: per_type(rng, 60.0),
                comm: per_type(rng, 2.0),
            },
            4 => {
                let entries = (0..rng.below(5))
                    .map(|_| {
                        // Now and then an entry of another dimension, which
                        // never fits.
                        let dim = if rng.below(8) == 0 { d + 1 } else { d };
                        let amounts = (0..dim)
                            .map(|i| rng.below(caps.get(i).copied().unwrap_or(4).min(64) + 1))
                            .collect();
                        (amounts, rng.value(0.5, 40.0))
                    })
                    .collect();
                let fallback = match rng.below(6) {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ => rng.value(40.0, 400.0),
                };
                ExecTimeSpec::Table { entries, fallback }
            }
            _ => ExecTimeSpec::Constant {
                time: match rng.below(8) {
                    0 => 0.0,
                    1 => -1.5,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    _ => rng.value(0.5, 30.0),
                },
            },
        }
    }

    fn random_space(rng: &mut Rng, caps: &[u64]) -> AllocationSpace {
        let d = caps.len();
        let amount = |rng: &mut Rng, cap: u64| match rng.below(10) {
            0 => 0,
            1 => cap.saturating_add(1 + rng.below(3)),
            _ => 1 + rng.below(cap.min(1 << 20)),
        };
        match rng.below(4) {
            0 => AllocationSpace::FullGrid,
            1 => AllocationSpace::PowersOfTwo,
            2 => {
                // Duplicates, zeros and out-of-range values; now and then a
                // list per type too many, or none left in range.
                let axes = d + usize::from(rng.below(20) == 0);
                AllocationSpace::PerAxis(
                    (0..axes)
                        .map(|i| {
                            let cap = caps.get(i).copied().unwrap_or(4);
                            let mut vals: Vec<u64> =
                                (0..rng.below(6)).map(|_| amount(rng, cap)).collect();
                            if let Some(&v) = vals.first() {
                                vals.push(v);
                            }
                            vals
                        })
                        .collect(),
                )
            }
            _ => {
                // Zero components, repeated allocations; now and then one
                // over capacity or all zero.
                let n = rng.below(12);
                let mut allocs: Vec<Allocation> = (0..n)
                    .map(|_| {
                        let mut a: Vec<u64> = caps
                            .iter()
                            .map(|&c| match rng.below(6) {
                                0 => 0,
                                1 => c,
                                _ => 1 + rng.below(c),
                            })
                            .collect();
                        if rng.below(25) == 0 {
                            a[0] = caps[0] + 1;
                        }
                        if a.iter().all(|&x| x == 0) && rng.below(4) != 0 {
                            a[d - 1] = 1;
                        }
                        Allocation::new(a)
                    })
                    .collect();
                if n > 0 && rng.below(3) == 0 {
                    let k = rng.below(n) as usize;
                    allocs.push(allocs[k].clone());
                }
                AllocationSpace::Explicit(allocs)
            }
        }
    }

    /// Every speedup family under every space kind, on random machines
    /// (among them capacities just below `u64::MAX`, where the reference's
    /// powers-of-two loop still ends) and random limits.
    #[test]
    fn build_is_pinned_to_the_reference_on_random_cases() {
        let mut rng = Rng(0x5eed_9f0f);
        let mut outcomes = std::collections::BTreeMap::new();
        for _ in 0..3000 {
            let d = 1 + rng.below(3) as usize;
            let caps: Vec<u64> = (0..d)
                .map(|_| match rng.below(12) {
                    0 => u64::MAX - 1 - rng.below(1 << 62),
                    1 => 1,
                    _ => 1 + rng.below(if d == 3 { 10 } else { 24 }),
                })
                .collect();
            let system = SystemConfig::new(caps.clone()).unwrap();
            let spec = random_spec(&mut rng, d, &caps);
            let space = random_space(&mut rng, &caps);
            let limit = if rng.below(10) == 0 {
                rng.below(40) as u128
            } else {
                DEFAULT_ENUMERATION_LIMIT
            };
            let ok = assert_pinned(&spec, &space, &system, limit);
            let space_kind = format!("{space:?}");
            let space_kind = space_kind.split('(').next().unwrap().to_string();
            let spec_kind = format!("{spec:?}");
            let spec_kind = spec_kind.split(' ').next().unwrap().to_string();
            *outcomes.entry((spec_kind, space_kind, ok)).or_insert(0) += 1;
        }
        // Every family under every space kind built at least one profile.
        for spec in [
            "Amdahl",
            "PowerLaw",
            "Roofline",
            "CommPenalty",
            "Table",
            "Constant",
        ] {
            for space in ["FullGrid", "PowersOfTwo", "PerAxis", "Explicit"] {
                let key = (spec.to_string(), space.to_string(), true);
                assert!(
                    outcomes.contains_key(&key),
                    "no {spec} profile on {space}: {outcomes:?}"
                );
            }
        }
        assert!(outcomes.iter().any(|((_, _, ok), _)| !ok));
    }

    /// Jobs of the `mrls generate` recipe (d = 3, P = 16, powers-of-two
    /// candidates) on every graph class the benchmark plans, under each
    /// speedup family and under the other grid spaces.
    #[test]
    fn build_is_pinned_to_the_reference_on_recipe_instances() {
        use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};
        let dags = [
            DagRecipe::Independent { n: 60 },
            DagRecipe::Chain { n: 40 },
            DagRecipe::RandomLayered {
                n: 20,
                layers: 5,
                edge_prob: 0.3,
            },
            DagRecipe::ForkJoin {
                width: 10,
                stages: 3,
            },
            DagRecipe::RandomOutTree {
                n: 40,
                max_children: 3,
            },
            DagRecipe::RandomInTree {
                n: 40,
                max_children: 3,
            },
            DagRecipe::RandomSeriesParallel {
                n: 40,
                series_prob: 0.5,
            },
            DagRecipe::Cholesky { tiles: 4 },
            DagRecipe::Epigenomics {
                branches: 4,
                depth: 4,
            },
        ];
        let families = [
            SpeedupFamily::Mixed,
            SpeedupFamily::Amdahl,
            SpeedupFamily::PowerLaw,
            SpeedupFamily::Roofline,
            SpeedupFamily::CommPenalty,
        ];
        let mut jobs = 0;
        for (k, dag) in dags.iter().enumerate() {
            for (f, family) in families.iter().enumerate() {
                // The generator takes and builds the other compilation of
                // this crate's types; JSON carries them, every float exactly.
                let recipe = InstanceRecipe {
                    system: SystemRecipe::Uniform { d: 3, p: 16 },
                    dag: dag.clone(),
                    jobs: JobRecipe {
                        family: *family,
                        work_range: (10.0, 80.0),
                        seq_fraction_range: (0.0, 0.2),
                        space: serde_json::from_str(
                            &serde_json::to_string(&AllocationSpace::PowersOfTwo).unwrap(),
                        )
                        .unwrap(),
                        heavy_kind_factor: 2.0,
                    },
                };
                let generated = recipe.generate(1 + 10 * k as u64 + f as u64).instance;
                let instance = crate::Instance::from_json(&generated.to_json()).unwrap();
                for job in &instance.jobs {
                    for space in [&job.space, &AllocationSpace::FullGrid] {
                        assert!(assert_pinned(
                            &job.spec,
                            space,
                            &instance.system,
                            DEFAULT_ENUMERATION_LIMIT
                        ));
                    }
                    let per_axis = AllocationSpace::PerAxis(vec![vec![16, 3, 7, 3, 0, 40]; 3]);
                    assert!(assert_pinned(
                        &job.spec,
                        &per_axis,
                        &instance.system,
                        DEFAULT_ENUMERATION_LIMIT
                    ));
                    jobs += 1;
                }
            }
        }
        assert!(jobs > 1000, "{jobs} jobs");
    }
}
