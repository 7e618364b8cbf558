//! The profile builder that [`JobProfile::build`] replaced, kept as the
//! executable specification its pin compares against. It materialises every
//! candidate as an `Allocation`, validates it again, evaluates it through
//! `ExecTimeSpec::time`'s former body, sorts the points stably by time and
//! area and clones the kept ones. The functions are the former
//! `JobProfile::build`, `JobProfile::from_points`,
//! `AllocationSpace::enumerate` (with its `cartesian` helper),
//! `ExecTimeSpec::time` and `average_area`, changed only by renames (methods
//! became free functions taking `self` as their first argument). Never
//! improve them: a change that alters profiles must say so and replace the
//! pin on purpose.

use super::{AllocPoint, JobProfile};
use crate::allocation::{Allocation, SystemConfig};
use crate::error::ModelError;
use crate::exectime::ExecTimeSpec;
use crate::space::AllocationSpace;
use crate::Result;

/// The former `JobProfile::build`.
pub(crate) fn build_reference(
    spec: &ExecTimeSpec,
    space: &AllocationSpace,
    system: &SystemConfig,
    job: usize,
    enumeration_limit: u128,
) -> Result<JobProfile> {
    let allocs = enumerate_reference(space, system, enumeration_limit).map_err(|e| {
        if let ModelError::EmptyAllocationSpace { .. } = e {
            ModelError::EmptyAllocationSpace { job }
        } else {
            e
        }
    })?;
    // Allocations on which the model cannot run (e.g. zero units of a
    // resource type the job genuinely needs → infinite time) are simply
    // not usable points; drop them. Only error out if nothing remains.
    let mut points = Vec::with_capacity(allocs.len());
    let mut last_invalid = 0.0f64;
    for alloc in allocs {
        system.validate_allocation(&alloc)?;
        let time = time_reference(spec, &alloc);
        if !time.is_finite() || time <= 0.0 {
            last_invalid = time;
            continue;
        }
        let area = average_area_reference(&alloc, time, system);
        points.push(AllocPoint { alloc, time, area });
    }
    if points.is_empty() {
        return Err(ModelError::InvalidExecutionTime {
            job,
            value: last_invalid,
        });
    }
    Ok(from_points_reference(points, job))
}

/// The former `JobProfile::from_points`.
pub(crate) fn from_points_reference(mut points: Vec<AllocPoint>, _job: usize) -> JobProfile {
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
    let mut kept: Vec<AllocPoint> = Vec::new();
    let mut best_area_strictly_faster = f64::INFINITY;
    let mut i = 0usize;
    while i < points.len() {
        // Process all points with (numerically) equal time together: they
        // cannot dominate each other via Equation 2's strict time
        // inequality.
        let t = points[i].time;
        let mut group_end = i;
        while group_end < points.len() && (points[group_end].time - t).abs() <= 1e-12 {
            group_end += 1;
        }
        for p in &points[i..group_end] {
            // Equation 2 uses *strict* inequalities on both coordinates:
            // a point is dominated only if some strictly faster point has
            // strictly smaller area.
            if p.area <= best_area_strictly_faster {
                kept.push(p.clone());
            }
        }
        let group_min_area = points[i..group_end]
            .iter()
            .map(|p| p.area)
            .fold(f64::INFINITY, f64::min);
        best_area_strictly_faster = best_area_strictly_faster.min(group_min_area);
        i = group_end;
    }
    JobProfile { points: kept }
}

/// The former `average_area`.
pub(crate) fn average_area_reference(alloc: &Allocation, time: f64, system: &SystemConfig) -> f64 {
    let d = system.num_resource_types();
    let sum: f64 = (0..d)
        .map(|i| alloc[i] as f64 * time / system.capacity(i) as f64)
        .sum();
    sum / d as f64
}

/// The former `AllocationSpace::enumerate`.
pub(crate) fn enumerate_reference(
    space: &AllocationSpace,
    system: &SystemConfig,
    limit: u128,
) -> Result<Vec<Allocation>> {
    let d = system.num_resource_types();
    match space {
        AllocationSpace::FullGrid => {
            let size = system.full_grid_size();
            if size > limit {
                return Err(ModelError::AllocationSpaceTooLarge { size, limit });
            }
            let axes: Vec<Vec<u64>> = (0..d).map(|i| (1..=system.capacity(i)).collect()).collect();
            Ok(cartesian(&axes))
        }
        AllocationSpace::PowersOfTwo => {
            let axes: Vec<Vec<u64>> = (0..d)
                .map(|i| {
                    let cap = system.capacity(i);
                    let mut vals: Vec<u64> = Vec::new();
                    let mut v = 1u64;
                    while v <= cap {
                        vals.push(v);
                        v = v.saturating_mul(2);
                    }
                    if *vals.last().expect("at least 1") != cap {
                        vals.push(cap);
                    }
                    vals
                })
                .collect();
            let size: u128 = axes.iter().map(|a| a.len() as u128).product();
            if size > limit {
                return Err(ModelError::AllocationSpaceTooLarge { size, limit });
            }
            Ok(cartesian(&axes))
        }
        AllocationSpace::PerAxis(values) => {
            if values.len() != d {
                return Err(ModelError::DimensionMismatch {
                    expected: d,
                    got: values.len(),
                });
            }
            let axes: Vec<Vec<u64>> = values
                .iter()
                .enumerate()
                .map(|(i, vals)| {
                    let mut v: Vec<u64> = vals
                        .iter()
                        .copied()
                        .filter(|&x| x >= 1 && x <= system.capacity(i))
                        .collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect();
            if axes.iter().any(|a| a.is_empty()) {
                return Err(ModelError::EmptyAllocationSpace { job: usize::MAX });
            }
            let size: u128 = axes.iter().map(|a| a.len() as u128).product();
            if size > limit {
                return Err(ModelError::AllocationSpaceTooLarge { size, limit });
            }
            Ok(cartesian(&axes))
        }
        AllocationSpace::Explicit(allocs) => {
            let mut out = Vec::new();
            for alloc in allocs {
                system.validate_allocation(alloc)?;
                out.push(alloc.clone());
            }
            if out.is_empty() {
                return Err(ModelError::EmptyAllocationSpace { job: usize::MAX });
            }
            if out.len() as u128 > limit {
                return Err(ModelError::AllocationSpaceTooLarge {
                    size: out.len() as u128,
                    limit,
                });
            }
            Ok(out)
        }
    }
}

/// Cartesian product of per-axis value lists, in lexicographic order.
fn cartesian(axes: &[Vec<u64>]) -> Vec<Allocation> {
    let mut out = Vec::new();
    let mut current = vec![0u64; axes.len()];
    fn rec(axes: &[Vec<u64>], depth: usize, current: &mut Vec<u64>, out: &mut Vec<Allocation>) {
        if depth == axes.len() {
            out.push(Allocation::new(current.clone()));
            return;
        }
        for &v in &axes[depth] {
            current[depth] = v;
            rec(axes, depth + 1, current, out);
        }
    }
    rec(axes, 0, &mut current, &mut out);
    out
}

/// The former `ExecTimeSpec::time`.
pub(crate) fn time_reference(spec: &ExecTimeSpec, alloc: &Allocation) -> f64 {
    match spec {
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
                let fits = amounts.len() == alloc.dim()
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
