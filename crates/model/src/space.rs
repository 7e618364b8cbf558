//! Candidate allocation spaces.
//!
//! Phase 1 of the algorithm works on the set `S` of possible resource
//! allocations of a job; the paper enumerates all `Q = Π_i P(i)` of them.
//! That is fine for small systems but explodes combinatorially, so this
//! module also offers restricted candidate grids (per-axis value lists,
//! powers of two). Every candidate still satisfies Assumptions 1–3, and the
//! allocators choose among the candidates only, so the guarantees hold
//! relative to the best allocation *within the candidate set*, and so do the
//! lower bounds taken over it. The µ-adjustment (Equation 5) caps amounts at
//! `⌈µ·P(i)⌉`, which need not be a candidate; a non-monotone job can run
//! faster there than at any candidate. So the certified bound that
//! `MrlsScheduler` reports is capped at `L(p)` of the decision it returns
//! (Lemma 1).

use crate::allocation::{Allocation, SystemConfig};
use crate::error::ModelError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Safety limit on the number of allocations a single job may enumerate.
pub const DEFAULT_ENUMERATION_LIMIT: u128 = 2_000_000;

/// A description of which allocations a job may choose from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationSpace {
    /// Every integral allocation `1 ≤ p_i ≤ P(i)` (the paper's set `S`).
    FullGrid,
    /// Per resource type, only powers of two up to the capacity (plus the
    /// capacity itself). Keeps `O(Π log P(i))` candidates.
    PowersOfTwo,
    /// Explicit candidate values per resource type (the cartesian product is
    /// enumerated). Values outside `[1, P(i)]` are clamped/skipped.
    PerAxis(Vec<Vec<u64>>),
    /// An explicit list of candidate allocations.
    Explicit(Vec<Allocation>),
}

/// The checked candidates of a space on one system: a grid walked without
/// materialising its allocations, or an explicit list.
pub(crate) enum Candidates<'a> {
    /// Every combination of one value per axis.
    Grid(Grid),
    /// The listed allocations, each validated against the system.
    Explicit(&'a [Allocation]),
}

impl Candidates<'_> {
    /// Number of candidates.
    pub(crate) fn len(&self) -> usize {
        match self {
            Candidates::Grid(grid) => grid.axes.iter().map(Vec::len).product(),
            Candidates::Explicit(allocs) => allocs.len(),
        }
    }

    /// Candidate `k` as an allocation.
    pub(crate) fn get(&self, k: usize) -> Allocation {
        match self {
            Candidates::Grid(grid) => grid.get(k),
            Candidates::Explicit(allocs) => allocs[k].clone(),
        }
    }
}

/// The cartesian product of per-axis value lists, none of them empty.
/// Candidate `k` is the `k`-th combination in lexicographic order (the last
/// axis varies fastest).
pub(crate) struct Grid {
    axes: Vec<Vec<u64>>,
}

impl Grid {
    /// The value lists, one per axis.
    pub(crate) fn axes(&self) -> &[Vec<u64>] {
        &self.axes
    }

    /// Calls `f(k, digits, amounts)` on every candidate in index order,
    /// where `amounts[i] = axes[i][digits[i]]`; both live in buffers reused
    /// from one candidate to the next (an odometer over the axes).
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, &[usize], &[u64])) {
        let mut digits = vec![0usize; self.axes.len()];
        let mut amounts: Vec<u64> = self.axes.iter().map(|a| a[0]).collect();
        for k in 0.. {
            f(k, &digits, &amounts);
            let mut i = self.axes.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                digits[i] += 1;
                if let Some(&v) = self.axes[i].get(digits[i]) {
                    amounts[i] = v;
                    break;
                }
                digits[i] = 0;
                amounts[i] = self.axes[i][0];
            }
        }
    }

    /// Candidate `k` as an allocation.
    fn get(&self, mut k: usize) -> Allocation {
        let mut amounts = vec![0u64; self.axes.len()];
        for (slot, axis) in amounts.iter_mut().zip(&self.axes).rev() {
            *slot = axis[k % axis.len()];
            k /= axis.len();
        }
        Allocation::new(amounts)
    }
}

/// `Π counts`, or `u128::MAX` if that overflows, which exceeds every limit
/// short of `u128::MAX`.
pub(crate) fn grid_size(counts: impl IntoIterator<Item = u128>) -> u128 {
    counts
        .into_iter()
        .try_fold(1u128, |size, c| size.checked_mul(c))
        .unwrap_or(u128::MAX)
}

/// The powers of two up to `cap`, then `cap` itself if it is not one. The
/// doubling stops at the first power above `cap` or past `u64::MAX`, so an
/// axis has at most 65 values.
fn powers_of_two(cap: u64) -> Vec<u64> {
    let mut vals: Vec<u64> = std::iter::successors(Some(1u64), |v| v.checked_mul(2))
        .take_while(|&v| v <= cap)
        .collect();
    if *vals.last().expect("capacities are at least 1") != cap {
        vals.push(cap);
    }
    vals
}

impl AllocationSpace {
    /// The values axis `i` of a grid space offers, ascending and distinct.
    fn axis(&self, system: &SystemConfig, i: usize) -> Vec<u64> {
        let cap = system.capacity(i);
        match self {
            AllocationSpace::FullGrid => (1..=cap).collect(),
            AllocationSpace::PowersOfTwo => powers_of_two(cap),
            AllocationSpace::PerAxis(values) => {
                let mut v: Vec<u64> = values[i]
                    .iter()
                    .copied()
                    .filter(|&x| x >= 1 && x <= cap)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            AllocationSpace::Explicit(_) => unreachable!("an explicit list has no axes"),
        }
    }

    /// Checks the space against `system` and the safety `limit` and returns
    /// its candidates, in the order [`AllocationSpace::enumerate`] lists them.
    pub(crate) fn candidates(&self, system: &SystemConfig, limit: u128) -> Result<Candidates<'_>> {
        let d = system.num_resource_types();
        let too_large = |size: u128| -> Result<()> {
            if size > limit {
                return Err(ModelError::AllocationSpaceTooLarge { size, limit });
            }
            Ok(())
        };
        match self {
            AllocationSpace::Explicit(allocs) => {
                for alloc in allocs {
                    system.validate_allocation(alloc)?;
                }
                if allocs.is_empty() {
                    return Err(ModelError::EmptyAllocationSpace { job: usize::MAX });
                }
                too_large(allocs.len() as u128)?;
                Ok(Candidates::Explicit(allocs))
            }
            AllocationSpace::PerAxis(values) if values.len() != d => {
                Err(ModelError::DimensionMismatch {
                    expected: d,
                    got: values.len(),
                })
            }
            _ => {
                if matches!(self, AllocationSpace::FullGrid) {
                    // Before its axes are built: they hold `P(i)` values each.
                    too_large(system.full_grid_size())?;
                }
                let axes: Vec<Vec<u64>> = (0..d).map(|i| self.axis(system, i)).collect();
                if axes.iter().any(Vec::is_empty) {
                    return Err(ModelError::EmptyAllocationSpace { job: usize::MAX });
                }
                too_large(grid_size(axes.iter().map(|a| a.len() as u128)))?;
                Ok(Candidates::Grid(Grid { axes }))
            }
        }
    }

    /// Enumerates the candidate allocations for a system, respecting the
    /// safety `limit` on the number of points (use
    /// [`DEFAULT_ENUMERATION_LIMIT`] unless you know better).
    pub fn enumerate(&self, system: &SystemConfig, limit: u128) -> Result<Vec<Allocation>> {
        Ok(match self.candidates(system, limit)? {
            Candidates::Grid(grid) => {
                let mut out = Vec::new();
                grid.for_each(|_, _, amounts| out.push(Allocation::new(amounts.to_vec())));
                out
            }
            Candidates::Explicit(allocs) => allocs.to_vec(),
        })
    }

    /// Number of candidate allocations without materialising them
    /// (`u128::MAX` if it overflows).
    pub fn size(&self, system: &SystemConfig) -> u128 {
        match self {
            AllocationSpace::FullGrid => system.full_grid_size(),
            AllocationSpace::PowersOfTwo => grid_size(
                (0..system.num_resource_types()).map(|i| self.axis(system, i).len() as u128),
            ),
            AllocationSpace::PerAxis(values) => {
                grid_size((0..values.len()).map(|i| self.axis(system, i).len() as u128))
            }
            AllocationSpace::Explicit(a) => a.len() as u128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_small() {
        let s = SystemConfig::new(vec![2, 3]).unwrap();
        let allocs = AllocationSpace::FullGrid
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        assert_eq!(allocs.len(), 6);
        assert!(allocs.contains(&Allocation::new(vec![1, 1])));
        assert!(allocs.contains(&Allocation::new(vec![2, 3])));
        assert_eq!(AllocationSpace::FullGrid.size(&s), 6);
    }

    #[test]
    fn full_grid_respects_limit() {
        let s = SystemConfig::new(vec![1000, 1000, 1000]).unwrap();
        let err = AllocationSpace::FullGrid.enumerate(&s, 1000).unwrap_err();
        assert!(matches!(err, ModelError::AllocationSpaceTooLarge { .. }));
    }

    #[test]
    fn powers_of_two_include_capacity() {
        let s = SystemConfig::new(vec![12]).unwrap();
        let allocs = AllocationSpace::PowersOfTwo
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        let values: Vec<u64> = allocs.iter().map(|a| a[0]).collect();
        assert_eq!(values, vec![1, 2, 4, 8, 12]);
    }

    #[test]
    fn powers_of_two_exact_capacity_power() {
        let s = SystemConfig::new(vec![8]).unwrap();
        let allocs = AllocationSpace::PowersOfTwo
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        let values: Vec<u64> = allocs.iter().map(|a| a[0]).collect();
        assert_eq!(values, vec![1, 2, 4, 8]);
    }

    #[test]
    fn powers_of_two_end_at_the_largest_capacity() {
        let s = SystemConfig::new(vec![u64::MAX]).unwrap();
        let space = AllocationSpace::PowersOfTwo;
        assert_eq!(space.size(&s), 65);
        let values: Vec<u64> = space
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap()
            .iter()
            .map(|a| a[0])
            .collect();
        let powers: Vec<u64> = (0..64).map(|k| 1u64 << k).collect();
        assert_eq!(values[..64], powers[..]);
        assert_eq!(values[64], u64::MAX);
    }

    #[test]
    fn an_overflowing_full_grid_is_too_large() {
        // 2^43 · 2^43 · 2^42 = 2^128 wraps a `u128` product to 0.
        let s = SystemConfig::new(vec![1 << 43, 1 << 43, 1 << 42]).unwrap();
        assert_eq!(s.full_grid_size(), u128::MAX);
        assert_eq!(AllocationSpace::FullGrid.size(&s), u128::MAX);
        assert!(matches!(
            AllocationSpace::FullGrid.enumerate(&s, DEFAULT_ENUMERATION_LIMIT),
            Err(ModelError::AllocationSpaceTooLarge {
                size: u128::MAX,
                ..
            })
        ));
        let per_axis = AllocationSpace::PerAxis(vec![(1..=200).collect(); 17]);
        let s = SystemConfig::uniform(17, 200).unwrap();
        assert_eq!(per_axis.size(&s), u128::MAX);
    }

    #[test]
    fn per_axis_filters_and_dedups() {
        let s = SystemConfig::new(vec![4, 4]).unwrap();
        let space = AllocationSpace::PerAxis(vec![vec![1, 2, 2, 9], vec![4, 1]]);
        let allocs = space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT).unwrap();
        assert_eq!(allocs.len(), 4); // {1,2} x {1,4}
        assert!(allocs.contains(&Allocation::new(vec![2, 4])));
    }

    #[test]
    fn per_axis_dimension_mismatch() {
        let s = SystemConfig::new(vec![4, 4]).unwrap();
        let space = AllocationSpace::PerAxis(vec![vec![1]]);
        assert!(matches!(
            space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn per_axis_empty_axis() {
        let s = SystemConfig::new(vec![4]).unwrap();
        let space = AllocationSpace::PerAxis(vec![vec![99]]);
        assert!(matches!(
            space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT),
            Err(ModelError::EmptyAllocationSpace { .. })
        ));
    }

    #[test]
    fn explicit_validation() {
        let s = SystemConfig::new(vec![4]).unwrap();
        let ok = AllocationSpace::Explicit(vec![Allocation::new(vec![2])]);
        assert_eq!(ok.enumerate(&s, 10).unwrap().len(), 1);
        let bad = AllocationSpace::Explicit(vec![Allocation::new(vec![9])]);
        assert!(bad.enumerate(&s, 10).is_err());
        let empty = AllocationSpace::Explicit(vec![]);
        assert!(empty.enumerate(&s, 10).is_err());
    }

    #[test]
    fn cartesian_order_is_lexicographic() {
        let s = SystemConfig::new(vec![2, 2]).unwrap();
        let allocs = AllocationSpace::FullGrid
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        let amounts: Vec<Vec<u64>> = allocs.iter().map(|a| a.amounts().to_vec()).collect();
        assert_eq!(
            amounts,
            vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]
        );
    }

    #[test]
    fn serde_roundtrip() {
        let space = AllocationSpace::PerAxis(vec![vec![1, 2], vec![3]]);
        let json = serde_json::to_string(&space).unwrap();
        let back: AllocationSpace = serde_json::from_str(&json).unwrap();
        assert_eq!(space, back);
    }
}
