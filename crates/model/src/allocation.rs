//! Resource capacities and per-job resource allocations.

use crate::error::ModelError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// The platform: `d` resource types with integral capacities `P(1), …, P(d)`
/// (Assumption 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemConfig {
    capacities: Vec<u64>,
}

impl SystemConfig {
    /// Creates a system from per-type capacities. Every capacity must be at
    /// least one and there must be at least one resource type.
    pub fn new(capacities: Vec<u64>) -> Result<Self> {
        if capacities.is_empty() {
            return Err(ModelError::NoResourceTypes);
        }
        for (i, &c) in capacities.iter().enumerate() {
            if c == 0 {
                return Err(ModelError::ZeroCapacity { resource: i });
            }
        }
        Ok(SystemConfig { capacities })
    }

    /// A homogeneous system: `d` resource types, each with capacity `p`.
    pub fn uniform(d: usize, p: u64) -> Result<Self> {
        SystemConfig::new(vec![p; d])
    }

    /// Number of resource types `d`.
    #[inline]
    pub fn num_resource_types(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity `P(i)` of resource type `i`.
    #[inline]
    pub fn capacity(&self, i: usize) -> u64 {
        self.capacities[i]
    }

    /// All capacities as a slice.
    #[inline]
    pub fn capacities(&self) -> &[u64] {
        &self.capacities
    }

    /// The smallest capacity `P_min = min_i P(i)`, which the theorems place
    /// conditions on (e.g. `P_min ≥ 7` in Theorem 1).
    pub fn min_capacity(&self) -> u64 {
        *self
            .capacities
            .iter()
            .min()
            .expect("constructor guarantees at least one resource type")
    }

    /// The total number of distinct positive allocations `Q = Π_i P(i)`,
    /// computed in 128-bit; `u128::MAX` if even that overflows.
    pub fn full_grid_size(&self) -> u128 {
        crate::space::grid_size(self.capacities.iter().map(|&c| c as u128))
    }

    /// Validates an allocation against this system: right dimension, within
    /// capacity, and not entirely zero.
    ///
    /// Individual components *may* be zero — the paper allows a job to
    /// request nothing from a resource type (e.g. the Theorem 6 instance,
    /// where each unit job uses a single type). Execution-time models that
    /// need a resource return an infinite time for such allocations and the
    /// profile layer drops those points.
    pub fn validate_allocation(&self, alloc: &Allocation) -> Result<()> {
        if alloc.dim() != self.num_resource_types() {
            return Err(ModelError::DimensionMismatch {
                expected: self.num_resource_types(),
                got: alloc.dim(),
            });
        }
        for i in 0..alloc.dim() {
            if alloc[i] > self.capacities[i] {
                return Err(ModelError::ExceedsCapacity {
                    resource: i,
                    requested: alloc[i],
                    capacity: self.capacities[i],
                });
            }
        }
        if alloc.amounts().iter().all(|&a| a == 0) {
            return Err(ModelError::ZeroAllocation { resource: 0 });
        }
        Ok(())
    }
}

/// A resource allocation `p_j = (p_j(1), …, p_j(d))` for one job.
///
/// Allocations are ordinary value types: cheap to clone, comparable with the
/// component-wise partial order `⪯` of Assumption 3.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Allocation(Vec<u64>);

impl Allocation {
    /// Creates an allocation from the per-type amounts.
    pub fn new(amounts: Vec<u64>) -> Self {
        Allocation(amounts)
    }

    /// The all-ones allocation in `d` dimensions (the minimal executable
    /// request under our models).
    pub fn ones(d: usize) -> Self {
        Allocation(vec![1; d])
    }

    /// An allocation that requests the entire system.
    pub fn full(system: &SystemConfig) -> Self {
        Allocation(system.capacities().to_vec())
    }

    /// Number of resource types.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Amounts as a slice.
    #[inline]
    pub fn amounts(&self) -> &[u64] {
        &self.0
    }

    /// Component-wise partial order `self ⪯ other` (Assumption 3).
    pub fn dominated_by(&self, other: &Allocation) -> bool {
        self.dim() == other.dim() && (0..self.dim()).all(|i| self.0[i] <= other.0[i])
    }

    /// `max_i other_i / self_i` — the slowdown bound of Assumption 3 when
    /// shrinking from `other` to `self`. A component that drops to zero from
    /// a positive value yields an infinite ratio (the bound becomes vacuous);
    /// `0/0` counts as a ratio of one.
    pub fn max_ratio_from(&self, other: &Allocation) -> f64 {
        (0..self.dim())
            .map(|i| {
                if other.0[i] == 0 {
                    1.0
                } else if self.0[i] == 0 {
                    f64::INFINITY
                } else {
                    other.0[i] as f64 / self.0[i] as f64
                }
            })
            .fold(0.0, f64::max)
    }

    /// Component-wise minimum of two allocations.
    pub fn component_min(&self, other: &Allocation) -> Allocation {
        Allocation((0..self.dim()).map(|i| self.0[i].min(other.0[i])).collect())
    }

    /// Returns a copy with component `i` replaced by `value`.
    pub fn with_component(&self, i: usize, value: u64) -> Allocation {
        let mut v = self.0.clone();
        v[i] = value;
        Allocation(v)
    }

    /// Sum of all components (used by some heuristics as a size proxy).
    pub fn total_units(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl std::ops::Index<usize> for Allocation {
    type Output = u64;
    fn index(&self, i: usize) -> &u64 {
        &self.0[i]
    }
}

impl std::fmt::Display for Allocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_construction() {
        let s = SystemConfig::new(vec![8, 16, 4]).unwrap();
        assert_eq!(s.num_resource_types(), 3);
        assert_eq!(s.capacity(1), 16);
        assert_eq!(s.min_capacity(), 4);
        assert_eq!(s.full_grid_size(), 8 * 16 * 4);
    }

    #[test]
    fn uniform_system() {
        let s = SystemConfig::uniform(4, 10).unwrap();
        assert_eq!(s.capacities(), &[10, 10, 10, 10]);
    }

    #[test]
    fn rejects_empty_and_zero() {
        assert_eq!(
            SystemConfig::new(vec![]).unwrap_err(),
            ModelError::NoResourceTypes
        );
        assert_eq!(
            SystemConfig::new(vec![4, 0]).unwrap_err(),
            ModelError::ZeroCapacity { resource: 1 }
        );
    }

    #[test]
    fn allocation_validation() {
        let s = SystemConfig::new(vec![4, 8]).unwrap();
        assert!(s.validate_allocation(&Allocation::new(vec![1, 8])).is_ok());
        assert!(matches!(
            s.validate_allocation(&Allocation::new(vec![1, 9])),
            Err(ModelError::ExceedsCapacity { resource: 1, .. })
        ));
        // A single zero component is allowed (the job simply does not use that
        // resource type)…
        assert!(s.validate_allocation(&Allocation::new(vec![0, 1])).is_ok());
        // … but an entirely empty request is not.
        assert!(matches!(
            s.validate_allocation(&Allocation::new(vec![0, 0])),
            Err(ModelError::ZeroAllocation { .. })
        ));
        assert!(matches!(
            s.validate_allocation(&Allocation::new(vec![1])),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn partial_order_and_ratio() {
        let p = Allocation::new(vec![1, 2]);
        let q = Allocation::new(vec![2, 4]);
        assert!(p.dominated_by(&q));
        assert!(!q.dominated_by(&p));
        assert!(p.dominated_by(&p));
        assert!((p.max_ratio_from(&q) - 2.0).abs() < 1e-12);
        let r = Allocation::new(vec![3, 1]);
        assert!(!p.dominated_by(&r) && !r.dominated_by(&p));
    }

    #[test]
    fn helpers() {
        let s = SystemConfig::new(vec![4, 6]).unwrap();
        assert_eq!(Allocation::ones(2).amounts(), &[1, 1]);
        assert_eq!(Allocation::full(&s).amounts(), &[4, 6]);
        let a = Allocation::new(vec![2, 3]);
        assert_eq!(a.total_units(), 5);
        assert_eq!(a.with_component(0, 4).amounts(), &[4, 3]);
        assert_eq!(
            a.component_min(&Allocation::new(vec![1, 5])).amounts(),
            &[1, 3]
        );
        assert_eq!(a.to_string(), "(2, 3)");
        assert_eq!(a[1], 3);
    }

    #[test]
    fn serde_roundtrip() {
        let s = SystemConfig::new(vec![4, 6]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        let a = Allocation::new(vec![2, 3]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Allocation = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
