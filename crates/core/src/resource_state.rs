//! Persistent multi-resource availability state.
//!
//! Both the offline list scheduler ([`crate::ListScheduler::schedule`]) and
//! incremental callers (the `mrls-sim` execution runtime) place jobs against
//! the same notion of "what is free right now". [`ResourceState`] is that
//! notion: a per-type free vector that jobs acquire on start and release on
//! completion, with the shared [`crate::EPS`] tolerance Algorithm 2 uses so
//! that floating-point accumulation never makes an exactly-fitting job
//! appear to not fit.
//!
//! Availability is stored as `f64` (not `u64`) because the simulation runtime
//! also models capacity *drops*: when the machine loses capacity while jobs
//! still hold resources, availability legitimately goes negative until enough
//! running jobs complete.

use crate::EPS;
use mrls_model::{Allocation, SystemConfig};

/// Per-resource-type available amounts, acquired and released as jobs start
/// and complete.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceState {
    avail: Vec<f64>,
}

impl ResourceState {
    /// A fully idle machine: availability equals the system capacities.
    pub fn from_system(system: &SystemConfig) -> Self {
        ResourceState::from_capacities(system.capacities())
    }

    /// A fully idle machine with explicit per-type capacities.
    pub fn from_capacities(capacities: &[u64]) -> Self {
        ResourceState {
            avail: capacities.iter().map(|&c| c as f64).collect(),
        }
    }

    /// Restores a state from previously captured availability amounts (a
    /// simulation checkpoint). The amounts are taken verbatim — including any
    /// accumulated floating-point residue — so a resumed run makes exactly
    /// the same fit decisions as the run it was captured from.
    pub fn from_available(avail: Vec<f64>) -> Self {
        ResourceState { avail }
    }

    /// The raw per-type availability amounts (for checkpointing).
    pub fn available_amounts(&self) -> &[f64] {
        &self.avail
    }

    /// Number of resource types `d`.
    pub fn num_resource_types(&self) -> usize {
        self.avail.len()
    }

    /// The currently available amount of resource type `i`. May be negative
    /// after a capacity drop while running jobs still hold resources.
    pub fn available(&self, i: usize) -> f64 {
        self.avail[i]
    }

    /// `true` iff `alloc` fits in the currently available amount of **every**
    /// resource type (within tolerance).
    pub fn fits(&self, alloc: &Allocation) -> bool {
        (0..self.avail.len()).all(|i| alloc[i] as f64 <= self.avail[i] + EPS)
    }

    /// Takes `alloc` out of the available pool (job start).
    pub fn acquire(&mut self, alloc: &Allocation) {
        for i in 0..self.avail.len() {
            self.avail[i] -= alloc[i] as f64;
        }
    }

    /// Returns `alloc` to the available pool (job completion).
    pub fn release(&mut self, alloc: &Allocation) {
        for i in 0..self.avail.len() {
            self.avail[i] += alloc[i] as f64;
        }
    }

    /// Shifts the available amount of type `i` by `delta` (a capacity change
    /// event: negative = the machine lost capacity, positive = regained).
    pub fn shift_capacity(&mut self, i: usize, delta: f64) {
        self.avail[i] += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip() {
        let system = SystemConfig::new(vec![4, 2]).unwrap();
        let mut state = ResourceState::from_system(&system);
        assert_eq!(state.num_resource_types(), 2);
        let a = Allocation::new(vec![3, 2]);
        assert!(state.fits(&a));
        state.acquire(&a);
        assert!((state.available(0) - 1.0).abs() < 1e-12);
        assert!(!state.fits(&Allocation::new(vec![0, 1])) || state.available(1) >= 1.0 - 1e-9);
        assert!(!state.fits(&a));
        state.release(&a);
        assert!(state.fits(&a));
    }

    #[test]
    fn exact_fit_tolerates_float_noise() {
        let mut state = ResourceState::from_capacities(&[3]);
        // Acquire/release in a pattern that accumulates rounding error.
        for _ in 0..1000 {
            let a = Allocation::new(vec![1]);
            state.acquire(&a);
            state.release(&a);
        }
        assert!(state.fits(&Allocation::new(vec![3])));
    }

    #[test]
    fn capacity_drop_can_go_negative() {
        let mut state = ResourceState::from_capacities(&[4]);
        state.acquire(&Allocation::new(vec![3]));
        state.shift_capacity(0, -2.0);
        assert!(state.available(0) < 0.0);
        assert!(!state.fits(&Allocation::new(vec![1])));
        state.release(&Allocation::new(vec![3]));
        assert!((state.available(0) - 2.0).abs() < 1e-12);
        state.shift_capacity(0, 2.0);
        assert!((state.available(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn engine_style_usage_restores_the_free_vector() {
        let mut state = ResourceState::from_capacities(&[8, 8]);
        for _ in 0..100 {
            let a = Allocation::new(vec![3, 2]);
            state.acquire(&a);
            state.shift_capacity(0, -1.0);
            state.shift_capacity(0, 1.0);
            state.release(&a);
        }
        assert_eq!(state.available_amounts(), &[8.0, 8.0]);
    }
}
