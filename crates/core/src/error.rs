//! Error type for the scheduling algorithms.

use std::fmt;

/// Errors produced by the allocators and schedulers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A parameter is outside its valid open interval.
    InvalidParameter {
        /// Parameter name (`"rho"`, `"mu"`, `"epsilon"`, …).
        name: &'static str,
        /// The supplied value.
        value: f64,
        /// Human-readable description of the valid range.
        valid_range: &'static str,
    },
    /// A job's allocation cannot ever fit on the system (exceeds capacity), so
    /// list scheduling would deadlock.
    AllocationNeverFits {
        /// The job index.
        job: usize,
        /// The resource type where it exceeds capacity.
        resource: usize,
    },
    /// A job has no allocation satisfying the constraint the allocator needs
    /// (e.g. no profile point fits the deadline during the SP FPTAS search).
    NoFeasibleAllocation {
        /// The job index.
        job: usize,
    },
    /// The requested allocator needs a series-parallel decomposition but the
    /// precedence graph is not series-parallel.
    NotSeriesParallel,
    /// The requested allocator only supports independent jobs.
    NotIndependent,
    /// The LP relaxation failed (should not happen for well-formed instances).
    LpFailure(String),
    /// Error bubbled up from the model layer.
    Model(mrls_model::ModelError),
    /// Error bubbled up from the DAG layer.
    Dag(mrls_dag::DagError),
}

/// The name `<prefix>.<cause>` of the per-cause counter for a [`CoreError`],
/// as a `&'static str`; `<cause>` is the variant's name in snake case. Every
/// fallback counter names its cause through this one match over the
/// variants.
///
/// ```
/// use mrls_core::{cause_counter, CoreError};
/// let name = cause_counter!("serve.plan.fallbacks", &CoreError::NotSeriesParallel);
/// assert_eq!(name, "serve.plan.fallbacks.not_series_parallel");
/// ```
#[macro_export]
macro_rules! cause_counter {
    ($prefix:literal, $err:expr) => {
        match $err {
            $crate::CoreError::InvalidParameter { .. } => concat!($prefix, ".invalid_parameter"),
            $crate::CoreError::AllocationNeverFits { .. } => {
                concat!($prefix, ".allocation_never_fits")
            }
            $crate::CoreError::NoFeasibleAllocation { .. } => {
                concat!($prefix, ".no_feasible_allocation")
            }
            $crate::CoreError::NotSeriesParallel => concat!($prefix, ".not_series_parallel"),
            $crate::CoreError::NotIndependent => concat!($prefix, ".not_independent"),
            $crate::CoreError::LpFailure(_) => concat!($prefix, ".lp_failure"),
            $crate::CoreError::Model(_) => concat!($prefix, ".model"),
            $crate::CoreError::Dag(_) => concat!($prefix, ".dag"),
        }
    };
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter {
                name,
                value,
                valid_range,
            } => write!(
                f,
                "parameter {name}={value} outside valid range {valid_range}"
            ),
            CoreError::AllocationNeverFits { job, resource } => write!(
                f,
                "job {job} is allocated more of resource {resource} than the system has"
            ),
            CoreError::NoFeasibleAllocation { job } => {
                write!(
                    f,
                    "job {job} has no feasible allocation for the allocator's constraints"
                )
            }
            CoreError::NotSeriesParallel => {
                write!(
                    f,
                    "the SP/tree allocator requires a series-parallel precedence graph"
                )
            }
            CoreError::NotIndependent => {
                write!(
                    f,
                    "the independent-job allocator requires a graph without edges"
                )
            }
            CoreError::LpFailure(msg) => write!(f, "LP relaxation failed: {msg}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Dag(e) => write!(f, "dag error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<mrls_model::ModelError> for CoreError {
    fn from(e: mrls_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<mrls_dag::DagError> for CoreError {
    fn from(e: mrls_dag::DagError) -> Self {
        CoreError::Dag(e)
    }
}

impl From<mrls_lp::LpError> for CoreError {
    fn from(e: mrls_lp::LpError) -> Self {
        CoreError::LpFailure(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::InvalidParameter {
            name: "rho",
            value: 1.5,
            valid_range: "(0, 1)",
        };
        assert!(e.to_string().contains("rho"));
        assert!(CoreError::NotSeriesParallel
            .to_string()
            .contains("series-parallel"));
        assert!(CoreError::NotIndependent
            .to_string()
            .contains("independent"));
        assert!(CoreError::LpFailure("x".into()).to_string().contains("LP"));
        assert!(CoreError::NoFeasibleAllocation { job: 3 }
            .to_string()
            .contains('3'));
        assert!(CoreError::AllocationNeverFits {
            job: 1,
            resource: 0
        }
        .to_string()
        .contains("resource 0"));
    }

    #[test]
    fn conversions() {
        let m: CoreError = mrls_model::ModelError::NoResourceTypes.into();
        assert!(matches!(m, CoreError::Model(_)));
        let d: CoreError = mrls_dag::DagError::EmptyGraph.into();
        assert!(matches!(d, CoreError::Dag(_)));
        let l: CoreError = mrls_lp::LpError::IterationLimit.into();
        assert!(matches!(l, CoreError::LpFailure(_)));
    }
}
