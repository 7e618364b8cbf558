//! # mrls-core — Multi-Resource List Scheduling of Moldable Parallel Jobs
//!
//! This crate implements the algorithm and the analysis artefacts of
//! *"Multi-Resource List Scheduling of Moldable Parallel Jobs under Precedence
//! Constraints"* (Perotin, Sun, Raghavan — ICPP 2021, arXiv:2106.07059).
//!
//! The algorithm is two-phase (Section 4 of the paper):
//!
//! 1. **Resource allocation** ([`allocators`]) — Algorithm 1:
//!    * prune dominated allocations (done by `mrls-model`'s [`mrls_model::JobProfile`]),
//!    * solve the LP relaxation of the Discrete Time-Cost Tradeoff transform
//!      and round it with parameter `ρ` so that `C(p′) ≤ T_opt/ρ` and
//!      `A(p′) ≤ T_opt/(1−ρ)` (Lemma 3) — [`allocators::LpRoundingAllocator`],
//!    * cap every per-type allocation at `⌈µ·P(i)⌉` (Equation 5, Lemma 4) —
//!      [`allocators::adjust_allocation`].
//!
//!    Specialised allocators implement Lemma 7 (series-parallel graphs and
//!    trees, [`allocators::SpFptasAllocator`]) and Lemma 8 (independent jobs,
//!    [`allocators::IndependentOptimalAllocator`]), plus simple heuristics
//!    used as baselines and ablations.
//! 2. **List scheduling** ([`list_scheduler`]) — Algorithm 2: a greedy
//!    multi-resource list scheduler that starts any ready job whose
//!    allocation fits in **every** resource type, with pluggable priority
//!    rules ([`priority::PriorityRule`]).
//!
//! The combined pipeline, with the theorem-driven choices of `µ` and `ρ`, is
//! exposed as [`scheduler::MrlsScheduler`]. The [`theory`] module evaluates
//! every approximation ratio of Table 1 (and the quartic of Theorem 2 that
//! Figure 1 plots), [`bounds`] computes valid makespan lower bounds used to
//! normalise experimental results, and [`theorem6`] builds the lower-bound
//! tree family showing that local list scheduling cannot beat a factor of
//! `d`.
//!
//! ## Quick start
//!
//! ```
//! use mrls_core::scheduler::{MrlsConfig, MrlsScheduler};
//! use mrls_model::{ExecTimeSpec, Instance, MoldableJob, SystemConfig};
//! use mrls_dag::Dag;
//!
//! // Two resource types (e.g. cores and memory bandwidth), capacities 8 and 8.
//! let system = SystemConfig::new(vec![8, 8]).unwrap();
//! // A diamond-shaped workflow of four moldable jobs.
//! let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! let jobs: Vec<MoldableJob> = (0..4)
//!     .map(|j| MoldableJob::new(j, ExecTimeSpec::Amdahl { seq: 1.0, work: vec![12.0, 6.0] }))
//!     .collect();
//! let instance = Instance::new(system, dag, jobs).unwrap();
//!
//! let result = MrlsScheduler::new(MrlsConfig::default()).schedule(&instance).unwrap();
//! assert!(result.schedule.makespan > 0.0);
//! // The schedule respects the theoretical guarantee wrt. the lower bound.
//! assert!(result.schedule.makespan <= result.params.ratio_guarantee * result.lower_bound * 1.0001);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocators;
pub mod bounds;
pub mod error;
pub mod event_queue;
pub mod hash;
pub mod list_scheduler;
pub mod plan_diff;
pub mod priority;
pub mod ready_queue;
pub mod resource_state;
pub mod schedule;
pub mod scheduler;
pub mod theorem6;
pub mod theory;
pub mod timing;

pub use error::CoreError;
pub use event_queue::EventQueue;
pub use list_scheduler::ListScheduler;
pub use plan_diff::{diff_plan_entries, PlanDelta};
pub use priority::PriorityRule;
pub use ready_queue::ReadyQueue;
pub use resource_state::ResourceState;
pub use schedule::{Schedule, ScheduledJob};
pub use scheduler::{AllocatorKind, MrlsConfig, MrlsScheduler, ScheduleResult};

/// The shared fit/completion tolerance of every placement and event-time
/// decision: the list scheduler's completion grouping, [`ResourceState`]'s
/// fit test, and the `mrls-sim` engine's event batching all compare against
/// this same epsilon, so the optimized and reference event loops cannot
/// drift apart on tolerance grounds.
pub const EPS: f64 = 1e-9;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
