//! # mrls-sim — discrete-event execution runtime for mrls schedules
//!
//! The paper's algorithm plans a schedule offline from exact execution times.
//! This crate *executes* such a plan in virtual time on the multi-resource
//! machine model, under the things production systems actually face:
//!
//! * **Stochastic execution times** ([`perturb`]): multiplicative log-normal
//!   noise, heavy-tail stragglers, per-resource slowdowns, and compositions
//!   thereof, all sampled deterministically from a seeded `ChaCha8` stream.
//! * **Failure injection** ([`failure`]): seeded per-attempt fault draws,
//!   straggler-kill deadlines and resource outages; failed attempts return
//!   to the ready set under a bounded-retry policy with virtual-time
//!   exponential backoff, and jobs exhausting their budget are abandoned
//!   together with their descendants.
//! * **Runtime scenarios** ([`scenario`]): online job arrivals (release
//!   times) and resource-capacity drops/recoveries mid-run; patterns are
//!   generated by `mrls_workload::scenario_gen`.
//! * **Reaction policies** ([`policy`]): a pluggable [`Policy`] trait with
//!   three reference implementations — [`StaticPolicy`] (replay the plan,
//!   jobs slide), [`ReactiveListPolicy`] (re-run the list phase over the
//!   ready set at every event, sharing `mrls-core`'s placement routine), and
//!   [`FullReschedulePolicy`] (re-invoke the complete two-phase scheduler on
//!   perturbation events).
//!
//! The engine ([`engine::Simulator`]) owns the world state and enforces the
//! hard invariants (precedence, release times, per-type capacity); policies
//! only pick which ready jobs start. A run produces a [`RealizedTrace`]: a
//! typed event log plus the realized [`mrls_core::Schedule`], which
//! `mrls_analysis::validate_schedule_with` (durations relaxed) re-checks for
//! capacity/precedence feasibility, and planned-vs-realized stress
//! statistics ([`StressStats`]).
//!
//! External events (releases and capacity changes) reach a run through one
//! [`EventFeed`] ([`source`]): built from a pre-generated [`Scenario`], or
//! pushed between drive calls (the `mrls-serve` online service). The
//! incremental driver ([`SimRun`]) owns its instance and plan. It can be
//! paused, checkpointed to a serialisable [`SimSnapshot`], and resumed —
//! even against an instance that has since grown by appended jobs — or kept
//! live across interaction rounds while its world grows in place. A resumed
//! job that has neither started nor been abandoned runs with the allocation
//! of the plan it is resumed with. Processed events can be **harvested** out
//! of the retained log so long-lived runs and their checkpoints stay
//! O(live state) instead of O(history).
//!
//! Two runs with the same seed produce byte-identical trace JSON.
//!
//! ## Quick start
//!
//! ```
//! use mrls_core::MrlsScheduler;
//! use mrls_sim::{PerturbationModel, PolicyKind, Scenario, SimConfig, Simulator};
//! use mrls_workload::InstanceRecipe;
//!
//! let instance = InstanceRecipe::default_layered(20, 2, 8).generate(1).instance;
//! let plan = MrlsScheduler::with_defaults().schedule(&instance).unwrap().schedule;
//!
//! let sim = Simulator::new(SimConfig {
//!     seed: 7,
//!     perturbation: PerturbationModel::Multiplicative { sigma: 0.3 },
//!     scenario: Scenario::offline(),
//!     max_events: None,
//! });
//! let trace = sim
//!     .run(&instance, &plan, PolicyKind::ReactiveList.build().as_mut())
//!     .unwrap();
//! assert!(trace.stats.realized_makespan > 0.0);
//! // The realized schedule is feasible (capacity + precedence), even though
//! // realized durations differ from the nominal model.
//! let report = mrls_analysis::validate_schedule_with(
//!     &instance,
//!     &trace.realized,
//!     mrls_analysis::ValidationOptions { check_durations: false },
//! );
//! assert!(report.is_valid());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod explain;
pub mod failure;
pub mod perturb;
pub mod policy;
pub mod scenario;
pub mod source;
pub mod trace;

pub use engine::{
    normalize_plan, RunStatus, RunningJob, SimConfig, SimError, SimRun, SimSnapshot, SimState,
    SimWorld, Simulator,
};
pub use explain::{explain, to_chrome_trace_with_blame, ExplainReport, GapReport};
pub use failure::{FailCause, FailureModel, FailurePlan, FailureSampler, Outage, RetryPolicy};
pub use perturb::{PerturbationModel, Perturber};
pub use policy::{FullReschedulePolicy, Policy, PolicyKind, ReactiveListPolicy, StaticPolicy};
pub use scenario::{CapacityChange, Scenario};
pub use source::{EventFeed, SourceEvent};
pub use trace::{RealizedTrace, StressStats, TraceEvent};
