//! The deterministic discrete-event execution engine.
//!
//! [`Simulator::run`] executes a planned [`Schedule`] in virtual time on the
//! instance's machine, under a [`Scenario`] (online arrivals, capacity
//! changes) and a [`PerturbationModel`] (stochastic execution times). The
//! engine owns the world state and enforces the hard invariants — precedence,
//! release times, resource capacity — while a [`Policy`] decides *which*
//! ready jobs start, with which allocations, whenever the world changes.
//!
//! An in-flight run is a [`SimRun`], which owns its instance and plan. It
//! can be paused, checkpointed (serialisable [`SimSnapshot`]) and resumed —
//! including against a *grown* instance — and it can grow its world in place
//! ([`SimRun::grow`], [`SimRun::apply_plan_updates`]), which is how the
//! `mrls-serve` online service keeps one live world across batching rounds
//! instead of checkpoint→clone→resume each round.
//!
//! Processed trace events can be **harvested** out of the retained log
//! ([`SimRun::take_harvested_events`]): the run then only carries live state
//! plus a `harvested_until` watermark, and a checkpoint of it is truncated —
//! O(live) instead of O(history). The harvested prefix is immutable history;
//! callers archive it (the serve layer's event ledger) and pass it back when
//! assembling a full [`RealizedTrace`].
//!
//! Everything is deterministic: events are processed in `(time, kind, id)`
//! order, random draws are consumed in event order from a `ChaCha8` stream,
//! and two runs with the same seed produce byte-identical traces.

use crate::failure::{FailCause, FailurePlan, FailureSampler, Outage, RetryPolicy};
use crate::perturb::{PerturbationModel, Perturber};
use crate::policy::Policy;
use crate::scenario::Scenario;
use crate::source::{EventSource, ScenarioSource, SourceEvent};
use crate::trace::{RealizedTrace, StressStats, TraceEvent};
use mrls_core::{CoreError, EventQueue, ResourceState, Schedule, ScheduledJob};
use mrls_model::{Allocation, Instance, MoldableJob, SystemConfig};
use serde::{Deserialize, Serialize};

/// Event-time grouping tolerance — the shared [`mrls_core::EPS`], so the
/// engine batches completions with exactly the tolerance the offline list
/// scheduler groups events with.
pub(crate) use mrls_core::EPS;

/// Errors produced by the simulation engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Error bubbled up from the scheduling core.
    Core(CoreError),
    /// The planned schedule does not match the instance.
    InvalidPlan(String),
    /// The scenario does not match the instance.
    InvalidScenario(String),
    /// A checkpoint does not match the instance/plan it is resumed against.
    InvalidSnapshot(String),
    /// An in-place world growth or plan update is inconsistent with the
    /// running world (see [`SimRun::grow`]).
    InvalidGrowth(String),
    /// A policy asked the engine to do something infeasible.
    PolicyViolation {
        /// The offending policy.
        policy: String,
        /// The job involved.
        job: usize,
        /// What went wrong.
        reason: String,
    },
    /// The system went idle with unfinished jobs and no future events — a
    /// ready job can never fit (e.g. the capacity it needs was dropped and
    /// the policy cannot re-allocate).
    Stalled {
        /// Virtual time of the stall.
        time: f64,
        /// The jobs that were ready but could not start.
        ready: Vec<usize>,
    },
    /// The run exceeded the configured event budget.
    EventLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Core(e) => write!(f, "core error: {e}"),
            SimError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            SimError::InvalidScenario(msg) => write!(f, "invalid scenario: {msg}"),
            SimError::InvalidSnapshot(msg) => write!(f, "invalid snapshot: {msg}"),
            SimError::InvalidGrowth(msg) => write!(f, "invalid world growth: {msg}"),
            SimError::PolicyViolation {
                policy,
                job,
                reason,
            } => write!(
                f,
                "policy {policy} violated an invariant on job {job}: {reason}"
            ),
            SimError::Stalled { time, ready } => write!(
                f,
                "simulation stalled at t={time:.3} with ready jobs {ready:?} that can never start"
            ),
            SimError::EventLimitExceeded { limit } => {
                write!(f, "simulation exceeded the event budget of {limit}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Core(e)
    }
}

/// A job currently executing.
///
/// The allocation it holds is *not* duplicated here: it lives in the run's
/// `alloc_used` record (serialised in [`SimSnapshot::alloc_used`]), which
/// `apply_start` keeps in sync for every started job. Snapshots written
/// when running entries still carried an `alloc` field load unchanged — the
/// extra field is ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningJob {
    /// Job index.
    pub job: usize,
    /// When it started.
    pub start: f64,
    /// When it will finish (realized).
    pub finish: f64,
    /// Its nominal execution time under the allocation it runs with.
    pub nominal: f64,
}

/// The borrow-free world state the engine maintains: virtual time, resource
/// availability, and the per-job lifecycle flags. [`SimState`] pairs it with
/// the instance and plan for policy observation.
#[derive(Debug, Clone)]
pub struct SimWorld {
    /// Current virtual time.
    pub now: f64,
    /// Current per-type capacities (after any capacity changes).
    pub capacities: Vec<u64>,
    /// Current availability (capacities minus held resources).
    pub resources: ResourceState,
    /// Jobs that are released, have all predecessors completed, and have not
    /// started, sorted by job index.
    pub ready: Vec<usize>,
    /// Per-job released flag.
    pub released: Vec<bool>,
    /// Per-job started flag (running or completed).
    pub started: Vec<bool>,
    /// Per-job completed flag.
    pub completed: Vec<bool>,
    /// Jobs currently executing (unordered; completions are processed in
    /// deterministic `(finish, job)` order from an indexed event queue, not
    /// in this vector's order).
    pub running: Vec<RunningJob>,
    /// Per-job count of not-yet-completed predecessors.
    pub remaining_preds: Vec<usize>,
    /// Per-job abandoned flag: the job exhausted its retry budget (or an
    /// ancestor did) and will never run. Abandoned jobs are never ready.
    pub abandoned: Vec<bool>,
    /// The latest realized finish time among completed jobs, maintained
    /// incrementally at each completion (recomputed from the snapshot at
    /// resume). Policies use it to reason about run progress in O(1) where a
    /// per-job sweep would be O(world).
    pub max_completed_finish: f64,
}

impl SimWorld {
    /// `true` iff job `j` is in the ready set.
    pub fn is_ready(&self, j: usize) -> bool {
        self.ready.binary_search(&j).is_ok()
    }

    /// `true` iff job `j` was abandoned (its retry budget, or an ancestor's,
    /// is exhausted).
    pub fn is_abandoned(&self, j: usize) -> bool {
        self.abandoned[j]
    }
}

/// The world state a policy observes: the [`SimWorld`] (dereferenced
/// transparently, so `state.ready`, `state.now`, … keep reading naturally)
/// plus the instance being executed and the plan the run started from.
#[derive(Debug, Clone, Copy)]
pub struct SimState<'a> {
    /// The instance being executed.
    pub instance: &'a Instance,
    /// The offline plan the run started from.
    pub plan: &'a Schedule,
    world: &'a SimWorld,
}

impl std::ops::Deref for SimState<'_> {
    type Target = SimWorld;

    fn deref(&self) -> &SimWorld {
        self.world
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed of the perturbation stream.
    pub seed: u64,
    /// How realized execution times deviate from nominal ones.
    pub perturbation: PerturbationModel,
    /// Online arrivals and capacity changes.
    pub scenario: Scenario,
    /// Event budget; `None` = `1000 + 200 * n`.
    pub max_events: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            perturbation: PerturbationModel::None,
            scenario: Scenario::offline(),
            max_events: None,
        }
    }
}

/// How a [`SimRun::drive`] call ended (errors are reported separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every job of the instance completed and the source is exhausted.
    Complete,
    /// The stop time was reached; more events are pending.
    Paused,
    /// The source is exhausted and nothing is running, but incomplete jobs
    /// remain, all blocked (directly or transitively) on unreleased jobs —
    /// a live source may still feed the releases later.
    Idle,
}

/// The discrete-event execution engine.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates an engine with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Executes `plan` on `instance` under `policy`, returning the realized
    /// trace.
    pub fn run(
        &self,
        instance: &Instance,
        plan: &Schedule,
        policy: &mut dyn Policy,
    ) -> Result<RealizedTrace, SimError> {
        let plan = normalize_plan(instance, plan)?;
        let (mut run, mut source) = self.start_owned(instance.clone(), plan)?;
        match run.drive(policy, &mut source)? {
            RunStatus::Complete => Ok(run.into_trace(policy.label())),
            RunStatus::Paused | RunStatus::Idle => Err(SimError::Stalled {
                time: run.core.world.now,
                ready: run.core.world.ready.clone(),
            }),
        }
    }

    /// Begins an incremental run of `plan` (which must be job-indexed — see
    /// [`normalize_plan`]) under the configured scenario, returning the
    /// paused driver (holding its own copy of the instance and plan) plus
    /// the scenario's event source. Drive it with [`SimRun::drive`] /
    /// [`SimRun::drive_until`].
    pub fn start(
        &self,
        instance: &Instance,
        plan: &Schedule,
    ) -> Result<(SimRun, ScenarioSource), SimError> {
        self.start_owned(instance.clone(), plan.clone())
    }

    fn start_owned(
        &self,
        instance: Instance,
        plan: Schedule,
    ) -> Result<(SimRun, ScenarioSource), SimError> {
        let n = instance.num_jobs();
        self.config
            .scenario
            .validate(&instance)
            .map_err(SimError::InvalidScenario)?;
        let released: Vec<bool> = (0..n)
            .map(|j| self.config.scenario.release_time(j) <= 0.0)
            .collect();
        let run = SimRun::start(
            instance,
            plan,
            self.config.seed,
            self.config.perturbation.clone(),
            self.config.max_events,
            released,
        )?;
        Ok((run, ScenarioSource::new(&self.config.scenario, n)))
    }

    /// Resumes a checkpointed run against the configured scenario, returning
    /// the driver (holding its own copy of the instance and plan) plus a
    /// scenario source fast-forwarded past every event the checkpointed run
    /// already consumed.
    pub fn resume(
        &self,
        instance: &Instance,
        plan: &Schedule,
        snapshot: &SimSnapshot,
    ) -> Result<(SimRun, ScenarioSource), SimError> {
        let n = instance.num_jobs();
        self.config
            .scenario
            .validate(instance)
            .map_err(SimError::InvalidScenario)?;
        let run = SimRun::resume(
            instance.clone(),
            plan.clone(),
            snapshot,
            self.config.perturbation.clone(),
            self.config.max_events,
        )?;
        let source = ScenarioSource::resume_at(&self.config.scenario, n, snapshot.now);
        Ok((run, source))
    }
}

/// A fully owned, serialisable checkpoint of a paused run.
///
/// Together with the instance and the (job-indexed) plan, a snapshot restores
/// the run exactly: availability amounts are stored verbatim (including
/// floating-point residue) and the perturbation stream is fast-forwarded by
/// its recorded draw count, so the continuation of a resumed run is
/// byte-identical to the uninterrupted one for checkpoint-transparent
/// policies (static replay and reactive-list; a resumed full-reschedule
/// policy re-reads the plan and forgets earlier in-flight reschedules).
///
/// `events` holds only the **retained** log: events harvested out of the run
/// (see [`SimRun::take_harvested_events`]) are counted by `harvested_events`
/// and watermarked by `harvested_until`, keeping long-lived snapshots
/// O(live state) instead of O(history). Snapshots written before harvesting
/// existed deserialise with both fields at zero (nothing harvested), so old
/// checkpoints keep loading.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSnapshot {
    /// Seed of the perturbation stream.
    pub seed: u64,
    /// Virtual time of the checkpoint.
    pub now: f64,
    /// Current per-type capacities.
    pub capacities: Vec<u64>,
    /// Raw per-type availability amounts.
    pub available: Vec<f64>,
    /// Ready jobs, sorted by index (informational — recomputed from the
    /// flags at resume).
    pub ready: Vec<usize>,
    /// Per-job released flag.
    pub released: Vec<bool>,
    /// Per-job started flag.
    pub started: Vec<bool>,
    /// Per-job completed flag.
    pub completed: Vec<bool>,
    /// Jobs currently executing.
    pub running: Vec<RunningJob>,
    /// Per-job count of not-yet-completed predecessors (informational —
    /// recomputed from the flags at resume).
    pub remaining_preds: Vec<usize>,
    /// Realized start times (NaN = not started).
    pub start: Vec<f64>,
    /// Realized finish times (NaN = not finished).
    pub finish: Vec<f64>,
    /// Nominal execution times of started jobs (NaN = not started).
    pub nominal: Vec<f64>,
    /// Virtual times at which each job became ready (released with every
    /// predecessor complete; NaN = not yet ready). Snapshots written before
    /// this field existed deserialise as all-NaN, and the explain analyzer
    /// falls back to deriving readiness from the trace.
    pub ready_time: Vec<f64>,
    /// Allocation each job ran (or is planned to run) with.
    pub alloc_used: Vec<Allocation>,
    /// Number of completed jobs.
    pub num_completed: usize,
    /// The retained trace events (everything processed since the last
    /// harvest; the full log when nothing was ever harvested).
    pub events: Vec<TraceEvent>,
    /// How many events were harvested out of the retained log before this
    /// checkpoint (zero for pre-harvest snapshots).
    pub harvested_events: usize,
    /// Virtual-time watermark of the last harvest: every harvested event has
    /// time `<=` this (zero for pre-harvest snapshots).
    pub harvested_until: f64,
    /// Events consumed from the budget so far.
    pub event_budget: usize,
    /// Perturbation draws consumed so far.
    pub perturber_realizations: u64,
    /// Per-job count of attempts consumed so far (empty for pre-failure
    /// snapshots: no attempts beyond the implicit single one).
    pub attempts: Vec<u32>,
    /// Per-job virtual time at which a failed job becomes eligible again
    /// (NaN = not in backoff; empty for pre-failure snapshots).
    pub retry_at: Vec<f64>,
    /// Per-job abandoned flag (empty for pre-failure snapshots).
    pub abandoned: Vec<bool>,
    /// Planned death point of each running attempt (`None` = the attempt
    /// will complete; empty for pre-failure snapshots).
    pub fail_cause: Vec<Option<FailCause>>,
    /// Failure-sampler attempts judged so far (zero for pre-failure
    /// snapshots).
    pub failure_attempts: u64,
}

// Hand-written so that snapshots serialised before the harvesting fields
// existed still load (the vendored serde_derive has no `#[serde(default)]`).
impl Deserialize for SimSnapshot {
    fn from_value(
        v: &serde::__private::Value,
    ) -> std::result::Result<Self, serde::__private::Error> {
        use serde::__private::{field, opt_field};
        Ok(SimSnapshot {
            seed: field(v, "seed")?,
            now: field(v, "now")?,
            capacities: field(v, "capacities")?,
            available: field(v, "available")?,
            ready: field(v, "ready")?,
            released: field(v, "released")?,
            started: field(v, "started")?,
            completed: field(v, "completed")?,
            running: field(v, "running")?,
            remaining_preds: field(v, "remaining_preds")?,
            start: field(v, "start")?,
            finish: field(v, "finish")?,
            nominal: field(v, "nominal")?,
            alloc_used: field(v, "alloc_used")?,
            num_completed: field(v, "num_completed")?,
            ready_time: opt_field(v, "ready_time")?.unwrap_or_default(),
            events: field(v, "events")?,
            harvested_events: opt_field(v, "harvested_events")?.unwrap_or(0),
            harvested_until: opt_field(v, "harvested_until")?.unwrap_or(0.0),
            event_budget: field(v, "event_budget")?,
            perturber_realizations: field(v, "perturber_realizations")?,
            attempts: opt_field(v, "attempts")?.unwrap_or_default(),
            retry_at: opt_field(v, "retry_at")?.unwrap_or_default(),
            abandoned: opt_field(v, "abandoned")?.unwrap_or_default(),
            fail_cause: opt_field(v, "fail_cause")?.unwrap_or_default(),
            failure_attempts: opt_field(v, "failure_attempts")?.unwrap_or(0),
        })
    }
}

impl SimSnapshot {
    /// The number of jobs the checkpointed world knew about.
    pub fn num_jobs(&self) -> usize {
        self.released.len()
    }

    /// Serialises the snapshot to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshots are always serialisable")
    }

    /// Parses a snapshot from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// A compact, platform-stable fingerprint of the snapshot: the FNV-1a
    /// fold of its compact JSON rendering. Two snapshots digest equal iff
    /// they serialise identically, which (floats included, bit for bit) is
    /// the same identity the byte-identity test suites compare on. The serve
    /// tier's durability layer stamps checkpoints with this so a recovery can
    /// cross-check what it rebuilt against what was written.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("snapshots are always serialisable");
        mrls_core::hash::fnv1a64(json.as_bytes())
    }
}

/// The borrow-free core of an in-flight simulation: the world state, the
/// per-job realized record, and the retained event log. [`SimRun`] wraps it
/// and passes its instance/plan in, so the drive loop can mutate the core
/// while reading the world.
#[derive(Debug, Clone)]
struct RunCore {
    seed: u64,
    max_events: Option<usize>,
    world: SimWorld,
    perturber: Perturber,
    /// Pending completion events, ordered by `(finish, job)`. Derived from
    /// `world.running` (rebuilt at resume, never serialised); replaces the
    /// O(running) min-scan per event with O(log n) heap operations.
    completions: EventQueue,
    /// Position of each running job inside `world.running` (`usize::MAX` =
    /// not running), so a completion removes its entry with one swap instead
    /// of an O(running) sweep.
    running_pos: Vec<usize>,
    start: Vec<f64>,
    finish: Vec<f64>,
    nominal: Vec<f64>,
    /// Virtual time each job became ready (NaN = not yet ready). Purely an
    /// observability record — never read back by the engine itself.
    ready_time: Vec<f64>,
    alloc_used: Vec<Allocation>,
    num_completed: usize,
    /// Retained events (everything processed since the last harvest).
    events: Vec<TraceEvent>,
    /// Count of events harvested out of `events` so far.
    harvested_events: usize,
    /// Virtual-time watermark of the last harvest.
    harvested_until: f64,
    event_budget: usize,
    /// The failure-injection stream (a no-op `FailureModel::None` sampler
    /// until [`RunCore::install_failures`] swaps in a real plan).
    failure: FailureSampler,
    /// The retry budget and backoff schedule.
    retry: RetryPolicy,
    /// Timed resource outages, sorted by `(time, resource)`.
    outages: Vec<Outage>,
    /// How many outages have fired already.
    outages_done: usize,
    /// Per-job attempts consumed (incremented at each start).
    attempts: Vec<u32>,
    /// Per-job backoff re-eligibility time (NaN = not in backoff).
    retry_at: Vec<f64>,
    /// Planned death of each running attempt (`Some` = the completion-queue
    /// entry for this job is a failure, not a completion).
    fail_cause: Vec<Option<FailCause>>,
    /// Number of abandoned jobs (counterpart of `world.abandoned`).
    num_abandoned: usize,
    /// Pending backoff-expiry events, ordered by `(time, job)`. Derived from
    /// `retry_at` (rebuilt at resume, never serialised).
    retries: EventQueue,
}

impl RunCore {
    /// Begins a run at time zero (see [`SimRun::start`]).
    fn start(
        instance: &Instance,
        plan: &Schedule,
        seed: u64,
        perturbation: PerturbationModel,
        max_events: Option<usize>,
        released: Vec<bool>,
    ) -> Result<Self, SimError> {
        check_normalized(instance, plan)?;
        let n = instance.num_jobs();
        if released.len() != n {
            return Err(SimError::InvalidScenario(format!(
                "{} release flags for {n} jobs",
                released.len()
            )));
        }
        let remaining_preds: Vec<usize> = (0..n).map(|j| instance.dag.in_degree(j)).collect();
        let ready: Vec<usize> = (0..n)
            .filter(|&j| released[j] && remaining_preds[j] == 0)
            .collect();
        let ready_time: Vec<f64> = (0..n)
            .map(|j| {
                if released[j] && remaining_preds[j] == 0 {
                    0.0
                } else {
                    f64::NAN
                }
            })
            .collect();
        let world = SimWorld {
            now: 0.0,
            capacities: instance.system.capacities().to_vec(),
            resources: ResourceState::from_system(&instance.system),
            ready,
            released,
            started: vec![false; n],
            completed: vec![false; n],
            running: Vec::new(),
            remaining_preds,
            abandoned: vec![false; n],
            max_completed_finish: 0.0,
        };
        Ok(RunCore {
            seed,
            max_events,
            world,
            perturber: Perturber::new(perturbation, seed),
            completions: EventQueue::new(),
            running_pos: vec![usize::MAX; n],
            start: vec![f64::NAN; n],
            finish: vec![f64::NAN; n],
            nominal: vec![f64::NAN; n],
            ready_time,
            alloc_used: plan.allocations(),
            num_completed: 0,
            events: Vec::new(),
            harvested_events: 0,
            harvested_until: 0.0,
            event_budget: 0,
            failure: FailureSampler::new(crate::FailureModel::None, seed),
            retry: RetryPolicy::default(),
            outages: Vec::new(),
            outages_done: 0,
            attempts: vec![0; n],
            retry_at: vec![f64::NAN; n],
            fail_cause: vec![None; n],
            num_abandoned: 0,
            retries: EventQueue::new(),
        })
    }

    /// Resumes a checkpointed run (see [`SimRun::resume_with_perturber`]).
    fn resume(
        instance: &Instance,
        plan: &Schedule,
        snapshot: &SimSnapshot,
        perturber: Perturber,
        max_events: Option<usize>,
    ) -> Result<Self, SimError> {
        if perturber.realizations() != snapshot.perturber_realizations {
            return Err(SimError::InvalidSnapshot(format!(
                "perturber has drawn {} realizations but the snapshot recorded {}",
                perturber.realizations(),
                snapshot.perturber_realizations
            )));
        }
        check_normalized(instance, plan)?;
        let n = instance.num_jobs();
        let m = snapshot.num_jobs();
        if m > n {
            return Err(SimError::InvalidSnapshot(format!(
                "snapshot covers {m} jobs but the instance has only {n}"
            )));
        }
        let d = instance.num_resource_types();
        if snapshot.capacities.len() != d || snapshot.available.len() != d {
            return Err(SimError::InvalidSnapshot(format!(
                "snapshot has {} resource types but the instance has {d}",
                snapshot.capacities.len()
            )));
        }
        for (what, len) in [
            ("started", snapshot.started.len()),
            ("completed", snapshot.completed.len()),
            ("remaining_preds", snapshot.remaining_preds.len()),
            ("start", snapshot.start.len()),
            ("finish", snapshot.finish.len()),
            ("nominal", snapshot.nominal.len()),
            ("alloc_used", snapshot.alloc_used.len()),
        ] {
            if len != m {
                return Err(SimError::InvalidSnapshot(format!(
                    "snapshot field `{what}` has length {len}, expected {m}"
                )));
            }
        }
        if snapshot.num_completed != snapshot.completed.iter().filter(|&&c| c).count() {
            return Err(SimError::InvalidSnapshot(
                "completion counter disagrees with the completed flags".to_string(),
            ));
        }

        let mut released = snapshot.released.clone();
        let mut started = snapshot.started.clone();
        let mut completed = snapshot.completed.clone();
        released.resize(n, false);
        started.resize(n, false);
        completed.resize(n, false);
        for j in 0..m {
            if (completed[j] && !started[j]) || (started[j] && !released[j]) {
                return Err(SimError::InvalidSnapshot(format!(
                    "job {j} has inconsistent lifecycle flags"
                )));
            }
        }
        // A tampered or truncated checkpoint must fail cleanly, not panic
        // mid-run: the running set is validated against the flags, and the
        // derived fields (remaining predecessor counts, ready set) are
        // recomputed from the flags rather than trusted.
        let mut seen_running = vec![false; n];
        for r in &snapshot.running {
            if r.job >= m || !started[r.job] || completed[r.job] || seen_running[r.job] {
                return Err(SimError::InvalidSnapshot(format!(
                    "running entry for job {} contradicts the job flags",
                    r.job
                )));
            }
            seen_running[r.job] = true;
            // The allocation a running job holds (and will release at its
            // completion) is its `alloc_used` record.
            instance
                .system
                .validate_allocation(&snapshot.alloc_used[r.job])
                .map_err(|e| SimError::InvalidSnapshot(format!("running job {}: {e}", r.job)))?;
        }
        // Failure-era fields: pre-failure snapshots deserialise them empty
        // and the resizes restore the "nothing ever failed" defaults.
        for (what, len) in [
            ("attempts", snapshot.attempts.len()),
            ("retry_at", snapshot.retry_at.len()),
            ("abandoned", snapshot.abandoned.len()),
            ("fail_cause", snapshot.fail_cause.len()),
        ] {
            if len != 0 && len != m {
                return Err(SimError::InvalidSnapshot(format!(
                    "snapshot field `{what}` has length {len}, expected {m} or 0"
                )));
            }
        }
        let mut attempts = snapshot.attempts.clone();
        attempts.resize(n, 0);
        let mut retry_at = snapshot.retry_at.clone();
        retry_at.resize(n, f64::NAN);
        let mut abandoned = snapshot.abandoned.clone();
        abandoned.resize(n, false);
        let mut fail_cause = snapshot.fail_cause.clone();
        fail_cause.resize(n, None);
        let num_abandoned = abandoned.iter().filter(|&&a| a).count();
        let retries = EventQueue::from_entries(
            (0..n)
                .filter(|&j| retry_at[j].is_finite())
                .map(|j| (retry_at[j], j))
                .collect(),
        );

        let remaining_preds: Vec<usize> = (0..n)
            .map(|j| {
                // Completed predecessors already had their completion events
                // processed before the checkpoint (for appended jobs, before
                // they existed).
                instance
                    .dag
                    .predecessors(j)
                    .iter()
                    .filter(|&&p| !completed[p])
                    .count()
            })
            .collect();
        // A job sitting in retry backoff satisfies the released/unstarted/
        // no-pending-preds predicate but is *held out* of the ready set until
        // its backoff expires; abandoned jobs never return.
        let ready: Vec<usize> = (0..n)
            .filter(|&j| {
                released[j]
                    && !started[j]
                    && !abandoned[j]
                    && !retry_at[j].is_finite()
                    && remaining_preds[j] == 0
            })
            .collect();
        let mut alloc_used = snapshot.alloc_used.clone();
        let plan_allocs = plan.allocations();
        alloc_used.extend(plan_allocs[m..].iter().cloned());
        let mut start = snapshot.start.clone();
        let mut finish = snapshot.finish.clone();
        let mut nominal = snapshot.nominal.clone();
        start.resize(n, f64::NAN);
        finish.resize(n, f64::NAN);
        nominal.resize(n, f64::NAN);
        // Pre-`ready_time` snapshots deserialise the field empty; the resize
        // fills every slot with the not-yet-ready sentinel.
        let mut ready_time = snapshot.ready_time.clone();
        ready_time.resize(n, f64::NAN);

        // The completion queue and position index are derived state: rebuilt
        // from the snapshot's running set, never serialised. The progress
        // maximum is refolded from the realized finishes of completed jobs.
        let completions =
            EventQueue::from_entries(snapshot.running.iter().map(|r| (r.finish, r.job)).collect());
        let mut running_pos = vec![usize::MAX; n];
        for (i, r) in snapshot.running.iter().enumerate() {
            running_pos[r.job] = i;
        }
        let max_completed_finish = (0..m)
            .filter(|&j| completed[j])
            .map(|j| finish[j])
            .fold(0.0f64, f64::max);

        let world = SimWorld {
            now: snapshot.now,
            capacities: snapshot.capacities.clone(),
            resources: ResourceState::from_available(snapshot.available.clone()),
            ready,
            released,
            started,
            completed,
            running: snapshot.running.clone(),
            remaining_preds,
            abandoned,
            max_completed_finish,
        };
        Ok(RunCore {
            seed: snapshot.seed,
            max_events,
            world,
            perturber,
            completions,
            running_pos,
            start,
            finish,
            nominal,
            ready_time,
            alloc_used,
            num_completed: snapshot.num_completed,
            events: snapshot.events.clone(),
            harvested_events: snapshot.harvested_events,
            harvested_until: snapshot.harvested_until,
            event_budget: snapshot.event_budget,
            // The stream position is restored counter-only here; installing
            // a real failure plan (`install_failures`) replays the model's
            // draws up to this count, exactly like `Perturber::resume`.
            failure: FailureSampler::resume(
                crate::FailureModel::None,
                snapshot.seed,
                snapshot.failure_attempts,
            ),
            retry: RetryPolicy::default(),
            outages: Vec::new(),
            outages_done: 0,
            attempts,
            retry_at,
            fail_cause,
            num_abandoned,
            retries,
        })
    }

    /// Installs a failure plan, resuming the failure stream at the recorded
    /// attempt count. Call before driving (fresh runs and resumed ones
    /// alike); a run without an installed plan never fails anything.
    fn install_failures(&mut self, plan: FailurePlan, sampler: FailureSampler) {
        self.failure = sampler;
        self.retry = plan.retry;
        let mut outages = plan.outages;
        outages.sort_by(|a, b| {
            a.time
                .partial_cmp(&b.time)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.resource.cmp(&b.resource))
        });
        // Outages at or before the current instant already fired (the drive
        // loop processes everything `<= now + EPS` before pausing).
        self.outages_done = outages
            .iter()
            .filter(|o| o.time <= self.world.now + EPS)
            .count();
        self.outages = outages;
    }

    fn state<'a>(&'a self, instance: &'a Instance, plan: &'a Schedule) -> SimState<'a> {
        SimState {
            instance,
            plan,
            world: &self.world,
        }
    }

    fn checkpoint(&self) -> SimSnapshot {
        SimSnapshot {
            seed: self.seed,
            now: self.world.now,
            capacities: self.world.capacities.clone(),
            available: self.world.resources.available_amounts().to_vec(),
            ready: self.world.ready.clone(),
            released: self.world.released.clone(),
            started: self.world.started.clone(),
            completed: self.world.completed.clone(),
            running: self.world.running.clone(),
            remaining_preds: self.world.remaining_preds.clone(),
            start: self.start.clone(),
            finish: self.finish.clone(),
            nominal: self.nominal.clone(),
            ready_time: self.ready_time.clone(),
            alloc_used: self.alloc_used.clone(),
            num_completed: self.num_completed,
            events: self.events.clone(),
            harvested_events: self.harvested_events,
            harvested_until: self.harvested_until,
            event_budget: self.event_budget,
            perturber_realizations: self.perturber.realizations(),
            attempts: self.attempts.clone(),
            retry_at: self.retry_at.clone(),
            abandoned: self.world.abandoned.clone(),
            fail_cause: self.fail_cause.clone(),
            failure_attempts: self.failure.attempts(),
        }
    }

    /// Moves the retained event log out of the run, advancing the watermark.
    fn take_harvested(&mut self) -> Vec<TraceEvent> {
        let out = std::mem::take(&mut self.events);
        self.harvested_events += out.len();
        self.harvested_until = self.world.now;
        out
    }

    fn drive_inner(
        &mut self,
        instance: &Instance,
        plan: &Schedule,
        policy: &mut dyn Policy,
        source: &mut dyn EventSource,
        t_stop: Option<f64>,
        init_policy: bool,
    ) -> Result<RunStatus, SimError> {
        let n = instance.num_jobs();
        let max_events = self.max_events.unwrap_or(1000 + 200 * n);
        if init_policy {
            policy.on_start(&self.state(instance, plan))?;
        }

        loop {
            // Decision point: let the policy start jobs until it passes.
            loop {
                let starts = policy.select_starts(&self.state(instance, plan));
                if starts.is_empty() {
                    break;
                }
                for (j, alloc) in starts {
                    self.apply_start(instance, policy.label(), j, alloc)?;
                }
            }

            let src_next = source.next_time();
            if self.num_completed + self.num_abandoned == n && src_next.is_none() {
                return Ok(RunStatus::Complete);
            }

            // Drop stale completion entries (attempts killed early by an
            // outage leave their queued finish behind) so the time advance
            // never targets a dead instant.
            while let Some((f, j)) = self.completions.peek() {
                let pos = self.running_pos[j];
                if pos != usize::MAX && self.world.running[pos].finish == f {
                    break;
                }
                self.completions.pop();
            }

            // Advance to the next event: the earliest pending completion
            // (heap peek, O(1)), backoff expiry, outage, or source event.
            let mut t_next = match self.completions.peek() {
                Some((f, _)) => f,
                None => f64::INFINITY,
            };
            if let Some((t, _)) = self.retries.peek() {
                t_next = t_next.min(t);
            }
            if let Some(o) = self.outages.get(self.outages_done) {
                t_next = t_next.min(o.time);
            }
            if let Some(t) = src_next {
                t_next = t_next.min(t);
            }
            if !t_next.is_finite() {
                // Nothing is running and no event is pending, yet jobs
                // remain. With nothing running, every incomplete job is
                // unreleased, waiting on one, or ready: a non-empty ready
                // set means jobs the policy can never start (stall), while
                // an empty one means everything traces back to an
                // unreleased job a live source may still feed (idle).
                return if self.world.ready.is_empty() {
                    Ok(RunStatus::Idle)
                } else {
                    Err(SimError::Stalled {
                        time: self.world.now,
                        ready: self.world.ready.clone(),
                    })
                };
            }
            if let Some(stop) = t_stop {
                if t_next > stop + EPS {
                    return Ok(RunStatus::Paused);
                }
            }
            self.event_budget += 1;
            if self.event_budget > max_events {
                return Err(SimError::EventLimitExceeded { limit: max_events });
            }
            self.world.now = t_next;

            // Apply every event at this instant, in a fixed order:
            // completions and attempt failures (freeing resources and
            // successors), then outages, then backoff expiries, then
            // arrivals, then capacity changes.
            let mut batch: Vec<TraceEvent> = Vec::new();

            // Pop every attempt ending within tolerance of this instant off
            // the heap, then process the batch in job order (the
            // deterministic trace order). Each entry is moved out of the
            // running set with one swap — no O(running) sweep, no clone. An
            // entry whose finish no longer matches its running attempt is a
            // stale leftover of an outage kill and is skipped.
            let now = self.world.now;
            let mut done: Vec<usize> = Vec::new();
            while let Some((f, j)) = self.completions.peek() {
                if f > now + EPS {
                    break;
                }
                self.completions.pop();
                let pos = self.running_pos[j];
                if pos != usize::MAX && self.world.running[pos].finish == f {
                    done.push(j);
                }
            }
            done.sort_unstable();
            mrls_obs::counter_add("sim.engine.completions", done.len() as u64);
            for j in done {
                if let Some(cause) = self.fail_cause[j] {
                    // The attempt's queued end is its planned death point.
                    self.fail_attempt(instance, j, cause, &mut batch);
                    continue;
                }
                let pos = self.running_pos[j];
                let r = self.world.running.swap_remove(pos);
                debug_assert_eq!(r.job, j, "running position index out of sync");
                self.running_pos[j] = usize::MAX;
                if let Some(moved) = self.world.running.get(pos) {
                    self.running_pos[moved.job] = pos;
                }
                self.world.completed[j] = true;
                self.num_completed += 1;
                self.world.resources.release(&self.alloc_used[j]);
                self.world.max_completed_finish = self.world.max_completed_finish.max(r.finish);
                for &succ in instance.dag.successors(j) {
                    self.world.remaining_preds[succ] -= 1;
                    if self.world.remaining_preds[succ] == 0 && self.world.released[succ] {
                        insert_sorted(&mut self.world.ready, succ);
                        self.ready_time[succ] = self.world.now;
                    }
                }
                batch.push(TraceEvent::JobCompleted {
                    time: self.world.now,
                    job: j,
                    nominal: r.nominal,
                    realized: r.finish - r.start,
                });
            }

            // Timed resource outages: every attempt running with a non-zero
            // allocation on the type dies, in job order. Capacity itself is
            // untouched (an outage is a fault, not a capacity change).
            while let Some(o) = self.outages.get(self.outages_done) {
                if o.time > now + EPS {
                    break;
                }
                let resource = o.resource;
                self.outages_done += 1;
                let mut victims: Vec<usize> = self
                    .world
                    .running
                    .iter()
                    .filter(|r| {
                        let a = &self.alloc_used[r.job];
                        resource < a.dim() && a[resource] > 0
                    })
                    .map(|r| r.job)
                    .collect();
                victims.sort_unstable();
                for j in victims {
                    self.fail_attempt(instance, j, FailCause::Outage { resource }, &mut batch);
                }
            }

            // Backoff expiries: failed jobs rejoin the ready set. A failed
            // job is released with every predecessor complete (it started
            // once), so re-insertion is unconditional.
            while let Some((t, j)) = self.retries.peek() {
                if t > now + EPS {
                    break;
                }
                self.retries.pop();
                if !self.retry_at[j].is_finite() || self.world.abandoned[j] {
                    continue;
                }
                self.retry_at[j] = f64::NAN;
                debug_assert!(
                    self.world.released[j]
                        && !self.world.started[j]
                        && self.world.remaining_preds[j] == 0,
                    "a job in backoff is released with all predecessors complete"
                );
                insert_sorted(&mut self.world.ready, j);
                self.ready_time[j] = now;
                batch.push(TraceEvent::JobRetried {
                    time: now,
                    job: j,
                    attempt: self.attempts[j] + 1,
                });
            }

            let (mut releases, mut capacity_changes) = (0u64, 0u64);
            for ev in source.pop_until(self.world.now + EPS) {
                match ev {
                    SourceEvent::Release { job, .. } => {
                        releases += 1;
                        self.world.released[job] = true;
                        if self.world.remaining_preds[job] == 0 && !self.world.started[job] {
                            insert_sorted(&mut self.world.ready, job);
                            self.ready_time[job] = self.world.now;
                        }
                        batch.push(TraceEvent::JobReleased {
                            time: self.world.now,
                            job,
                        });
                    }
                    SourceEvent::Capacity {
                        resource, capacity, ..
                    } => {
                        capacity_changes += 1;
                        let delta = capacity as f64 - self.world.capacities[resource] as f64;
                        self.world.capacities[resource] = capacity;
                        self.world.resources.shift_capacity(resource, delta);
                        batch.push(TraceEvent::CapacityChanged {
                            time: self.world.now,
                            resource,
                            capacity,
                        });
                    }
                }
            }

            if mrls_obs::enabled() {
                mrls_obs::counter_add("sim.engine.releases", releases);
                mrls_obs::counter_add("sim.engine.capacity_changes", capacity_changes);
                mrls_obs::counter_add("sim.engine.events_processed", batch.len() as u64);
            }
            self.events.extend(batch.iter().cloned());
            let policy_events = policy.on_events(&self.state(instance, plan), &batch)?;
            self.events.extend(policy_events);
        }
    }

    /// Kills job `j`'s running attempt at the current instant: releases its
    /// resources, rewinds its lifecycle to "released but unstarted", and
    /// either schedules its backoff re-eligibility or — when the retry
    /// budget is exhausted — abandons it along with every descendant.
    fn fail_attempt(
        &mut self,
        instance: &Instance,
        j: usize,
        cause: FailCause,
        batch: &mut Vec<TraceEvent>,
    ) {
        let pos = self.running_pos[j];
        let r = self.world.running.swap_remove(pos);
        debug_assert_eq!(r.job, j, "running position index out of sync");
        self.running_pos[j] = usize::MAX;
        if let Some(moved) = self.world.running.get(pos) {
            self.running_pos[moved.job] = pos;
        }
        self.world.started[j] = false;
        self.world.resources.release(&self.alloc_used[j]);
        self.fail_cause[j] = None;
        self.start[j] = f64::NAN;
        self.finish[j] = f64::NAN;
        self.nominal[j] = f64::NAN;
        let attempt = self.attempts[j];
        let now = self.world.now;
        mrls_obs::counter_add("sim.engine.attempt_failures", 1);
        batch.push(TraceEvent::JobFailed {
            time: now,
            job: j,
            attempt,
            cause,
        });
        if attempt >= self.retry.max_attempts {
            self.abandon_with_descendants(instance, j, now, batch);
        } else {
            let at = now + self.retry.delay_after(attempt);
            self.retry_at[j] = at;
            self.retries.push(at, j);
        }
    }

    /// Marks `j` and every not-yet-completed descendant abandoned; each
    /// descendant gets a cascade `JobFailed` event (attempt 0 — it never
    /// ran). Descendants are provably never ready, started, or in backoff:
    /// their predecessor chain back to `j` contains a job that never
    /// completes, so their remaining-predecessor count never reaches zero.
    fn abandon_with_descendants(
        &mut self,
        instance: &Instance,
        j: usize,
        now: f64,
        batch: &mut Vec<TraceEvent>,
    ) {
        let mut stack = vec![j];
        let mut marked: Vec<usize> = Vec::new();
        while let Some(u) = stack.pop() {
            if self.world.abandoned[u] || self.world.completed[u] {
                continue;
            }
            debug_assert!(
                u == j || (!self.world.started[u] && !self.world.is_ready(u)),
                "a descendant of an uncompleted job cannot be ready or started"
            );
            self.world.abandoned[u] = true;
            self.num_abandoned += 1;
            marked.push(u);
            for &s in instance.dag.successors(u) {
                stack.push(s);
            }
        }
        marked.sort_unstable();
        for &u in &marked {
            if u == j {
                continue;
            }
            batch.push(TraceEvent::JobFailed {
                time: now,
                job: u,
                attempt: 0,
                cause: FailCause::Cascade,
            });
        }
    }

    /// Validates and applies one policy-selected start.
    fn apply_start(
        &mut self,
        instance: &Instance,
        policy_label: &str,
        j: usize,
        alloc: Allocation,
    ) -> Result<(), SimError> {
        let violation = |reason: String| SimError::PolicyViolation {
            policy: policy_label.to_string(),
            job: j,
            reason,
        };
        let world = &mut self.world;
        let pos = world
            .ready
            .binary_search(&j)
            .map_err(|_| violation("job is not ready".to_string()))?;
        instance
            .system
            .validate_allocation(&alloc)
            .map_err(|e| violation(e.to_string()))?;
        if !world.resources.fits(&alloc) {
            return Err(violation(format!(
                "allocation {alloc} does not fit the current availability"
            )));
        }
        let t_nom = instance.jobs[j].spec.time(&alloc);
        if !t_nom.is_finite() || t_nom <= 0.0 {
            return Err(violation(format!(
                "allocation {alloc} has invalid execution time {t_nom}"
            )));
        }
        let t_real = self.perturber.realize(&alloc, t_nom);
        self.attempts[j] += 1;
        // The failure draw happens at start time so the death is decided (and
        // the RNG stream advanced) deterministically regardless of what else
        // happens while the attempt runs. A doomed attempt occupies its
        // resources for `frac * t_real` and dies at the completion queue.
        let fail = self.failure.sample(t_real / t_nom);
        self.fail_cause[j] = fail.map(|(_, cause)| cause);
        let t_end = match fail {
            Some((frac, _)) => world.now + frac * t_real,
            None => world.now + t_real,
        };
        world.ready.remove(pos);
        world.started[j] = true;
        world.resources.acquire(&alloc);
        self.start[j] = world.now;
        self.finish[j] = t_end;
        self.nominal[j] = t_nom;
        // One clone: `alloc_used` keeps the authoritative copy the running
        // job releases at completion; the trace event takes the original.
        self.alloc_used[j] = alloc.clone();
        self.running_pos[j] = world.running.len();
        world.running.push(RunningJob {
            job: j,
            start: world.now,
            finish: t_end,
            nominal: t_nom,
        });
        self.completions.push(t_end, j);
        mrls_obs::counter_add("sim.engine.job_starts", 1);
        self.events.push(TraceEvent::JobStarted {
            time: world.now,
            job: j,
            alloc,
            nominal: t_nom,
        });
        Ok(())
    }
}

/// An in-flight simulation: the world state plus the per-job realized
/// record, driven incrementally against an [`EventSource`]. The run **owns**
/// its instance and plan, so it can outlive the code that built them: it
/// can be paused, checkpointed and resumed, and it can be kept across
/// interaction rounds while its world grows in place — no
/// checkpoint→clone→resume cycle, no O(history) copying. This is the engine
/// shape behind both [`Simulator::run`] and the `mrls-serve` service cores.
///
/// Mutations between drive calls:
///
/// * [`SimRun::grow`] appends jobs (and their precedence edges and plan
///   entries) and raises the system's capacity bounds;
/// * [`SimRun::sync_realized`] freezes the realized placement of started
///   jobs into the plan (what a rebuilt plan would contain);
/// * [`SimRun::apply_plan_updates`] installs re-planned placements for
///   unstarted jobs — callers diff the planner output first
///   (`mrls_core::diff_plan_entries`) so unchanged placements are not
///   re-applied.
///
/// Every mutation validates its whole input before writing anything: on
/// error the run (instance, plan and checkpointed state) is unchanged.
#[derive(Debug, Clone)]
pub struct SimRun {
    instance: Instance,
    plan: Schedule,
    core: RunCore,
}

impl SimRun {
    /// Begins a run at time zero. `plan` must be job-indexed (entry `j`
    /// describes job `j` — see [`normalize_plan`]); `released` flags the jobs
    /// available before the first external event.
    pub fn start(
        instance: Instance,
        plan: Schedule,
        seed: u64,
        perturbation: PerturbationModel,
        max_events: Option<usize>,
        released: Vec<bool>,
    ) -> Result<Self, SimError> {
        let core = RunCore::start(&instance, &plan, seed, perturbation, max_events, released)?;
        Ok(SimRun {
            instance,
            plan,
            core,
        })
    }

    /// Resumes a checkpointed run. The instance may have *grown* since the
    /// checkpoint (jobs appended at the end, with edges only among new jobs
    /// or from pre-existing jobs to new ones — never into pre-snapshot
    /// jobs); appended jobs start unreleased and are fed in as
    /// [`SourceEvent::Release`] events.
    ///
    /// The perturbation stream is reconstructed by replaying
    /// `snapshot.perturber_realizations` draws; a caller resuming round
    /// after round can keep the live [`Perturber`] instead via
    /// [`SimRun::resume_with_perturber`].
    pub fn resume(
        instance: Instance,
        plan: Schedule,
        snapshot: &SimSnapshot,
        perturbation: PerturbationModel,
        max_events: Option<usize>,
    ) -> Result<Self, SimError> {
        let perturber =
            Perturber::resume(perturbation, snapshot.seed, snapshot.perturber_realizations);
        SimRun::resume_with_perturber(instance, plan, snapshot, perturber, max_events)
    }

    /// Like [`SimRun::resume`], but continues an already fast-forwarded
    /// perturbation stream instead of replaying it from the seed.
    pub fn resume_with_perturber(
        instance: Instance,
        plan: Schedule,
        snapshot: &SimSnapshot,
        perturber: Perturber,
        max_events: Option<usize>,
    ) -> Result<Self, SimError> {
        let core = RunCore::resume(&instance, &plan, snapshot, perturber, max_events)?;
        Ok(SimRun {
            instance,
            plan,
            core,
        })
    }

    /// The instance being executed.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The in-flight plan (realized entries for synced started jobs, latest
    /// applied placements for pending ones).
    pub fn plan(&self) -> &Schedule {
        &self.plan
    }

    /// The observable world state.
    pub fn state(&self) -> SimState<'_> {
        self.core.state(&self.instance, &self.plan)
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.core.world.now
    }

    /// Number of completed jobs.
    pub fn num_completed(&self) -> usize {
        self.core.num_completed
    }

    /// The retained trace events: everything processed since the last
    /// harvest (the full log if nothing was ever harvested).
    pub fn events(&self) -> &[TraceEvent] {
        &self.core.events
    }

    /// Count of events harvested out of the retained log so far.
    pub fn harvested_events(&self) -> usize {
        self.core.harvested_events
    }

    /// Virtual-time watermark of the last harvest.
    pub fn harvested_until(&self) -> f64 {
        self.core.harvested_until
    }

    /// Moves the retained event log out of the run and advances the
    /// `harvested_until` watermark to the current virtual time. Subsequent
    /// checkpoints carry only events processed after this call; pass the
    /// harvested prefix back to [`SimRun::trace_with_prefix`] when
    /// assembling the full trace.
    pub fn take_harvested_events(&mut self) -> Vec<TraceEvent> {
        self.core.take_harvested()
    }

    /// The perturbation stream in its current position (clone it to resume a
    /// follow-up round without replaying draws — see
    /// [`SimRun::resume_with_perturber`]).
    pub fn perturber(&self) -> &Perturber {
        &self.core.perturber
    }

    /// Installs a failure plan on the paused run. Runs start failure-free;
    /// call this right after [`SimRun::start`] / [`SimRun::resume`] (the
    /// failure stream is replayed from the seed to the checkpointed
    /// position, mirroring how [`SimRun::resume`] replays the perturbation
    /// stream). Failure injection requires a reactive policy — a static
    /// cursor policy deadlocks when its cursor reaches a job that is in
    /// backoff.
    pub fn set_failures(&mut self, plan: FailurePlan) {
        let sampler = FailureSampler::resume(
            plan.model.clone(),
            self.core.seed,
            self.core.failure.attempts(),
        );
        self.core.install_failures(plan, sampler);
    }

    /// Like [`SimRun::set_failures`], but continues an already
    /// fast-forwarded failure stream (kept live across rounds) instead of
    /// replaying it from the seed.
    pub fn set_failures_with_sampler(
        &mut self,
        plan: FailurePlan,
        sampler: FailureSampler,
    ) -> Result<(), SimError> {
        if sampler.attempts() != self.core.failure.attempts() {
            return Err(SimError::InvalidSnapshot(format!(
                "failure sampler is at attempt {} but the run is at {}",
                sampler.attempts(),
                self.core.failure.attempts()
            )));
        }
        self.core.install_failures(plan, sampler);
        Ok(())
    }

    /// The failure stream in its current position.
    pub fn failure_sampler(&self) -> &FailureSampler {
        &self.core.failure
    }

    /// Per-job attempt counts (0 = never started).
    pub fn attempts(&self) -> &[u32] {
        &self.core.attempts
    }

    /// Number of abandoned jobs (retry budget exhausted, plus cascaded
    /// descendants).
    pub fn num_abandoned(&self) -> usize {
        self.core.num_abandoned
    }

    /// Per-job virtual times at which each job became ready (NaN = not yet
    /// ready; all-NaN prefix for runs resumed from pre-`ready_time`
    /// snapshots).
    pub fn ready_times(&self) -> &[f64] {
        &self.core.ready_time
    }

    /// Captures a fully owned, serialisable checkpoint of the paused run.
    /// After harvesting, the checkpoint is truncated: it carries only the
    /// retained event suffix plus the harvest watermark.
    pub fn checkpoint(&self) -> SimSnapshot {
        self.core.checkpoint()
    }

    /// Drives the run until every job completed and the source is exhausted
    /// ([`RunStatus::Complete`]) or nothing more can happen
    /// ([`RunStatus::Idle`]). `policy` is (re-)initialised via
    /// [`Policy::on_start`] at the beginning of every drive call.
    pub fn drive(
        &mut self,
        policy: &mut dyn Policy,
        source: &mut dyn EventSource,
    ) -> Result<RunStatus, SimError> {
        self.core
            .drive_inner(&self.instance, &self.plan, policy, source, None, true)
    }

    /// Like [`SimRun::drive`], but stops (returning [`RunStatus::Paused`])
    /// before processing any event later than `t_stop`.
    pub fn drive_until(
        &mut self,
        policy: &mut dyn Policy,
        source: &mut dyn EventSource,
        t_stop: f64,
    ) -> Result<RunStatus, SimError> {
        self.core.drive_inner(
            &self.instance,
            &self.plan,
            policy,
            source,
            Some(t_stop),
            true,
        )
    }

    /// Drives the run *without* re-initialising the policy: unlike
    /// [`SimRun::drive`], [`Policy::on_start`] is **not** called — the
    /// caller must have prepared the policy itself, either with an explicit
    /// `on_start` or, for a policy instance kept across rounds, with the
    /// incremental [`Policy::on_plan_update`] hook. `t_stop` limits the run
    /// as in [`SimRun::drive_until`]; `None` runs to completion.
    ///
    /// This is the drive shape behind the `mrls-serve` service core: one
    /// policy instance lives as long as the run, and each round refreshes it
    /// in O(live frontier) instead of paying a fresh O(world) `on_start`.
    pub fn drive_prepared(
        &mut self,
        policy: &mut dyn Policy,
        source: &mut dyn EventSource,
        t_stop: Option<f64>,
    ) -> Result<RunStatus, SimError> {
        self.core
            .drive_inner(&self.instance, &self.plan, policy, source, t_stop, false)
    }

    /// Grows the owned world in place: `system` raises the capacity bounds
    /// (per-type capacities may only grow — the system records the maximum
    /// the machine ever had, so previously validated allocations stay
    /// valid), `jobs` are appended at the end, `edges` may only point into
    /// the appended block, and `entries` are the appended jobs' plan entries
    /// (placeholders are fine; they are replaced by the next
    /// [`SimRun::apply_plan_updates`]). Appended jobs start unreleased —
    /// feed them in as [`SourceEvent::Release`] events.
    pub fn grow(
        &mut self,
        system: SystemConfig,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
        entries: Vec<ScheduledJob>,
    ) -> Result<(), SimError> {
        let old_n = self.instance.num_jobs();
        let added = jobs.len();
        let d = self.instance.num_resource_types();
        if system.num_resource_types() != d {
            return Err(SimError::InvalidGrowth(format!(
                "system has {} resource types but the world has {d}",
                system.num_resource_types()
            )));
        }
        for (i, (&new, &old)) in system
            .capacities()
            .iter()
            .zip(self.instance.system.capacities())
            .enumerate()
        {
            if new < old {
                return Err(SimError::InvalidGrowth(format!(
                    "capacity bound of resource {i} shrank from {old} to {new} \
                     (bounds record the maximum and may only grow)"
                )));
            }
        }
        if entries.len() != added {
            return Err(SimError::InvalidGrowth(format!(
                "{} plan entries for {added} appended jobs",
                entries.len()
            )));
        }
        for (i, entry) in entries.iter().enumerate() {
            if entry.job != old_n + i {
                return Err(SimError::InvalidGrowth(format!(
                    "plan entry {i} describes job {} but the appended job has id {}",
                    entry.job,
                    old_n + i
                )));
            }
            system
                .validate_allocation(&entry.alloc)
                .map_err(|e| SimError::InvalidGrowth(format!("job {}: {e}", entry.job)))?;
        }
        self.instance
            .dag
            .append(added, edges)
            .map_err(|e| SimError::InvalidGrowth(e.to_string()))?;
        self.instance.system = system;
        self.instance.jobs.extend(jobs);
        self.plan.jobs.extend(entries.iter().cloned());
        self.plan.makespan = plan_makespan(&self.plan);

        let n = old_n + added;
        let world = &mut self.core.world;
        world.released.resize(n, false);
        world.started.resize(n, false);
        world.completed.resize(n, false);
        world.abandoned.resize(n, false);
        for j in old_n..n {
            // Predecessors completed before the job existed already had
            // their completion events processed (same contract as resuming
            // a snapshot against a grown instance).
            world.remaining_preds.push(
                self.instance
                    .dag
                    .predecessors(j)
                    .iter()
                    .filter(|&&p| !world.completed[p])
                    .count(),
            );
        }
        self.core.start.resize(n, f64::NAN);
        self.core.finish.resize(n, f64::NAN);
        self.core.nominal.resize(n, f64::NAN);
        self.core.ready_time.resize(n, f64::NAN);
        self.core.running_pos.resize(n, usize::MAX);
        self.core.attempts.resize(n, 0);
        self.core.retry_at.resize(n, f64::NAN);
        self.core.fail_cause.resize(n, None);
        self.core
            .alloc_used
            .extend(entries.into_iter().map(|e| e.alloc));
        Ok(())
    }

    /// Freezes the realized placement of the given **started** jobs into the
    /// plan — exactly what a from-scratch plan rebuild would install for
    /// them. Call between drive calls (the plan must stay fixed during a
    /// drive so policies observe a consistent world).
    pub fn sync_realized(&mut self, jobs: &[usize]) -> Result<usize, SimError> {
        let started = &self.core.world.started;
        if let Some(&j) = jobs.iter().find(|&&j| started.get(j) != Some(&true)) {
            return Err(SimError::InvalidGrowth(format!(
                "job {j} has not started; only realized placements can be synced"
            )));
        }
        for &j in jobs {
            self.plan.jobs[j] = ScheduledJob {
                job: j,
                start: self.core.start[j],
                finish: self.core.finish[j],
                alloc: self.core.alloc_used[j].clone(),
            };
        }
        if !jobs.is_empty() {
            self.plan.makespan = plan_makespan(&self.plan);
        }
        Ok(jobs.len())
    }

    /// Installs re-planned placements for **unstarted** jobs (started jobs'
    /// placements are frozen history — sync them instead). Returns how many
    /// entries were applied. Callers diff against [`SimRun::plan`] first so
    /// unchanged placements are skipped.
    pub fn apply_plan_updates(&mut self, entries: &[ScheduledJob]) -> Result<usize, SimError> {
        for entry in entries {
            if entry.job >= self.instance.num_jobs() {
                return Err(SimError::InvalidGrowth(format!(
                    "plan update references job {} outside the world",
                    entry.job
                )));
            }
            if self.core.world.started[entry.job] {
                return Err(SimError::InvalidGrowth(format!(
                    "plan update targets job {}, which already started",
                    entry.job
                )));
            }
            self.instance
                .system
                .validate_allocation(&entry.alloc)
                .map_err(|e| SimError::InvalidGrowth(format!("job {}: {e}", entry.job)))?;
        }
        for entry in entries {
            self.plan.jobs[entry.job] = entry.clone();
            self.core.alloc_used[entry.job] = entry.alloc.clone();
        }
        if !entries.is_empty() {
            self.plan.makespan = plan_makespan(&self.plan);
        }
        Ok(entries.len())
    }

    /// Assembles the realized trace without consuming the run, prepending
    /// `prefix` (the harvested-event archive) to the retained log.
    /// Meaningful after [`RunStatus::Complete`]; unfinished jobs would leave
    /// NaN starts/finishes in the schedule.
    pub fn trace_with_prefix(&self, policy_label: &str, prefix: &[TraceEvent]) -> RealizedTrace {
        let n = self.instance.num_jobs();
        let plan_allocs = self.plan.allocations();
        let jobs: Vec<ScheduledJob> = (0..n)
            .map(|j| ScheduledJob {
                job: j,
                start: self.core.start[j],
                finish: self.core.finish[j],
                alloc: self.core.alloc_used[j].clone(),
            })
            .collect();
        let realized = Schedule::new(jobs);
        // Abandoned jobs never ran: their NaN starts/finishes are excluded
        // from the slowdown statistics rather than poisoning the means.
        let slowdowns: Vec<f64> = (0..n)
            .map(|j| (self.core.finish[j] - self.core.start[j]) / self.core.nominal[j])
            .filter(|s| s.is_finite())
            .collect();
        let events: Vec<TraceEvent> = prefix
            .iter()
            .chain(self.core.events.iter())
            .cloned()
            .collect();
        let num_reschedules = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Rescheduled { .. }))
            .count();
        let num_realloc_jobs = (0..n)
            .filter(|&j| self.core.alloc_used[j] != plan_allocs[j])
            .count();
        let stats = StressStats {
            planned_makespan: self.plan.makespan,
            realized_makespan: realized.makespan,
            stretch: if self.plan.makespan > 0.0 {
                realized.makespan / self.plan.makespan
            } else {
                1.0
            },
            mean_slowdown: if !slowdowns.is_empty() {
                slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
            } else {
                1.0
            },
            max_slowdown: if !slowdowns.is_empty() {
                slowdowns.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            } else {
                1.0
            },
            num_reschedules,
            num_realloc_jobs,
        };
        RealizedTrace {
            policy: policy_label.to_string(),
            seed: self.core.seed,
            events,
            realized,
            stats,
        }
    }

    /// Consuming form of [`SimRun::trace_with_prefix`] without a prefix. If
    /// events were harvested, the trace only covers the retained suffix.
    pub fn into_trace(self, policy_label: &str) -> RealizedTrace {
        self.trace_with_prefix(policy_label, &[])
    }

    /// Consuming form of [`SimRun::trace_with_prefix`].
    pub fn into_trace_with_prefix(
        self,
        policy_label: &str,
        prefix: &[TraceEvent],
    ) -> RealizedTrace {
        self.trace_with_prefix(policy_label, prefix)
    }
}

/// Inserts `j` into an index-sorted job list at its ordered position (one
/// binary search + memmove — the ready set used to be re-sorted wholesale
/// after every event). Inserting a present element is a no-op, so a
/// duplicate release event cannot double-queue a job.
fn insert_sorted(v: &mut Vec<usize>, j: usize) {
    if let Err(pos) = v.binary_search(&j) {
        v.insert(pos, j);
    }
}

/// The makespan of a (possibly placeholder-holding) plan, with the same NaN
/// semantics as [`Schedule::new`] (`f64::max` ignores NaN).
fn plan_makespan(plan: &Schedule) -> f64 {
    plan.jobs.iter().map(|j| j.finish).fold(0.0f64, f64::max)
}

/// Checks that `plan` covers every job of `instance` exactly once with a
/// well-formed allocation, and returns it with entry `j` describing job `j`
/// (externally loaded plans may list jobs in any order).
pub fn normalize_plan(instance: &Instance, plan: &Schedule) -> Result<Schedule, SimError> {
    let n = instance.num_jobs();
    if plan.jobs.len() != n {
        return Err(SimError::InvalidPlan(format!(
            "plan has {} entries for an instance of {n} jobs",
            plan.jobs.len()
        )));
    }
    let mut jobs: Vec<Option<ScheduledJob>> = vec![None; n];
    for sj in &plan.jobs {
        if sj.job >= n {
            return Err(SimError::InvalidPlan(format!(
                "plan references job {} outside the instance",
                sj.job
            )));
        }
        if jobs[sj.job].is_some() {
            return Err(SimError::InvalidPlan(format!(
                "plan schedules job {} twice",
                sj.job
            )));
        }
        instance
            .system
            .validate_allocation(&sj.alloc)
            .map_err(|e| SimError::InvalidPlan(format!("job {}: {e}", sj.job)))?;
        jobs[sj.job] = Some(sj.clone());
    }
    Ok(Schedule::new(
        jobs.into_iter()
            .map(|sj| sj.expect("every job present exactly once"))
            .collect(),
    ))
}

/// Checks that `plan` is already job-indexed for `instance` (what
/// [`normalize_plan`] produces).
fn check_normalized(instance: &Instance, plan: &Schedule) -> Result<(), SimError> {
    let n = instance.num_jobs();
    if plan.jobs.len() != n {
        return Err(SimError::InvalidPlan(format!(
            "plan has {} entries for an instance of {n} jobs",
            plan.jobs.len()
        )));
    }
    for (j, sj) in plan.jobs.iter().enumerate() {
        if sj.job != j {
            return Err(SimError::InvalidPlan(format!(
                "plan entry {j} describes job {} (run it through normalize_plan first)",
                sj.job
            )));
        }
        instance
            .system
            .validate_allocation(&sj.alloc)
            .map_err(|e| SimError::InvalidPlan(format!("job {j}: {e}")))?;
    }
    Ok(())
}
