//! Scheduling policies: how a run reacts (or not) when reality diverges from
//! the plan.
//!
//! The engine enforces the invariants; a [`Policy`] only decides *which*
//! ready jobs start and with which allocations. Three reference policies
//! cover the reaction spectrum:
//!
//! * [`StaticPolicy`] — replay the plan order verbatim; no backfilling, no
//!   re-allocation. Jobs slide when their predecessors run long.
//! * [`ReactiveListPolicy`] — run Phase 2's placement pass (the shared
//!   [`ListScheduler::schedule_ready`] routine) over the actual ready set,
//!   reusing the Phase-1 allocations.
//! * [`FullReschedulePolicy`] — on perturbation events (arrivals, capacity
//!   changes, stragglers) re-invoke the complete two-phase [`MrlsScheduler`]
//!   on the pending jobs and adopt its new allocations and priorities.
//!
//! All three are **indexed per event**: the list policies keep a persistent
//! priority-ordered [`ReadyQueue`] mirroring the engine's ready set (newly
//! ready jobs are binary-inserted from the event batch instead of re-sorting
//! a fresh clone at every decision point), and every policy carries a
//! *placement watermark* (`settled`): once a placement pass ran and the only
//! world changes since are the policy's own starts — which strictly shrink
//! availability — a repeat pass provably starts nothing and is skipped
//! outright. Both changes are behaviour-preserving by construction; the
//! serve differential suite pins them byte-identical to the pre-index
//! semantics.

use crate::engine::{SimError, SimState};
use crate::trace::TraceEvent;
use mrls_core::{ListScheduler, MrlsConfig, MrlsScheduler, PriorityRule, ReadyQueue};
use mrls_model::{Allocation, SystemConfig};
use serde::{Deserialize, Serialize};

/// The uncompleted, unabandoned jobs of a state, ascending — the **live
/// frontier**. Every job a policy can still start is in here; running jobs
/// are included because under failure injection a running attempt can fail
/// and re-enter the ready set, so the mirrored queue's universe must cover
/// them. Because a successor can only start after its predecessors complete,
/// every descendant of a member is also a member: the frontier is
/// successor-closed, which is what lets policies restrict their per-drive
/// initialisation to it. Scanning for it is O(world); callers that already
/// track the frontier (the `mrls-serve` service core) pass it to
/// [`Policy::on_plan_update`] instead so a long-lived policy instance
/// re-initialises in O(live).
fn live_frontier(state: &SimState<'_>) -> Vec<usize> {
    (0..state.instance.num_jobs())
        .filter(|&j| !state.completed[j] && !state.abandoned[j])
        .collect()
}

/// A scheduling policy driven by the engine at every decision point.
pub trait Policy: std::fmt::Debug {
    /// Short label for traces and experiment tables.
    fn label(&self) -> &'static str;

    /// Called once before the run with the initial state.
    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError>;

    /// Incremental re-initialisation of a policy instance kept across the
    /// drive calls of a persistent run: called *between* drives, after the
    /// in-flight plan was updated, with `live` the **live frontier** in
    /// ascending order — every uncompleted, unabandoned job, pending and
    /// running alike. That is exactly what [`Policy::on_start`] would
    /// discover by scanning, handed over so the refresh costs O(live).
    /// Policies may rely on it covering every job that can still start:
    /// [`FullReschedulePolicy`] finds its re-plan's pending jobs there.
    ///
    /// The contract matches a fresh `on_start`: afterwards the policy must
    /// make bit-identical decisions to a newly built instance observing the
    /// same state. Callers guarantee that plan entries of completed jobs
    /// hold their realized placements (the persistent-run round contract —
    /// [`SimRun::sync_realized`](crate::SimRun::sync_realized) before the
    /// hook).
    ///
    /// The default forwards to `on_start`, so external policies stay
    /// correct without implementing the incremental path.
    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        let _ = live;
        self.on_start(state)
    }

    /// Called after every batch of world events (completions, arrivals,
    /// capacity changes). May return policy events (e.g.
    /// [`TraceEvent::Rescheduled`]) to append to the trace.
    fn on_events(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError>;

    /// Picks the jobs to start right now, in order, with their allocations.
    /// Every returned job must be ready and every allocation must fit the
    /// availability left by the starts before it; the engine verifies this
    /// and aborts the run otherwise. Returning an empty vector ends the
    /// decision point.
    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)>;
}

/// Which reference policy to run (serialisable configuration handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Replay the plan; jobs slide.
    Static,
    /// Re-run the list phase over the ready set at every event.
    ReactiveList,
    /// Re-invoke the two-phase scheduler on perturbation events.
    FullReschedule,
}

impl PolicyKind {
    /// All reference policies, in sweep order.
    pub fn all() -> [PolicyKind; 3] {
        [
            PolicyKind::Static,
            PolicyKind::ReactiveList,
            PolicyKind::FullReschedule,
        ]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::ReactiveList => "reactive-list",
            PolicyKind::FullReschedule => "full-reschedule",
        }
    }

    /// Builds the policy with its default configuration.
    pub fn build(&self) -> Box<dyn Policy> {
        self.build_with(&MrlsConfig::default())
    }

    /// Builds the policy; `FullReschedule` re-plans with `scheduler`, the
    /// other policies do not plan and ignore it.
    pub fn build_with(&self, scheduler: &MrlsConfig) -> Box<dyn Policy> {
        match self {
            PolicyKind::Static => Box::new(StaticPolicy::new()),
            PolicyKind::ReactiveList => {
                Box::new(ReactiveListPolicy::new(PriorityRule::CriticalPath))
            }
            PolicyKind::FullReschedule => {
                Box::new(FullReschedulePolicy::new(scheduler.clone(), 1.5))
            }
        }
    }
}

/// Replays the plan: jobs start in planned-start order, without reordering or
/// backfilling. When a predecessor runs long, everything behind it slides.
#[derive(Debug, Clone, Default)]
pub struct StaticPolicy {
    order: Vec<usize>,
    cursor: usize,
    /// Placement watermark: `true` once a pass ran with no world change
    /// since — a repeat pass cannot start anything (availability only
    /// shrank) and is skipped.
    settled: bool,
}

impl StaticPolicy {
    /// Creates the policy; the plan is read from the state at `on_start`.
    pub fn new() -> Self {
        StaticPolicy::default()
    }

    /// (Re-)derives the replay order over the given live frontier —
    /// O(live log live). Allocations are read from the plan, which stays
    /// fixed during a drive.
    fn init_over(&mut self, state: &SimState<'_>, mut order: Vec<usize>) {
        order.sort_by(|&a, &b| {
            state.plan.jobs[a]
                .start
                .total_cmp(&state.plan.jobs[b].start)
                .then(a.cmp(&b))
        });
        self.cursor = 0;
        self.order = order;
        self.settled = false;
    }
}

impl Policy for StaticPolicy {
    fn label(&self) -> &'static str {
        "static"
    }

    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError> {
        // Only the live frontier can still be started; already started jobs
        // would be skipped by the cursor anyway, so restricting the order to
        // the frontier visits the same subsequence at O(live) cost.
        self.init_over(state, live_frontier(state));
        Ok(())
    }

    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        self.init_over(state, live.to_vec());
        Ok(())
    }

    fn on_events(
        &mut self,
        _state: &SimState<'_>,
        _batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError> {
        self.settled = false;
        Ok(vec![])
    }

    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        if self.settled {
            return Vec::new();
        }
        let mut starts = Vec::new();
        let mut resources = state.resources.clone();
        while self.cursor < self.order.len() {
            let j = self.order[self.cursor];
            if state.started[j] {
                self.cursor += 1;
                continue;
            }
            let alloc = &state.plan.jobs[j].alloc;
            if state.is_ready(j) && resources.fits(alloc) {
                resources.acquire(alloc);
                starts.push((j, alloc.clone()));
                self.cursor += 1;
            } else {
                // Strict plan order: the head of the queue blocks everything
                // behind it.
                break;
            }
        }
        self.settled = true;
        starts
    }
}

/// The core both list policies run on: per-job allocations and priority
/// keys, a persistent ready queue mirroring the engine's ready set in
/// `(key, job)` order, and the placement watermark. A decision point drains
/// the queue directly instead of sorting a fresh clone of the ready set —
/// O(log r) maintenance per event instead of O(r log r) per pass. Entries
/// of `decision` and `keys` outside the live frontier are stale and never
/// read.
#[derive(Debug, Clone)]
struct ListCore {
    scheduler: ListScheduler,
    decision: Vec<Allocation>,
    keys: Vec<f64>,
    queue: ReadyQueue,
    settled: bool,
}

impl ListCore {
    fn new(priority: PriorityRule) -> Self {
        ListCore {
            scheduler: ListScheduler::new(priority),
            decision: Vec::new(),
            keys: Vec::new(),
            queue: ReadyQueue::new(),
            settled: false,
        }
    }

    /// Rebuilds the mirror from the engine's ready set once `decision` and
    /// `keys` hold the live frontier's entries (drive start / plan update —
    /// O(live log live)). `live` is the universe the requirement index is
    /// addressed by: every job that may still be inserted. Anything
    /// becoming ready later is uncompleted now (including a running job
    /// whose attempt fails and retries), so it is covered.
    fn rebuild(&mut self, state: &SimState<'_>, live: &[usize]) {
        self.queue =
            ReadyQueue::with_universe(live, state.ready.clone(), &self.keys, &self.decision);
        self.settled = false;
    }

    /// Folds one event batch into the mirror: any job the batch could have
    /// made ready (a released job, a completed job's successors) is
    /// binary-inserted iff the engine's post-batch state lists it as ready.
    /// Inserting a queued job is a no-op, so overlapping candidates (a job
    /// released and unblocked in the same batch) stay unique.
    fn absorb(&mut self, state: &SimState<'_>, batch: &[TraceEvent]) {
        self.settled = false;
        for e in batch {
            match e {
                TraceEvent::JobCompleted { job, .. } => {
                    for &succ in state.instance.dag.successors(*job) {
                        if state.is_ready(succ) {
                            self.queue.insert(succ, &self.keys, &self.decision[succ]);
                        }
                    }
                }
                TraceEvent::JobReleased { job, .. } if state.is_ready(*job) => {
                    self.queue.insert(*job, &self.keys, &self.decision[*job]);
                }
                // A retried job re-enters the ready set exactly once per
                // backoff expiry; the engine removed it at failure time, so
                // re-insertion here keeps the mirror bit-identical.
                TraceEvent::JobRetried { job, .. } if state.is_ready(*job) => {
                    self.queue.insert(*job, &self.keys, &self.decision[*job]);
                }
                _ => {}
            }
        }
        debug_assert_eq!(
            {
                let mut mirrored: Vec<usize> = self.queue.as_slice().to_vec();
                mirrored.sort_unstable();
                mirrored
            },
            state.ready,
            "mirrored ready queue diverged from the engine's ready set"
        );
    }

    /// One placement pass of Algorithm 2 over the mirrored queue, skipped
    /// while the watermark says no world change happened since the last.
    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        if self.settled {
            return Vec::new();
        }
        let mut resources = state.resources.clone();
        let started = self.scheduler.schedule_ready(
            &mut self.queue,
            &self.keys,
            &self.decision,
            &mut resources,
        );
        self.settled = true;
        started
            .into_iter()
            .map(|j| (j, self.decision[j].clone()))
            .collect()
    }
}

/// Re-runs the list phase (the shared placement routine of Algorithm 2) over
/// the actual ready set at every event, reusing the Phase-1 allocations.
#[derive(Debug, Clone)]
pub struct ReactiveListPolicy {
    core: ListCore,
}

impl ReactiveListPolicy {
    /// Creates the policy with the given ready-queue priority rule.
    pub fn new(priority: PriorityRule) -> Self {
        ReactiveListPolicy {
            core: ListCore::new(priority),
        }
    }

    /// (Re-)derives allocations and priority keys over the given live
    /// frontier and rebuilds the ready-queue mirror.
    fn init_over(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        let n = state.instance.num_jobs();
        let core = &mut self.core;
        // `Explicit` keys are raw per-job vectors; everything else is
        // pointwise in (time, allocation, bottom level), and the frontier is
        // successor-closed, so bottom levels computed on the live
        // sub-instance are bit-identical to the full-graph ones. Keys and
        // decisions of started jobs are never read (only ready jobs are).
        if live.len() == n || matches!(core.scheduler.priority(), PriorityRule::Explicit(_)) {
            core.decision = state.plan.allocations();
            let times = core
                .scheduler
                .evaluate_times(state.instance, &core.decision)?;
            core.keys = core
                .scheduler
                .priority_keys(state.instance, &core.decision, &times)?;
        } else {
            let sub_instance = state.instance.induced(live, state.instance.system.clone());
            let sub_decision: Vec<Allocation> = live
                .iter()
                .map(|&j| state.plan.jobs[j].alloc.clone())
                .collect();
            let times = core
                .scheduler
                .evaluate_times(&sub_instance, &sub_decision)?;
            let sub_keys = core
                .scheduler
                .priority_keys(&sub_instance, &sub_decision, &times)?;
            core.decision.resize(n, Allocation::new(Vec::new()));
            core.keys.resize(n, 0.0);
            for ((&j, key), alloc) in live.iter().zip(sub_keys).zip(sub_decision) {
                core.keys[j] = key;
                core.decision[j] = alloc;
            }
        }
        core.rebuild(state, live);
        Ok(())
    }
}

impl Policy for ReactiveListPolicy {
    fn label(&self) -> &'static str {
        "reactive-list"
    }

    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError> {
        self.init_over(state, &live_frontier(state))
    }

    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        self.init_over(state, live)
    }

    fn on_events(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError> {
        self.core.absorb(state, batch);
        Ok(vec![])
    }

    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        self.core.select_starts(state)
    }
}

/// Re-invokes the complete two-phase scheduler on the pending jobs whenever a
/// perturbation event fires (an online arrival, a capacity change, or a
/// straggler whose realized time exceeded `straggler_threshold ×` nominal),
/// adopting the new allocations and the new plan's start order as priorities.
/// Between reschedules it behaves like [`ReactiveListPolicy`].
///
/// Reschedules are **debounced** so the policy no longer thrashes under pure
/// noise at high sigma: after a reschedule, further arrival/straggler
/// triggers are ignored for a quarter of the planned makespan, and
/// straggler triggers additionally require the run to actually be late —
/// current time above 1.25 × the planned finish time of the work completed
/// so far. Capacity changes are structural and always reschedule.
#[derive(Debug, Clone)]
pub struct FullReschedulePolicy {
    config: MrlsConfig,
    straggler_threshold: f64,
    /// The list core; its ready queue's universe is the live frontier the
    /// policy was last initialised over, which re-plans filter for pending
    /// jobs.
    core: ListCore,
    min_interval: f64,
    last_reschedule: f64,
    /// Latest planned finish among completed jobs, maintained incrementally
    /// from completion events (recomputing it per event would be O(world)).
    planned_completed_max: f64,
}

/// Minimum virtual time between reschedules, as a fraction of the planned
/// makespan.
const MIN_INTERVAL_FRAC: f64 = 0.25;

/// Lateness factor at or below which straggler triggers are ignored.
const STRETCH_THRESHOLD: f64 = 1.25;

impl FullReschedulePolicy {
    /// Creates the policy. `config` drives the re-invoked scheduler;
    /// `straggler_threshold` is the realized/nominal factor above which a
    /// completion counts as a straggler.
    pub fn new(config: MrlsConfig, straggler_threshold: f64) -> Self {
        let priority = config.priority.clone();
        FullReschedulePolicy {
            config,
            straggler_threshold: straggler_threshold.max(1.0),
            core: ListCore::new(priority),
            min_interval: 0.0,
            last_reschedule: f64::NEG_INFINITY,
            planned_completed_max: 0.0,
        }
    }

    /// (Re-)derives replay priorities over the given live frontier and
    /// resets the per-drive debounce state — the shared tail of `on_start`
    /// and `on_plan_update`.
    fn init_over(&mut self, state: &SimState<'_>, live: &[usize]) {
        let n = state.instance.num_jobs();
        let core = &mut self.core;
        // Replay priorities: the planned start times (ties broken by job
        // index inside the placement routine). Only the live frontier is
        // ever read back — completed jobs cannot re-enter the ready set, and
        // a running job that fails re-enters through its frontier entry — so
        // initialisation is O(live), not O(world).
        core.decision.resize(n, Allocation::new(Vec::new()));
        core.keys.resize(n, 0.0);
        for &j in live {
            core.decision[j] = state.plan.jobs[j].alloc.clone();
            core.keys[j] = state.plan.jobs[j].start;
        }
        core.rebuild(state, live);
        self.min_interval = MIN_INTERVAL_FRAC * state.plan.makespan.max(0.0);
        self.last_reschedule = f64::NEG_INFINITY;
    }

    /// The reschedule trigger in `batch`, if any.
    fn trigger(&self, batch: &[TraceEvent]) -> Option<&'static str> {
        let mut straggler = false;
        for e in batch {
            match e {
                TraceEvent::CapacityChanged { .. } => return Some("capacity-change"),
                TraceEvent::JobReleased { .. } => return Some("arrival"),
                TraceEvent::JobFailed { .. } => return Some("failure"),
                TraceEvent::JobRetried { .. } => return Some("retry"),
                TraceEvent::JobCompleted {
                    nominal, realized, ..
                } => {
                    straggler |= *realized > self.straggler_threshold * *nominal;
                }
                _ => {}
            }
        }
        straggler.then_some("straggler")
    }

    /// How late the run currently is: current time over the latest planned
    /// finish among completed jobs (1.0 = on plan; infinite before the first
    /// completion, which cannot arise for straggler triggers). The maximum
    /// is maintained from completion events, not recomputed.
    fn progress_stretch(&self, state: &SimState<'_>) -> f64 {
        if self.planned_completed_max > 0.0 {
            state.now / self.planned_completed_max
        } else {
            f64::INFINITY
        }
    }

    /// `true` iff the debounce suppresses this trigger.
    fn debounced(&self, state: &SimState<'_>, trigger: &str) -> bool {
        if trigger == "capacity-change" {
            return false;
        }
        if state.now - self.last_reschedule < self.min_interval {
            return true;
        }
        trigger == "straggler" && self.progress_stretch(state) <= STRETCH_THRESHOLD
    }

    /// Recomputes allocations and priorities for every pending (unstarted,
    /// unabandoned) job by scheduling them from scratch
    /// ([`MrlsScheduler::schedule_pending`]). The pending jobs are found in
    /// the live frontier, O(live). If the scheduler fails, the current
    /// allocations are kept, clamped to the capacities, and the fallback is
    /// counted in `sim.policy.reschedule_fallbacks`.
    fn reschedule(&mut self, state: &SimState<'_>) -> Result<usize, SimError> {
        let is_pending = |&j: &usize| !state.started[j] && !state.abandoned[j];
        let frontier = self.core.queue.universe();
        let pending: Vec<usize> = frontier.iter().copied().filter(is_pending).collect();
        debug_assert_eq!(
            pending,
            (0..state.instance.num_jobs())
                .filter(is_pending)
                .collect::<Vec<_>>()
        );
        if pending.is_empty() {
            return Ok(0);
        }
        // Plan against the machine as it is now (post-drop capacities); the
        // scenario guarantees capacities stay >= 1.
        let system = SystemConfig::new(state.capacities.clone())
            .map_err(|e| SimError::InvalidScenario(e.to_string()))?;
        let core = &mut self.core;
        match MrlsScheduler::new(self.config.clone()).schedule_pending(
            state.instance,
            &pending,
            system,
        ) {
            Ok(entries) => {
                // Adopt the new allocations; use the new plan's start times
                // as priorities (pending jobs only ever compete with each
                // other, so keys of started jobs are irrelevant).
                for sj in entries {
                    core.keys[sj.job] = sj.start;
                    core.decision[sj.job] = sj.alloc;
                }
            }
            Err(e) => {
                // Fallback: keep the current allocations but clamp them to
                // the degraded capacities so pending jobs stay startable.
                mrls_obs::counter_add("sim.policy.reschedule_fallbacks", 1);
                mrls_obs::counter_add(
                    mrls_core::cause_counter!("sim.policy.reschedule_fallbacks", &e),
                    1,
                );
                for &j in &pending {
                    let alloc = &core.decision[j];
                    let clamped: Vec<u64> = (0..alloc.dim())
                        .map(|i| {
                            if alloc[i] == 0 {
                                0
                            } else {
                                alloc[i].min(state.capacities[i]).max(1)
                            }
                        })
                        .collect();
                    core.decision[j] = Allocation::new(clamped);
                }
            }
        }
        // The adopted keys reorder the mirrored ready queue (and re-rank its
        // requirement index, which is addressed by key order).
        core.queue.resort(&core.keys, &core.decision);
        Ok(pending.len())
    }
}

impl Policy for FullReschedulePolicy {
    fn label(&self) -> &'static str {
        "full-reschedule"
    }

    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError> {
        self.init_over(state, &live_frontier(state));
        // Fold the plan progress of already completed work (a resumed run):
        // an O(world) sweep, paid only at run initialisation — the per-round
        // path (`on_plan_update`) reads the engine's running maximum instead.
        self.planned_completed_max = state
            .plan
            .jobs
            .iter()
            .filter(|sj| state.completed[sj.job])
            .map(|sj| sj.finish)
            .fold(0.0f64, f64::max);
        Ok(())
    }

    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        self.init_over(state, live);
        // Between rounds the plan entries of completed jobs hold their
        // realized placements (the caller contract), so the `on_start` fold
        // above equals the engine's incrementally maintained maximum — read
        // it in O(1) instead of sweeping the world.
        debug_assert_eq!(
            state
                .plan
                .jobs
                .iter()
                .filter(|sj| state.completed[sj.job])
                .map(|sj| sj.finish)
                .fold(0.0f64, f64::max)
                .to_bits(),
            state.max_completed_finish.to_bits(),
            "completed plan entries must hold realized placements at on_plan_update"
        );
        self.planned_completed_max = state.max_completed_finish;
        Ok(())
    }

    fn on_events(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError> {
        // Fold this batch's completions into the progress maximum first:
        // the debounce below compares against plan progress *including*
        // them, exactly like the former full rescan did.
        for e in batch {
            if let TraceEvent::JobCompleted { job, .. } = e {
                self.planned_completed_max =
                    self.planned_completed_max.max(state.plan.jobs[*job].finish);
            }
        }
        self.core.absorb(state, batch);
        let Some(trigger) = self.trigger(batch) else {
            return Ok(vec![]);
        };
        if self.debounced(state, trigger) {
            return Ok(vec![]);
        }
        self.last_reschedule = state.now;
        let jobs = self.reschedule(state)?;
        Ok(vec![TraceEvent::Rescheduled {
            time: state.now,
            trigger: trigger.to_string(),
            jobs,
        }])
    }

    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        self.core.select_starts(state)
    }
}
