//! Phase 2: the multi-resource list scheduler (Algorithm 2 of the paper).
//!
//! Given a fixed allocation decision `p`, the scheduler keeps a queue `Q` of
//! ready jobs. At time 0 and whenever a job completes, it (a) inserts the jobs
//! that just became ready, then (b) walks the queue in priority order and
//! starts **every** job whose allocation fits in the currently available
//! amount of every resource type. Resources are only allocated and released
//! at job completion times, which is exactly the structure the interval
//! analysis of Section 4.2.2 relies on.
//!
//! The event loop is **indexed**: pending completions live in a binary
//! min-heap ([`EventQueue`], ordered by `(finish, job)`), and the ready
//! queue is a persistent priority-ordered structure ([`ReadyQueue`]) that
//! binary-inserts newly ready jobs instead of re-sorting per event. Both
//! make the per-event bookkeeping O(log n) where it used to be O(n) /
//! O(n log n); the placement sweep itself stays O(ready) because Algorithm 2
//! backfills from the *whole* queue. The pre-index implementation is
//! retained verbatim as [`ListScheduler::schedule_naive`] — the executable
//! reference the equivalence property test (and the `core_event_loop` bench)
//! pins the optimized loop against, byte for byte.

use crate::error::CoreError;
use crate::event_queue::EventQueue;
use crate::priority::PriorityRule;
use crate::ready_queue::ReadyQueue;
use crate::resource_state::ResourceState;
use crate::schedule::{Schedule, ScheduledJob};
use crate::{Result, EPS};
use mrls_model::{Allocation, Instance};

/// The multi-resource list scheduler.
#[derive(Debug, Clone)]
pub struct ListScheduler {
    priority: PriorityRule,
}

impl ListScheduler {
    /// Creates a scheduler with the given ready-queue priority rule.
    pub fn new(priority: PriorityRule) -> Self {
        ListScheduler { priority }
    }

    /// The priority rule in use.
    pub fn priority(&self) -> &PriorityRule {
        &self.priority
    }

    /// Validates `decision` against `instance` and evaluates the execution
    /// time of every job under it. This is the common entry check for both
    /// the offline schedule and incremental callers.
    pub fn evaluate_times(&self, instance: &Instance, decision: &[Allocation]) -> Result<Vec<f64>> {
        let n = instance.num_jobs();
        let d = instance.num_resource_types();
        if decision.len() != n {
            return Err(CoreError::Model(
                mrls_model::ModelError::DecisionLengthMismatch {
                    expected: n,
                    got: decision.len(),
                },
            ));
        }
        let mut times = Vec::with_capacity(n);
        for (j, alloc) in decision.iter().enumerate() {
            instance.system.validate_allocation(alloc)?;
            for i in 0..d {
                if alloc[i] > instance.system.capacity(i) {
                    return Err(CoreError::AllocationNeverFits {
                        job: j,
                        resource: i,
                    });
                }
            }
            let t = instance.jobs[j].spec.time(alloc);
            if !t.is_finite() || t <= 0.0 {
                return Err(CoreError::Model(
                    mrls_model::ModelError::InvalidExecutionTime { job: j, value: t },
                ));
            }
            times.push(t);
        }
        Ok(times)
    }

    /// Computes the per-job priority keys of this scheduler's rule for the
    /// given allocation decision and execution times (smaller = earlier).
    pub fn priority_keys(
        &self,
        instance: &Instance,
        decision: &[Allocation],
        times: &[f64],
    ) -> Result<Vec<f64>> {
        let bottom_levels = instance.dag.bottom_levels(times)?;
        Ok(self
            .priority
            .keys(times, decision, &bottom_levels, &instance.system))
    }

    /// One placement pass of Algorithm 2 over a persistent resource state:
    /// walks `ready` in priority order (the [`ReadyQueue`] maintains
    /// `(keys[job], job)` order persistently) and starts **every** job whose
    /// allocation fits the current availability, acquiring its resources.
    /// Started jobs are removed from `ready` in a single compaction sweep
    /// and returned in start order; the queue's exact requirement index
    /// short-circuits the sweep as soon as the rest of the queue provably
    /// cannot fit (see [`ReadyQueue::drain_fitting`]).
    ///
    /// `keys` must be the key vector the queue is ordered by (asserted in
    /// debug builds); callers that insert into the queue between passes pass
    /// the same slice to both sides.
    ///
    /// The offline [`ListScheduler::schedule`] calls this at time zero and at
    /// every completion event; reactive callers (the `mrls-sim` runtime) call
    /// it with whatever ready set and availability reality produced.
    pub fn schedule_ready(
        &self,
        ready: &mut ReadyQueue,
        keys: &[f64],
        decision: &[Allocation],
        resources: &mut ResourceState,
    ) -> Vec<usize> {
        debug_assert!(
            ready
                .as_slice()
                .windows(2)
                .all(|w| crate::ready_queue::key_order(w[0], w[1], keys).is_le()),
            "ready queue out of order for the supplied keys (resort after key changes)"
        );
        let scanned = ready.len() as u64;
        let started = ready.drain_fitting(decision, resources);
        if mrls_obs::enabled() {
            mrls_obs::counter_add("core.placement.passes", 1);
            mrls_obs::counter_add("core.placement.jobs_scanned", scanned);
            mrls_obs::counter_add("core.placement.jobs_started", started.len() as u64);
            record_wait_reasons(ready.as_slice(), decision, resources);
        }
        started
    }

    /// Runs Algorithm 2 on `instance` with the fixed allocation `decision`
    /// (one allocation per job) and returns the resulting schedule.
    ///
    /// The event loop is O(log n) per completion event (binary heap of
    /// pending completions, binary insertion into the persistent ready
    /// queue) plus the O(ready) placement sweep Algorithm 2 prescribes.
    /// Output is byte-identical to [`ListScheduler::schedule_naive`].
    pub fn schedule(&self, instance: &Instance, decision: &[Allocation]) -> Result<Schedule> {
        let n = instance.num_jobs();
        // Evaluate execution times once and validate feasibility of every
        // allocation: a job requesting more than the capacity of any type can
        // never start and would deadlock the scheduler.
        let times = self.evaluate_times(instance, decision)?;
        if n == 0 {
            return Ok(Schedule::new(vec![]));
        }

        // Priority keys (smaller = earlier in the queue).
        let keys = self.priority_keys(instance, decision, &times)?;

        // Event-driven simulation.
        let mut resources = ResourceState::from_system(&instance.system);
        let mut remaining_preds: Vec<usize> = (0..n).map(|j| instance.dag.in_degree(j)).collect();
        let universe: Vec<usize> = (0..n).collect();
        let mut ready = ReadyQueue::with_universe(
            &universe,
            (0..n).filter(|&j| remaining_preds[j] == 0).collect(),
            &keys,
            decision,
        );

        let mut start = vec![f64::NAN; n];
        let mut finish = vec![f64::NAN; n];
        // Pending completions, ordered by (finish, job).
        let mut completions = EventQueue::with_capacity(n.min(1024));
        let mut now = 0.0f64;
        let mut num_completed = 0usize;

        loop {
            // Start every ready job that fits, in priority order.
            for j in self.schedule_ready(&mut ready, &keys, decision, &mut resources) {
                start[j] = now;
                finish[j] = now + times[j];
                completions.push(finish[j], j);
            }

            if num_completed == n {
                break;
            }
            let Some((next_time, _)) = completions.peek() else {
                // No job is running and not everything is done: this can only
                // happen if some ready job never fits, which the validation
                // above excludes, or if the graph still has blocked jobs whose
                // predecessors will never run — impossible for a DAG. Guard
                // anyway to avoid an infinite loop in release builds.
                debug_assert!(false, "list scheduler stalled with idle system");
                return Err(CoreError::NoFeasibleAllocation {
                    job: ready.as_slice().first().copied().unwrap_or(0),
                });
            };
            now = next_time;
            // Complete every job finishing at `now` (within tolerance) and
            // release its resources. Availability amounts are exact integers
            // in f64, so the release order within the batch cannot change
            // any later fit decision.
            while let Some((f, j)) = completions.peek() {
                if f > now + EPS {
                    break;
                }
                completions.pop();
                num_completed += 1;
                resources.release(&decision[j]);
                for &succ in instance.dag.successors(j) {
                    remaining_preds[succ] -= 1;
                    if remaining_preds[succ] == 0 {
                        ready.insert(succ, &keys, &decision[succ]);
                    }
                }
            }
        }

        let jobs = (0..n)
            .map(|j| ScheduledJob {
                job: j,
                start: start[j],
                finish: finish[j],
                alloc: decision[j].clone(),
            })
            .collect();
        Ok(Schedule::new(jobs))
    }

    /// The pre-index reference implementation of Algorithm 2: a linear
    /// min-scan over the running set per event, a full ready-queue sort per
    /// placement pass, and `Vec::remove` per start — O(n) to O(n log n) per
    /// completion event.
    ///
    /// Kept (not `#[cfg(test)]`) as the executable specification the
    /// optimized [`ListScheduler::schedule`] is pinned against: the
    /// equivalence property test asserts byte-identical `Schedule` JSON
    /// across random instances, and the `core_event_loop` bench measures the
    /// speedup. Behaviour must never be "improved" here; fix the indexed
    /// loop instead.
    pub fn schedule_naive(&self, instance: &Instance, decision: &[Allocation]) -> Result<Schedule> {
        let n = instance.num_jobs();
        let times = self.evaluate_times(instance, decision)?;
        if n == 0 {
            return Ok(Schedule::new(vec![]));
        }
        let keys = self.priority_keys(instance, decision, &times)?;

        let mut resources = ResourceState::from_system(&instance.system);
        let mut remaining_preds: Vec<usize> = (0..n).map(|j| instance.dag.in_degree(j)).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&j| remaining_preds[j] == 0).collect();

        let mut start = vec![f64::NAN; n];
        let mut finish = vec![f64::NAN; n];
        let mut running: Vec<(f64, usize)> = Vec::new();
        let mut now = 0.0f64;
        let mut num_completed = 0usize;

        loop {
            // One placement pass: sort the whole queue, then Vec::remove
            // every started job.
            sort_by_key(&mut ready, &keys);
            let mut i = 0;
            while i < ready.len() {
                let j = ready[i];
                if resources.fits(&decision[j]) {
                    resources.acquire(&decision[j]);
                    start[j] = now;
                    finish[j] = now + times[j];
                    running.push((finish[j], j));
                    ready.remove(i);
                } else {
                    i += 1;
                }
            }

            if num_completed == n {
                break;
            }
            if running.is_empty() {
                debug_assert!(false, "list scheduler stalled with idle system");
                return Err(CoreError::NoFeasibleAllocation {
                    job: ready.first().copied().unwrap_or(0),
                });
            }

            // Advance to the next completion event (linear min-fold).
            let next_time = running
                .iter()
                .map(|&(f, _)| f)
                .fold(f64::INFINITY, f64::min);
            now = next_time;
            let mut newly_ready: Vec<usize> = Vec::new();
            let mut k = 0;
            while k < running.len() {
                let (f, j) = running[k];
                if f <= now + EPS {
                    running.swap_remove(k);
                    num_completed += 1;
                    resources.release(&decision[j]);
                    for &succ in instance.dag.successors(j) {
                        remaining_preds[succ] -= 1;
                        if remaining_preds[succ] == 0 {
                            newly_ready.push(succ);
                        }
                    }
                } else {
                    k += 1;
                }
            }
            ready.extend(newly_ready);
        }

        let jobs = (0..n)
            .map(|j| ScheduledJob {
                job: j,
                start: start[j],
                finish: finish[j],
                alloc: decision[j].clone(),
            })
            .collect();
        Ok(Schedule::new(jobs))
    }
}

/// Sorts job indices by `(key, job index)` so the order is deterministic even
/// with equal keys — the comparator [`ReadyQueue`] maintains incrementally.
fn sort_by_key(jobs: &mut [usize], keys: &[f64]) {
    jobs.sort_by(|&a, &b| crate::ready_queue::key_order(a, b, keys));
}

/// Static counter names for the per-type wait-reason attribution, so the hot
/// path never allocates a metric name (the obs store is `&'static str`
/// keyed). Types beyond the table share one overflow counter.
const BLOCKED_BY_TYPE: [&str; 8] = [
    "core.placement.blocked.type0",
    "core.placement.blocked.type1",
    "core.placement.blocked.type2",
    "core.placement.blocked.type3",
    "core.placement.blocked.type4",
    "core.placement.blocked.type5",
    "core.placement.blocked.type6",
    "core.placement.blocked.type7",
];

/// How many queued jobs a single placement pass attributes a wait reason
/// to. The queue is priority-sorted, so its head is the binding constraint;
/// scanning every survivor would make enabled-mode placement O(ready) per
/// pass — quadratic over a drain on wide DAGs, a ~60× slowdown at n=20000.
const WAIT_SCAN_CAP: usize = 32;

/// Wait-reason attribution for the jobs a placement pass left queued: each
/// of the first [`WAIT_SCAN_CAP`] survivors is charged to the *smallest*
/// resource type with less available than it requests (the same binding-type
/// rule the span analyzer uses), or to the `fitting` counter when it fits
/// but the sweep's provably start-free early exit skipped it. The
/// `blocked_jobs` total still counts the whole queue (O(1)). Only called
/// with collection enabled — the reasons feed the blame layer, not the
/// schedule, and the cap is a fixed constant so counters stay deterministic.
fn record_wait_reasons(queued: &[usize], decision: &[Allocation], resources: &ResourceState) {
    let mut fitting = 0u64;
    for &j in queued.iter().take(WAIT_SCAN_CAP) {
        let req = &decision[j];
        match (0..req.dim()).find(|&t| req[t] as f64 > resources.available(t) + EPS) {
            Some(t) => {
                mrls_obs::counter_add(
                    BLOCKED_BY_TYPE
                        .get(t)
                        .copied()
                        .unwrap_or("core.placement.blocked.type_other"),
                    1,
                );
            }
            None => fitting += 1,
        }
    }
    mrls_obs::counter_add("core.placement.blocked_jobs", queued.len() as u64);
    if fitting > 0 {
        mrls_obs::counter_add("core.placement.blocked.fitting", fitting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_dag::Dag;
    use mrls_model::{ExecTimeSpec, MoldableJob, SystemConfig};

    /// One resource type with capacity `p`; `n` constant-time jobs.
    fn rigid_instance(n: usize, p: u64, dag: Dag, times: &[f64], units: &[u64]) -> Instance {
        let jobs: Vec<MoldableJob> = (0..n)
            .map(|j| MoldableJob::new(j, ExecTimeSpec::Constant { time: times[j] }))
            .collect();
        let _ = units;
        Instance::new(SystemConfig::new(vec![p]).unwrap(), dag, jobs).unwrap()
    }

    fn alloc1(units: &[u64]) -> Vec<Allocation> {
        units.iter().map(|&u| Allocation::new(vec![u])).collect()
    }

    #[test]
    fn independent_jobs_pack_onto_resources() {
        // 4 unit-time jobs, each needing 1 of 2 units: two waves of two.
        let inst = rigid_instance(4, 2, Dag::independent(4), &[1.0; 4], &[1; 4]);
        let sched = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[1, 1, 1, 1]))
            .unwrap();
        assert!((sched.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chain_is_sequential() {
        let inst = rigid_instance(3, 4, Dag::chain(3), &[1.0, 2.0, 3.0], &[1; 3]);
        let sched = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[1, 1, 1]))
            .unwrap();
        assert!((sched.makespan - 6.0).abs() < 1e-9);
        assert!(sched.jobs[1].start >= sched.jobs[0].finish - 1e-9);
        assert!(sched.jobs[2].start >= sched.jobs[1].finish - 1e-9);
    }

    #[test]
    fn resource_capacity_is_respected_at_every_event() {
        // 3 unit jobs each needing 2 of 3 units: they must serialise.
        let inst = rigid_instance(3, 3, Dag::independent(3), &[1.0; 3], &[2; 3]);
        let sched = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[2, 2, 2]))
            .unwrap();
        assert!((sched.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn priority_order_changes_start_order() {
        // Two jobs, only one can run at a time; longest-time-first runs job 1
        // (t=5) before job 0 (t=1).
        let inst = rigid_instance(2, 1, Dag::independent(2), &[1.0, 5.0], &[1, 1]);
        let fifo = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[1, 1]))
            .unwrap();
        assert!(fifo.jobs[0].start < fifo.jobs[1].start);
        let ltf = ListScheduler::new(PriorityRule::LongestTimeFirst)
            .schedule(&inst, &alloc1(&[1, 1]))
            .unwrap();
        assert!(ltf.jobs[1].start < ltf.jobs[0].start);
        // Makespan is the same either way here.
        assert!((fifo.makespan - ltf.makespan).abs() < 1e-9);
    }

    #[test]
    fn greedy_backfilling_starts_any_fitting_job() {
        // Job 0 needs 3/4 units, job 1 needs 4/4, job 2 needs 1/4.
        // FIFO order: 0 starts, 1 does not fit, but 2 (later in the queue)
        // does fit and must be started (Algorithm 2 scans the whole queue).
        let inst = rigid_instance(3, 4, Dag::independent(3), &[2.0, 1.0, 1.0], &[3, 4, 1]);
        let sched = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[3, 4, 1]))
            .unwrap();
        assert!((sched.jobs[0].start - 0.0).abs() < 1e-9);
        assert!((sched.jobs[2].start - 0.0).abs() < 1e-9);
        assert!(sched.jobs[1].start >= 2.0 - 1e-9);
    }

    #[test]
    fn multi_resource_fit_requires_every_type() {
        // Two resource types; job 1 fits type 0 but not type 1 while job 0 runs.
        let system = SystemConfig::new(vec![4, 2]).unwrap();
        let jobs: Vec<MoldableJob> = (0..2)
            .map(|j| MoldableJob::new(j, ExecTimeSpec::Constant { time: 1.0 }))
            .collect();
        let inst = Instance::new(system, Dag::independent(2), jobs).unwrap();
        let decision = vec![Allocation::new(vec![1, 2]), Allocation::new(vec![1, 1])];
        let sched = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &decision)
            .unwrap();
        // Job 1 must wait for job 0 to release resource type 1.
        assert!((sched.jobs[1].start - 1.0).abs() < 1e-9);
        assert!((sched.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_allocation_is_rejected() {
        let inst = rigid_instance(1, 2, Dag::independent(1), &[1.0], &[3]);
        let err = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[3]))
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Model(_))
                || matches!(err, CoreError::AllocationNeverFits { .. })
        );
    }

    #[test]
    fn wrong_decision_length_rejected() {
        let inst = rigid_instance(2, 2, Dag::independent(2), &[1.0, 1.0], &[1, 1]);
        let err = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &alloc1(&[1]))
            .unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn empty_instance() {
        let inst = rigid_instance(0, 2, Dag::independent(0), &[], &[]);
        let sched = ListScheduler::new(PriorityRule::Fifo)
            .schedule(&inst, &[])
            .unwrap();
        assert_eq!(sched.makespan, 0.0);
    }

    #[test]
    fn incremental_schedule_ready_matches_offline_pass() {
        // Same scenario as `greedy_backfilling_starts_any_fitting_job`, but
        // driven through the incremental entry point over a persistent
        // resource state.
        let inst = rigid_instance(3, 4, Dag::independent(3), &[2.0, 1.0, 1.0], &[3, 4, 1]);
        let decision = alloc1(&[3, 4, 1]);
        let sched = ListScheduler::new(PriorityRule::Fifo);
        let times = sched.evaluate_times(&inst, &decision).unwrap();
        let keys = sched.priority_keys(&inst, &decision, &times).unwrap();
        let mut resources = ResourceState::from_system(&inst.system);
        let mut ready = ReadyQueue::with_universe(&[0, 1, 2], vec![0, 1, 2], &keys, &decision);
        // At time 0: job 0 (3/4) starts, job 1 (4/4) does not fit, job 2
        // (1/4) backfills.
        let started = sched.schedule_ready(&mut ready, &keys, &decision, &mut resources);
        assert_eq!(started, vec![0, 2]);
        assert_eq!(ready.as_slice(), &[1]);
        // Nothing more fits until a completion releases resources.
        assert!(sched
            .schedule_ready(&mut ready, &keys, &decision, &mut resources)
            .is_empty());
        resources.release(&decision[2]);
        assert!(sched
            .schedule_ready(&mut ready, &keys, &decision, &mut resources)
            .is_empty());
        resources.release(&decision[0]);
        let started = sched.schedule_ready(&mut ready, &keys, &decision, &mut resources);
        assert_eq!(started, vec![1]);
        assert!(ready.is_empty());
    }

    #[test]
    fn diamond_precedence_and_overlap() {
        // Diamond with unit jobs on 2 units of one resource: 0, then 1 and 2
        // in parallel, then 3 => makespan 3.
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let inst = rigid_instance(4, 2, dag, &[1.0; 4], &[1; 4]);
        let sched = ListScheduler::new(PriorityRule::CriticalPath)
            .schedule(&inst, &alloc1(&[1, 1, 1, 1]))
            .unwrap();
        assert!((sched.makespan - 3.0).abs() < 1e-9);
        assert!((sched.jobs[1].start - 1.0).abs() < 1e-9);
        assert!((sched.jobs[2].start - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_at_least_critical_path_and_area() {
        // Generic sanity on a small random-ish instance with moldable times.
        let system = SystemConfig::new(vec![3, 3]).unwrap();
        let dag = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        let jobs: Vec<MoldableJob> = (0..5)
            .map(|j| {
                MoldableJob::new(
                    j,
                    ExecTimeSpec::Amdahl {
                        seq: 1.0,
                        work: vec![4.0, 2.0],
                    },
                )
            })
            .collect();
        let inst = Instance::new(system, dag, jobs).unwrap();
        let decision = vec![Allocation::new(vec![2, 1]); 5];
        let sched = ListScheduler::new(PriorityRule::CriticalPath)
            .schedule(&inst, &decision)
            .unwrap();
        let metrics = inst.evaluate_decision(&decision).unwrap();
        assert!(sched.makespan + 1e-9 >= metrics.critical_path);
        assert!(sched.makespan + 1e-9 >= metrics.average_total_area);
    }
}
