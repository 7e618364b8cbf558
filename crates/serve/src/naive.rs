//! The **naive** service core: the original checkpoint→clone→resume round
//! loop, kept as the executable reference specification.
//!
//! [`NaiveService`] rebuilds the world every batching round — it re-creates
//! the full `Instance` (cloning every admitted job), rebuilds the complete
//! plan, and moves both into a fresh [`SimRun`] resumed from the previous
//! round's [`SimSnapshot`], whose event log grows without bound. That makes
//! each round O(history) and a long-lived server O(n²) — the exact behaviour
//! the incremental [`ServiceCore`](crate::ServiceCore) replaces.
//!
//! It stays in the tree (not under `#[cfg(test)]`) for two reasons:
//!
//! * the **differential harness** (`tests/differential.rs`) drives it
//!   side-by-side with the incremental core over randomized submission
//!   streams and asserts byte-identical replies, metrics, and traces — the
//!   incremental core is correct *by construction against this reference*;
//! * the `serve_throughput` bench's rounds-vs-latency sweep measures both
//!   paths to demonstrate the O(history) → O(live) change.
//!
//! Behaviour must never be "improved" here; fix the incremental core
//! instead. The only allowed changes are those keeping it byte-identical to
//! its PR 3 semantics.

use crate::flight::{RoundDigest, FLIGHT_RECORDER_CAPACITY};
use crate::ingest::{Batch, DedupWindow, IngestQueue};
use crate::metrics::{MetricsRegistry, MetricsSnapshot, RejectReason};
use crate::protocol::{DrainReport, QuarantineEntry};
use crate::service::{plan_pending, validate_spec, ServeConfig, WorldJob};
use mrls_analysis::{validate_schedule_with, ValidationOptions};
use mrls_core::{Schedule, ScheduledJob};
use mrls_dag::Dag;
use mrls_model::{Instance, MoldableJob, SystemConfig};
use mrls_sim::{
    EventFeed, FailCause, FailureSampler, Perturber, RealizedTrace, SimRun, SimSnapshot, TraceEvent,
};
use std::time::Instant;

/// The reference service core: same protocol-visible behaviour as
/// [`crate::ServiceCore`], paid for with an O(history) world rebuild every
/// round. See the module docs for why it is kept.
#[derive(Debug)]
pub struct NaiveService {
    config: ServeConfig,
    world: Vec<WorldJob>,
    edges: Vec<(usize, usize)>,
    capacities_now: Vec<u64>,
    capacities_max: Vec<u64>,
    snapshot: Option<SimSnapshot>,
    // The live perturbation stream, carried across rounds so resuming never
    // replays the draw history (it must always match
    // `snapshot.perturber_realizations`).
    perturber: Option<Perturber>,
    // The live failure-draw stream, carried across rounds exactly like the
    // perturber (its position must match the snapshot's recorded attempts).
    failure_sampler: Option<FailureSampler>,
    // The naive mirror of the incremental core's poison quarantine.
    quarantine: Vec<QuarantineEntry>,
    // The previous round's job-indexed plan: an abandoned job is never
    // re-planned and keeps its entry from here, as the incremental core's
    // in-flight plan does.
    plan: Vec<ScheduledJob>,
    // The naive mirror of the incremental core's idempotency dedup window.
    dedup: DedupWindow,
    ingest: IngestQueue,
    metrics: MetricsRegistry,
    /// The naive mirror of the incremental core's flight recorder, limited
    /// to the deterministic digest fields both cores can produce (no plan
    /// diff here, no wall-clock). Pure record-keeping on the side — it does
    /// not change the reference behaviour.
    flight: std::collections::VecDeque<RoundDigest>,
    rounds: u64,
    virtual_now: f64,
    events_seen: usize,
    fault: Option<String>,
}

impl NaiveService {
    /// Creates an idle service for the configured machine.
    pub fn new(config: ServeConfig) -> Self {
        let ingest = IngestQueue::new(config.batch_window, config.max_pending_jobs);
        let capacities = config.capacities.clone();
        let dedup = DedupWindow::new(config.dedup_window);
        NaiveService {
            config,
            world: Vec::new(),
            edges: Vec::new(),
            capacities_now: capacities.clone(),
            capacities_max: capacities,
            snapshot: None,
            perturber: None,
            failure_sampler: None,
            quarantine: Vec::new(),
            plan: Vec::new(),
            dedup,
            ingest,
            metrics: MetricsRegistry::new(),
            flight: std::collections::VecDeque::new(),
            rounds: 0,
            virtual_now: 0.0,
            events_seen: 0,
            fault: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of resource types `d` of the machine.
    pub fn num_resource_types(&self) -> usize {
        self.config.capacities.len()
    }

    /// When the open batch must be flushed, if one is open.
    pub fn deadline(&self) -> Option<Instant> {
        self.ingest.deadline()
    }

    /// The error that poisoned the service, if any round failed.
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Trace events retained by the engine checkpoint (grows with history —
    /// the O(n²) driver the incremental core eliminates).
    pub fn retained_events(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |s| s.events.len())
    }

    /// The retained flight digests, oldest first: the reference the
    /// differential harness compares the incremental core's
    /// [`RoundRecord::digest`](crate::flight::RoundRecord::digest)s against.
    pub fn flight_digests(&self) -> Vec<RoundDigest> {
        self.flight.iter().cloned().collect()
    }

    /// The naive mirror of the incremental core's in-flight backlog: every
    /// admitted job that is neither started nor abandoned, derived from the
    /// snapshot's flags (the core tracks the same set incrementally in its
    /// `pending` frontier).
    fn backlog(&self) -> usize {
        match &self.snapshot {
            Some(s) => {
                let live = s
                    .started
                    .iter()
                    .zip(s.abandoned.iter().chain(std::iter::repeat(&false)))
                    .filter(|&(&started, &abandoned)| !started && !abandoned)
                    .count();
                live + (self.world.len() - s.started.len())
            }
            None => self.world.len(),
        }
    }

    fn check_overload(&self) -> Result<(), String> {
        match self.config.overload_high_water {
            Some(hwm) if self.backlog() >= hwm => Err(format!(
                "overload: {} jobs in flight have reached the high-water mark {hwm} — \
                 load shed, retry after the backlog drains",
                self.backlog()
            )),
            _ => Ok(()),
        }
    }

    /// The poison quarantine, oldest entry first.
    pub fn quarantine(&self) -> Vec<QuarantineEntry> {
        self.quarantine.clone()
    }

    /// Admits one job with dependencies on previously accepted jobs.
    /// Returns the assigned global id.
    pub fn submit_job(
        &mut self,
        tenant: &str,
        job: MoldableJob,
        deps: &[u64],
    ) -> Result<u64, String> {
        self.submit_job_token(tenant, job, deps, None)
    }

    /// [`NaiveService::submit_job`] with an optional client idempotency
    /// token, mirroring
    /// [`ServiceCore::submit_job_token`](crate::ServiceCore::submit_job_token).
    pub fn submit_job_token(
        &mut self,
        tenant: &str,
        job: MoldableJob,
        deps: &[u64],
        token: Option<&str>,
    ) -> Result<u64, String> {
        self.check_fault()?;
        if let Some(ids) = token.and_then(|t| self.dedup.lookup(t)) {
            return Ok(ids[0]);
        }
        if let Err(e) = self.check_overload() {
            self.metrics
                .record_rejected(tenant, 1, RejectReason::Overload);
            return Err(e);
        }
        validate_spec(self.num_resource_types(), &job).inspect_err(|_| {
            self.metrics
                .record_rejected(tenant, 1, RejectReason::Validation);
        })?;
        let admit = self
            .ingest
            .admit(1)
            .map_err(|e| (RejectReason::Backpressure, e))
            .and_then(|()| {
                let next = self.world.len() as u64;
                match deps.iter().find(|&&d| d >= next) {
                    Some(d) => Err((
                        RejectReason::Validation,
                        format!("dependency {d} does not exist yet (next id {next})"),
                    )),
                    None => Ok(()),
                }
            });
        if let Err((reason, e)) = admit {
            self.metrics.record_rejected(tenant, 1, reason);
            return Err(e);
        }
        let id = self.world.len();
        let mut deps: Vec<u64> = deps.to_vec();
        deps.sort_unstable();
        deps.dedup();
        for d in deps {
            self.edges.push((d as usize, id));
        }
        self.world.push(WorldJob {
            tenant: tenant.to_string(),
            job,
        });
        self.ingest.push_jobs(&[id]);
        self.metrics.record_submitted(tenant, 1);
        self.metrics.record_queued(tenant, 1);
        if let Some(token) = token {
            self.dedup.insert(token, vec![id as u64]);
        }
        Ok(id as u64)
    }

    /// Admits a whole DAG atomically; `edges` are `(from, to)` pairs of
    /// indices into `jobs`. Returns the assigned global ids, in order.
    pub fn submit_dag(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
    ) -> Result<Vec<u64>, String> {
        self.submit_dag_token(tenant, jobs, edges, None)
    }

    /// [`NaiveService::submit_dag`] with an optional client idempotency
    /// token, mirroring
    /// [`ServiceCore::submit_dag_token`](crate::ServiceCore::submit_dag_token).
    pub fn submit_dag_token(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
        token: Option<&str>,
    ) -> Result<Vec<u64>, String> {
        self.check_fault()?;
        if let Some(ids) = token.and_then(|t| self.dedup.lookup(t)) {
            return Ok(ids.to_vec());
        }
        let count = jobs.len();
        let d = self.num_resource_types();
        let overload = self.check_overload();
        let admit = (|| {
            overload.map_err(|e| (RejectReason::Overload, e))?;
            if count == 0 {
                return Err((RejectReason::Validation, "empty submission".to_string()));
            }
            self.ingest
                .admit(count)
                .map_err(|e| (RejectReason::Backpressure, e))?;
            for job in &jobs {
                validate_spec(d, job).map_err(|e| (RejectReason::Validation, e))?;
            }
            let mut local: Vec<(usize, usize)> = edges.to_vec();
            local.sort_unstable();
            local.dedup();
            if let Some(&(a, b)) = local.iter().find(|&&(a, b)| a >= count || b >= count) {
                return Err((
                    RejectReason::Validation,
                    format!("edge ({a}, {b}) references a job outside the DAG"),
                ));
            }
            Dag::from_edges(count, &local)
                .map_err(|e| (RejectReason::Validation, format!("invalid DAG: {e}")))?;
            Ok(local)
        })();
        let local = match admit {
            Ok(local) => local,
            Err((reason, e)) => {
                self.metrics
                    .record_rejected(tenant, count.max(1) as u64, reason);
                return Err(e);
            }
        };
        let base = self.world.len();
        let ids: Vec<usize> = (base..base + count).collect();
        for (a, b) in local {
            self.edges.push((base + a, base + b));
        }
        for job in jobs {
            self.world.push(WorldJob {
                tenant: tenant.to_string(),
                job,
            });
        }
        self.ingest.push_jobs(&ids);
        self.metrics.record_submitted(tenant, count as u64);
        self.metrics.record_queued(tenant, count as u64);
        let ids: Vec<u64> = ids.into_iter().map(|id| id as u64).collect();
        if let Some(token) = token {
            self.dedup.insert(token, ids.clone());
        }
        Ok(ids)
    }

    /// Queues a capacity change for the next round.
    pub fn submit_capacity(&mut self, resource: usize, capacity: u64) -> Result<(), String> {
        self.check_fault()?;
        let d = self.num_resource_types();
        if resource >= d {
            return Err(format!(
                "resource {resource} does not exist (the machine has {d} types)"
            ));
        }
        if capacity == 0 {
            return Err("capacities must stay >= 1".to_string());
        }
        self.ingest.push_capacity(resource, capacity);
        Ok(())
    }

    /// The queryable metrics snapshot.
    pub fn status(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.virtual_now, self.ingest.queue_depth())
    }

    /// Flushes the open batch into one scheduling round, if any work is
    /// queued.
    pub fn flush(&mut self) -> Result<(), String> {
        self.check_fault()?;
        if self.ingest.is_empty() {
            return Ok(());
        }
        let batch = self.ingest.take_batch();
        self.metrics.record_batch_taken();
        self.run_round(batch, false).map(|_| ())
    }

    /// Flushes any queued work and runs the engine until every admitted job
    /// completed, returning the drain report.
    pub fn drain(&mut self) -> Result<DrainReport, String> {
        self.check_fault()?;
        let batch = self.ingest.take_batch();
        self.metrics.record_batch_taken();
        let trace = self
            .run_round(batch, true)?
            .expect("completing rounds always produce a trace");
        let submitted = self.world.len() as u64;
        let completed = self.snapshot.as_ref().map_or(0, |s| s.num_completed as u64);
        Ok(DrainReport {
            virtual_makespan: trace.stats.realized_makespan,
            submitted,
            completed,
            feasible: self.validate(&trace),
            metrics: self.status(),
            trace,
        })
    }

    fn check_fault(&self) -> Result<(), String> {
        match &self.fault {
            Some(f) => Err(format!("service faulted: {f}")),
            None => Ok(()),
        }
    }

    /// The virtual time stamped on the next round's events.
    fn next_round_time(&self) -> f64 {
        self.virtual_now.max(self.rounds as f64 * self.config.tick)
    }

    /// Executes one round, rebuilding the whole world.
    fn run_round(&mut self, batch: Batch, complete: bool) -> Result<Option<RealizedTrace>, String> {
        if batch.is_empty() && !complete {
            return Ok(None);
        }
        let t = self.next_round_time();
        if !batch.is_empty() {
            self.rounds += 1;
            self.metrics.record_round();
        }
        // Mirror the capacity changes before building the instance so its
        // system covers every capacity the machine ever had.
        for &(resource, capacity) in &batch.capacity_changes {
            self.capacities_now[resource] = capacity;
            self.capacities_max[resource] = self.capacities_max[resource].max(capacity);
        }
        let mut digest = RoundDigest {
            round: self.rounds,
            drain: complete,
            virtual_time: 0.0,
            admitted_jobs: batch.jobs.len() as u64,
            capacity_changes: batch.capacity_changes.len() as u64,
            started: 0,
            completed: 0,
            failed: 0,
            quarantined: 0,
            events_harvested: 0,
            pending_after: 0,
        };
        let result = self.run_round_inner(&batch, t, complete, &mut digest);
        match result {
            Ok(trace) => {
                if self.flight.len() == FLIGHT_RECORDER_CAPACITY {
                    self.flight.pop_front();
                }
                self.flight.push_back(digest);
                Ok(trace)
            }
            Err(e) => {
                self.fault = Some(e.clone());
                Err(e)
            }
        }
    }

    fn run_round_inner(
        &mut self,
        batch: &Batch,
        t: f64,
        complete: bool,
        digest: &mut RoundDigest,
    ) -> Result<Option<RealizedTrace>, String> {
        let n = self.world.len();
        let system = SystemConfig::new(self.capacities_max.clone()).map_err(|e| e.to_string())?;
        let dag = Dag::from_edges(n, &self.edges).map_err(|e| e.to_string())?;
        let jobs: Vec<MoldableJob> = self.world.iter().map(|w| w.job.clone()).collect();
        let instance = Instance::new(system, dag, jobs).map_err(|e| e.to_string())?;
        let plan = self.build_plan(&instance, t, &batch.jobs)?;

        let mut feed = EventFeed::new();
        for &job in &batch.jobs {
            feed.release(t, job);
        }
        for &(resource, capacity) in &batch.capacity_changes {
            feed.capacity(t, resource, capacity);
        }

        let mut run = match (&self.snapshot, self.perturber.take()) {
            (None, _) => SimRun::start(
                instance,
                plan,
                self.config.seed,
                self.config.perturbation.clone(),
                None,
                vec![false; n],
            ),
            (Some(snapshot), Some(perturber)) => {
                SimRun::resume_with_perturber(instance, plan, snapshot, perturber, None)
            }
            (Some(snapshot), None) => SimRun::resume(
                instance,
                plan,
                snapshot,
                self.config.perturbation.clone(),
                None,
            ),
        }
        .map_err(|e| e.to_string())?;
        if !self.config.failures.is_failure_free() {
            // The failure stream resumes exactly where the previous round
            // left it, like the perturber; on the first round it starts
            // fresh from the seed.
            match self.failure_sampler.take() {
                Some(sampler) => run
                    .set_failures_with_sampler(self.config.failures.clone(), sampler)
                    .map_err(|e| e.to_string())?,
                None => run.set_failures(self.config.failures.clone()),
            }
        }
        let mut policy = self.config.policy.build_with(&self.config.scheduler);
        if complete {
            run.drive(policy.as_mut(), &mut feed)
        } else {
            run.drive_until(policy.as_mut(), &mut feed, t)
        }
        .map_err(|e| e.to_string())?;

        let snapshot = run.checkpoint();
        self.virtual_now = snapshot.now;
        digest.events_harvested = (snapshot.events.len() - self.events_seen) as u64;
        self.harvest_events(&snapshot, digest);
        digest.virtual_time = self.virtual_now;
        digest.pending_after = snapshot
            .started
            .iter()
            .zip(snapshot.abandoned.iter().chain(std::iter::repeat(&false)))
            .filter(|&(&started, &abandoned)| !started && !abandoned)
            .count() as u64;
        if !self.config.failures.is_failure_free() {
            self.failure_sampler = Some(run.failure_sampler().clone());
        }
        self.perturber = Some(run.perturber().clone());
        let trace = complete.then(|| run.into_trace(self.config.policy.label()));
        self.snapshot = Some(snapshot);
        Ok(trace)
    }

    /// Builds the job-indexed plan for the current world: realized entries
    /// for jobs that already started, the previous round's entries for
    /// abandoned jobs, fresh two-phase plans (against the machine's
    /// *current* capacities) for everything pending. Planned finish times
    /// of newly submitted jobs are recorded per tenant.
    fn build_plan(
        &mut self,
        instance: &Instance,
        t: f64,
        new_jobs: &[usize],
    ) -> Result<Schedule, String> {
        let n = instance.num_jobs();
        let started = |j: usize| {
            self.snapshot
                .as_ref()
                .is_some_and(|s| j < s.started.len() && s.started[j])
        };
        let abandoned = |j: usize| {
            self.snapshot
                .as_ref()
                .is_some_and(|s| s.abandoned.get(j) == Some(&true))
        };
        let mut entries: Vec<Option<ScheduledJob>> = vec![None; n];
        let mut pending: Vec<usize> = Vec::new();
        for (j, entry) in entries.iter_mut().enumerate() {
            if started(j) {
                let s = self.snapshot.as_ref().expect("started implies snapshot");
                *entry = Some(ScheduledJob {
                    job: j,
                    start: s.start[j],
                    finish: s.finish[j],
                    alloc: s.alloc_used[j].clone(),
                });
            } else if abandoned(j) {
                *entry = Some(self.plan[j].clone());
            } else {
                pending.push(j);
            }
        }
        let planned = plan_pending(
            instance,
            &self.capacities_now,
            &pending,
            t,
            &self.config.scheduler,
        )?;
        for entry in planned {
            let j = entry.job;
            entries[j] = Some(entry);
        }
        let entries: Vec<ScheduledJob> = entries
            .into_iter()
            .map(|e| e.expect("every job planned or realized"))
            .collect();
        for &j in new_jobs {
            let tenant = self.world[j].tenant.clone();
            self.metrics.record_planned(&tenant, entries[j].finish);
        }
        self.plan = entries.clone();
        Ok(Schedule::new(entries))
    }

    /// Feeds the engine events processed since the last harvest into the
    /// metrics registry and the round digest (the snapshot retains the full
    /// log, so the cursor only ever advances). Mirrors the incremental
    /// core's harvest, including retry and quarantine bookkeeping.
    fn harvest_events(&mut self, snapshot: &SimSnapshot, digest: &mut RoundDigest) {
        let retry_max = self.config.failures.retry.max_attempts;
        for ev in &snapshot.events[self.events_seen..] {
            match ev {
                TraceEvent::JobStarted { job, .. } => {
                    let tenant = self.world[*job].tenant.clone();
                    self.metrics.record_scheduled(&tenant);
                    digest.started += 1;
                }
                TraceEvent::JobCompleted { time, job, .. } => {
                    let tenant = self.world[*job].tenant.clone();
                    self.metrics.record_completed(&tenant, *time);
                    digest.completed += 1;
                }
                TraceEvent::JobFailed {
                    time,
                    job,
                    attempt,
                    cause,
                } => {
                    let cascade = *cause == FailCause::Cascade;
                    if !cascade {
                        digest.failed += 1;
                    }
                    if cascade || *attempt >= retry_max {
                        let tenant = self.world[*job].tenant.clone();
                        self.metrics.record_quarantined(&tenant);
                        digest.quarantined += 1;
                        self.quarantine.push(QuarantineEntry {
                            tenant,
                            job: *job as u64,
                            attempts: *attempt,
                            cause: cause.label(),
                            time: *time,
                        });
                    }
                }
                TraceEvent::JobRetried { job, .. } => {
                    let tenant = self.world[*job].tenant.clone();
                    self.metrics.record_retried(&tenant);
                }
                _ => {}
            }
        }
        self.events_seen = snapshot.events.len();
    }

    /// Validates the realized schedule of a drained world
    /// (capacity/precedence feasibility, durations relaxed).
    fn validate(&self, trace: &RealizedTrace) -> bool {
        let n = self.world.len();
        if n == 0 {
            return true;
        }
        let Ok(system) = SystemConfig::new(self.capacities_max.clone()) else {
            return false;
        };
        let Ok(dag) = Dag::from_edges(n, &self.edges) else {
            return false;
        };
        let jobs: Vec<MoldableJob> = self.world.iter().map(|w| w.job.clone()).collect();
        let Ok(instance) = Instance::new(system, dag, jobs) else {
            return false;
        };
        validate_schedule_with(
            &instance,
            &trace.realized,
            ValidationOptions {
                check_durations: false,
            },
        )
        .is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_model::ExecTimeSpec;

    #[test]
    fn naive_reference_still_serves() {
        let mut core = NaiveService::new(ServeConfig {
            capacities: vec![4, 4],
            ..ServeConfig::default()
        });
        let a = core
            .submit_job(
                "t",
                MoldableJob::new(0, ExecTimeSpec::Constant { time: 2.0 }),
                &[],
            )
            .unwrap();
        core.flush().unwrap();
        core.submit_job(
            "t",
            MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 }),
            &[a],
        )
        .unwrap();
        let report = core.drain().unwrap();
        assert_eq!(report.completed, 2);
        assert!(report.feasible);
        // The naive path retains the whole event log in its checkpoint.
        assert!(core.retained_events() > 0);
    }
}
