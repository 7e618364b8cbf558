//! Post-hoc causal explainability over a [`RealizedTrace`]: per-job
//! lifecycle spans, critical-path blame attribution, and the paper-style
//! optimality-gap report.
//!
//! The analyzer replays the trace's availability timeline (capacities minus
//! running allocations, shifted by capacity changes) and decomposes every
//! job's `[submitted, completed]` interval into blamed segments that tile it
//! **exactly**:
//!
//! * `[submitted, admitted)` — admission / batching delay;
//! * `[admitted, ready)` — precedence wait (a predecessor still running);
//! * `[ready, started)` — split at every event boundary; each sub-interval
//!   is charged to the smallest resource type whose availability fell short
//!   of the job's request, or (when the job would have fit) to replan churn
//!   if a reschedule intervened since readiness, else to the placement
//!   policy;
//! * `[started, completed]` — execution.
//!
//! The realized critical path starts at the makespan-determining job and
//! walks back through the predecessor that bound each job's readiness; the
//! per-step segments chain at the predecessor's finish, so their summed
//! durations telescope to exactly the makespan
//! ([`CriticalPathBlame::sums_to_makespan`]). The gap report compares the
//! realized makespan against the combinatorial lower bounds of
//! `mrls_core::bounds`.
//!
//! Everything is virtual time, so two same-seed runs produce byte-identical
//! reports — the standing span-determinism invariant.

use crate::trace::{micros, write_job_lanes, RealizedTrace, TraceEvent};
use mrls_core::bounds::combinatorial_lower_bound;
use mrls_core::EPS;
use mrls_model::Instance;
use mrls_obs::blame::{BlameTotals, CriticalPathBlame, CriticalPathStep};
use mrls_obs::span::{Blame, JobSpan, SpanSegment};
use serde::{Deserialize, Serialize};

/// Realized makespan versus the combinatorial lower bounds — the ratio the
/// paper's experiments report (`T / LB`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapReport {
    /// The realized makespan.
    pub realized_makespan: f64,
    /// Critical path with every job at its fastest allocation.
    pub critical_path_bound: f64,
    /// Sum over jobs of the minimum average area.
    pub area_bound: f64,
    /// `max_j min_p max(t_j(p), a_j(p))`.
    pub single_job_bound: f64,
    /// The best (largest) lower bound.
    pub best_bound: f64,
    /// `realized_makespan / best_bound` (0.0 for a degenerate zero bound).
    pub ratio: f64,
}

/// The full explainability report of one run: every job's blamed lifecycle
/// span, the aggregate blame totals, the realized critical path with its
/// makespan decomposition, and the optimality-gap report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Label of the policy that produced the run.
    pub policy: String,
    /// Perturbation seed of the run.
    pub seed: u64,
    /// The realized makespan.
    pub makespan: f64,
    /// Per-job lifecycle spans, indexed by job.
    pub jobs: Vec<JobSpan>,
    /// Blame totals summed over every job's segments.
    pub totals: BlameTotals,
    /// The realized critical path and its exact makespan decomposition.
    pub critical_path: CriticalPathBlame,
    /// Realized makespan versus the lower bounds.
    pub gap: GapReport,
}

impl ExplainReport {
    /// Serialises the report to pretty JSON (deterministic: sorted blame
    /// keys, virtual-time values only).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports are always serialisable")
    }

    /// Parses a report from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Checks the two exactness identities every report must satisfy: each
    /// job's segments tile `[submitted, completed]` and the critical-path
    /// blame sums to the makespan, both within `eps`.
    pub fn check_identities(&self, eps: f64) -> Result<(), String> {
        for span in &self.jobs {
            if !span.milestones_ordered() {
                return Err(format!("job {}: milestones out of order", span.job));
            }
            if !span.tiles_exactly(eps) {
                return Err(format!(
                    "job {}: segments do not tile [submitted, completed]",
                    span.job
                ));
            }
        }
        if !self.critical_path.sums_to_makespan(eps) {
            return Err(format!(
                "critical-path blame sums to {} but the makespan is {}",
                self.critical_path.totals.total(),
                self.critical_path.makespan
            ));
        }
        Ok(())
    }
}

/// Piecewise-constant availability timeline replayed from the trace: one
/// breakpoint per distinct event time, holding the per-type availability
/// *after* every event at that instant, plus the reschedule instants.
struct Timeline {
    /// Breakpoint times, ascending.
    times: Vec<f64>,
    /// Availability vector in force from `times[i]` until `times[i + 1]`.
    avail: Vec<Vec<f64>>,
    /// Times of `Rescheduled` events, ascending.
    reschedules: Vec<f64>,
}

impl Timeline {
    fn replay(trace: &RealizedTrace, instance: &Instance) -> Timeline {
        let d = instance.num_resource_types();
        let n = instance.num_jobs();
        let mut avail: Vec<f64> = instance
            .system
            .capacities()
            .iter()
            .map(|&c| c as f64)
            .collect();
        let mut capacities = avail.clone();
        let mut times = vec![0.0];
        let mut states = vec![avail.clone()];
        let mut reschedules = Vec::new();
        // The allocation each job's *latest* attempt started with: a failed
        // attempt must release exactly what it acquired, which may differ
        // from the realized (final-attempt) allocation.
        let mut last_alloc: Vec<Option<mrls_model::Allocation>> = vec![None; n];
        let push = |t: f64, avail: &[f64], times: &mut Vec<f64>, states: &mut Vec<Vec<f64>>| {
            if (t - *times.last().expect("seeded with t=0")).abs() <= EPS {
                *states.last_mut().expect("seeded") = avail.to_vec();
            } else {
                times.push(t);
                states.push(avail.to_vec());
            }
        };
        for ev in &trace.events {
            match ev {
                TraceEvent::JobStarted {
                    time, job, alloc, ..
                } => {
                    for t in 0..d.min(alloc.dim()) {
                        avail[t] -= alloc[t] as f64;
                    }
                    if *job < n {
                        last_alloc[*job] = Some(alloc.clone());
                    }
                    push(*time, &avail, &mut times, &mut states);
                }
                TraceEvent::JobCompleted { time, job, .. } => {
                    let alloc = &trace.realized.jobs[*job].alloc;
                    for t in 0..d.min(alloc.dim()) {
                        avail[t] += alloc[t] as f64;
                    }
                    push(*time, &avail, &mut times, &mut states);
                }
                TraceEvent::CapacityChanged {
                    time,
                    resource,
                    capacity,
                } => {
                    if *resource < d {
                        let delta = *capacity as f64 - capacities[*resource];
                        capacities[*resource] = *capacity as f64;
                        avail[*resource] += delta;
                    }
                    push(*time, &avail, &mut times, &mut states);
                }
                TraceEvent::Rescheduled { time, .. } => reschedules.push(*time),
                // A failed attempt releases what it acquired at start; a
                // cascade abandonment (attempt 0) never held anything.
                TraceEvent::JobFailed { time, job, .. } => {
                    if let Some(alloc) = (*job < n).then(|| last_alloc[*job].take()).flatten() {
                        for t in 0..d.min(alloc.dim()) {
                            avail[t] += alloc[t] as f64;
                        }
                        push(*time, &avail, &mut times, &mut states);
                    }
                }
                TraceEvent::JobReleased { .. } | TraceEvent::JobRetried { .. } => {}
            }
        }
        Timeline {
            times,
            avail: states,
            reschedules,
        }
    }

    /// Index of the breakpoint in force at time `t` (the last one `<= t`,
    /// within tolerance).
    fn index_at(&self, t: f64) -> usize {
        match self
            .times
            .binary_search_by(|probe| probe.partial_cmp(&(t + EPS)).expect("finite times"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// `true` iff a reschedule happened in `(after, until]`.
    fn rescheduled_between(&self, after: f64, until: f64) -> bool {
        self.reschedules
            .iter()
            .any(|&t| t > after + EPS && t <= until + EPS)
    }
}

/// Decomposes `[ready, started)` for one job into blamed sub-intervals:
/// each event boundary splits the wait, and each piece is charged to the
/// smallest resource type whose availability fell short of the request — or
/// to replan churn / the policy when the job would have fit.
fn decompose_resource_wait(
    timeline: &Timeline,
    alloc: &mrls_model::Allocation,
    ready: f64,
    started: f64,
    out: &mut Vec<SpanSegment>,
) {
    if started - ready <= EPS {
        return;
    }
    let mut cursor = ready;
    let mut idx = timeline.index_at(ready);
    while cursor < started - EPS {
        let next_break = timeline
            .times
            .get(idx + 1)
            .copied()
            .unwrap_or(f64::INFINITY);
        let until = next_break.min(started);
        let avail = &timeline.avail[idx];
        let blocking =
            (0..alloc.dim().min(avail.len())).find(|&t| alloc[t] as f64 > avail[t] + EPS);
        let blame = match blocking {
            Some(resource) => Blame::Resource { resource },
            None if timeline.rescheduled_between(ready, cursor) => Blame::Replan,
            None => Blame::Policy,
        };
        push_segment(out, cursor, until, blame);
        cursor = until;
        idx += 1;
    }
}

/// Per-job retry-churn intervals: each failed attempt contributes
/// `[attempt start, re-eligibility)` (or `[attempt start, failure)` when the
/// job was abandoned instead of retried). Built from the event log; empty
/// for failure-free runs.
fn churn_intervals(trace: &RealizedTrace, n: usize) -> Vec<Vec<(f64, f64)>> {
    let mut open = vec![f64::NAN; n];
    let mut churn: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    for ev in &trace.events {
        match ev {
            TraceEvent::JobStarted { time, job, .. } if *job < n => {
                open[*job] = *time;
            }
            TraceEvent::JobFailed { time, job, .. } if *job < n && open[*job].is_finite() => {
                churn[*job].push((open[*job], *time));
                open[*job] = f64::NAN;
            }
            TraceEvent::JobRetried { time, job, .. } if *job < n => {
                // The backoff up to re-eligibility is part of the churn.
                if let Some(last) = churn[*job].last_mut() {
                    last.1 = *time;
                }
            }
            _ => {}
        }
    }
    churn
}

/// Pushes `[from, until)` as precedence wait, carving out the retry-churn
/// intervals (failed attempts plus their backoff) as [`Blame::Retry`]. With
/// no churn this is exactly one precedence segment.
fn push_wait_with_retry(out: &mut Vec<SpanSegment>, from: f64, until: f64, churn: &[(f64, f64)]) {
    let mut cursor = from;
    for &(s, e) in churn {
        if e <= cursor + EPS {
            continue;
        }
        if s >= until - EPS {
            break;
        }
        let s_c = s.max(cursor);
        let e_c = e.min(until);
        push_segment(out, cursor, s_c, Blame::Precedence);
        push_segment(out, s_c, e_c, Blame::Retry);
        cursor = e_c;
    }
    push_segment(out, cursor, until, Blame::Precedence);
}

/// Appends `[from, until)` blamed `blame`, merging with an adjacent previous
/// segment of the same blame and skipping zero-width pieces.
fn push_segment(out: &mut Vec<SpanSegment>, from: f64, until: f64, blame: Blame) {
    if until - from <= 0.0 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.blame == blame && (last.until - from).abs() <= EPS {
            last.until = until;
            return;
        }
    }
    out.push(SpanSegment { from, until, blame });
}

/// Builds the explainability report for a completed run.
///
/// * `submit_times` — per-job submission (ingest) virtual times; `None`
///   means each job was submitted when it was admitted (offline runs).
/// * `ready_times` — engine-recorded readiness times
///   ([`crate::SimRun::ready_times`]); non-finite entries (and `None`) fall
///   back to the derived value `max(admitted, max predecessor finish)`.
///
/// Fails if the trace has unfinished jobs (NaN starts/finishes) or the
/// instance's job profiles cannot be built.
pub fn explain(
    trace: &RealizedTrace,
    instance: &Instance,
    submit_times: Option<&[f64]>,
    ready_times: Option<&[f64]>,
) -> Result<ExplainReport, String> {
    let n = instance.num_jobs();
    if trace.realized.jobs.len() != n {
        return Err(format!(
            "trace covers {} jobs but the instance has {n}",
            trace.realized.jobs.len()
        ));
    }
    for sj in &trace.realized.jobs {
        if !sj.start.is_finite() || !sj.finish.is_finite() {
            return Err(format!(
                "job {} has no realized start/finish — explain requires a completed run",
                sj.job
            ));
        }
    }

    // Admission times: the `JobReleased` event, or 0.0 for jobs released at
    // the start (the engine does not log time-zero releases).
    let mut admitted = vec![0.0f64; n];
    for ev in &trace.events {
        if let TraceEvent::JobReleased { time, job } = ev {
            if *job < n {
                admitted[*job] = *time;
            }
        }
    }

    let timeline = Timeline::replay(trace, instance);
    let churn = churn_intervals(trace, n);
    let starts: Vec<f64> = trace.realized.jobs.iter().map(|j| j.start).collect();
    let finishes: Vec<f64> = trace.realized.jobs.iter().map(|j| j.finish).collect();

    // Readiness: engine-recorded when finite, else derived from the realized
    // predecessor finishes (the two agree — the explain proptests pin it).
    let ready: Vec<f64> = (0..n)
        .map(|j| {
            if let Some(rt) = ready_times.and_then(|r| r.get(j)).filter(|t| t.is_finite()) {
                return *rt;
            }
            instance
                .dag
                .predecessors(j)
                .iter()
                .map(|&p| finishes[p])
                .fold(admitted[j], f64::max)
        })
        .collect();

    let mut jobs = Vec::with_capacity(n);
    let mut totals = BlameTotals::new();
    for j in 0..n {
        let submitted = submit_times
            .and_then(|s| s.get(j))
            .copied()
            .unwrap_or(admitted[j])
            .min(admitted[j]);
        let mut segments = Vec::new();
        push_segment(&mut segments, submitted, admitted[j], Blame::Admission);
        push_wait_with_retry(&mut segments, admitted[j], ready[j], &churn[j]);
        decompose_resource_wait(
            &timeline,
            &trace.realized.jobs[j].alloc,
            ready[j],
            starts[j],
            &mut segments,
        );
        push_segment(&mut segments, starts[j], finishes[j], Blame::Execution);
        totals.add_segments(&segments);
        jobs.push(JobSpan {
            job: j,
            submitted,
            admitted: admitted[j],
            ready: ready[j],
            started: starts[j],
            completed: finishes[j],
            segments,
        });
    }

    let allocs: Vec<&mrls_model::Allocation> =
        trace.realized.jobs.iter().map(|j| &j.alloc).collect();
    let critical_path = critical_path_blame(&jobs, &allocs, instance, &timeline, &churn);

    let makespan = trace.realized.makespan;
    let profiles = instance
        .profiles()
        .map_err(|e| format!("cannot build job profiles for the gap report: {e}"))?;
    let bounds = combinatorial_lower_bound(instance, &profiles);
    let gap = GapReport {
        realized_makespan: makespan,
        critical_path_bound: bounds.critical_path_bound,
        area_bound: bounds.area_bound,
        single_job_bound: bounds.single_job_bound,
        best_bound: bounds.best,
        ratio: if bounds.best > 0.0 {
            makespan / bounds.best
        } else {
            0.0
        },
    };

    Ok(ExplainReport {
        policy: trace.policy.clone(),
        seed: trace.seed,
        makespan,
        jobs,
        totals,
        critical_path,
        gap,
    })
}

/// Walks back from the makespan-determining job through the predecessor
/// that bound each job's readiness; each step contributes the segments of
/// `[chain point, finish]`, telescoping to exactly the makespan.
fn critical_path_blame(
    jobs: &[JobSpan],
    allocs: &[&mrls_model::Allocation],
    instance: &Instance,
    timeline: &Timeline,
    churn: &[Vec<(f64, f64)>],
) -> CriticalPathBlame {
    if jobs.is_empty() {
        return CriticalPathBlame {
            steps: Vec::new(),
            totals: BlameTotals::new(),
            makespan: 0.0,
        };
    }
    // Makespan-determining job: latest finish, smallest index on ties.
    let tail = (0..jobs.len())
        .max_by(|&a, &b| {
            jobs[a]
                .completed
                .partial_cmp(&jobs[b].completed)
                .expect("finite finishes")
                .then(b.cmp(&a))
        })
        .expect("non-empty");
    let makespan = jobs[tail].completed;

    // Walk back while readiness was predecessor-bound.
    let mut chain = vec![tail];
    let mut j = tail;
    loop {
        let span = &jobs[j];
        if span.ready <= span.admitted + EPS {
            break; // readiness was admission-bound: the chain head.
        }
        let preds = instance.dag.predecessors(j);
        let Some(&p) = preds.iter().min_by(|&&a, &&b| {
            jobs[b]
                .completed
                .partial_cmp(&jobs[a].completed)
                .expect("finite finishes")
                .then(a.cmp(&b))
        }) else {
            break;
        };
        chain.push(p);
        j = p;
    }
    chain.reverse();

    let mut steps = Vec::with_capacity(chain.len());
    let mut totals = BlameTotals::new();
    let mut from = 0.0f64;
    for (i, &j) in chain.iter().enumerate() {
        let span = &jobs[j];
        let mut segments = Vec::new();
        if i == 0 {
            // The head's step reaches back to time zero: pre-submission is
            // arrival, then its own admission/precedence/wait segments.
            push_segment(&mut segments, 0.0, span.submitted, Blame::Arrival);
            push_segment(
                &mut segments,
                span.submitted,
                span.admitted,
                Blame::Admission,
            );
            push_wait_with_retry(&mut segments, span.admitted, span.ready, &churn[j]);
        } else {
            // Chained at the predecessor's finish, which is what made this
            // job ready (within tolerance); any residue between the chain
            // point and readiness is still precedence wait — minus any retry
            // churn of the job's own failed attempts.
            push_wait_with_retry(&mut segments, from, span.ready, &churn[j]);
        }
        decompose_resource_wait(timeline, allocs[j], span.ready, span.started, &mut segments);
        push_segment(
            &mut segments,
            span.started,
            span.completed,
            Blame::Execution,
        );
        totals.add_segments(&segments);
        steps.push(CriticalPathStep {
            job: j,
            from,
            finish: span.completed,
            segments,
        });
        from = span.completed;
    }

    CriticalPathBlame {
        steps,
        totals,
        makespan,
    }
}

/// Renders the report as Chrome trace-event JSON with blame-annotated spans:
/// each job's realized execution is a complete span carrying its blame
/// decomposition as `args` (shown in the viewer's detail pane), packed
/// greedily onto lanes; critical-path jobs are additionally marked.
pub fn to_chrome_trace_with_blame(trace: &RealizedTrace, report: &ExplainReport) -> String {
    let mut out = mrls_obs::chrome::ChromeTrace::new();
    out.process_name(0, &format!("mrls explain ({})", report.policy));
    out.process_name(1, "mrls jobs (blame-annotated)");

    let on_path: std::collections::BTreeSet<usize> =
        report.critical_path.steps.iter().map(|s| s.job).collect();
    write_job_lanes(&mut out, &trace.realized, |s| {
        let span = &report.jobs[s.job];
        let mut args = vec![("wait".to_string(), format!("{}", span.wait()))];
        // One arg per blame category the job actually accrued, in stable
        // (sorted) order; the viewer shows them in the detail pane.
        let mut per_job = BlameTotals::new();
        per_job.add_segments(&span.segments);
        args.extend(
            per_job
                .by_category
                .iter()
                .map(|(k, v)| (format!("blame.{k}"), format!("{v}"))),
        );
        if on_path.contains(&s.job) {
            args.push(("critical_path".to_string(), "true".to_string()));
        }
        args
    });
    for ev in &trace.events {
        if let TraceEvent::Rescheduled {
            time,
            trigger,
            jobs,
        } = ev
        {
            out.instant(
                &format!("reschedule ({trigger}, {jobs} jobs)"),
                "reschedule",
                0,
                0,
                micros(*time),
            );
        }
    }
    out.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalize_plan, PerturbationModel, PolicyKind, Scenario, SimConfig, Simulator};
    use mrls_core::{Schedule, ScheduledJob};
    use mrls_dag::Dag;
    use mrls_model::{Allocation, ExecTimeSpec, MoldableJob, SystemConfig};

    /// Two independent unit-time jobs that each need the whole machine: the
    /// second must wait exactly one unit on resource 0.
    fn contended_instance() -> (Instance, Schedule) {
        let system = SystemConfig::new(vec![2]).unwrap();
        let dag = Dag::independent(2);
        let jobs = vec![
            MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 }),
            MoldableJob::new(1, ExecTimeSpec::Constant { time: 1.0 }),
        ];
        let instance = Instance::new(system, dag, jobs).unwrap();
        let plan = Schedule::new(vec![
            ScheduledJob {
                job: 0,
                start: 0.0,
                finish: 1.0,
                alloc: Allocation::new(vec![2]),
            },
            ScheduledJob {
                job: 1,
                start: 1.0,
                finish: 2.0,
                alloc: Allocation::new(vec![2]),
            },
        ]);
        (instance, plan)
    }

    fn offline_sim() -> Simulator {
        Simulator::new(SimConfig {
            seed: 3,
            perturbation: PerturbationModel::None,
            scenario: Scenario::offline(),
            max_events: None,
        })
    }

    fn run_and_explain(instance: &Instance, plan: &Schedule) -> (RealizedTrace, ExplainReport) {
        let plan = normalize_plan(instance, plan).unwrap();
        let sim = offline_sim();
        let (mut run, mut source) = sim.start(instance, &plan).unwrap();
        let mut policy = PolicyKind::Static.build();
        run.drive(policy.as_mut(), &mut source).unwrap();
        let ready = run.ready_times().to_vec();
        let trace = run.into_trace("static");
        let report = explain(&trace, instance, None, Some(&ready)).unwrap();
        (trace, report)
    }

    #[test]
    fn resource_wait_is_charged_to_the_binding_type() {
        let (instance, plan) = contended_instance();
        let (_, report) = run_and_explain(&instance, &plan);
        report.check_identities(1e-9).unwrap();

        let j1 = &report.jobs[1];
        assert_eq!(j1.ready, 0.0);
        assert!((j1.started - 1.0).abs() < 1e-9);
        assert_eq!(
            j1.segments[0].blame,
            Blame::Resource { resource: 0 },
            "the wait is charged to the exhausted type: {:?}",
            j1.segments
        );
        assert!((report.totals.get("resource[0]") - 1.0).abs() < 1e-9);
        assert!((report.totals.get("execution") - 2.0).abs() < 1e-9);

        // The critical path is the makespan-determining job alone (readiness
        // was admission-bound), decomposing 2.0 = 1.0 wait + 1.0 execution.
        assert!(report.critical_path.sums_to_makespan(1e-9));
        assert_eq!(report.critical_path.steps.len(), 1);
        assert_eq!(report.critical_path.steps[0].job, 1);
        assert!((report.critical_path.totals.get("resource[0]") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn precedence_chain_walks_back_through_the_binding_predecessor() {
        let system = SystemConfig::new(vec![4]).unwrap();
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let jobs = vec![
            MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 }),
            MoldableJob::new(1, ExecTimeSpec::Constant { time: 2.0 }),
            MoldableJob::new(2, ExecTimeSpec::Constant { time: 1.0 }),
        ];
        let instance = Instance::new(system, dag, jobs).unwrap();
        let alloc = || Allocation::new(vec![1]);
        let plan = Schedule::new(vec![
            ScheduledJob {
                job: 0,
                start: 0.0,
                finish: 1.0,
                alloc: alloc(),
            },
            ScheduledJob {
                job: 1,
                start: 0.0,
                finish: 2.0,
                alloc: alloc(),
            },
            ScheduledJob {
                job: 2,
                start: 2.0,
                finish: 3.0,
                alloc: alloc(),
            },
        ]);
        let (_, report) = run_and_explain(&instance, &plan);
        report.check_identities(1e-9).unwrap();

        // Job 2 became ready when job 1 (the slower predecessor) finished.
        assert!((report.jobs[2].ready - 2.0).abs() < 1e-9);
        let path: Vec<usize> = report.critical_path.steps.iter().map(|s| s.job).collect();
        assert_eq!(path, vec![1, 2], "walks back through the binding pred");
        assert!(report.critical_path.sums_to_makespan(1e-9));
        assert!((report.critical_path.totals.get("execution") - 3.0).abs() < 1e-9);
        // The gap report brackets: realized equals the critical-path bound
        // here (chain 1 -> 2 at fastest speed, no perturbation).
        assert!(report.gap.best_bound <= report.makespan + 1e-9);
        assert!(report.gap.ratio >= 1.0 - 1e-9);
    }

    #[test]
    fn derived_readiness_matches_the_engine_record() {
        let (instance, plan) = contended_instance();
        let plan = normalize_plan(&instance, &plan).unwrap();
        let sim = offline_sim();
        let (mut run, mut source) = sim.start(&instance, &plan).unwrap();
        let mut policy = PolicyKind::Static.build();
        run.drive(policy.as_mut(), &mut source).unwrap();
        let engine_ready = run.ready_times().to_vec();
        let trace = run.into_trace("static");
        let with_engine = explain(&trace, &instance, None, Some(&engine_ready)).unwrap();
        let derived = explain(&trace, &instance, None, None).unwrap();
        assert_eq!(with_engine.to_json(), derived.to_json());
    }

    #[test]
    fn report_json_roundtrip_is_exact_and_deterministic() {
        let (instance, plan) = contended_instance();
        let (_, a) = run_and_explain(&instance, &plan);
        let (_, b) = run_and_explain(&instance, &plan);
        assert_eq!(a.to_json(), b.to_json(), "same-seed reports byte-identical");
        let back = ExplainReport::from_json(&a.to_json()).unwrap();
        assert_eq!(a, back);
        assert_eq!(a.to_json(), back.to_json());
    }

    #[test]
    fn blame_annotated_chrome_export_validates() {
        let (instance, plan) = contended_instance();
        let (trace, report) = run_and_explain(&instance, &plan);
        let text = to_chrome_trace_with_blame(&trace, &report);
        mrls_obs::chrome::validate(&text).expect("blame-annotated export is valid trace JSON");
        assert!(text.contains("\"blame.resource[0]\":\"1\""), "{text}");
        assert!(text.contains("\"critical_path\":\"true\""));
    }
}
