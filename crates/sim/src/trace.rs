//! Typed event log and realized-schedule output of a simulation run.

use mrls_core::{Schedule, ScheduledJob};
use mrls_model::Allocation;
use mrls_obs::chrome::ChromeTrace;
use serde::{Deserialize, Serialize};

/// One event in the realized execution, in the order the engine processed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job became known to the scheduler (online arrival; jobs released at
    /// time zero are not logged).
    JobReleased {
        /// Event time.
        time: f64,
        /// The released job.
        job: usize,
    },
    /// A job started executing.
    JobStarted {
        /// Event time.
        time: f64,
        /// The started job.
        job: usize,
        /// The allocation it runs with (may differ from the plan after a
        /// reschedule).
        alloc: Allocation,
        /// Nominal execution time `t_j(p_j)` under that allocation.
        nominal: f64,
    },
    /// A job completed.
    JobCompleted {
        /// Event time.
        time: f64,
        /// The completed job.
        job: usize,
        /// Nominal execution time it was started with.
        nominal: f64,
        /// The realized (perturbed) execution time.
        realized: f64,
    },
    /// A resource type's capacity changed.
    CapacityChanged {
        /// Event time.
        time: f64,
        /// Affected resource type.
        resource: usize,
        /// The new capacity.
        capacity: u64,
    },
    /// A policy recomputed (part of) its plan.
    Rescheduled {
        /// Event time.
        time: f64,
        /// What triggered the reschedule (`"arrival"`, `"capacity-change"`,
        /// `"straggler"`, …).
        trigger: String,
        /// How many pending jobs the new plan covers.
        jobs: usize,
    },
    /// A job's running attempt failed (fault injection, straggler kill, or a
    /// resource outage), or the job was abandoned outright.
    JobFailed {
        /// Event time.
        time: f64,
        /// The failed job.
        job: usize,
        /// The 1-based attempt number that failed (0 for cascade-abandoned
        /// descendants that never ran). The job is abandoned — moved to
        /// quarantine by the serve tier — iff the cause is
        /// [`FailCause::Cascade`](crate::FailCause) or this was its last
        /// budgeted attempt.
        attempt: u32,
        /// Why the attempt died.
        cause: crate::FailCause,
    },
    /// A failed job's backoff expired and it rejoined the ready set.
    JobRetried {
        /// Event time.
        time: f64,
        /// The re-eligible job.
        job: usize,
        /// The 1-based attempt number the job will consume next.
        attempt: u32,
    },
}

impl TraceEvent {
    /// The virtual time of the event.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::JobReleased { time, .. }
            | TraceEvent::JobStarted { time, .. }
            | TraceEvent::JobCompleted { time, .. }
            | TraceEvent::CapacityChanged { time, .. }
            | TraceEvent::Rescheduled { time, .. }
            | TraceEvent::JobFailed { time, .. }
            | TraceEvent::JobRetried { time, .. } => *time,
        }
    }
}

/// Planned-vs-realized stress statistics of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StressStats {
    /// Makespan of the offline plan.
    pub planned_makespan: f64,
    /// Makespan actually realized.
    pub realized_makespan: f64,
    /// `realized / planned` (1.0 for an undisturbed replay).
    pub stretch: f64,
    /// Mean per-job `realized / nominal` execution-time factor.
    pub mean_slowdown: f64,
    /// Worst per-job `realized / nominal` execution-time factor.
    pub max_slowdown: f64,
    /// Number of reschedule events the policy performed.
    pub num_reschedules: usize,
    /// Number of jobs whose allocation differs from the plan.
    pub num_realloc_jobs: usize,
}

/// The full output of one simulation run: the typed event log plus the
/// realized schedule (validated downstream by `mrls-analysis`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealizedTrace {
    /// Label of the policy that produced the run.
    pub policy: String,
    /// Perturbation seed of the run.
    pub seed: u64,
    /// Every event, in processing order.
    pub events: Vec<TraceEvent>,
    /// The realized schedule (actual starts, finishes and allocations).
    pub realized: Schedule,
    /// Stress statistics of the run.
    pub stats: StressStats,
}

impl RealizedTrace {
    /// Serialises the trace to pretty JSON for export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("traces are always serialisable")
    }

    /// Parses a trace from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Renders the run as Chrome trace-event JSON (`chrome://tracing` /
    /// Perfetto). Virtual time maps to microseconds (1 time unit = 1s = 1e6
    /// µs). Realized job executions become complete spans packed greedily
    /// onto lanes (threads of process 1); releases, capacity changes, and
    /// reschedules become instant events on process 0, with capacity changes
    /// also emitted as counter samples so the viewer plots them as a series.
    pub fn to_chrome_trace_json(&self) -> String {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, &format!("mrls events ({})", self.policy));
        trace.process_name(1, "mrls jobs");
        write_job_lanes(&mut trace, &self.realized, |_| Vec::new());

        for ev in &self.events {
            match ev {
                TraceEvent::JobReleased { time, job } => {
                    trace.instant(
                        &format!("release job {job}"),
                        "arrival",
                        0,
                        0,
                        micros(*time),
                    );
                }
                TraceEvent::CapacityChanged {
                    time,
                    resource,
                    capacity,
                } => {
                    trace.instant(
                        &format!("capacity[{resource}] -> {capacity}"),
                        "capacity",
                        0,
                        0,
                        micros(*time),
                    );
                    trace.counter(
                        &format!("capacity[{resource}]"),
                        0,
                        micros(*time),
                        &[("capacity", *capacity)],
                    );
                }
                TraceEvent::Rescheduled {
                    time,
                    trigger,
                    jobs,
                } => {
                    trace.instant(
                        &format!("reschedule ({trigger}, {jobs} jobs)"),
                        "reschedule",
                        0,
                        0,
                        micros(*time),
                    );
                }
                TraceEvent::JobFailed {
                    time,
                    job,
                    attempt,
                    cause,
                } => {
                    trace.instant(
                        &format!("fail job {job} attempt {attempt} ({cause})"),
                        "failure",
                        0,
                        0,
                        micros(*time),
                    );
                }
                TraceEvent::JobRetried { time, job, attempt } => {
                    trace.instant(
                        &format!("retry job {job} attempt {attempt}"),
                        "retry",
                        0,
                        0,
                        micros(*time),
                    );
                }
                TraceEvent::JobStarted { .. } | TraceEvent::JobCompleted { .. } => {}
            }
        }
        trace.to_json()
    }
}

/// Virtual time in Chrome trace-event microseconds (1 time unit = 1 s =
/// 1e6 µs), clamped at zero.
pub(crate) fn micros(t: f64) -> u64 {
    (t * 1e6).round().max(0.0) as u64
}

/// Writes every realized execution of `realized` as a complete span on
/// process 1, with `args(job)` in the viewer's detail pane. Spans are
/// packed greedily onto lanes (threads of process 1): sorted by start, each
/// reuses the first lane whose previous span already finished, so
/// concurrent jobs render on separate rows without one row per job. Jobs
/// that never ran (NaN start or finish) are skipped.
pub(crate) fn write_job_lanes(
    out: &mut ChromeTrace,
    realized: &Schedule,
    mut args: impl FnMut(&ScheduledJob) -> Vec<(String, String)>,
) {
    let mut spans: Vec<&ScheduledJob> = realized
        .jobs
        .iter()
        .filter(|s| s.start.is_finite() && s.finish.is_finite())
        .collect();
    spans.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.job.cmp(&b.job))
    });
    let mut lane_free: Vec<f64> = Vec::new();
    for s in spans {
        let lane = match lane_free.iter().position(|&f| f <= s.start) {
            Some(k) => k,
            None => {
                lane_free.push(f64::NEG_INFINITY);
                lane_free.len() - 1
            }
        };
        lane_free[lane] = s.finish;
        let args = args(s);
        let args: Vec<(&str, String)> = args.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        out.complete_with_args(
            &format!("job {} {}", s.job, s.alloc),
            "job",
            1,
            lane as u64,
            micros(s.start),
            micros(s.finish - s.start).max(1),
            &args,
        );
    }
    for lane in 0..lane_free.len() {
        out.thread_name(1, lane as u64, &format!("lane {lane}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_core::ScheduledJob;

    fn sample() -> RealizedTrace {
        RealizedTrace {
            policy: "static".into(),
            seed: 9,
            events: vec![
                TraceEvent::JobStarted {
                    time: 0.0,
                    job: 0,
                    alloc: Allocation::new(vec![2]),
                    nominal: 1.0,
                },
                TraceEvent::JobCompleted {
                    time: 1.25,
                    job: 0,
                    nominal: 1.0,
                    realized: 1.25,
                },
                TraceEvent::Rescheduled {
                    time: 1.25,
                    trigger: "straggler".into(),
                    jobs: 0,
                },
            ],
            realized: Schedule::new(vec![ScheduledJob {
                job: 0,
                start: 0.0,
                finish: 1.25,
                alloc: Allocation::new(vec![2]),
            }]),
            stats: StressStats {
                planned_makespan: 1.0,
                realized_makespan: 1.25,
                stretch: 1.25,
                mean_slowdown: 1.25,
                max_slowdown: 1.25,
                num_reschedules: 1,
                num_realloc_jobs: 0,
            },
        }
    }

    #[test]
    fn event_times_are_accessible() {
        let t = sample();
        let times: Vec<f64> = t.events.iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![0.0, 1.25, 1.25]);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let mut t = sample();
        t.events.insert(
            0,
            TraceEvent::CapacityChanged {
                time: 0.5,
                resource: 0,
                capacity: 3,
            },
        );
        t.events
            .insert(0, TraceEvent::JobReleased { time: 0.0, job: 0 });
        let text = t.to_chrome_trace_json();
        let doc = mrls_obs::chrome::validate(&text).expect("export is valid trace JSON");
        // 2 process names + 1 lane name + 1 job span + release instant +
        // capacity instant + capacity counter + reschedule instant.
        assert_eq!(doc.events, 8);
        assert_eq!(doc.spans_and_instants, 5);
        assert!(text.contains("\"ph\":\"X\""), "job span present");
        assert!(text.contains("\"dur\":1250000"), "1.25 time units = 1.25s");
    }

    #[test]
    fn chrome_export_packs_overlapping_jobs_onto_distinct_lanes() {
        let mut t = sample();
        t.realized = Schedule::new(vec![
            ScheduledJob {
                job: 0,
                start: 0.0,
                finish: 2.0,
                alloc: Allocation::new(vec![1]),
            },
            ScheduledJob {
                job: 1,
                start: 1.0,
                finish: 3.0,
                alloc: Allocation::new(vec![1]),
            },
            ScheduledJob {
                job: 2,
                start: 2.5,
                finish: 4.0,
                alloc: Allocation::new(vec![1]),
            },
        ]);
        let text = t.to_chrome_trace_json();
        mrls_obs::chrome::validate(&text).expect("valid");
        // Jobs 0 and 1 overlap (two lanes); job 2 reuses lane 0 (free at 2.0).
        assert!(text.contains("\"name\":\"lane 1\""));
        assert!(!text.contains("\"name\":\"lane 2\""));
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let t = sample();
        let json = t.to_json();
        let back = RealizedTrace::from_json(&json).unwrap();
        assert_eq!(t, back);
        // Re-serialising the parsed trace is byte-identical (the determinism
        // test for full runs builds on this).
        assert_eq!(json, back.to_json());
        assert!(RealizedTrace::from_json("[oops").is_err());
    }
}
