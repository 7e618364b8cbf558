//! The differential harness: the incremental [`ServiceCore`] driven
//! side-by-side with the [`NaiveService`] reference (the original
//! checkpoint→clone→resume path) over randomized submission streams.
//!
//! After **every** operation the two services must agree byte-for-byte:
//! identical accept/reject replies, identical metrics JSON, and at the final
//! drain identical report JSON — which covers the realized trace (event log,
//! schedule, stress stats) down to the last bit. Mid-stream the incremental
//! core is additionally checkpointed and restored from JSON (`Recycle`),
//! which must be output-transparent.

use mrls_model::{ExecTimeSpec, MoldableJob};
use mrls_serve::{NaiveService, ServeConfig, ServiceCore};
use mrls_sim::{
    FailureModel, FailurePlan, Outage, PerturbationModel, PolicyKind, RetryPolicy, TraceEvent,
};
use proptest::prelude::*;

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// One step of a randomized submission stream. Dependency and DAG payloads
/// are encoded relative (offsets, chain flags) so the generated stream stays
/// valid — or invalid in interesting ways — whatever the world size is when
/// it executes.
#[derive(Debug, Clone)]
enum Op {
    /// Submit one moldable job for `tenant` with `deps` encoded as offsets
    /// back from the newest job id (an offset on an empty world produces an
    /// unknown-dependency rejection, equal on both paths).
    Job {
        tenant: u8,
        time_centi: u16,
        amdahl: bool,
        deps: Vec<u8>,
    },
    /// Submit a small DAG (chain or independent set) atomically.
    Dag {
        tenant: u8,
        times_centi: Vec<u16>,
        chain: bool,
    },
    /// Change a resource's capacity (resource 2 does not exist and capacity
    /// 0 is invalid — both must be rejected identically).
    Capacity { resource: u8, capacity: u8 },
    /// Query the metrics snapshot.
    Query,
    /// Close the batching window: run one scheduling round.
    Flush,
    /// Checkpoint the incremental engine to JSON and rebuild it from that
    /// JSON (no-op on the naive reference): must be output-transparent.
    Recycle,
}

fn job_spec(time_centi: u16, amdahl: bool) -> MoldableJob {
    let time = 0.25 + f64::from(time_centi) / 100.0;
    let spec = if amdahl {
        ExecTimeSpec::Amdahl {
            seq: 0.1 + time / 4.0,
            work: vec![time * 2.0, time],
        }
    } else {
        ExecTimeSpec::Constant { time }
    };
    MoldableJob::new(0, spec)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0u8..3,
            0u16..300,
            proptest::bool::Any,
            proptest::collection::vec(0u8..6, 0..3),
        )
            .prop_map(|(tenant, time_centi, amdahl, deps)| Op::Job {
                tenant,
                time_centi,
                amdahl,
                deps,
            }),
        (
            0u8..3,
            proptest::collection::vec(0u16..200, 1..4),
            proptest::bool::Any
        )
            .prop_map(|(tenant, times_centi, chain)| Op::Dag {
                tenant,
                times_centi,
                chain,
            }),
        (0u8..3, 0u8..5).prop_map(|(resource, capacity)| Op::Capacity { resource, capacity }),
        Just(Op::Query),
        Just(Op::Flush),
        Just(Op::Flush),
        Just(Op::Recycle),
    ]
}

/// The incremental core and the naive reference, fed in lockstep.
struct Pair {
    incremental: ServiceCore,
    naive: NaiveService,
}

impl Pair {
    fn new(policy: PolicyKind, perturbation: PerturbationModel) -> Self {
        Pair::with_config(ServeConfig {
            capacities: vec![4, 4],
            policy,
            perturbation,
            max_pending_jobs: 24,
            seed: 11,
            ..ServeConfig::default()
        })
    }

    fn with_config(config: ServeConfig) -> Self {
        Pair {
            incremental: ServiceCore::new(config.clone()).unwrap(),
            naive: NaiveService::new(config),
        }
    }

    fn assert_agreement(&self, context: &str) {
        assert_eq!(
            serde_json::to_string(&self.incremental.status()).unwrap(),
            serde_json::to_string(&self.naive.status()).unwrap(),
            "metrics diverged {context}"
        );
        assert_eq!(
            self.incremental.fault().map(str::to_string),
            self.naive.fault().map(str::to_string),
            "fault state diverged {context}"
        );
        // The flight recorder's deterministic projection must agree too:
        // same rounds, same counts, same virtual times (wall-clock fields
        // are excluded by the digest).
        let flights: Vec<_> = self
            .incremental
            .flight_records()
            .iter()
            .map(|r| r.digest())
            .collect();
        assert_eq!(
            flights,
            self.naive.flight_digests(),
            "flight digests diverged {context}"
        );
        // The poison quarantine — tenant, job, attempt count, cause label
        // and virtual quarantine time of every entry — byte-for-byte.
        assert_eq!(
            serde_json::to_string(&self.incremental.quarantine()).unwrap(),
            serde_json::to_string(&self.naive.quarantine()).unwrap(),
            "quarantine diverged {context}"
        );
    }

    fn step(&mut self, i: usize, op: &Op) {
        match op {
            Op::Job {
                tenant,
                time_centi,
                amdahl,
                deps,
            } => {
                let tenant = TENANTS[*tenant as usize];
                let n = self.incremental.status().jobs_submitted;
                let deps: Vec<u64> = deps
                    .iter()
                    .map(|&off| {
                        if n == 0 {
                            u64::from(off) // dangling: rejected on both paths
                        } else {
                            n - 1 - (u64::from(off) % n)
                        }
                    })
                    .collect();
                let job = job_spec(*time_centi, *amdahl);
                let a = self.incremental.submit_job(tenant, job.clone(), &deps);
                let b = self.naive.submit_job(tenant, job, &deps);
                assert_eq!(a, b, "submit_job replies diverged at op {i}");
            }
            Op::Dag {
                tenant,
                times_centi,
                chain,
            } => {
                let tenant = TENANTS[*tenant as usize];
                let jobs: Vec<MoldableJob> =
                    times_centi.iter().map(|&t| job_spec(t, false)).collect();
                let edges: Vec<(usize, usize)> = if *chain {
                    (1..jobs.len()).map(|i| (i - 1, i)).collect()
                } else {
                    Vec::new()
                };
                let a = self.incremental.submit_dag(tenant, jobs.clone(), &edges);
                let b = self.naive.submit_dag(tenant, jobs, &edges);
                assert_eq!(a, b, "submit_dag replies diverged at op {i}");
            }
            Op::Capacity { resource, capacity } => {
                let a = self
                    .incremental
                    .submit_capacity(*resource as usize, u64::from(*capacity));
                let b = self
                    .naive
                    .submit_capacity(*resource as usize, u64::from(*capacity));
                assert_eq!(a, b, "submit_capacity replies diverged at op {i}");
            }
            Op::Query => {} // the agreement check below is the query
            Op::Flush => {
                let a = self.incremental.flush();
                let b = self.naive.flush();
                assert_eq!(a, b, "flush outcomes diverged at op {i}");
                // The incremental invariant: after a round, every processed
                // event has been harvested into the ledger.
                assert_eq!(
                    self.incremental.round_state_stats().retained_events,
                    0,
                    "op {i}: engine retained events across a round"
                );
            }
            Op::Recycle => {
                if self.incremental.fault().is_none() {
                    let json = self.incremental.checkpoint_engine_json();
                    self.incremental
                        .restore_engine_json(&json)
                        .expect("restoring an own checkpoint must succeed");
                }
            }
        }
        self.assert_agreement(&format!("after op {i} ({op:?})"));
    }

    fn finish(&mut self) {
        let a = self.incremental.drain();
        let b = self.naive.drain();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                // The full report — metrics, counters, the realized trace's
                // event log, schedule and stress statistics — byte-for-byte.
                assert_eq!(
                    serde_json::to_string(&a).unwrap(),
                    serde_json::to_string(&b).unwrap(),
                    "drain reports diverged"
                );
            }
            (a, b) => assert_eq!(a.map(|_| ()), b.map(|_| ()), "drain outcomes diverged"),
        }
        self.assert_agreement("after drain");
    }
}

fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::FullReschedule,
        PolicyKind::ReactiveList,
        PolicyKind::Static,
    ]
}

proptest! {
    // Fixed seed (also the CI smoke contract): the vendored runner derives
    // every case from `seed + case`, so failures replay exactly.
    #![proptest_config(ProptestConfig { cases: 20, seed: 0x5eed_d1ff })]

    #[test]
    fn incremental_equals_naive_over_random_streams(
        ops in proptest::collection::vec(op_strategy(), 6..36),
        policy_idx in 0usize..3,
        noisy in proptest::bool::Any,
    ) {
        let perturbation = if noisy {
            PerturbationModel::Multiplicative { sigma: 0.3 }
        } else {
            PerturbationModel::None
        };
        let mut pair = Pair::new(policies()[policy_idx], perturbation);
        for (i, op) in ops.iter().enumerate() {
            pair.step(i, op);
        }
        pair.finish();
    }
}

/// A deterministic anchor covering every op kind, readable without the
/// proptest machinery: 3 tenants, cross-submission deps, an atomic DAG, a
/// capacity drop and recovery, a mid-stream engine recycle, two drains.
#[test]
fn deterministic_mixed_stream_is_byte_identical() {
    let mut pair = Pair::new(
        PolicyKind::FullReschedule,
        PerturbationModel::Multiplicative { sigma: 0.25 },
    );
    let ops = [
        Op::Job {
            tenant: 0,
            time_centi: 200,
            amdahl: false,
            deps: vec![],
        },
        Op::Job {
            tenant: 1,
            time_centi: 150,
            amdahl: true,
            deps: vec![0],
        },
        Op::Flush,
        Op::Dag {
            tenant: 2,
            times_centi: vec![100, 80, 120],
            chain: true,
        },
        Op::Capacity {
            resource: 0,
            capacity: 2,
        },
        Op::Flush,
        Op::Recycle,
        Op::Job {
            tenant: 0,
            time_centi: 90,
            amdahl: false,
            deps: vec![1, 3],
        },
        Op::Capacity {
            resource: 0,
            capacity: 4,
        },
        Op::Flush,
        Op::Query,
    ];
    for (i, op) in ops.iter().enumerate() {
        pair.step(i, op);
    }
    pair.finish();
    // Draining twice is idempotent on both paths, and still byte-identical.
    pair.finish();
}

/// Capacity raises above the configured machine, which the random streams
/// (capacities 0–4 against a configured 4) never draw: the first batch
/// raises resource 0 from 4 to 9 beside Amdahl jobs, so the core's engine,
/// built over the configured machine, meets the raise as a capacity event
/// on a run grown to the raised bound. A recycle follows, then a round
/// raising resource 1 to 7 and one lowering resource 0 to 2. Byte-identical
/// under every policy, with and without noise.
#[test]
fn capacity_raises_above_the_configured_machine_are_byte_identical() {
    let amdahl = |tenant, time_centi, deps: &[u8]| Op::Job {
        tenant,
        time_centi,
        amdahl: true,
        deps: deps.to_vec(),
    };
    let cap = |resource, capacity| Op::Capacity { resource, capacity };
    let ops = [
        cap(0, 9),
        amdahl(0, 250, &[]),
        amdahl(1, 180, &[]),
        amdahl(2, 120, &[0]),
        Op::Flush,
        Op::Recycle,
        amdahl(1, 90, &[]),
        cap(1, 7),
        Op::Flush,
        Op::Dag {
            tenant: 2,
            times_centi: vec![100, 60, 140],
            chain: true,
        },
        amdahl(0, 200, &[1]),
        Op::Flush,
        cap(0, 2),
        amdahl(1, 150, &[]),
        Op::Flush,
    ];
    for policy in policies() {
        for perturbation in [
            PerturbationModel::None,
            PerturbationModel::Multiplicative { sigma: 0.3 },
        ] {
            let mut pair = Pair::new(policy, perturbation);
            for (i, op) in ops.iter().enumerate() {
                pair.step(i, op);
            }
            pair.finish();
            let report = pair.incremental.drain().unwrap();
            assert_eq!(report.completed, report.submitted, "{policy:?}");
            // The first round already runs more than the configured 4 units
            // of resource 0 at once.
            let at_zero: u64 = report
                .trace
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::JobStarted { time, alloc, .. } if *time == 0.0 => Some(alloc[0]),
                    _ => None,
                })
                .sum();
            assert!(
                at_zero > 4,
                "{policy:?}: {at_zero} units of resource 0 at t=0"
            );
        }
    }
}

/// A failure plan for the injection streams: random mid-run faults, a
/// straggler deadline, one timed outage, and a tight retry budget so
/// streams actually exhaust it and quarantine jobs.
fn failure_plan() -> FailurePlan {
    FailurePlan {
        model: FailureModel::Compose(vec![
            FailureModel::Random { prob: 0.35 },
            FailureModel::StragglerKill {
                deadline_factor: 2.5,
            },
        ]),
        outages: vec![Outage {
            time: 3.0,
            resource: 0,
        }],
        retry: RetryPolicy {
            max_attempts: 2,
            backoff_base: 0.25,
            backoff_factor: 2.0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, seed: 0x5eed_fa11 })]

    // The failure-injection differential: same streams, but attempts die
    // (faults, straggler kills, an outage), retries re-enter the ready set
    // after virtual-time backoff, and exhausted jobs land in quarantine —
    // all of which must stay byte-identical between the two cores.
    // `Static` is excluded by design: a static plan cannot re-place a
    // retried job, so failure plans under it deadlock (documented).
    #[test]
    fn incremental_equals_naive_under_failure_injection(
        ops in failure_ops(),
        reactive in proptest::bool::Any,
        noisy in proptest::bool::Any,
    ) {
        failure_injection_case(&ops, reactive, noisy);
    }
}

/// The op streams of the failure-injection differential.
fn failure_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 6..30)
}

/// The failure-injection differential's configuration.
fn failure_config(policy: PolicyKind, perturbation: PerturbationModel) -> ServeConfig {
    ServeConfig {
        capacities: vec![4, 4],
        policy,
        perturbation,
        failures: failure_plan(),
        max_pending_jobs: 24,
        seed: 11,
        ..ServeConfig::default()
    }
}

/// One case of the failure-injection differential: panics where the two
/// cores disagree.
fn failure_injection_case(ops: &[Op], reactive: bool, noisy: bool) {
    let policy = if reactive {
        PolicyKind::ReactiveList
    } else {
        PolicyKind::FullReschedule
    };
    let perturbation = if noisy {
        PerturbationModel::Multiplicative { sigma: 0.3 }
    } else {
        PerturbationModel::None
    };
    let mut pair = Pair::with_config(failure_config(policy, perturbation));
    for (i, op) in ops.iter().enumerate() {
        pair.step(i, op);
    }
    pair.finish();
}

/// The divergence sweep: cases 0–299 of the failure-injection differential
/// from seed `0x5eed_fa12`, drawn as the proptest runner draws them. The
/// cores still disagree on exactly two of them, in drain-trace fields of
/// jobs that never ran (ROADMAP item 5 records both); a fix that closes one
/// removes it here, and a new divergence fails the sweep.
#[test]
fn failure_injection_divergences_are_exactly_the_known_cases() {
    let diverging: Vec<u64> = (0..300u64)
        .filter(|&case| {
            let mut rng = proptest::TestRng::from_seed(0x5eed_fa12 + case);
            let ops = failure_ops().generate(&mut rng);
            let reactive = proptest::bool::Any.generate(&mut rng);
            let noisy = proptest::bool::Any.generate(&mut rng);
            std::panic::catch_unwind(|| failure_injection_case(&ops, reactive, noisy)).is_err()
        })
        .collect();
    assert_eq!(diverging, [157, 251]);
}

/// A deterministic failure-injection anchor: enough work under a tight
/// retry budget that retries *and* quarantines demonstrably happen, with
/// every observable — replies, metrics JSON, quarantine contents, flight
/// digests, drain report — byte-identical between the two cores.
#[test]
fn failure_stream_quarantines_identically() {
    let mut pair = Pair::with_config(ServeConfig {
        capacities: vec![4, 4],
        policy: PolicyKind::FullReschedule,
        perturbation: PerturbationModel::Multiplicative { sigma: 0.25 },
        failures: failure_plan(),
        max_pending_jobs: 24,
        seed: 11,
        ..ServeConfig::default()
    });
    let ops = [
        Op::Job {
            tenant: 0,
            time_centi: 200,
            amdahl: false,
            deps: vec![],
        },
        Op::Dag {
            tenant: 1,
            times_centi: vec![120, 90, 150],
            chain: true,
        },
        Op::Flush,
        Op::Job {
            tenant: 2,
            time_centi: 180,
            amdahl: true,
            deps: vec![0],
        },
        Op::Flush,
        Op::Recycle,
        Op::Dag {
            tenant: 0,
            times_centi: vec![60, 60],
            chain: false,
        },
        Op::Flush,
    ];
    for (i, op) in ops.iter().enumerate() {
        pair.step(i, op);
    }
    pair.finish();
    // The plan must actually have bitten: failed attempts were recorded and
    // at least one job exhausted its budget into quarantine, identically.
    let status = pair.incremental.status();
    let retried: u64 = status.tenants.values().map(|t| t.retried).sum();
    let quarantine = pair.incremental.quarantine();
    assert!(
        retried > 0 || !quarantine.is_empty(),
        "the failure plan never bit: no retries and an empty quarantine"
    );
    assert_eq!(
        serde_json::to_string(&quarantine).unwrap(),
        serde_json::to_string(&pair.naive.quarantine()).unwrap()
    );
}

/// Runs one failure-injection stream (the proptest's configuration) through
/// both cores and drains, returning the pair for further checks.
fn run_failure_stream(policy: PolicyKind, ops: &[Op]) -> Pair {
    let mut pair = Pair::with_config(failure_config(policy, PerturbationModel::None));
    for (i, op) in ops.iter().enumerate() {
        pair.step(i, op);
    }
    pair.finish();
    pair
}

/// Case 18 of the failure-injection differential from seed `0x5eed_fa12`:
/// jobs quarantined mid-stream must not be re-planned by either core. The
/// reference used to plan them with the pending jobs, which moved the other
/// jobs' plans and so the drain's `planned_makespan` (7.58 against 6.58).
#[test]
fn abandoned_jobs_are_not_replanned_under_full_reschedule() {
    let job = |tenant, time_centi, amdahl, deps: &[u8]| Op::Job {
        tenant,
        time_centi,
        amdahl,
        deps: deps.to_vec(),
    };
    let cap = |resource, capacity| Op::Capacity { resource, capacity };
    let dag = |tenant, times_centi: &[u16]| Op::Dag {
        tenant,
        times_centi: times_centi.to_vec(),
        chain: true,
    };
    let ops = [
        Op::Flush,
        cap(0, 1),
        Op::Flush,
        Op::Flush,
        Op::Query,
        job(1, 173, true, &[3]),
        cap(2, 4),
        job(1, 150, true, &[5]),
        dag(1, &[157, 151]),
        dag(0, &[103, 75]),
        Op::Flush,
        cap(2, 1),
        Op::Query,
        job(1, 59, false, &[]),
        Op::Flush,
        Op::Flush,
        cap(0, 2),
        Op::Flush,
        Op::Flush,
    ];
    let pair = run_failure_stream(PolicyKind::FullReschedule, &ops);
    assert!(!pair.incremental.quarantine().is_empty());
}

/// Case 114 of the failure-injection differential from seed `0x5eed_fa12`,
/// under ReactiveList: a quarantined job re-planned by the reference shifted
/// a later submission's planned finish (alpha's `planned_finish` read 10.6325
/// against 6.34 in the `QueryStatus` after op 25).
#[test]
fn abandoned_jobs_are_not_replanned_under_reactive_list() {
    let job = |tenant, time_centi, amdahl, deps: &[u8]| Op::Job {
        tenant,
        time_centi,
        amdahl,
        deps: deps.to_vec(),
    };
    let cap = |resource, capacity| Op::Capacity { resource, capacity };
    let set = |tenant, times_centi: &[u16]| Op::Dag {
        tenant,
        times_centi: times_centi.to_vec(),
        chain: false,
    };
    let ops = [
        job(1, 253, false, &[]),
        Op::Recycle,
        job(0, 214, false, &[2, 4]),
        Op::Flush,
        Op::Flush,
        Op::Query,
        job(1, 37, false, &[2]),
        Op::Flush,
        cap(1, 2),
        cap(0, 3),
        Op::Recycle,
        Op::Recycle,
        Op::Flush,
        Op::Flush,
        Op::Recycle,
        Op::Query,
        set(0, &[195, 89]),
        Op::Flush,
        Op::Flush,
        set(0, &[196]),
        set(2, &[144]),
        set(1, &[97, 88]),
        set(1, &[7, 38, 49]),
        Op::Recycle,
        job(1, 92, true, &[5, 5]),
        Op::Flush,
        Op::Recycle,
        Op::Flush,
        job(1, 108, false, &[5, 1]),
    ];
    let pair = run_failure_stream(PolicyKind::ReactiveList, &ops);
    assert!(!pair.incremental.quarantine().is_empty());
}

/// Duplicate idempotency tokens are deduplicated identically: the replay
/// returns the original ids without a second admission, on both cores.
#[test]
fn duplicate_tokens_are_deduplicated_identically() {
    let config = ServeConfig {
        capacities: vec![4, 4],
        dedup_window: 4,
        ..ServeConfig::default()
    };
    let mut pair = Pair::with_config(config);
    let job = || MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 });

    let first = (
        pair.incremental
            .submit_job_token("t", job(), &[], Some("tok-1")),
        pair.naive.submit_job_token("t", job(), &[], Some("tok-1")),
    );
    assert_eq!(first.0, first.1, "first submission replies diverged");
    let replay = (
        pair.incremental
            .submit_job_token("t", job(), &[], Some("tok-1")),
        pair.naive.submit_job_token("t", job(), &[], Some("tok-1")),
    );
    assert_eq!(replay.0, replay.1, "replayed submission replies diverged");
    assert_eq!(first.0, replay.0, "replay must return the original id");
    assert_eq!(
        pair.incremental.status().jobs_submitted,
        1,
        "the replay must not admit a second job"
    );

    let dag_first = (
        pair.incremental
            .submit_dag_token("t", vec![job(), job()], &[(0, 1)], Some("tok-2")),
        pair.naive
            .submit_dag_token("t", vec![job(), job()], &[(0, 1)], Some("tok-2")),
    );
    assert_eq!(dag_first.0, dag_first.1);
    let dag_replay = (
        pair.incremental
            .submit_dag_token("t", vec![job(), job()], &[(0, 1)], Some("tok-2")),
        pair.naive
            .submit_dag_token("t", vec![job(), job()], &[(0, 1)], Some("tok-2")),
    );
    assert_eq!(dag_replay.0, dag_replay.1);
    assert_eq!(dag_first.0, dag_replay.0);
    assert_eq!(pair.incremental.status().jobs_submitted, 3);
    pair.assert_agreement("after token dedup");
    pair.finish();
}

/// The overload guard sheds identically: beyond the pending-backlog
/// high-water mark both cores refuse with the same typed overload reply,
/// and both resume admitting once a round drains the backlog.
#[test]
fn overload_shedding_is_byte_identical() {
    let mut pair = Pair::with_config(ServeConfig {
        capacities: vec![4, 4],
        overload_high_water: Some(3),
        ..ServeConfig::default()
    });
    let job = || MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 });
    for i in 0..6 {
        let a = pair.incremental.submit_job("t", job(), &[]);
        let b = pair.naive.submit_job("t", job(), &[]);
        assert_eq!(a, b, "overload replies diverged at submission {i}");
        if i >= 3 {
            let reason = a.unwrap_err();
            assert!(reason.contains("overload"), "{reason}");
        }
    }
    // A dag over the mark is shed atomically on both cores.
    assert_eq!(
        pair.incremental.submit_dag("t", vec![job(), job()], &[]),
        pair.naive.submit_dag("t", vec![job(), job()], &[])
    );
    pair.assert_agreement("under overload");
    assert_eq!(pair.incremental.flush(), pair.naive.flush());
    // The round drained the backlog below the mark: admission resumes.
    let a = pair.incremental.submit_job("t", job(), &[]);
    let b = pair.naive.submit_job("t", job(), &[]);
    assert_eq!(a, b);
    assert!(a.is_ok(), "admission must resume after the backlog drains");
    pair.finish();
}

/// Backpressure and rejection paths agree under a tiny admission limit.
#[test]
fn rejection_paths_are_byte_identical() {
    let config = ServeConfig {
        capacities: vec![4, 4],
        max_pending_jobs: 2,
        ..ServeConfig::default()
    };
    let mut incremental = ServiceCore::new(config.clone()).unwrap();
    let mut naive = NaiveService::new(config);
    let job = || MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 });
    for _ in 0..4 {
        assert_eq!(
            incremental.submit_job("t", job(), &[]),
            naive.submit_job("t", job(), &[])
        );
    }
    assert_eq!(
        incremental.submit_dag("t", vec![job(), job(), job()], &[(0, 1), (1, 2)]),
        naive.submit_dag("t", vec![job(), job(), job()], &[(0, 1), (1, 2)])
    );
    assert_eq!(incremental.flush(), naive.flush());
    let a = incremental.drain().unwrap();
    let b = naive.drain().unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}
