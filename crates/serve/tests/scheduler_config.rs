//! The service plans with the scheduler it is configured with: a round's
//! plan and `FullReschedule`'s re-plans both use `ServeConfig::scheduler`.
//! When that scheduler fails on the pending jobs, both fall back to a
//! degraded plan, and each fallback is counted in the obs registry, in total
//! and by the scheduler error's cause.

use mrls_core::{AllocatorKind, MrlsConfig, MrlsScheduler};
use mrls_dag::GraphClass;
use mrls_model::Instance;
use mrls_serve::{DrainReport, RoundRecord, ServeConfig, ServiceCore};
use mrls_sim::PolicyKind;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use std::time::Duration;

/// A 16-job layered DAG for a d=2, p=8 machine, drawn from the first seed
/// from `seed` on whose DAG is of the general class.
fn general_dag(seed: u64) -> Instance {
    (seed..)
        .map(|s| {
            InstanceRecipe::default_layered(16, 2, 8)
                .generate(s)
                .instance
        })
        .find(|i| i.graph_class() == GraphClass::General)
        .expect("random layered DAGs are general with positive probability")
}

fn scheduler(allocator: AllocatorKind) -> MrlsConfig {
    MrlsConfig {
        allocator,
        ..MrlsConfig::default()
    }
}

/// Submits each DAG in a round of its own on a fresh `FullReschedule`
/// core planning with `allocator`, then drains. The second DAG arrives while
/// jobs of the first are pending, so the policy re-plans on arrival.
/// Returns the drain report, the obs snapshot and the flight records.
fn run(
    allocator: AllocatorKind,
    dags: &[Instance],
) -> (DrainReport, mrls_obs::Snapshot, Vec<RoundRecord>) {
    let mut core = ServiceCore::new(ServeConfig {
        capacities: vec![8, 8],
        policy: PolicyKind::FullReschedule,
        batch_window: Duration::ZERO,
        tick: 1.0,
        scheduler: scheduler(allocator),
        ..ServeConfig::default()
    })
    .unwrap();
    for dag in dags {
        let edges: Vec<(usize, usize)> = dag.dag.edges().collect();
        core.submit_dag("t", dag.jobs.clone(), &edges).unwrap();
        core.flush().unwrap();
    }
    let report = core.drain().unwrap();
    assert_eq!(report.completed, report.submitted);
    assert!(report.feasible, "the realized schedule must validate");
    (report, core.obs_snapshot(), core.flight_records())
}

#[test]
fn every_plan_uses_the_configured_allocator() {
    let dags = [general_dag(3), general_dag(40)];
    let (report, _, records) = run(AllocatorKind::MinArea, &dags);
    assert!(records.iter().all(|r| r.plan_fallbacks == 0), "{records:?}");
    // MinArea decides each job on its own profile, so a job's decision is
    // the same whichever pending jobs it is planned with.
    let mut offset = 0;
    for (d, dag) in dags.iter().enumerate() {
        let decision = MrlsScheduler::new(scheduler(AllocatorKind::MinArea))
            .schedule(dag)
            .unwrap()
            .decision;
        for (j, want) in decision.iter().enumerate() {
            let realized = &report.trace.realized.jobs[offset + j];
            assert_eq!(realized.job, offset + j);
            assert_eq!(
                &realized.alloc, want,
                "DAG {d} job {j} ran at an allocation other than its MinArea decision"
            );
        }
        offset += dag.num_jobs();
    }
}

#[test]
fn failed_plans_fall_back_and_are_counted() {
    // The SP FPTAS refuses a general DAG (`NotSeriesParallel`), so both the
    // first round's plan and the re-plan on the second DAG's arrival fail.
    let dags = [general_dag(3), general_dag(40)];
    let (_, snap, records) = run(AllocatorKind::SpFptas, &dags);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    // The flight recorder says which rounds degraded, and they add up.
    let recorded: u64 = records.iter().map(|r| r.plan_fallbacks).sum();
    assert_eq!(
        recorded,
        counter("serve.plan.fallbacks") + counter("sim.policy.reschedule_fallbacks")
    );
    assert!(records[0].plan_fallbacks >= 1, "{records:?}");
    for total in ["serve.plan.fallbacks", "sim.policy.reschedule_fallbacks"] {
        assert!(counter(total) >= 1, "{:?}", snap.counters);
        // Each fallback is also counted under its cause, and here the cause
        // is the SP FPTAS refusing the graph.
        let cause = format!("{total}.not_series_parallel");
        assert!(counter(&cause) >= 1, "{:?}", snap.counters);
        let by_cause: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(&format!("{total}.")))
            .map(|(_, count)| count)
            .sum();
        assert_eq!(by_cause, counter(total), "{:?}", snap.counters);
    }
}

/// One `SubmitDag` of a 1 000-job chain, an admissible request on which the
/// FPTAS's bucket cap binds: its plan goes through the FPTAS, whose
/// pre-check skips every feasibility test without building a table, so the
/// solve returns the local min-max heuristic. `QueryMetrics` shows both,
/// and no plan falls back.
#[test]
fn a_deep_chain_submission_plans_through_the_fptas_pre_check() {
    let chain = InstanceRecipe {
        system: SystemRecipe::Uniform { d: 2, p: 8 },
        dag: DagRecipe::Chain { n: 1000 },
        jobs: JobRecipe::default_mixed(),
    }
    .generate(5)
    .instance;
    let mut core = ServiceCore::new(ServeConfig {
        capacities: vec![8, 8],
        batch_window: Duration::ZERO,
        tick: 1.0,
        ..ServeConfig::default()
    })
    .unwrap();
    let edges: Vec<(usize, usize)> = chain.dag.edges().collect();
    core.submit_dag("t", chain.jobs.clone(), &edges).unwrap();
    core.flush().unwrap();
    let report = core.drain().unwrap();
    assert_eq!((report.submitted, report.completed), (1000, 1000));
    assert!(report.feasible, "the realized schedule must validate");

    let counters = core.obs_snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert!(counter("plan.allocator.sp_fptas") >= 1, "{counters:?}");
    assert_eq!(counter("serve.plan.fallbacks"), 0, "{counters:?}");
    assert!(counter("fptas.tests_skipped") >= 1, "{counters:?}");
    assert_eq!(
        counter("fptas.heuristic_fallbacks"),
        counter("fptas.solves"),
        "{counters:?}"
    );
}
