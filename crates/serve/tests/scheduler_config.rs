//! The service plans with the scheduler it is configured with: a round's
//! plan and `FullReschedule`'s re-plans both use `ServeConfig::scheduler`.
//! When that scheduler fails on the pending jobs, both fall back to a
//! degraded plan, and each fallback is counted in the obs registry.

use mrls_core::{AllocatorKind, MrlsConfig, MrlsScheduler};
use mrls_dag::GraphClass;
use mrls_model::Instance;
use mrls_serve::{DrainReport, ServeConfig, ServiceCore};
use mrls_sim::PolicyKind;
use mrls_workload::InstanceRecipe;
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
fn run(allocator: AllocatorKind, dags: &[Instance]) -> (DrainReport, mrls_obs::Snapshot) {
    let mut core = ServiceCore::new(ServeConfig {
        capacities: vec![8, 8],
        policy: PolicyKind::FullReschedule,
        batch_window: Duration::ZERO,
        tick: 1.0,
        scheduler: scheduler(allocator),
        ..ServeConfig::default()
    });
    for dag in dags {
        let edges: Vec<(usize, usize)> = dag.dag.edges().collect();
        core.submit_dag("t", dag.jobs.clone(), &edges).unwrap();
        core.flush().unwrap();
    }
    let report = core.drain().unwrap();
    assert_eq!(report.completed, report.submitted);
    assert!(report.feasible, "the realized schedule must validate");
    (report, core.obs_snapshot())
}

#[test]
fn every_plan_uses_the_configured_allocator() {
    let dags = [general_dag(3), general_dag(40)];
    let (report, _) = run(AllocatorKind::MinArea, &dags);
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
    let (_, snap) = run(AllocatorKind::SpFptas, &dags);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(counter("serve.plan.fallbacks") >= 1, "{:?}", snap.counters);
    assert!(
        counter("sim.policy.reschedule_fallbacks") >= 1,
        "{:?}",
        snap.counters
    );
}
