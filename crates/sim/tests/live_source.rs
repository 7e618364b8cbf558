//! Driving the engine from a live event feed: releases may
//! arrive between drive calls, and a drained-but-incomplete world reports
//! [`RunStatus::Idle`] (resumable) rather than a fatal stall.

use mrls_core::MrlsScheduler;
use mrls_dag::Dag;
use mrls_model::{ExecTimeSpec, Instance, MoldableJob, SystemConfig};
use mrls_sim::{normalize_plan, EventFeed, PerturbationModel, PolicyKind, RunStatus, SimRun};

/// A two-job chain 0 -> 1 on a 2-type machine.
fn chain_instance() -> Instance {
    let system = SystemConfig::new(vec![4, 4]).unwrap();
    let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
    let jobs = vec![
        MoldableJob::new(0, ExecTimeSpec::Constant { time: 2.0 }),
        MoldableJob::new(1, ExecTimeSpec::Constant { time: 1.0 }),
    ];
    Instance::new(system, dag, jobs).unwrap()
}

#[test]
fn out_of_order_releases_idle_then_complete() {
    let instance = chain_instance();
    let plan = MrlsScheduler::with_defaults()
        .schedule(&instance)
        .unwrap()
        .schedule;
    let plan = normalize_plan(&instance, &plan).unwrap();
    let mut run = SimRun::start(
        instance,
        plan,
        0,
        PerturbationModel::None,
        None,
        vec![false, false],
    )
    .unwrap();
    let mut policy = PolicyKind::ReactiveList.build();

    // The successor is released before its predecessor: nothing can run yet,
    // but the run is idle (the predecessor may still be fed), not stalled.
    let mut feed = EventFeed::new();
    feed.release(0.0, 1);
    let status = run.drive(policy.as_mut(), &mut feed).unwrap();
    assert_eq!(status, RunStatus::Idle);
    assert_eq!(run.num_completed(), 0);

    // Feeding the predecessor unblocks the chain.
    feed.release(1.0, 0);
    let status = run.drive(policy.as_mut(), &mut feed).unwrap();
    assert_eq!(status, RunStatus::Complete);
    assert_eq!(run.num_completed(), 2);
    let trace = run.into_trace("reactive-list");
    // Job 0 started at its release, job 1 right after its predecessor.
    assert!((trace.realized.jobs[0].start - 1.0).abs() < 1e-9);
    assert!((trace.realized.jobs[1].start - 3.0).abs() < 1e-9);
}
