//! Every rejection of an in-place world mutation (`SimRun::grow`,
//! `sync_realized`, `apply_plan_updates`) is atomic: the call returns
//! `SimError::InvalidGrowth` and leaves the run's instance, plan and
//! checkpoint exactly as they were.

use mrls_core::{MrlsScheduler, ScheduledJob};
use mrls_dag::Dag;
use mrls_model::{Allocation, ExecTimeSpec, Instance, MoldableJob, SystemConfig};
use mrls_sim::{
    normalize_plan, EventFeed, PerturbationModel, PolicyKind, RunStatus, SimError, SimRun,
};

/// A run over the chain 0 -> 1 plus an independent job 2 on a `[4, 4]`
/// machine, paused at t = 0 with job 0 running and jobs 1, 2 unstarted
/// (only job 0 was released). Execution times are perturbed, so job 0's
/// realized placement differs from its planned one.
fn paused_run() -> SimRun {
    let system = SystemConfig::new(vec![4, 4]).unwrap();
    let dag = Dag::from_edges(3, &[(0, 1)]).unwrap();
    let jobs = [2.0, 1.0, 3.0]
        .iter()
        .enumerate()
        .map(|(j, &time)| MoldableJob::new(j, ExecTimeSpec::Constant { time }))
        .collect();
    let instance = Instance::new(system, dag, jobs).unwrap();
    let plan = MrlsScheduler::with_defaults()
        .schedule(&instance)
        .unwrap()
        .schedule;
    let plan = normalize_plan(&instance, &plan).unwrap();
    let mut run = SimRun::start(
        instance,
        plan,
        11,
        PerturbationModel::Multiplicative { sigma: 0.3 },
        None,
        vec![true, false, false],
    )
    .unwrap();
    let mut policy = PolicyKind::ReactiveList.build();
    let status = run
        .drive_until(policy.as_mut(), &mut EventFeed::new(), 0.0)
        .unwrap();
    assert_eq!(status, RunStatus::Paused);
    let state = run.state();
    assert_eq!(state.started, vec![true, false, false]);
    run
}

fn entry(job: usize, alloc: Vec<u64>) -> ScheduledJob {
    ScheduledJob {
        job,
        start: 0.0,
        finish: 0.0,
        alloc: Allocation::new(alloc),
    }
}

fn unit_job(j: usize) -> MoldableJob {
    MoldableJob::new(j, ExecTimeSpec::Constant { time: 1.0 })
}

/// Applies `mutate` to a fresh paused run, asserts it is rejected as an
/// invalid growth, and asserts nothing observable changed.
fn assert_rejected_atomically(
    what: &str,
    mutate: impl FnOnce(&mut SimRun) -> Result<(), SimError>,
) {
    let mut run = paused_run();
    let checkpoint = run.checkpoint().to_json();
    let plan = run.plan().to_json();
    let instance = run.instance().to_json();
    match mutate(&mut run) {
        Err(SimError::InvalidGrowth(_)) => {}
        other => panic!("{what}: expected InvalidGrowth, got {other:?}"),
    }
    assert_eq!(
        run.checkpoint().to_json(),
        checkpoint,
        "{what}: checkpoint changed"
    );
    assert_eq!(run.plan().to_json(), plan, "{what}: plan changed");
    assert_eq!(
        run.instance().to_json(),
        instance,
        "{what}: instance changed"
    );
}

fn system(capacities: Vec<u64>) -> SystemConfig {
    SystemConfig::new(capacities).unwrap()
}

#[test]
fn grow_rejects_a_different_resource_type_count() {
    assert_rejected_atomically("resource types", |run| {
        run.grow(
            system(vec![4, 4, 4]),
            vec![unit_job(3)],
            &[],
            vec![entry(3, vec![1, 1, 1])],
        )
    });
}

#[test]
fn grow_rejects_a_shrunk_capacity_bound() {
    assert_rejected_atomically("shrunk bound", |run| {
        run.grow(
            system(vec![4, 3]),
            vec![unit_job(3)],
            &[],
            vec![entry(3, vec![1, 1])],
        )
    });
}

#[test]
fn grow_rejects_a_wrong_entry_count() {
    assert_rejected_atomically("entry count", |run| {
        run.grow(
            system(vec![4, 4]),
            vec![unit_job(3), unit_job(4)],
            &[],
            vec![entry(3, vec![1, 1])],
        )
    });
}

#[test]
fn grow_rejects_a_wrong_entry_id() {
    assert_rejected_atomically("entry id", |run| {
        run.grow(
            system(vec![4, 4]),
            vec![unit_job(3)],
            &[],
            vec![entry(4, vec![1, 1])],
        )
    });
}

#[test]
fn grow_rejects_an_invalid_allocation() {
    assert_rejected_atomically("invalid allocation", |run| {
        run.grow(
            system(vec![4, 4]),
            vec![unit_job(3)],
            &[],
            vec![entry(3, vec![5, 1])],
        )
    });
}

#[test]
fn grow_rejects_cyclic_and_frozen_prefix_edges() {
    let jobs = || vec![unit_job(3), unit_job(4)];
    let entries = || vec![entry(3, vec![1, 1]), entry(4, vec![1, 1])];
    assert_rejected_atomically("cyclic edge", |run| {
        run.grow(system(vec![4, 4]), jobs(), &[(3, 4), (4, 3)], entries())
    });
    assert_rejected_atomically("frozen-prefix edge", |run| {
        run.grow(system(vec![4, 4]), jobs(), &[(0, 3), (3, 1)], entries())
    });
}

#[test]
fn sync_realized_rejects_an_unstarted_job_without_syncing_the_rest() {
    // Job 0 ran with a perturbed duration, so syncing it alone would change
    // the plan; a batch that also names unstarted job 1 must sync nothing.
    let mut run = paused_run();
    let planned = run.plan().jobs[0].clone();
    assert_eq!(run.sync_realized(&[0]).unwrap(), 1);
    assert_ne!(run.plan().jobs[0], planned, "the realized entry differs");

    assert_rejected_atomically("unstarted sync", |run| run.sync_realized(&[0, 1]).map(drop));
    assert_rejected_atomically("out-of-range sync", |run| {
        run.sync_realized(&[0, 7]).map(drop)
    });
}

#[test]
fn apply_plan_updates_rejects_started_and_out_of_range_jobs() {
    assert_rejected_atomically("started update", |run| {
        run.apply_plan_updates(&[entry(2, vec![1, 1]), entry(0, vec![1, 1])])
            .map(drop)
    });
    assert_rejected_atomically("out-of-range update", |run| {
        run.apply_plan_updates(&[entry(2, vec![1, 1]), entry(3, vec![1, 1])])
            .map(drop)
    });
}

#[test]
fn a_valid_growth_still_completes() {
    let mut run = paused_run();
    run.grow(
        system(vec![4, 4]),
        vec![unit_job(3)],
        &[(0, 3)],
        vec![entry(3, vec![1, 1])],
    )
    .unwrap();
    let mut feed = EventFeed::new();
    for job in 1..4 {
        feed.release(0.0, job);
    }
    let mut policy = PolicyKind::ReactiveList.build();
    let status = run.drive(policy.as_mut(), &mut feed).unwrap();
    assert_eq!(status, RunStatus::Complete);
    assert_eq!(run.num_completed(), 4);
}
