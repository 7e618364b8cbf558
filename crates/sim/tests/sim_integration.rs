//! End-to-end properties of the execution runtime, mirroring the acceptance
//! criteria: zero-noise replays are exact for every policy, noisy runs stay
//! feasible, same-seed runs are byte-identical, and reacting beats sliding on
//! the benched workloads.

use mrls_analysis::{validate_schedule_with, ValidationOptions};
use mrls_core::{MrlsScheduler, Schedule};
use mrls_model::Instance;
use mrls_sim::{
    PerturbationModel, PolicyKind, RealizedTrace, Scenario, SimConfig, SimError, Simulator,
};
use mrls_workload::{ArrivalRecipe, CapacityDropRecipe, DagRecipe, InstanceRecipe, SystemRecipe};

fn layered(n: usize, seed: u64) -> Instance {
    InstanceRecipe::default_layered(n, 2, 8)
        .generate(seed)
        .instance
}

fn cholesky(tiles: usize, seed: u64) -> Instance {
    let recipe = InstanceRecipe {
        system: SystemRecipe::Uniform { d: 2, p: 8 },
        dag: DagRecipe::Cholesky { tiles },
        jobs: mrls_workload::JobRecipe::default_mixed(),
    };
    recipe.generate(seed).instance
}

fn plan(instance: &Instance) -> Schedule {
    MrlsScheduler::with_defaults()
        .schedule(instance)
        .expect("planning must succeed")
        .schedule
}

fn run(
    instance: &Instance,
    planned: &Schedule,
    kind: PolicyKind,
    config: SimConfig,
) -> Result<RealizedTrace, SimError> {
    Simulator::new(config).run(instance, planned, kind.build().as_mut())
}

fn assert_feasible(instance: &Instance, trace: &RealizedTrace) {
    let report = validate_schedule_with(
        instance,
        &trace.realized,
        ValidationOptions {
            check_durations: false,
        },
    );
    assert!(
        report.is_valid(),
        "policy {} produced an infeasible realized schedule: {report:?}",
        trace.policy
    );
}

#[test]
fn zero_noise_replay_is_exact_for_every_policy() {
    // Property: with no noise, no arrivals and no capacity changes, every
    // policy realizes exactly the planned makespan, across DAG shapes and
    // seeds.
    let instances: Vec<Instance> = (0..4)
        .map(|s| layered(18, s))
        .chain((0..2).map(|s| cholesky(3, s)))
        .collect();
    for instance in &instances {
        let planned = plan(instance);
        for kind in PolicyKind::all() {
            let trace = run(instance, &planned, kind, SimConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert!(
                (trace.stats.realized_makespan - planned.makespan).abs() < 1e-9,
                "{}: realized {} != planned {}",
                kind.label(),
                trace.stats.realized_makespan,
                planned.makespan
            );
            assert!((trace.stats.stretch - 1.0).abs() < 1e-9);
            assert_eq!(trace.stats.num_realloc_jobs, 0);
            assert_feasible(instance, &trace);
            // The realized schedule *is* the plan: same starts everywhere.
            for (r, p) in trace
                .realized
                .jobs
                .iter()
                .zip((0..instance.num_jobs()).map(|j| {
                    planned
                        .jobs
                        .iter()
                        .find(|sj| sj.job == j)
                        .expect("plan covers every job")
                }))
            {
                assert!(
                    (r.start - p.start).abs() < 1e-9,
                    "{}: job {} started at {} instead of {}",
                    kind.label(),
                    r.job,
                    r.start,
                    p.start
                );
            }
        }
    }
}

#[test]
fn same_seed_traces_are_byte_identical_and_seeds_matter() {
    let instance = layered(24, 11);
    let planned = plan(&instance);
    let noisy = |seed| SimConfig {
        seed,
        perturbation: PerturbationModel::Multiplicative { sigma: 0.4 },
        scenario: Scenario::offline(),
        max_events: None,
    };
    for kind in PolicyKind::all() {
        let a = run(&instance, &planned, kind, noisy(5)).unwrap();
        let b = run(&instance, &planned, kind, noisy(5)).unwrap();
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{} not deterministic",
            kind.label()
        );
        let c = run(&instance, &planned, kind, noisy(6)).unwrap();
        assert_ne!(
            a.to_json(),
            c.to_json(),
            "{} ignored the seed",
            kind.label()
        );
        // And the exported trace round-trips losslessly.
        let back = RealizedTrace::from_json(&a.to_json()).unwrap();
        assert_eq!(a, back);
    }
}

#[test]
fn noisy_runs_are_feasible_and_reacting_beats_sliding() {
    // Under multiplicative noise all three policies must stay feasible, and
    // re-running the list phase (ReactiveList) must not lose to blind replay
    // (Static) on average over the benched layered/cholesky workloads.
    let mut static_total = 0.0;
    let mut reactive_total = 0.0;
    let mut runs = 0usize;
    for (wl, instance) in (0..3)
        .map(|s| ("layered", layered(20, s)))
        .chain((0..2).map(|s| ("cholesky", cholesky(3, s))))
    {
        let planned = plan(&instance);
        for sim_seed in 0..3 {
            let config = |seed| SimConfig {
                seed,
                perturbation: PerturbationModel::Multiplicative { sigma: 0.35 },
                scenario: Scenario::offline(),
                max_events: None,
            };
            let mut makespans = Vec::new();
            for kind in PolicyKind::all() {
                let trace = run(&instance, &planned, kind, config(sim_seed))
                    .unwrap_or_else(|e| panic!("{wl}/{}: {e}", kind.label()));
                assert_feasible(&instance, &trace);
                assert!(trace.stats.realized_makespan > 0.0);
                makespans.push(trace.stats.realized_makespan);
            }
            static_total += makespans[0];
            reactive_total += makespans[1];
            runs += 1;
        }
    }
    assert!(runs > 0);
    assert!(
        reactive_total <= static_total + 1e-9,
        "reactive-list mean {} worse than static mean {}",
        reactive_total / runs as f64,
        static_total / runs as f64
    );
}

#[test]
fn heavy_tail_and_slowdown_models_stay_feasible() {
    let instance = layered(16, 2);
    let planned = plan(&instance);
    let models = [
        PerturbationModel::HeavyTail {
            prob: 0.2,
            alpha: 1.2,
            cap: 8.0,
        },
        PerturbationModel::ResourceSlowdown {
            factors: vec![1.0, 2.0],
        },
        PerturbationModel::Compose(vec![
            PerturbationModel::Multiplicative { sigma: 0.2 },
            PerturbationModel::HeavyTail {
                prob: 0.1,
                alpha: 1.5,
                cap: 5.0,
            },
        ]),
    ];
    for model in models {
        for kind in PolicyKind::all() {
            let trace = run(
                &instance,
                &planned,
                kind,
                SimConfig {
                    seed: 3,
                    perturbation: model.clone(),
                    scenario: Scenario::offline(),
                    max_events: None,
                },
            )
            .unwrap();
            assert_feasible(&instance, &trace);
            assert!(trace.stats.max_slowdown >= 1.0 - 1e-9);
        }
    }
}

#[test]
fn online_arrivals_delay_release_and_stay_feasible() {
    let instance = layered(20, 4);
    let planned = plan(&instance);
    let release = ArrivalRecipe::UniformWindow {
        horizon: planned.makespan * 0.5,
    }
    .release_times(instance.num_jobs(), &mut mrls_workload::rng_from_seed(9));
    let config = SimConfig {
        seed: 1,
        perturbation: PerturbationModel::None,
        scenario: Scenario::offline().with_release_times(release.clone()),
        max_events: None,
    };
    for kind in PolicyKind::all() {
        let trace = run(&instance, &planned, kind, config.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        assert_feasible(&instance, &trace);
        // No job starts before its release time.
        for sj in &trace.realized.jobs {
            assert!(
                sj.start + 1e-9 >= release[sj.job],
                "{}: job {} started at {} before release {}",
                kind.label(),
                sj.job,
                sj.start,
                release[sj.job]
            );
        }
        // Arrivals are perturbation events: the full rescheduler reacts.
        if kind == PolicyKind::FullReschedule {
            assert!(trace.stats.num_reschedules > 0);
        }
    }
}

#[test]
fn capacity_drop_is_survived_by_rescheduling() {
    let instance = layered(20, 6);
    let planned = plan(&instance);
    // Halve every capacity a third of the way through the plan.
    let changes = CapacityDropRecipe::SingleDrop {
        at_frac: 0.33,
        keep_fraction: 0.5,
    }
    .changes(instance.system.capacities(), planned.makespan);
    let config = SimConfig {
        seed: 2,
        perturbation: PerturbationModel::None,
        scenario: Scenario::offline().with_capacity_changes(changes),
        max_events: None,
    };
    let trace = run(&instance, &planned, PolicyKind::FullReschedule, config).unwrap();
    assert_feasible(&instance, &trace);
    assert!(trace.stats.num_reschedules > 0);
    // The drop slows things down relative to the plan.
    assert!(trace.stats.stretch >= 1.0 - 1e-9);
    // Jobs *started* after the drop respect the degraded capacity in every
    // interval. (Jobs started before the drop are not preempted, so they may
    // legitimately hold more than the new capacity until they finish.)
    let drop_time = 0.33 * planned.makespan;
    let events = trace.realized.event_times();
    for w in events.windows(2) {
        if w[0] < drop_time {
            continue;
        }
        for i in 0..instance.num_resource_types() {
            let used: u64 = trace
                .realized
                .running_during(w[0], w[1])
                .iter()
                .filter(|&&j| trace.realized.jobs[j].start + 1e-9 >= drop_time)
                .map(|&j| trace.realized.jobs[j].alloc[i])
                .sum();
            let degraded = ((instance.system.capacity(i) as f64 * 0.5).ceil()) as u64;
            assert!(
                used <= degraded,
                "interval [{}, {}]: post-drop jobs use {used} > degraded capacity {degraded} of type {i}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn static_policy_deadlocks_on_fatal_capacity_drop_with_clear_error() {
    // If the machine drops below what a planned allocation needs and the
    // policy cannot re-allocate, the engine reports a stall instead of
    // spinning.
    let instance = layered(12, 3);
    let planned = plan(&instance);
    let max_alloc: u64 = planned
        .jobs
        .iter()
        .map(|sj| sj.alloc.amounts().iter().copied().max().unwrap_or(1))
        .max()
        .unwrap();
    if max_alloc <= 1 {
        return; // nothing to break
    }
    let config = SimConfig {
        seed: 0,
        perturbation: PerturbationModel::None,
        scenario: Scenario::offline().with_capacity_changes(vec![(planned.makespan * 0.1, 0, 1)]),
        max_events: None,
    };
    let result = run(&instance, &planned, PolicyKind::Static, config);
    match result {
        Err(SimError::Stalled { .. }) => {}
        Ok(trace) => assert_feasible(&instance, &trace), // plan happened to fit in 1 unit
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn externally_reordered_plans_are_normalised() {
    // A plan re-loaded from JSON may list jobs in any order; the engine must
    // index allocations and start times by job id, not entry position.
    let instance = layered(15, 8);
    let planned = plan(&instance);
    let mut shuffled = planned.clone();
    shuffled.jobs.reverse();
    for kind in PolicyKind::all() {
        let a = run(&instance, &planned, kind, SimConfig::default()).unwrap();
        let b = run(&instance, &shuffled, kind, SimConfig::default()).unwrap();
        assert_eq!(
            a.realized,
            b.realized,
            "{}: entry order changed the outcome",
            kind.label()
        );
        assert_eq!(b.stats.num_realloc_jobs, 0);
    }
    // Structurally broken plans are rejected, not silently mis-simulated.
    let mut duplicated = planned.clone();
    duplicated.jobs[0] = duplicated.jobs[1].clone();
    let err = run(
        &instance,
        &duplicated,
        PolicyKind::Static,
        SimConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::InvalidPlan(_)));
}

#[test]
fn list_policies_stay_feasible_and_deterministic() {
    // Both list policies in one run under noise, arrivals and a capacity
    // drop: every start they propose must fit the availability of the
    // moment, so realized traces stay feasible — and same-seed runs stay
    // byte-identical.
    use mrls_core::{MrlsConfig, PriorityRule};
    use mrls_sim::{FullReschedulePolicy, ReactiveListPolicy};

    let instance = layered(22, 7);
    let planned = plan(&instance);
    let release = ArrivalRecipe::UniformWindow {
        horizon: planned.makespan * 0.4,
    }
    .release_times(instance.num_jobs(), &mut mrls_workload::rng_from_seed(3));
    let changes = CapacityDropRecipe::SingleDrop {
        at_frac: 0.5,
        keep_fraction: 0.75,
    }
    .changes(instance.system.capacities(), planned.makespan);
    let configs = [
        SimConfig::default(),
        SimConfig {
            seed: 9,
            perturbation: PerturbationModel::Multiplicative { sigma: 0.3 },
            scenario: Scenario::offline()
                .with_release_times(release)
                .with_capacity_changes(changes),
            max_events: None,
        },
    ];
    for config in configs {
        let mut reactive = ReactiveListPolicy::new(PriorityRule::CriticalPath);
        let a = Simulator::new(config.clone())
            .run(&instance, &planned, &mut reactive)
            .expect("reactive run");
        assert_feasible(&instance, &a);
        let mut full = FullReschedulePolicy::new(MrlsConfig::default(), 1.5);
        let b = Simulator::new(config.clone())
            .run(&instance, &planned, &mut full)
            .expect("full-reschedule run");
        assert_feasible(&instance, &b);
        // Determinism across repeated runs.
        let mut again = ReactiveListPolicy::new(PriorityRule::CriticalPath);
        let a2 = Simulator::new(config.clone())
            .run(&instance, &planned, &mut again)
            .unwrap();
        assert_eq!(a.to_json(), a2.to_json());
    }
}

#[test]
fn empty_instance_simulates_to_empty_trace() {
    let instance = InstanceRecipe {
        system: SystemRecipe::Uniform { d: 2, p: 4 },
        dag: DagRecipe::Independent { n: 0 },
        jobs: mrls_workload::JobRecipe::default_mixed(),
    }
    .generate(0)
    .instance;
    let planned = plan(&instance);
    for kind in PolicyKind::all() {
        let trace = run(&instance, &planned, kind, SimConfig::default()).unwrap();
        assert_eq!(trace.realized.num_jobs(), 0);
        assert_eq!(trace.stats.stretch, 1.0);
    }
}
