//! Checkpoint/restart of a running simulation: a run paused mid-flight,
//! serialised, parsed back and resumed must continue **byte-identically** to
//! the uninterrupted run.

use mrls_core::{MrlsScheduler, Schedule};
use mrls_model::Instance;
use mrls_sim::{
    normalize_plan, PerturbationModel, PolicyKind, RunStatus, Scenario, SimConfig, SimSnapshot,
    Simulator,
};
use mrls_workload::{ArrivalRecipe, InstanceRecipe};

fn setup(n: usize, seed: u64) -> (Instance, Schedule) {
    let instance = InstanceRecipe::default_layered(n, 2, 8)
        .generate(seed)
        .instance;
    let plan = MrlsScheduler::with_defaults()
        .schedule(&instance)
        .expect("planning must succeed")
        .schedule;
    (instance, plan)
}

fn noisy_config(scenario: Scenario) -> SimConfig {
    SimConfig {
        seed: 13,
        perturbation: PerturbationModel::Multiplicative { sigma: 0.35 },
        scenario,
        max_events: None,
    }
}

/// Runs to completion straight through, and again with a
/// serialise-deserialise-resume cycle at `t_frac` of the planned makespan;
/// both traces must be byte-identical.
fn roundtrip(kind: PolicyKind, scenario: Scenario, t_frac: f64) {
    let (instance, plan) = setup(22, 5);
    let sim = Simulator::new(noisy_config(scenario));
    let plan = normalize_plan(&instance, &plan).unwrap();

    let uninterrupted = sim
        .run(&instance, &plan, kind.build().as_mut())
        .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));

    let t_mid = t_frac * plan.makespan;
    let (mut first_half, mut source) = sim.start(&instance, &plan).unwrap();
    let status = first_half
        .drive_until(kind.build().as_mut(), &mut source, t_mid)
        .unwrap();
    assert_eq!(status, RunStatus::Paused, "{}", kind.label());
    assert!(first_half.num_completed() < instance.num_jobs());

    // Serialise, parse back, resume from the parsed snapshot with a fresh
    // scenario source — nothing survives from the first half but the JSON.
    let json = first_half.checkpoint().to_json();
    drop(first_half);
    drop(source);
    let snapshot = SimSnapshot::from_json(&json).unwrap();
    assert!(snapshot.now <= t_mid + 1e-9);
    // The snapshot itself round-trips to identical JSON (NaN slots included).
    assert_eq!(json, snapshot.to_json());

    let (mut resumed, mut source) = sim.resume(&instance, &plan, &snapshot).unwrap();
    let status = resumed
        .drive(kind.build().as_mut(), &mut source)
        .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
    assert_eq!(status, RunStatus::Complete, "{}", kind.label());
    let continued = resumed.into_trace(kind.label());

    assert_eq!(
        uninterrupted.to_json(),
        continued.to_json(),
        "{}: resumed continuation diverged from the uninterrupted run",
        kind.label()
    );
}

#[test]
fn static_replay_resumes_byte_identically() {
    roundtrip(PolicyKind::Static, Scenario::offline(), 0.4);
}

#[test]
fn reactive_list_resumes_byte_identically() {
    roundtrip(PolicyKind::ReactiveList, Scenario::offline(), 0.5);
}

#[test]
fn resume_replays_pending_scenario_events() {
    // Checkpoint before some arrivals and a capacity blip have fired; the
    // resumed scenario source must deliver exactly the not-yet-consumed ones.
    let (instance, plan) = setup(22, 5);
    let release = ArrivalRecipe::UniformWindow {
        horizon: plan.makespan * 0.8,
    }
    .release_times(instance.num_jobs(), &mut mrls_workload::rng_from_seed(3));
    let scenario = Scenario::offline()
        .with_release_times(release)
        .with_capacity_changes(vec![
            (plan.makespan * 0.5, 0, 4),
            (plan.makespan * 0.75, 0, 8),
        ]);
    roundtrip(PolicyKind::ReactiveList, scenario, 0.6);
}

/// A truncated snapshot (events harvested out before checkpointing) resumes
/// to a continuation byte-identical to one resumed from the untruncated
/// snapshot — reattaching the harvested prefix restores the full trace.
#[test]
fn truncated_snapshot_resumes_byte_identically() {
    let (instance, plan) = setup(22, 5);
    let sim = Simulator::new(noisy_config(Scenario::offline()));
    let plan = normalize_plan(&instance, &plan).unwrap();
    let t_mid = 0.45 * plan.makespan;

    let (mut run, mut source) = sim.start(&instance, &plan).unwrap();
    let kind = PolicyKind::ReactiveList;
    let status = run
        .drive_until(kind.build().as_mut(), &mut source, t_mid)
        .unwrap();
    assert_eq!(status, RunStatus::Paused);
    let full = run.checkpoint();
    assert!(!full.events.is_empty(), "mid-run history exists");

    // Harvest: the retained log empties, the watermark advances, and the
    // checkpoint is truncated — strictly smaller on the wire.
    let prefix = run.take_harvested_events();
    assert_eq!(prefix.len(), full.events.len());
    assert_eq!(run.harvested_events(), prefix.len());
    assert!((run.harvested_until() - full.now).abs() < 1e-12);
    let truncated = run.checkpoint();
    assert!(truncated.events.is_empty());
    assert_eq!(truncated.harvested_events, prefix.len());
    assert!(truncated.to_json().len() < full.to_json().len());
    drop(run);
    drop(source);

    // Continuation from the untruncated snapshot: the reference trace.
    let parsed = SimSnapshot::from_json(&full.to_json()).unwrap();
    let (mut reference, mut source) = sim.resume(&instance, &plan, &parsed).unwrap();
    assert_eq!(
        reference.drive(kind.build().as_mut(), &mut source).unwrap(),
        RunStatus::Complete
    );
    let reference = reference.into_trace(kind.label());

    // Continuation from the truncated snapshot, prefix reattached.
    let parsed = SimSnapshot::from_json(&truncated.to_json()).unwrap();
    assert_eq!(parsed.harvested_events, prefix.len());
    let (mut resumed, mut source) = sim.resume(&instance, &plan, &parsed).unwrap();
    assert_eq!(
        resumed.drive(kind.build().as_mut(), &mut source).unwrap(),
        RunStatus::Complete
    );
    let continued = resumed.into_trace_with_prefix(kind.label(), &prefix);

    assert_eq!(
        reference.to_json(),
        continued.to_json(),
        "truncated-snapshot continuation diverged"
    );
}

/// Snapshots serialised before the harvesting fields existed (no
/// `harvested_events` / `harvested_until` keys) still load, with nothing
/// considered harvested; corrupt harvest fields are rejected cleanly.
#[test]
fn old_format_snapshots_still_load() {
    let (instance, plan) = setup(14, 2);
    let sim = Simulator::new(noisy_config(Scenario::offline()));
    let plan = normalize_plan(&instance, &plan).unwrap();
    let (mut run, mut source) = sim.start(&instance, &plan).unwrap();
    run.drive_until(
        PolicyKind::Static.build().as_mut(),
        &mut source,
        0.4 * plan.makespan,
    )
    .unwrap();
    let json = run.checkpoint().to_json();
    assert!(json.contains("\"harvested_events\""));

    // Strip the two harvesting lines — exactly what a pre-harvest snapshot
    // looks like (they sit mid-object, so the JSON stays well-formed).
    let old_format: String = json
        .lines()
        .filter(|l| !l.contains("\"harvested_events\"") && !l.contains("\"harvested_until\""))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(!old_format.contains("harvested"));
    let snapshot = SimSnapshot::from_json(&old_format).expect("old format must load");
    assert_eq!(snapshot.harvested_events, 0);
    assert_eq!(snapshot.harvested_until, 0.0);

    // The old-format snapshot resumes to the same continuation as the
    // new-format one.
    let reference = SimSnapshot::from_json(&json).unwrap();
    let drive_on = |snapshot: &SimSnapshot| {
        let (mut run, mut source) = sim.resume(&instance, &plan, snapshot).unwrap();
        run.drive(PolicyKind::Static.build().as_mut(), &mut source)
            .unwrap();
        run.into_trace("static").to_json()
    };
    assert_eq!(drive_on(&reference), drive_on(&snapshot));

    // A harvest field of the wrong shape is a parse error, not a panic or a
    // silent default.
    let corrupt = json.replace("\"harvested_events\": 0", "\"harvested_events\": \"bogus\"");
    assert!(SimSnapshot::from_json(&corrupt).is_err());
}

/// Snapshots serialised before `ready_time` existed still load, and resume
/// to the same trace as the full snapshot.
#[test]
fn pre_ready_time_snapshots_still_load() {
    let (instance, plan) = setup(14, 2);
    let sim = Simulator::new(noisy_config(Scenario::offline()));
    let plan = normalize_plan(&instance, &plan).unwrap();
    let (mut run, mut source) = sim.start(&instance, &plan).unwrap();
    run.drive_until(
        PolicyKind::ReactiveList.build().as_mut(),
        &mut source,
        0.4 * plan.makespan,
    )
    .unwrap();
    let json = run.checkpoint().to_json();

    // Cut the key and its array (numbers and nulls, no nested brackets) up
    // to the next key, which follows it mid-object.
    let start = json
        .find("\"ready_time\"")
        .expect("new format has ready_time");
    let close = start + json[start..].find(']').unwrap();
    let next_key = close + json[close..].find('"').unwrap();
    let old_format = format!("{}{}", &json[..start], &json[next_key..]);
    assert!(!old_format.contains("ready_time"));
    let snapshot = SimSnapshot::from_json(&old_format).expect("old format must load");
    assert!(snapshot.ready_time.is_empty());

    let reference = SimSnapshot::from_json(&json).unwrap();
    assert!(reference.ready_time.iter().any(|t| !t.is_nan()));
    let drive_on = |snapshot: &SimSnapshot| {
        let (mut run, mut source) = sim.resume(&instance, &plan, snapshot).unwrap();
        run.drive(PolicyKind::ReactiveList.build().as_mut(), &mut source)
            .unwrap();
        run.into_trace("reactive-list").to_json()
    };
    assert_eq!(drive_on(&reference), drive_on(&snapshot));
}

#[test]
fn snapshots_reject_mismatched_worlds() {
    let (instance, plan) = setup(12, 1);
    let sim = Simulator::new(SimConfig::default());
    let plan = normalize_plan(&instance, &plan).unwrap();
    let (run, _source) = sim.start(&instance, &plan).unwrap();
    let mut snapshot = run.checkpoint();
    // More jobs in the snapshot than in the instance: rejected.
    snapshot.released.push(false);
    assert!(sim.resume(&instance, &plan, &snapshot).is_err());
    // Inconsistent field lengths: rejected.
    let mut snapshot = run.checkpoint();
    snapshot.started.pop();
    assert!(sim.resume(&instance, &plan, &snapshot).is_err());
    // Tampered completion counter: rejected.
    let mut snapshot = run.checkpoint();
    snapshot.num_completed += 1;
    assert!(sim.resume(&instance, &plan, &snapshot).is_err());
}

#[test]
fn corrupt_snapshots_fail_cleanly_instead_of_panicking() {
    use mrls_sim::RunningJob;
    let (instance, plan) = setup(14, 2);
    let sim = Simulator::new(noisy_config(Scenario::offline()));
    let plan = normalize_plan(&instance, &plan).unwrap();
    let (mut run, mut source) = sim.start(&instance, &plan).unwrap();
    run.drive_until(
        PolicyKind::ReactiveList.build().as_mut(),
        &mut source,
        0.4 * plan.makespan,
    )
    .unwrap();
    let good = run.checkpoint();
    assert!(!good.running.is_empty(), "checkpoint mid-execution");

    // A running entry for a job the instance does not have: rejected, no
    // out-of-bounds panic at the next completion event.
    let mut bad = good.clone();
    bad.running[0].job = 999;
    assert!(sim.resume(&instance, &plan, &bad).is_err());
    // A running entry contradicting the lifecycle flags: rejected.
    let mut bad = good.clone();
    bad.started[bad.running[0].job] = false;
    bad.released[bad.running[0].job] = false;
    assert!(sim.resume(&instance, &plan, &bad).is_err());
    // A duplicated running entry (double resource release): rejected.
    let mut bad = good.clone();
    let dup: RunningJob = bad.running[0].clone();
    bad.running.push(dup);
    assert!(sim.resume(&instance, &plan, &bad).is_err());
    // The untampered snapshot still resumes fine.
    assert!(sim.resume(&instance, &plan, &good).is_ok());
}
