//! Equivalence property test for the indexed list-scheduler event loop.
//!
//! [`ListScheduler::schedule`] (binary completion heap + persistent
//! binary-insert ready queue) must produce **byte-identical** schedules to
//! [`ListScheduler::schedule_naive`] (the retained pre-index reference:
//! linear min-scan, full re-sort per pass, `Vec::remove` per start) — the
//! indexing is a pure data-structure change, so any divergence, down to a
//! single bit of a start time, is a bug.
//!
//! The corpus sweeps random DAG classes × moldable speedup families ×
//! priority rules × capacity mixes × per-job allocation choices. Cases
//! derive from the fixed seed baked into the config, so failures replay
//! exactly.

use mrls_core::{ListScheduler, PriorityRule};
use mrls_model::{Allocation, AllocationSpace};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};
use proptest::prelude::*;

fn recipe(dag: DagRecipe, system: SystemRecipe, family: SpeedupFamily) -> InstanceRecipe {
    InstanceRecipe {
        system,
        dag,
        jobs: JobRecipe {
            family,
            work_range: (5.0, 60.0),
            seq_fraction_range: (0.0, 0.3),
            space: AllocationSpace::PowersOfTwo,
            heavy_kind_factor: 2.0,
        },
    }
}

/// Picks one profile point per job, cycling a seed through the pruned
/// Pareto points so the decision mixes fast/wide and slow/narrow
/// allocations (including exact-capacity requests that exercise the fit
/// tolerance).
fn decision_from_profiles(
    instance: &mrls_model::Instance,
    choice_seed: u64,
) -> Option<Vec<Allocation>> {
    let profiles = instance.profiles().ok()?;
    Some(
        profiles
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let points = p.points();
                let idx =
                    (choice_seed as usize).wrapping_mul(31).wrapping_add(j * 7) % points.len();
                points[idx].alloc.clone()
            })
            .collect(),
    )
}

fn dag_class(which: usize, n: usize) -> DagRecipe {
    match which {
        0 => DagRecipe::Independent { n },
        1 => DagRecipe::RandomLayered {
            n,
            layers: 4,
            edge_prob: 0.3,
        },
        2 => DagRecipe::RandomSeriesParallel {
            n,
            series_prob: 0.5,
        },
        3 => DagRecipe::RandomOutTree { n, max_children: 3 },
        _ => DagRecipe::ErdosRenyi { n, edge_prob: 0.2 },
    }
}

fn priority_rule(which: usize, n: usize, seed: u64) -> PriorityRule {
    match which {
        0 => PriorityRule::Fifo,
        1 => PriorityRule::LongestTimeFirst,
        2 => PriorityRule::LargestAreaFirst,
        3 => PriorityRule::CriticalPath,
        _ => {
            // An explicit order with deliberate collisions: every job shares
            // its priority index with up to two others, so equal-key
            // tie-breaking (heap and ready queue) is exercised hard.
            PriorityRule::Explicit(
                (0..n)
                    .map(|j| (j as u64).wrapping_add(seed) as usize % n.div_ceil(3).max(1))
                    .collect(),
            )
        }
    }
}

fn capacity_mix(which: usize, d: usize) -> SystemRecipe {
    match which {
        0 => SystemRecipe::Uniform { d, p: 8 },
        1 => SystemRecipe::Uniform { d, p: 3 },
        2 => SystemRecipe::Explicit((0..d).map(|i| [4, 16, 2][i % 3]).collect()),
        _ => SystemRecipe::RandomUniform { d, lo: 2, hi: 12 },
    }
}

proptest! {
    // Fixed seed: the vendored runner derives every case from `seed + case`,
    // so a failure replays exactly.
    #![proptest_config(ProptestConfig { cases: 48, seed: 0x10c_a11e })]

    #[test]
    fn optimized_schedule_equals_naive_reference(
        seed in 0u64..1_000_000,
        n in 2usize..40,
        d in 1usize..4,
        dag_which in 0usize..5,
        sys_which in 0usize..4,
        prio_which in 0usize..5,
        family in prop_oneof![
            Just(SpeedupFamily::Amdahl),
            Just(SpeedupFamily::PowerLaw),
            Just(SpeedupFamily::Roofline),
            Just(SpeedupFamily::Mixed),
        ],
        choice_seed in 0u64..10_000,
    ) {
        let r = recipe(dag_class(dag_which, n), capacity_mix(sys_which, d), family);
        let gi = r.generate(seed);
        let Some(decision) = decision_from_profiles(&gi.instance, choice_seed) else {
            return Ok(()); // degenerate profile (should not happen) — skip
        };
        let scheduler = ListScheduler::new(priority_rule(prio_which, n, seed));
        let optimized = scheduler.schedule(&gi.instance, &decision);
        let naive = scheduler.schedule_naive(&gi.instance, &decision);
        match (optimized, naive) {
            (Ok(optimized), Ok(naive)) => {
                prop_assert_eq!(
                    optimized.to_json(),
                    naive.to_json(),
                    "indexed and reference event loops diverged"
                );
            }
            (optimized, naive) => {
                // Both paths must agree on rejection too.
                prop_assert_eq!(
                    optimized.map(|s| s.to_json()).map_err(|e| e.to_string()),
                    naive.map(|s| s.to_json()).map_err(|e| e.to_string()),
                    "error behaviour diverged"
                );
            }
        }
    }
}

/// Deterministic anchor: a mass of identical unit jobs on one saturated
/// resource produces equal finish times and equal priority keys everywhere —
/// the worst case for tie-breaking — and both loops must agree exactly.
#[test]
fn all_equal_keys_and_finishes_agree() {
    use mrls_dag::Dag;
    use mrls_model::{ExecTimeSpec, Instance, MoldableJob, SystemConfig};

    let n = 64;
    let system = SystemConfig::new(vec![7, 5]).unwrap();
    let jobs: Vec<MoldableJob> = (0..n)
        .map(|j| MoldableJob::new(j, ExecTimeSpec::Constant { time: 1.0 }))
        .collect();
    let instance = Instance::new(system, Dag::independent(n), jobs).unwrap();
    let decision = vec![Allocation::new(vec![1, 1]); n];
    for rule in [
        PriorityRule::Fifo,
        PriorityRule::LongestTimeFirst,
        PriorityRule::CriticalPath,
        PriorityRule::Explicit(vec![0; n]),
    ] {
        let scheduler = ListScheduler::new(rule);
        let optimized = scheduler.schedule(&instance, &decision).unwrap();
        let naive = scheduler.schedule_naive(&instance, &decision).unwrap();
        assert_eq!(optimized.to_json(), naive.to_json());
        // Five waves of five (the tighter capacity binds).
        assert!((optimized.makespan - 13.0).abs() < 1e-9);
    }
}
