//! The obs counters of a plan, counted deterministically: the profiles it
//! built, the allocator kind the scheduler resolved, the SP FPTAS's work and
//! a certified lower bound capped at the decision's `L(p)`.

use mrls_core::{MrlsScheduler, ScheduleResult};
use mrls_dag::GraphClass;
use mrls_model::{AllocationSpace, Instance};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};
use std::collections::BTreeMap;

/// A chain of `n` jobs with the job recipe of `mrls generate`.
fn chain(n: usize, seed: u64) -> Instance {
    generate(DagRecipe::Chain { n }, seed)
}

/// An instance with the job recipe of `mrls generate`: three resource types
/// of capacity 16, powers-of-two allocations, mixed speedup families.
fn generate(dag: DagRecipe, seed: u64) -> Instance {
    InstanceRecipe {
        system: SystemRecipe::Uniform { d: 3, p: 16 },
        dag,
        jobs: JobRecipe {
            family: SpeedupFamily::Mixed,
            work_range: (10.0, 80.0),
            seq_fraction_range: (0.0, 0.2),
            space: AllocationSpace::PowersOfTwo,
            heavy_kind_factor: 2.0,
        },
    }
    .generate(seed)
    .instance
}

/// Plans `instance` with the default scheduler on a thread of its own with
/// collection on, and returns the plan and the counters it recorded.
fn plan(instance: &Instance) -> (ScheduleResult, BTreeMap<String, u64>) {
    std::thread::scope(|s| {
        s.spawn(|| {
            mrls_obs::set_enabled(true);
            let _ = mrls_obs::take();
            let result = MrlsScheduler::with_defaults().schedule(instance).unwrap();
            (result, mrls_obs::take().counters)
        })
        .join()
        .unwrap()
    })
}

fn plan_counters(instance: &Instance) -> BTreeMap<String, u64> {
    plan(instance).1
}

#[test]
fn a_plan_counts_the_profiles_it_built() {
    let instance = chain(40, 3);
    let counters = plan_counters(&instance);
    let points: usize = instance.profiles().unwrap().iter().map(|p| p.len()).sum();
    assert_eq!(
        counters.get("plan.profiles.jobs"),
        Some(&40),
        "{counters:?}"
    );
    assert_eq!(
        counters.get("plan.profiles.points"),
        Some(&(points as u64)),
        "{counters:?}"
    );
    // Planning with given profiles builds none.
    let profiles = instance.profiles().unwrap();
    let counters = std::thread::scope(|s| {
        s.spawn(|| {
            mrls_obs::set_enabled(true);
            let _ = mrls_obs::take();
            MrlsScheduler::with_defaults()
                .schedule_with_profiles(&instance, &profiles)
                .unwrap();
            mrls_obs::take().counters
        })
        .join()
        .unwrap()
    });
    assert!(!counters.contains_key("plan.profiles.jobs"), "{counters:?}");
}

/// The benchmark's `sub_seed` (splitmix64 finaliser).
fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The second general instance of the benchmark's `plan` suite, pass 0,
/// seed 85: the first 20-job random layered DAG of the general class drawn
/// from `sub_seed(sub_seed(85, 0, 0), 18, k)`, k = 0, 1, …
fn seed_85_general() -> Instance {
    (0..)
        .map(|k| {
            let dag = DagRecipe::RandomLayered {
                n: 20,
                layers: 5,
                edge_prob: 0.3,
            };
            generate(dag, sub_seed(sub_seed(85, 0, 0), 18, k))
        })
        .find(|i| i.graph_class() == GraphClass::General)
        .unwrap()
}

/// The µ-adjustment caps two `CommPenalty` jobs of this instance (6 and 11)
/// at 7 units, outside their powers-of-two candidates, where each runs
/// faster than at any candidate. So the LP bound over the candidates,
/// 220.5218…, exceeds the schedule's makespan, and the reported bound is
/// `L(p)` instead.
#[test]
fn the_certified_bound_is_capped_at_the_decisions_l() {
    let instance = seed_85_general();
    let (result, counters) = plan(&instance);
    let (lp, makespan) = (220.5218386316814f64, 220.14222311743617f64);
    assert_eq!(result.schedule.makespan.to_bits(), makespan.to_bits());
    assert_eq!(
        result.lower_bounds.lp_bound.map(f64::to_bits),
        Some(lp.to_bits())
    );
    let l = instance.lower_bound_of(&result.decision).unwrap();
    assert_eq!(result.lower_bound.to_bits(), l.to_bits());
    assert!(result.schedule.makespan + 1e-9 >= result.lower_bound);
    assert_eq!(
        counters.get("plan.lower_bound.capped"),
        Some(&1),
        "{counters:?}"
    );
}

#[test]
fn fptas_counters_are_deterministic_and_below_the_quadratic_scan() {
    // A 300-job chain: the bucket cap binds, so the pre-check proves every
    // feasibility test infeasible, no table is built, and the solve falls
    // back to the local min-max heuristic.
    let n = 300;
    let instance = chain(n, 7);
    let first = plan_counters(&instance);
    assert_eq!(
        first,
        plan_counters(&instance),
        "counters differ between runs"
    );
    let counter = |name: &str| first.get(name).copied().unwrap_or(0);

    assert_eq!(counter("plan.allocator.sp_fptas"), 1, "{first:?}");
    assert_eq!(counter("fptas.solves"), 1, "{first:?}");
    assert!(counter("fptas.feasibility_tests") >= 1, "{first:?}");
    assert_eq!(
        counter("fptas.tests_skipped"),
        counter("fptas.feasibility_tests"),
        "{first:?}"
    );
    assert_eq!(counter("fptas.series_nodes"), 0, "{first:?}");
    assert_eq!(counter("fptas.heuristic_fallbacks"), 1, "{first:?}");

    // A 100-job chain, whose DP runs: the uncapped count, (1 + ε)·H/ε ≥ 1 100
    // at ε = 0.1, stays below the cap, so each table has B + 1 buckets with
    // B ≥ 1 100. The full scan evaluates (B + 1)(B + 2)/2 sums per series
    // node.
    let n = 100;
    let counters = plan_counters(&chain(n, 7));
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("fptas.heuristic_fallbacks"), 0, "{counters:?}");
    let buckets = (11 * n as u64).min(200_000 / n as u64 + 4 * n as u64 + 16);
    let quadratic = counter("fptas.series_nodes") * (buckets + 1) * (buckets + 2) / 2;
    let candidates = counter("fptas.series_candidates");
    assert!(quadratic > 0, "{counters:?}");
    assert!(
        candidates * 10 < quadratic,
        "{candidates} candidate sums against {quadratic} for the full scan"
    );
}
