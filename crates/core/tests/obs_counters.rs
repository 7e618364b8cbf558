//! The phase-1 obs counters of a plan: the allocator kind the scheduler
//! resolved and the SP FPTAS's work, counted deterministically.

use mrls_core::MrlsScheduler;
use mrls_model::{AllocationSpace, Instance};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};
use std::collections::BTreeMap;

/// A chain of `n` jobs with the job recipe of `mrls generate`: three
/// resource types of capacity 16, powers-of-two allocations, mixed speedup
/// families.
fn chain(n: usize, seed: u64) -> Instance {
    InstanceRecipe {
        system: SystemRecipe::Uniform { d: 3, p: 16 },
        dag: DagRecipe::Chain { n },
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
/// collection on, and returns the counters the plan recorded.
fn plan_counters(instance: &Instance) -> BTreeMap<String, u64> {
    std::thread::scope(|s| {
        s.spawn(|| {
            mrls_obs::set_enabled(true);
            let _ = mrls_obs::take();
            MrlsScheduler::with_defaults().schedule(instance).unwrap();
            mrls_obs::take().counters
        })
        .join()
        .unwrap()
    })
}

#[test]
fn fptas_counters_are_deterministic_and_below_the_quadratic_scan() {
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

    // The chain's DP has B + 1 buckets per table, B set by the bucket cap
    // (the uncapped count, (1 + ε)·H/ε = 3 300 at ε = 0.1, exceeds it). The
    // full scan evaluates (B + 1)(B + 2)/2 sums per series node.
    let buckets = 200_000 / n as u64 + 4 * n as u64 + 16;
    let quadratic = counter("fptas.series_nodes") * (buckets + 1) * (buckets + 2) / 2;
    let candidates = counter("fptas.series_candidates");
    assert!(
        candidates * 10 < quadratic,
        "{candidates} candidate sums against {quadratic} for the full scan"
    );
}
