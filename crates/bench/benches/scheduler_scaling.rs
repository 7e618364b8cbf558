//! Criterion benchmarks of the full two-phase pipeline (Phase 1 + Phase 2) as
//! the instance grows — the "is this implementable in a runtime scheduler?"
//! question. Parameterised over the number of jobs and the number of resource
//! types.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrls_core::scheduler::{MrlsConfig, MrlsScheduler};
use mrls_model::AllocationSpace;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};

fn recipe(n: usize, d: usize) -> InstanceRecipe {
    InstanceRecipe {
        system: SystemRecipe::Uniform { d, p: 16 },
        dag: DagRecipe::RandomLayered {
            n,
            layers: (n as f64).sqrt().ceil() as usize,
            edge_prob: 0.25,
        },
        jobs: JobRecipe {
            family: SpeedupFamily::Amdahl,
            work_range: (10.0, 80.0),
            seq_fraction_range: (0.0, 0.2),
            space: AllocationSpace::PowersOfTwo,
            heavy_kind_factor: 2.0,
        },
    }
}

fn bench_pipeline_vs_jobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_vs_jobs");
    group.sample_size(10);
    for &n in &[20usize, 40, 80] {
        let gi = recipe(n, 3).generate(1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &gi, |b, gi| {
            b.iter(|| {
                MrlsScheduler::new(MrlsConfig::default())
                    .schedule(&gi.instance)
                    .unwrap()
                    .schedule
                    .makespan
            })
        });
    }
    group.finish();
}

fn bench_pipeline_vs_d(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_vs_resource_types");
    group.sample_size(10);
    for &d in &[1usize, 2, 4, 6] {
        let gi = recipe(40, d).generate(2);
        group.bench_with_input(BenchmarkId::from_parameter(d), &gi, |b, gi| {
            b.iter(|| {
                MrlsScheduler::new(MrlsConfig::default())
                    .schedule(&gi.instance)
                    .unwrap()
                    .schedule
                    .makespan
            })
        });
    }
    group.finish();
}

fn bench_phase2_only(c: &mut Criterion) {
    use mrls_core::{ListScheduler, PriorityRule};
    let mut group = c.benchmark_group("list_scheduler_only");
    for &n in &[50usize, 200, 800] {
        let gi = recipe(n, 3).generate(3);
        let profiles = gi.instance.profiles().unwrap();
        let decision: Vec<_> = profiles
            .iter()
            .map(|p| p.min_max_time_area_point().alloc.clone())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                ListScheduler::new(PriorityRule::CriticalPath)
                    .schedule(&gi.instance, &decision)
                    .unwrap()
                    .makespan
            })
        });
    }
    group.finish();
}

/// The pure event-loop regimes at scale (see `mrls_bench::event_loop`):
/// wide independent layers (running/ready sets in the thousands — where the
/// pre-index loop paid O(n) per completion event) and deep chains (sets of
/// size one — where the indexed structures must cost nothing). Before/after
/// medians against the retained naive loop are produced by the
/// `core_event_loop` binary; this group tracks the indexed path itself.
fn bench_event_loop(c: &mut Criterion) {
    use mrls_bench::event_loop;
    use mrls_core::{ListScheduler, PriorityRule};
    type Workload = fn(usize) -> (mrls_model::Instance, Vec<mrls_model::Allocation>);
    let scheduler = ListScheduler::new(PriorityRule::CriticalPath);
    for (shape, build) in [
        ("wide", event_loop::wide as Workload),
        ("deep", event_loop::deep as Workload),
    ] {
        let mut group = c.benchmark_group(format!("event_loop_{shape}"));
        group.sample_size(10);
        for &n in &[1000usize, 5000, 20000] {
            let (instance, decision) = build(n);
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
                b.iter(|| scheduler.schedule(&instance, &decision).unwrap().makespan)
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_pipeline_vs_jobs,
    bench_pipeline_vs_d,
    bench_phase2_only,
    bench_event_loop
);
criterion_main!(benches);
