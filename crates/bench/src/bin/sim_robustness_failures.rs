//! **Extended experiment E3** — failure semantics: bounded in-engine retry
//! versus naive resubmit-from-scratch.
//!
//! Both strategies face the same seeded fault injection
//! ([`FailureModel::Random`]) on the same planned schedules:
//!
//! * **bounded-retry** — the engine's own [`RetryPolicy`]: a failed attempt
//!   re-enters the ready set after virtual-time exponential backoff and is
//!   re-placed by the reacting policy, inside the *same* run.
//! * **naive-resubmit** — a retry budget of one attempt: failed jobs (and
//!   their cascade-abandoned descendants) are collected after the whole
//!   batch reaches quiescence, re-planned from scratch as a fresh instance
//!   and run as a new generation, until everything has completed — the
//!   "just resubmit the job" operator workflow. Each generation costs its
//!   full quiescence time (last completion *or* attempt death), and deep
//!   chains pay one whole batch turnaround per cascade level.
//!
//! Reported per (workload, failure probability, strategy): the stretch of
//! the total completion time over the original planned makespan, and the
//! mean number of generations. The headline gate: bounded retry must not
//! lose to resubmit-from-scratch on mean stretch at the benched scale.
//!
//! Arguments (`key=value`, all optional): `seeds=8 n=30 tiles=4`.
//! CI runs the smoke configuration `seeds=2 n=12 tiles=3`.
//!
//! Results go to `results/sim_robustness_failures.csv`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_analysis::stats::Summary;
use mrls_bench::{emit, parallel_over_seeds, Args};
use mrls_core::MrlsScheduler;
use mrls_model::Instance;
use mrls_sim::{
    normalize_plan, FailureModel, FailurePlan, PerturbationModel, PolicyKind, RetryPolicy,
    RunStatus, Scenario, SimConfig, Simulator,
};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};

const PROBS: &[f64] = &[0.1, 0.25, 0.4];

/// Liveness backstop: generations needed scale with DAG depth (cascades)
/// plus a geometric tail; hitting this cap means the harness is broken, so
/// it panics rather than silently dropping unfinished work.
const MAX_GENERATIONS: usize = 64;

/// One strategy's outcome on one seed: total virtual completion time over
/// all generations, and how many generations it took.
struct Outcome {
    total_time: f64,
    generations: usize,
}

/// Runs `instance` to completion under `retry`, resubmitting whatever was
/// abandoned as a fresh re-planned instance until nothing is left. Under a
/// generous retry budget this is one generation in practice; under a
/// one-attempt budget the generations *are* the retry mechanism.
fn run_generations(instance: &Instance, seed: u64, prob: f64, retry: RetryPolicy) -> Outcome {
    let mut current = instance.clone();
    let mut total_time = 0.0;
    let mut generations = 0;
    loop {
        generations += 1;
        let plan = MrlsScheduler::with_defaults()
            .schedule(&current)
            .expect("planning must succeed")
            .schedule;
        let plan = normalize_plan(&current, &plan).expect("plan must normalize");
        let sim = Simulator::new(SimConfig {
            // Each generation draws fresh perturbation and failure streams,
            // deterministically derived from the base seed.
            seed: seed.wrapping_add(7919 * generations as u64),
            perturbation: PerturbationModel::Multiplicative { sigma: 0.15 },
            scenario: Scenario::offline(),
            max_events: None,
        });
        let (mut run, mut source) = sim.start(&current, &plan).expect("start must succeed");
        run.set_failures(FailurePlan {
            model: FailureModel::Random { prob },
            outages: Vec::new(),
            retry: retry.clone(),
        });
        let status = run
            .drive(PolicyKind::FullReschedule.build().as_mut(), &mut source)
            .unwrap_or_else(|e| panic!("seed {seed} gen {generations}: {e}"));
        assert_eq!(status, RunStatus::Complete, "seed {seed} gen {generations}");
        let (abandoned, quiescence) = {
            let state = run.state();
            let abandoned: Vec<usize> = (0..current.num_jobs())
                .filter(|&j| state.abandoned[j])
                .collect();
            // The batch ends when the engine goes quiet — the last
            // completion *or* the last attempt death, whichever is later.
            // An operator resubmitting from scratch pays for the whole
            // window, not just until the last success.
            (abandoned, state.now)
        };
        total_time += quiescence;
        if abandoned.is_empty() {
            break;
        }
        assert!(
            generations < MAX_GENERATIONS,
            "seed {seed}: {} jobs still failing after {MAX_GENERATIONS} generations",
            abandoned.len()
        );
        // Abandonment is closed under descendants (cascades), so the
        // induced subgraph keeps every unsatisfied precedence edge.
        current = current.induced(&abandoned, current.system.clone());
    }
    Outcome {
        total_time,
        generations,
    }
}

fn bounded_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        backoff_base: 0.25,
        backoff_factor: 2.0,
    }
}

fn naive_resubmit() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1, // every failure is terminal; generations do the work
        backoff_base: 0.25,
        backoff_factor: 2.0,
    }
}

fn main() {
    let args = Args::parse(&["seeds", "n", "tiles"]);
    let seeds: Vec<u64> = (0..args.get("seeds", 8u64)).collect();
    let n = args.get("n", 30usize);
    let tiles = args.get("tiles", 4usize);

    let workloads: Vec<(&str, InstanceRecipe)> = vec![
        ("layered", InstanceRecipe::default_layered(n, 2, 8)),
        (
            "cholesky",
            InstanceRecipe {
                system: SystemRecipe::Uniform { d: 2, p: 8 },
                dag: DagRecipe::Cholesky { tiles },
                jobs: JobRecipe::default_mixed(),
            },
        ),
    ];

    let mut table = ResultTable::new(&[
        "workload",
        "prob",
        "strategy",
        "mean_stretch",
        "p95_stretch",
        "max_stretch",
        "mean_generations",
    ]);

    let mut ok = true;
    for (wl, recipe) in &workloads {
        for &prob in PROBS {
            let per_seed = parallel_over_seeds(&seeds, recipe, |seed, r| {
                let instance = r.generate(seed).instance;
                let planned = MrlsScheduler::with_defaults()
                    .schedule(&instance)
                    .expect("planning must succeed")
                    .schedule
                    .makespan
                    .max(1e-12);
                let bounded = run_generations(&instance, seed, prob, bounded_retry());
                let naive = run_generations(&instance, seed, prob, naive_resubmit());
                (
                    bounded.total_time / planned,
                    bounded.generations as f64,
                    naive.total_time / planned,
                    naive.generations as f64,
                )
            });

            let strategies: [(&str, Vec<f64>, Vec<f64>); 2] = [
                (
                    "bounded-retry",
                    per_seed.iter().map(|r| r.0).collect(),
                    per_seed.iter().map(|r| r.1).collect(),
                ),
                (
                    "naive-resubmit",
                    per_seed.iter().map(|r| r.2).collect(),
                    per_seed.iter().map(|r| r.3).collect(),
                ),
            ];
            let mut means = [0.0f64; 2];
            for (idx, (label, stretches, gens)) in strategies.iter().enumerate() {
                let s = Summary::of(stretches);
                let g = Summary::of(gens);
                means[idx] = s.mean;
                println!(
                    "{wl:<9} prob {prob:<5} {label:<15} stretch mean {:>6.3}  p95 {:>6.3}  \
                     worst {:>6.3}  generations {:>4.2}",
                    s.mean, s.p95, s.max, g.mean
                );
                table.push_row(vec![
                    (*wl).to_string(),
                    format!("{prob}"),
                    (*label).to_string(),
                    fmt3(s.mean),
                    fmt3(s.p95),
                    fmt3(s.max),
                    fmt3(g.mean),
                ]);
            }
            let verdict = means[0] <= means[1] + 1e-9;
            println!(
                "[{wl}] prob {prob}: bounded-retry {:.3} vs naive-resubmit {:.3} -> bounded {} naive",
                means[0],
                means[1],
                if verdict { "<=" } else { ">" }
            );
            ok &= verdict;
        }
    }

    emit("sim_robustness_failures", &table);

    // The headline gate, enforced at the benched scale only (a reduced
    // smoke run reports the comparison without failing the build).
    if seeds.len() >= 5 && n >= 24 && !ok {
        eprintln!("FAIL: bounded retry lost to resubmit-from-scratch on mean stretch");
        std::process::exit(1);
    }
}
