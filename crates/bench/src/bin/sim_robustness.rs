//! **Extended experiment E2** — schedule robustness under execution-time
//! noise: plan with the paper's two-phase algorithm, then *execute* the plan
//! in the `mrls-sim` discrete-event runtime under multiplicative log-normal
//! noise, sweeping
//!
//! * noise level `sigma`,
//! * reaction policy (static replay, reactive list, full reschedule),
//! * DAG shape (random layered, tiled Cholesky).
//!
//! Reported per configuration: the *stretch* (realized / planned makespan)
//! and the realized makespan normalised by the certified lower bound. Every
//! realized schedule is re-validated for capacity/precedence feasibility.
//!
//! Arguments (`key=value`, all optional): `seeds=8 n=30 tiles=4`.
//! CI runs the smoke configuration `seeds=1 n=12 tiles=3`.
//!
//! Results go to `results/sim_robustness.csv`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_analysis::stats::Summary;
use mrls_analysis::{validate_schedule_with, ValidationOptions};
use mrls_bench::{emit, parallel_over_seeds, Args};
use mrls_core::MrlsScheduler;
use mrls_sim::{PerturbationModel, PolicyKind, Scenario, SimConfig, Simulator};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};

const SIGMAS: &[f64] = &[0.0, 0.15, 0.4];

struct Cell {
    stretch: Vec<f64>,
    normalized: Vec<f64>,
    reschedules: Vec<f64>,
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
        "sigma",
        "policy",
        "mean_stretch",
        "p95_stretch",
        "max_stretch",
        "mean_normalized",
        "mean_reschedules",
    ]);

    // Mean stretch per (workload, sigma, policy) over the *noisy* sigmas,
    // for the reaction-pays-off checks.
    let mut noisy_means: Vec<(String, PolicyKind, f64, f64)> = Vec::new();

    for (wl, recipe) in &workloads {
        for &sigma in SIGMAS {
            // One run per (seed, policy): plan once per seed, execute under
            // each policy with the same perturbation seed.
            let per_seed = parallel_over_seeds(&seeds, recipe, |seed, r| {
                let instance = r.generate(seed).instance;
                let result = MrlsScheduler::with_defaults()
                    .schedule(&instance)
                    .expect("planning must succeed");
                let lb = result.lower_bound.max(1e-12);
                let sim = Simulator::new(SimConfig {
                    seed,
                    perturbation: PerturbationModel::Multiplicative { sigma },
                    scenario: Scenario::offline(),
                    max_events: None,
                });
                PolicyKind::all().map(|kind| {
                    let trace = sim
                        .run(&instance, &result.schedule, kind.build().as_mut())
                        .unwrap_or_else(|e| panic!("{wl}/{}/seed {seed}: {e}", kind.label()));
                    let report = validate_schedule_with(
                        &instance,
                        &trace.realized,
                        ValidationOptions {
                            check_durations: false,
                        },
                    );
                    assert!(
                        report.is_valid(),
                        "{wl}/{}/seed {seed}: infeasible realized schedule: {report:?}",
                        kind.label()
                    );
                    (
                        trace.stats.stretch,
                        trace.stats.realized_makespan / lb,
                        trace.stats.num_reschedules as f64,
                    )
                })
            });

            for (p, kind) in PolicyKind::all().into_iter().enumerate() {
                let cell = Cell {
                    stretch: per_seed.iter().map(|r| r[p].0).collect(),
                    normalized: per_seed.iter().map(|r| r[p].1).collect(),
                    reschedules: per_seed.iter().map(|r| r[p].2).collect(),
                };
                let s = Summary::of(&cell.stretch);
                let nz = Summary::of(&cell.normalized);
                let rs = Summary::of(&cell.reschedules);
                println!(
                    "{wl:<9} sigma {sigma:<4} {:<16} stretch mean {:>6.3}  p95 {:>6.3}  \
                     worst {:>6.3}  norm {:>6.3}",
                    kind.label(),
                    s.mean,
                    s.p95,
                    s.max,
                    nz.mean
                );
                table.push_row(vec![
                    (*wl).to_string(),
                    format!("{sigma}"),
                    kind.label().to_string(),
                    fmt3(s.mean),
                    fmt3(s.p95),
                    fmt3(s.max),
                    fmt3(nz.mean),
                    fmt3(rs.mean),
                ]);
                if sigma > 0.0 {
                    noisy_means.push(((*wl).to_string(), kind, sigma, s.mean));
                }
            }
        }
    }

    emit("sim_robustness", &table);

    // Reacting must not lose to blind replay on these workloads (averaged
    // over the noisy part of the sweep). Individual runs can go either way
    // (list-scheduling anomalies), so the check is only enforced at the
    // benched scale; reduced smoke configurations only report it.
    let mut ok = true;
    for (wl, _) in &workloads {
        let mean_of = |kind: PolicyKind, sigma_min: f64| {
            let xs: Vec<f64> = noisy_means
                .iter()
                .filter(|(w, k, s, _)| w == wl && *k == kind && *s >= sigma_min)
                .map(|&(_, _, _, m)| m)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let stat = mean_of(PolicyKind::Static, 0.0);
        let reactive = mean_of(PolicyKind::ReactiveList, 0.0);
        let verdict = reactive <= stat + 1e-9;
        println!(
            "[{wl}] mean noisy stretch: static {stat:.3} vs reactive-list {reactive:.3} -> \
             reactive {} static",
            if verdict { "<=" } else { ">" }
        );
        ok &= verdict;

        // The debounced full rescheduler must no longer thrash under pure
        // noise at high sigma (it used to lose to static replay there).
        let sigma_hi = SIGMAS.iter().cloned().fold(0.0f64, f64::max);
        let stat_hi = mean_of(PolicyKind::Static, sigma_hi);
        let full_hi = mean_of(PolicyKind::FullReschedule, sigma_hi);
        let verdict_full = full_hi <= stat_hi + 1e-9;
        println!(
            "[{wl}] mean stretch at sigma {sigma_hi}: static {stat_hi:.4} vs full-reschedule \
             {full_hi:.4} -> full {} static",
            if verdict_full { "<=" } else { ">" }
        );
        ok &= verdict_full;
    }
    if seeds.len() >= 5 && n >= 24 && !ok {
        eprintln!("FAIL: a reacting policy lost to static replay on a benched workload");
        std::process::exit(1);
    }
}
