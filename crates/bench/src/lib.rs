//! # mrls-bench — the experiment harness
//!
//! Shared infrastructure for the binaries that regenerate every table and
//! figure of the paper:
//!
//! * `fig1_ratio_curves` — Figure 1 (Theorem 2 estimated vs. actual ratio).
//! * `fig2_lower_bound` — Figure 2 / Theorem 6 (local list-scheduling gap).
//! * `table1_ratios` — Table 1 (theoretical ratios + empirical verification).
//! * `ext_campaign` — extended simulation campaign (mrls vs. baselines).
//! * `ext_ablation` — parameter/priority/allocator ablations.
//!
//! All binaries write CSV files into `results/` (relative to the workspace
//! root, configurable through the `MRLS_RESULTS_DIR` environment variable)
//! and print the same tables to stdout.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mrls_analysis::export::ResultTable;
use mrls_analysis::validate_schedule;
use mrls_baseline::{BaselineScheduler, RigidListScheduler, RigidRule, SequentialScheduler};
use mrls_core::scheduler::{MrlsConfig, MrlsScheduler};
use mrls_core::PriorityRule;
use mrls_model::Instance;
use mrls_workload::InstanceRecipe;
use std::path::PathBuf;
use std::str::FromStr;

/// Where result CSVs are written.
pub fn results_dir() -> PathBuf {
    std::env::var("MRLS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Strict `key=value` command-line arguments: a token without `=`, an
/// unknown key or a value that does not parse exits with code 2, and the
/// last value given for a key wins.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Reads the process arguments, accepting only the keys in `keys`.
    pub fn parse(keys: &[&str]) -> Args {
        let pairs = std::env::args()
            .skip(1)
            .map(|a| {
                let Some((k, v)) = a.split_once('=') else {
                    usage_error(&format!("malformed argument `{a}` (expected key=value)"));
                };
                if !keys.contains(&k) {
                    usage_error(&format!(
                        "unknown key `{k}` (expected one of: {})",
                        keys.join(", ")
                    ));
                }
                (k.to_string(), v.to_string())
            })
            .collect();
        Args { pairs }
    }

    /// The value of `key`, or `default` when it is absent.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.values(key).fold(default, |_, v| {
            v.parse().unwrap_or_else(|_| invalid(key, v))
        })
    }

    /// The comma-separated values of `key`, or `default` when it is absent.
    pub fn list<T: FromStr>(&self, key: &str, default: Vec<T>) -> Vec<T> {
        self.values(key).fold(default, |_, v| {
            v.split(',')
                .map(|w| w.parse().unwrap_or_else(|_| invalid(key, v)))
                .collect()
        })
    }

    fn values<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn invalid(key: &str, v: &str) -> ! {
    usage_error(&format!("invalid value `{v}` for `{key}`"))
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Writes a table to `results/<name>.csv` and prints its Markdown rendering.
pub fn emit(name: &str, table: &ResultTable) {
    let path = results_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("\n[{name}] written to {}\n", path.display()),
        Err(e) => eprintln!("\n[{name}] could not write {}: {e}\n", path.display()),
    }
    println!("{}", table.to_markdown());
}

/// The outcome of running one algorithm on one instance, normalised by a
/// shared lower bound.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Algorithm label.
    pub algorithm: String,
    /// Achieved makespan.
    pub makespan: f64,
    /// Makespan divided by the certified lower bound.
    pub normalized: f64,
}

/// Runs the paper's algorithm plus the standard baselines on one instance and
/// returns outcomes normalised by the mrls-certified lower bound. Every
/// schedule is re-validated; a panic here means a bug in a scheduler.
pub fn run_algorithms(instance: &Instance, include_sequential: bool) -> Vec<RunOutcome> {
    let result = MrlsScheduler::new(MrlsConfig::default())
        .schedule(instance)
        .expect("mrls must schedule every generated instance");
    assert!(
        validate_schedule(instance, &result.schedule).is_valid(),
        "mrls produced an invalid schedule"
    );
    let lb = result.lower_bound.max(1e-12);
    let mut outcomes = vec![RunOutcome {
        algorithm: "mrls".into(),
        makespan: result.schedule.makespan,
        normalized: result.schedule.makespan / lb,
    }];
    let baselines: Vec<Box<dyn BaselineScheduler>> = vec![
        Box::new(RigidListScheduler::new(
            RigidRule::Fastest,
            PriorityRule::CriticalPath,
        )),
        Box::new(RigidListScheduler::new(
            RigidRule::Cheapest,
            PriorityRule::CriticalPath,
        )),
        Box::new(RigidListScheduler::new(
            RigidRule::Balanced,
            PriorityRule::CriticalPath,
        )),
    ];
    for b in baselines {
        let out = b.run(instance).expect("baselines must run");
        assert!(
            validate_schedule(instance, &out.schedule).is_valid(),
            "baseline {} produced an invalid schedule",
            b.name()
        );
        outcomes.push(RunOutcome {
            algorithm: b.name().into(),
            makespan: out.schedule.makespan,
            normalized: out.schedule.makespan / lb,
        });
    }
    if include_sequential {
        let out = SequentialScheduler::new()
            .run(instance)
            .expect("sequential baseline must run");
        outcomes.push(RunOutcome {
            algorithm: "sequential".into(),
            makespan: out.schedule.makespan,
            normalized: out.schedule.makespan / lb,
        });
    }
    outcomes
}

/// Runs `f` over `seeds` in parallel (a scoped worker thread per core, pulling
/// indices off a shared counter) and collects the results in seed order.
pub fn parallel_over_seeds<T, F>(seeds: &[u64], recipe: &InstanceRecipe, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &InstanceRecipe) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(seeds.len().max(1));
    let results = std::sync::Mutex::new(Vec::<(usize, T)>::with_capacity(seeds.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= seeds.len() {
                    break;
                }
                let value = f(seeds[idx], recipe);
                results
                    .lock()
                    .expect("worker threads do not panic")
                    .push((idx, value));
            });
        }
    });
    let mut collected = results.into_inner().expect("worker threads do not panic");
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, v)| v).collect()
}

/// Synthetic workloads for the list-scheduler **event-loop** benchmark
/// (`core_event_loop` binary): shapes chosen so the per-event bookkeeping —
/// not Phase 1 — dominates.
pub mod event_loop {
    use mrls_dag::Dag;
    use mrls_model::{Allocation, ExecTimeSpec, Instance, MoldableJob, SystemConfig};

    /// Pairwise-distinct execution times (so every completion is its own
    /// event) with a fixed pseudo-random jitter. The modulus is prime and
    /// larger than any benchmarked `n`, and the multiplier is coprime to
    /// it, so `j ↦ time` is injective below the modulus — no two jobs of a
    /// wave finish within the event-grouping tolerance of each other.
    fn jittered_time(j: usize) -> f64 {
        const P: usize = 999_983; // prime > max benchmarked n
        1.0 + (j.wrapping_mul(7919) % P) as f64 * 1e-6
    }

    fn jobs(n: usize) -> Vec<MoldableJob> {
        (0..n)
            .map(|j| {
                MoldableJob::new(
                    j,
                    ExecTimeSpec::Constant {
                        time: jittered_time(j),
                    },
                )
            })
            .collect()
    }

    /// A **wide independent layer**: `n` unit-allocation jobs on a
    /// two-type machine with capacity `n/8` per type, so thousands run
    /// concurrently, the ready queue stays hot the whole run, and every
    /// completion is a distinct event. The regime where the pre-index
    /// loop's per-event min-scan and re-sort are quadratic overall.
    pub fn wide(n: usize) -> (Instance, Vec<Allocation>) {
        let cap = ((n / 8).max(4)) as u64;
        let system = SystemConfig::new(vec![cap, cap]).expect("capacities >= 1");
        let instance = Instance::new(system, Dag::independent(n), jobs(n)).expect("valid instance");
        let decision = vec![Allocation::new(vec![1, 1]); n];
        (instance, decision)
    }

    /// A **deep chain**: `n` jobs in strict sequence. Running and ready
    /// sets never exceed one job — the skinny regime that checks the
    /// indexed structures add no overhead where the naive loop was already
    /// O(1) per event.
    pub fn deep(n: usize) -> (Instance, Vec<Allocation>) {
        let system = SystemConfig::new(vec![4, 4]).expect("capacities >= 1");
        let instance = Instance::new(system, Dag::chain(n), jobs(n)).expect("valid instance");
        let decision = vec![Allocation::new(vec![1, 1]); n];
        (instance, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_analysis::stats::Summary;

    #[test]
    fn run_algorithms_produces_normalised_outcomes() {
        let gi = InstanceRecipe::default_layered(15, 2, 8).generate(1);
        let outcomes = run_algorithms(&gi.instance, true);
        assert_eq!(outcomes.len(), 5);
        assert_eq!(outcomes[0].algorithm, "mrls");
        for o in &outcomes {
            assert!(
                o.normalized >= 1.0 - 1e-9,
                "{} below lower bound",
                o.algorithm
            );
            assert!(o.makespan > 0.0);
        }
    }

    #[test]
    fn parallel_over_seeds_preserves_order_and_determinism() {
        let recipe = InstanceRecipe::default_layered(10, 2, 8);
        let seeds: Vec<u64> = (0..6).collect();
        let a = parallel_over_seeds(&seeds, &recipe, |s, r| {
            r.generate(s).instance.num_jobs() as u64 + s
        });
        let b: Vec<u64> = seeds
            .iter()
            .map(|&s| recipe.generate(s).instance.num_jobs() as u64 + s)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn emit_writes_csv() {
        let dir = std::env::temp_dir().join("mrls_bench_emit_test");
        std::env::set_var("MRLS_RESULTS_DIR", &dir);
        let mut t = ResultTable::new(&["a"]);
        t.push_row(vec!["1".into()]);
        emit("unit_test_table", &t);
        assert!(dir.join("unit_test_table.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
        std::env::remove_var("MRLS_RESULTS_DIR");
        let _ = Summary::of(&[1.0]);
    }
}
