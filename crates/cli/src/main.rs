//! `mrls` — command-line interface to the multi-resource moldable scheduler.
//!
//! Subcommands (arguments are `key=value` pairs; all optional with sensible
//! defaults):
//!
//! ```text
//! mrls generate  [n=40] [d=3] [p=16] [dag=layered|independent|chain|sp|tree|cholesky|forkjoin|wavefront]
//!                [seed=0] [out=instance.json]
//!     Generate a synthetic instance and write it as JSON.
//!
//! mrls schedule  [in=FILE] [n=40] [d=3] [p=16] [dag=layered] [seed=0]
//!                [allocator=auto|lp|sp|independent|min-time|min-area|min-local-max]
//!                [priority=critical-path|fifo|longest-time|largest-area] [gantt=true]
//!     Schedule an instance file (or, without `in=`, a generated instance)
//!     with the paper's algorithm and print a report. An `in=` file that
//!     cannot be read or parsed is an error.
//!
//! mrls compare   [n=40] [d=3] [p=16] [dag=layered] [seeds=5]
//!     Generate instances and compare mrls against the rigid/sequential baselines.
//!
//! mrls simulate  [in=FILE] [n=40] [d=3] [p=16] [dag=layered] [seed=0]
//!                [allocator=auto] [priority=critical-path]
//!                [plan=FILE] [plan-out=FILE] [out=FILE]
//!                [policy=reactive|static|full] [noise=none|mult|heavy|slowdown]
//!                [sigma=0.3] [prob=0.1] [alpha=1.5] [cap=10] [slowdown=2.0]
//!                [arrivals=none|uniform|poisson] [window-frac=0.5] [mean-gap=1.0]
//!                [drop=none|half|blip] [drop-at=0.33] [keep=0.5] [simseed=0]
//!     Execute the planned schedule in virtual time under stochastic
//!     perturbations / online events and report planned-vs-realized stress.
//!
//! mrls serve     [addr=127.0.0.1] [port=7163] [d=3] [p=16] [policy=full|reactive|static]
//!                [batch-window=0.02] [tick=1.0] [max-pending=4096] [seed=0]
//!                [noise=none|mult] [sigma=0.3]
//!                [dir=PATH] [durability=off|buffered|fsync] [checkpoint-every=32]
//!     Run the online scheduling service: clients stream jobs/DAGs over
//!     line-delimited JSON on TCP; batches are planned with the two-phase
//!     scheduler and executed in virtual time. With `dir=` every admitted
//!     input is appended to a checksummed write-ahead log before the reply
//!     is sent, and periodic checkpoints bound the replay; restarting with
//!     the same `dir=` (and the same deterministic configuration) recovers
//!     the exact pre-crash state and resumes serving.
//!
//! mrls recover   dir=PATH [replay=checkpoint|scratch] [drain=false] [out=FILE]
//!                [d=3] [p=16] [policy=full] [tick=1.0] [max-pending=4096] [seed=0]
//!                [noise=none|mult] [sigma=0.3] [durability=buffered] [checkpoint-every=32]
//!     Recover a service's state from its durability directory without
//!     serving: report what was replayed and truncated, optionally drain the
//!     recovered state and write the drain report. `replay=scratch` ignores
//!     checkpoints and replays the whole log — the independent path the
//!     crash smoke compares checkpoint recovery against. The configuration
//!     keys must match the ones the directory was written under.
//!
//! mrls client    [addr=127.0.0.1] [port=7163] [tenant=cli] [n=20] [d=3] [p=16] [dag=layered]
//!                [seed=0] [arrivals=none|uniform|poisson] [horizon=...] [mean-gap=0.5]
//!                [pace=0] [mode=jobs|dag] [drain=true] [shutdown=false] [out=FILE]
//!     Generate a workload and replay it against a running server; with
//!     drain=true waits for completion and verifies every job finished.
//!
//! mrls metrics   [addr=127.0.0.1] [port=7163] [format=json|prom] [out=FILE]
//!     Query a running server's observability snapshot (deterministic
//!     counters/gauges/histograms plus namespaced wall-clock values) and
//!     print it as sorted JSON or Prometheus text exposition.
//!
//! mrls trace-export [in=trace.json] [out=trace.chrome.json]
//!     Convert a realized trace (from `mrls simulate out=...` or a drain
//!     report's trace) to Chrome trace-event JSON for chrome://tracing or
//!     Perfetto.
//!
//! mrls explain   [in=trace.json] [instance=FILE | n=40 d=3 p=16 dag=layered seed=0]
//!                [job=ID|critical-path] [out=report.json] [chrome-out=FILE]
//!     Causal explainability over a realized trace: per-job lifecycle spans
//!     (submitted→admitted→ready→started→completed) with every wait second
//!     blamed on a category (precedence, per-type resource contention,
//!     admission, replan churn, policy), critical-path blame attribution
//!     telescoping to the realized makespan, and the optimality-gap report
//!     against the paper's lower bounds. Deterministic: same trace, same
//!     instance — byte-identical JSON. `chrome-out=` writes the
//!     blame-annotated Chrome trace export.
//!
//! mrls flight-recorder [addr=127.0.0.1] [port=7163] [out=FILE]
//!     Query a running server's round flight recorder: the bounded ring of
//!     per-round summaries (admissions, plan-diff counts, starts,
//!     completions, pending depth, wall latency vs the tick budget).
//!
//! mrls theory    [dmax=10] [epsilon=0.1]
//!     Print the Table 1 approximation ratios for d = 1..dmax.
//! ```
//!
//! Malformed arguments (tokens without `=`, unknown keys, unparsable or
//! unrecognised values) are reported on stderr and exit with code 2.

use std::collections::HashMap;

use mrls_analysis::gantt::ascii_gantt;
use mrls_analysis::{validate_schedule, validate_schedule_with, ValidationOptions};
use mrls_baseline::{BaselineScheduler, RigidListScheduler, RigidRule, SequentialScheduler};
use mrls_core::scheduler::{AllocatorKind, MrlsConfig, MrlsScheduler};
use mrls_core::{theory, PriorityRule, Schedule};
use mrls_model::{AllocationSpace, Instance};
use mrls_serve::{Client, DurabilityMode, ServeConfig, Server, ServiceCore};
use mrls_sim::{PerturbationModel, PolicyKind, Scenario, SimConfig, Simulator};
use mrls_workload::{
    rng_from_seed, ArrivalRecipe, CapacityDropRecipe, DagRecipe, InstanceRecipe, JobRecipe,
    SpeedupFamily, SystemRecipe,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print_usage();
        std::process::exit(2);
    };
    let result = match command.as_str() {
        "generate" => parse_kv(&args[1..], &["n", "d", "p", "dag", "seed", "out"])
            .and_then(|kv| cmd_generate(&kv)),
        "schedule" => parse_kv(
            &args[1..],
            &[
                "in",
                "n",
                "d",
                "p",
                "dag",
                "seed",
                "allocator",
                "priority",
                "gantt",
            ],
        )
        .and_then(|kv| cmd_schedule(&kv)),
        "compare" => {
            parse_kv(&args[1..], &["n", "d", "p", "dag", "seeds"]).and_then(|kv| cmd_compare(&kv))
        }
        "simulate" => parse_kv(
            &args[1..],
            &[
                "in",
                "n",
                "d",
                "p",
                "dag",
                "seed",
                "allocator",
                "priority",
                "plan",
                "plan-out",
                "out",
                "policy",
                "noise",
                "sigma",
                "prob",
                "alpha",
                "cap",
                "slowdown",
                "arrivals",
                "window-frac",
                "mean-gap",
                "drop",
                "drop-at",
                "keep",
                "simseed",
            ],
        )
        .and_then(|kv| cmd_simulate(&kv)),
        "serve" => parse_kv(
            &args[1..],
            &[
                "addr",
                "port",
                "d",
                "p",
                "policy",
                "batch-window",
                "tick",
                "max-pending",
                "seed",
                "noise",
                "sigma",
                "dir",
                "durability",
                "checkpoint-every",
            ],
        )
        .and_then(|kv| cmd_serve(&kv)),
        "recover" => parse_kv(
            &args[1..],
            &[
                "dir",
                "d",
                "p",
                "policy",
                "tick",
                "max-pending",
                "seed",
                "noise",
                "sigma",
                "durability",
                "checkpoint-every",
                "replay",
                "drain",
                "out",
            ],
        )
        .and_then(|kv| cmd_recover(&kv)),
        "client" => parse_kv(
            &args[1..],
            &[
                "addr", "port", "tenant", "n", "d", "p", "dag", "seed", "arrivals", "horizon",
                "mean-gap", "pace", "mode", "drain", "shutdown", "out",
            ],
        )
        .and_then(|kv| cmd_client(&kv)),
        "metrics" => {
            parse_kv(&args[1..], &["addr", "port", "format", "out"]).and_then(|kv| cmd_metrics(&kv))
        }
        "trace-export" => parse_kv(&args[1..], &["in", "out"]).and_then(|kv| cmd_trace_export(&kv)),
        "explain" => parse_kv(
            &args[1..],
            &[
                "in",
                "instance",
                "n",
                "d",
                "p",
                "dag",
                "seed",
                "job",
                "out",
                "chrome-out",
            ],
        )
        .and_then(|kv| cmd_explain(&kv)),
        "flight-recorder" => {
            parse_kv(&args[1..], &["addr", "port", "out"]).and_then(|kv| cmd_flight_recorder(&kv))
        }
        "theory" => parse_kv(&args[1..], &["dmax", "epsilon"]).and_then(|kv| cmd_theory(&kv)),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(0)
        }
        other => Err(format!("unknown command: {other}")),
    };
    let code = match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    eprintln!(
        "mrls — multi-resource list scheduling of moldable workflows (ICPP 2021 reproduction)\n\
         usage:\n\
         \u{20}  mrls generate [n=40] [d=3] [p=16] [dag=layered] [seed=0] [out=instance.json]\n\
         \u{20}  mrls schedule [in=FILE|n=40 d=3 p=16 dag=layered seed=0] [allocator=auto]\n\
         \u{20}                [priority=critical-path] [gantt=true]\n\
         \u{20}  mrls compare  [n=40] [d=3] [p=16] [dag=layered] [seeds=5]\n\
         \u{20}  mrls simulate [in=FILE|n=40 d=3 p=16 dag=layered seed=0] [policy=reactive] [noise=mult]\n\
         \u{20}                [sigma=0.3] [arrivals=none] [drop=none] [simseed=0] [out=trace.json]\n\
         \u{20}  mrls serve    [addr=127.0.0.1] [port=7163] [d=3] [p=16] [policy=full] [batch-window=0.02]\n\
         \u{20}                [dir=PATH] [durability=off|buffered|fsync] [checkpoint-every=32]\n\
         \u{20}  mrls recover  dir=PATH [replay=checkpoint|scratch] [drain=false] [out=FILE]\n\
         \u{20}  mrls client   [addr=127.0.0.1] [port=7163] [tenant=cli] [n=20] [arrivals=none] [drain=true]\n\
         \u{20}  mrls metrics  [addr=127.0.0.1] [port=7163] [format=json|prom] [out=FILE]\n\
         \u{20}  mrls trace-export [in=trace.json] [out=trace.chrome.json]\n\
         \u{20}  mrls explain  [in=trace.json] [instance=FILE|n=40 d=3 p=16 dag=layered seed=0]\n\
         \u{20}                [job=ID|critical-path] [out=report.json] [chrome-out=FILE]\n\
         \u{20}  mrls flight-recorder [addr=127.0.0.1] [port=7163] [out=FILE]\n\
         \u{20}  mrls theory   [dmax=10] [epsilon=0.1]"
    );
}

/// Parses `key=value` tokens, rejecting malformed tokens and unknown keys.
fn parse_kv(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut kv = HashMap::new();
    for a in args {
        let Some((k, v)) = a.split_once('=') else {
            return Err(format!("malformed argument `{a}` (expected key=value)"));
        };
        if k.is_empty() {
            return Err(format!("malformed argument `{a}` (empty key)"));
        }
        if !allowed.contains(&k) {
            return Err(format!(
                "unknown key `{k}` (expected one of: {})",
                allowed.join(", ")
            ));
        }
        if kv.insert(k.to_string(), v.to_string()).is_some() {
            return Err(format!("key `{k}` given more than once"));
        }
    }
    Ok(kv)
}

/// Typed lookup: the default when absent, an error when unparsable.
fn get<T: std::str::FromStr>(
    kv: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value `{v}` for key `{key}`")),
    }
}

/// Enumerated lookup: the default when absent, an error on unknown variants.
fn get_choice<'a, T: Copy>(
    kv: &HashMap<String, String>,
    key: &str,
    choices: &'a [(&'a str, T)],
    default: T,
) -> Result<T, String> {
    match kv.get(key) {
        None => Ok(default),
        Some(v) => choices
            .iter()
            .find(|(name, _)| name == v)
            .map(|&(_, value)| value)
            .ok_or_else(|| {
                let names: Vec<&str> = choices.iter().map(|&(name, _)| name).collect();
                format!(
                    "invalid value `{v}` for key `{key}` (expected one of: {})",
                    names.join(", ")
                )
            }),
    }
}

fn dag_recipe(kv: &HashMap<String, String>, n: usize) -> Result<DagRecipe, String> {
    let recipe = match kv.get("dag").map(String::as_str).unwrap_or("layered") {
        "independent" => DagRecipe::Independent { n },
        "chain" => DagRecipe::Chain { n },
        "sp" => DagRecipe::RandomSeriesParallel {
            n,
            series_prob: 0.5,
        },
        "tree" => DagRecipe::RandomOutTree { n, max_children: 3 },
        "cholesky" => DagRecipe::Cholesky {
            tiles: ((n as f64 * 6.0).cbrt().ceil() as usize).max(2),
        },
        "forkjoin" => DagRecipe::ForkJoin {
            width: (n / 5).max(2),
            stages: 4,
        },
        "wavefront" => {
            let side = (n as f64).sqrt().ceil() as usize;
            DagRecipe::Wavefront {
                rows: side,
                cols: side,
            }
        }
        "layered" => DagRecipe::RandomLayered {
            n,
            layers: (n as f64).sqrt().ceil() as usize,
            edge_prob: 0.3,
        },
        other => {
            return Err(format!(
                "invalid value `{other}` for key `dag` (expected one of: layered, independent, \
                 chain, sp, tree, cholesky, forkjoin, wavefront)"
            ))
        }
    };
    Ok(recipe)
}

fn build_recipe(kv: &HashMap<String, String>) -> Result<InstanceRecipe, String> {
    let n: usize = get(kv, "n", 40)?;
    let d: usize = get(kv, "d", 3)?;
    let p: u64 = get(kv, "p", 16)?;
    Ok(InstanceRecipe {
        system: SystemRecipe::Uniform { d, p },
        dag: dag_recipe(kv, n)?,
        jobs: JobRecipe {
            family: SpeedupFamily::Mixed,
            work_range: (10.0, 80.0),
            seq_fraction_range: (0.0, 0.2),
            space: AllocationSpace::PowersOfTwo,
            heavy_kind_factor: 2.0,
        },
    })
}

/// The instance a command works on: the file named by `key`, or, without
/// it, one generated from the recipe keys (`n`, `d`, `p`, `dag`, `seed`). A
/// file that cannot be read or parsed is an error, never a fallback, and
/// recipe keys next to the file are rejected because they would do nothing.
fn load_instance(kv: &HashMap<String, String>, key: &str) -> Result<Instance, String> {
    let Some(path) = kv.get(key) else {
        return Ok(build_recipe(kv)?.generate(get(kv, "seed", 0)?).instance);
    };
    if let Some(k) = ["n", "d", "p", "dag", "seed"]
        .into_iter()
        .find(|k| kv.contains_key(*k))
    {
        return Err(format!(
            "key `{k}` has no effect when `{key}=` loads an instance file"
        ));
    }
    let json = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    Instance::from_json(&json).map_err(|e| format!("could not parse {path}: {e}"))
}

const ALLOCATOR_CHOICES: &[(&str, AllocatorKind)] = &[
    ("auto", AllocatorKind::Auto),
    ("lp", AllocatorKind::LpRounding),
    ("sp", AllocatorKind::SpFptas),
    ("independent", AllocatorKind::IndependentOptimal),
    ("min-time", AllocatorKind::MinTime),
    ("min-area", AllocatorKind::MinArea),
    ("min-local-max", AllocatorKind::MinLocalMax),
];

fn priority_rule(kv: &HashMap<String, String>) -> Result<PriorityRule, String> {
    match kv.get("priority").map(String::as_str) {
        None | Some("critical-path") => Ok(PriorityRule::CriticalPath),
        Some("fifo") => Ok(PriorityRule::Fifo),
        Some("longest-time") => Ok(PriorityRule::LongestTimeFirst),
        Some("largest-area") => Ok(PriorityRule::LargestAreaFirst),
        Some(other) => Err(format!(
            "invalid value `{other}` for key `priority` (expected one of: critical-path, fifo, \
             longest-time, largest-area)"
        )),
    }
}

fn cmd_generate(kv: &HashMap<String, String>) -> Result<i32, String> {
    let seed: u64 = get(kv, "seed", 0)?;
    let out = kv
        .get("out")
        .cloned()
        .unwrap_or_else(|| "instance.json".to_string());
    let recipe = build_recipe(kv)?;
    let gi = recipe.generate(seed);
    if let Err(e) = std::fs::write(&out, gi.instance.to_json()) {
        eprintln!("failed to write {out}: {e}");
        return Ok(1);
    }
    println!(
        "wrote {} ({} jobs, {} edges, d = {}, class = {})",
        out,
        gi.instance.num_jobs(),
        gi.instance.dag.num_edges(),
        gi.instance.num_resource_types(),
        gi.instance.graph_class()
    );
    Ok(0)
}

fn cmd_schedule(kv: &HashMap<String, String>) -> Result<i32, String> {
    let instance = load_instance(kv, "in")?;
    let allocator = get_choice(kv, "allocator", ALLOCATOR_CHOICES, AllocatorKind::Auto)?;
    let priority = priority_rule(kv)?;
    let config = MrlsConfig {
        allocator,
        priority,
        ..MrlsConfig::default()
    };
    let result = match MrlsScheduler::new(config).schedule(&instance) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scheduling failed: {e}");
            return Ok(1);
        }
    };
    let validation = validate_schedule(&instance, &result.schedule);
    println!("graph class     : {}", result.params.graph_class);
    println!("allocator       : {}", result.params.allocator);
    println!(
        "mu / rho / eps  : {:.4} / {:.4} / {:.2}",
        result.params.mu, result.params.rho, result.params.epsilon
    );
    println!("makespan        : {:.3}", result.schedule.makespan);
    println!("lower bound     : {:.3}", result.lower_bound);
    println!("measured ratio  : {:.3}", result.measured_ratio());
    println!("guarantee       : {:.3}", result.params.ratio_guarantee);
    println!("valid schedule  : {}", validation.is_valid());
    if get(kv, "gantt", true)? && instance.num_jobs() <= 64 {
        println!("\n{}", ascii_gantt(&instance, &result.schedule, 60));
    }
    Ok(if validation.is_valid() { 0 } else { 1 })
}

fn cmd_compare(kv: &HashMap<String, String>) -> Result<i32, String> {
    let seeds: u64 = get(kv, "seeds", 5)?;
    let recipe = build_recipe(kv)?;
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("mrls".into(), vec![]),
        ("rigid-fastest".into(), vec![]),
        ("rigid-cheapest".into(), vec![]),
        ("rigid-balanced".into(), vec![]),
        ("sequential".into(), vec![]),
    ];
    for seed in 0..seeds {
        let gi = recipe.generate(seed);
        let inst = &gi.instance;
        let result = match MrlsScheduler::with_defaults().schedule(inst) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("seed {seed}: mrls failed: {e}");
                return Ok(1);
            }
        };
        let lb = result.lower_bound.max(1e-12);
        rows[0].1.push(result.schedule.makespan / lb);
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
            Box::new(SequentialScheduler::new()),
        ];
        for (i, b) in baselines.iter().enumerate() {
            match b.run(inst) {
                Ok(out) => rows[i + 1].1.push(out.schedule.makespan / lb),
                Err(e) => {
                    eprintln!("seed {seed}: baseline {} failed: {e}", b.name());
                    return Ok(1);
                }
            }
        }
    }
    println!(
        "normalised makespan (makespan / lower bound), averaged over {seeds} seeds — lower is better"
    );
    for (name, ratios) in rows {
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        println!("  {name:<16} mean {mean:>6.3}   worst {max:>6.3}");
    }
    Ok(0)
}

fn cmd_simulate(kv: &HashMap<String, String>) -> Result<i32, String> {
    // Keys that would silently do nothing in the chosen mode are rejected.
    if kv.contains_key("plan") {
        for k in ["allocator", "priority"] {
            if kv.contains_key(k) {
                return Err(format!(
                    "key `{k}` has no effect when `plan=` loads a planned schedule"
                ));
            }
        }
    }

    // 1. The instance: an explicit file, or a generated one.
    let instance = load_instance(kv, "in")?;

    // 2. The plan: loaded from a previous export, or computed fresh.
    let planned: Schedule = match kv.get("plan") {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {path}: {e}"))
            .and_then(|s| {
                Schedule::from_json(&s).map_err(|e| format!("could not parse {path}: {e}"))
            })?,
        None => {
            let config = MrlsConfig {
                allocator: get_choice(kv, "allocator", ALLOCATOR_CHOICES, AllocatorKind::Auto)?,
                priority: priority_rule(kv)?,
                ..MrlsConfig::default()
            };
            match MrlsScheduler::new(config).schedule(&instance) {
                Ok(r) => r.schedule,
                Err(e) => {
                    eprintln!("planning failed: {e}");
                    return Ok(1);
                }
            }
        }
    };
    if let Some(path) = kv.get("plan-out") {
        std::fs::write(path, planned.to_json())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote plan to {path}");
    }

    // 3. Perturbation model.
    let sigma: f64 = get(kv, "sigma", 0.3)?;
    let prob: f64 = get(kv, "prob", 0.1)?;
    let alpha: f64 = get(kv, "alpha", 1.5)?;
    let cap: f64 = get(kv, "cap", 10.0)?;
    let slow: f64 = get(kv, "slowdown", 2.0)?;
    let perturbation = match kv.get("noise").map(String::as_str) {
        None | Some("mult") => PerturbationModel::Multiplicative { sigma },
        Some("none") => PerturbationModel::None,
        Some("heavy") => PerturbationModel::HeavyTail { prob, alpha, cap },
        Some("slowdown") => PerturbationModel::ResourceSlowdown {
            factors: (0..instance.num_resource_types())
                .map(|i| if i == 0 { slow } else { 1.0 })
                .collect(),
        },
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `noise` (expected one of: none, mult, heavy, \
                 slowdown)"
            ))
        }
    };

    // 4. Scenario (arrivals + capacity drops), parameterised by the planned
    //    horizon.
    let simseed: u64 = get(kv, "simseed", 0)?;
    let horizon = planned.makespan.max(1e-9);
    let mut scenario = Scenario::offline();
    match kv.get("arrivals").map(String::as_str) {
        None | Some("none") => {}
        Some("uniform") => {
            let frac: f64 = get(kv, "window-frac", 0.5)?;
            let release = ArrivalRecipe::UniformWindow {
                horizon: horizon * frac,
            }
            .release_times(instance.num_jobs(), &mut rng_from_seed(simseed ^ 0xA881));
            scenario = scenario.with_release_times(release);
        }
        Some("poisson") => {
            let mean_gap: f64 = get(kv, "mean-gap", horizon / instance.num_jobs().max(1) as f64)?;
            let release = ArrivalRecipe::PoissonStream { mean_gap }
                .release_times(instance.num_jobs(), &mut rng_from_seed(simseed ^ 0xA881));
            scenario = scenario.with_release_times(release);
        }
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `arrivals` (expected one of: none, uniform, \
                 poisson)"
            ))
        }
    }
    let drop_at: f64 = get(kv, "drop-at", 0.33)?;
    let keep: f64 = get(kv, "keep", 0.5)?;
    match kv.get("drop").map(String::as_str) {
        None | Some("none") => {}
        Some("half") => {
            let changes = CapacityDropRecipe::SingleDrop {
                at_frac: drop_at,
                keep_fraction: keep,
            }
            .changes(instance.system.capacities(), horizon);
            scenario = scenario.with_capacity_changes(changes);
        }
        Some("blip") => {
            let changes = CapacityDropRecipe::Blip {
                resource: 0,
                at_frac: drop_at,
                duration_frac: 0.25,
                keep_fraction: keep,
            }
            .changes(instance.system.capacities(), horizon);
            scenario = scenario.with_capacity_changes(changes);
        }
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `drop` (expected one of: none, half, blip)"
            ))
        }
    }

    // 5. Policy + run.
    let policy_kind = get_choice(
        kv,
        "policy",
        &[
            ("reactive", PolicyKind::ReactiveList),
            ("static", PolicyKind::Static),
            ("full", PolicyKind::FullReschedule),
        ],
        PolicyKind::ReactiveList,
    )?;
    let sim = Simulator::new(SimConfig {
        seed: simseed,
        perturbation,
        scenario,
        max_events: None,
    });
    let trace = match sim.run(&instance, &planned, policy_kind.build().as_mut()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return Ok(1);
        }
    };
    let report = validate_schedule_with(
        &instance,
        &trace.realized,
        ValidationOptions {
            check_durations: false,
        },
    );

    println!("policy            : {}", trace.policy);
    println!("noise             : {}", sim.config().perturbation.label());
    println!("planned makespan  : {:.3}", trace.stats.planned_makespan);
    println!("realized makespan : {:.3}", trace.stats.realized_makespan);
    println!("stretch           : {:.3}", trace.stats.stretch);
    println!(
        "job slowdown      : mean {:.3} / max {:.3}",
        trace.stats.mean_slowdown, trace.stats.max_slowdown
    );
    println!("events            : {}", trace.events.len());
    println!("reschedules       : {}", trace.stats.num_reschedules);
    println!("re-allocated jobs : {}", trace.stats.num_realloc_jobs);
    println!("feasible          : {}", report.is_valid());
    if let Some(path) = kv.get("out") {
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote trace to {path}");
    }
    Ok(if report.is_valid() { 0 } else { 1 })
}

/// Builds the deterministic (digest-relevant) part of a [`ServeConfig`] from
/// `key=value` args — shared by `serve` and `recover`, which must agree: a
/// recovery under a configuration different from the one the directory was
/// written under is refused.
fn core_serve_config(kv: &HashMap<String, String>) -> Result<ServeConfig, String> {
    let d: usize = get(kv, "d", 3)?;
    let p: u64 = get(kv, "p", 16)?;
    if d == 0 || p == 0 {
        return Err("the machine needs d >= 1 resource types of p >= 1 units".to_string());
    }
    let policy = get_choice(
        kv,
        "policy",
        &[
            ("full", PolicyKind::FullReschedule),
            ("reactive", PolicyKind::ReactiveList),
            ("static", PolicyKind::Static),
        ],
        PolicyKind::FullReschedule,
    )?;
    let sigma: f64 = get(kv, "sigma", 0.3)?;
    let perturbation = match kv.get("noise").map(String::as_str) {
        None | Some("none") => PerturbationModel::None,
        Some("mult") => PerturbationModel::Multiplicative { sigma },
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `noise` (expected one of: none, mult)"
            ))
        }
    };
    let dir = kv.get("dir").map(std::path::PathBuf::from);
    // `dir=` switches durability on (buffered) unless overridden; the other
    // modes require a directory to write to.
    let durability = match kv.get("durability").map(String::as_str) {
        None if dir.is_some() => DurabilityMode::Buffered,
        None => DurabilityMode::Off,
        Some(s) => DurabilityMode::parse(s)?,
    };
    if durability != DurabilityMode::Off && dir.is_none() {
        return Err(format!(
            "durability={} requires dir=PATH",
            durability.label()
        ));
    }
    Ok(ServeConfig {
        capacities: vec![p; d],
        policy,
        tick: get(kv, "tick", 1.0)?,
        max_pending_jobs: get(kv, "max-pending", 4096)?,
        seed: get(kv, "seed", 0)?,
        perturbation,
        durability,
        dir,
        checkpoint_every_rounds: get(kv, "checkpoint-every", 32)?,
        ..ServeConfig::default()
    })
}

fn cmd_serve(kv: &HashMap<String, String>) -> Result<i32, String> {
    let addr: String = get(kv, "addr", "127.0.0.1".to_string())?;
    let port: u16 = get(kv, "port", 7163)?;
    let window_s: f64 = get(kv, "batch-window", 0.02)?;
    if !(0.0..=3600.0).contains(&window_s) {
        return Err(format!("invalid batch-window {window_s} (seconds)"));
    }
    let mut config = core_serve_config(kv)?;
    config.batch_window = std::time::Duration::from_secs_f64(window_s);
    let d = config.capacities.len();
    let p = config.capacities[0];
    let policy = config.policy;
    let durability = config.durability;
    let dir = config.dir.clone();
    let handle = Server::spawn(config, &format!("{addr}:{port}"))
        .map_err(|e| format!("could not bind {addr}:{port}: {e}"))?;
    match dir {
        Some(dir) => println!(
            "mrls-serve listening on {} (d={d}, p={p}, policy={}, batch-window={window_s}s, durability={} in {})",
            handle.addr(),
            policy.label(),
            durability.label(),
            dir.display()
        ),
        None => println!(
            "mrls-serve listening on {} (d={d}, p={p}, policy={}, batch-window={window_s}s)",
            handle.addr(),
            policy.label()
        ),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    println!("mrls-serve stopped");
    Ok(0)
}

/// Offline recovery: rebuilds the service state from a durability directory
/// (checkpoint + log-suffix replay, or a full replay with `replay=scratch`),
/// reports what was recovered, and optionally drains the recovered state to
/// a report file. Draining *continues* the log — it appends the drain round
/// — so compare recovery paths on copies of the directory.
fn cmd_recover(kv: &HashMap<String, String>) -> Result<i32, String> {
    let config = core_serve_config(kv)?;
    if config.dir.is_none() {
        return Err("recover requires dir=PATH".to_string());
    }
    let from_scratch = match kv.get("replay").map(String::as_str) {
        None | Some("checkpoint") => false,
        Some("scratch") => true,
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `replay` (expected one of: checkpoint, scratch)"
            ))
        }
    };
    let (mut core, report) = if from_scratch {
        ServiceCore::recover_from_genesis(config)
    } else {
        ServiceCore::recover(config)
    }
    .map_err(|e| format!("recovery failed: {e}"))?;
    let from = match report.checkpoint_round {
        Some(round) => format!(
            "checkpoint at round {round} (covering {} log records)",
            report.checkpoint_seq
        ),
        None => "genesis".to_string(),
    };
    println!(
        "recovered from {from}: {} records replayed ({} rounds), {} torn bytes truncated",
        report.replayed_records, report.replayed_rounds, report.truncated_bytes
    );
    let status = core.durability_status();
    println!(
        "log: {} records ({} bytes), recovery #{} for this directory's current core",
        status.wal_records, status.wal_bytes, status.recoveries
    );
    let drain: bool = get(kv, "drain", false)?;
    if drain {
        let report = core.drain().map_err(|e| format!("drain failed: {e}"))?;
        println!(
            "drained: {} submitted, {} completed, virtual makespan {:.3}, feasible {}",
            report.submitted, report.completed, report.virtual_makespan, report.feasible
        );
        if let Some(out) = kv.get("out") {
            let json = serde_json::to_string(&report)
                .map_err(|e| format!("could not serialise the drain report: {e}"))?;
            std::fs::write(out, json).map_err(|e| format!("could not write {out}: {e}"))?;
            println!("drain report written to {out}");
        }
    } else if kv.contains_key("out") {
        return Err("out=FILE requires drain=true".to_string());
    }
    Ok(0)
}

fn cmd_client(kv: &HashMap<String, String>) -> Result<i32, String> {
    let addr: String = get(kv, "addr", "127.0.0.1".to_string())?;
    let port: u16 = get(kv, "port", 7163)?;
    let tenant: String = get(kv, "tenant", "cli".to_string())?;
    let seed: u64 = get(kv, "seed", 0)?;
    let pace: f64 = get(kv, "pace", 0.0)?;
    let recipe = build_recipe(kv)?;
    let instance = recipe.generate(seed).instance;
    let n = instance.num_jobs();

    // Virtual release times drive the submission order (and, with pace > 0,
    // wall-clock gaps of `pace` seconds per virtual unit).
    let release: Vec<f64> = match kv.get("arrivals").map(String::as_str) {
        None | Some("none") => vec![0.0; n],
        Some("uniform") => {
            let horizon: f64 = get(kv, "horizon", (n as f64 / 4.0).max(1.0))?;
            ArrivalRecipe::UniformWindow { horizon }
                .release_times(n, &mut rng_from_seed(seed ^ 0x51EA))
        }
        Some("poisson") => {
            let mean_gap: f64 = get(kv, "mean-gap", 0.5)?;
            ArrivalRecipe::PoissonStream { mean_gap }
                .release_times(n, &mut rng_from_seed(seed ^ 0x51EA))
        }
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `arrivals` (expected one of: none, uniform, \
                 poisson)"
            ))
        }
    };

    let mut client = Client::connect((addr.as_str(), port), &tenant)
        .map_err(|e| format!("could not connect to {addr}:{port}: {e}"))?;
    let started = std::time::Instant::now();
    let submitted: u64;
    match kv.get("mode").map(String::as_str) {
        Some("dag") => {
            let ids = client.submit_dag(instance.jobs.clone(), instance.dag.edges().collect())?;
            submitted = ids.len() as u64;
        }
        None | Some("jobs") => {
            // Stream singleton jobs: dependency-feasible order, earliest
            // release first.
            let mut ids: Vec<Option<u64>> = vec![None; n];
            let mut last_t = 0.0f64;
            for _ in 0..n {
                let next = (0..n)
                    .filter(|&j| {
                        ids[j].is_none()
                            && instance
                                .dag
                                .predecessors(j)
                                .iter()
                                .all(|&p| ids[p].is_some())
                    })
                    .min_by(|&a, &b| release[a].total_cmp(&release[b]).then(a.cmp(&b)))
                    .expect("a DAG always has a submittable job");
                if pace > 0.0 && release[next] > last_t {
                    std::thread::sleep(std::time::Duration::from_secs_f64(
                        pace * (release[next] - last_t),
                    ));
                }
                last_t = last_t.max(release[next]);
                let deps: Vec<u64> = instance
                    .dag
                    .predecessors(next)
                    .iter()
                    .map(|&p| ids[p].expect("predecessors submitted first"))
                    .collect();
                ids[next] = Some(client.submit_job(instance.jobs[next].clone(), deps)?);
            }
            submitted = n as u64;
        }
        Some(other) => {
            return Err(format!(
                "invalid value `{other}` for key `mode` (expected one of: jobs, dag)"
            ))
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "submitted {submitted} jobs in {elapsed:.3}s ({:.0} submissions/s)",
        submitted as f64 / elapsed
    );

    let mut code = 0;
    if get(kv, "drain", true)? {
        let report = client.drain()?;
        println!("virtual makespan  : {:.3}", report.virtual_makespan);
        println!(
            "completed         : {}/{} (all tenants)",
            report.completed, report.submitted
        );
        println!("feasible          : {}", report.feasible);
        println!("rounds            : {}", report.metrics.rounds);
        if let Some(m) = report.metrics.tenants.get(&tenant) {
            println!(
                "tenant {tenant:<10} : scheduled {} / completed {} / stretch {:.3}",
                m.scheduled, m.completed, m.stretch
            );
        }
        if let Some(path) = kv.get("out") {
            let json = serde_json::to_string_pretty(&report)
                .expect("drain reports are always serialisable");
            std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
            println!("wrote drain report to {path}");
        }
        if report.completed != report.submitted || !report.feasible {
            eprintln!("error: not every admitted job completed feasibly");
            code = 1;
        }
    }
    if get(kv, "shutdown", false)? {
        client.shutdown()?;
        println!("server asked to stop");
    }
    Ok(code)
}

fn cmd_metrics(kv: &HashMap<String, String>) -> Result<i32, String> {
    let addr: String = get(kv, "addr", "127.0.0.1".to_string())?;
    let port: u16 = get(kv, "port", 7163)?;
    let format: String = get(kv, "format", "json".to_string())?;
    let mut client = Client::connect((addr.as_str(), port), "metrics")
        .map_err(|e| format!("could not connect to {addr}:{port}: {e}"))?;
    let snap = client.metrics()?;
    let text = match format.as_str() {
        "json" => snap.to_json(),
        "prom" => {
            let rendered = mrls_obs::prometheus::render(&snap);
            mrls_obs::prometheus::validate(&rendered)
                .map_err(|e| format!("rendered exposition failed validation: {e}"))?;
            rendered
        }
        other => {
            return Err(format!(
                "invalid value `{other}` for key `format` (expected one of: json, prom)"
            ))
        }
    };
    match kv.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("could not write {path}: {e}"))?;
            println!("wrote metrics to {path}");
        }
        None => print!("{text}"),
    }
    Ok(0)
}

fn cmd_trace_export(kv: &HashMap<String, String>) -> Result<i32, String> {
    let input: String = get(kv, "in", "trace.json".to_string())?;
    let output: String = get(kv, "out", "trace.chrome.json".to_string())?;
    let json =
        std::fs::read_to_string(&input).map_err(|e| format!("could not read {input}: {e}"))?;
    let trace = mrls_sim::RealizedTrace::from_json(&json)
        .map_err(|e| format!("{input} is not a realized trace: {e}"))?;
    let chrome = trace.to_chrome_trace_json();
    let doc = mrls_obs::chrome::validate(&chrome)
        .map_err(|e| format!("export failed self-validation: {e}"))?;
    std::fs::write(&output, &chrome).map_err(|e| format!("could not write {output}: {e}"))?;
    println!(
        "wrote {} trace events ({} spans/instants) to {output}",
        doc.events, doc.spans_and_instants
    );
    Ok(0)
}

fn cmd_explain(kv: &HashMap<String, String>) -> Result<i32, String> {
    let input: String = get(kv, "in", "trace.json".to_string())?;
    let json =
        std::fs::read_to_string(&input).map_err(|e| format!("could not read {input}: {e}"))?;
    let trace = mrls_sim::RealizedTrace::from_json(&json)
        .map_err(|e| format!("{input} is not a realized trace: {e}"))?;
    let instance = load_instance(kv, "instance")?;
    // Without engine-recorded readiness (a standalone trace file), the
    // analyzer derives it from admission and predecessor finish times.
    let report = mrls_sim::explain(&trace, &instance, None, None)
        .map_err(|e| format!("explain failed: {e}"))?;
    // Self-validation before anything is printed or written: the wait
    // segments must tile every job's span and the critical-path blame must
    // telescope to the realized makespan.
    report
        .check_identities(1e-6)
        .map_err(|e| format!("report failed self-validation: {e}"))?;

    let per_category = |segments: &[mrls_obs::span::SpanSegment]| {
        let mut totals = mrls_obs::blame::BlameTotals::new();
        totals.add_segments(segments);
        totals
            .by_category
            .iter()
            .map(|(k, v)| format!("{k} {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match kv.get("job").map(String::as_str) {
        Some("critical-path") => {
            let cp = &report.critical_path;
            println!(
                "critical path     : {} steps, telescoping to makespan {:.3}",
                cp.steps.len(),
                cp.makespan
            );
            for step in &cp.steps {
                println!(
                    "  job {:<5} [{:>9.3}, {:>9.3}]  {}",
                    step.job,
                    step.from,
                    step.finish,
                    per_category(&step.segments)
                );
            }
            println!("blame on the path : {}", per_category_totals(&cp.totals));
        }
        Some(id_str) => {
            let id: usize = id_str.parse().map_err(|_| {
                format!("invalid value `{id_str}` for key `job` (an id or `critical-path`)")
            })?;
            let span = report.jobs.get(id).ok_or_else(|| {
                format!(
                    "job {id} does not exist (the trace has {})",
                    report.jobs.len()
                )
            })?;
            println!(
                "job {id}: submitted {:.3} admitted {:.3} ready {:.3} started {:.3} completed {:.3}",
                span.submitted, span.admitted, span.ready, span.started, span.completed
            );
            println!(
                "  wait {:.3} / execution {:.3} — {}",
                span.wait(),
                span.execution(),
                per_category(&span.segments)
            );
            let on_path = report.critical_path.steps.iter().any(|s| s.job == id);
            println!("  on critical path: {on_path}");
        }
        None => {
            println!("policy            : {}", report.policy);
            println!("seed              : {}", report.seed);
            println!("realized makespan : {:.3}", report.makespan);
            println!("jobs              : {}", report.jobs.len());
            println!(
                "blame totals      : {}",
                per_category_totals(&report.totals)
            );
            println!(
                "critical path     : {} steps — {}",
                report.critical_path.steps.len(),
                per_category_totals(&report.critical_path.totals)
            );
            println!(
                "lower bounds      : cp {:.3} / area {:.3} / single-job {:.3} (best {:.3})",
                report.gap.critical_path_bound,
                report.gap.area_bound,
                report.gap.single_job_bound,
                report.gap.best_bound
            );
            println!("optimality ratio  : {:.3}", report.gap.ratio);
        }
    }
    if let Some(path) = kv.get("out") {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote explain report to {path}");
    }
    if let Some(path) = kv.get("chrome-out") {
        let chrome = mrls_sim::to_chrome_trace_with_blame(&trace, &report);
        mrls_obs::chrome::validate(&chrome)
            .map_err(|e| format!("blame-annotated export failed self-validation: {e}"))?;
        std::fs::write(path, &chrome).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote blame-annotated Chrome trace to {path}");
    }
    Ok(0)
}

/// Renders blame totals as `category value (share%)`, largest first.
fn per_category_totals(totals: &mrls_obs::blame::BlameTotals) -> String {
    let sum = totals.total().max(1e-12);
    let mut entries: Vec<(&String, &f64)> = totals.by_category.iter().collect();
    entries.sort_by(|a, b| b.1.total_cmp(a.1).then(a.0.cmp(b.0)));
    entries
        .iter()
        .map(|(k, v)| format!("{k} {v:.3} ({:.0}%)", 100.0 * *v / sum))
        .collect::<Vec<_>>()
        .join(", ")
}

fn cmd_flight_recorder(kv: &HashMap<String, String>) -> Result<i32, String> {
    let addr: String = get(kv, "addr", "127.0.0.1".to_string())?;
    let port: u16 = get(kv, "port", 7163)?;
    let mut client = Client::connect((addr.as_str(), port), "flight")
        .map_err(|e| format!("could not connect to {addr}:{port}: {e}"))?;
    let (rounds, total) = client.flight_recorder()?;
    println!(
        "flight recorder: {} rounds retained ({} recorded over the server's lifetime)",
        rounds.len(),
        total
    );
    for r in &rounds {
        println!(
            "  round {:<4} t={:<9.3} admitted={} caps={} planned={} updates={} kept={} \
             started={} completed={} pending={} wall_us={}{}{}",
            r.round,
            r.virtual_time,
            r.admitted_jobs,
            r.capacity_changes,
            r.plan_planned,
            r.plan_updates,
            r.plan_kept,
            r.started,
            r.completed,
            r.pending_after,
            r.wall_us,
            if r.drain { " [drain]" } else { "" },
            if r.over_tick { " [OVER TICK]" } else { "" },
        );
    }
    if let Some(path) = kv.get("out") {
        let json =
            serde_json::to_string_pretty(&rounds).expect("flight records are always serialisable");
        std::fs::write(path, json).map_err(|e| format!("could not write {path}: {e}"))?;
        println!("wrote flight records to {path}");
    }
    Ok(0)
}

fn cmd_theory(kv: &HashMap<String, String>) -> Result<i32, String> {
    let dmax: usize = get(kv, "dmax", 10)?;
    let epsilon: f64 = get(kv, "epsilon", 0.1)?;
    println!(
        "{:>3} {:>18} {:>19} {:>20} {:>17}",
        "d", "general (Thm 1/2)", "SP/trees (Thm 3/4)", "independent (Thm 5)", "LB local (Thm 6)"
    );
    for d in 1..=dmax {
        println!(
            "{:>3} {:>18.3} {:>19.3} {:>20.3} {:>17.1}",
            d,
            theory::general_ratio(d),
            theory::sp_ratio(d, epsilon),
            theory::independent_ratio(d),
            theory::theorem6_lower_bound(d)
        );
    }
    Ok(0)
}
