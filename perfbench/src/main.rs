//! The repository benchmark: offline planning (`plan`), LP-bound DAG serving
//! (`serve-dag`) and high-rate job serving (`serve-jobs`), end to end and per
//! layer. See `perfbench/README.md` for what each workload is for and what
//! each metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan --seed 1 --seconds 20 --trace 0 [--repeat 10]
//! ```
//!
//! The last line of standard output is the JSON result; with `--trace 0` it
//! carries the end-to-end metrics, with `--trace 1` the per-layer metrics of
//! a separate traced run. The exit code is non-zero if any correctness check
//! failed.

mod inputs;
mod plan;
mod repeat;
mod report;
mod serve;
mod stats;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The end-to-end metrics every `--trace 0` run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("quality_ratio", "x"),
];

/// The per-layer metrics every `--trace 1` run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dag.classify_ms", "ms"),
    ("model.profiles_ms", "ms"),
    ("model.profile_points", "count"),
    ("lp.solve_ms", "ms"),
    ("lp.vars", "count"),
    ("lp.rows", "count"),
    ("core.alloc.sp_fptas_ms", "ms"),
    ("core.alloc.independent_ms", "ms"),
    ("core.alloc.round_ms", "ms"),
    ("core.alloc.adjust_ms", "ms"),
    ("core.list.schedule_ms", "ms"),
    ("core.ready_queue.jobs_visited", "count"),
    ("core.placement.passes", "count"),
    ("core.slotset.splits", "count"),
    ("core.bounds_ms", "ms"),
    ("plan.glue_ms", "ms"),
    ("plan.wall_ms", "ms"),
    ("serve.transport_us_p50", "us"),
    ("serve.ingest_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.wal.records", "count"),
    ("serve.wal.appended_bytes", "bytes"),
    ("serve.wal.checkpoints", "count"),
    ("serve.plan_ms", "ms"),
    ("serve.diff_ms", "ms"),
    ("serve.harvest_ms", "ms"),
    ("serve.busy_share", "ratio"),
    ("serve.rounds", "count"),
    ("serve.jobs_per_round", "count"),
    ("serve.plan_update_share", "ratio"),
    ("sim.drive_ms", "ms"),
    ("sim.policy_ms", "ms"),
    ("sim.engine.events_processed", "count"),
    ("sim.engine.job_starts", "count"),
    ("serve.drain_ms", "ms"),
    ("serve.pending_mean", "count"),
    ("serve.pending_max", "count"),
    ("serve.flush_ms_p50", "ms"),
    ("serve.flush_ms_p99", "ms"),
    ("bench.gen_late_ms_max", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    Plan,
    ServeDag,
    ServeJobs,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "plan" => Some(Workload::Plan),
            "serve-dag" => Some(Workload::ServeDag),
            "serve-jobs" => Some(Workload::ServeJobs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan",
            Workload::ServeDag => "serve-dag",
            Workload::ServeJobs => "serve-jobs",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repeat mode: run the workload this many times, one process per run
    /// with seeds `seed, seed+1, …`, and print each metric's spread.
    pub repeat: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload plan|serve-dag|serve-jobs --seed N \
                     --seconds S --trace 0|1 [--repeat N]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
            (None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("invalid value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    })
                }
                "--repeat" => repeat = Some(value.parse::<usize>().map_err(|_| bad())?),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            repeat,
        })
    }
}

/// Where runs write traces and temporary durability logs: `out/` beside the
/// benchmark's sources.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return repeat::run(&args, n);
    }
    let outcome = match args.workload {
        Workload::Plan => plan::run(&args),
        Workload::ServeDag => serve::run_dag(&args),
        Workload::ServeJobs => serve::run_jobs(&args),
    };
    match outcome {
        Ok(mut report) => {
            report.finish(args.trace);
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
