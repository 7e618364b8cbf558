//! Repeat mode: runs one workload N times, one child process per run with
//! seeds `seed, seed+1, …`, and prints each metric's median, quartiles and
//! spread (interquartile range ÷ median), so bounds can be set from
//! measurements.

use crate::{stats, Args};
use serde::__private::{field, Error, Value};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The `metrics` object of a result line: name → (value, unit).
struct Metrics(Vec<(String, f64, String)>);

// Hand-written: the vendored derive reads maps as arrays of pairs, while the
// result line is a JSON object.
impl Deserialize for Metrics {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::msg("expected an object"))?
            .iter()
            .map(|(name, m)| Ok((name.clone(), field(m, "value")?, field(m, "unit")?)))
            .collect::<Result<Vec<_>, Error>>()
            .map(Metrics)
    }
}

#[derive(Deserialize)]
struct Outcome {
    correct: bool,
    metrics: Metrics,
}

pub fn run(args: &Args, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: run {i} did not start: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed: Result<Outcome, _> = serde_json::from_str(last);
        match parsed {
            Ok(o) if output.status.success() && o.correct => {
                let summary: Vec<String> = o
                    .metrics
                    .0
                    .iter()
                    .map(|(name, value, _)| format!("{name}={value:.4}"))
                    .collect();
                println!("seed {seed}: {}", summary.join(" "));
                for (name, value, unit) in o.metrics.0 {
                    values
                        .entry(name)
                        .or_insert((unit, Vec::new()))
                        .1
                        .push(value);
                }
            }
            _ => {
                ok = false;
                println!("seed {seed}: FAILED ({})", output.status);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
            }
        }
    }
    println!(
        "{:<30} {:>12} {:>12} {:>12} {:>8}  unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        if let Some((q1, med, q3)) = stats::quartiles(v) {
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!("{name:<30} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4}  {unit}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
