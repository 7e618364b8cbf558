//! Collects a run's metrics, prints them by name and unit, and renders the
//! one-line JSON result.

use crate::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// One printed figure.
struct Line {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything one run measured and checked.
pub struct Report {
    header: String,
    lines: Vec<Line>,
    /// The metrics of the JSON result line, in the order of the contract.
    json: Vec<(&'static str, f64, &'static str)>,
    /// Correctness violations; any one makes the run fail.
    violations: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("`{name}` is not a declared metric"))
}

impl Report {
    pub fn new(header: String) -> Self {
        Report {
            header,
            lines: Vec::new(),
            json: Vec::new(),
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// A printed figure; `note` carries the sample count or definition.
    pub fn line(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.lines.push(Line {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// A percentile, printed with the number of samples behind it.
    pub fn pct(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.line(name, value, unit, format!("n={samples}"));
    }

    fn json_metric(
        &mut self,
        table: &[(&'static str, &'static str)],
        name: &str,
        value: f64,
        note: String,
    ) {
        let (name, unit) = unit_of(table, name);
        self.json.push((name, value, unit));
        self.line(name, value, unit, note);
    }

    /// An end-to-end metric of the `--trace 0` JSON line.
    pub fn metric(&mut self, name: &str, value: f64, note: String) {
        self.json_metric(END_TO_END, name, value, note);
    }

    /// A per-layer metric of the `--trace 1` JSON line.
    pub fn layer(&mut self, name: &str, value: f64, note: String) {
        self.json_metric(PER_LAYER, name, value, note);
    }

    /// A correctness violation.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Orders the JSON metrics as the contract lists them: the per-layer
    /// metrics for a traced run, else the end-to-end ones. A per-layer metric
    /// the workload does not exercise reads 0 (that layer did no work); a
    /// missing end-to-end metric is a violation.
    pub fn finish(&mut self, traced: bool) {
        let expected = if traced { PER_LAYER } else { END_TO_END };
        let mut ordered = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            match self.json.iter().find(|m| m.0 == name) {
                Some(m) => ordered.push(*m),
                None if traced => {
                    ordered.push((name, 0.0, unit));
                    self.line(name, 0.0, unit, "not exercised by this workload".into());
                }
                None => {
                    ordered.push((name, f64::NAN, unit));
                    self.violate(format!("metric `{name}` was not measured"));
                }
            }
        }
        self.json = ordered;
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.json.iter().all(|m| m.1.is_finite())
    }

    /// Prints the human-readable report, then the JSON result as the last
    /// line of standard output.
    pub fn print(&mut self) {
        self.line(
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            format!("{} of {} operations", self.failed, self.attempted),
        );
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        for l in &self.lines {
            let _ = writeln!(
                out,
                "  {:<30} {:>14.4} {:<6} {}",
                l.name, l.value, l.unit, l.note
            );
        }
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION: {v}");
        }
        print!("{out}");
        println!("{}", self.json_line());
    }

    fn json_line(&self) -> String {
        let metrics = self
            .json
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN; a non-finite value already failed the run.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}
