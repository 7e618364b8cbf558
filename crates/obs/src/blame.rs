//! Blame aggregation: per-category virtual-time totals and the realized
//! critical-path decomposition they assemble into.
//!
//! [`BlameTotals`] is a deterministic (sorted-key) accumulator of virtual
//! time per [`Blame`] label. [`CriticalPathBlame`] is a
//! walk back through the jobs that determined the realized makespan, each
//! step carrying its own blamed segments; because consecutive steps chain at
//! the predecessor's finish time, the summed segment durations telescope to
//! exactly the makespan — the identity [`CriticalPathBlame::sums_to_makespan`]
//! checks and the explain proptests pin.

use crate::span::{Blame, SpanSegment};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Virtual time accumulated per blame category, keyed by the stable
/// [`Blame::label`] so JSON output is sorted and byte-identical across
/// same-seed runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BlameTotals {
    /// Category label → total virtual time.
    pub by_category: BTreeMap<String, f64>,
}

impl BlameTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        BlameTotals::default()
    }

    /// Adds `duration` to `blame`'s bucket (no-op for zero durations, so
    /// empty categories never appear in the output).
    pub fn add(&mut self, blame: Blame, duration: f64) {
        if duration != 0.0 {
            *self.by_category.entry(blame.label()).or_insert(0.0) += duration;
        }
    }

    /// Adds every segment of `segments`.
    pub fn add_segments(&mut self, segments: &[SpanSegment]) {
        for seg in segments {
            self.add(seg.blame, seg.duration());
        }
    }

    /// Sum over all categories.
    pub fn total(&self) -> f64 {
        self.by_category.values().sum()
    }

    /// The total charged to one category (0.0 if absent).
    pub fn get(&self, label: &str) -> f64 {
        self.by_category.get(label).copied().unwrap_or(0.0)
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &BlameTotals) {
        for (k, v) in &other.by_category {
            *self.by_category.entry(k.clone()).or_insert(0.0) += v;
        }
    }
}

/// One job on the realized critical path, with the segments it contributes
/// to the makespan decomposition (its wait since the chaining point plus its
/// execution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathStep {
    /// The job.
    pub job: usize,
    /// When this step's contribution begins (the previous step's finish, or
    /// time zero for the head of the chain).
    pub from: f64,
    /// When the job finished.
    pub finish: f64,
    /// Blamed segments tiling `[from, finish]`.
    pub segments: Vec<SpanSegment>,
}

/// The realized critical path and its exact blame decomposition of the
/// makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathBlame {
    /// Path steps in execution order (chain head first, makespan-determining
    /// job last).
    pub steps: Vec<CriticalPathStep>,
    /// Summed blame over every step's segments.
    pub totals: BlameTotals,
    /// The realized makespan the decomposition must sum to.
    pub makespan: f64,
}

impl CriticalPathBlame {
    /// `true` iff the per-category totals sum to the makespan within `eps` —
    /// the telescoping identity of the path walk.
    pub fn sums_to_makespan(&self, eps: f64) -> bool {
        (self.totals.total() - self.makespan).abs() <= eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_merge_and_skip_zeroes() {
        let mut t = BlameTotals::new();
        t.add(Blame::Execution, 2.0);
        t.add(Blame::Execution, 1.5);
        t.add(Blame::Resource { resource: 0 }, 0.5);
        t.add(Blame::Policy, 0.0);
        assert_eq!(t.by_category.len(), 2, "zero durations never appear");
        assert!((t.total() - 4.0).abs() < 1e-12);
        assert!((t.get("execution") - 3.5).abs() < 1e-12);
        assert_eq!(t.get("policy"), 0.0);

        let mut other = BlameTotals::new();
        other.add(Blame::Precedence, 1.0);
        other.add(Blame::Execution, 0.5);
        t.merge(&other);
        assert!((t.get("execution") - 4.0).abs() < 1e-12);
        assert!((t.get("precedence") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn telescoping_path_sums_to_makespan() {
        let seg = |from: f64, until: f64, blame| SpanSegment { from, until, blame };
        let mut totals = BlameTotals::new();
        let steps = vec![
            CriticalPathStep {
                job: 0,
                from: 0.0,
                finish: 3.0,
                segments: vec![
                    seg(0.0, 1.0, Blame::Admission),
                    seg(1.0, 3.0, Blame::Execution),
                ],
            },
            CriticalPathStep {
                job: 1,
                from: 3.0,
                finish: 7.5,
                segments: vec![
                    seg(3.0, 4.0, Blame::Resource { resource: 1 }),
                    seg(4.0, 7.5, Blame::Execution),
                ],
            },
        ];
        for s in &steps {
            totals.add_segments(&s.segments);
        }
        let cp = CriticalPathBlame {
            steps,
            totals,
            makespan: 7.5,
        };
        assert!(cp.sums_to_makespan(1e-9));
        let json = serde_json::to_string(&cp).unwrap();
        let back: CriticalPathBlame = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back);
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }
}
