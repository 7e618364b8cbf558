//! Lightweight per-phase timing instrumentation.
//!
//! Modelled on OAR's `auto_bench_fct` decorator / `benchmarker.rs`: code
//! wraps a phase in [`scope`] (or the [`crate::time_phase!`] macro) and a
//! thread-local registry accumulates call counts and nanoseconds per phase
//! label. Collection is **off by default** and gated on one relaxed atomic
//! load, so instrumented code costs a single branch when disabled — no
//! clock reads, no allocation.
//!
//! The serve layer enables this when configured, wraps each scheduler phase
//! of a batching round, and drains the registry into its status snapshot so
//! `QueryStatus` can attribute round latency to phases.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static REGISTRY: RefCell<Vec<PhaseTiming>> = const { RefCell::new(Vec::new()) };
}

/// Accumulated timing of one named phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase label (e.g. `"drive"`).
    pub phase: String,
    /// Number of times the phase ran.
    pub calls: u64,
    /// Total nanoseconds spent in the phase.
    pub nanos: u64,
}

/// Turns collection on or off (process-wide; registries are per-thread).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` iff collection is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// RAII guard that attributes the elapsed time between its creation and drop
/// to `phase`. Inert (and clock-free) when collection is disabled.
pub struct PhaseGuard {
    start: Option<(&'static str, Instant)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((phase, start)) = self.start.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            REGISTRY.with(|r| {
                let mut reg = r.borrow_mut();
                if let Some(t) = reg.iter_mut().find(|t| t.phase == phase) {
                    t.calls += 1;
                    t.nanos += nanos;
                } else {
                    reg.push(PhaseTiming {
                        phase: phase.to_string(),
                        calls: 1,
                        nanos,
                    });
                }
            });
        }
    }
}

/// Starts timing `phase` on this thread; stops when the guard drops.
pub fn scope(phase: &'static str) -> PhaseGuard {
    PhaseGuard {
        start: enabled().then(|| (phase, Instant::now())),
    }
}

/// Takes this thread's accumulated timings, sorted by phase label, leaving
/// the registry empty. Returns an empty vector when collection is disabled.
pub fn drain() -> Vec<PhaseTiming> {
    REGISTRY.with(|r| {
        let mut out: Vec<PhaseTiming> = r.borrow_mut().drain(..).collect();
        out.sort_by(|a, b| a.phase.cmp(&b.phase));
        out
    })
}

/// Times the enclosed expression under `phase` and evaluates to its value.
///
/// ```
/// mrls_core::timing::set_enabled(true);
/// let x = mrls_core::time_phase!("demo", { 21 * 2 });
/// assert_eq!(x, 42);
/// let t = mrls_core::timing::drain();
/// assert_eq!(t[0].phase, "demo");
/// mrls_core::timing::set_enabled(false);
/// ```
#[macro_export]
macro_rules! time_phase {
    ($phase:expr, $body:expr) => {{
        let _guard = $crate::timing::scope($phase);
        $body
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test (not several) because ENABLED is process-global and the test
    // harness runs tests concurrently.
    #[test]
    fn collection_is_gated_accumulates_and_drains() {
        set_enabled(false);
        let _ = drain();
        let v = crate::time_phase!("off", 1 + 1);
        assert_eq!(v, 2);
        assert!(drain().is_empty());

        set_enabled(true);
        let _ = drain();
        for _ in 0..3 {
            crate::time_phase!("a", std::hint::black_box(0));
        }
        crate::time_phase!("b", std::hint::black_box(0));
        let t = drain();
        set_enabled(false);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].phase, "a");
        assert_eq!(t[0].calls, 3);
        assert_eq!(t[1].phase, "b");
        assert_eq!(t[1].calls, 1);
        assert!(drain().is_empty(), "drain leaves the registry empty");
    }
}
