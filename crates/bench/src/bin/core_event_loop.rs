//! **Event-loop benchmark** — the offline list scheduler's indexed event
//! loop ([`ListScheduler::schedule`]: completion heap + persistent ready
//! queue + requirement-floor sweep exit) against the retained pre-index
//! reference ([`ListScheduler::schedule_naive`]: linear min-scan per event,
//! full ready re-sort per pass, `Vec::remove` per start).
//!
//! Two shapes per size (see [`mrls_bench::event_loop`]):
//!
//! * `wide` — one independent layer of `n` unit-allocation jobs on a
//!   machine with capacity `n/8`: the event-heavy regime where the naive
//!   loop degrades to O(n) per completion event;
//! * `deep` — a chain of `n` jobs: running/ready sets of size one, checking
//!   the indexed structures cost nothing where the naive loop was already
//!   cheap.
//!
//! Every configuration first asserts the two paths produce **byte-identical
//! schedule JSON** (so the CI smoke run doubles as an equivalence gate),
//! then reports the median wall time of each over `reps` runs and their
//! ratio. Results go to `results/core_event_loop.csv`.
//!
//! Arguments (`key=value`, all optional): `n=1000,5000,20000 reps=3`.
//! CI-sized smoke: `n=600,1200 reps=2`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_bench::{emit, event_loop};
use mrls_core::{ListScheduler, PriorityRule};
use std::time::Instant;

const ARG_KEYS: &[&str] = &["n", "reps"];

/// Strict `key=value` lookup (same contract as the `mrls` CLI): unknown
/// keys, malformed tokens and unparsable values exit with code 2.
fn args() -> (Vec<usize>, usize) {
    let mut ns = vec![1000usize, 5000, 20000];
    let mut reps = 3usize;
    for a in std::env::args().skip(1) {
        let Some((k, v)) = a.split_once('=') else {
            eprintln!("malformed argument `{a}` (expected key=value)");
            std::process::exit(2);
        };
        if !ARG_KEYS.contains(&k) {
            eprintln!(
                "unknown key `{k}` (expected one of: {})",
                ARG_KEYS.join(", ")
            );
            std::process::exit(2);
        }
        match k {
            "reps" => reps = v.parse().unwrap_or_else(|_| invalid(k, v)),
            _ => {
                ns = v
                    .split(',')
                    .map(|w| w.parse().unwrap_or_else(|_| invalid(k, v)))
                    .collect();
            }
        }
    }
    (ns, reps.max(1))
}

fn invalid(k: &str, v: &str) -> ! {
    eprintln!("invalid value `{v}` for `{k}`");
    std::process::exit(2);
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let (ns, reps) = args();
    let scheduler = ListScheduler::new(PriorityRule::CriticalPath);
    let mut table =
        ResultTable::new(&["shape", "n", "events", "naive_ms", "indexed_ms", "speedup"]);

    type Workload = fn(usize) -> (mrls_model::Instance, Vec<mrls_model::Allocation>);
    for (shape, build) in [
        ("wide", event_loop::wide as Workload),
        ("deep", event_loop::deep as Workload),
    ] {
        for &n in &ns {
            let (instance, decision) = build(n);

            // Equivalence gate first: the indexed loop must be a pure
            // data-structure change.
            let indexed = scheduler
                .schedule(&instance, &decision)
                .expect("indexed schedule");
            let naive = scheduler
                .schedule_naive(&instance, &decision)
                .expect("naive schedule");
            assert_eq!(
                indexed.to_json(),
                naive.to_json(),
                "{shape} n={n}: indexed and naive schedules diverged"
            );

            let indexed_ms = median_ms(reps, || {
                scheduler
                    .schedule(&instance, &decision)
                    .expect("indexed schedule");
            });
            let naive_ms = median_ms(reps, || {
                scheduler
                    .schedule_naive(&instance, &decision)
                    .expect("naive schedule");
            });
            let speedup = naive_ms / indexed_ms.max(1e-9);
            println!(
                "{shape:>4}  n {n:>6}  naive {naive_ms:>9.2}ms  indexed {indexed_ms:>8.2}ms  \
                 speedup {speedup:>7.1}x"
            );
            table.push_row(vec![
                shape.to_string(),
                n.to_string(),
                n.to_string(),
                fmt3(naive_ms),
                fmt3(indexed_ms),
                fmt3(speedup),
            ]);
        }
    }

    emit("core_event_loop", &table);
}
