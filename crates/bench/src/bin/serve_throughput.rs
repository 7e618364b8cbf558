//! **Serving benchmark** — per-round latency of the `mrls-serve` service
//! core, in process (no TCP), in two sweeps. The service end to end over
//! loopback is measured by the repository benchmark (`perfbench`).
//!
//! 1. **Rounds-vs-latency sweep** (`rounds` one-job rounds): the
//!    incremental [`ServiceCore`] and the [`NaiveService`] reference (the
//!    old checkpoint→clone→resume path) driven side by side, timing every
//!    `flush`. Reported per path: p50/p99 over all rounds plus first-decile
//!    vs last-decile medians and their ratio (`growth`) — the
//!    O(history)→O(live) change makes the incremental path flat in the
//!    round index where the naive path grows linearly.
//!
//! 2. **Durability sweep** (`rounds` four-submission rounds): the
//!    steady-state workload against a durable [`ServiceCore`] in each
//!    durability mode (`off` / `buffered` / `fsync`), timing every `flush`
//!    (round latency, same definition as sweep 1) and every submission (the
//!    WAL append of the admitted record rides the submit path, before the
//!    reply). Rounds carry a four-job batch — the coalescing regime the
//!    serve tier exists for; the durable flush appends one round marker
//!    regardless of batch size, so its cost is constant per round (the
//!    one-job worst case for that constant is sweep 1's regime). Reported
//!    per mode: p50/p99 round latency, the round-latency p50 overhead
//!    relative to `off`, the submit p50, and the log volume (bytes,
//!    checkpoints) the run produced. The `buffered` round overhead is the
//!    headline number: the write-through round marker must stay within a
//!    few percent of `off` at p50 (checkpoints ride the cadence and surface
//!    at p99; `fsync` pays a disk sync per record by design).
//!
//! Arguments (`key=value`, optional): `rounds=320` (at least 1).
//! CI-sized smoke: `rounds=120`.
//!
//! Results go to `results/serve_rounds_latency.csv` and
//! `results/serve_durability.csv`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_bench::{emit, Args};
use mrls_model::MoldableJob;
use mrls_serve::{DurabilityMode, NaiveService, ServeConfig, ServiceCore};
use mrls_sim::PolicyKind;
use std::time::{Duration, Instant};

/// The `q`-quantile of a sample (nearest-rank on the sorted copy).
fn percentile(samples: &[Duration], q: f64) -> Duration {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort();
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// A steady-state workload for the rounds sweep: short jobs that complete
/// within a few ticks of their round, so the pending backlog stays bounded
/// while the *history* grows with every round — the regime where the naive
/// path's O(history) world rebuild shows as linear per-round growth and the
/// incremental path stays flat. (Long jobs would grow the backlog itself,
/// and re-planning a growing backlog is O(backlog) on any path.)
fn steady_state_job(round: usize) -> MoldableJob {
    use mrls_model::ExecTimeSpec;
    MoldableJob::new(
        round,
        ExecTimeSpec::Constant {
            time: 0.5 + (round % 7) as f64 * 0.3,
        },
    )
}

/// Times `rounds` one-submission rounds against a service core, returning
/// the per-round flush latencies.
fn time_rounds<S, F>(core: &mut S, rounds: usize, mut step: F) -> Vec<Duration>
where
    F: FnMut(&mut S, MoldableJob) -> Duration,
{
    (0..rounds)
        .map(|r| step(core, steady_state_job(r)))
        .collect()
}

fn rounds_sweep(rounds: usize) {
    let config = ServeConfig {
        capacities: vec![8, 8],
        policy: PolicyKind::ReactiveList,
        ..ServeConfig::default()
    };
    let mut table = ResultTable::new(&[
        "path",
        "policy_instance",
        "rounds",
        "round_p50_us",
        "round_p99_us",
        "early_p50_us",
        "late_p50_us",
        "growth",
    ]);

    // The incremental core keeps ONE policy instance alive across rounds
    // (refreshed with `Policy::on_plan_update`); the naive reference builds
    // a fresh one per round. The column records which mode produced the
    // row, so regressions of the reused-instance path show up in the CSV
    // history: incremental `round_p50_us` must not exceed its pre-reuse
    // numbers (and stays flat where naive grows).
    let mut row = |path: &str, policy_instance: &str, times: Vec<Duration>, completed: u64| {
        assert_eq!(completed, rounds as u64, "{path}: all rounds must complete");
        let decile = (times.len() / 10).max(1);
        let early = percentile(&times[..decile], 0.5);
        let late = percentile(&times[times.len() - decile..], 0.5);
        let growth = late.as_secs_f64() / early.as_secs_f64().max(1e-9);
        println!(
            "{path:>11}  {rounds:>5} rounds  p50 {:>7.1}us  p99 {:>8.1}us  early {:>7.1}us  \
             late {:>8.1}us  growth {growth:>6.2}x  ({policy_instance} policy)",
            percentile(&times, 0.5).as_secs_f64() * 1e6,
            percentile(&times, 0.99).as_secs_f64() * 1e6,
            early.as_secs_f64() * 1e6,
            late.as_secs_f64() * 1e6,
        );
        table.push_row(vec![
            path.to_string(),
            policy_instance.to_string(),
            rounds.to_string(),
            fmt3(percentile(&times, 0.5).as_secs_f64() * 1e6),
            fmt3(percentile(&times, 0.99).as_secs_f64() * 1e6),
            fmt3(early.as_secs_f64() * 1e6),
            fmt3(late.as_secs_f64() * 1e6),
            fmt3(growth),
        ]);
    };

    let mut incremental = ServiceCore::new(config.clone()).expect("a valid serve config");
    let times = time_rounds(&mut incremental, rounds, |core, job| {
        core.submit_job("bench", job, &[]).expect("submit");
        let t = Instant::now();
        core.flush().expect("round");
        t.elapsed()
    });
    let completed = incremental.drain().expect("drain").completed;
    row("incremental", "reused", times, completed);

    let mut naive = NaiveService::new(config);
    let times = time_rounds(&mut naive, rounds, |core, job| {
        core.submit_job("bench", job, &[]).expect("submit");
        let t = Instant::now();
        core.flush().expect("round");
        t.elapsed()
    });
    let completed = naive.drain().expect("drain").completed;
    row("naive", "per-round", times, completed);

    emit("serve_rounds_latency", &table);
}

/// Four-submission rounds per durability mode, timing each submission (it
/// carries the WAL append) and each flush (it carries the round marker and
/// any due checkpoint).
fn durability_sweep(rounds: usize) {
    let mut table = ResultTable::new(&[
        "durability",
        "rounds",
        "checkpoint_every",
        "round_p50_us",
        "round_p99_us",
        "overhead_p50_pct",
        "submit_p50_us",
        "wal_bytes",
        "checkpoints",
    ]);
    let checkpoint_every = 32u64;
    let modes = [
        DurabilityMode::Off,
        DurabilityMode::Buffered,
        DurabilityMode::Fsync,
    ];
    // One core per mode, all alive at once: every round is driven through
    // every core back to back, so all three modes sample the same clock
    // frequency, cache state and background interference. Measuring the
    // modes sequentially instead lets minute-scale machine drift land
    // entirely on one mode and swing the overhead column by more than the
    // effect being measured.
    let mut cores = Vec::new();
    for mode in modes {
        let dir = (mode != DurabilityMode::Off).then(|| {
            std::env::temp_dir().join(format!(
                "mrls-bench-durability-{}-{}",
                mode.label(),
                std::process::id()
            ))
        });
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let config = ServeConfig {
            capacities: vec![8, 8],
            policy: PolicyKind::ReactiveList,
            durability: mode,
            dir: dir.clone(),
            checkpoint_every_rounds: checkpoint_every,
            ..ServeConfig::default()
        };
        let (core, _) = ServiceCore::open(config).expect("open durable core");
        let submits: Vec<Duration> = Vec::with_capacity(rounds * 4);
        let times: Vec<Duration> = Vec::with_capacity(rounds);
        cores.push((mode, dir, core, submits, times));
    }
    // Four-submission rounds: the batch-coalescing regime the serve tier
    // exists for. The durable flush appends ONE round marker regardless of
    // batch size, so this measures the constant per-round record cost
    // against a representative flush; the per-submission Job-record cost is
    // timed separately into `submit_p50_us`. The first rounds are untimed
    // warmup (cold caches, clock ramp-up).
    let batch = 4usize;
    let warmup = 64usize;
    for round in 0..warmup + rounds {
        for (_, _, core, submits, times) in &mut cores {
            for k in 0..batch {
                let job = steady_state_job(round * batch + k);
                let t = Instant::now();
                core.submit_job("bench", job, &[]).expect("submit");
                if round >= warmup {
                    submits.push(t.elapsed());
                }
            }
            let t = Instant::now();
            core.flush().expect("round");
            if round >= warmup {
                times.push(t.elapsed());
            }
        }
    }
    let mut off_p50 = None;
    for (mode, dir, mut core, submits, times) in cores {
        let status = core.durability_status();
        let completed = core.drain().expect("drain").completed;
        assert_eq!(
            completed,
            ((warmup + rounds) * batch) as u64,
            "{}: all submissions complete",
            mode.label()
        );
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }

        let p50 = percentile(&times, 0.5).as_secs_f64() * 1e6;
        let p99 = percentile(&times, 0.99).as_secs_f64() * 1e6;
        let submit_p50 = percentile(&submits, 0.5).as_secs_f64() * 1e6;
        let base = *off_p50.get_or_insert(p50);
        let overhead_pct = (p50 / base.max(1e-9) - 1.0) * 100.0;
        println!(
            "{:>9}  {rounds:>5} rounds  round p50 {p50:>7.1}us  p99 {p99:>8.1}us  overhead {overhead_pct:>+6.1}%  \
             submit p50 {submit_p50:>6.1}us  wal {:>8} bytes  {} checkpoints",
            mode.label(),
            status.wal_bytes,
            status.checkpoints_written,
        );
        table.push_row(vec![
            mode.label().to_string(),
            rounds.to_string(),
            checkpoint_every.to_string(),
            fmt3(p50),
            fmt3(p99),
            fmt3(overhead_pct),
            fmt3(submit_p50),
            status.wal_bytes.to_string(),
            status.checkpoints_written.to_string(),
        ]);
    }
    emit("serve_durability", &table);
}

fn main() {
    let rounds = Args::parse(&["rounds"]).get("rounds", 320usize).max(1);
    rounds_sweep(rounds);
    durability_sweep(rounds);
}
