//! Soak test for the incremental round state: a long-lived service fed
//! thousands of submissions over many rounds must keep its engine-retained
//! event count bounded (the harvest watermark advances every round) and its
//! per-round service time flat — the O(n²) lifetime cost of the old
//! clone-and-replay path must not creep back in.
//!
//! `#[ignore]`d locally because of its scale; CI runs it at reduced scale
//! (the `serve-soak-smoke` job sets `MRLS_SOAK_SUBMISSIONS`):
//!
//! ```sh
//! MRLS_SOAK_SUBMISSIONS=300 cargo test -p mrls-serve --test soak -- --ignored
//! ```

use mrls_model::{ExecTimeSpec, MoldableJob};
use mrls_serve::{DurabilityMode, ServeConfig, ServiceCore};
use mrls_sim::{PerturbationModel, PolicyKind};
use std::time::Instant;

fn env_scale(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
#[ignore = "soak scale — run explicitly or via the serve-soak-smoke CI job (MRLS_SOAK_SUBMISSIONS scales it down)"]
fn long_lived_service_stays_flat_per_round() {
    let submissions = env_scale("MRLS_SOAK_SUBMISSIONS", 2000);
    let mut core = ServiceCore::new(ServeConfig {
        capacities: vec![8, 8],
        policy: PolicyKind::ReactiveList,
        perturbation: PerturbationModel::Multiplicative { sigma: 0.2 },
        max_pending_jobs: submissions + 1,
        ..ServeConfig::default()
    })
    .unwrap();

    let mut round_times = Vec::with_capacity(submissions);
    let mut peak_retained = 0usize;
    let mut last_watermark = f64::NEG_INFINITY;
    for i in 0..submissions {
        // A light dependency structure: every fourth job chains onto its
        // predecessor, so the DAG keeps growing edges too.
        let deps: Vec<u64> = if i % 4 == 3 {
            vec![i as u64 - 1]
        } else {
            vec![]
        };
        let time = 0.5 + (i % 7) as f64 * 0.3;
        core.submit_job(
            ["a", "b", "c"][i % 3],
            MoldableJob::new(0, ExecTimeSpec::Constant { time }),
            &deps,
        )
        .expect("submission admitted");
        let t0 = Instant::now();
        core.flush().expect("round succeeded");
        round_times.push(t0.elapsed());

        let stats = core.round_state_stats();
        peak_retained = peak_retained.max(stats.retained_events);
        assert!(
            stats.harvested_until >= last_watermark,
            "round {i}: harvest watermark regressed"
        );
        last_watermark = stats.harvested_until;
    }

    // Bounded live state: the engine never holds events across rounds (the
    // harvest empties the retained log every round), so the peak is exactly
    // zero measured *between* rounds — and the checkpoint stays truncated.
    assert_eq!(
        peak_retained, 0,
        "engine retained events across rounds (watermark stopped advancing)"
    );
    let stats = core.round_state_stats();
    assert!(
        stats.archived_events >= submissions,
        "every submission produces at least a release event in the ledger"
    );
    assert!(stats.harvested_until > 0.0, "watermark never advanced");

    // Per-round service time must not trend upward with the round index.
    // Compare robust (median) early vs. late cost with a generous factor so
    // scheduler-noise and CI jitter cannot flake the test: the naive path's
    // linear growth fails this by an order of magnitude at soak scale.
    let eighth = (round_times.len() / 8).max(1);
    let median = |window: &[std::time::Duration]| {
        let mut sorted: Vec<_> = window.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    };
    let early = median(&round_times[..eighth]);
    let late = median(&round_times[round_times.len() - eighth..]);
    let slack = std::time::Duration::from_millis(2);
    assert!(
        late <= early * 4 + slack,
        "per-round service time trends upward: early median {early:?}, late median {late:?}"
    );

    let report = core.drain().expect("drain");
    assert_eq!(report.completed, submissions as u64);
    assert!(report.feasible, "realized trace must validate");
    // The drain report's event log is complete despite the truncation.
    assert_eq!(
        report.trace.events.len(),
        core.round_state_stats().archived_events
    );
}

/// The durable variant: the soak is killed halfway through and recovered
/// from its directory. The recovered core must carry the incremental
/// invariants across the restart — the harvest watermark stays monotone,
/// the engine still retains zero events between rounds, and the per-round
/// service time after recovery is as flat as before the kill (recovery must
/// not reintroduce the clone-and-replay lifetime cost it replaces).
#[test]
#[ignore = "soak scale — run explicitly or via the serve-soak-smoke CI job (MRLS_SOAK_SUBMISSIONS scales it down)"]
fn mid_soak_kill_and_recovery_stays_flat_and_monotone() {
    let submissions = env_scale("MRLS_SOAK_SUBMISSIONS", 2000);
    let dir = std::env::temp_dir().join(format!("mrls-soak-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        capacities: vec![8, 8],
        policy: PolicyKind::ReactiveList,
        perturbation: PerturbationModel::Multiplicative { sigma: 0.2 },
        max_pending_jobs: submissions + 1,
        durability: DurabilityMode::Buffered,
        dir: Some(dir.clone()),
        checkpoint_every_rounds: 64,
        ..ServeConfig::default()
    };
    let (mut core, report) = ServiceCore::open(config()).expect("fresh durable core");
    assert!(report.is_none());

    let kill_at = submissions / 2;
    let mut round_times = Vec::with_capacity(submissions);
    let mut last_watermark = f64::NEG_INFINITY;
    let drive = |core: &mut ServiceCore,
                 range: std::ops::Range<usize>,
                 round_times: &mut Vec<std::time::Duration>,
                 last_watermark: &mut f64| {
        for i in range {
            let deps: Vec<u64> = if i % 4 == 3 {
                vec![i as u64 - 1]
            } else {
                vec![]
            };
            let time = 0.5 + (i % 7) as f64 * 0.3;
            core.submit_job(
                ["a", "b", "c"][i % 3],
                MoldableJob::new(0, ExecTimeSpec::Constant { time }),
                &deps,
            )
            .expect("submission admitted");
            let t0 = Instant::now();
            core.flush().expect("round succeeded");
            round_times.push(t0.elapsed());
            let stats = core.round_state_stats();
            assert_eq!(stats.retained_events, 0, "round {i}: retained events");
            assert!(
                stats.harvested_until >= *last_watermark,
                "round {i}: harvest watermark regressed"
            );
            *last_watermark = stats.harvested_until;
        }
    };

    drive(&mut core, 0..kill_at, &mut round_times, &mut last_watermark);
    drop(core); // kill -9, in-process form

    let (mut core, report) = ServiceCore::recover(config()).expect("recovery");
    assert_eq!(report.truncated_bytes, 0, "a clean kill tears nothing");
    assert!(
        report.checkpoint_round.is_some(),
        "cadence 64 wrote checkpoints before the kill"
    );
    // Monotonicity holds across the restart: the recovered watermark must
    // not sit below where the killed core left it.
    let stats = core.round_state_stats();
    assert!(
        stats.harvested_until >= last_watermark,
        "recovery rewound the harvest watermark"
    );
    drive(
        &mut core,
        kill_at..submissions,
        &mut round_times,
        &mut last_watermark,
    );

    // Flatness across the kill: the same early/late median comparison as the
    // uninterrupted soak, with the late window entirely post-recovery.
    let eighth = (round_times.len() / 8).max(1);
    let median = |window: &[std::time::Duration]| {
        let mut sorted: Vec<_> = window.to_vec();
        sorted.sort();
        sorted[sorted.len() / 2]
    };
    let early = median(&round_times[..eighth]);
    let late = median(&round_times[round_times.len() - eighth..]);
    let slack = std::time::Duration::from_millis(2);
    assert!(
        late <= early * 4 + slack,
        "per-round service time trends upward across recovery: early median {early:?}, late median {late:?}"
    );

    let status = core.durability_status();
    assert_eq!(status.recoveries, 1);
    assert!(status.checkpoints_written >= 1, "post-recovery checkpoints");
    let report = core.drain().expect("drain");
    assert_eq!(report.completed, submissions as u64);
    assert!(report.feasible, "realized trace must validate");
    std::fs::remove_dir_all(&dir).unwrap();
}
