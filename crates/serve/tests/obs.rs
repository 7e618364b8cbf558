//! End-to-end observability tests: the `QueryMetrics` protocol verb over
//! loopback TCP, byte-identical obs snapshots across same-order runs (with
//! the wall-clock namespace stripped), Prometheus rendering of a live
//! scrape, and Chrome trace-event export of a drained run's realized trace.

use mrls_dag::GraphClass;
use mrls_obs::Snapshot;
use mrls_serve::{Client, DrainReport, ServeConfig, Server};
use mrls_sim::{FailureModel, FailurePlan, PolicyKind, RetryPolicy};
use mrls_workload::InstanceRecipe;
use std::time::Duration;

/// Drives a fixed 2-tenant stream (a lone singleton; two DAGs, one of them
/// general; chained singletons; one validation reject; one capacity drop)
/// against a fresh server and returns the drain report plus the obs snapshot
/// queried right after the drain.
fn run_stream() -> (DrainReport, Snapshot) {
    let handle = Server::spawn(
        ServeConfig {
            capacities: vec![8, 8],
            policy: PolicyKind::FullReschedule,
            batch_window: Duration::ZERO,
            tick: 1.0,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let mut alice = Client::connect(addr, "alice").unwrap();
    let mut bob = Client::connect(addr, "bob").unwrap();

    // A lone singleton first: its round plans a pending set without edges,
    // through the exact independent allocator.
    let lone = InstanceRecipe::default_layered(1, 2, 8)
        .generate(20)
        .instance;
    bob.submit_job(lone.jobs[0].clone(), vec![]).unwrap();

    let dag = InstanceRecipe::default_layered(8, 2, 8)
        .generate(21)
        .instance;
    let ids = alice
        .submit_dag(dag.jobs.clone(), dag.dag.edges().collect())
        .unwrap();
    assert_eq!(ids.len(), 8);

    // A DAG of the general class, which the scheduler plans through the LP
    // relaxation (the one above is not general).
    let general = (40..)
        .map(|seed| {
            InstanceRecipe::default_layered(16, 2, 8)
                .generate(seed)
                .instance
        })
        .find(|i| i.graph_class() == GraphClass::General)
        .expect("random layered DAGs are general with positive probability");
    alice
        .submit_dag(general.jobs.clone(), general.dag.edges().collect())
        .unwrap();

    let singles = InstanceRecipe::default_layered(4, 2, 8)
        .generate(22)
        .instance;
    let mut prev: Option<u64> = None;
    for job in singles.jobs.clone() {
        let deps = prev.map(|p| vec![p]).unwrap_or_default();
        prev = Some(bob.submit_job(job, deps).unwrap());
    }

    // One validation reject: a dependency on an id the server never issued
    // must be refused, and lands in the per-reason reject counter.
    let bad = singles.jobs[0].clone();
    assert!(bob.submit_job(bad, vec![9999]).is_err());

    bob.change_capacity(0, 4).unwrap();

    let report = alice.drain().unwrap();
    let snap = alice.metrics().unwrap();
    alice.shutdown().unwrap();
    handle.join();
    (report, snap)
}

#[test]
fn query_metrics_reflects_the_run_and_is_deterministic() {
    let (report, snap) = run_stream();
    assert_eq!(report.completed, report.submitted);

    // Serve-layer counters agree with the protocol-level metrics.
    assert_eq!(
        snap.counters.get("serve.rounds").copied(),
        Some(report.metrics.rounds)
    );
    assert_eq!(
        snap.counters.get("serve.admitted_jobs").copied(),
        Some(report.submitted)
    );
    assert_eq!(
        snap.counters.get("serve.rejected.validation").copied(),
        Some(1)
    );

    // The instrumented layers below serve all contributed: the scheduling
    // core, the sim engine, and the per-round plan-diff distributions.
    let keys: Vec<&String> = snap.counters.keys().collect();
    assert!(
        keys.iter().any(|k| k.starts_with("core.")),
        "no core counters in {keys:?}"
    );
    assert!(
        keys.iter().any(|k| k.starts_with("sim.engine.")),
        "no engine counters in {keys:?}"
    );
    assert!(snap.histograms.contains_key("serve.plan_diff.updates"));
    assert!(snap.histograms.contains_key("serve.plan_diff.planned"));

    // The general DAG is planned through the LP relaxation, whose solves
    // and pivots (per phase, and those chosen under Bland's rule) are
    // counted.
    for name in [
        "lp.solves",
        "lp.pivots.phase1",
        "lp.pivots.phase2",
        "lp.pivots.bland",
    ] {
        let count = snap.counters.get(name).copied().unwrap_or(0);
        assert!(count > 0, "counter {name} is {count}");
    }
    // Every plan counts the allocator kind it resolved: the LP for the
    // general DAG, the exact allocator for pending sets without edges. It
    // also counts the profiles it built and the points they kept.
    for name in [
        "plan.allocator.lp_rounding",
        "plan.allocator.independent_optimal",
        "plan.profiles.jobs",
        "plan.profiles.points",
    ] {
        let count = snap.counters.get(name).copied().unwrap_or(0);
        assert!(count > 0, "counter {name} is {count}");
    }

    // Wall-clock timings exist but live in their own namespace: one sample
    // per executed round, plus the batch-empty completion rounds a drain
    // runs (timed but not counted as batching rounds).
    let round_us = snap.wall.get("serve.round_us").expect("wall round timing");
    assert!(
        round_us.count >= report.metrics.rounds,
        "{} wall samples < {} rounds",
        round_us.count,
        report.metrics.rounds
    );

    // Same-order reruns are byte-identical once the wall namespace is
    // stripped — the snapshot-determinism invariant pinned in ROADMAP.md.
    let (report2, snap2) = run_stream();
    assert_eq!(
        serde_json::to_string(&report.metrics).unwrap(),
        serde_json::to_string(&report2.metrics).unwrap(),
        "protocol metrics diverged between identical runs"
    );
    assert_eq!(
        snap.deterministic().to_json(),
        snap2.deterministic().to_json(),
        "obs snapshots diverged between identical runs"
    );
}

/// A failure-injected server surfaces the `serve.retry.*` and
/// `serve.quarantine.*` counters in `QueryMetrics`, and they agree exactly
/// with the quarantine contents at drain. Independent singletons only, so
/// there are no cascades and every failed attempt is either retried or
/// terminal: `failed_attempts = retries + quarantined`.
#[test]
fn retry_and_quarantine_counters_reach_query_metrics() {
    let handle = Server::spawn(
        ServeConfig {
            capacities: vec![8, 8],
            batch_window: Duration::ZERO,
            failures: FailurePlan {
                model: FailureModel::Random { prob: 0.5 },
                outages: vec![],
                retry: RetryPolicy {
                    max_attempts: 2,
                    backoff_base: 0.25,
                    backoff_factor: 2.0,
                },
            },
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");

    let mut client = Client::connect(handle.addr(), "t").unwrap();
    let singles = InstanceRecipe::default_layered(12, 2, 8)
        .generate(33)
        .instance;
    for job in singles.jobs.clone() {
        client.submit_job(job, vec![]).unwrap();
    }
    let report = client.drain().unwrap();
    let snap = client.metrics().unwrap();
    let quarantined = client.quarantine().unwrap().len() as u64;
    client.shutdown().unwrap();
    handle.join();

    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    let failed = counter("serve.retry.failed_attempts");
    assert!(
        failed > 0,
        "the 50% failure plan must produce failed attempts"
    );
    assert_eq!(
        counter("serve.quarantine.jobs"),
        quarantined,
        "quarantine counter must equal the quarantine contents"
    );
    assert_eq!(
        failed,
        counter("serve.retry.retries") + quarantined,
        "every failed attempt is either retried or terminal"
    );
    assert_eq!(
        report.completed + quarantined,
        12,
        "completed + quarantined must account for every admitted job"
    );
}

#[test]
fn flight_recorder_over_tcp_is_bounded_and_deterministic() {
    let run_flight = || {
        let handle = Server::spawn(
            ServeConfig {
                capacities: vec![8, 8],
                policy: PolicyKind::FullReschedule,
                batch_window: Duration::ZERO,
                tick: 1.0,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr(), "carol").unwrap();
        let jobs = InstanceRecipe::default_layered(5, 2, 8)
            .generate(31)
            .instance;
        let mut prev: Option<u64> = None;
        for job in jobs.jobs.clone() {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(client.submit_job(job, deps).unwrap());
        }
        let report = client.drain().unwrap();
        let (rounds, total) = client.flight_recorder().unwrap();
        client.shutdown().unwrap();
        handle.join();
        (report, rounds, total)
    };

    let (report, rounds, total) = run_flight();
    assert!(!rounds.is_empty(), "rounds must be recorded");
    assert!(rounds.len() <= mrls_serve::FLIGHT_RECORDER_CAPACITY);
    assert_eq!(total, rounds.len() as u64, "nothing evicted at this scale");
    let last = rounds.last().unwrap();
    assert!(last.drain, "the drain is the last recorded round");
    assert_eq!(last.pending_after, 0, "a drain leaves nothing pending");
    let admitted: u64 = rounds.iter().map(|r| r.admitted_jobs).sum();
    assert_eq!(admitted, report.submitted);
    let completed: u64 = rounds.iter().map(|r| r.completed).sum();
    assert_eq!(completed, report.completed);
    assert!(
        rounds.iter().all(|r| r.events_harvested > 0),
        "every recorded round processed engine events"
    );

    // The deterministic digest projection is byte-identical across
    // same-order reruns; the raw records are not (wall_us is measurement).
    let digest_json = |records: &[mrls_serve::RoundRecord]| {
        let digests: Vec<_> = records.iter().map(|r| r.digest()).collect();
        serde_json::to_string(&digests).unwrap()
    };
    let (_, rounds2, _) = run_flight();
    assert_eq!(
        digest_json(&rounds),
        digest_json(&rounds2),
        "flight digests diverged between identical runs"
    );
}

#[test]
fn live_scrape_renders_valid_prometheus_text() {
    let (_report, snap) = run_stream();
    let text = snap.render_prometheus();
    let samples = mrls_obs::prometheus::validate(&text).expect("valid exposition format");
    assert!(samples > 10, "only {samples} samples:\n{text}");
    assert!(text.contains("# TYPE mrls_serve_rounds counter\n"));
    assert!(text.contains("# TYPE mrls_serve_plan_diff_updates histogram\n"));
    // Wall-clock series are prefix-separated so a scrape can drop them.
    assert!(text.contains("mrls_wall_serve_round_us_count"));
}

#[test]
fn drained_trace_exports_valid_chrome_json() {
    let (report, _snap) = run_stream();
    let text = report.trace.to_chrome_trace_json();
    let doc = mrls_obs::chrome::validate(&text).expect("valid trace-event JSON");
    assert!(
        doc.spans_and_instants >= report.completed as usize,
        "expected at least one span per completed job: {doc:?}"
    );
}
