//! Loopback end-to-end test of the serving contract: an in-process
//! server fed a 3-tenant mixed stream (two DAGs + singleton jobs + one
//! capacity drop) over real TCP must complete every admitted job, produce a
//! feasible realized schedule, and be **byte-identical** across same-order
//! runs.

use mrls_serve::{Client, DrainReport, ServeConfig, Server, DEFAULT_MAX_LINE_BYTES};
use mrls_sim::{PolicyKind, TraceEvent};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use std::time::Duration;

/// Instantiates the mixed 3-tenant stream against a fresh server and drains
/// it. Returns the drain report.
fn run_mixed_stream() -> DrainReport {
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
    let mut carol = Client::connect(addr, "carol").unwrap();

    // Tenant 1: a layered DAG, submitted atomically.
    let dag_a = InstanceRecipe::default_layered(8, 2, 8)
        .generate(1)
        .instance;
    let ids_a = alice
        .submit_dag(dag_a.jobs.clone(), dag_a.dag.edges().collect())
        .unwrap();
    assert_eq!(ids_a.len(), 8);

    // Tenant 2: a second DAG.
    let dag_b = InstanceRecipe::default_layered(6, 2, 8)
        .generate(2)
        .instance;
    let ids_b = bob
        .submit_dag(dag_b.jobs.clone(), dag_b.dag.edges().collect())
        .unwrap();
    assert_eq!(ids_b.len(), 6);

    // Tenant 3: singleton jobs, chained by dependencies on global ids.
    let singles = InstanceRecipe::default_layered(3, 2, 8)
        .generate(3)
        .instance;
    let mut prev: Option<u64> = None;
    for job in singles.jobs.clone() {
        let deps = prev.map(|p| vec![p]).unwrap_or_default();
        prev = Some(carol.submit_job(job, deps).unwrap());
    }

    // One capacity drop lands mid-stream, while earlier rounds still run.
    carol.change_capacity(0, 4).unwrap();

    // More singletons after the drop.
    let late = InstanceRecipe::default_layered(2, 2, 8)
        .generate(4)
        .instance;
    for job in late.jobs.clone() {
        carol.submit_job(job, vec![]).unwrap();
    }

    let report = alice.drain().unwrap();
    alice.shutdown().unwrap();
    handle.join();
    report
}

#[test]
fn mixed_stream_completes_feasibly_and_deterministically() {
    let report = run_mixed_stream();

    // (a) Every admitted job completes.
    assert_eq!(report.submitted, 8 + 6 + 3 + 2);
    assert_eq!(report.completed, report.submitted);
    for (tenant, m) in &report.metrics.tenants {
        assert_eq!(m.completed, m.submitted, "tenant {tenant}");
        assert_eq!(m.scheduled, m.submitted, "tenant {tenant}");
        assert_eq!(m.rejected, 0, "tenant {tenant}");
        assert!(m.stretch >= 0.0 && m.stretch.is_finite(), "tenant {tenant}");
    }
    assert_eq!(report.metrics.tenants.len(), 3);
    assert_eq!(report.metrics.queue_depth, 0);

    // (b) The realized schedule is capacity/precedence feasible (validated
    // server-side with durations relaxed).
    assert!(report.feasible);
    assert!(report.virtual_makespan > 0.0);

    // The capacity drop really happened mid-run, and the policy reacted.
    assert!(report
        .trace
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::CapacityChanged { capacity: 4, .. })));
    assert!(report.trace.stats.num_reschedules > 0);
    // Rounds were spaced by the tick, so arrivals overlap running work.
    assert!(report.metrics.rounds > 1);

    // (c) Same-seed, same-submission-order runs are byte-identical.
    let again = run_mixed_stream();
    assert_eq!(
        serde_json::to_string(&report.metrics).unwrap(),
        serde_json::to_string(&again.metrics).unwrap(),
        "metrics JSON diverged between identical runs"
    );
    assert_eq!(
        report.trace.to_json(),
        again.trace.to_json(),
        "trace JSON diverged between identical runs"
    );
}

#[test]
fn interleaved_clients_all_complete() {
    let handle = Server::spawn(
        ServeConfig {
            capacities: vec![8, 8],
            batch_window: Duration::from_millis(2),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();

    // Three tenants submit concurrently; the interleaving is arbitrary but
    // every admitted job must complete.
    let workers: Vec<_> = (0..3)
        .map(|w| {
            std::thread::spawn(move || {
                let tenant = format!("tenant{w}");
                let mut client = Client::connect(addr, &tenant).unwrap();
                let jobs = InstanceRecipe::default_layered(6, 2, 8)
                    .generate(10 + w)
                    .instance;
                let mut submitted = 0u64;
                let mut prev: Option<u64> = None;
                for job in jobs.jobs.clone() {
                    let deps = prev.map(|p| vec![p]).unwrap_or_default();
                    prev = Some(client.submit_job(job, deps).unwrap());
                    submitted += 1;
                }
                submitted
            })
        })
        .collect();
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, 18);

    let mut client = Client::connect(addr, "driver").unwrap();
    let report = client.drain().unwrap();
    assert_eq!(report.submitted, 18);
    assert_eq!(report.completed, 18);
    assert!(report.feasible);
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn drain_reply_larger_than_the_request_cap_is_read() {
    let handle = Server::spawn(
        ServeConfig {
            capacities: vec![8, 8],
            policy: PolicyKind::ReactiveList,
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(handle.addr(), "bulk").unwrap();
    let n = 4000;
    let jobs = InstanceRecipe {
        system: SystemRecipe::Uniform { d: 2, p: 8 },
        dag: DagRecipe::Independent { n },
        jobs: JobRecipe::default_mixed(),
    }
    .generate(5)
    .instance
    .jobs;
    assert_eq!(client.submit_dag(jobs, vec![]).unwrap().len(), n);

    let report = client.drain().unwrap();
    assert_eq!(report.completed, n as u64);
    assert!(report.feasible);
    // The reply is one line well beyond the server's request-line cap.
    let reply_bytes = serde_json::to_string(&report).unwrap().len();
    assert!(
        reply_bytes > DEFAULT_MAX_LINE_BYTES,
        "drain reply of {reply_bytes} bytes"
    );
    client.shutdown().unwrap();
    handle.join();
}
