//! The serve workloads: open-loop submissions over one loopback connection
//! to an in-process `mrls-serve` server (`Server::spawn` + `Client`), a
//! drain read on the benchmark's own connection, and an in-process replay of
//! the same stream against `ServiceCore`.

use crate::inputs::{self, DagSubmission};
use crate::plan::{layer_figures, replica, PlanCounts};
use crate::report::Report;
use crate::tracer::Tracer;
use crate::{out_dir, peak_rss_mib, stats, Args, SETUP_REPS};
use mrls_core::bounds::combinatorial_lower_bound;
use mrls_core::timing::PhaseTiming;
use mrls_dag::Dag;
use mrls_model::{Instance, MoldableJob, SystemConfig};
use mrls_serve::{
    read_frame, write_message, Client, DrainReport, DurabilityMode, DurabilityStatus,
    MetricsSnapshot, Request, RequestBody, Response, ResponseBody, RetryConfig, ServeConfig,
    Server, ServerHandle, ServiceCore,
};
use mrls_sim::TraceEvent;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `serve-dag`: DAG submissions per second.
const DAG_RATE: f64 = 6.0;
/// `serve-dag`: virtual time per round, about the longest standalone
/// makespan of a submitted DAG, so each DAG is mostly done by the next one.
const DAG_TICK: f64 = 300.0;
/// `serve-dag`: submissions made during set-up, before timing.
const DAG_WARMUP: usize = 9;

/// `serve-jobs`: the nominal rate, first step of the ladder.
const JOBS_NOMINAL_RATE: f64 = 500.0;
/// `serve-jobs`: ratio between successive ladder steps.
const JOBS_STEP_FACTOR: f64 = 1.1;
/// `serve-jobs`: ladder steps above the nominal one at most.
const JOBS_MAX_STEPS: i32 = 8;
/// `serve-jobs`: runs of the nominal step; its submit latencies are the
/// medians of the runs' percentiles.
const JOBS_NOMINAL_REPS: usize = 3;
/// `serve-jobs`: in-process replays of the nominal stream whose rounds are
/// timed; the round latencies are the medians of the replays' percentiles,
/// as one replay's rounds take only about 0.1 s.
const JOBS_REPLAYS: usize = 10;
/// `serve-jobs`: length of one step as a share of `--seconds`.
const JOBS_STEP_SHARE: f64 = 0.1;
/// `serve-jobs`: batching window.
const JOBS_WINDOW: Duration = Duration::from_millis(10);
/// `serve-jobs`: virtual time per round; puts the sustainable rate between
/// the 666/s and 732/s ladder steps.
const JOBS_TICK: f64 = 29.5;
/// `serve-jobs`: submissions made during set-up, at the nominal rate.
const JOBS_WARMUP: usize = 200;
/// `serve-jobs`: a `QueryStatus` backlog probe after every this many
/// submissions.
const JOBS_PROBE_EVERY: usize = 100;
/// `serve-jobs`: the latency limit a ladder step's submit p99 must meet.
const JOBS_P99_LIMIT_MS: f64 = 50.0;

/// Idle `QueryStatus` round trips timed for `serve.transport_us_p50`.
const TRANSPORT_PROBES: usize = 200;

fn config(window: Duration, tick: f64, dir: PathBuf, timing: bool) -> ServeConfig {
    ServeConfig {
        capacities: vec![inputs::P; inputs::D],
        batch_window: window,
        tick,
        durability: DurabilityMode::Buffered,
        dir: Some(dir),
        timing,
        ..ServeConfig::default()
    }
}

/// A durability directory of this process inside the output directory.
fn wal_dir(tag: &str) -> PathBuf {
    out_dir().join(format!("wal-{}-{tag}", std::process::id()))
}

/// A running server and the benchmark's client connection to it.
struct Live {
    handle: ServerHandle,
    client: Client,
    dir: PathBuf,
}

impl Live {
    fn start(cfg: ServeConfig) -> Result<Live, String> {
        let dir = cfg.dir.clone().expect("every benchmark server is durable");
        let _ = std::fs::remove_dir_all(&dir);
        let handle = Server::spawn(cfg, "127.0.0.1:0").map_err(|e| format!("spawn: {e}"))?;
        let client = Client::connect(handle.addr(), "bench")
            .map_err(|e| format!("connect: {e}"))?
            .with_retry(RetryConfig::none());
        Ok(Live {
            handle,
            client,
            dir,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Shuts the server down, joins its threads and removes its log.
    fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.handle.join();
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("removing the log: {e}"))
    }
}

/// Sends `Drain` on a connection of the benchmark's own and reads the reply
/// with `read_frame` at a cap sized to the run: `Client::drain` reads with
/// the 1 MiB default cap, which the report of a few thousand jobs exceeds.
fn drain(addr: SocketAddr, jobs: usize) -> Result<DrainReport, String> {
    let cap = (1 << 20) + jobs * 4096;
    let stream = TcpStream::connect(addr).map_err(|e| format!("drain connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let request = Request {
        id: 1,
        tenant: "bench".into(),
        token: None,
        body: RequestBody::Drain,
    };
    write_message(&mut writer, &request).map_err(|e| format!("drain send: {e}"))?;
    let line = read_frame(&mut reader, cap)
        .map_err(|e| format!("drain receive: {e}"))?
        .ok_or("drain: connection closed")?;
    let response: Response =
        serde_json::from_str(line.trim()).map_err(|e| format!("drain reply: {e}"))?;
    match response.body {
        ResponseBody::Drained { report } => Ok(report),
        ResponseBody::Error { message } => Err(format!("drain: {message}")),
        _ => Err("drain: unexpected reply".into()),
    }
}

fn pending(s: &MetricsSnapshot) -> u64 {
    s.jobs_submitted.saturating_sub(s.jobs_scheduled)
}

/// Waits until `due` (no-op when late) and returns how late the send is, in
/// milliseconds. Sleeps until shortly before `due` and yields for the rest,
/// so the sleep's wake-up slack does not show up as latency.
fn wait_until(due: Instant) -> f64 {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
    ms_between(due, Instant::now())
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// One timed submission.
#[derive(Clone)]
struct Sample {
    /// Global ids the server assigned (empty when refused).
    ids: Vec<u64>,
    /// Index into the workload's input stream.
    input: usize,
    due: Instant,
    /// Due → `Accepted` reply.
    submit_ms: f64,
    /// Due → placement-probe reply (`serve-dag` only).
    place_ms: f64,
    /// Send → placement-probe reply (`serve-dag` only).
    busy_ms: f64,
}

fn refused(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.ids.is_empty()).count() as u64
}

fn admitted(samples: &[Sample]) -> usize {
    samples.iter().map(|s| s.ids.len()).sum()
}

/// Accumulated `ServeConfig::timing` phase totals: `(calls, nanos)`.
#[derive(Default)]
struct Phases(BTreeMap<String, (u64, u64)>);

impl Phases {
    fn add(&mut self, timings: &[PhaseTiming]) {
        for t in timings {
            let e = self.0.entry(t.phase.clone()).or_insert((0, 0));
            e.0 += t.calls;
            e.1 += t.nanos;
        }
    }

    fn nanos(&self, phase: &str) -> f64 {
        self.0.get(phase).map_or(0.0, |p| p.1 as f64)
    }

    fn calls(&self, phase: &str) -> f64 {
        self.0.get(phase).map_or(0.0, |p| p.0 as f64)
    }

    fn total_nanos(&self) -> f64 {
        self.0.values().map(|p| p.1 as f64).sum()
    }
}

/// What a traced window collects beside the samples: spans around every
/// client request, the phase totals every `QueryStatus` reply drains, and
/// the counters at the window's start.
struct Probe {
    tracer: Tracer,
    phases: Phases,
    obs_start: mrls_obs::Snapshot,
    status_start: MetricsSnapshot,
}

impl Probe {
    /// Drains the phase registry and snapshots the counters at the start of
    /// the timed window.
    fn start(live: &mut Live) -> Result<Probe, String> {
        let mut tracer = Tracer::new();
        let status_start = tracer.time("client.status", 0, || live.client.status())?;
        let obs_start = tracer.time("client.metrics", 0, || live.client.metrics())?;
        Ok(Probe {
            tracer,
            phases: Phases::default(),
            obs_start,
            status_start,
        })
    }
}

/// A `QueryStatus`, spanned and phase-summed when traced.
fn status(
    live: &mut Live,
    probe: &mut Option<Probe>,
    request: u64,
) -> Result<MetricsSnapshot, String> {
    Ok(match probe {
        Some(p) => {
            let s = p
                .tracer
                .time("client.status", request, || live.client.status())?;
            p.phases.add(&s.timings);
            s
        }
        None => live.client.status()?,
    })
}

/// Checks a drain (every admitted job completed, the realized schedule is
/// feasible) and returns each sample's flow time: virtual time from its
/// admission round stamp to its last completion (`None` when a job of the
/// submission did not complete, which counts as a failed operation).
fn check_drain(
    drained: &DrainReport,
    admitted: usize,
    samples: &[Sample],
    what: &str,
    report: &mut Report,
) -> Vec<Option<f64>> {
    if drained.completed != drained.submitted || drained.submitted != admitted as u64 {
        report.violate(format!(
            "{what}: {} completed of {} admitted ({} accepted by the benchmark)",
            drained.completed, drained.submitted, admitted
        ));
    }
    if !drained.feasible {
        report.violate(format!("{what}: the realized schedule is infeasible"));
    }
    let finish: BTreeMap<usize, f64> = drained
        .trace
        .realized
        .jobs
        .iter()
        .map(|j| (j.job, j.finish))
        .collect();
    let stamp: BTreeMap<usize, f64> = drained
        .trace
        .events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::JobReleased { time, job } => Some((*job, *time)),
            _ => None,
        })
        .collect();
    samples
        .iter()
        .map(|s| {
            let last = s
                .ids
                .iter()
                .map(|&id| finish.get(&(id as usize)).copied())
                .collect::<Option<Vec<f64>>>()
                .filter(|f| !f.is_empty())
                .map(|f| f.into_iter().fold(f64::MIN, f64::max));
            match last {
                // Jobs released at time zero have no release event.
                Some(last) => Some(last - stamp.get(&(s.ids[0] as usize)).copied().unwrap_or(0.0)),
                None => {
                    report.failed += 1;
                    None
                }
            }
        })
        .collect()
}

/// Drains a live server, checks the drain, and returns the flows and the
/// drain's wall time (ms).
fn drain_live(
    live: &Live,
    samples: &[Sample],
    warmup_jobs: usize,
    report: &mut Report,
) -> Result<(Vec<Option<f64>>, f64), String> {
    let admitted = warmup_jobs + admitted(samples);
    let t = Instant::now();
    let drained = drain(live.addr(), admitted)?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        check_drain(&drained, admitted, samples, "drain", report),
        wall_ms,
    ))
}

/// A submission run alone on the empty machine: the denominator of its
/// flow stretch is this instance's certified lower bound.
fn standalone(jobs: Vec<MoldableJob>, edges: &[(usize, usize)]) -> Result<Instance, String> {
    let system = SystemConfig::uniform(inputs::D, inputs::P).map_err(|e| e.to_string())?;
    let dag = Dag::from_edges(jobs.len(), edges).map_err(|e| e.to_string())?;
    Instance::new(system, dag, jobs).map_err(|e| e.to_string())
}

fn dag_instance(sub: &DagSubmission) -> Result<Instance, String> {
    standalone(sub.jobs.clone(), &sub.edges)
}

fn job_instance(job: &MoldableJob) -> Result<Instance, String> {
    standalone(vec![job.clone()], &[])
}

/// Means of flow ÷ standalone lower bound and of flow over the samples whose
/// jobs all completed.
fn flow_figures(
    samples: &[Sample],
    flows: &[Option<f64>],
    instance: impl Fn(usize) -> Result<Instance, String>,
) -> Result<(f64, f64), String> {
    let (mut stretch, mut flow) = (Vec::new(), Vec::new());
    for (s, f) in samples.iter().zip(flows) {
        if let Some(f) = f {
            let inst = instance(s.input)?;
            let profiles = inst.profiles().map_err(|e| e.to_string())?;
            stretch.push(f / combinatorial_lower_bound(&inst, &profiles).best);
            flow.push(*f);
        }
    }
    Ok((stats::mean(&stretch), stats::mean(&flow)))
}

/// The outcome of an in-process replay.
struct Replayed {
    /// Wall time of each timed `flush` (ms).
    flush_ms: Vec<f64>,
    /// Global ids per replayed submission.
    ids: Vec<Vec<u64>>,
    drained: DrainReport,
}

/// Replays a stream against an in-process `ServiceCore` with the workload's
/// configuration: `steps[k] = (input, flush after it)`; flushes from step
/// `timed_from` on are timed. Ends with a drain.
fn replay(
    tag: &str,
    window: Duration,
    tick: f64,
    steps: &[(usize, bool)],
    timed_from: usize,
    mut submit: impl FnMut(&mut ServiceCore, usize) -> Result<Vec<u64>, String>,
) -> Result<Replayed, String> {
    let dir = wal_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let (mut core, _) = ServiceCore::open(config(window, tick, dir.clone(), false))
        .map_err(|e| format!("replay: {e}"))?;
    let mut flush_ms = Vec::new();
    let mut ids = Vec::with_capacity(steps.len());
    for (k, &(input, flush)) in steps.iter().enumerate() {
        ids.push(submit(&mut core, input)?);
        if flush {
            let t = Instant::now();
            core.flush()?;
            if k >= timed_from {
                flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let drained = core.drain()?;
    drop(core);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing the replay log: {e}"))?;
    Ok(Replayed {
        flush_ms,
        ids,
        drained,
    })
}

/// What the traced window of either serve workload measured.
struct TracedWindow {
    probe: Probe,
    status_end: MetricsSnapshot,
    obs_end: mrls_obs::Snapshot,
    durability: DurabilityStatus,
    drain_ms: f64,
}

/// Closes a traced window: final status and counters, durability status,
/// drain and checks, shutdown.
fn close_traced(
    mut live: Live,
    mut probe: Probe,
    samples: &[Sample],
    warmup_jobs: usize,
    report: &mut Report,
) -> Result<TracedWindow, String> {
    let status_end = probe
        .tracer
        .time("client.status", 0, || live.client.status())?;
    probe.phases.add(&status_end.timings);
    let obs_end = probe
        .tracer
        .time("client.metrics", 0, || live.client.metrics())?;
    let durability = probe
        .tracer
        .time("client.durability", 0, || live.client.durability())?;
    let span = probe.tracer.begin("client.drain", 0);
    let drained = drain_live(&live, samples, warmup_jobs, report);
    probe.tracer.end(span);
    let (_, drain_ms) = drained?;
    live.stop()?;
    Ok(TracedWindow {
        probe,
        status_end,
        obs_end,
        durability,
        drain_ms,
    })
}

/// The serve-side per-layer figures of one traced window.
fn serve_layers(
    report: &mut Report,
    w: &TracedWindow,
    window_s: f64,
    pending: &[f64],
    transport_us: &[f64],
    late_max_ms: f64,
    replay_flush_ms: &[f64],
) {
    let ph = &w.probe.phases;
    let rounds = (w.status_end.rounds - w.probe.status_start.rounds) as f64;
    let jobs = (w.status_end.jobs_submitted - w.probe.status_start.jobs_submitted) as f64;
    let counter = |name: &str| {
        w.obs_end.counters.get(name).copied().unwrap_or(0) as f64
            - w.probe.obs_start.counters.get(name).copied().unwrap_or(0) as f64
    };
    let hist_sum = |name: &str| {
        w.obs_end.histograms.get(name).map_or(0, |h| h.sum) as f64
            - w.probe.obs_start.histograms.get(name).map_or(0, |h| h.sum) as f64
    };
    let per_round_ms = |phase: &str| ph.nanos(phase) / rounds.max(1.0) / 1e6;
    let per_call_us = |phase: &str| ph.nanos(phase) / ph.calls(phase).max(1.0) / 1e3;
    let window = || "in the timed window".to_string();
    report.layer(
        "serve.transport_us_p50",
        stats::percentile(transport_us, 0.5),
        format!("n={} idle QueryStatus round trips", transport_us.len()),
    );
    report.layer(
        "serve.ingest_us",
        per_call_us("ingest"),
        "per submission".into(),
    );
    report.layer("serve.reply_us", per_call_us("reply"), "per request".into());
    report.layer("serve.wal.records", counter("serve.wal.records"), window());
    report.layer(
        "serve.wal.appended_bytes",
        counter("serve.wal.appended_bytes"),
        window(),
    );
    report.layer(
        "serve.wal.checkpoints",
        counter("serve.wal.checkpoints"),
        format!(
            "in the timed window ({} written in all, mode {})",
            w.durability.checkpoints_written, w.durability.mode
        ),
    );
    report.layer("serve.plan_ms", per_round_ms("plan"), "per round".into());
    report.layer("serve.diff_ms", per_round_ms("diff"), "per round".into());
    report.layer(
        "serve.harvest_ms",
        per_round_ms("harvest"),
        "per round".into(),
    );
    report.layer("sim.drive_ms", per_round_ms("drive"), "per round".into());
    report.layer("sim.policy_ms", per_round_ms("policy"), "per round".into());
    report.layer(
        "serve.busy_share",
        ph.total_nanos() / (window_s * 1e9),
        format!("timed phases / {window_s:.2} s window"),
    );
    report.layer("serve.rounds", rounds, window());
    report.layer(
        "serve.jobs_per_round",
        jobs / rounds.max(1.0),
        "admitted / rounds".into(),
    );
    report.layer(
        "serve.plan_update_share",
        hist_sum("serve.plan_diff.updates") / hist_sum("serve.plan_diff.planned").max(1.0),
        "plan updates / planned entries".into(),
    );
    report.layer(
        "sim.engine.events_processed",
        counter("sim.engine.events_processed"),
        window(),
    );
    report.layer(
        "sim.engine.job_starts",
        counter("sim.engine.job_starts"),
        window(),
    );
    report.layer("serve.drain_ms", w.drain_ms, "wall time of Drain".into());
    let n = pending.len();
    report.layer(
        "serve.pending_mean",
        stats::mean(pending),
        format!("n={n} probes"),
    );
    report.layer(
        "serve.pending_max",
        stats::percentile(pending, 1.0),
        format!("n={n} probes"),
    );
    report.layer("bench.gen_late_ms_max", late_max_ms, "traced window".into());
    let n = replay_flush_ms.len();
    report.layer(
        "serve.flush_ms_p50",
        stats::percentile(replay_flush_ms, 0.5),
        format!("n={n} in-process flushes"),
    );
    report.layer(
        "serve.flush_ms_p99",
        stats::percentile(replay_flush_ms, 0.99),
        format!("n={n} in-process flushes"),
    );
}

/// The plan layers, timed from outside on each submission run alone, and
/// the trace file.
fn plan_layers_and_trace(
    report: &mut Report,
    instances: impl Iterator<Item = Result<(u64, Instance), String>>,
    tracer: &Tracer,
    workload: &str,
) -> Result<(), String> {
    let mut counts = PlanCounts::default();
    let mut layer_tracer = Tracer::new();
    mrls_obs::set_enabled(true);
    for item in instances {
        let (request, instance) = item?;
        replica(&mut layer_tracer, &instance, request, &mut counts)?;
    }
    layer_figures(&layer_tracer, &counts, 1, report);
    let path = out_dir().join(format!("trace-{workload}.json"));
    tracer
        .write_chrome(&path, &format!("perfbench {workload}"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.line(
        "spans",
        tracer.len() as f64,
        "count",
        format!("written to {}", path.display()),
    );
    Ok(())
}

/// Idle `QueryStatus` round trips (µs).
fn transport_probe(live: &mut Live) -> Result<Vec<f64>, String> {
    (0..TRANSPORT_PROBES)
        .map(|_| {
            let t = Instant::now();
            live.client.status()?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

// ---------------------------------------------------------------- serve-dag

/// Spawns a `serve-dag` server and warms it up with the first submissions.
fn dag_setup(stream: &[DagSubmission], tag: &str, timing: bool) -> Result<Live, String> {
    let mut live = Live::start(config(Duration::ZERO, DAG_TICK, wal_dir(tag), timing))?;
    for sub in &stream[..DAG_WARMUP] {
        live.client
            .submit_dag(sub.jobs.clone(), sub.edges.clone())?;
        live.client.status()?;
    }
    Ok(live)
}

struct DagPass {
    samples: Vec<Sample>,
    pending: Vec<f64>,
    late_max_ms: f64,
    window_s: f64,
}

impl DagPass {
    fn place_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.place_ms).collect()
    }
}

/// Open loop at `DAG_RATE`: each submission is followed by a `QueryStatus`
/// whose reply, with a zero window, leaves only after that submission's
/// round — the placement probe.
fn dag_pass(
    live: &mut Live,
    stream: &[DagSubmission],
    seconds: f64,
    probe: &mut Option<Probe>,
) -> Result<DagPass, String> {
    let count = ((seconds * DAG_RATE).floor() as usize).max(1);
    let mut samples = Vec::with_capacity(count);
    let mut pending_probes = Vec::with_capacity(count);
    let mut late_max_ms = 0.0f64;
    let t0 = Instant::now() + Duration::from_millis(5);
    for i in 0..count {
        let input = DAG_WARMUP + i;
        let sub = &stream[input];
        let (jobs, edges) = (sub.jobs.clone(), sub.edges.clone());
        let due = t0 + Duration::from_secs_f64(i as f64 / DAG_RATE);
        late_max_ms = late_max_ms.max(wait_until(due));
        let sent = Instant::now();
        let result = match probe {
            Some(p) => p.tracer.time("client.submit", input as u64, || {
                live.client.submit_dag(jobs, edges)
            }),
            None => live.client.submit_dag(jobs, edges),
        };
        let accepted = Instant::now();
        let s = status(live, probe, input as u64)?;
        let placed = Instant::now();
        pending_probes.push(pending(&s) as f64);
        samples.push(Sample {
            ids: result.unwrap_or_default(),
            input,
            due,
            submit_ms: ms_between(due, accepted),
            place_ms: ms_between(due, placed),
            busy_ms: ms_between(sent, placed),
        });
    }
    Ok(DagPass {
        samples,
        pending: pending_probes,
        late_max_ms,
        window_s: t0.elapsed().as_secs_f64(),
    })
}

pub fn run_dag(args: &Args) -> Result<Report, String> {
    let count = DAG_WARMUP + ((args.seconds * DAG_RATE).floor() as usize).max(1);
    let mut report = Report::new(format!(
        "perfbench serve-dag  seed={} seconds={} trace={}\n  open loop on one connection: \
         {DAG_RATE}/s DAG submissions (Cholesky 3/4 tiles, layered 12-20 jobs), each followed \
         by a QueryStatus placement probe; window 0 ms, tick {DAG_TICK}, FullReschedule, \
         buffered durability",
        args.seed, args.seconds, args.trace as u8
    ));
    let mut setups = Vec::new();
    let mut live = None;
    let mut stream = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(l) = live.take() {
            Live::stop(l)?;
        }
        let t = Instant::now();
        stream = inputs::dag_stream(args.seed, count);
        live = Some(dag_setup(&stream, &format!("dag{rep}"), false)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");
    let warmup_jobs: usize = stream[..DAG_WARMUP].iter().map(|s| s.jobs.len()).sum();
    let pass = dag_pass(&mut live, &stream, args.seconds, &mut None)?;
    report.attempted = pass.samples.len() as u64;
    report.failed = refused(&pass.samples);
    let (flows, _) = drain_live(&live, &pass.samples, warmup_jobs, &mut report)?;
    live.stop()?;
    if args.trace {
        return traced_dag(args, &stream, &pass, warmup_jobs, report);
    }

    let (stretch, flow) = flow_figures(&pass.samples, &flows, |i| dag_instance(&stream[i]))?;
    let place = pass.place_ms();
    let submit: Vec<f64> = pass.samples.iter().map(|s| s.submit_ms).collect();
    let jobs = admitted(&pass.samples);
    let busy_s: f64 = pass.samples.iter().map(|s| s.busy_ms).sum::<f64>() / 1e3;
    let n = place.len();
    report.metric(
        "setup_s",
        stats::percentile(&setups, 0.5),
        format!("median of {SETUP_REPS} set-ups"),
    );
    report.metric("peak_rss_mb", peak_rss_mib(), "VmHWM".into());
    report.line(
        "place_jobs_per_s",
        jobs as f64 / busy_s,
        "jobs/s",
        format!("{jobs} jobs / {busy_s:.3} s from send to placement reply"),
    );
    report.metric(
        "jobs_per_s",
        jobs as f64 / busy_s,
        "= place_jobs_per_s".into(),
    );
    let (p50, p90) = (
        stats::percentile(&place, 0.5),
        stats::percentile(&place, 0.9),
    );
    report.pct("place_ms_p50", p50, "ms", n);
    report.pct("place_ms_p90", p90, "ms", n);
    report.metric("latency_p50_ms", p50, "= place_ms_p50".into());
    report.metric("latency_tail_ms", p90, "= place_ms_p90".into());
    report.pct("submit_ms_p50", stats::percentile(&submit, 0.5), "ms", n);
    report.line("flow_vt_mean", flow, "vt", format!("n={n}"));
    report.line(
        "flow_stretch_mean",
        stretch,
        "x",
        "flow / the submission's standalone lower bound".into(),
    );
    report.metric("quality_ratio", stretch, "= flow_stretch_mean".into());
    report.line(
        "bench.gen_late_ms_max",
        pass.late_max_ms,
        "ms",
        format!("over {:.1} s", pass.window_s),
    );
    report.line(
        "serve.pending_mean",
        stats::mean(&pass.pending),
        "jobs",
        format!("max {}", stats::percentile(&pass.pending, 1.0)),
    );
    Ok(report)
}

/// The traced `serve-dag` run, after the untraced pass `base`.
fn traced_dag(
    args: &Args,
    stream: &[DagSubmission],
    base: &DagPass,
    warmup_jobs: usize,
    mut report: Report,
) -> Result<Report, String> {
    let untraced_p50 = stats::percentile(&base.place_ms(), 0.5);
    let mut live = dag_setup(stream, "dag-traced", true)?;
    let transport = transport_probe(&mut live)?;
    let mut probe = Some(Probe::start(&mut live)?);
    let pass = dag_pass(&mut live, stream, args.seconds, &mut probe)?;
    report.attempted += pass.samples.len() as u64;
    report.failed += refused(&pass.samples);
    let probe = probe.expect("traced pass");
    let window = close_traced(live, probe, &pass.samples, warmup_jobs, &mut report)?;
    // In-process replay: a zero window makes every submission its own round.
    let steps: Vec<(usize, bool)> = (0..DAG_WARMUP)
        .chain(pass.samples.iter().map(|s| s.input))
        .map(|i| (i, true))
        .collect();
    let replayed = replay(
        "dag-replay",
        Duration::ZERO,
        DAG_TICK,
        &steps,
        DAG_WARMUP,
        |c, i| c.submit_dag("bench", stream[i].jobs.clone(), &stream[i].edges),
    )?;
    serve_layers(
        &mut report,
        &window,
        pass.window_s,
        &pass.pending,
        &transport,
        pass.late_max_ms,
        &replayed.flush_ms,
    );
    let traced_p50 = stats::percentile(&pass.place_ms(), 0.5);
    report.layer(
        "bench.trace_overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        format!("place_ms_p50 traced {traced_p50:.3} vs untraced {untraced_p50:.3}"),
    );
    let instances = pass
        .samples
        .iter()
        .map(|s| Ok((s.input as u64, dag_instance(&stream[s.input])?)));
    plan_layers_and_trace(&mut report, instances, &window.probe.tracer, "serve-dag")?;
    Ok(report)
}

// --------------------------------------------------------------- serve-jobs

/// One ladder step, run on a server of its own so every step starts from the
/// same history: checkpoints serialise the whole ledger, so a server that
/// already ran the lower steps would lengthen every later step's tail.
struct Step {
    rate: f64,
    samples: Vec<Sample>,
    /// `(seconds since the step started, pending)` backlog probes.
    pending: Vec<(f64, f64)>,
    achieved_rate: f64,
    grew: bool,
    late_max_ms: f64,
    window_s: f64,
}

impl Step {
    fn submit_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.submit_ms).collect()
    }

    fn p99_ms(&self) -> f64 {
        stats::percentile(&self.submit_ms(), 0.99)
    }

    fn passed(&self) -> bool {
        self.p99_ms() <= JOBS_P99_LIMIT_MS && !self.grew
    }
}

/// Whether a step's backlog grew: the least-squares slope of its pending
/// probes, projected over the step, exceeds a fixed slack plus a quarter of
/// one second's submissions. A steady backlog fluctuates around a level; an
/// overloaded one climbs by hundreds of jobs.
fn backlog_grew(pending: &[(f64, f64)], secs: f64, rate: f64) -> bool {
    if pending.len() < 3 {
        return false;
    }
    let n = pending.len() as f64;
    let mt = pending.iter().map(|p| p.0).sum::<f64>() / n;
    let mp = pending.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pending.iter().map(|p| (p.0 - mt) * (p.1 - mp)).sum();
    let var: f64 = pending.iter().map(|p| (p.0 - mt).powi(2)).sum();
    let slope = if var > 0.0 { cov / var } else { 0.0 };
    slope * secs > 32.0 + 0.25 * rate
}

/// Spawns a `serve-jobs` server and warms it up at the nominal rate.
fn jobs_setup(jobs: &[MoldableJob], tag: &str, timing: bool) -> Result<Live, String> {
    let mut live = Live::start(config(JOBS_WINDOW, JOBS_TICK, wal_dir(tag), timing))?;
    let t0 = Instant::now();
    for (i, job) in jobs[..JOBS_WARMUP].iter().enumerate() {
        wait_until(t0 + Duration::from_secs_f64(i as f64 / JOBS_NOMINAL_RATE));
        live.client.submit_job(job.clone(), vec![])?;
    }
    std::thread::sleep(JOBS_WINDOW * 2);
    live.client.status()?;
    Ok(live)
}

/// One step: open loop at `rate` for `secs` (the same jobs on every step),
/// with a backlog probe after every `JOBS_PROBE_EVERY` submissions.
fn jobs_step(
    live: &mut Live,
    jobs: &[MoldableJob],
    rate: f64,
    secs: f64,
    probe: &mut Option<Probe>,
) -> Result<Step, String> {
    let count = (rate * secs).round() as usize;
    let mut samples = Vec::with_capacity(count);
    let mut pending_probes = Vec::new();
    let mut late_max_ms = 0.0f64;
    let t0 = Instant::now() + Duration::from_millis(5);
    for i in 0..count {
        let input = JOBS_WARMUP + i;
        let job = jobs[input].clone();
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        late_max_ms = late_max_ms.max(wait_until(due));
        let result = match probe {
            Some(p) => p.tracer.time("client.submit", input as u64, || {
                live.client.submit_job(job, vec![])
            }),
            None => live.client.submit_job(job, vec![]),
        };
        let accepted = Instant::now();
        samples.push(Sample {
            ids: result.map(|id| vec![id]).unwrap_or_default(),
            input,
            due,
            submit_ms: ms_between(due, accepted),
            place_ms: 0.0,
            busy_ms: 0.0,
        });
        if (i + 1) % JOBS_PROBE_EVERY == 0 || i + 1 == count {
            let s = status(live, probe, input as u64)?;
            pending_probes.push((t0.elapsed().as_secs_f64(), pending(&s) as f64));
        }
    }
    let window_s = t0.elapsed().as_secs_f64();
    Ok(Step {
        rate,
        achieved_rate: count as f64 / window_s,
        grew: backlog_grew(&pending_probes, secs, rate),
        samples,
        pending: pending_probes,
        late_max_ms,
        window_s,
    })
}

/// The in-process replay of warm-up plus one step's jobs, batched by due
/// time: a flush whenever the window opened by a batch's first job closes.
fn jobs_replay(tag: &str, jobs: &[MoldableJob], step: &Step) -> Result<Replayed, String> {
    let t0 = step.samples[0].due;
    // Due times in seconds from the step's start; the warm-up ran at the
    // nominal rate before it.
    let due: Vec<(usize, f64)> = (0..JOBS_WARMUP)
        .map(|i| (i, i as f64 / JOBS_NOMINAL_RATE - 1.0))
        .chain(
            step.samples
                .iter()
                .map(|s| (s.input, s.due.duration_since(t0).as_secs_f64())),
        )
        .collect();
    let window = JOBS_WINDOW.as_secs_f64();
    let mut steps: Vec<(usize, bool)> = Vec::with_capacity(due.len());
    let mut opened: Option<f64> = None;
    for (k, &(input, t)) in due.iter().enumerate() {
        let o = *opened.get_or_insert(t);
        let closes = due.get(k + 1).is_none_or(|&(_, next)| next >= o + window);
        steps.push((input, closes));
        if closes {
            opened = None;
        }
    }
    replay(tag, JOBS_WINDOW, JOBS_TICK, &steps, JOBS_WARMUP, |c, i| {
        c.submit_job("bench", jobs[i].clone(), &[])
            .map(|id| vec![id])
    })
}

/// Runs one step on a fresh server (set-up time pushed to `setups`),
/// drains and checks it.
fn fresh_step(
    jobs: &[MoldableJob],
    rate: f64,
    secs: f64,
    tag: &str,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Result<Step, String> {
    let t = Instant::now();
    let live = jobs_setup(jobs, tag, false)?;
    setups.push(t.elapsed().as_secs_f64());
    run_step(live, jobs, rate, secs, report)
}

fn run_step(
    mut live: Live,
    jobs: &[MoldableJob],
    rate: f64,
    secs: f64,
    report: &mut Report,
) -> Result<Step, String> {
    let step = jobs_step(&mut live, jobs, rate, secs, &mut None)?;
    report.attempted += step.samples.len() as u64;
    report.failed += refused(&step.samples);
    drain_live(&live, &step.samples, JOBS_WARMUP, report)?;
    live.stop()?;
    Ok(step)
}

pub fn run_jobs(args: &Args) -> Result<Report, String> {
    let secs = JOBS_STEP_SHARE * args.seconds;
    let top_rate = JOBS_NOMINAL_RATE * JOBS_STEP_FACTOR.powi(JOBS_MAX_STEPS);
    let count = JOBS_WARMUP + (top_rate * secs).ceil() as usize + 1;
    let mut report = Report::new(format!(
        "perfbench serve-jobs  seed={} seconds={} trace={}\n  open loop on one connection: \
         singleton jobs on a x{JOBS_STEP_FACTOR} ladder from {JOBS_NOMINAL_RATE}/s, {secs} s \
         per step on a fresh server ({JOBS_NOMINAL_REPS} nominal steps), QueryStatus \
         every {JOBS_PROBE_EVERY}; window {} ms, tick {JOBS_TICK}, FullReschedule, buffered \
         durability, checkpoint every 32 rounds; a step passes with submit p99 <= \
         {JOBS_P99_LIMIT_MS} ms and no backlog growth",
        args.seed,
        args.seconds,
        args.trace as u8,
        JOBS_WINDOW.as_millis()
    ));
    let mut setups = Vec::new();
    let mut live = None;
    let mut jobs = Vec::new();
    for rep in 0..SETUP_REPS {
        if let Some(l) = live.take() {
            Live::stop(l)?;
        }
        let t = Instant::now();
        jobs = inputs::job_stream(args.seed, count);
        live = Some(jobs_setup(&jobs, &format!("jobs{rep}"), false)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let live = live.expect("at least one set-up");
    if args.trace {
        return traced_jobs(live, &jobs, secs, report);
    }

    let mut nominal = vec![run_step(live, &jobs, JOBS_NOMINAL_RATE, secs, &mut report)?];
    for rep in 1..JOBS_NOMINAL_REPS {
        let tag = format!("nominal{rep}");
        nominal.push(fresh_step(
            &jobs,
            JOBS_NOMINAL_RATE,
            secs,
            &tag,
            &mut setups,
            &mut report,
        )?);
    }
    // The ladder's overloaded steps are not part of the footprint.
    let rss = peak_rss_mib();
    let per_rep = |q: f64| -> Vec<f64> {
        nominal
            .iter()
            .map(|s| stats::percentile(&s.submit_ms(), q))
            .collect()
    };
    let (p50, p99) = (
        stats::percentile(&per_rep(0.5), 0.5),
        stats::percentile(&per_rep(0.99), 0.5),
    );
    // The nominal rate holds when most of its runs pass.
    let nominal_passed = 2 * nominal.iter().filter(|s| s.passed()).count() > nominal.len();

    // Round latency and allocation quality from in-process replays of the
    // nominal stream: the same rounds every time, without TCP or thread
    // hand-offs, so only the rounds' own cost varies.
    let mut replay_p50 = Vec::new();
    let mut replay_p90 = Vec::new();
    let mut rounds = 0;
    for k in 0..JOBS_REPLAYS {
        let round_ms = jobs_replay(&format!("replay{k}"), &jobs, &nominal[0])?.flush_ms;
        replay_p50.push(stats::percentile(&round_ms, 0.5));
        replay_p90.push(stats::percentile(&round_ms, 0.9));
        rounds = round_ms.len();
    }
    let replayed = jobs_replay("quality", &jobs, &nominal[0])?;
    let samples: Vec<Sample> = nominal[0]
        .samples
        .iter()
        .zip(&replayed.ids[JOBS_WARMUP..])
        .map(|(s, ids)| Sample {
            ids: ids.clone(),
            ..s.clone()
        })
        .collect();
    let admitted_jobs = JOBS_WARMUP + admitted(&samples);
    let flows = check_drain(
        &replayed.drained,
        admitted_jobs,
        &samples,
        "replay drain",
        &mut report,
    );
    let (stretch, flow) = flow_figures(&samples, &flows, |i| job_instance(&jobs[i]))?;

    // Up the ladder to the first failing step, then once between that step
    // and the last passing one. A step that fails is run once more, so one
    // stall of the machine does not end the ladder.
    let mut ladder: Vec<Step> = Vec::new();
    let mut max_rate = 0.0;
    let mut attempt =
        |rate: f64, tag: &str, ladder: &mut Vec<Step>| -> Result<Option<f64>, String> {
            for _ in 0..2 {
                let step = fresh_step(&jobs, rate, secs, tag, &mut setups, &mut report)?;
                let achieved = step.passed().then_some(step.achieved_rate);
                ladder.push(step);
                if achieved.is_some() {
                    return Ok(achieved);
                }
            }
            Ok(None)
        };
    if nominal_passed {
        let rates: Vec<f64> = nominal.iter().map(|s| s.achieved_rate).collect();
        max_rate = stats::percentile(&rates, 0.5);
        let mut last_pass = JOBS_NOMINAL_RATE;
        for k in 1..=JOBS_MAX_STEPS {
            let rate = JOBS_NOMINAL_RATE * JOBS_STEP_FACTOR.powi(k);
            match attempt(rate, &format!("step{k}"), &mut ladder)? {
                Some(achieved) => {
                    max_rate = achieved;
                    last_pass = rate;
                }
                None => {
                    let mid = (last_pass * rate).sqrt();
                    if let Some(achieved) = attempt(mid, "mid", &mut ladder)? {
                        max_rate = achieved;
                    }
                    break;
                }
            }
        }
    }

    report.metric(
        "setup_s",
        stats::percentile(&setups, 0.5),
        format!("median of {} set-ups", setups.len()),
    );
    report.metric("peak_rss_mb", rss, "VmHWM after the nominal steps".into());
    for s in nominal.iter().chain(&ladder) {
        report.line(
            format!("step {:.0}/s", s.rate),
            s.achieved_rate,
            "1/s",
            format!(
                "p99 {:.3} ms (n={}), late max {:.2} ms, pending {:?}{}",
                s.p99_ms(),
                s.samples.len(),
                s.late_max_ms,
                s.pending.iter().map(|p| p.1 as u64).collect::<Vec<_>>(),
                if s.passed() { "" } else { "  FAILED" }
            ),
        );
    }
    report.line(
        "max_rate_per_s",
        max_rate,
        "1/s",
        "achieved rate of the highest passing step".into(),
    );
    report.metric("jobs_per_s", max_rate, "= max_rate_per_s".into());
    let n = nominal[0].samples.len();
    let note = format!("median over {JOBS_NOMINAL_REPS} nominal steps of n={n}");
    report.line("submit_ms_p50", p50, "ms", note.clone());
    report.line("submit_ms_p99", p99, "ms", note);
    let (r50, r90) = (
        stats::percentile(&replay_p50, 0.5),
        stats::percentile(&replay_p90, 0.5),
    );
    let note = format!("median over {JOBS_REPLAYS} replays of n={rounds} rounds");
    report.line("round_ms_p50", r50, "ms", note.clone());
    report.line("round_ms_p90", r90, "ms", note);
    report.metric(
        "latency_p50_ms",
        r50,
        "= round_ms_p50 (in-process replays)".into(),
    );
    report.metric(
        "latency_tail_ms",
        r90,
        "= round_ms_p90 (in-process replays)".into(),
    );
    report.line(
        "flow_vt_mean",
        flow,
        "vt",
        format!("n={} (replayed nominal step)", samples.len()),
    );
    report.line(
        "flow_stretch_mean",
        stretch,
        "x",
        "flow / the job's standalone lower bound".into(),
    );
    report.metric("quality_ratio", stretch, "= flow_stretch_mean".into());
    report.line(
        "bench.gen_late_ms_max",
        nominal
            .iter()
            .chain(&ladder)
            .map(|s| s.late_max_ms)
            .fold(0.0, f64::max),
        "ms",
        "over all steps".into(),
    );
    Ok(report)
}

/// The traced `serve-jobs` run: an untraced and a traced nominal step, so
/// the per-layer figures describe the nominal rate.
fn traced_jobs(
    live: Live,
    jobs: &[MoldableJob],
    secs: f64,
    mut report: Report,
) -> Result<Report, String> {
    let base = run_step(live, jobs, JOBS_NOMINAL_RATE, secs, &mut report)?;
    let untraced_p50 = stats::percentile(&base.submit_ms(), 0.5);
    let mut live = jobs_setup(jobs, "jobs-traced", true)?;
    let transport = transport_probe(&mut live)?;
    let mut probe = Some(Probe::start(&mut live)?);
    let step = jobs_step(&mut live, jobs, JOBS_NOMINAL_RATE, secs, &mut probe)?;
    report.attempted += step.samples.len() as u64;
    report.failed += refused(&step.samples);
    let probe = probe.expect("traced step");
    let window = close_traced(live, probe, &step.samples, JOBS_WARMUP, &mut report)?;
    let replayed = jobs_replay("jobs-replay", jobs, &step)?;
    let pending: Vec<f64> = step.pending.iter().map(|p| p.1).collect();
    serve_layers(
        &mut report,
        &window,
        step.window_s,
        &pending,
        &transport,
        step.late_max_ms,
        &replayed.flush_ms,
    );
    let traced_p50 = stats::percentile(&step.submit_ms(), 0.5);
    report.layer(
        "bench.trace_overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        format!("nominal submit_ms_p50 traced {traced_p50:.3} vs untraced {untraced_p50:.3}"),
    );
    let instances = step
        .samples
        .iter()
        .map(|s| Ok((s.input as u64, job_instance(&jobs[s.input])?)));
    plan_layers_and_trace(&mut report, instances, &window.probe.tracer, "serve-jobs")?;
    Ok(report)
}
