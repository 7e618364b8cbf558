//! The service core: a growing world of submitted jobs executed by the
//! `mrls-sim` virtual-time engine, one batching round at a time.
//!
//! Each flushed batch becomes one **round**: the new jobs and capacity
//! changes are stamped with a single virtual time (`max(engine now, round ×
//! tick)` — deterministic in the submission order, never wall clock), fed
//! through a long-lived [`ChannelFeeder`], and a **persistent**
//! [`SimRun`] is driven forward. Pending jobs are (re-)planned with
//! the paper's two-phase scheduler against the machine's *current*
//! capacities; the planner output is diffed against the in-flight plan
//! (`mrls_core::diff_plan_entries`) so unchanged placements are not
//! re-applied. After every round the engine's processed events are
//! **harvested** into the metrics layer's [`EventLedger`], so the retained
//! engine state — and any checkpoint of it — stays O(live) instead of
//! O(history): per-round cost is flat in the round index where the old
//! clone-and-replay path (kept as [`crate::naive::NaiveService`], the
//! executable reference the differential tests compare against) degraded
//! linearly.
//!
//! [`ServiceCore::drain`] runs the engine to completion and reports the
//! realized trace — ledger archive plus retained suffix, byte-identical to
//! the naive path's — validated for capacity/precedence feasibility.

use crate::flight::{FlightRecorder, RoundRecord};
use crate::ingest::DedupWindow;
use crate::ingest::{Batch, IngestQueue};
use crate::metrics::{EventLedger, MetricsRegistry, MetricsSnapshot, RejectReason};
use crate::protocol::QuarantineEntry;
use crate::protocol::{DrainReport, DEFAULT_MAX_LINE_BYTES};
use crate::wal::{
    list_checkpoints, scan_wal, wal_path, DurabilityMode, DurabilityStatus, RecoverError,
    RecoveryReport, WalOp, WalRecord, WalWriter,
};
use mrls_analysis::{validate_schedule_with, ValidationOptions};
use mrls_core::{diff_plan_entries, MrlsConfig, MrlsScheduler, Schedule, ScheduledJob};
use mrls_dag::Dag;
use mrls_model::{Allocation, Instance, MoldableJob, SystemConfig};
use mrls_sim::{
    ChannelFeeder, ChannelSource, FailCause, FailurePlan, PerturbationModel, Policy, PolicyKind,
    RealizedTrace, SimRun, SimSnapshot, TraceEvent,
};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration of the scheduling service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Initial per-type capacities of the machine.
    pub capacities: Vec<u64>,
    /// Reaction policy driven inside each round.
    pub policy: PolicyKind,
    /// Batching window: how long admitted work may wait before its round
    /// starts (zero = every submission is its own round).
    pub batch_window: Duration,
    /// Virtual time that passes per batching round (spaces out the arrival
    /// stamps of successive rounds so rounds overlap with running work).
    pub tick: f64,
    /// Admission limit: maximum jobs queued for the next round before
    /// submissions are refused with a backpressure reply.
    pub max_pending_jobs: usize,
    /// Maximum byte length of one protocol line.
    pub max_line_bytes: usize,
    /// Seed of the perturbation stream.
    pub seed: u64,
    /// Stochastic execution-time model applied to job starts.
    pub perturbation: PerturbationModel,
    /// Configuration of the two-phase scheduler used to plan pending jobs.
    pub scheduler: MrlsConfig,
    /// Collect per-phase wall-clock timings of each round and expose them in
    /// status snapshots. Off by default: timings are non-deterministic, and
    /// the differential byte-identity guarantee only covers snapshots with
    /// the (empty) default.
    pub timing: bool,
    /// How the write-ahead log is persisted (off by default — no log, no
    /// recovery, the pre-durability behaviour). Takes effect only when
    /// [`ServeConfig::dir`] names a durability directory.
    pub durability: DurabilityMode,
    /// The durability directory: holds `wal.log` plus rotating checkpoint
    /// files. `None` (the default) disables durability regardless of the
    /// mode.
    pub dir: Option<PathBuf>,
    /// Checkpoint cadence: a checkpoint is written after every this-many
    /// rounds (and after every drain). Zero = checkpoint only at drains.
    pub checkpoint_every_rounds: u64,
    /// Deterministic failure injection: the seeded fault model, resource
    /// outages and the bounded-retry policy installed into the engine.
    /// [`FailurePlan::none`] (the default) keeps every pre-failure behaviour
    /// byte-identical. Requires a reactive `policy` when failures are
    /// enabled — a static cursor policy deadlocks on a job in backoff.
    pub failures: FailurePlan,
    /// Overload guard: when `Some(n)` and the scheduler's in-flight backlog
    /// (admitted, not started, not abandoned) has reached `n` jobs, further
    /// submissions are shed with a typed overload rejection instead of being
    /// queued. `None` (the default) never sheds.
    pub overload_high_water: Option<usize>,
    /// Idempotency dedup window: how many recently *accepted* submit tokens
    /// the core remembers for exactly-once admission of client retries.
    /// Zero disables dedup.
    pub dedup_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacities: vec![16, 16, 16],
            policy: PolicyKind::FullReschedule,
            batch_window: Duration::from_millis(20),
            tick: 1.0,
            max_pending_jobs: 4096,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            seed: 0,
            perturbation: PerturbationModel::None,
            scheduler: MrlsConfig::default(),
            timing: false,
            durability: DurabilityMode::Off,
            dir: None,
            checkpoint_every_rounds: 32,
            failures: FailurePlan::none(),
            overload_high_water: None,
            dedup_window: 64,
        }
    }
}

/// One admitted job and the tenant it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WorldJob {
    pub(crate) tenant: String,
    pub(crate) job: MoldableJob,
}

/// Cheap submission-time validation of a job description against a
/// `d`-resource machine. Shared by the incremental core and the naive
/// reference so rejection replies stay byte-identical.
pub(crate) fn validate_spec(d: usize, job: &MoldableJob) -> Result<(), String> {
    if let Some(dim) = job.spec.dimension() {
        if dim != d {
            return Err(format!(
                "job `{}` is specified for {dim} resource types but the machine has {d}",
                job.name
            ));
        }
    }
    let probe = Allocation::new(vec![1; d]);
    let t = job.spec.time(&probe);
    if !t.is_finite() || t <= 0.0 {
        return Err(format!(
            "job `{}` has invalid execution time {t} under the unit allocation",
            job.name
        ));
    }
    Ok(())
}

/// Plans fresh placements for the given pending (unstarted) jobs of
/// `instance` against the machine's *current* capacities, stamped at round
/// time `t`. Entry `i` of the result describes global job `pending[i]`. On
/// scheduler failure, falls back to serialising the pending jobs on unit
/// allocations (always feasible — capacities stay >= 1) and counts the
/// fallback in `serve.plan.fallbacks`.
///
/// Shared by the incremental core and the naive reference: both must feed
/// the engine bit-identical placements for the differential guarantee.
pub(crate) fn plan_pending(
    instance: &Instance,
    capacities_now: &[u64],
    pending: &[usize],
    t: f64,
    config: &MrlsConfig,
) -> Result<Vec<ScheduledJob>, String> {
    if pending.is_empty() {
        return Ok(Vec::new());
    }
    let (sub_dag, mapping) = instance.dag.induced_subgraph_sorted(pending);
    let sub_jobs: Vec<MoldableJob> = mapping
        .iter()
        .map(|&old| instance.jobs[old].clone())
        .collect();
    let system = SystemConfig::new(capacities_now.to_vec()).map_err(|e| e.to_string())?;
    let sub_instance = Instance::new(system, sub_dag, sub_jobs).map_err(|e| e.to_string())?;
    match MrlsScheduler::new(config.clone()).schedule(&sub_instance) {
        Ok(result) => {
            let mut entries: Vec<Option<ScheduledJob>> = vec![None; pending.len()];
            for sj in &result.schedule.jobs {
                entries[sj.job] = Some(ScheduledJob {
                    job: mapping[sj.job],
                    start: t + sj.start,
                    finish: t + sj.finish,
                    alloc: sj.alloc.clone(),
                });
            }
            Ok(entries
                .into_iter()
                .map(|e| e.expect("the scheduler covers every pending job"))
                .collect())
        }
        Err(e) => {
            mrls_obs::counter_add("serve.plan.fallbacks", 1);
            mrls_obs::counter_add(mrls_core::cause_counter!("serve.plan.fallbacks", &e), 1);
            let d = instance.num_resource_types();
            let mut clock = t;
            Ok(pending
                .iter()
                .map(|&old| {
                    let alloc = Allocation::new(vec![1; d]);
                    let dur = instance.jobs[old].spec.time(&alloc).max(1e-9);
                    let entry = ScheduledJob {
                        job: old,
                        start: clock,
                        finish: clock + dur,
                        alloc,
                    };
                    clock += dur;
                    entry
                })
                .collect())
        }
    }
}

/// A NaN-stamped placeholder entry for a job appended to the running world
/// before its first planning; bit-compare-never-equal, so the next plan diff
/// always installs the real placement.
fn placeholder_entry(job: usize, d: usize) -> ScheduledJob {
    ScheduledJob {
        job,
        start: f64::NAN,
        finish: f64::NAN,
        alloc: Allocation::new(vec![1; d]),
    }
}

/// The checkpoint artefact of the durability layer: everything a fresh
/// process needs to rebuild a [`ServiceCore`] byte-identical to the one that
/// wrote it, without replaying the covered log prefix. `wal_seq` is the
/// log-position watermark — the first `wal_seq` records of `wal.log` are
/// already folded into this state, replay starts after them.
///
/// Checkpoints are written right after a round, when the ingest queue is
/// provably empty (the round took the batch and the core is single-threaded),
/// so no in-flight admissions need serialising. The pending/needs-sync
/// frontiers are recomputed from the snapshot's started flags at restore, the
/// same way the in-memory checkpoint/restore path
/// ([`ServiceCore::restore_engine_json`]) does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DurableState {
    /// Log position (records) this state already covers.
    wal_seq: u64,
    /// Fingerprint of the determinism-relevant configuration the state was
    /// produced under (capacities, policy, tick, admission limit, seed,
    /// perturbation, scheduler). A recovery under a different configuration
    /// would silently diverge, so it is refused instead.
    config_digest: u64,
    /// Every admitted job, with its tenant.
    world: Vec<WorldJob>,
    /// Every admitted precedence edge.
    edges: Vec<(usize, usize)>,
    /// Current per-type capacities.
    capacities_now: Vec<u64>,
    /// High-water capacities (the engine system's bounds).
    capacities_max: Vec<u64>,
    /// The engine's truncated checkpoint.
    snapshot: SimSnapshot,
    /// FNV fingerprint of `snapshot` — cross-checked at restore so a
    /// corrupted-but-parsable checkpoint is refused rather than resumed.
    engine_digest: u64,
    /// The harvested-event archive.
    ledger_events: Vec<TraceEvent>,
    /// The ledger's harvest watermark.
    ledger_watermark: f64,
    /// The per-tenant metrics registry, verbatim.
    metrics: MetricsRegistry,
    /// The flight recorder's retained ring.
    flight_records: Vec<RoundRecord>,
    /// Rounds ever recorded by the flight recorder.
    flight_total: u64,
    /// Rounds executed.
    rounds: u64,
    /// Virtual time of the service.
    virtual_now: f64,
    /// Plan-diff counter: entries re-applied.
    plan_updates_applied: u64,
    /// Plan-diff counter: entries kept.
    plan_entries_unchanged: u64,
    /// World jobs the engine was grown to.
    grown: usize,
    /// World edges the engine's DAG was grown to.
    edge_cursor: usize,
    /// Recoveries performed before this state was written.
    recoveries: u64,
    /// Invalid-tail bytes cut by those recoveries.
    truncated_bytes: u64,
    /// The poison quarantine, oldest entry first.
    quarantine: Vec<QuarantineEntry>,
    /// The idempotency dedup window, verbatim.
    dedup: DedupWindow,
}

impl DurableState {
    fn to_json(&self) -> String {
        serde_json::to_string(self).expect("durable state is always serialisable")
    }

    fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// Fingerprint of the configuration fields that determine the core's
/// deterministic outputs. Wall-clock knobs (batch window, line cap, timing)
/// are excluded: they shape *when* rounds happen, which the log records
/// explicitly, not what a round produces.
fn config_digest(config: &ServeConfig) -> u64 {
    let key = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        config.capacities,
        config.policy,
        config.tick,
        config.max_pending_jobs,
        config.seed,
        config.perturbation,
        config.scheduler,
        config.failures,
        config.overload_high_water,
        config.dedup_window,
    );
    mrls_core::hash::fnv1a64(key.as_bytes())
}

/// The obs counter a rejection of the given kind increments.
fn reject_counter(reason: RejectReason) -> &'static str {
    match reason {
        RejectReason::Backpressure => "serve.rejected.backpressure",
        RejectReason::Validation => "serve.rejected.validation",
        RejectReason::Overload => "serve.rejected.overload",
    }
}

/// Introspection counters of the incremental round state (for soak tests and
/// benches; not part of the protocol-visible metrics, which stay
/// byte-identical with the naive reference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStateStats {
    /// Trace events currently retained inside the engine (post-harvest this
    /// is zero between rounds — the bounded-live-state invariant).
    pub retained_events: usize,
    /// Events archived in the ledger over the service's lifetime.
    pub archived_events: usize,
    /// Virtual-time watermark up to which events were harvested.
    pub harvested_until: f64,
    /// Plan entries re-applied after diffing (placements that changed).
    pub plan_updates_applied: u64,
    /// Plan entries skipped as bit-identical to the in-flight plan.
    pub plan_entries_unchanged: u64,
}

/// The service core. Owns the world (every admitted job and edge), one
/// **persistent** engine run carried across rounds, the harvested-event
/// ledger, the ingest queue and the metrics registry. Free of I/O — the TCP
/// layer in [`crate::Server`] drives it, and tests can call it directly.
#[derive(Debug)]
pub struct ServiceCore {
    config: ServeConfig,
    world: Vec<WorldJob>,
    edges: Vec<(usize, usize)>,
    capacities_now: Vec<u64>,
    capacities_max: Vec<u64>,
    /// The live engine world, created at the first round and kept across
    /// rounds (never cloned, never replayed).
    run: Option<SimRun>,
    /// The **persistent policy instance** driven inside every round: built
    /// once, refreshed between rounds with the incremental
    /// [`Policy::on_plan_update`] hook over the pending frontier — O(live)
    /// per round where building and `on_start`-ing a fresh instance was
    /// O(world).
    policy: Box<dyn Policy>,
    /// The long-lived event channel feeding the run.
    feed: Option<(ChannelFeeder, ChannelSource)>,
    /// Archive of events harvested out of the engine.
    ledger: EventLedger,
    /// Unstarted job ids, sorted ascending (the re-planning frontier).
    pending: Vec<usize>,
    /// Jobs started in earlier rounds whose realized placements are not yet
    /// frozen into the plan (synced at the start of the next round, so the
    /// plan stays fixed during a drive — exactly what the naive rebuild
    /// would install).
    needs_sync: Vec<usize>,
    /// How many world jobs the run has been grown to.
    grown: usize,
    /// How many world edges the run's DAG has been grown to.
    edge_cursor: usize,
    ingest: IngestQueue,
    metrics: MetricsRegistry,
    /// Cumulative observability registry: the per-thread `mrls_obs` deltas
    /// produced while this core runs are drained into it after every round
    /// (and on query), so the snapshot is owned by the core and deterministic
    /// in the submission order.
    obs: mrls_obs::Registry,
    /// Bounded ring of per-round summaries (the black box). Not part of
    /// `status()` — records carry wall-clock fields, and the differential
    /// byte-identity guarantee only covers their deterministic digest.
    flight: FlightRecorder,
    rounds: u64,
    virtual_now: f64,
    plan_updates_applied: u64,
    plan_entries_unchanged: u64,
    /// The poison quarantine: jobs that exhausted their retry budget (or
    /// were cascade-abandoned), in quarantine order. Append-only.
    quarantine: Vec<QuarantineEntry>,
    /// The idempotency dedup window for client submit retries.
    dedup: DedupWindow,
    fault: Option<String>,
    /// The write-ahead log append handle. `Some` iff durability is on and
    /// recovery (if any) completed — during replay it stays `None`, so the
    /// replayed operations do not re-log themselves.
    wal: Option<WalWriter>,
    /// Round count at the newest checkpoint written by this core or restored
    /// from (cadence anchor).
    last_checkpoint_round: Option<u64>,
    /// Log position covered by the newest checkpoint.
    last_checkpoint_seq: Option<u64>,
    checkpoints_written: u64,
    /// Lifetime recoveries of this durability directory (carried through
    /// checkpoints and `Recovered` log records).
    recoveries: u64,
    /// Lifetime invalid-tail bytes those recoveries cut.
    truncated_bytes: u64,
}

impl ServiceCore {
    /// Creates an idle service for the configured machine.
    pub fn new(config: ServeConfig) -> Self {
        let ingest = IngestQueue::new(config.batch_window, config.max_pending_jobs);
        let capacities = config.capacities.clone();
        let policy = config.policy.build_with(&config.scheduler);
        if config.timing {
            // Never disabled here: the flag is process-wide and another core
            // in the same process may still be collecting.
            mrls_core::timing::set_enabled(true);
        }
        // Metric collection is always on for a service (and, like timing,
        // never switched off — the flag is process-wide). Discard whatever a
        // previous core on this thread left in the per-thread store so this
        // core's registry starts from zero.
        mrls_obs::set_enabled(true);
        let _ = mrls_obs::take();
        let dedup = DedupWindow::new(config.dedup_window);
        ServiceCore {
            config,
            world: Vec::new(),
            edges: Vec::new(),
            capacities_now: capacities.clone(),
            capacities_max: capacities,
            run: None,
            policy,
            feed: None,
            ledger: EventLedger::new(),
            pending: Vec::new(),
            needs_sync: Vec::new(),
            grown: 0,
            edge_cursor: 0,
            ingest,
            metrics: MetricsRegistry::new(),
            obs: mrls_obs::Registry::new(),
            flight: FlightRecorder::default(),
            rounds: 0,
            virtual_now: 0.0,
            plan_updates_applied: 0,
            plan_entries_unchanged: 0,
            quarantine: Vec::new(),
            dedup,
            fault: None,
            wal: None,
            last_checkpoint_round: None,
            last_checkpoint_seq: None,
            checkpoints_written: 0,
            recoveries: 0,
            truncated_bytes: 0,
        }
    }

    /// Creates or recovers the service for the configured durability
    /// directory: without one (or with durability off) this is
    /// [`ServiceCore::new`]; with a fresh directory it creates the log and
    /// starts clean; with an existing log it recovers — newest valid
    /// checkpoint plus log-suffix replay — and resumes serving. The report is
    /// `Some` iff a recovery ran.
    pub fn open(config: ServeConfig) -> Result<(Self, Option<RecoveryReport>), RecoverError> {
        let durable = config.dir.is_some() && config.durability != DurabilityMode::Off;
        if !durable {
            return Ok((ServiceCore::new(config), None));
        }
        let dir = config.dir.clone().expect("checked above");
        std::fs::create_dir_all(&dir)?;
        let path = wal_path(&dir);
        if path.exists() {
            let (core, report) = Self::recover(config)?;
            return Ok((core, Some(report)));
        }
        let mut core = ServiceCore::new(config.clone());
        std::fs::write(dir.join("CONFIG"), format!("{}\n", config_digest(&config)))?;
        core.wal = Some(WalWriter::create(&path, config.durability)?);
        Ok((core, None))
    }

    /// Recovers a service from its durability directory: truncates any torn
    /// or corrupt log tail back to the last valid record, loads the newest
    /// usable checkpoint (falling back to older ones, then to a full replay
    /// from genesis), replays the log suffix through the unchanged round
    /// machinery, and re-attaches the log for appending. The recovered core
    /// is byte-identical to one that processed the logged inputs without
    /// interruption.
    pub fn recover(config: ServeConfig) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_inner(config, true)
    }

    /// Like [`ServiceCore::recover`], but ignores every checkpoint and
    /// replays the whole log from genesis — the independent recovery path
    /// the crash smoke compares checkpoint-based recovery against, and an
    /// escape hatch when checkpoints are suspect.
    pub fn recover_from_genesis(
        config: ServeConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_inner(config, false)
    }

    fn recover_inner(
        config: ServeConfig,
        use_checkpoints: bool,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        if config.durability == DurabilityMode::Off {
            return Err(RecoverError::Checkpoint(
                "durability is off — nothing to recover".to_string(),
            ));
        }
        let dir = config.dir.clone().ok_or_else(|| {
            RecoverError::Checkpoint("no durability directory configured".to_string())
        })?;
        let digest = config_digest(&config);
        let config_file = dir.join("CONFIG");
        if let Ok(text) = std::fs::read_to_string(&config_file) {
            let recorded = text.trim().parse::<u64>().ok();
            if recorded != Some(digest) {
                return Err(RecoverError::Checkpoint(format!(
                    "the directory was written under a different configuration \
                     (recorded digest {}, current {digest}) — recovering under it \
                     would silently diverge",
                    text.trim()
                )));
            }
        }
        let path = wal_path(&dir);
        let scan = scan_wal(&path)?;
        let mut core = None;
        let mut checkpoint_round = None;
        let mut checkpoint_seq = 0u64;
        if use_checkpoints {
            for (seq, p) in list_checkpoints(&dir)? {
                // A checkpoint whose watermark points past the valid log
                // covers records that no longer exist: unusable.
                if seq as usize > scan.records.len() {
                    continue;
                }
                let Ok(text) = std::fs::read_to_string(&p) else {
                    continue;
                };
                let rebuilt = DurableState::from_json(&text)
                    .and_then(|state| Self::from_durable(config.clone(), state, digest));
                if let Ok(c) = rebuilt {
                    checkpoint_round = Some(c.rounds);
                    checkpoint_seq = seq;
                    core = Some(c);
                    break;
                }
            }
        }
        let mut core = core.unwrap_or_else(|| ServiceCore::new(config.clone()));
        let suffix = &scan.records[checkpoint_seq as usize..];
        let replayed_rounds = core.replay(suffix)?;
        let mut writer = WalWriter::resume(&path, config.durability, &scan)?;
        core.recoveries += 1;
        core.truncated_bytes += scan.truncated_bytes;
        writer.append(WalOp::Recovered {
            truncated_bytes: scan.truncated_bytes,
        })?;
        core.wal = Some(writer);
        if !config_file.exists() {
            let _ = std::fs::write(&config_file, format!("{digest}\n"));
        }
        mrls_obs::counter_add("serve.wal.recoveries", 1);
        mrls_obs::counter_add("serve.wal.truncated_bytes", scan.truncated_bytes);
        let report = RecoveryReport {
            checkpoint_round,
            checkpoint_seq,
            replayed_records: suffix.len() as u64,
            replayed_rounds,
            truncated_bytes: scan.truncated_bytes,
        };
        Ok((core, report))
    }

    /// Rebuilds a core from a checkpointed [`DurableState`]: the service's
    /// own record verbatim, and the engine through
    /// [`ServiceCore::rebuild_engine`].
    fn from_durable(config: ServeConfig, state: DurableState, digest: u64) -> Result<Self, String> {
        if state.config_digest != digest {
            return Err(format!(
                "checkpoint was written under configuration digest {} but the \
                 service runs under {digest}",
                state.config_digest
            ));
        }
        if state.snapshot.digest() != state.engine_digest {
            return Err("checkpoint engine digest mismatch (corrupt checkpoint)".to_string());
        }
        if state.snapshot.num_jobs() != state.grown
            || state.grown > state.world.len()
            || state.edge_cursor > state.edges.len()
        {
            return Err("checkpoint world bounds are inconsistent".to_string());
        }
        if state.snapshot.harvested_events + state.snapshot.events.len()
            != state.ledger_events.len()
        {
            return Err("checkpoint ledger does not match its engine snapshot".to_string());
        }
        let mut core = ServiceCore::new(config);
        core.world = state.world;
        core.edges = state.edges;
        core.capacities_now = state.capacities_now;
        core.capacities_max = state.capacities_max;
        core.grown = state.grown;
        core.edge_cursor = state.edge_cursor;
        core.rebuild_engine(&state.snapshot)?;
        core.ledger = EventLedger::restore(state.ledger_events, state.ledger_watermark);
        core.metrics = state.metrics;
        core.flight = FlightRecorder::restore(state.flight_records, state.flight_total);
        core.rounds = state.rounds;
        core.virtual_now = state.virtual_now;
        core.plan_updates_applied = state.plan_updates_applied;
        core.plan_entries_unchanged = state.plan_entries_unchanged;
        core.recoveries = state.recoveries;
        core.truncated_bytes = state.truncated_bytes;
        core.quarantine = state.quarantine;
        core.dedup = state.dedup;
        core.last_checkpoint_round = Some(state.rounds);
        core.last_checkpoint_seq = Some(state.wal_seq);
        Ok(core)
    }

    /// Replays a log suffix through the normal round machinery. Submissions
    /// re-run their full admission path (including rejections — those mutate
    /// metrics and must reproduce); round markers cross-check their recorded
    /// stamp against what the rebuilt core would stamp, then re-run the
    /// flush or drain. A fault the original run hit is reproduced, not
    /// propagated — it is part of the recovered state. Returns the number of
    /// rounds re-run.
    fn replay(&mut self, records: &[WalRecord]) -> Result<u64, RecoverError> {
        debug_assert!(self.wal.is_none(), "replay must not re-log itself");
        let mut rounds = 0u64;
        for record in records {
            match &record.op {
                WalOp::Job { tenant, job, deps } => {
                    let _ = self.submit_job(tenant, job.clone(), deps);
                }
                WalOp::TokenJob {
                    tenant,
                    job,
                    deps,
                    token,
                } => {
                    let _ = self.submit_job_token(tenant, job.clone(), deps, Some(token));
                }
                WalOp::Dag {
                    tenant,
                    jobs,
                    edges,
                } => {
                    let _ = self.submit_dag(tenant, jobs.clone(), edges);
                }
                WalOp::TokenDag {
                    tenant,
                    jobs,
                    edges,
                    token,
                } => {
                    let _ = self.submit_dag_token(tenant, jobs.clone(), edges, Some(token));
                }
                WalOp::Capacity { resource, capacity } => {
                    let _ = self.submit_capacity(*resource, *capacity);
                }
                WalOp::Round { stamp, drain } => {
                    if self.fault.is_none() {
                        let expect = self.next_round_time();
                        if expect.to_bits() != stamp.to_bits() {
                            return Err(RecoverError::Replay {
                                seq: record.seq,
                                detail: format!(
                                    "round marker stamped {stamp} but the rebuilt core \
                                     stamps {expect} — the log does not continue this state"
                                ),
                            });
                        }
                        if !drain && self.ingest.is_empty() {
                            return Err(RecoverError::Replay {
                                seq: record.seq,
                                detail: "round marker with no queued inputs".to_string(),
                            });
                        }
                    }
                    let result = if *drain {
                        self.drain().map(|_| ())
                    } else {
                        self.flush()
                    };
                    match result {
                        Ok(()) => {}
                        // A reproduced fault is consistent recovered state;
                        // anything else means the log does not replay.
                        Err(_) if self.fault.is_some() => {}
                        Err(e) => {
                            return Err(RecoverError::Replay {
                                seq: record.seq,
                                detail: e,
                            });
                        }
                    }
                    rounds += 1;
                }
                WalOp::Recovered { truncated_bytes } => {
                    self.recoveries += 1;
                    self.truncated_bytes += truncated_bytes;
                }
            }
        }
        Ok(rounds)
    }

    /// Appends one op to the write-ahead log, if one is attached. Called
    /// **before** the op is applied (and so before any reply is sent): a
    /// logged-but-unapplied op replays to the applied state, while an
    /// applied-but-unlogged op would be lost — so the log always leads.
    fn log_op(&mut self, op: impl FnOnce() -> WalOp) -> Result<(), String> {
        match self.wal.as_mut() {
            None => Ok(()),
            Some(w) => w
                .append(op())
                .map(|_| ())
                .map_err(|e| format!("durability: log append failed: {e}")),
        }
    }

    /// Writes a checkpoint if one is due (cadence reached, or `force` — the
    /// drain path). Runs right after a round, when the ingest queue is
    /// empty, so the durable state plus the covered log prefix is the whole
    /// service. A failed write degrades durability (longer replay) but never
    /// the service: it is reported, not propagated.
    fn maybe_checkpoint(&mut self, force: bool) {
        let Some(wal_seq) = self.wal.as_ref().map(|w| w.next_seq()) else {
            return;
        };
        let Some(dir) = self.config.dir.clone() else {
            return;
        };
        if self.run.is_none() {
            return;
        }
        let every = self.config.checkpoint_every_rounds;
        let since = self.rounds - self.last_checkpoint_round.unwrap_or(0);
        if !(force || (every > 0 && since >= every)) {
            return;
        }
        debug_assert!(self.ingest.is_empty(), "checkpoints cover the whole log");
        let snapshot = self.run.as_ref().expect("checked above").checkpoint();
        let engine_digest = snapshot.digest();
        let state = DurableState {
            wal_seq,
            config_digest: config_digest(&self.config),
            world: self.world.clone(),
            edges: self.edges.clone(),
            capacities_now: self.capacities_now.clone(),
            capacities_max: self.capacities_max.clone(),
            snapshot,
            engine_digest,
            ledger_events: self.ledger.archived().to_vec(),
            ledger_watermark: self.ledger.watermark(),
            metrics: self.metrics.clone(),
            flight_records: self.flight.records(),
            flight_total: self.flight.total_recorded(),
            rounds: self.rounds,
            virtual_now: self.virtual_now,
            plan_updates_applied: self.plan_updates_applied,
            plan_entries_unchanged: self.plan_entries_unchanged,
            grown: self.grown,
            edge_cursor: self.edge_cursor,
            recoveries: self.recoveries,
            truncated_bytes: self.truncated_bytes,
            quarantine: self.quarantine.clone(),
            dedup: self.dedup.clone(),
        };
        match crate::wal::write_checkpoint(&dir, wal_seq, &state.to_json()) {
            Ok(()) => {
                self.last_checkpoint_round = Some(self.rounds);
                self.last_checkpoint_seq = Some(wal_seq);
                self.checkpoints_written += 1;
            }
            Err(e) => eprintln!("mrls-serve: checkpoint write failed (durability degraded): {e}"),
        }
    }

    /// The queryable state of the durability layer. **Not** part of the
    /// recovery byte-identity oracle: a recovered server has a higher
    /// recovery count than one that never crashed — that asymmetry lives
    /// here, and only here.
    pub fn durability_status(&self) -> DurabilityStatus {
        DurabilityStatus {
            mode: if self.wal.is_some() {
                self.config.durability.label().to_string()
            } else {
                DurabilityMode::Off.label().to_string()
            },
            wal_records: self.wal.as_ref().map_or(0, |w| w.next_seq()),
            wal_bytes: self.wal.as_ref().map_or(0, |w| w.bytes()),
            last_checkpoint_round: self.last_checkpoint_round,
            last_checkpoint_seq: self.last_checkpoint_seq,
            checkpoints_written: self.checkpoints_written,
            recoveries: self.recoveries,
            truncated_bytes: self.truncated_bytes,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of resource types `d` of the machine.
    pub fn num_resource_types(&self) -> usize {
        self.config.capacities.len()
    }

    /// When the open batch must be flushed, if one is open.
    pub fn deadline(&self) -> Option<Instant> {
        self.ingest.deadline()
    }

    /// The error that poisoned the service, if any round failed.
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Incremental-state introspection counters.
    pub fn round_state_stats(&self) -> RoundStateStats {
        RoundStateStats {
            retained_events: self.run.as_ref().map_or(0, |r| r.events().len()),
            archived_events: self.ledger.len(),
            harvested_until: self.ledger.watermark(),
            plan_updates_applied: self.plan_updates_applied,
            plan_entries_unchanged: self.plan_entries_unchanged,
        }
    }

    /// Admits one job with dependencies on previously accepted jobs.
    /// Returns the assigned global id.
    pub fn submit_job(
        &mut self,
        tenant: &str,
        job: MoldableJob,
        deps: &[u64],
    ) -> Result<u64, String> {
        self.submit_job_token(tenant, job, deps, None)
    }

    /// [`ServiceCore::submit_job`] with an optional client idempotency
    /// token. A token the dedup window already holds short-circuits to the
    /// original ids — nothing is journaled or admitted again, so a client
    /// retrying a submission it never saw the reply for cannot double-admit.
    pub fn submit_job_token(
        &mut self,
        tenant: &str,
        job: MoldableJob,
        deps: &[u64],
        token: Option<&str>,
    ) -> Result<u64, String> {
        self.check_fault()?;
        if let Some(ids) = token.and_then(|t| self.dedup.lookup(t)) {
            let id = ids[0];
            mrls_obs::counter_add("serve.dedup.hits", 1);
            return Ok(id);
        }
        // Log before validating: rejections mutate metrics, so replay must
        // re-reject the same submissions to reproduce the same counters.
        self.log_op(|| match token {
            Some(token) => WalOp::TokenJob {
                tenant: tenant.to_string(),
                job: job.clone(),
                deps: deps.to_vec(),
                token: token.to_string(),
            },
            None => WalOp::Job {
                tenant: tenant.to_string(),
                job: job.clone(),
                deps: deps.to_vec(),
            },
        })?;
        if let Err(e) = self.check_overload() {
            self.metrics
                .record_rejected(tenant, 1, RejectReason::Overload);
            mrls_obs::counter_add("serve.rejected.overload", 1);
            return Err(e);
        }
        validate_spec(self.num_resource_types(), &job).inspect_err(|_| {
            self.metrics
                .record_rejected(tenant, 1, RejectReason::Validation);
            mrls_obs::counter_add("serve.rejected.validation", 1);
        })?;
        let admit = self
            .ingest
            .admit(1)
            .map_err(|e| (RejectReason::Backpressure, e))
            .and_then(|()| {
                let next = self.world.len() as u64;
                match deps.iter().find(|&&d| d >= next) {
                    Some(d) => Err((
                        RejectReason::Validation,
                        format!("dependency {d} does not exist yet (next id {next})"),
                    )),
                    None => Ok(()),
                }
            });
        if let Err((reason, e)) = admit {
            self.metrics.record_rejected(tenant, 1, reason);
            mrls_obs::counter_add(reject_counter(reason), 1);
            return Err(e);
        }
        let id = self.world.len();
        let mut deps: Vec<u64> = deps.to_vec();
        deps.sort_unstable();
        deps.dedup();
        for d in deps {
            self.edges.push((d as usize, id));
        }
        self.world.push(WorldJob {
            tenant: tenant.to_string(),
            job,
        });
        self.pending.push(id);
        self.ingest.push_jobs(&[id]);
        self.metrics.record_submitted(tenant, 1);
        self.metrics.record_queued(tenant, 1);
        mrls_obs::counter_add("serve.admitted_jobs", 1);
        if let Some(token) = token {
            self.dedup.insert(token, vec![id as u64]);
        }
        Ok(id as u64)
    }

    /// Admits a whole DAG atomically; `edges` are `(from, to)` pairs of
    /// indices into `jobs`. Returns the assigned global ids, in order.
    pub fn submit_dag(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
    ) -> Result<Vec<u64>, String> {
        self.submit_dag_token(tenant, jobs, edges, None)
    }

    /// [`ServiceCore::submit_dag`] with an optional client idempotency
    /// token (see [`ServiceCore::submit_job_token`]).
    pub fn submit_dag_token(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
        token: Option<&str>,
    ) -> Result<Vec<u64>, String> {
        self.check_fault()?;
        if let Some(ids) = token.and_then(|t| self.dedup.lookup(t)) {
            let ids = ids.to_vec();
            mrls_obs::counter_add("serve.dedup.hits", 1);
            return Ok(ids);
        }
        self.log_op(|| match token {
            Some(token) => WalOp::TokenDag {
                tenant: tenant.to_string(),
                jobs: jobs.clone(),
                edges: edges.to_vec(),
                token: token.to_string(),
            },
            None => WalOp::Dag {
                tenant: tenant.to_string(),
                jobs: jobs.clone(),
                edges: edges.to_vec(),
            },
        })?;
        let count = jobs.len();
        let d = self.num_resource_types();
        let overload = self.check_overload();
        let admit = (|| {
            overload.map_err(|e| (RejectReason::Overload, e))?;
            if count == 0 {
                return Err((RejectReason::Validation, "empty submission".to_string()));
            }
            self.ingest
                .admit(count)
                .map_err(|e| (RejectReason::Backpressure, e))?;
            for job in &jobs {
                validate_spec(d, job).map_err(|e| (RejectReason::Validation, e))?;
            }
            let mut local: Vec<(usize, usize)> = edges.to_vec();
            local.sort_unstable();
            local.dedup();
            if let Some(&(a, b)) = local.iter().find(|&&(a, b)| a >= count || b >= count) {
                return Err((
                    RejectReason::Validation,
                    format!("edge ({a}, {b}) references a job outside the DAG"),
                ));
            }
            Dag::from_edges(count, &local)
                .map_err(|e| (RejectReason::Validation, format!("invalid DAG: {e}")))?;
            Ok(local)
        })();
        let local = match admit {
            Ok(local) => local,
            Err((reason, e)) => {
                self.metrics
                    .record_rejected(tenant, count.max(1) as u64, reason);
                mrls_obs::counter_add(reject_counter(reason), count.max(1) as u64);
                return Err(e);
            }
        };
        let base = self.world.len();
        let ids: Vec<usize> = (base..base + count).collect();
        for (a, b) in local {
            self.edges.push((base + a, base + b));
        }
        for job in jobs {
            self.world.push(WorldJob {
                tenant: tenant.to_string(),
                job,
            });
        }
        self.pending.extend(&ids);
        self.ingest.push_jobs(&ids);
        self.metrics.record_submitted(tenant, count as u64);
        self.metrics.record_queued(tenant, count as u64);
        mrls_obs::counter_add("serve.admitted_jobs", count as u64);
        let ids: Vec<u64> = ids.into_iter().map(|id| id as u64).collect();
        if let Some(token) = token {
            self.dedup.insert(token, ids.clone());
        }
        Ok(ids)
    }

    /// The overload guard: refuses the submission outright when the
    /// in-flight backlog (admitted, not started, not abandoned) has reached
    /// the configured high-water mark. Checked before any other admission
    /// work — shedding is supposed to be cheap.
    fn check_overload(&self) -> Result<(), String> {
        match self.config.overload_high_water {
            Some(hwm) if self.pending.len() >= hwm => Err(format!(
                "overload: {} jobs in flight have reached the high-water mark {hwm} — \
                 load shed, retry after the backlog drains",
                self.pending.len()
            )),
            _ => Ok(()),
        }
    }

    /// The poison quarantine, oldest entry first.
    pub fn quarantine(&self) -> Vec<QuarantineEntry> {
        self.quarantine.clone()
    }

    /// Queues a capacity change for the next round.
    pub fn submit_capacity(&mut self, resource: usize, capacity: u64) -> Result<(), String> {
        self.check_fault()?;
        self.log_op(|| WalOp::Capacity { resource, capacity })?;
        let d = self.num_resource_types();
        if resource >= d {
            return Err(format!(
                "resource {resource} does not exist (the machine has {d} types)"
            ));
        }
        if capacity == 0 {
            return Err("capacities must stay >= 1".to_string());
        }
        self.ingest.push_capacity(resource, capacity);
        Ok(())
    }

    /// The queryable metrics snapshot. With [`ServeConfig::timing`] on it
    /// carries the per-phase latency of the rounds since the last query
    /// (draining the thread-local registry).
    pub fn status(&self) -> MetricsSnapshot {
        let mut snap = self
            .metrics
            .snapshot(self.virtual_now, self.ingest.queue_depth());
        if self.config.timing {
            snap.timings = mrls_core::timing::drain();
        }
        snap
    }

    /// The cumulative observability snapshot: every `mrls_obs` counter,
    /// gauge and histogram recorded by this core's layers (ready queue, slot
    /// set, placement, engine, serve rounds) since it was created. The
    /// counter/gauge/histogram namespaces are virtual-time/count valued and
    /// deterministic in the submission order; only the `wall` namespace
    /// carries wall-clock readings (excluded by
    /// [`mrls_obs::Snapshot::deterministic`]).
    pub fn obs_snapshot(&mut self) -> mrls_obs::Snapshot {
        self.obs.absorb(mrls_obs::take());
        self.obs.snapshot().clone()
    }

    /// The retained flight-recorder rounds, oldest first. Every field is a
    /// count or a virtual time except `wall_us`/`over_tick`, which are
    /// wall-clock measurements — the reason flight data is queried through
    /// its own protocol verb instead of riding along in `status()` snapshots
    /// (those must stay byte-identical across same-stream runs).
    pub fn flight_records(&self) -> Vec<RoundRecord> {
        self.flight.records()
    }

    /// Rounds ever recorded by the flight recorder, including those the
    /// ring has evicted.
    pub fn flight_total_rounds(&self) -> u64 {
        self.flight.total_recorded()
    }

    /// Flushes the open batch into one scheduling round, if any work is
    /// queued. The round places what it can and pauses; completions beyond
    /// the round's stamp are processed by later rounds or by a drain.
    pub fn flush(&mut self) -> Result<(), String> {
        self.check_fault()?;
        if self.ingest.is_empty() {
            return Ok(());
        }
        // Batch boundaries are wall-clock-driven — the one nondeterministic
        // input — so each is recorded where it actually happened, stamped
        // with the round time replay will cross-check.
        let stamp = self.next_round_time();
        self.log_op(|| WalOp::Round {
            stamp,
            drain: false,
        })?;
        let batch = self.ingest.take_batch();
        self.metrics.record_batch_taken();
        let result = self.run_round(batch, false).map(|_| ());
        if result.is_ok() {
            self.maybe_checkpoint(false);
        }
        result
    }

    /// Flushes any queued work and runs the engine until every admitted job
    /// completed, returning the drain report.
    pub fn drain(&mut self) -> Result<DrainReport, String> {
        self.check_fault()?;
        let stamp = self.next_round_time();
        self.log_op(|| WalOp::Round { stamp, drain: true })?;
        let batch = self.ingest.take_batch();
        self.metrics.record_batch_taken();
        let trace = self
            .run_round(batch, true)?
            .expect("completing rounds always produce a trace");
        self.maybe_checkpoint(true);
        let submitted = self.world.len() as u64;
        let completed = self.run.as_ref().map_or(0, |r| r.num_completed() as u64);
        Ok(DrainReport {
            virtual_makespan: trace.stats.realized_makespan,
            submitted,
            completed,
            feasible: self.validate(&trace),
            metrics: self.status(),
            trace,
        })
    }

    /// Serialises the engine's truncated checkpoint (live state plus the
    /// harvest watermark — no event history; that lives in the ledger), if a
    /// round ever ran. Together with the service's own durable record (the
    /// submitted world, metrics, ledger) this is the crash-recovery artefact.
    pub fn checkpoint_engine_json(&self) -> Option<String> {
        self.run.as_ref().map(|r| r.checkpoint().to_json())
    }

    /// Drops the live engine and rebuilds it from a checkpoint previously
    /// produced by [`ServiceCore::checkpoint_engine_json`] against the
    /// service's own world record. Service output after a restore is
    /// byte-identical to never having restored (the differential property
    /// test exercises exactly this mid-stream).
    ///
    /// The checkpoint must match the service's *current* durable state: a
    /// stale one (taken before rounds whose events the ledger already
    /// archived) would rewind the engine past harvested history and replay
    /// completions into the metrics and trace, so it is refused.
    pub fn restore_engine_json(&mut self, json: &str) -> Result<(), String> {
        self.check_fault()?;
        let snapshot = SimSnapshot::from_json(json).map_err(|e| e.to_string())?;
        if self.run.is_none() {
            return Err("no live engine to restore (no round has run yet)".to_string());
        }
        if snapshot.num_jobs() != self.grown {
            return Err(format!(
                "checkpoint covers {} jobs but the engine world has {}",
                snapshot.num_jobs(),
                self.grown
            ));
        }
        if snapshot.harvested_events + snapshot.events.len() != self.ledger.len() {
            return Err(format!(
                "stale checkpoint: it accounts for {} events but the ledger archives {}",
                snapshot.harvested_events + snapshot.events.len(),
                self.ledger.len()
            ));
        }
        if snapshot.now.to_bits() != self.virtual_now.to_bits() {
            return Err(format!(
                "stale checkpoint: taken at virtual time {} but the service is at {}",
                snapshot.now, self.virtual_now
            ));
        }
        self.rebuild_engine(&snapshot)
    }

    /// Rebuilds the live engine from `snapshot` against the service's world
    /// record (`world[..grown]`, `edges[..edge_cursor]`, `capacities_max`)
    /// and re-derives the pending frontier from the restored flags. Nothing
    /// changes when it fails.
    fn rebuild_engine(&mut self, snapshot: &SimSnapshot) -> Result<(), String> {
        let d = self.num_resource_types();
        let system = SystemConfig::new(self.capacities_max.clone()).map_err(|e| e.to_string())?;
        let dag = Dag::from_edges(self.grown, &self.edges[..self.edge_cursor])
            .map_err(|e| e.to_string())?;
        let jobs: Vec<MoldableJob> = self.world[..self.grown]
            .iter()
            .map(|w| w.job.clone())
            .collect();
        let instance = Instance::new(system, dag, jobs).map_err(|e| e.to_string())?;
        // Realized placements for started jobs, placeholders for pending
        // ones — the next round's plan diff installs fresh placements for
        // every pending job (placeholders never bit-match).
        let plan = Schedule::new(
            (0..self.grown)
                .map(|j| {
                    if snapshot.started[j] {
                        ScheduledJob {
                            job: j,
                            start: snapshot.start[j],
                            finish: snapshot.finish[j],
                            alloc: snapshot.alloc_used[j].clone(),
                        }
                    } else {
                        placeholder_entry(j, d)
                    }
                })
                .collect(),
        );
        let mut run = SimRun::resume(
            instance,
            plan,
            snapshot,
            self.config.perturbation.clone(),
            None,
        )
        .map_err(|e| e.to_string())?;
        if !self.config.failures.is_failure_free() {
            // The sampler resumes at the snapshot's recorded attempt count,
            // so the post-recovery failure stream continues byte-identically.
            run.set_failures(self.config.failures.clone());
        }
        let abandoned = |j: usize| snapshot.abandoned.get(j).copied().unwrap_or(false);
        self.pending = (0..self.grown)
            .filter(|&j| !snapshot.started[j] && !abandoned(j))
            .chain(self.grown..self.world.len())
            .collect();
        self.needs_sync.clear();
        self.run = Some(run);
        self.feed = Some(ChannelSource::feeder());
        Ok(())
    }

    fn check_fault(&self) -> Result<(), String> {
        match &self.fault {
            Some(f) => Err(format!("service faulted: {f}")),
            None => Ok(()),
        }
    }

    /// The virtual time stamped on the next round's events.
    fn next_round_time(&self) -> f64 {
        self.virtual_now.max(self.rounds as f64 * self.config.tick)
    }

    /// Executes one round. `complete` drives the engine until every job
    /// finished (a drain) and returns the realized trace; otherwise the
    /// round pauses at its stamp time.
    fn run_round(&mut self, batch: Batch, complete: bool) -> Result<Option<RealizedTrace>, String> {
        if batch.is_empty() && !complete {
            return Ok(None);
        }
        let wall_start = Instant::now();
        let t = self.next_round_time();
        if !batch.is_empty() {
            self.rounds += 1;
            self.metrics.record_round();
            mrls_obs::counter_add("serve.rounds", 1);
        }
        // Mirror the capacity changes before growing the run so its system
        // covers every capacity the machine ever had.
        for &(resource, capacity) in &batch.capacity_changes {
            self.capacities_now[resource] = capacity;
            self.capacities_max[resource] = self.capacities_max[resource].max(capacity);
        }
        let mut record = RoundRecord::new(self.rounds, complete);
        record.admitted_jobs = batch.jobs.len() as u64;
        record.capacity_changes = batch.capacity_changes.len() as u64;
        let result = self.run_round_inner(&batch, t, complete, &mut record);
        let wall_us = wall_start.elapsed().as_micros() as u64;
        mrls_obs::observe_wall_us("serve.round_us", wall_us);
        mrls_obs::gauge_set("serve.pending_jobs", self.pending.len() as u64);
        // The round's wall-clock budget, as a gauge next to the measured
        // `wall`-namespace latencies (deterministic: derived from config).
        mrls_obs::gauge_set("serve.tick_us", (self.config.tick * 1e6).round() as u64);
        self.obs.absorb(mrls_obs::take());
        match result {
            Ok(trace) => {
                record.wall_us = wall_us;
                record.over_tick =
                    self.config.tick > 0.0 && (wall_us as f64) > self.config.tick * 1e6;
                if record.over_tick {
                    eprintln!(
                        "mrls-serve: flight recorder: round {} exceeded its {}s tick budget: {}",
                        record.round,
                        self.config.tick,
                        serde_json::to_string(&record).expect("flight records serialise"),
                    );
                }
                self.flight.push(record);
                Ok(trace)
            }
            Err(e) => {
                self.fault = Some(e.clone());
                Err(e)
            }
        }
    }

    fn run_round_inner(
        &mut self,
        batch: &Batch,
        t: f64,
        complete: bool,
        record: &mut RoundRecord,
    ) -> Result<Option<RealizedTrace>, String> {
        let desired = mrls_core::time_phase!("plan", self.prepare_round(t)?);
        record.plan_planned = desired.len() as u64;
        // Planned finish times of newly submitted jobs, per tenant, in
        // admission order (`desired[i]` describes `pending[i]`).
        for &j in &batch.jobs {
            let idx = self
                .pending
                .binary_search(&j)
                .expect("freshly admitted jobs are pending");
            let finish = desired[idx].finish;
            let tenant = self.world[j].tenant.clone();
            self.metrics.record_planned(&tenant, finish);
        }
        let run = self.run.as_mut().expect("prepare_round created the run");
        let delta = mrls_core::time_phase!("diff", diff_plan_entries(run.plan(), &desired));
        self.plan_entries_unchanged += delta.unchanged as u64;
        let applied = mrls_core::time_phase!(
            "diff",
            run.apply_plan_updates(&delta.changed)
                .map_err(|e| e.to_string())?
        ) as u64;
        self.plan_updates_applied += applied;
        record.plan_updates = applied;
        record.plan_kept = delta.unchanged as u64;
        mrls_obs::observe("serve.plan_diff.planned", desired.len() as u64);
        mrls_obs::observe("serve.plan_diff.updates", applied);
        mrls_obs::observe("serve.plan_diff.kept", delta.unchanged as u64);

        // Refresh the persistent policy instance over the live frontier:
        // bit-equivalent to building a fresh policy and `on_start`-ing it
        // (the old per-round path), but O(live) instead of O(world). The
        // frontier is pending ∪ running — the same `!completed &&
        // !abandoned` universe the sim's resume path hands a policy. The
        // running jobs' keys are only ever read if a failure returns one of
        // them to the ready set, so failure-free rounds stay bit-identical
        // to the old pending-only frontier.
        let live = {
            let state = run.state();
            let mut live = self.pending.clone();
            live.extend(state.running.iter().map(|r| r.job));
            live.sort_unstable();
            live
        };
        mrls_core::time_phase!(
            "policy",
            self.policy
                .on_plan_update(&run.state(), &live)
                .map_err(|e| e.to_string())?
        );

        let (feeder, source) = self.feed.as_mut().expect("feed lives with the run");
        for &job in &batch.jobs {
            feeder.release(t, job);
        }
        for &(resource, capacity) in &batch.capacity_changes {
            feeder.capacity(t, resource, capacity);
        }
        mrls_core::time_phase!(
            "drive",
            run.drive_prepared(self.policy.as_mut(), source, (!complete).then_some(t))
                .map_err(|e| e.to_string())?
        );

        let _harvest = mrls_core::timing::scope("harvest");
        self.virtual_now = run.now();
        let watermark = run.now();
        let events = run.take_harvested_events();
        let retry_max = self.config.failures.retry.max_attempts;
        let mut started: Vec<usize> = Vec::new();
        for ev in &events {
            match ev {
                TraceEvent::JobStarted { job, .. } => {
                    let tenant = self.world[*job].tenant.clone();
                    self.metrics.record_scheduled(&tenant);
                    started.push(*job);
                }
                TraceEvent::JobCompleted { time, job, .. } => {
                    let tenant = self.world[*job].tenant.clone();
                    self.metrics.record_completed(&tenant, *time);
                    record.completed += 1;
                }
                TraceEvent::JobFailed {
                    time,
                    job,
                    attempt,
                    cause,
                } => {
                    let cascade = *cause == FailCause::Cascade;
                    if !cascade {
                        record.failed += 1;
                        mrls_obs::counter_add("serve.retry.failed_attempts", 1);
                    }
                    if cascade || *attempt >= retry_max {
                        // Terminal: the retry budget is exhausted (or an
                        // ancestor's was) — poison-quarantine the job.
                        let tenant = self.world[*job].tenant.clone();
                        self.metrics.record_quarantined(&tenant);
                        record.quarantined += 1;
                        mrls_obs::counter_add("serve.quarantine.jobs", 1);
                        self.quarantine.push(QuarantineEntry {
                            tenant,
                            job: *job as u64,
                            attempts: *attempt,
                            cause: cause.label(),
                            time: *time,
                        });
                    }
                }
                TraceEvent::JobRetried { job, .. } => {
                    let tenant = self.world[*job].tenant.clone();
                    self.metrics.record_retried(&tenant);
                    mrls_obs::counter_add("serve.retry.retries", 1);
                }
                _ => {}
            }
        }
        record.events_harvested = events.len() as u64;
        record.started = started.len() as u64;
        mrls_obs::counter_add("serve.harvest.events", events.len() as u64);
        self.ledger.absorb(events, watermark);
        if !started.is_empty() || record.failed > 0 || record.quarantined > 0 {
            // Re-derive the frontiers from the engine's flags rather than
            // replaying the event deltas: with failure injection one job can
            // start, fail and restart within a single drive, so only the
            // final flags say whether it is pending, running or gone.
            let state = run.state();
            self.pending = (0..self.grown)
                .filter(|&j| !state.started[j] && !state.abandoned[j])
                .chain(self.grown..self.world.len())
                .collect();
            started.sort_unstable();
            started.dedup();
            started.retain(|&j| state.started[j]);
            self.needs_sync.extend(started);
        }
        record.virtual_time = self.virtual_now;
        record.pending_after = self.pending.len() as u64;
        drop(_harvest);
        let trace = complete.then(|| {
            let run = self.run.as_ref().expect("run outlives the round");
            run.trace_with_prefix(self.config.policy.label(), self.ledger.archived())
        });
        Ok(trace)
    }

    /// Brings the persistent run in sync with the submitted world before a
    /// round: creates it at the first round, otherwise freezes realized
    /// placements of previously started jobs into the plan, grows the run by
    /// the jobs/edges/capacity bounds admitted since, and re-plans the
    /// pending frontier. Returns the desired placements (`[i]` describes
    /// `pending[i]`), ready to be diffed against the in-flight plan.
    fn prepare_round(&mut self, t: f64) -> Result<Vec<ScheduledJob>, String> {
        let d = self.num_resource_types();
        if let Some(run) = self.run.as_mut() {
            run.sync_realized(&self.needs_sync)
                .map_err(|e| e.to_string())?;
            self.needs_sync.clear();
            let n = self.world.len();
            let bounds_changed =
                run.instance().system.capacities() != self.capacities_max.as_slice();
            if n > self.grown || bounds_changed {
                let system =
                    SystemConfig::new(self.capacities_max.clone()).map_err(|e| e.to_string())?;
                let new_jobs: Vec<MoldableJob> = self.world[self.grown..]
                    .iter()
                    .map(|w| w.job.clone())
                    .collect();
                let placeholders: Vec<ScheduledJob> =
                    (self.grown..n).map(|j| placeholder_entry(j, d)).collect();
                run.grow(
                    system,
                    new_jobs,
                    &self.edges[self.edge_cursor..],
                    placeholders,
                )
                .map_err(|e| e.to_string())?;
                self.grown = n;
                self.edge_cursor = self.edges.len();
            }
        } else {
            let n = self.world.len();
            let system =
                SystemConfig::new(self.capacities_max.clone()).map_err(|e| e.to_string())?;
            let dag = Dag::from_edges(n, &self.edges).map_err(|e| e.to_string())?;
            let jobs: Vec<MoldableJob> = self.world.iter().map(|w| w.job.clone()).collect();
            let instance = Instance::new(system, dag, jobs).map_err(|e| e.to_string())?;
            // Nothing has started: the whole world is the pending frontier,
            // planned from scratch and installed as plan placeholders so the
            // uniform diff-and-apply below sees them as fresh.
            let plan = Schedule::new((0..n).map(|j| placeholder_entry(j, d)).collect());
            let mut run = SimRun::start(
                instance,
                plan,
                self.config.seed,
                self.config.perturbation.clone(),
                None,
                vec![false; n],
            )
            .map_err(|e| e.to_string())?;
            if !self.config.failures.is_failure_free() {
                run.set_failures(self.config.failures.clone());
            }
            self.run = Some(run);
            self.feed = Some(ChannelSource::feeder());
            self.grown = n;
            self.edge_cursor = self.edges.len();
        }
        let run = self.run.as_ref().expect("created above");
        plan_pending(
            run.instance(),
            &self.capacities_now,
            &self.pending,
            t,
            &self.config.scheduler,
        )
    }

    /// Validates the realized schedule of a drained world
    /// (capacity/precedence feasibility, durations relaxed).
    fn validate(&self, trace: &RealizedTrace) -> bool {
        let Some(run) = self.run.as_ref() else {
            return self.world.is_empty();
        };
        if run.instance().num_jobs() == 0 {
            return true;
        }
        validate_schedule_with(
            run.instance(),
            &trace.realized,
            ValidationOptions {
                check_durations: false,
            },
        )
        .is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_model::ExecTimeSpec;

    fn config() -> ServeConfig {
        ServeConfig {
            capacities: vec![4, 4],
            tick: 1.0,
            ..ServeConfig::default()
        }
    }

    fn job(time: f64) -> MoldableJob {
        MoldableJob::new(0, ExecTimeSpec::Constant { time })
    }

    #[test]
    fn submit_flush_drain_completes_everything() {
        let mut core = ServiceCore::new(config());
        let a = core.submit_job("alice", job(2.0), &[]).unwrap();
        let b = core.submit_job("alice", job(1.0), &[a]).unwrap();
        assert_eq!((a, b), (0, 1));
        core.flush().unwrap();
        let ids = core
            .submit_dag("bob", vec![job(1.0), job(1.0)], &[(0, 1)])
            .unwrap();
        assert_eq!(ids, vec![2, 3]);
        let report = core.drain().unwrap();
        assert_eq!(report.submitted, 4);
        assert_eq!(report.completed, 4);
        assert!(report.feasible);
        assert!(report.virtual_makespan >= 3.0 - 1e-9);
        let alice = &report.metrics.tenants["alice"];
        assert_eq!((alice.submitted, alice.completed), (2, 2));
        // Draining again is idempotent.
        let again = core.drain().unwrap();
        assert_eq!(again.completed, 4);
    }

    #[test]
    fn rounds_overlap_in_virtual_time() {
        let mut core = ServiceCore::new(config());
        core.submit_job("a", job(10.0), &[]).unwrap();
        core.flush().unwrap();
        // The first job is still running at the second round's stamp.
        core.submit_job("a", job(1.0), &[]).unwrap();
        core.flush().unwrap();
        let report = core.drain().unwrap();
        let starts: Vec<f64> = report.trace.realized.jobs.iter().map(|j| j.start).collect();
        assert_eq!(starts, vec![0.0, 1.0], "second round stamped at tick");
        assert!((report.virtual_makespan - 10.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_changes_land_in_their_round() {
        let mut core = ServiceCore::new(config());
        core.submit_job("a", job(5.0), &[]).unwrap();
        core.flush().unwrap();
        core.submit_capacity(0, 2).unwrap();
        core.flush().unwrap();
        let report = core.drain().unwrap();
        assert!(report.feasible);
        assert!(report
            .trace
            .events
            .iter()
            .any(|e| matches!(e, mrls_sim::TraceEvent::CapacityChanged { capacity: 2, .. })));
        // A recovery above the initial capacity is also honoured.
        core.submit_capacity(0, 6).unwrap();
        core.submit_job("a", job(1.0), &[]).unwrap();
        let report = core.drain().unwrap();
        assert!(report.feasible);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn a_round_plans_at_the_largest_capacity() {
        // The powers-of-two axis of a `u64::MAX` capacity has 65 values; the
        // doubling that built it once never ended there.
        let mut core = ServiceCore::new(config());
        core.submit_capacity(0, u64::MAX).unwrap();
        let spec = ExecTimeSpec::Amdahl {
            seq: 1.0,
            work: vec![8.0, 8.0],
        };
        let job = MoldableJob::with_space("p2", spec, mrls_model::AllocationSpace::PowersOfTwo);
        core.submit_job("a", job, &[]).unwrap();
        core.flush().unwrap();
        assert_eq!(core.status().rounds, 1);
        let report = core.drain().unwrap();
        assert_eq!(report.completed, 1);
        assert!(report.feasible);
    }

    #[test]
    fn invalid_submissions_are_rejected() {
        let mut core = ServiceCore::new(config());
        // Unknown dependency.
        assert!(core.submit_job("a", job(1.0), &[5]).is_err());
        // Wrong dimensionality.
        let bad = MoldableJob::new(
            0,
            ExecTimeSpec::Amdahl {
                seq: 1.0,
                work: vec![1.0, 1.0, 1.0],
            },
        );
        assert!(core.submit_job("a", bad, &[]).is_err());
        // Non-positive execution time.
        assert!(core.submit_job("a", job(0.0), &[]).is_err());
        // Cyclic DAG.
        assert!(core
            .submit_dag("a", vec![job(1.0), job(1.0)], &[(0, 1), (1, 0)])
            .is_err());
        // Empty DAG.
        assert!(core.submit_dag("a", vec![], &[]).is_err());
        // Bad capacity change.
        assert!(core.submit_capacity(7, 2).is_err());
        assert!(core.submit_capacity(0, 0).is_err());
        // Rejections count jobs: 1 + 1 + 1 + 2 (cyclic DAG) + 1 (empty DAG).
        assert_eq!(core.status().jobs_rejected, 6);
        // Nothing was admitted, so draining completes trivially.
        let report = core.drain().unwrap();
        assert_eq!(report.submitted, 0);
        assert!(report.feasible);
    }

    #[test]
    fn backpressure_rejects_over_the_limit() {
        let mut core = ServiceCore::new(ServeConfig {
            capacities: vec![4, 4],
            max_pending_jobs: 2,
            ..ServeConfig::default()
        });
        core.submit_job("a", job(1.0), &[]).unwrap();
        core.submit_job("a", job(1.0), &[]).unwrap();
        let err = core.submit_job("a", job(1.0), &[]).unwrap_err();
        assert!(err.contains("backpressure"), "{err}");
        core.flush().unwrap();
        // The queue emptied: admissions resume.
        core.submit_job("a", job(1.0), &[]).unwrap();
        let report = core.drain().unwrap();
        assert_eq!(report.submitted, 3);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn same_submission_order_is_byte_identical() {
        let run = || {
            let mut core = ServiceCore::new(config());
            core.submit_dag("a", vec![job(2.0), job(1.0)], &[(0, 1)])
                .unwrap();
            core.flush().unwrap();
            core.submit_job("b", job(3.0), &[]).unwrap();
            core.flush().unwrap();
            core.submit_capacity(1, 2).unwrap();
            core.flush().unwrap();
            let report = core.drain().unwrap();
            (
                serde_json::to_string(&report.metrics).unwrap(),
                report.trace.to_json(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn engine_retains_no_events_between_rounds() {
        let mut core = ServiceCore::new(config());
        for i in 0..5 {
            core.submit_job("a", job(1.0 + i as f64), &[]).unwrap();
            core.flush().unwrap();
            let stats = core.round_state_stats();
            assert_eq!(
                stats.retained_events, 0,
                "round {i}: events must be harvested into the ledger"
            );
        }
        let stats = core.round_state_stats();
        assert!(stats.archived_events > 0);
        // The truncated checkpoint carries no history.
        let snapshot = SimSnapshot::from_json(&core.checkpoint_engine_json().unwrap()).unwrap();
        assert!(snapshot.events.is_empty());
        assert_eq!(snapshot.harvested_events, stats.archived_events);
        let report = core.drain().unwrap();
        assert_eq!(report.completed, 5);
        // The drain trace is complete despite the truncation: the ledger
        // re-attaches the archive.
        assert_eq!(
            report.trace.events.len(),
            core.round_state_stats().archived_events
        );
    }

    #[test]
    fn steady_state_skips_unchanged_placements() {
        let mut core = ServiceCore::new(config());
        for _ in 0..4 {
            core.submit_job("a", job(50.0), &[]).unwrap();
            core.flush().unwrap();
        }
        // Long jobs pile up pending behind capacity; re-planning them every
        // round must find at least some placements it can skip.
        core.flush().unwrap();
        let stats = core.round_state_stats();
        assert!(
            stats.plan_entries_unchanged > 0 || stats.plan_updates_applied > 0,
            "diff counters must move"
        );
    }

    #[test]
    fn timing_snapshot_attributes_round_phases() {
        let mut core = ServiceCore::new(ServeConfig {
            capacities: vec![4, 4],
            timing: true,
            ..ServeConfig::default()
        });
        core.submit_job("a", job(2.0), &[]).unwrap();
        core.flush().unwrap();
        let snap = core.status();
        let phases: Vec<&str> = snap.timings.iter().map(|t| t.phase.as_str()).collect();
        for p in ["diff", "drive", "harvest", "plan", "policy"] {
            assert!(phases.contains(&p), "missing phase {p} in {phases:?}");
        }
        assert!(snap.timings.iter().all(|t| t.calls > 0));
        // The query drains the registry: a second one reports only rounds
        // that ran since (none).
        assert!(core.status().timings.is_empty());
        // Snapshots of a timing-off core stay empty (and byte-stable) even
        // while another core enabled collection process-wide.
        let mut plain = ServiceCore::new(config());
        plain.submit_job("a", job(1.0), &[]).unwrap();
        plain.flush().unwrap();
        assert!(plain.status().timings.is_empty());
    }

    #[test]
    fn restore_from_checkpoint_is_transparent() {
        let script = |restore_at: Option<usize>| {
            let mut core = ServiceCore::new(config());
            for i in 0..6 {
                core.submit_job(if i % 2 == 0 { "a" } else { "b" }, job(1.5), &[])
                    .unwrap();
                core.flush().unwrap();
                if restore_at == Some(i) {
                    let json = core.checkpoint_engine_json().unwrap();
                    core.restore_engine_json(&json).unwrap();
                }
            }
            let report = core.drain().unwrap();
            (
                serde_json::to_string(&report.metrics).unwrap(),
                report.trace.to_json(),
            )
        };
        let baseline = script(None);
        assert_eq!(baseline, script(Some(2)));
        assert_eq!(baseline, script(Some(5)));
    }

    #[test]
    fn restore_rejects_garbage_and_mismatched_checkpoints() {
        let mut core = ServiceCore::new(config());
        assert!(core.restore_engine_json("{not json").is_err());
        core.submit_job("a", job(1.0), &[]).unwrap();
        core.flush().unwrap();
        let json = core.checkpoint_engine_json().unwrap();
        // A world-size mismatch is refused.
        core.submit_job("a", job(1.0), &[]).unwrap();
        core.flush().unwrap();
        assert!(core.restore_engine_json(&json).is_err());
        assert!(core.fault().is_none(), "a refused restore must not poison");
        let report = core.drain().unwrap();
        assert_eq!(report.completed, 2);
    }

    fn temp_dir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mrls-service-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_config(dir: &std::path::Path) -> ServeConfig {
        ServeConfig {
            capacities: vec![4, 4],
            tick: 1.0,
            durability: DurabilityMode::Buffered,
            dir: Some(dir.to_path_buf()),
            checkpoint_every_rounds: 2,
            ..ServeConfig::default()
        }
    }

    /// Drives the same op script against any core; the durability layer must
    /// be output-transparent for it.
    fn script(core: &mut ServiceCore) {
        core.submit_job("a", job(2.0), &[]).unwrap();
        core.submit_job("b", job(1.5), &[0]).unwrap();
        core.flush().unwrap();
        core.submit_dag("a", vec![job(1.0), job(1.0)], &[(0, 1)])
            .unwrap();
        core.submit_capacity(0, 2).unwrap();
        // A rejection: must replay identically (it mutates metrics).
        assert!(core.submit_job("b", job(1.0), &[99]).is_err());
        core.flush().unwrap();
        core.submit_job("b", job(0.5), &[2]).unwrap();
        core.flush().unwrap();
    }

    fn fingerprint(core: &mut ServiceCore) -> (String, String, String) {
        let status = serde_json::to_string(&core.status()).unwrap();
        let digests: Vec<_> = core.flight_records().iter().map(|r| r.digest()).collect();
        let report = core.drain().unwrap();
        (
            status,
            serde_json::to_string(&digests).unwrap(),
            serde_json::to_string(&report).unwrap(),
        )
    }

    #[test]
    fn recovered_core_is_byte_identical_to_uninterrupted() {
        let dir = temp_dir();
        let (mut durable, report) = ServiceCore::open(durable_config(&dir)).unwrap();
        assert!(report.is_none(), "a fresh directory has nothing to recover");
        script(&mut durable);
        // Unflushed admissions after the last round: logged, not yet rounded.
        durable.submit_job("a", job(3.0), &[]).unwrap();
        drop(durable); // crash

        let (mut recovered, report) = ServiceCore::recover(durable_config(&dir)).unwrap();
        assert_eq!(report.truncated_bytes, 0, "clean log, nothing torn");
        assert!(report.checkpoint_round.is_some(), "cadence 2 wrote one");

        let mut reference = ServiceCore::new(ServeConfig {
            capacities: vec![4, 4],
            tick: 1.0,
            ..ServeConfig::default()
        });
        script(&mut reference);
        reference.submit_job("a", job(3.0), &[]).unwrap();

        assert_eq!(fingerprint(&mut recovered), fingerprint(&mut reference));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_from_genesis_matches_checkpoint_recovery() {
        let dir = temp_dir();
        let (mut durable, _) = ServiceCore::open(durable_config(&dir)).unwrap();
        script(&mut durable);
        drop(durable);
        let (mut a, ra) = ServiceCore::recover(durable_config(&dir)).unwrap();
        let (mut b, rb) = ServiceCore::recover_from_genesis(durable_config(&dir)).unwrap();
        assert!(ra.checkpoint_round.is_some());
        assert_eq!(rb.checkpoint_round, None);
        assert!(rb.replayed_records > ra.replayed_records);
        assert_eq!(fingerprint(&mut a), fingerprint(&mut b));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_refuses_a_mismatched_configuration() {
        let dir = temp_dir();
        let (mut durable, _) = ServiceCore::open(durable_config(&dir)).unwrap();
        script(&mut durable);
        drop(durable);
        let mut other = durable_config(&dir);
        other.capacities = vec![8, 8];
        let err = ServiceCore::recover(other).unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_status_tracks_log_and_checkpoints() {
        let dir = temp_dir();
        let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
        let before = core.durability_status();
        assert_eq!(before.mode, "buffered");
        assert_eq!(before.recoveries, 0);
        script(&mut core);
        let after = core.durability_status();
        // 5 submissions (one rejected) + 1 capacity + 3 rounds = 9 records.
        assert_eq!(after.wal_records, 9);
        assert!(after.wal_bytes > before.wal_bytes);
        assert!(after.checkpoints_written >= 1);
        assert!(after.last_checkpoint_seq.is_some());
        drop(core);
        let (core, _) = ServiceCore::recover(durable_config(&dir)).unwrap();
        let status = core.durability_status();
        assert_eq!(status.recoveries, 1);
        // The log grew by the `Recovered` audit record.
        assert_eq!(status.wal_records, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plain_cores_stay_log_free() {
        let mut core = ServiceCore::new(config());
        core.submit_job("a", job(1.0), &[]).unwrap();
        core.flush().unwrap();
        let status = core.durability_status();
        assert_eq!(status.mode, "off");
        assert_eq!((status.wal_records, status.wal_bytes), (0, 0));
        assert_eq!(status.checkpoints_written, 0);
    }

    #[test]
    fn restore_rejects_stale_checkpoints_with_matching_world_size() {
        // A checkpoint taken earlier can cover the same *number* of jobs but
        // predate history the ledger already archived; restoring it would
        // rewind the engine and replay completions into metrics and trace.
        let mut core = ServiceCore::new(config());
        core.submit_job("a", job(50.0), &[]).unwrap();
        core.flush().unwrap();
        let stale = core.checkpoint_engine_json().unwrap();
        // Capacity-only rounds: the world size stays 1, but new events land
        // in the ledger and virtual time advances.
        core.submit_capacity(0, 2).unwrap();
        core.flush().unwrap();
        let err = core.restore_engine_json(&stale).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        assert!(core.fault().is_none());
        let report = core.drain().unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(report.metrics.jobs_completed, 1, "no replayed completions");
        let completions = report
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::JobCompleted { .. }))
            .count();
        assert_eq!(completions, 1, "the trace must not double-count");
    }
}
