//! The crash-injection differential harness: the durability layer's headline
//! proof.
//!
//! A recorded op-stream drives a durable [`ServiceCore`]; the harness kills
//! the core at **every** op boundary (which covers every round boundary),
//! recovers from the directory, finishes the stream, and asserts replies,
//! metrics JSON, flight digests and the drain report byte-identical to an
//! uninterrupted [`NaiveService`] run. A second sweep truncates the log at
//! **every** byte offset within the tail record (and at every record
//! boundary): recovery must rebuild exactly the longest valid prefix and
//! report the cut bytes. A corruption matrix (bit flips in header, checksum
//! and payload; garbage tails; empty files; duplicated records) and a
//! fixed-seed crash-injection proptest round it out: recovery never panics
//! and never serves a half-applied round — it either lands on a consistent
//! round boundary or rejects with a typed [`RecoverError`].

use mrls_model::{ExecTimeSpec, MoldableJob};
use mrls_serve::wal::{scan_wal, wal_path};
use mrls_serve::{
    DurabilityMode, NaiveService, RecoverError, ServeConfig, ServiceCore, WalOp, WalRecord,
    WalWriter,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mrls-crash-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn job(time: f64) -> MoldableJob {
    MoldableJob::new(0, ExecTimeSpec::Constant { time })
}

fn durable_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        capacities: vec![4, 4],
        tick: 1.0,
        durability: DurabilityMode::Buffered,
        dir: Some(dir.to_path_buf()),
        checkpoint_every_rounds: 2,
        ..ServeConfig::default()
    }
}

fn plain_config() -> ServeConfig {
    ServeConfig {
        capacities: vec![4, 4],
        tick: 1.0,
        ..ServeConfig::default()
    }
}

/// One step of the recorded op-stream, applied identically to the durable
/// core, the recovered core and the naive reference.
#[derive(Debug, Clone)]
enum Op {
    /// `submit_job` with absolute dependency ids (a dangling id is a
    /// rejection — logged and replayed like any accepted submission).
    Job {
        tenant: usize,
        time: f64,
        deps: Vec<u64>,
    },
    /// `submit_dag`, chained or independent.
    Dag {
        tenant: usize,
        times: Vec<f64>,
        chain: bool,
    },
    /// `submit_capacity`.
    Capacity { resource: usize, capacity: u64 },
    /// Close the batching window: one scheduling round.
    Flush,
}

/// The common drive surface of [`ServiceCore`] and [`NaiveService`], so one
/// `apply` feeds both sides of the differential.
trait Drive {
    fn submit_job(&mut self, tenant: &str, job: MoldableJob, deps: &[u64]) -> Result<u64, String>;
    fn submit_dag(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
    ) -> Result<Vec<u64>, String>;
    fn submit_capacity(&mut self, resource: usize, capacity: u64) -> Result<(), String>;
    fn flush(&mut self) -> Result<(), String>;
    fn submitted(&self) -> u64;
}

impl Drive for ServiceCore {
    fn submit_job(&mut self, tenant: &str, job: MoldableJob, deps: &[u64]) -> Result<u64, String> {
        ServiceCore::submit_job(self, tenant, job, deps)
    }
    fn submit_dag(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
    ) -> Result<Vec<u64>, String> {
        ServiceCore::submit_dag(self, tenant, jobs, edges)
    }
    fn submit_capacity(&mut self, resource: usize, capacity: u64) -> Result<(), String> {
        ServiceCore::submit_capacity(self, resource, capacity)
    }
    fn flush(&mut self) -> Result<(), String> {
        ServiceCore::flush(self)
    }
    fn submitted(&self) -> u64 {
        self.status().jobs_submitted
    }
}

impl Drive for NaiveService {
    fn submit_job(&mut self, tenant: &str, job: MoldableJob, deps: &[u64]) -> Result<u64, String> {
        NaiveService::submit_job(self, tenant, job, deps)
    }
    fn submit_dag(
        &mut self,
        tenant: &str,
        jobs: Vec<MoldableJob>,
        edges: &[(usize, usize)],
    ) -> Result<Vec<u64>, String> {
        NaiveService::submit_dag(self, tenant, jobs, edges)
    }
    fn submit_capacity(&mut self, resource: usize, capacity: u64) -> Result<(), String> {
        NaiveService::submit_capacity(self, resource, capacity)
    }
    fn flush(&mut self) -> Result<(), String> {
        NaiveService::flush(self)
    }
    fn submitted(&self) -> u64 {
        self.status().jobs_submitted
    }
}

/// Applies one op and returns the reply rendered for byte-comparison.
fn apply<S: Drive>(svc: &mut S, op: &Op) -> String {
    match op {
        Op::Job { tenant, time, deps } => {
            format!("{:?}", svc.submit_job(TENANTS[*tenant], job(*time), deps))
        }
        Op::Dag {
            tenant,
            times,
            chain,
        } => {
            let jobs: Vec<MoldableJob> = times.iter().map(|&t| job(t)).collect();
            let edges: Vec<(usize, usize)> = if *chain {
                (1..jobs.len()).map(|i| (i - 1, i)).collect()
            } else {
                Vec::new()
            };
            format!("{:?}", svc.submit_dag(TENANTS[*tenant], jobs, &edges))
        }
        Op::Capacity { resource, capacity } => {
            format!("{:?}", svc.submit_capacity(*resource, *capacity))
        }
        Op::Flush => format!("{:?}", svc.flush()),
    }
}

/// The deterministic fingerprint the differential compares: metrics JSON,
/// the flight recorder's deterministic digests, and the full drain report
/// (trace included) — everything except wall-clock and the durability
/// status, which is *intentionally* excluded (a recovered core differs from
/// an uninterrupted one exactly there, and nowhere else).
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

fn naive_fingerprint(naive: &mut NaiveService) -> (String, String, String) {
    let status = serde_json::to_string(&naive.status()).unwrap();
    let digests = naive.flight_digests();
    let report = naive.drain().unwrap();
    (
        status,
        serde_json::to_string(&digests).unwrap(),
        serde_json::to_string(&report).unwrap(),
    )
}

/// The recorded op-stream: four rounds, cross-batch dependencies, an atomic
/// DAG, a capacity drop and recovery, a rejection (replayed — it mutates
/// metrics), and a trailing unflushed submission so the tail WAL record is a
/// `Job` frame with a payload worth sweeping byte-by-byte.
fn script() -> Vec<Op> {
    vec![
        Op::Job {
            tenant: 0,
            time: 2.0,
            deps: vec![],
        },
        Op::Job {
            tenant: 1,
            time: 1.5,
            deps: vec![0],
        },
        Op::Flush,
        Op::Dag {
            tenant: 0,
            times: vec![1.0, 1.0],
            chain: true,
        },
        Op::Capacity {
            resource: 0,
            capacity: 2,
        },
        Op::Job {
            tenant: 1,
            time: 1.0,
            deps: vec![99],
        },
        Op::Flush,
        Op::Job {
            tenant: 1,
            time: 0.5,
            deps: vec![2],
        },
        Op::Job {
            tenant: 2,
            time: 2.5,
            deps: vec![],
        },
        Op::Flush,
        Op::Capacity {
            resource: 0,
            capacity: 4,
        },
        Op::Dag {
            tenant: 2,
            times: vec![0.8, 0.6],
            chain: false,
        },
        Op::Flush,
        Op::Job {
            tenant: 0,
            time: 3.0,
            deps: vec![5],
        },
    ]
}

/// The uninterrupted reference: the naive service over the full script.
fn naive_reference(ops: &[Op]) -> (Vec<String>, (String, String, String)) {
    let mut naive = NaiveService::new(plain_config());
    let replies: Vec<String> = ops.iter().map(|op| apply(&mut naive, op)).collect();
    let fp = naive_fingerprint(&mut naive);
    (replies, fp)
}

// ---------------------------------------------------------------------------
// Sweep 1: kill the core at every op boundary (covers every round boundary).
// ---------------------------------------------------------------------------

#[test]
fn crash_at_every_op_boundary_recovers_byte_identical() {
    let ops = script();
    let (want_replies, want_fp) = naive_reference(&ops);
    for crash_at in 0..=ops.len() {
        let dir = temp_dir("boundary");
        let (mut core, report) = ServiceCore::open(durable_config(&dir)).unwrap();
        assert!(report.is_none());
        let mut replies: Vec<String> = ops[..crash_at]
            .iter()
            .map(|op| apply(&mut core, op))
            .collect();
        drop(core); // crash

        let (mut recovered, report) = ServiceCore::recover(durable_config(&dir))
            .unwrap_or_else(|e| panic!("crash point {crash_at}: recovery failed: {e}"));
        assert_eq!(
            report.truncated_bytes, 0,
            "crash point {crash_at}: a clean log has nothing to cut"
        );
        replies.extend(ops[crash_at..].iter().map(|op| apply(&mut recovered, op)));

        assert_eq!(
            replies, want_replies,
            "crash point {crash_at}: replies diverged"
        );
        assert_eq!(
            fingerprint(&mut recovered),
            want_fp,
            "crash point {crash_at}: state diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Crash **mid-retry-backoff**: under a failure plan, some flushed rounds
/// pause with a failed job sitting in its virtual-time backoff window —
/// failed once, not yet re-run. Killing the core at every op boundary also
/// kills it at those states; recovery must resume the failure sampler's
/// random stream exactly (by replaying the recorded attempt count) and
/// continue byte-identical to an uninterrupted run, quarantine included.
#[test]
fn crash_mid_retry_backoff_recovers_byte_identical() {
    let failures = mrls_sim::FailurePlan {
        model: mrls_sim::FailureModel::Random { prob: 0.6 },
        outages: vec![],
        retry: mrls_sim::RetryPolicy {
            max_attempts: 2,
            backoff_base: 1.5,
            backoff_factor: 2.0,
        },
    };
    let durable = |dir: &Path| ServeConfig {
        failures: failures.clone(),
        ..durable_config(dir)
    };
    let plain = ServeConfig {
        failures: failures.clone(),
        ..plain_config()
    };
    let ops = script();

    // The uninterrupted reference, on both the naive core (a different code
    // path entirely) and a plain incremental core.
    let mut naive = NaiveService::new(plain.clone());
    let want_replies: Vec<String> = ops.iter().map(|op| apply(&mut naive, op)).collect();
    let want_quarantine = {
        let mut probe = ServiceCore::new(plain.clone()).unwrap();
        for op in &ops {
            apply(&mut probe, op);
        }
        let _ = probe.drain().unwrap();
        let status = probe.status();
        let retried: u64 = status.tenants.values().map(|t| t.retried).sum();
        let quarantined: u64 = status.tenants.values().map(|t| t.quarantined).sum();
        assert!(
            retried > 0 && quarantined > 0,
            "the failure plan must actually bite for this test to mean anything \
             (retried {retried}, quarantined {quarantined})"
        );
        serde_json::to_string(&probe.quarantine()).unwrap()
    };
    let _ = naive.drain().unwrap();
    assert_eq!(
        want_quarantine,
        serde_json::to_string(&naive.quarantine()).unwrap(),
        "the two uninterrupted cores disagree on the quarantine"
    );
    let want_fp = {
        let mut probe = ServiceCore::new(plain.clone()).unwrap();
        for op in &ops {
            apply(&mut probe, op);
        }
        fingerprint(&mut probe)
    };

    for crash_at in 0..=ops.len() {
        let dir = temp_dir("backoff");
        let (mut core, _) = ServiceCore::open(durable(&dir)).unwrap();
        let mut replies: Vec<String> = ops[..crash_at]
            .iter()
            .map(|op| apply(&mut core, op))
            .collect();
        drop(core); // crash — possibly with a job mid-backoff

        let (mut recovered, _) = ServiceCore::recover(durable(&dir))
            .unwrap_or_else(|e| panic!("crash point {crash_at}: recovery failed: {e}"));
        replies.extend(ops[crash_at..].iter().map(|op| apply(&mut recovered, op)));
        assert_eq!(
            replies, want_replies,
            "crash point {crash_at}: replies diverged under failure injection"
        );
        assert_eq!(
            fingerprint(&mut recovered),
            want_fp,
            "crash point {crash_at}: state diverged under failure injection"
        );
        assert_eq!(
            serde_json::to_string(&recovered.quarantine()).unwrap(),
            want_quarantine,
            "crash point {crash_at}: quarantine diverged"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Double crashes: recovery of a recovered directory must be just as exact
/// (the `Recovered` audit record replays as a no-op).
#[test]
fn repeated_crashes_stay_byte_identical() {
    let ops = script();
    let (want_replies, want_fp) = naive_reference(&ops);
    let dir = temp_dir("double");
    let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
    let mut replies: Vec<String> = ops[..5].iter().map(|op| apply(&mut core, op)).collect();
    drop(core);
    let (mut core, _) = ServiceCore::recover(durable_config(&dir)).unwrap();
    replies.extend(ops[5..9].iter().map(|op| apply(&mut core, op)));
    drop(core);
    let (mut core, _) = ServiceCore::recover(durable_config(&dir)).unwrap();
    replies.extend(ops[9..].iter().map(|op| apply(&mut core, op)));
    assert_eq!(core.durability_status().recoveries, 2);
    assert_eq!(replies, want_replies);
    assert_eq!(fingerprint(&mut core), want_fp);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Sweep 2: truncate the log at every byte offset within the tail record.
// ---------------------------------------------------------------------------

/// Reads the frame layout of a log: `ends[k]` is the byte offset after the
/// `k`-th record (so `ends[0]` is the magic length). Walked from the raw
/// length prefixes, independently of the scanner under test.
fn frame_ends(bytes: &[u8]) -> Vec<u64> {
    let mut ends = vec![8u64];
    let mut pos = 8usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        pos += 8 + len;
        ends.push(pos as u64);
    }
    ends
}

/// The independent reference for a log prefix: a plain (non-durable) core
/// fed the logged inputs through the public API. What recovery of a log cut
/// to `records` must be byte-identical to.
fn reference_for_prefix(records: &[WalRecord]) -> (String, String, String) {
    let mut core = ServiceCore::new(plain_config()).unwrap();
    for record in records {
        match &record.op {
            WalOp::Job { tenant, job, deps } => {
                let _ = core.submit_job(tenant, job.clone(), deps);
            }
            WalOp::Dag {
                tenant,
                jobs,
                edges,
            } => {
                let _ = core.submit_dag(tenant, jobs.clone(), edges);
            }
            WalOp::TokenJob {
                tenant,
                job,
                deps,
                token,
            } => {
                let _ = core.submit_job_token(tenant, job.clone(), deps, Some(token));
            }
            WalOp::TokenDag {
                tenant,
                jobs,
                edges,
                token,
            } => {
                let _ = core.submit_dag_token(tenant, jobs.clone(), edges, Some(token));
            }
            WalOp::Capacity { resource, capacity } => {
                let _ = core.submit_capacity(*resource, *capacity);
            }
            WalOp::Round { drain, .. } => {
                if *drain {
                    let _ = core.drain();
                } else {
                    let _ = core.flush();
                }
            }
            WalOp::Recovered { .. } => {}
        }
    }
    fingerprint(&mut core)
}

/// Truncates a copy of `dir`'s log to `len` bytes and recovers from it,
/// returning the recovery report's cut-byte count and the fingerprint.
fn recover_truncated(dir: &Path, len: u64, tag: &str) -> (u64, u64, (String, String, String)) {
    let copy = temp_dir(tag);
    copy_dir(dir, &copy);
    let wal = wal_path(&copy);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len)
        .unwrap();
    let (mut core, report) = ServiceCore::recover(durable_config(&copy))
        .unwrap_or_else(|e| panic!("truncation to {len} bytes: recovery failed: {e}"));
    let status = core.durability_status();
    assert_eq!(status.truncated_bytes, report.truncated_bytes);
    assert_eq!(status.recoveries, 1);
    let fp = fingerprint(&mut core);
    std::fs::remove_dir_all(&copy).unwrap();
    (report.truncated_bytes, report.checkpoint_seq, fp)
}

#[test]
fn truncation_at_every_byte_offset_recovers_the_longest_valid_prefix() {
    let dir = temp_dir("bytes");
    let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
    for op in &script() {
        apply(&mut core, op);
    }
    drop(core);

    let bytes = std::fs::read(wal_path(&dir)).unwrap();
    let scan = scan_wal(&wal_path(&dir)).unwrap();
    let ends = frame_ends(&bytes);
    assert_eq!(ends.len(), scan.records.len() + 1, "frame walk disagrees");
    assert_eq!(*ends.last().unwrap(), bytes.len() as u64, "clean log");
    let n = scan.records.len();

    // Expected fingerprints per whole-record prefix, from the independent
    // replay of the scanned records — computed once per length.
    let expected: Vec<(String, String, String)> = (0..=n)
        .map(|k| reference_for_prefix(&scan.records[..k]))
        .collect();

    // Every record boundary: recovery rebuilds exactly that prefix, cutting
    // nothing (the file *ends* at a boundary).
    for k in 0..=n {
        let (cut, _, fp) = recover_truncated(&dir, ends[k], "bytes-edge");
        assert_eq!(cut, 0, "boundary {k}: nothing to cut");
        assert_eq!(fp, expected[k], "boundary {k}: wrong prefix recovered");
    }

    // Every byte offset within the tail record: the torn frame is cut, the
    // prefix before it recovered. The tail record is a `Job` submission, so
    // the sweep crosses its length prefix, checksum and payload.
    let tail_start = ends[n - 1];
    let tail_end = ends[n];
    assert!(
        matches!(scan.records[n - 1].op, WalOp::Job { .. }),
        "the script must leave a Job frame as the tail record"
    );
    for offset in tail_start..tail_end {
        let (cut, _, fp) = recover_truncated(&dir, offset, "bytes-tail");
        assert_eq!(
            cut,
            offset - tail_start,
            "offset {offset}: the torn tail is what gets cut"
        );
        assert_eq!(
            fp,
            expected[n - 1],
            "offset {offset}: recovery must land on the longest valid prefix"
        );
    }

    // Offsets inside the magic: no valid prefix at all — recovery starts
    // from genesis with an empty log and cuts every surviving byte.
    for offset in 0..8 {
        let (cut, _, fp) = recover_truncated(&dir, offset, "bytes-magic");
        assert_eq!(cut, offset);
        assert_eq!(fp, expected[0]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Corruption matrix.
// ---------------------------------------------------------------------------

/// Flips one bit of a copy of `dir`'s log at byte `offset` and recovers.
fn recover_flipped(dir: &Path, offset: usize, expect: &(String, String, String), what: &str) {
    let copy = temp_dir("flip");
    copy_dir(dir, &copy);
    let wal = wal_path(&copy);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[offset] ^= 0x10;
    std::fs::write(&wal, &bytes).unwrap();
    let (mut core, report) = ServiceCore::recover(durable_config(&copy))
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    assert!(
        report.truncated_bytes > 0,
        "{what}: the corrupt tail must be cut"
    );
    assert_eq!(
        &fingerprint(&mut core),
        expect,
        "{what}: recovery must rebuild the prefix before the flip"
    );
    std::fs::remove_dir_all(&copy).unwrap();
}

#[test]
fn bit_flips_cut_the_log_at_the_corrupt_record() {
    let dir = temp_dir("matrix");
    let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
    for op in &script() {
        apply(&mut core, op);
    }
    drop(core);
    let bytes = std::fs::read(wal_path(&dir)).unwrap();
    let ends = frame_ends(&bytes);
    let scan = scan_wal(&wal_path(&dir)).unwrap();
    let n = scan.records.len();
    // Flip targets: the first record, one mid-log, and the tail record —
    // each hit in its length prefix, its checksum, and its payload.
    for &k in &[0usize, n / 2, n - 1] {
        let start = ends[k] as usize;
        let payload_mid = start + 8 + (ends[k + 1] as usize - start - 8) / 2;
        let expect = reference_for_prefix(&scan.records[..k]);
        recover_flipped(&dir, start, &expect, &format!("record {k} length prefix"));
        recover_flipped(&dir, start + 4, &expect, &format!("record {k} checksum"));
        recover_flipped(
            &dir,
            start + 8,
            &expect,
            &format!("record {k} payload head"),
        );
        recover_flipped(
            &dir,
            payload_mid,
            &expect,
            &format!("record {k} payload mid"),
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_tails_empty_files_and_duplicates_recover_to_the_valid_prefix() {
    let dir = temp_dir("tails");
    let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
    for op in &script() {
        apply(&mut core, op);
    }
    drop(core);
    let bytes = std::fs::read(wal_path(&dir)).unwrap();
    let scan = scan_wal(&wal_path(&dir)).unwrap();
    let n = scan.records.len();
    let full = reference_for_prefix(&scan.records);
    let ends = frame_ends(&bytes);

    // Garbage tail: cut in full, everything before it recovered. The obs
    // counter mirrors the report (per-thread store, drained around the
    // recovery).
    {
        let copy = temp_dir("garbage");
        copy_dir(&dir, &copy);
        let mut corrupt = bytes.clone();
        corrupt.extend(std::iter::repeat_n(0xA5, 100));
        std::fs::write(wal_path(&copy), &corrupt).unwrap();
        mrls_obs::set_enabled(true);
        let _ = mrls_obs::take();
        let (mut core, report) = ServiceCore::recover(durable_config(&copy)).unwrap();
        let counters = mrls_obs::take().counters;
        assert_eq!(report.truncated_bytes, 100);
        assert_eq!(counters.get("serve.wal.truncated_bytes"), Some(&100));
        assert_eq!(counters.get("serve.wal.recoveries"), Some(&1));
        assert_eq!(fingerprint(&mut core), full);
        std::fs::remove_dir_all(&copy).unwrap();
    }

    // Empty file: recovery starts clean and the core still serves.
    {
        let copy = temp_dir("empty");
        copy_dir(&dir, &copy);
        std::fs::write(wal_path(&copy), b"").unwrap();
        let (mut core, report) = ServiceCore::recover(durable_config(&copy)).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(
            report.checkpoint_round, None,
            "no log, no usable checkpoint"
        );
        core.submit_job("alpha", job(1.0), &[]).unwrap();
        let drained = core.drain().unwrap();
        assert_eq!(drained.completed, 1);
        std::fs::remove_dir_all(&copy).unwrap();
    }

    // Duplicated tail record: the sequence break cuts the copy, the original
    // prefix replays once — records never apply twice.
    {
        let copy = temp_dir("dup");
        copy_dir(&dir, &copy);
        let frame = &bytes[ends[n - 1] as usize..];
        let mut corrupt = bytes.clone();
        corrupt.extend_from_slice(frame);
        std::fs::write(wal_path(&copy), &corrupt).unwrap();
        let (mut core, report) = ServiceCore::recover(durable_config(&copy)).unwrap();
        assert_eq!(report.truncated_bytes, frame.len() as u64);
        assert_eq!(fingerprint(&mut core), full);
        std::fs::remove_dir_all(&copy).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Half-applied rounds are typed errors, not silent divergence.
// ---------------------------------------------------------------------------

/// Rewrites a log with the same ops but a tampered round stamp: the frames
/// are checksum-valid, so only the replay cross-check can catch it — and it
/// must, with a typed error instead of serving diverged state.
#[test]
fn a_tampered_round_stamp_is_a_typed_replay_error() {
    let dir = temp_dir("tamper");
    let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
    for op in &script() {
        apply(&mut core, op);
    }
    drop(core);
    let scan = scan_wal(&wal_path(&dir)).unwrap();
    let last_round = scan
        .records
        .iter()
        .rposition(|r| matches!(r.op, WalOp::Round { .. }))
        .unwrap();
    let mut writer = WalWriter::create(&wal_path(&dir), DurabilityMode::Buffered).unwrap();
    for (i, record) in scan.records[..=last_round].iter().enumerate() {
        let op = match &record.op {
            WalOp::Round { stamp, drain } if i == last_round => WalOp::Round {
                stamp: stamp + 0.5,
                drain: *drain,
            },
            other => other.clone(),
        };
        writer.append(op).unwrap();
    }
    drop(writer);
    // Drop the checkpoints: the newest one covers the tampered record and
    // would legitimately mask it — the point here is the replay cross-check.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("checkpoint-"))
        {
            std::fs::remove_file(path).unwrap();
        }
    }
    // Only the tampered marker's stamp disagrees; every earlier round is
    // intact, so replay fails exactly there.
    let err = ServiceCore::recover(durable_config(&dir)).unwrap_err();
    match err {
        RecoverError::Replay { seq, detail } => {
            assert_eq!(seq, last_round as u64);
            assert!(detail.contains("stamp"), "{detail}");
        }
        other => panic!("expected a typed replay error, got: {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A round marker with nothing batched before it cannot come from the real
/// logger; replay rejects it instead of running a phantom round.
#[test]
fn a_round_marker_with_an_empty_batch_is_a_typed_replay_error() {
    let dir = temp_dir("phantom");
    let (core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
    drop(core);
    let mut writer = WalWriter::create(&wal_path(&dir), DurabilityMode::Buffered).unwrap();
    writer
        .append(WalOp::Round {
            stamp: 0.0,
            drain: false,
        })
        .unwrap();
    drop(writer);
    let err = ServiceCore::recover(durable_config(&dir)).unwrap_err();
    assert!(
        matches!(err, RecoverError::Replay { seq: 0, .. }),
        "expected a typed replay error at record 0, got: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Crash-injection proptest: random streams × random crash points × random
// tail cuts. Recovery must never panic and never serve a half-applied round:
// it lands on a consistent boundary (proved by the genesis replay agreeing)
// or rejects with a typed error (never observed for prefix damage).
// ---------------------------------------------------------------------------

/// Randomized op: dependencies are offsets back from the newest id (dangling
/// on an empty world — a rejection, identical on every path).
#[derive(Debug, Clone)]
enum RandOp {
    Job {
        tenant: u8,
        time_centi: u16,
        deps: Vec<u8>,
    },
    Dag {
        tenant: u8,
        times_centi: Vec<u16>,
        chain: bool,
    },
    Capacity {
        resource: u8,
        capacity: u8,
    },
    Flush,
}

fn rand_op_strategy() -> impl Strategy<Value = RandOp> {
    prop_oneof![
        (0u8..3, 1u16..300, proptest::collection::vec(0u8..6, 0..3)).prop_map(
            |(tenant, time_centi, deps)| RandOp::Job {
                tenant,
                time_centi,
                deps,
            }
        ),
        (
            0u8..3,
            proptest::collection::vec(1u16..200, 1..4),
            proptest::bool::Any
        )
            .prop_map(|(tenant, times_centi, chain)| RandOp::Dag {
                tenant,
                times_centi,
                chain,
            }),
        (0u8..3, 0u8..5).prop_map(|(resource, capacity)| RandOp::Capacity { resource, capacity }),
        Just(RandOp::Flush),
        Just(RandOp::Flush),
    ]
}

/// Resolves a randomized op against the service's current world size and
/// applies it, returning the rendered reply.
fn apply_rand<S: Drive>(svc: &mut S, op: &RandOp) -> String {
    let resolved = match op {
        RandOp::Job {
            tenant,
            time_centi,
            deps,
        } => {
            let n = svc.submitted();
            Op::Job {
                tenant: *tenant as usize,
                time: 0.25 + f64::from(*time_centi) / 100.0,
                deps: deps
                    .iter()
                    .map(|&off| {
                        if n == 0 {
                            u64::from(off)
                        } else {
                            n - 1 - (u64::from(off) % n)
                        }
                    })
                    .collect(),
            }
        }
        RandOp::Dag {
            tenant,
            times_centi,
            chain,
        } => Op::Dag {
            tenant: *tenant as usize,
            times: times_centi
                .iter()
                .map(|&t| 0.25 + f64::from(t) / 100.0)
                .collect(),
            chain: *chain,
        },
        RandOp::Capacity { resource, capacity } => Op::Capacity {
            resource: *resource as usize,
            capacity: u64::from(*capacity),
        },
        RandOp::Flush => Op::Flush,
    };
    apply(svc, &resolved)
}

proptest! {
    // Fixed seed, like the main differential: every case replays exactly.
    #![proptest_config(ProptestConfig { cases: 16, seed: 0x5eed_c4a5 })]

    #[test]
    fn random_crashes_and_cuts_recover_to_a_consistent_boundary(
        ops in proptest::collection::vec(rand_op_strategy(), 4..20),
        crash_raw in 0usize..32,
        cut in 0u64..96,
    ) {
        let crash_at = crash_raw % (ops.len() + 1);
        let dir = temp_dir("prop");
        let (mut core, _) = ServiceCore::open(durable_config(&dir)).unwrap();
        let mut replies: Vec<String> =
            ops[..crash_at].iter().map(|op| apply_rand(&mut core, op)).collect();
        drop(core); // crash

        if cut == 0 {
            // Clean crash: the full differential against the naive reference.
            let (mut recovered, report) = ServiceCore::recover(durable_config(&dir)).unwrap();
            prop_assert_eq!(report.truncated_bytes, 0);
            replies.extend(ops[crash_at..].iter().map(|op| apply_rand(&mut recovered, op)));
            let mut naive = NaiveService::new(plain_config());
            let want: Vec<String> = ops.iter().map(|op| apply_rand(&mut naive, op)).collect();
            prop_assert_eq!(replies, want);
            prop_assert_eq!(fingerprint(&mut recovered), naive_fingerprint(&mut naive));
        } else {
            // Torn crash: cut `cut` bytes off the tail (clamped — cutting
            // into the magic is fair game), then prove consistency by the
            // two independent recovery paths agreeing byte-for-byte:
            // checkpoint+suffix on one copy, genesis replay on the other.
            let wal = wal_path(&dir);
            let len = std::fs::metadata(&wal).unwrap().len();
            let target = len.saturating_sub(cut);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal)
                .unwrap()
                .set_len(target)
                .unwrap();
            let twin = temp_dir("prop-twin");
            copy_dir(&dir, &twin);
            let (mut a, ra) = ServiceCore::recover(durable_config(&dir)).unwrap();
            let (mut b, rb) = ServiceCore::recover_from_genesis(durable_config(&twin)).unwrap();
            prop_assert_eq!(ra.truncated_bytes, rb.truncated_bytes);
            prop_assert_eq!(fingerprint(&mut a), fingerprint(&mut b));
            std::fs::remove_dir_all(&twin).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
