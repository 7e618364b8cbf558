//! The durability subsystem: a checksummed, length-prefixed append-only
//! **write-ahead log** of every admitted input, plus rotating checkpoint
//! files with log-position watermarks.
//!
//! The service core is deterministic in its submission order — same inputs,
//! byte-identical outputs — so durability only has to persist the *inputs*:
//! each admitted submission, capacity change and round stamp is appended
//! here **before** the reply is sent, and a crashed server replays the log
//! suffix through the unchanged round machinery to rebuild exactly the state
//! it lost. Checkpoints (the service's [`DurableState`] rendered to JSON,
//! written atomically via tmp + rename) bound how much suffix a recovery
//! must replay; their embedded `wal_seq` watermark says which log prefix
//! they already cover.
//!
//! ## On-disk format
//!
//! `wal.log` starts with the 8-byte magic `MRLSWAL1`, followed by records:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32][payload: compact JSON WalRecord]
//! ```
//!
//! The CRC covers the length prefix *and* the payload, so a bit flip
//! anywhere in a record — header, checksum or body — fails verification.
//! Each [`WalRecord`] carries a sequence number that must increase by one
//! from zero; a reader stops at the first torn, corrupt, oversized or
//! out-of-sequence record and **truncates** the file back to the last valid
//! prefix (the tail of a crashed write is discarded, never propagated, and a
//! duplicated record is cut at its first repeat — replay is idempotent
//! because every surviving record applies exactly once).
//!
//! [`DurableState`]: crate::service::ServiceCore::recover

use mrls_model::MoldableJob;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The 8-byte magic that opens every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"MRLSWAL1";

/// File name of the log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

/// Hard cap on one record's payload: a bit-flipped length prefix must not
/// make the reader allocate gigabytes (the CRC would catch it anyway, but
/// only after the read).
pub const MAX_RECORD_BYTES: u32 = 16 << 20;

/// How many checkpoint files are retained (newest first; older pruned).
pub const CHECKPOINTS_KEPT: usize = 2;

/// How the log is persisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No log, no checkpoints — a crash loses everything (the pre-durability
    /// behaviour).
    #[default]
    Off,
    /// Every record is written straight through to the OS before the reply
    /// is sent: survives a killed *process*, not a killed machine.
    Buffered,
    /// Every append is additionally `fsync`ed: survives power loss, at the
    /// cost of one disk sync per record.
    Fsync,
}

impl DurabilityMode {
    /// Parses `off` / `buffered` / `fsync`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(DurabilityMode::Off),
            "buffered" => Ok(DurabilityMode::Buffered),
            "fsync" => Ok(DurabilityMode::Fsync),
            other => Err(format!(
                "unknown durability mode `{other}` (expected off|buffered|fsync)"
            )),
        }
    }

    /// The canonical name (`off` / `buffered` / `fsync`).
    pub fn label(self) -> &'static str {
        match self {
            DurabilityMode::Off => "off",
            DurabilityMode::Buffered => "buffered",
            DurabilityMode::Fsync => "fsync",
        }
    }
}

/// One logged input. Everything the deterministic core needs to re-derive
/// its state: admissions and capacity changes as submitted (including ones
/// the core will re-reject during replay — rejections mutate metrics, so
/// they must replay too), and a [`WalOp::Round`] marker wherever the
/// wall-clock-driven batching actually closed a window (batch boundaries are
/// the one nondeterministic input, so they are recorded, not re-derived).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalOp {
    /// One `submit_job` call.
    Job {
        /// Tenant the work was accounted under.
        tenant: String,
        /// The submitted job description.
        job: MoldableJob,
        /// Global ids of its predecessors, as submitted.
        deps: Vec<u64>,
    },
    /// One `submit_dag` call.
    Dag {
        /// Tenant the work was accounted under.
        tenant: String,
        /// The submitted jobs.
        jobs: Vec<MoldableJob>,
        /// Local precedence edges, as submitted.
        edges: Vec<(usize, usize)>,
    },
    /// One `submit_job` call that carried a client idempotency token. Kept
    /// separate from [`WalOp::Job`] so pre-token logs replay untouched.
    TokenJob {
        /// Tenant the work was accounted under.
        tenant: String,
        /// The submitted job description.
        job: MoldableJob,
        /// Global ids of its predecessors, as submitted.
        deps: Vec<u64>,
        /// The client-assigned idempotency token.
        token: String,
    },
    /// One `submit_dag` call that carried a client idempotency token.
    TokenDag {
        /// Tenant the work was accounted under.
        tenant: String,
        /// The submitted jobs.
        jobs: Vec<MoldableJob>,
        /// Local precedence edges, as submitted.
        edges: Vec<(usize, usize)>,
        /// The client-assigned idempotency token.
        token: String,
    },
    /// One `submit_capacity` call.
    Capacity {
        /// Affected resource type.
        resource: usize,
        /// The new capacity.
        capacity: u64,
    },
    /// The batching window closed: one scheduling round ran here. `stamp` is
    /// the virtual time the round's events were stamped with — replay
    /// cross-checks it against what the rebuilt core would stamp, so a
    /// half-applied or misordered log is detected instead of silently
    /// diverging.
    Round {
        /// Virtual time of the round.
        stamp: f64,
        /// Whether this was a drain (engine driven to completion) rather
        /// than a paused round.
        drain: bool,
    },
    /// A recovery completed here, having cut `truncated_bytes` of invalid
    /// tail. Purely informational — replay skips it — but it makes crash
    /// history auditable from the log alone.
    Recovered {
        /// Bytes of torn/corrupt tail discarded by the recovery.
        truncated_bytes: u64,
    },
}

/// One sequenced record of the log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Position in the log, starting at zero, increasing by exactly one —
    /// the idempotence guard: a reader stops at the first sequence break, so
    /// a duplicated or reordered record can never apply twice.
    pub seq: u64,
    /// The logged input.
    pub op: WalOp,
}

/// The result of scanning (and repairing) a log file.
#[derive(Debug)]
pub struct WalScan {
    /// Every valid record, in sequence order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic included).
    pub valid_len: u64,
    /// Bytes of invalid tail that were cut (zero for a clean log).
    pub truncated_bytes: u64,
}

/// A typed recovery failure. Everything a recovery can reject is one of
/// these — recovery never panics and never leaves a half-applied core
/// behind.
#[derive(Debug)]
pub enum RecoverError {
    /// The configuration describes a machine the service cannot run (no
    /// resource types, or a zero capacity).
    Config(String),
    /// The durability directory or its files could not be read or written.
    Io(std::io::Error),
    /// A checkpoint file exists but cannot be used (unparsable, or its
    /// watermark points past the valid log) and no older one works either.
    Checkpoint(String),
    /// The log's surviving prefix does not replay to a consistent round
    /// boundary (e.g. a round marker whose stamp the rebuilt core
    /// contradicts).
    Replay {
        /// Sequence number of the record that failed to apply.
        seq: u64,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Config(d) => write!(f, "invalid configuration: {d}"),
            RecoverError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoverError::Checkpoint(d) => write!(f, "unusable checkpoint: {d}"),
            RecoverError::Replay { seq, detail } => {
                write!(f, "log replay failed at record {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What a completed recovery did — surfaced by `mrls recover` and the
/// `QueryDurability` verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Round count of the checkpoint the recovery started from (`None` =
    /// rebuilt from genesis).
    pub checkpoint_round: Option<u64>,
    /// Log position (records) the checkpoint already covered.
    pub checkpoint_seq: u64,
    /// Records replayed beyond the checkpoint.
    pub replayed_records: u64,
    /// Rounds re-run during replay.
    pub replayed_rounds: u64,
    /// Bytes of torn/corrupt tail discarded before replay.
    pub truncated_bytes: u64,
}

/// The queryable state of the durability layer ([`QueryDurability`]).
///
/// [`QueryDurability`]: crate::protocol::RequestBody::QueryDurability
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityStatus {
    /// The mode label (`off` / `buffered` / `fsync`).
    pub mode: String,
    /// Records in the log (equivalently: the next sequence number).
    pub wal_records: u64,
    /// Valid byte length of the log (magic included); zero when off.
    pub wal_bytes: u64,
    /// Round count at the newest checkpoint, if one was written.
    pub last_checkpoint_round: Option<u64>,
    /// Log position (records covered) of the newest checkpoint.
    pub last_checkpoint_seq: Option<u64>,
    /// Checkpoints written by this core since it started.
    pub checkpoints_written: u64,
    /// Recoveries this core performed (0 for a fresh start, 1 after one
    /// crash-restart, …).
    pub recoveries: u64,
    /// Total bytes of invalid tail cut by this core's recoveries.
    pub truncated_bytes: u64,
}

impl Default for DurabilityStatus {
    fn default() -> Self {
        DurabilityStatus {
            mode: DurabilityMode::Off.label().to_string(),
            wal_records: 0,
            wal_bytes: 0,
            last_checkpoint_round: None,
            last_checkpoint_seq: None,
            checkpoints_written: 0,
            recoveries: 0,
            truncated_bytes: 0,
        }
    }
}

/// Frames `record` into `frame` (cleared first). Taking the buffer from the
/// caller lets [`WalWriter::append`] reuse one allocation across appends —
/// the frame is on the per-round hot path of every durable service.
fn encode_record_into(frame: &mut Vec<u8>, record: &WalRecord) {
    use mrls_core::hash::{crc32_finish, crc32_init, crc32_update};
    let payload = serde_json::to_string(record).expect("WAL records are always serialisable");
    let payload = payload.as_bytes();
    let len = payload.len() as u32;
    frame.clear();
    frame.reserve(8 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    // The CRC covers the length prefix and the payload: a flip anywhere in
    // the frame fails verification. Incremental, so the append path copies
    // nothing extra.
    let crc = crc32_update(crc32_update(crc32_init(), &len.to_le_bytes()), payload);
    frame.extend_from_slice(&crc32_finish(crc).to_le_bytes());
    frame.extend_from_slice(payload);
}

#[cfg(test)]
fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_record_into(&mut frame, record);
    frame
}

/// Scans the log at `path`, returning every valid record and the byte
/// length of the valid prefix. A missing file scans as empty. The file is
/// **not** modified — callers decide whether to truncate (recovery does,
/// via [`WalWriter::resume`]).
pub fn scan_wal(path: &Path) -> std::io::Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let total = bytes.len() as u64;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // No valid prefix at all (empty, garbage, or a flipped magic): the
        // whole file is discardable tail.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            truncated_bytes: total,
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let mut expected_seq = 0u64;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break; // clean end
        }
        if rest.len() < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD_BYTES {
            break; // corrupt length prefix
        }
        let len = len as usize;
        if rest.len() < 8 + len {
            break; // torn payload
        }
        let payload = &rest[8..8 + len];
        let actual = {
            use mrls_core::hash::{crc32_finish, crc32_init, crc32_update};
            crc32_finish(crc32_update(
                crc32_update(crc32_init(), &rest[..4]),
                payload,
            ))
        };
        if actual != crc {
            break; // bit flip somewhere in the frame
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let record: WalRecord = match serde_json::from_str(text) {
            Ok(r) => r,
            Err(_) => break, // checksum-valid but unparsable: foreign writer
        };
        if record.seq != expected_seq {
            break; // duplicate or reordered record: cut at the break
        }
        expected_seq += 1;
        records.push(record);
        pos += 8 + len;
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        truncated_bytes: total - pos as u64,
    })
}

/// The append handle. Owns the open log file; every append writes one framed
/// record through to the OS (and syncs it in [`DurabilityMode::Fsync`])
/// before returning — the caller replies to the client only after.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    mode: DurabilityMode,
    next_seq: u64,
    bytes: u64,
    /// Reusable frame buffer: appends after the first allocate nothing.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Creates a fresh log at `path` (truncating whatever was there).
    pub fn create(path: &Path, mode: DurabilityMode) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        if mode == DurabilityMode::Fsync {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            mode,
            next_seq: 0,
            bytes: WAL_MAGIC.len() as u64,
            frame: Vec::new(),
        })
    }

    /// Re-opens the log at `path` for appending after a scan: truncates the
    /// file to the scan's `valid_len` (cutting any invalid tail on disk) and
    /// positions the writer after the last valid record.
    pub fn resume(path: &Path, mode: DurabilityMode, scan: &WalScan) -> std::io::Result<Self> {
        if scan.valid_len == 0 {
            return WalWriter::create(path, mode);
        }
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(scan.valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            mode,
            next_seq: scan.records.len() as u64,
            bytes: scan.valid_len,
            frame: Vec::new(),
        })
    }

    /// Appends one op as the next record and makes it durable per the mode.
    pub fn append(&mut self, op: WalOp) -> std::io::Result<u64> {
        let seq = self.next_seq;
        encode_record_into(&mut self.frame, &WalRecord { seq, op });
        self.file.write_all(&self.frame)?;
        let frame_len = self.frame.len() as u64;
        if self.mode == DurabilityMode::Fsync {
            self.file.sync_data()?;
            mrls_obs::counter_add("serve.wal.fsyncs", 1);
        }
        self.next_seq += 1;
        self.bytes += frame_len;
        mrls_obs::counter_add("serve.wal.records", 1);
        mrls_obs::counter_add("serve.wal.appended_bytes", frame_len);
        Ok(seq)
    }

    /// The next sequence number (= records in the log).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Current byte length of the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Path of the log file inside a durability directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Path of the checkpoint covering the first `seq` log records.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:012}.json"))
}

/// Writes a checkpoint atomically (tmp + rename) and prunes all but the
/// newest [`CHECKPOINTS_KEPT`] checkpoint files.
pub fn write_checkpoint(dir: &Path, seq: u64, json: &str) -> std::io::Result<()> {
    let tmp = dir.join(format!("checkpoint-{seq:012}.json.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, checkpoint_path(dir, seq))?;
    for (_, path) in list_checkpoints(dir)?.into_iter().skip(CHECKPOINTS_KEPT) {
        let _ = std::fs::remove_file(path);
    }
    mrls_obs::counter_add("serve.wal.checkpoints", 1);
    Ok(())
}

/// Lists the checkpoint files of `dir`, newest (highest covered sequence)
/// first.
pub fn list_checkpoints(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("checkpoint-") else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(".json") else {
            continue;
        };
        let Ok(seq) = digits.parse::<u64>() else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_model::ExecTimeSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mrls-wal-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Job {
                tenant: "alice".into(),
                job: MoldableJob::new(0, ExecTimeSpec::Constant { time: 2.0 }),
                deps: vec![],
            },
            WalOp::Capacity {
                resource: 0,
                capacity: 3,
            },
            WalOp::Round {
                stamp: 0.0,
                drain: false,
            },
            WalOp::Dag {
                tenant: "bob".into(),
                jobs: vec![MoldableJob::new(0, ExecTimeSpec::Constant { time: 1.0 })],
                edges: vec![],
            },
            WalOp::Round {
                stamp: 1.0,
                drain: true,
            },
        ]
    }

    #[test]
    fn log_roundtrips_and_resumes() {
        let dir = temp_dir();
        let path = wal_path(&dir);
        let mut w = WalWriter::create(&path, DurabilityMode::Buffered).unwrap();
        for op in ops() {
            w.append(op).unwrap();
        }
        assert_eq!(w.next_seq(), 5);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.truncated_bytes, 0);
        let expected: Vec<WalOp> = ops();
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.op, expected[i]);
        }
        // Resume appends after the last record.
        let mut w = WalWriter::resume(&path, DurabilityMode::Fsync, &scan).unwrap();
        w.append(WalOp::Recovered { truncated_bytes: 0 }).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.records[5].seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_byte_truncation_of_the_tail_recovers_the_prefix() {
        let dir = temp_dir();
        let path = wal_path(&dir);
        let mut w = WalWriter::create(&path, DurabilityMode::Buffered).unwrap();
        for op in ops() {
            w.append(op).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let scan = scan_wal(&path).unwrap();
        let tail_start = {
            // Byte offset where the last record's frame begins.
            let mut pos = WAL_MAGIC.len();
            for _ in 0..scan.records.len() - 1 {
                let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
                pos += 8 + len;
            }
            pos
        };
        for cut in tail_start..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert_eq!(
                scan.records.len(),
                4,
                "cut at {cut}: the first 4 records must survive"
            );
            assert_eq!(scan.valid_len as usize, tail_start, "cut at {cut}");
            assert_eq!(
                scan.truncated_bytes as usize,
                cut - tail_start,
                "cut at {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_anywhere_in_the_tail_record_are_detected() {
        let dir = temp_dir();
        let path = wal_path(&dir);
        let mut w = WalWriter::create(&path, DurabilityMode::Buffered).unwrap();
        for op in ops() {
            w.append(op).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let scan = scan_wal(&path).unwrap();
        let mut pos = WAL_MAGIC.len();
        for _ in 0..scan.records.len() - 1 {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
        }
        // Flip one bit per byte across the whole tail frame: header (length
        // and CRC words) and payload alike. The scan must never surface a
        // fifth record.
        for byte in pos..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 1 << (byte % 8);
            std::fs::write(&path, &flipped).unwrap();
            let scan = scan_wal(&path).unwrap();
            assert!(
                scan.records.len() <= 4,
                "flip at byte {byte} let a corrupt record through"
            );
            assert_eq!(scan.records.len(), 4, "flip at {byte} cut valid records");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequence_breaks_cut_the_log_at_the_break() {
        let dir = temp_dir();
        let path = wal_path(&dir);
        let mut w = WalWriter::create(&path, DurabilityMode::Buffered).unwrap();
        for op in ops().into_iter().take(2) {
            w.append(op).unwrap();
        }
        // Append a byte-level duplicate of record 1 (seq repeats).
        let dup = encode_record(&WalRecord {
            seq: 1,
            op: WalOp::Capacity {
                resource: 0,
                capacity: 3,
            },
        });
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&dup);
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "the duplicate must not re-apply");
        assert_eq!(scan.truncated_bytes as usize, dup.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_and_empty_files_scan_as_empty() {
        let dir = temp_dir();
        let path = wal_path(&dir);
        std::fs::write(&path, b"").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(
            (scan.records.len(), scan.valid_len, scan.truncated_bytes),
            (0, 0, 0)
        );
        std::fs::write(&path, b"complete garbage, not a WAL").unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.truncated_bytes, 27);
        // A missing file is an empty log too.
        std::fs::remove_file(&path).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!((scan.records.len(), scan.truncated_bytes), (0, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_rotate_and_list_newest_first() {
        let dir = temp_dir();
        for seq in [3u64, 9, 27] {
            write_checkpoint(&dir, seq, &format!("{{\"seq\":{seq}}}")).unwrap();
        }
        let listed = list_checkpoints(&dir).unwrap();
        let seqs: Vec<u64> = listed.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![27, 9], "newest first, third pruned");
        assert!(!checkpoint_path(&dir, 3).exists());
        assert_eq!(
            std::fs::read_to_string(&listed[0].1).unwrap(),
            "{\"seq\":27}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
