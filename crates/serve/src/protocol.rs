//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every request and every response is one JSON document on one line
//! (newline-terminated, at most [`ServeConfig::max_line_bytes`] bytes —
//! oversized lines are rejected and the connection closed). Requests carry a
//! client-chosen `id` that the matching response echoes, and a `tenant` name
//! under which the metrics layer accounts the work.
//!
//! [`ServeConfig::max_line_bytes`]: crate::ServeConfig::max_line_bytes
//!
//! ```text
//! -> {"id":1,"tenant":"alice","body":{"SubmitJob":{"job":{...},"deps":[]}}}
//! <- {"id":1,"body":{"Accepted":{"jobs":[0]}}}
//! ```

use crate::flight::RoundRecord;
use crate::metrics::MetricsSnapshot;
use mrls_model::MoldableJob;
use mrls_sim::RealizedTrace;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Read, Write};

/// Default cap on the byte length of one protocol line (1 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Cap on the byte length of one reply line read by the [`crate::Client`]
/// (256 MiB), separate from the server's request cap: a drain reply carries
/// the whole realized trace, and a compact drain report takes about 330
/// bytes per job, so this admits the drain of roughly 800 000 jobs while
/// still bounding what a misbehaving server can make the client buffer.
pub(crate) const MAX_REPLY_LINE_BYTES: usize = 256 << 20;

/// One client request.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tenant the work is accounted under.
    pub tenant: String,
    /// Client-assigned idempotency token for submit verbs: a resend carrying
    /// a token the server already accepted is answered with the original ids
    /// instead of being admitted twice (the retried-submission guarantee of
    /// the resilient client). `None` (the wire default) opts out.
    #[serde(default)]
    pub token: Option<String>,
    /// What is being asked.
    pub body: RequestBody,
}

// Hand-written so a `None` token is omitted instead of encoded as `null`
// (the vendored serde_derive has no `skip_serializing_if`).
impl Serialize for Request {
    fn to_value(&self) -> serde::__private::Value {
        use serde::__private::Value;
        let mut pairs = vec![
            ("id".to_string(), self.id.to_value()),
            ("tenant".to_string(), self.tenant.to_value()),
        ];
        if let Some(token) = &self.token {
            pairs.push(("token".to_string(), token.to_value()));
        }
        pairs.push(("body".to_string(), self.body.to_value()));
        Value::Object(pairs)
    }
}

/// The request payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Submit one moldable job. `deps` are global ids of previously accepted
    /// jobs (of any tenant) that must complete first.
    SubmitJob {
        /// The job description.
        job: MoldableJob,
        /// Global ids of its predecessors.
        deps: Vec<u64>,
    },
    /// Submit a whole DAG atomically. `edges` are `(from, to)` pairs of
    /// indices into `jobs`.
    SubmitDag {
        /// The jobs of the DAG, assigned consecutive global ids.
        jobs: Vec<MoldableJob>,
        /// Precedence edges among the submitted jobs.
        edges: Vec<(usize, usize)>,
    },
    /// Change one resource type's capacity (absolute new value, `>= 1`),
    /// effective at the next batching round.
    CapacityChange {
        /// Affected resource type.
        resource: usize,
        /// The new capacity.
        capacity: u64,
    },
    /// Ask for the current metrics snapshot.
    QueryStatus,
    /// Ask for the cross-layer observability snapshot (deterministic
    /// counters/gauges/histograms plus the namespaced wall-clock values).
    QueryMetrics,
    /// Ask for the round flight recorder: the bounded ring of per-round
    /// summaries (counts and virtual times, plus the nondeterministic
    /// wall-clock latency of each round).
    QueryFlightRecorder,
    /// Ask for the durability layer's state: log position and byte length,
    /// newest checkpoint watermark, recovery count, truncated-tail bytes.
    QueryDurability,
    /// Ask for the poison quarantine: every job that exhausted its retry
    /// budget (or was cascade-abandoned with a failed ancestor), in the
    /// order the jobs were quarantined.
    QueryQuarantine,
    /// Flush the current batch and run the virtual-time engine until every
    /// admitted job completed; reply with a [`DrainReport`].
    Drain,
    /// Stop the server (queued-but-unflushed submissions are dropped; drain
    /// first to complete them).
    Shutdown,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The id of the request being answered (0 when it could not be parsed).
    pub id: u64,
    /// The response payload.
    pub body: ResponseBody,
}

/// The response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// The submission was admitted; these are the assigned global job ids.
    Accepted {
        /// Global ids, in submission order.
        jobs: Vec<u64>,
    },
    /// The submission was refused (backpressure, validation failure, …).
    Rejected {
        /// Why.
        reason: String,
    },
    /// Answer to [`RequestBody::QueryStatus`].
    Status {
        /// The metrics snapshot.
        metrics: MetricsSnapshot,
    },
    /// Answer to [`RequestBody::QueryMetrics`].
    Metrics {
        /// The observability snapshot (counters, gauges, histograms; the
        /// `wall` namespace is the only nondeterministic part).
        obs: mrls_obs::Snapshot,
    },
    /// Answer to [`RequestBody::QueryFlightRecorder`].
    FlightRecorder {
        /// The retained per-round summaries, oldest first (at most
        /// [`crate::flight::FLIGHT_RECORDER_CAPACITY`]).
        rounds: Vec<RoundRecord>,
        /// Rounds ever recorded, including those the ring evicted.
        total_rounds: u64,
    },
    /// Answer to [`RequestBody::QueryDurability`].
    Durability {
        /// The durability status (mode, log position, checkpoints,
        /// recoveries).
        status: crate::wal::DurabilityStatus,
    },
    /// Answer to [`RequestBody::QueryQuarantine`].
    Quarantine {
        /// The quarantined jobs, oldest first.
        entries: Vec<QuarantineEntry>,
    },
    /// Answer to [`RequestBody::Drain`].
    Drained {
        /// The drain report.
        report: DrainReport,
    },
    /// Answer to [`RequestBody::Shutdown`]; the server stops afterwards.
    Stopping,
    /// The request could not be understood or served.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// One poisoned job: it failed until its retry budget was exhausted (or an
/// ancestor did, abandoning it by cascade) and was pulled out of the
/// scheduler instead of being retried forever.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// Tenant the job belonged to.
    pub tenant: String,
    /// The job's global id.
    pub job: u64,
    /// Failed attempts when the job was given up on (0 for cascade-abandoned
    /// descendants that never ran).
    pub attempts: u32,
    /// Stable label of the final failure cause (`fault`, `straggler`,
    /// `outage[i]`, `cascade`).
    pub cause: String,
    /// Virtual time of the final failure.
    pub time: f64,
}

/// Everything a drained server knows about the work it executed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrainReport {
    /// Virtual time at which the last job completed.
    pub virtual_makespan: f64,
    /// Jobs admitted since the server started.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Whether the realized schedule passed capacity/precedence validation
    /// (durations relaxed, as for every realized trace).
    pub feasible: bool,
    /// The metrics snapshot at drain time.
    pub metrics: MetricsSnapshot,
    /// The full realized trace (typed event log + realized schedule).
    pub trace: RealizedTrace,
}

/// Serialises one protocol message as a newline-terminated compact JSON line.
pub fn encode_line<T: Serialize>(msg: &T) -> String {
    let mut line = serde_json::to_string(msg).expect("protocol messages are always serialisable");
    line.push('\n');
    line
}

/// Writes one protocol message and flushes.
pub fn write_message<T: Serialize, W: Write>(writer: &mut W, msg: &T) -> std::io::Result<()> {
    writer.write_all(encode_line(msg).as_bytes())?;
    writer.flush()
}

/// Reads one line of at most `max_len` bytes. Returns `Ok(None)` on a clean
/// EOF, and an `InvalidData` error when the line exceeds the cap (the caller
/// should drop the connection — there is no way to resynchronise).
pub fn read_frame<R: BufRead>(reader: &mut R, max_len: usize) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut limited = reader.take(max_len as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if n > max_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line exceeds the {max_len}-byte limit"),
        ));
    }
    String::from_utf8(buf).map(Some).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "line is not valid UTF-8")
    })
}

/// Parses a request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("malformed request: {e}"))
}

/// Best-effort extraction of the `id` of an unparsable request, so the error
/// response can still be correlated.
pub fn probe_request_id(line: &str) -> u64 {
    #[derive(Deserialize)]
    struct IdProbe {
        id: u64,
    }
    serde_json::from_str::<IdProbe>(line.trim())
        .map(|p| p.id)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_model::ExecTimeSpec;
    use std::io::BufReader;

    fn job() -> MoldableJob {
        MoldableJob::new(0, ExecTimeSpec::Constant { time: 2.0 })
    }

    #[test]
    fn requests_roundtrip_through_json_lines() {
        let requests = vec![
            Request {
                id: 1,
                tenant: "alice".into(),
                token: None,
                body: RequestBody::SubmitJob {
                    job: job(),
                    deps: vec![0, 3],
                },
            },
            Request {
                id: 2,
                tenant: "bob".into(),
                token: Some("bob-7-0".into()),
                body: RequestBody::SubmitDag {
                    jobs: vec![job(), job()],
                    edges: vec![(0, 1)],
                },
            },
            Request {
                id: 3,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::CapacityChange {
                    resource: 1,
                    capacity: 4,
                },
            },
            Request {
                id: 4,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::QueryStatus,
            },
            Request {
                id: 7,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::QueryMetrics,
            },
            Request {
                id: 8,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::QueryFlightRecorder,
            },
            Request {
                id: 9,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::QueryDurability,
            },
            Request {
                id: 10,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::QueryQuarantine,
            },
            Request {
                id: 5,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::Drain,
            },
            Request {
                id: 6,
                tenant: "ops".into(),
                token: None,
                body: RequestBody::Shutdown,
            },
        ];
        for req in requests {
            let line = encode_line(&req);
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            let back = parse_request(&line).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn token_field_is_optional_on_the_wire() {
        // Pre-token requests (no `token` key) still parse.
        let legacy = r#"{"id":3,"tenant":"t","body":"QueryStatus"}"#;
        let req = parse_request(legacy).unwrap();
        assert_eq!(req.token, None);
        // A token-free request serialises without the key at all.
        let line = encode_line(&req);
        assert!(!line.contains("token"));
        // A tokened request keeps its token through a roundtrip.
        let tokened = Request {
            id: 4,
            tenant: "t".into(),
            token: Some("t-1-9".into()),
            body: RequestBody::QueryStatus,
        };
        let back = parse_request(&encode_line(&tokened)).unwrap();
        assert_eq!(back, tokened);
    }

    #[test]
    fn quarantine_responses_roundtrip() {
        let response = Response {
            id: 11,
            body: ResponseBody::Quarantine {
                entries: vec![QuarantineEntry {
                    tenant: "alice".into(),
                    job: 5,
                    attempts: 3,
                    cause: "fault".into(),
                    time: 12.5,
                }],
            },
        };
        let line = encode_line(&response);
        let back: Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(response, back);
    }

    #[test]
    fn flight_recorder_responses_roundtrip() {
        let mut record = RoundRecord::new(3, false);
        record.admitted_jobs = 2;
        record.virtual_time = 3.0;
        record.wall_us = 1234;
        let response = Response {
            id: 8,
            body: ResponseBody::FlightRecorder {
                rounds: vec![record],
                total_rounds: 7,
            },
        };
        let line = encode_line(&response);
        let back: Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(response, back);
    }

    #[test]
    fn read_frame_handles_eof_and_oversize() {
        let mut reader = BufReader::new("one\ntwo".as_bytes());
        assert_eq!(read_frame(&mut reader, 64).unwrap(), Some("one".into()));
        // Final frame without trailing newline is still delivered.
        assert_eq!(read_frame(&mut reader, 64).unwrap(), Some("two".into()));
        assert_eq!(read_frame(&mut reader, 64).unwrap(), None);

        let long = "x".repeat(100);
        let mut reader = BufReader::new(long.as_bytes());
        let err = read_frame(&mut reader, 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn unparsable_requests_still_yield_an_id() {
        assert_eq!(probe_request_id(r#"{"id": 7, "nope": true}"#), 7);
        assert_eq!(probe_request_id("not json at all"), 0);
        assert!(parse_request(r#"{"id":7,"tenant":"t","body":"Flarb"}"#).is_err());
    }
}
