//! # mrls-serve — the online scheduling service
//!
//! The paper plans moldable DAG schedules offline; `mrls-sim` executes plans
//! under perturbations; this crate turns the pair into a **long-running,
//! multi-client service**: jobs and DAGs stream in over TCP, are coalesced
//! into batching rounds, planned with the two-phase scheduler and executed
//! by the virtual-time engine — std-only (no async runtime), built from
//! `std::net::TcpListener`, `std::thread` and `std::sync::mpsc`.
//!
//! Five layers:
//!
//! * [`protocol`] — line-delimited JSON requests/responses with correlation
//!   ids ([`Request`], [`Response`], [`DrainReport`]).
//! * [`ingest`] — the arrival queue: admissions coalesce within a batching
//!   window into one scheduling round, with an admission limit answered by
//!   backpressure replies ([`IngestQueue`]).
//! * [`service`] — the core: owns the growing world and **one persistent**
//!   `mrls-sim` [`SimRun`](mrls_sim::SimRun) carried across rounds; pending
//!   jobs are re-planned each round and the planner output is diffed against
//!   the in-flight plan, while processed engine events are harvested into the
//!   ledger so per-round cost stays flat in the round index ([`ServiceCore`]).
//!   The original checkpoint→clone→resume path is preserved as
//!   [`naive::NaiveService`], the reference the differential tests compare
//!   against.
//! * [`metrics`] — per-tenant counters queryable over the protocol and
//!   dumpable as JSON ([`MetricsSnapshot`]), plus the harvested-event
//!   archive ([`EventLedger`]).
//! * [`wal`] — the durability subsystem: a checksummed append-only
//!   write-ahead log of every admitted input plus rotating checkpoints, so
//!   [`ServiceCore::recover`] rebuilds a crashed server byte-identical to
//!   one that never crashed (torn or corrupt log tails are truncated to the
//!   last valid record, never propagated).
//!
//! Virtual time is decoupled from wall time: each round's events are stamped
//! deterministically from the submission order alone, so two servers fed the
//! same stream in the same order produce **byte-identical** metrics and
//! traces — the loopback tests verify this end to end.
//!
//! ## Quick start
//!
//! ```
//! use mrls_model::{ExecTimeSpec, MoldableJob};
//! use mrls_serve::{ServeConfig, ServiceCore};
//!
//! let mut core = ServiceCore::new(ServeConfig {
//!     capacities: vec![4, 4],
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let job = MoldableJob::new(0, ExecTimeSpec::Constant { time: 2.0 });
//! let id = core.submit_job("alice", job, &[]).unwrap();
//! let report = core.drain().unwrap();
//! assert_eq!(report.completed, 1);
//! assert!(report.feasible);
//! # let _ = id;
//! ```
//!
//! The TCP front end ([`Server::spawn`]) wraps the same core; `mrls serve` /
//! `mrls client` expose it on the command line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod flight;
pub mod ingest;
pub mod metrics;
pub mod naive;
pub mod protocol;
pub mod service;
pub mod wal;

pub use client::{Client, ClientError, RetryConfig};
pub use flight::{FlightRecorder, RoundDigest, RoundRecord, FLIGHT_RECORDER_CAPACITY};
pub use ingest::{Batch, DedupWindow, IngestQueue};
pub use metrics::{EventLedger, MetricsRegistry, MetricsSnapshot, RejectReason, TenantMetrics};
pub use naive::NaiveService;
pub use protocol::{
    encode_line, parse_request, probe_request_id, read_frame, write_message, DrainReport,
    QuarantineEntry, Request, RequestBody, Response, ResponseBody, DEFAULT_MAX_LINE_BYTES,
};
pub use service::{RoundStateStats, ServeConfig, ServiceCore};
pub use wal::{
    DurabilityMode, DurabilityStatus, RecoverError, RecoveryReport, WalOp, WalRecord, WalWriter,
};

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One parsed request in flight from a connection thread to the service
/// thread, with the channel its response goes back on.
struct ClientMsg {
    request: Request,
    reply: Sender<Response>,
}

/// The TCP front end: an acceptor thread, one thread per connection, and a
/// single service thread that owns the [`ServiceCore`].
pub struct Server;

/// Handle to a spawned server: its bound address and the threads to join.
pub struct ServerHandle {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    service: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on (useful with an ephemeral port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits until the server stopped (a client sent `Shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.service.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and spawns
    /// the acceptor and service threads. The server runs until a client
    /// sends [`RequestBody::Shutdown`].
    pub fn spawn(config: ServeConfig, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (tx, rx) = std::sync::mpsc::channel::<ClientMsg>();
        let stopping = Arc::new(AtomicBool::new(false));
        let max_line = config.max_line_bytes;

        let acceptor = {
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let tx = tx.clone();
                    std::thread::spawn(move || connection_loop(stream, tx, max_line));
                }
            })
        };
        let service = {
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || service_loop(config, rx, stopping, local))
        };
        Ok(ServerHandle {
            addr: local,
            acceptor: Some(acceptor),
            service: Some(service),
        })
    }
}

/// Reads frames off one connection, forwards parsed requests to the service
/// thread and writes the responses back. Parse failures are answered
/// in-place; an oversized line is answered and the connection dropped.
fn connection_loop(stream: TcpStream, tx: Sender<ClientMsg>, max_line: usize) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let line = match read_frame(&mut reader, max_line) {
            Ok(None) => break,
            Ok(Some(line)) => line,
            Err(e) => {
                let _ = write_message(
                    &mut writer,
                    &Response {
                        id: 0,
                        body: ResponseBody::Error {
                            message: e.to_string(),
                        },
                    },
                );
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(message) => {
                let ok = write_message(
                    &mut writer,
                    &Response {
                        id: probe_request_id(&line),
                        body: ResponseBody::Error { message },
                    },
                )
                .is_ok();
                if ok {
                    continue;
                }
                break;
            }
        };
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        if tx
            .send(ClientMsg {
                request,
                reply: reply_tx,
            })
            .is_err()
        {
            let _ = write_message(
                &mut writer,
                &Response {
                    id: 0,
                    body: ResponseBody::Error {
                        message: "server is shutting down".to_string(),
                    },
                },
            );
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        let is_stopping = matches!(response.body, ResponseBody::Stopping);
        if write_message(&mut writer, &response).is_err() || is_stopping {
            break;
        }
    }
}

/// The single-threaded service loop: admits requests immediately, flushes
/// the ingest queue whenever the batching window closes, and stops on
/// `Shutdown`.
fn service_loop(
    config: ServeConfig,
    rx: Receiver<ClientMsg>,
    stopping: Arc<AtomicBool>,
    addr: SocketAddr,
) {
    let mut core = match ServiceCore::open(config) {
        Ok((core, report)) => {
            if let Some(r) = report {
                eprintln!(
                    "mrls-serve: recovered: {} records replayed ({} rounds) from \
                     checkpoint seq {}, {} torn bytes truncated",
                    r.replayed_records, r.replayed_rounds, r.checkpoint_seq, r.truncated_bytes
                );
            }
            core
        }
        Err(e) => {
            eprintln!("mrls-serve: cannot open the service, refusing to serve: {e}");
            stopping.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            return;
        }
    };
    loop {
        // Flush before waiting for more work, so a zero window makes every
        // submission its own round regardless of how fast clients pipeline.
        if let Some(deadline) = core.deadline() {
            let now = Instant::now();
            if now >= deadline {
                if let Err(e) = core.flush() {
                    eprintln!("mrls-serve: round failed: {e}");
                }
                continue;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(msg) => {
                    if handle(&mut core, msg) == Flow::Stop {
                        break;
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Ok(msg) => {
                    if handle(&mut core, msg) == Flow::Stop {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }
    stopping.store(true, Ordering::SeqCst);
    // Unblock the acceptor's blocking `accept` so it can observe the flag.
    let _ = TcpStream::connect(addr);
}

#[derive(PartialEq)]
enum Flow {
    Continue,
    Stop,
}

/// Serves one request against the core. The admission work of submit
/// requests is attributed to an `ingest` timing phase and the response send
/// to a `reply` phase: together with the round phases inside the core this
/// makes the `QueryStatus` phase totals account for (nearly) all of the
/// service thread's busy time, where previously only the in-round phases
/// were counted. Both run on the single service thread, so `status()` drains
/// every phase from one registry.
fn handle(core: &mut ServiceCore, msg: ClientMsg) -> Flow {
    let Request {
        id,
        tenant,
        token,
        body,
    } = msg.request;
    let token = token.as_deref();
    let (body, flow) = match body {
        RequestBody::SubmitJob { job, deps } => (
            match mrls_core::time_phase!(
                "ingest",
                core.submit_job_token(&tenant, job, &deps, token)
            ) {
                Ok(id) => ResponseBody::Accepted { jobs: vec![id] },
                Err(reason) => ResponseBody::Rejected { reason },
            },
            Flow::Continue,
        ),
        RequestBody::SubmitDag { jobs, edges } => (
            match mrls_core::time_phase!(
                "ingest",
                core.submit_dag_token(&tenant, jobs, &edges, token)
            ) {
                Ok(jobs) => ResponseBody::Accepted { jobs },
                Err(reason) => ResponseBody::Rejected { reason },
            },
            Flow::Continue,
        ),
        RequestBody::CapacityChange { resource, capacity } => (
            match mrls_core::time_phase!("ingest", core.submit_capacity(resource, capacity)) {
                Ok(()) => ResponseBody::Accepted { jobs: vec![] },
                Err(reason) => ResponseBody::Rejected { reason },
            },
            Flow::Continue,
        ),
        RequestBody::QueryStatus => (
            ResponseBody::Status {
                metrics: core.status(),
            },
            Flow::Continue,
        ),
        RequestBody::QueryMetrics => (
            ResponseBody::Metrics {
                obs: core.obs_snapshot(),
            },
            Flow::Continue,
        ),
        RequestBody::QueryFlightRecorder => (
            ResponseBody::FlightRecorder {
                rounds: core.flight_records(),
                total_rounds: core.flight_total_rounds(),
            },
            Flow::Continue,
        ),
        RequestBody::QueryDurability => (
            ResponseBody::Durability {
                status: core.durability_status(),
            },
            Flow::Continue,
        ),
        RequestBody::QueryQuarantine => (
            ResponseBody::Quarantine {
                entries: core.quarantine(),
            },
            Flow::Continue,
        ),
        RequestBody::Drain => (
            match core.drain() {
                Ok(report) => ResponseBody::Drained { report },
                Err(message) => ResponseBody::Error { message },
            },
            Flow::Continue,
        ),
        RequestBody::Shutdown => (ResponseBody::Stopping, Flow::Stop),
    };
    mrls_core::time_phase!("reply", {
        let _ = msg.reply.send(Response { id, body });
    });
    flow
}
