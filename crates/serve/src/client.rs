//! A small blocking client for the serve protocol, used by `mrls client`,
//! the `serve_throughput` bench and the loopback tests.
//!
//! The client is **resilient**: a dropped connection is reported as the
//! typed [`ClientError::Disconnected`] and — for requests that are safe to
//! resend — retried transparently after reconnecting with capped
//! exponential backoff ([`RetryConfig`]). Submissions are made safe to
//! resend by client-assigned **idempotency tokens**: every
//! `SubmitJob`/`SubmitDag` carries a token (auto-generated unless the
//! caller pins one), the exact same frame is resent after a reconnect, and
//! the server's dedup window answers a replayed token with the original
//! ids instead of admitting the work twice. Queries are idempotent by
//! nature and retried without a token; capacity changes, drains and
//! shutdowns are never resent automatically, because the client cannot
//! know whether the lost connection delivered them.

use crate::flight::RoundRecord;
use crate::metrics::MetricsSnapshot;
use crate::protocol::{
    read_frame, write_message, DrainReport, QuarantineEntry, Request, RequestBody, Response,
    ResponseBody, MAX_REPLY_LINE_BYTES,
};
use mrls_model::MoldableJob;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide client instance counter: each connected [`Client`] gets a
/// distinct instance number, so auto-generated idempotency tokens from two
/// clients of the same tenant never collide.
static CLIENT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// What went wrong with a client call, by recovery strategy: only
/// [`ClientError::Disconnected`] is worth reconnecting for.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport failed: send error, receive error, or the server
    /// closed the connection. Retrying after a reconnect may succeed.
    Disconnected(String),
    /// The server answered with something that is not valid protocol: bad
    /// JSON, or a response whose correlation id or variant does not match
    /// the request. The connection is dropped — the stream position is no
    /// longer trustworthy — but reconnect-and-resend will not help.
    Malformed(String),
    /// The server refused the submission (backpressure, overload,
    /// validation). The request itself arrived fine; retrying verbatim is
    /// the caller's call.
    Rejected(String),
    /// The server answered with an in-protocol error message.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected(msg) => write!(f, "disconnected: {msg}"),
            ClientError::Malformed(msg) => write!(f, "malformed response: {msg}"),
            ClientError::Rejected(reason) => write!(f, "rejected: {reason}"),
            ClientError::Server(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for String {
    fn from(e: ClientError) -> String {
        e.to_string()
    }
}

/// Reconnect-and-resend policy for requests that are safe to retry.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Total attempts per request, including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on every further retry.
    pub backoff_base: Duration,
    /// Upper bound the exponential backoff is capped at.
    pub backoff_cap: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

impl RetryConfig {
    /// A policy that never retries: every transport failure surfaces
    /// immediately as [`ClientError::Disconnected`].
    pub fn none() -> Self {
        RetryConfig {
            max_attempts: 1,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// The capped exponential delay before retry number `retry` (1-based).
    fn delay(&self, retry: u32) -> Duration {
        let factor = 1u32
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(u32::MAX);
        (self.backoff_base * factor).min(self.backoff_cap)
    }
}

/// One live connection's halves.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }
}

/// A connected protocol client. One request is in flight at a time; every
/// call blocks until the matching response arrives (or retries are
/// exhausted).
#[derive(Debug)]
pub struct Client {
    conn: Option<Conn>,
    addr: SocketAddr,
    tenant: String,
    retry: RetryConfig,
    instance: u64,
    next_id: u64,
    next_token: u64,
}

impl Client {
    /// Connects to a server and names the tenant the work is accounted
    /// under.
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: &str) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let conn = Conn::open(addr)?;
        Ok(Client {
            conn: Some(conn),
            addr,
            tenant: tenant.to_string(),
            retry: RetryConfig::default(),
            instance: CLIENT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            next_id: 1,
            next_token: 0,
        })
    }

    /// Replaces the reconnect/retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }

    /// The server address the client (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The next auto-generated idempotency token. Tokens are unique per
    /// client instance within a process; a caller that needs tokens stable
    /// across *client restarts* pins them via the `_with_token` variants.
    fn auto_token(&mut self) -> String {
        let n = self.next_token;
        self.next_token += 1;
        format!("{}-{}-{}", self.tenant, self.instance, n)
    }

    /// Drops the current connection (if any) and opens a fresh one.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.conn = None;
        let conn = Conn::open(self.addr)
            .map_err(|e| ClientError::Disconnected(format!("reconnect failed: {e}")))?;
        self.conn = Some(conn);
        Ok(())
    }

    /// One wire round trip of an already-built request. Transport failures
    /// drop the connection, so the next attempt starts from a reconnect.
    fn roundtrip(&mut self, request: &Request) -> Result<Option<Response>, ClientError> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self.conn.as_mut().expect("reconnect just succeeded");
        if let Err(e) = write_message(&mut conn.writer, request) {
            self.conn = None;
            return Err(ClientError::Disconnected(format!("send failed: {e}")));
        }
        let line = match read_frame(&mut conn.reader, MAX_REPLY_LINE_BYTES) {
            Ok(Some(line)) => line,
            Ok(None) => {
                self.conn = None;
                return Ok(None);
            }
            Err(e) => {
                self.conn = None;
                return Err(ClientError::Disconnected(format!("receive failed: {e}")));
            }
        };
        let response: Response = match serde_json::from_str(line.trim()) {
            Ok(response) => response,
            Err(e) => {
                self.conn = None;
                return Err(ClientError::Malformed(e.to_string()));
            }
        };
        if response.id != request.id {
            self.conn = None;
            return Err(ClientError::Malformed(format!(
                "response id {} does not match request id {}",
                response.id, request.id
            )));
        }
        Ok(Some(response))
    }

    /// Sends one request, reconnecting and resending with capped
    /// exponential backoff when the request is safe to resend: it carries
    /// an idempotency token (the server dedups the replay), or it is a
    /// read-only query.
    fn request_token(
        &mut self,
        body: RequestBody,
        token: Option<String>,
    ) -> Result<Response, ClientError> {
        let resendable = token.is_some() || is_read_only(&body);
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            tenant: self.tenant.clone(),
            token,
            body,
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.roundtrip(&request) {
                Ok(Some(response)) => return Ok(response),
                Ok(None) => ClientError::Disconnected("server closed the connection".to_string()),
                Err(e) => e,
            };
            let recoverable = matches!(err, ClientError::Disconnected(_));
            if !recoverable || !resendable || attempt >= self.retry.max_attempts {
                return Err(err);
            }
            std::thread::sleep(self.retry.delay(attempt));
        }
    }

    /// Sends one request and waits for its response. It carries no
    /// idempotency token, so only read-only queries are resent after a
    /// disconnect.
    pub fn request(&mut self, body: RequestBody) -> Result<Response, ClientError> {
        self.request_token(body, None)
    }

    fn accepted(
        &mut self,
        body: RequestBody,
        token: Option<String>,
    ) -> Result<Vec<u64>, ClientError> {
        match self.request_token(body, token)?.body {
            ResponseBody::Accepted { jobs } => Ok(jobs),
            ResponseBody::Rejected { reason } => Err(ClientError::Rejected(reason)),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Submits one job under an auto-generated idempotency token; returns
    /// its global id.
    pub fn submit_job(&mut self, job: MoldableJob, deps: Vec<u64>) -> Result<u64, ClientError> {
        let token = self.auto_token();
        self.submit_job_with_token(job, deps, &token)
    }

    /// Submits one job under a caller-pinned idempotency token — resending
    /// the same token after a crash or reconnect yields the original id
    /// instead of a second admission.
    pub fn submit_job_with_token(
        &mut self,
        job: MoldableJob,
        deps: Vec<u64>,
        token: &str,
    ) -> Result<u64, ClientError> {
        let ids = self.accepted(
            RequestBody::SubmitJob { job, deps },
            Some(token.to_string()),
        )?;
        ids.first().copied().ok_or_else(|| {
            ClientError::Malformed("server accepted the job without an id".to_string())
        })
    }

    /// Submits a DAG under an auto-generated idempotency token; returns
    /// the global ids, in order.
    pub fn submit_dag(
        &mut self,
        jobs: Vec<MoldableJob>,
        edges: Vec<(usize, usize)>,
    ) -> Result<Vec<u64>, ClientError> {
        let token = self.auto_token();
        self.submit_dag_with_token(jobs, edges, &token)
    }

    /// Submits a DAG under a caller-pinned idempotency token.
    pub fn submit_dag_with_token(
        &mut self,
        jobs: Vec<MoldableJob>,
        edges: Vec<(usize, usize)>,
        token: &str,
    ) -> Result<Vec<u64>, ClientError> {
        self.accepted(
            RequestBody::SubmitDag { jobs, edges },
            Some(token.to_string()),
        )
    }

    /// Requests a capacity change. Never resent automatically: the client
    /// cannot tell whether a lost connection delivered it.
    pub fn change_capacity(&mut self, resource: usize, capacity: u64) -> Result<(), ClientError> {
        self.accepted(RequestBody::CapacityChange { resource, capacity }, None)
            .map(|_| ())
    }

    /// Fetches the metrics snapshot.
    pub fn status(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.request(RequestBody::QueryStatus)?.body {
            ResponseBody::Status { metrics } => Ok(metrics),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Fetches the cross-layer observability snapshot (deterministic
    /// counters/gauges/histograms; wall-clock values live in the separate
    /// `wall` namespace).
    pub fn metrics(&mut self) -> Result<mrls_obs::Snapshot, ClientError> {
        match self.request(RequestBody::QueryMetrics)?.body {
            ResponseBody::Metrics { obs } => Ok(obs),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Fetches the round flight recorder: the retained per-round summaries
    /// (oldest first) and the count of rounds ever recorded.
    pub fn flight_recorder(&mut self) -> Result<(Vec<RoundRecord>, u64), ClientError> {
        match self.request(RequestBody::QueryFlightRecorder)?.body {
            ResponseBody::FlightRecorder {
                rounds,
                total_rounds,
            } => Ok((rounds, total_rounds)),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Fetches the durability status: log position, newest checkpoint
    /// watermark, recovery count.
    pub fn durability(&mut self) -> Result<crate::wal::DurabilityStatus, ClientError> {
        match self.request(RequestBody::QueryDurability)?.body {
            ResponseBody::Durability { status } => Ok(status),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Fetches the poison quarantine: jobs whose retry budget is exhausted,
    /// in quarantine order.
    pub fn quarantine(&mut self) -> Result<Vec<QuarantineEntry>, ClientError> {
        match self.request(RequestBody::QueryQuarantine)?.body {
            ResponseBody::Quarantine { entries } => Ok(entries),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Drains the server: everything admitted runs to completion. Never
    /// resent automatically.
    pub fn drain(&mut self) -> Result<DrainReport, ClientError> {
        match self.request(RequestBody::Drain)?.body {
            ResponseBody::Drained { report } => Ok(report),
            ResponseBody::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Malformed(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// Asks the server to stop. A connection closed right after the request
    /// counts as success — the server may exit before its goodbye lands.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request {
            id,
            tenant: self.tenant.clone(),
            token: None,
            body: RequestBody::Shutdown,
        };
        match self.roundtrip(&request)? {
            None => Ok(()),
            Some(response) => match response.body {
                ResponseBody::Stopping => Ok(()),
                ResponseBody::Error { message } => Err(ClientError::Server(message)),
                other => Err(ClientError::Malformed(format!(
                    "unexpected response: {other:?}"
                ))),
            },
        }
    }
}

/// Whether a request body is a read-only query, safe to resend verbatim
/// without a token.
fn is_read_only(body: &RequestBody) -> bool {
    matches!(
        body,
        RequestBody::QueryStatus
            | RequestBody::QueryMetrics
            | RequestBody::QueryFlightRecorder
            | RequestBody::QueryDurability
            | RequestBody::QueryQuarantine
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let retry = RetryConfig {
            max_attempts: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(65),
        };
        assert_eq!(retry.delay(1), Duration::from_millis(10));
        assert_eq!(retry.delay(2), Duration::from_millis(20));
        assert_eq!(retry.delay(3), Duration::from_millis(40));
        assert_eq!(retry.delay(4), Duration::from_millis(65), "capped");
        assert_eq!(retry.delay(30), Duration::from_millis(65), "stays capped");
    }

    #[test]
    fn errors_render_like_the_legacy_strings() {
        let rejected = ClientError::Rejected("backpressure: full".to_string());
        assert_eq!(String::from(rejected), "rejected: backpressure: full");
        let down = ClientError::Disconnected("send failed: broken pipe".to_string());
        assert!(down.to_string().starts_with("disconnected: "));
    }

    #[test]
    fn only_queries_are_resendable_without_a_token() {
        assert!(is_read_only(&RequestBody::QueryStatus));
        assert!(is_read_only(&RequestBody::QueryQuarantine));
        assert!(!is_read_only(&RequestBody::Drain));
        assert!(!is_read_only(&RequestBody::Shutdown));
        assert!(!is_read_only(&RequestBody::CapacityChange {
            resource: 0,
            capacity: 1
        }));
    }
}
