//! The client side of the query protocol: what `smpq query` and
//! `smpq shutdown` speak to a running `smpq serve`.
//!
//! A [`QueryClient`] is one TCP connection.  It may issue any number of
//! queries back to back — the server keeps per-connection state only in the
//! socket itself, so connections are cheap and independent.  Every call is
//! strictly request/response: one payload out, one payload back.

use crate::fault::Backoff;
use crate::server::{
    decode_query_reply, encode_query_request, QueryReply, QueryRequest, Refusal, RefusalKind,
    SHUTDOWN_ACK, SHUTDOWN_REQUEST,
};
use crate::wire::{read_payload, write_payload, WireError};
use smp_core::query::MeasureReport;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Why a client call failed (the transport or protocol layer — a server that
/// *answers* with a refusal is the [`QueryError::Refused`] case).
#[derive(Debug)]
pub enum QueryError {
    /// The server answered with a typed refusal.
    Refused(Refusal),
    /// The server's reply could not be decoded, or was not the kind of
    /// payload the call expected.
    Protocol(String),
    /// The connection itself failed.
    Io(std::io::Error),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Refused(refusal) => write!(f, "server refused the query ({refusal})"),
            QueryError::Protocol(message) => write!(f, "protocol error: {message}"),
            QueryError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<std::io::Error> for QueryError {
    fn from(e: std::io::Error) -> Self {
        QueryError::Io(e)
    }
}

impl From<WireError> for QueryError {
    fn from(e: WireError) -> Self {
        QueryError::Protocol(e.to_string())
    }
}

/// One connection to a running query server.
#[derive(Debug)]
pub struct QueryClient {
    stream: TcpStream,
}

impl QueryClient {
    /// Dials the server, retrying briefly (the caller may have just spawned
    /// `smpq serve` and raced its bind).
    pub fn connect(addr: &str) -> Result<QueryClient, QueryError> {
        let mut last_error: Option<std::io::Error> = None;
        for attempt in 0..20 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(100));
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
                    stream.set_write_timeout(Some(Duration::from_secs(600)))?;
                    return Ok(QueryClient { stream });
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(QueryError::Io(last_error.unwrap_or_else(|| {
            std::io::Error::other(format!("could not connect to {addr}"))
        })))
    }

    /// One dial attempt, no built-in retry loop — the building block
    /// [`query_with_retry`] owns its own schedule with.
    pub(crate) fn connect_once(addr: &str) -> Result<QueryClient, QueryError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        stream.set_write_timeout(Some(Duration::from_secs(600)))?;
        Ok(QueryClient { stream })
    }

    /// Sends one query and waits for its answer.  A served refusal comes
    /// back as [`QueryError::Refused`] — the caller distinguishes "the
    /// server said no" from "the connection broke".
    pub fn query(&mut self, request: &QueryRequest) -> Result<Vec<MeasureReport>, QueryError> {
        write_payload(&mut self.stream, &encode_query_request(request))?;
        let (payload, _) = read_payload(&mut self.stream)?;
        match decode_query_reply(&payload)? {
            QueryReply::Reports(reports) => Ok(reports),
            QueryReply::Refusal(refusal) => Err(QueryError::Refused(refusal)),
        }
    }

    /// Asks the server to drain and exit.  Returns once the server
    /// acknowledges (it stops accepting immediately; in-flight solves finish
    /// within its drain grace period).
    pub fn shutdown(mut self) -> Result<(), QueryError> {
        write_payload(&mut self.stream, SHUTDOWN_REQUEST)?;
        let (payload, _) = read_payload(&mut self.stream)?;
        if payload.trim() == SHUTDOWN_ACK {
            Ok(())
        } else {
            Err(QueryError::Protocol(format!(
                "expected '{SHUTDOWN_ACK}', got '{}'",
                payload.trim()
            )))
        }
    }
}

/// Client-side retry policy for [`query_with_retry`]: how many extra
/// attempts a transient failure earns and the base of the backoff schedule
/// between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first; `0` means a single attempt and
    /// [`query_with_retry`] degenerates to dial-once-and-ask.
    pub retries: u32,
    /// Base delay between attempts; the schedule doubles per attempt with
    /// deterministic jitter (see `Backoff`) and caps at 64× the base.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff: Duration::from_millis(100),
        }
    }
}

/// Whether a failure is worth another attempt: connection failures and
/// admission refusals (`Busy`) are transient — the server may come up, drain
/// a solve, or free a queue slot.  Everything else (protocol errors, model
/// errors, deadline refusals) is final: retrying cannot change the answer.
fn retryable(error: &QueryError) -> bool {
    match error {
        QueryError::Refused(refusal) => refusal.kind == RefusalKind::Busy,
        QueryError::Io(_) => true,
        QueryError::Protocol(_) => false,
    }
}

/// Dials `addr` and issues `request`, retrying transient failures (connect
/// refusals, broken connections, `Busy` admission refusals) up to
/// `policy.retries` extra attempts with deterministically-jittered
/// exponential backoff seeded from the address — so a thundering herd of
/// restarted clients de-synchronizes instead of re-colliding, and a given
/// (address, attempt) pair always waits the same amount, making failures
/// replayable.
///
/// The request's own deadline bounds the whole schedule: a retry whose
/// backoff would land past the deadline is not attempted and the last error
/// is returned instead.  On success the number of retries spent is folded
/// into the first report's `retries` provenance.
pub fn query_with_retry(
    addr: &str,
    request: &QueryRequest,
    policy: &RetryPolicy,
) -> Result<Vec<MeasureReport>, QueryError> {
    let deadline = request.deadline.map(|d| Instant::now() + d);
    let base = policy.backoff.max(Duration::from_millis(1));
    let mut backoff = Backoff::for_endpoint(base, base * 64, addr);
    let mut spent = 0u64;
    loop {
        let outcome = QueryClient::connect_once(addr).and_then(|mut client| client.query(request));
        match outcome {
            Ok(mut reports) => {
                if spent > 0 {
                    if let Some(first) = reports.first_mut() {
                        first.provenance.retries += spent;
                    }
                }
                return Ok(reports);
            }
            Err(error) if retryable(&error) && spent < u64::from(policy.retries) => {
                let delay = backoff.next_delay();
                if let Some(deadline) = deadline {
                    if Instant::now() + delay >= deadline {
                        return Err(error);
                    }
                }
                std::thread::sleep(delay);
                spent += 1;
            }
            Err(error) => return Err(error),
        }
    }
}
