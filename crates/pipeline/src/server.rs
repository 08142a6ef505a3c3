//! The `smpq serve` query daemon: an always-on master answering measure
//! queries over TCP.
//!
//! The paper observes that its caching pays off "both within and across
//! successive queries" — but a one-shot CLI throws the warm state away after
//! every run.  This module keeps the master *resident*: one process binds a
//! query port, attaches a standing pool of worker processes once, and then
//! answers any number of [`QueryRequest`]s, each a full measure batch over
//! any model.  Between requests it retains
//!
//! * a bounded-LRU [`ModelCache`] of explored models keyed by fingerprint,
//!   shared by every engine and the routing probe, so a repeated model costs
//!   zero state-space explorations whatever measures it is asked for;
//! * a byte-bounded [`crate::cache::ResultCache`] of transform values keyed
//!   by measure fingerprint, so overlapping evaluation grids are served warm,
//!   and with it a memo of every answer any served engine gave, so a
//!   repeated request builds no engine and reads no grid at all;
//! * a bounded memo of engine-routing verdicts (`--engine auto`), so a model
//!   whose explored state space was evicted is still routed without
//!   exploring it again.
//!
//! ## Frames
//!
//! The query protocol is layered on the same length-prefixed payload framing
//! as worker frames ([`crate::wire::write_payload`]), and its payloads are
//! written in the field grammar of [`crate::wire`].  One client request is one
//! payload; the server answers with exactly one payload per request and keeps
//! the connection open for the next request:
//!
//! ```text
//! client → server    query v=1 engine=auto method=euler deadline_ms=0 measures=2 tpoints=3
//!                    model voting:3:1:1
//!                    grid 3ff0000000000000 4000000000000000 4008000000000000
//!                    measure density:p2>=2
//!                    measure cdf:p2>=2
//! server → client    reports v=1 n=2
//!                    report name=density:p2>=2 kind=density
//!                    points 3 3ff0000000000000 4000000000000000 4008000000000000
//!                    values 3 3fb3ab167a0df4e4 ...
//!                    prov engine=distributed backend=tcp workers=2 ...
//!                    report name=cdf:p2>=2 kind=cdf
//!                    ...
//! ```
//!
//! A request names its engine, method and measures as text.
//! [`resolve_request`] is the one place that text becomes a typed request —
//! the server calls it on the decoded fields, the `smpq` command line calls
//! it on its flags — so the vocabulary ([`EngineChoice`], the method names,
//! the measure grammar) is spelled once and a served answer is the one-shot
//! answer.  On the way back, a reply is checked where it is decoded: as many
//! values as points, a moment order in `1..=4`.
//!
//! A request the server will not answer gets a one-line `refusal` payload
//! carrying a [`RefusalKind`] — the typed analogue of [`EngineError`] plus
//! the server-only outcomes (admission rejection, deadline exceeded,
//! protocol errors).  `shutdown v=1` asks the server to stop accepting and
//! drain; it acknowledges with `bye v=1`.
//!
//! ## Admission and deadlines
//!
//! At most `max_inflight` solves run concurrently; up to `max_queued` more
//! wait on a condition variable (their queue time is reported in
//! [`Provenance::queue_wait`]).  Anything beyond that is refused immediately
//! with [`RefusalKind::Busy`] — a bounded queue keeps one flood of queries
//! from taking the daemon down.  A request may carry a deadline: it is
//! enforced while queued, while waiting for a TCP pool's seats (one solve
//! holds them at a time) or for a worker to dial in, between dispatch rounds,
//! and after the solve (a result computed too late is refused, not
//! returned).  The pool itself survives a deadline — workers are released in
//! protocol with a `done` frame and stay attached for the next request.

use crate::cache::{AnswerKey, AnswerKind, LruMemo, ResultCache};
use crate::engine::{
    batch_kind_of, build_engine, quantile_horizons, route, validate_grids, PhaseChainCache,
};
use crate::master::PipelineOptions;
use crate::transform::{ModelCache, ModelSpec, TransformSpec};
use crate::transport::{transport_over, PoolSpec, TcpTransport, Transport};
use crate::unpoisoned;
use crate::wire::{
    self, append_f64, append_str, malformed, read_payload, write_payload, Body, Line, WireError,
};
use smp_core::query::{EngineError, MeasureKind, MeasureReport, MeasureRequest, Provenance};
use smp_laplace::InversionMethod;
use smp_laplace::MeasureKind as CurveKind;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::io::ErrorKind::InvalidInput;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The query-protocol version spoken by this build.
pub(crate) const QUERY_PROTOCOL_VERSION: u32 = 1;

/// The payload a client sends to stop the server (drain and exit).
pub(crate) const SHUTDOWN_REQUEST: &str = "shutdown v=1";

/// The server's acknowledgement of [`SHUTDOWN_REQUEST`].
pub(crate) const SHUTDOWN_ACK: &str = "bye v=1";

/// Socket read/write timeout for query connections: long enough for any
/// realistic solve, short enough that a vanished peer cannot pin a thread
/// forever.
const IO_TIMEOUT: Duration = Duration::from_secs(600);

/// The wait between heartbeat sweeps of a TCP pool.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One query as shipped to the server: a model, an engine choice, and a batch
/// of measures over a shared time grid.
///
/// Engine, method and measures travel as their *source text* (`auto`,
/// `euler`, `density:p2>=3`), not as parsed structures: [`resolve_request`]
/// is the one place that text becomes a typed request, for the server and
/// for the `smpq` command line alike, so a served query and a local run
/// build identical requests — the precondition for bitwise-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The model to analyse.
    pub model: ModelSpec,
    /// Engine selector: `auto`, `analytic`, `distributed`, `uniform`.
    pub engine: String,
    /// Inversion method name (`euler`, `laguerre`).
    pub method: String,
    /// Give up on the request after this long (queued time included).
    /// `None` waits as long as the solve takes.
    pub deadline: Option<Duration>,
    /// The shared evaluation time grid.
    pub t_points: Vec<f64>,
    /// The measures, in `smpq` source syntax (`KIND:TARGET[@ARGS]`).
    pub measures: Vec<String>,
}

/// Encodes a request into one query payload (the inverse of
/// [`decode_query_request`]).  Time points travel as 16-hex-digit bit
/// patterns, so the grid the server evaluates is the grid the client typed,
/// bit for bit.
pub fn encode_query_request(request: &QueryRequest) -> String {
    let deadline_ms = match request.deadline {
        Some(d) => d.as_millis().min(u128::from(u64::MAX)) as u64,
        None => 0,
    };
    let mut out = String::new();
    let _ = write!(out, "query v={QUERY_PROTOCOL_VERSION} engine=");
    append_str(&mut out, &request.engine);
    out.push_str(" method=");
    append_str(&mut out, &request.method);
    let _ = writeln!(
        out,
        " deadline_ms={deadline_ms} measures={} tpoints={}",
        request.measures.len(),
        request.t_points.len(),
    );
    out.push_str("model ");
    request.model.append(&mut out);
    out.push_str("\ngrid");
    for t in &request.t_points {
        out.push(' ');
        append_f64(&mut out, *t);
    }
    out.push('\n');
    for measure in &request.measures {
        out.push_str("measure ");
        append_str(&mut out, measure);
        out.push('\n');
    }
    out
}

/// Decodes one query payload (the inverse of [`encode_query_request`]).
/// Malformed input surfaces as a typed [`WireError`], never a panic — this
/// function parses bytes from an untrusted TCP peer.
pub fn decode_query_request(payload: &str) -> Result<QueryRequest, WireError> {
    Body::payload(payload, |head, body| {
        head.tag("query")?;
        head.version(QUERY_PROTOCOL_VERSION)?;
        let engine = head.text("engine")?;
        let method = head.text("method")?;
        let deadline_ms: u64 = head.key("deadline_ms")?;
        let n_measures = head.key("measures")?;
        let n_points = head.key("tpoints")?;
        let model = body.line("model line", |line| {
            line.tag("model")?;
            ModelSpec::decode(line.token("model")?)
        })?;
        let t_points = body.line("grid line", |line| {
            line.tag("grid")?;
            line.list(n_points, |line| line.bits("grid point"))
        })?;
        let measures = body.list(n_measures, |body| {
            body.line("measure line", |line| {
                line.tag("measure")?;
                wire::text(line.token("measure")?, "measure")
            })
        })?;
        Ok(QueryRequest {
            model,
            engine,
            method,
            deadline: if deadline_ms == 0 {
                None
            } else {
                Some(Duration::from_millis(deadline_ms))
            },
            t_points,
            measures,
        })
    })
}

/// The engine a request selects: what `--engine` names on the command line
/// and the `engine=` field carries on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// In-process Laplace inversion: the distributed pipeline over worker
    /// threads on every core, lane blocks at a time, reported as `analytic`.
    Analytic,
    /// Discrete-event simulation (one-shot runs only; the server refuses it).
    Sim,
    /// The distributed master–worker pipeline.
    Distributed,
    /// CTMC uniformization (all-exponential models only).
    Uniform,
    /// Probe the model: uniformization when every holding time is
    /// exponential, the distributed pipeline otherwise.
    Auto,
}

impl EngineChoice {
    /// Parses a selector, long aliases included.
    pub fn from_name(name: &str) -> Option<EngineChoice> {
        match name {
            "analytic" => Some(EngineChoice::Analytic),
            "sim" | "simulation" => Some(EngineChoice::Sim),
            "distributed" => Some(EngineChoice::Distributed),
            "uniform" | "uniformization" => Some(EngineChoice::Uniform),
            "auto" => Some(EngineChoice::Auto),
            _ => None,
        }
    }

    /// The canonical selector — what `smpq query` ships and what measure
    /// parse errors call the engine.
    pub fn name(self) -> &'static str {
        match self {
            EngineChoice::Analytic => "analytic",
            EngineChoice::Sim => "sim",
            EngineChoice::Distributed => "distributed",
            EngineChoice::Uniform => "uniform",
            EngineChoice::Auto => "auto",
        }
    }
}

/// Turns the three text fields of a [`QueryRequest`] into a typed request,
/// or the refusal that says which one is wrong.  One-shot `smpq`, `smpq
/// query`'s check before the round trip and the server all resolve here, so
/// the same text means the same request wherever it is read.  The grid is not
/// this function's business: callers fill it in with
/// [`MeasureRequest::with_t_points`].
pub fn resolve_request(
    engine: &str,
    method: &str,
    measures: &[String],
) -> Result<(EngineChoice, InversionMethod, Vec<MeasureRequest>), Refusal> {
    let method = InversionMethod::from_name(method).ok_or_else(|| {
        let message = format!("unknown method '{method}' (expected euler or laguerre)");
        refusal(RefusalKind::Protocol, message)
    })?;
    let engine = EngineChoice::from_name(engine).ok_or_else(|| {
        let message = format!(
            "unknown engine '{engine}' (expected auto, analytic, sim, distributed or uniform)"
        );
        refusal(RefusalKind::Protocol, message)
    })?;
    let measures = measures
        .iter()
        .map(|text| MeasureRequest::parse_for_engine(text, engine.name()))
        .collect::<Result<_, _>>()
        .map_err(|message| refusal(RefusalKind::Model, message))?;
    Ok((engine, method, measures))
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Why the server refused a request.  `Model`/`Unsupported`/`Analysis`
/// mirror [`EngineError`]; the rest are server-side outcomes a one-shot run
/// cannot have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalKind {
    /// The model or a measure is unreadable or names a missing place.
    Model,
    /// The routed engine cannot compute a requested measure kind.
    Unsupported,
    /// The computation itself failed.
    Analysis,
    /// Admission control: the in-flight limit and the wait queue are full.
    Busy,
    /// The request's deadline passed before an answer was ready.
    Deadline,
    /// The request frame itself is malformed (bad engine name, bad method,
    /// no measures, undecodable payload).
    Protocol,
}

impl RefusalKind {
    /// The kind's wire token.
    pub fn name(self) -> &'static str {
        match self {
            RefusalKind::Model => "model",
            RefusalKind::Unsupported => "unsupported",
            RefusalKind::Analysis => "analysis",
            RefusalKind::Busy => "busy",
            RefusalKind::Deadline => "deadline",
            RefusalKind::Protocol => "protocol",
        }
    }

    /// Parses a wire token back into its kind.
    pub fn from_name(name: &str) -> Option<RefusalKind> {
        match name {
            "model" => Some(RefusalKind::Model),
            "unsupported" => Some(RefusalKind::Unsupported),
            "analysis" => Some(RefusalKind::Analysis),
            "busy" => Some(RefusalKind::Busy),
            "deadline" => Some(RefusalKind::Deadline),
            "protocol" => Some(RefusalKind::Protocol),
            _ => None,
        }
    }
}

/// A typed rejection: the kind plus a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Why the request was refused.
    pub kind: RefusalKind,
    /// The detailed message (engine error text, admission state, …).
    pub message: String,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

/// The server's answer to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub enum QueryReply {
    /// One report per requested measure, in request order.
    Reports(Vec<MeasureReport>),
    /// The request was refused.
    Refusal(Refusal),
}

/// Maps a wire engine name back to the `'static` name [`Provenance`] wants.
/// Unknown names (a future engine) collapse to `"remote"` rather than
/// failing — the numbers still carry their own meaning.
fn engine_static(name: &str) -> &'static str {
    match name {
        "analytic" => "analytic",
        "distributed" => "distributed",
        "simulation" => "simulation",
        "uniformization" => "uniformization",
        _ => "remote",
    }
}

/// Rebuilds a [`MeasureKind`] from its wire name plus the report's points
/// (quantile probabilities and the moment order live in the points vector,
/// so the kind needs no payload of its own).
fn decode_kind(name: &str, points: &[f64]) -> Result<MeasureKind, WireError> {
    match name {
        "density" => Ok(MeasureKind::Density),
        "cdf" => Ok(MeasureKind::Cdf),
        "transient" => Ok(MeasureKind::Transient),
        "mean" => Ok(MeasureKind::Mean),
        "quantile" => Ok(MeasureKind::Quantile {
            probs: points.to_vec(),
        }),
        "moment" => (1..=4)
            .find(|&order| points.first() == Some(&f64::from(order)))
            .map(|order| MeasureKind::Moment { order })
            .ok_or_else(|| malformed("moment report does not carry an order in 1..=4")),
        other => Err(malformed(format!("unknown measure kind '{other}'"))),
    }
}

/// Appends a `prov` line, without its newline.
fn append_provenance(out: &mut String, p: &Provenance) {
    out.push_str("prov engine=");
    append_str(out, p.engine);
    out.push_str(" backend=");
    append_str(out, &p.backend);
    let _ = write!(out, " workers={} states=", p.workers);
    match p.states {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push('-'),
    }
    let _ = write!(
        out,
        " messages={} bytes={} evaluations={} rebuilds={} pooled={} cache={} shared={} \
         wall_ns={} bound=",
        p.messages,
        p.bytes_on_wire,
        p.evaluations,
        p.matrix_rebuilds_avoided,
        p.pooled_lst_evaluations,
        p.cache_hits,
        p.shared_hits,
        p.wall.as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    match p.error_bound {
        Some(b) => append_f64(out, b),
        None => out.push('-'),
    }
    let _ = write!(
        out,
        " queue_ns={} mhits={} mmiss={} shards={} sstates=",
        p.queue_wait.as_nanos().min(u128::from(u64::MAX)) as u64,
        p.model_cache_hits,
        p.model_cache_misses,
        p.shards,
    );
    if p.shard_states.is_empty() {
        out.push('-');
    }
    for (i, n) in p.shard_states.iter().enumerate() {
        let separator = if i == 0 { "" } else { "," };
        let _ = write!(out, "{separator}{n}");
    }
    let _ = write!(
        out,
        " halo={} rounds={} retries={} recovered={} resumed={}",
        p.halo_bytes, p.exchange_rounds, p.retries, p.recovered_faults, p.resumed_rounds,
    );
}

/// Reads a `prov` line; the struct literal below lists its fields in wire
/// order, which is the order they are read in.
fn read_provenance(line: &mut Line<'_>) -> Result<Provenance, WireError> {
    line.tag("prov")?;
    Ok(Provenance {
        engine: engine_static(&line.text("engine")?),
        backend: line.text("backend")?,
        workers: line.key("workers")?,
        states: match line.value("states")? {
            "-" => None,
            count => Some(wire::number(count, "states")?),
        },
        messages: line.key("messages")?,
        bytes_on_wire: line.key("bytes")?,
        evaluations: line.key("evaluations")?,
        matrix_rebuilds_avoided: line.key("rebuilds")?,
        pooled_lst_evaluations: line.key("pooled")?,
        cache_hits: line.key("cache")?,
        shared_hits: line.key("shared")?,
        wall: Duration::from_nanos(line.key("wall_ns")?),
        error_bound: match line.value("bound")? {
            "-" => None,
            bound => Some(wire::bits(bound, "bound")?),
        },
        queue_wait: Duration::from_nanos(line.key("queue_ns")?),
        model_cache_hits: line.key("mhits")?,
        model_cache_misses: line.key("mmiss")?,
        shards: line.key("shards")?,
        shard_states: match line.value("sstates")? {
            "-" => Vec::new(),
            counts => counts
                .split(',')
                .map(|count| wire::number(count, "sstates"))
                .collect::<Result<_, _>>()?,
        },
        halo_bytes: line.key("halo")?,
        exchange_rounds: line.key("rounds")?,
        retries: line.key("retries")?,
        recovered_faults: line.key("recovered")?,
        resumed_rounds: line.key("resumed")?,
    })
}

/// Encodes a reply into one payload (the inverse of [`decode_query_reply`]).
/// Values travel as bit patterns: the client prints exactly the `f64`s the
/// server computed.
pub fn encode_query_reply(reply: &QueryReply) -> String {
    let mut out = String::new();
    match reply {
        QueryReply::Refusal(refusal) => {
            let _ = write!(
                out,
                "refusal v={QUERY_PROTOCOL_VERSION} kind={} msg=",
                refusal.kind.name()
            );
            append_str(&mut out, &refusal.message);
            out.push('\n');
        }
        QueryReply::Reports(reports) => {
            let _ = writeln!(
                out,
                "reports v={QUERY_PROTOCOL_VERSION} n={}",
                reports.len()
            );
            for report in reports {
                out.push_str("report name=");
                append_str(&mut out, &report.name);
                let _ = write!(
                    out,
                    " kind={}\npoints {}",
                    report.kind.name(),
                    report.points.len()
                );
                for p in &report.points {
                    out.push(' ');
                    append_f64(&mut out, *p);
                }
                let _ = write!(out, "\nvalues {}", report.values.len());
                for v in &report.values {
                    out.push(' ');
                    append_f64(&mut out, *v);
                }
                out.push('\n');
                append_provenance(&mut out, &report.provenance);
                out.push('\n');
            }
        }
    }
    out
}

/// Decodes one reply payload (the inverse of [`encode_query_reply`]).
/// Malformed input surfaces as a typed [`WireError`], never a panic.
pub fn decode_query_reply(payload: &str) -> Result<QueryReply, WireError> {
    Body::payload(payload, |head, body| match head.token("reply tag")? {
        "refusal" => {
            head.version(QUERY_PROTOCOL_VERSION)?;
            let kind_name = head.value("kind")?;
            let kind = RefusalKind::from_name(kind_name)
                .ok_or_else(|| malformed(format!("unknown refusal kind '{kind_name}'")))?;
            let message = head.text("msg")?;
            Ok(QueryReply::Refusal(Refusal { kind, message }))
        }
        "reports" => {
            head.version(QUERY_PROTOCOL_VERSION)?;
            let n = head.key("n")?;
            Ok(QueryReply::Reports(body.list(n, read_report)?))
        }
        other => Err(malformed(format!(
            "expected 'reports' or 'refusal' header, got '{other}'"
        ))),
    })
}

/// One report's four lines: name and kind, points, values, provenance.
fn read_report(body: &mut Body<'_>) -> Result<MeasureReport, WireError> {
    let (name, kind_name) = body.line("report line", |line| {
        line.tag("report")?;
        Ok((line.text("name")?, line.text("kind")?))
    })?;
    let points = body.line("points line", |line| {
        line.tag("points")?;
        let n = line.parse("point count")?;
        line.list(n, |line| line.bits("point"))
    })?;
    let values = body.line("values line", |line| {
        line.tag("values")?;
        let n: usize = line.parse("value count")?;
        if n != points.len() {
            let message = format!(
                "report '{name}' carries {n} values for {} points",
                points.len()
            );
            return Err(malformed(message));
        }
        line.list(n, |line| line.bits("value"))
    })?;
    let provenance = body.line("prov line", read_provenance)?;
    let kind = decode_kind(&kind_name, &points)?;
    Ok(MeasureReport {
        name,
        kind,
        points,
        values,
        provenance,
    })
}

// ---------------------------------------------------------------------------
// Server options
// ---------------------------------------------------------------------------

/// Configuration for [`QueryServer::bind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryServerOptions {
    /// Address the query listener binds (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Where distributed solves run; a TCP pool's workers attach once and
    /// stay resident across requests ([`PoolSpec::ShardedTcp`] is refused).
    pub pool: PoolSpec,
    /// Capacity (explored models) of the model LRU cache.
    pub cache_models: usize,
    /// Byte budget of the shared transform-value result cache.
    pub cache_result_bytes: usize,
    /// Maximum solves running concurrently.
    pub max_inflight: usize,
    /// Maximum requests waiting for a solve slot before new arrivals are
    /// refused with [`RefusalKind::Busy`].
    pub max_queued: usize,
}

impl Default for QueryServerOptions {
    fn default() -> Self {
        QueryServerOptions {
            listen: "127.0.0.1:0".to_string(),
            pool: PoolSpec::InProcess(2),
            cache_models: 8,
            cache_result_bytes: 64 << 20,
            max_inflight: 4,
            max_queued: 16,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------------

/// Counters behind the admission condition variable.
struct AdmissionState {
    active: usize,
    waiting: usize,
}

/// Capacity of the `--engine auto` routing memo.  An entry is a fingerprint
/// and the routed choice, and a miss probes the explored model — an exploration
/// unless the model cache still holds it — so the memo is sized by what it
/// holds, not by `cache_models` (which budgets whole explored models); a few
/// hundred keeps the LRU's linear scan trivial.
const ROUTE_MEMO_SLOTS: usize = 256;

/// Everything the connection handlers share: the warm caches, the admission
/// controller, and the standing worker pool.
struct ServerShared {
    models: Arc<ModelCache>,
    phase_chains: Arc<PhaseChainCache>,
    results: Arc<ResultCache>,
    /// `--engine auto` routing verdicts, memoized per model fingerprint: they
    /// outlive the explored models the probes read.
    routes: LruMemo<String, EngineChoice>,
    admission: Mutex<AdmissionState>,
    admission_cv: Condvar,
    /// The pool description the server was bound with.
    pool_spec: PoolSpec,
    /// A TCP pool's seats: the resident worker processes every request's
    /// solve runs on, one solve at a time.
    rendezvous: Option<TcpTransport>,
    max_inflight: usize,
    max_queued: usize,
    shutdown: AtomicBool,
    /// Pool workers culled by a heartbeat and replaced by a fresh dial-in,
    /// folded into the next answered query's `recovered_faults` provenance.
    pool_recovered: AtomicU64,
}

/// Releases one admission slot on drop, waking a queued request.
struct AdmissionPermit<'a> {
    shared: &'a ServerShared,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = unpoisoned(self.shared.admission.lock());
        state.active = state.active.saturating_sub(1);
        drop(state);
        self.shared.admission_cv.notify_all();
    }
}

impl ServerShared {
    /// Takes a solve slot, queueing up to the deadline if all are busy.
    /// Returns the time spent queued; the matching release happens when the
    /// returned permit drops.
    fn admit(&self, deadline: Option<Instant>) -> Result<(AdmissionPermit<'_>, Duration), Refusal> {
        let started = Instant::now();
        let mut state = unpoisoned(self.admission.lock());
        if state.active < self.max_inflight {
            state.active += 1;
            return Ok((AdmissionPermit { shared: self }, Duration::ZERO));
        }
        if state.waiting >= self.max_queued {
            return Err(Refusal {
                kind: RefusalKind::Busy,
                message: format!(
                    "server is at capacity: {} solve(s) in flight and {} queued \
                     (limits: --max-inflight {}, --max-queued {})",
                    state.active, state.waiting, self.max_inflight, self.max_queued
                ),
            });
        }
        state.waiting += 1;
        loop {
            if state.active < self.max_inflight {
                state.waiting -= 1;
                state.active += 1;
                return Ok((AdmissionPermit { shared: self }, started.elapsed()));
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    state.waiting -= 1;
                    return Err(Refusal {
                        kind: RefusalKind::Deadline,
                        message: format!(
                            "request deadline passed after {:?} in the admission queue",
                            started.elapsed()
                        ),
                    });
                }
            }
            let (guard, _) = unpoisoned(
                self.admission_cv
                    .wait_timeout(state, Duration::from_millis(50)),
            );
            state = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn refusal(kind: RefusalKind, message: impl Into<String>) -> Refusal {
    let message = message.into();
    Refusal { kind, message }
}

/// The refusal an engine's error becomes.
fn engine_refusal(e: EngineError) -> Refusal {
    match e {
        EngineError::Model(message) => refusal(RefusalKind::Model, message),
        EngineError::Unsupported(message) => refusal(RefusalKind::Unsupported, message),
        EngineError::Analysis(message) if message.contains("request deadline exceeded") => {
            refusal(RefusalKind::Deadline, message)
        }
        EngineError::Analysis(message) => refusal(RefusalKind::Analysis, message),
    }
}

/// The engine a request's choice routes to, plus the (hits, misses) of the
/// model lookup that routed it: [`route`] over the server's model cache and
/// its `auto` memo.  The simulation engine is refused here.
fn route_engine(
    shared: &ServerShared,
    choice: EngineChoice,
    model: &ModelSpec,
    fingerprint: &str,
) -> Result<(EngineChoice, usize, usize), Refusal> {
    if choice == EngineChoice::Sim {
        return Err(refusal(
            RefusalKind::Unsupported,
            "the query server does not run the simulation engine; \
             run `smpq --engine sim` one-shot instead",
        ));
    }
    let memo = Some((&shared.routes, fingerprint));
    route(choice, model, &shared.models, memo).map_err(engine_refusal)
}

/// The transport a served distributed solve runs over, the builder's over
/// the shared model cache: for a TCP spec, the resident seats, whose workers
/// outlive the request, under the request's deadline.
fn pool_transport(shared: &ServerShared, deadline: Option<Instant>) -> Box<dyn Transport> {
    let rendezvous = shared
        .rendezvous
        .clone()
        .map(|tcp| tcp.with_deadline(deadline));
    transport_over(&shared.pool_spec, rendezvous, shared.models.clone(), None)
}

/// The memo key of every request's answer on the routed engine, over the
/// model whose fingerprint is `fingerprint`; the requests passed
/// `validate_grids`.
fn answer_keys(
    requests: &[MeasureRequest],
    routed: EngineChoice,
    method: &InversionMethod,
    fingerprint: &str,
) -> Vec<AnswerKey> {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect();
    requests
        .iter()
        .map(|request| {
            let (kind, grid) = match &request.kind {
                MeasureKind::Quantile { probs } => (
                    AnswerKind::Quantile(bits(probs)),
                    vec![quantile_horizons(request).0.to_bits()],
                ),
                kind => match batch_kind_of(kind).expect("only a quantile has no fixed plan") {
                    moment @ CurveKind::Moment(_) => (AnswerKind::Planned(moment), Vec::new()),
                    curve => (AnswerKind::Planned(curve), bits(&request.t_points)),
                },
            };
            let transform = if request.kind.uses_passage_transform() {
                TransformSpec::passage_key(fingerprint, &request.target)
            } else {
                TransformSpec::transient_key(fingerprint, &request.target)
            };
            AnswerKey {
                engine: routed.name(),
                kind,
                grid,
                method: method.clone(),
                transform,
            }
        })
        .collect()
}

/// The report a remembered answer replies with: the fresh report's values,
/// error bound, engine, backend and workers, and no work — what a re-run
/// over the warm point cache reports, every grid point the answer read on a
/// Laplace engine a cache hit.  Uniformization reads no transform grid.
fn remembered_report(report: &MeasureReport, laplace: bool) -> MeasureReport {
    let fresh = &report.provenance;
    let mut provenance = Provenance::local(fresh.engine, fresh.backend.clone());
    provenance.workers = fresh.workers;
    provenance.error_bound = fresh.error_bound;
    if laplace {
        provenance.cache_hits = fresh.evaluations + fresh.cache_hits + fresh.shared_hits;
    }
    MeasureReport {
        provenance,
        ..report.clone()
    }
}

/// Answers one decoded request end to end.
fn answer_query(shared: &Arc<ServerShared>, request: &QueryRequest) -> QueryReply {
    match solve_query(shared, request) {
        Ok(reports) => QueryReply::Reports(reports),
        Err(refusal) => QueryReply::Refusal(refusal),
    }
}

/// Resolves a request's text, routes it, checks its grid, and replies with
/// the remembered answers when every one is remembered — before admission,
/// and before any engine is built.  Otherwise it passes admission, solves
/// the whole request and remembers its answers.  Either way it stamps the
/// server-side provenance (queue wait, model-cache traffic, rebuilds
/// avoided by warm grid points).
fn solve_query(
    shared: &Arc<ServerShared>,
    request: &QueryRequest,
) -> Result<Vec<MeasureReport>, Refusal> {
    let started = Instant::now();
    let deadline = request.deadline.map(|d| Instant::now() + d);
    let (choice, method, measures) =
        resolve_request(&request.engine, &request.method, &request.measures)?;
    if measures.is_empty() {
        return Err(refusal(RefusalKind::Protocol, "query carries no measures"));
    }
    let requests: Vec<MeasureRequest> = measures
        .into_iter()
        .map(|measure| measure.with_t_points(&request.t_points))
        .collect();
    // One render of the fingerprint keys both the route memo and the
    // answers.
    let fingerprint = request.model.fingerprint();
    let (routed, memo_hits, memo_misses) =
        route_engine(shared, choice, &request.model, &fingerprint)?;
    let laplace = routed != EngineChoice::Uniform;
    validate_grids(&requests, laplace).map_err(engine_refusal)?;

    // An answer remembered under this model's fingerprint and target proves
    // the places, so a fully remembered request is its reply.
    let keys = answer_keys(&requests, routed, &method, &fingerprint);
    let remembered: Option<Vec<MeasureReport>> = keys
        .iter()
        .map(|key| shared.results.remembered(key))
        .collect();
    let (outcome, queue_wait) = match remembered {
        Some(reports) => {
            // A mean and a first moment share an answer: the reply names
            // what was asked.
            let wall = started.elapsed();
            let reply = reports
                .into_iter()
                .zip(&requests)
                .map(|(mut report, request)| {
                    (report.name, report.kind) = (request.name(), request.kind.clone());
                    report.provenance.wall = wall;
                    report
                });
            (Ok(reply.collect()), Duration::ZERO)
        }
        None => {
            let options = PipelineOptions {
                shared_cache: Some(shared.results.clone()),
                ..Default::default()
            };
            let transport = || Ok::<_, Infallible>(pool_transport(shared, deadline));
            let Ok(engine) = build_engine(
                routed,
                request.model.clone(),
                method,
                &shared.models,
                Some(&shared.phase_chains),
                options,
                transport,
            );
            let (permit, queue_wait) = shared.admit(deadline)?;
            let outcome = engine.solve(&requests);
            drop(permit);
            if let Ok(reports) = &outcome {
                for (key, report) in keys.into_iter().zip(reports) {
                    shared
                        .results
                        .remember(key, remembered_report(report, laplace));
                }
            }
            (outcome, queue_wait)
        }
    };
    if let Some(deadline) = deadline {
        if Instant::now() >= deadline {
            // Even a successful solve that finished late is refused: a
            // deadline is a promise about *when*, not just whether.
            let message = "request deadline exceeded before the solve completed";
            return Err(refusal(RefusalKind::Deadline, message));
        }
    }

    let mut reports: Vec<MeasureReport> = outcome.map_err(engine_refusal)?;
    if let Some(first) = reports.first_mut() {
        first.provenance.queue_wait = queue_wait;
        first.provenance.model_cache_hits += memo_hits;
        first.provenance.model_cache_misses += memo_misses;
        // Pool workers the heartbeat culled and replaced since the last
        // answer: surfaced here so recovery is visible to the client that
        // next touches the pool.
        first.provenance.recovered_faults += shared.pool_recovered.swap(0, Ordering::Relaxed);
    }
    for report in &mut reports {
        // Every grid point served from the warm result cache (or shared
        // with a sibling measure) is a kernel-matrix build the server never
        // ran — fold it into the rebuild counter so warm queries are
        // visibly cheap.
        let warm = (report.provenance.cache_hits + report.provenance.shared_hits) as u64;
        report.provenance.matrix_rebuilds_avoided += warm;
    }
    Ok(reports)
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// The `smpq serve` daemon: a bound query listener and the warm state
/// shared by every connection, a TCP pool's seats included.
pub struct QueryServer {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("listen", &self.listener.local_addr())
            .field("pool", &self.shared.pool_spec)
            .finish()
    }
}

impl QueryServer {
    /// Binds the query listener and (for a TCP pool) one worker rendezvous
    /// listener per configured address, through [`TcpTransport::bind`].
    /// Workers are not yet attached — call [`QueryServer::attach_workers`]
    /// before [`QueryServer::run`].
    ///
    /// On Unix std binds every listener with `SO_REUSEADDR` (see
    /// [`TcpTransport::bind`]): a daemon restarted after a crash reclaims
    /// its advertised addresses immediately instead of waiting out its
    /// predecessor's `TIME_WAIT` quarantine.
    ///
    /// A [`PoolSpec::ShardedTcp`] pool is refused (`InvalidInput`) before
    /// anything is bound: the standing pool speaks no slice protocol.  So is
    /// a TCP pool with no address.
    pub fn bind(options: QueryServerOptions) -> std::io::Result<QueryServer> {
        if let PoolSpec::ShardedTcp(_) = options.pool {
            let message = "the query server row-shards on loopback slices only, not on tcp";
            return Err(std::io::Error::new(InvalidInput, message));
        }
        let listener = TcpListener::bind(options.listen.as_str())?;
        let rendezvous = match &options.pool {
            PoolSpec::Tcp(addrs) => Some(TcpTransport::bind(addrs)?),
            _ => None,
        };
        let shared = Arc::new(ServerShared {
            models: Arc::new(ModelCache::new(options.cache_models)),
            phase_chains: Arc::new(PhaseChainCache::new(options.cache_models)),
            results: Arc::new(ResultCache::with_byte_limit(options.cache_result_bytes)),
            routes: LruMemo::new(ROUTE_MEMO_SLOTS),
            admission: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            admission_cv: Condvar::new(),
            max_inflight: options.max_inflight.max(1),
            max_queued: options.max_queued,
            pool_spec: options.pool,
            rendezvous,
            shutdown: AtomicBool::new(false),
            pool_recovered: AtomicU64::new(0),
        });
        Ok(QueryServer { listener, shared })
    }

    /// The bound query address (what clients dial).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound worker rendezvous addresses (what `smpq worker --connect`
    /// dials).  Empty for an in-process pool.
    pub fn worker_addrs(&self) -> std::io::Result<Vec<SocketAddr>> {
        let seats = self.shared.rendezvous.as_ref();
        Ok(seats.map(TcpTransport::local_addrs).unwrap_or_default())
    }

    /// Accepts one worker per rendezvous listener (blocking), verifies each
    /// handshake, and seats it.  Returns the number of attached workers.  A
    /// no-op for an in-process pool.
    pub fn attach_workers(&self) -> std::io::Result<usize> {
        self.shared
            .rendezvous
            .as_ref()
            .map_or(Ok(0), TcpTransport::attach)
    }

    /// Serves queries until a client sends `SHUTDOWN_REQUEST`, then drains
    /// the in-flight solves and returns.  Each accepted connection gets its
    /// own thread; the solve concurrency cap is the admission controller,
    /// not the thread count.  Accept blocks until a client dials; the
    /// connection that asks for shutdown wakes it with one connect of its
    /// own.  A TCP pool's heartbeat ([`TcpTransport`]'s) runs about once a
    /// second on a thread of its own; the seats it refills are folded into
    /// the next answered query's `recovered_faults`.
    pub fn run(&self) -> std::io::Result<()> {
        let (stop_heartbeat, stopped) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            if let Some(seats) = &self.shared.rendezvous {
                scope.spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) =
                        stopped.recv_timeout(HEARTBEAT_INTERVAL)
                    {
                        let refilled = seats.heartbeat() as u64;
                        self.shared
                            .pool_recovered
                            .fetch_add(refilled, Ordering::Relaxed);
                    }
                });
            }
            for stream in self.listener.incoming() {
                let stream = stream?;
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                let shared = self.shared.clone();
                std::thread::spawn(move || serve_client(shared, stream));
            }
            drop(stop_heartbeat);
            std::io::Result::Ok(())
        })?;
        // Drain: give in-flight solves a bounded grace period to finish.
        let admission = unpoisoned(self.shared.admission.lock());
        let _drained = unpoisoned(self.shared.admission_cv.wait_timeout_while(
            admission,
            Duration::from_secs(10),
            |state| state.active > 0 || state.waiting > 0,
        ));
        Ok(())
    }
}

/// One client connection: read a payload, answer it, repeat until the client
/// hangs up or asks for shutdown.
fn serve_client(shared: Arc<ServerShared>, mut stream: TcpStream) {
    loop {
        let payload = match read_payload(&mut stream) {
            Ok((payload, _)) => payload,
            Err(_) => return, // client hung up (or timed out): this connection is done
        };
        if payload.trim() == SHUTDOWN_REQUEST {
            let _ = write_payload(&mut stream, SHUTDOWN_ACK);
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop: the address this client reached is the
            // listener's, on an interface of this host.
            if let Ok(listener) = stream.local_addr() {
                let _ = TcpStream::connect_timeout(&listener, IO_TIMEOUT);
            }
            return;
        }
        let reply = match decode_query_request(&payload) {
            Ok(request) => answer_query(&shared, &request),
            Err(e) => QueryReply::Refusal(refusal(
                RefusalKind::Protocol,
                format!("malformed query: {e}"),
            )),
        };
        if write_payload(&mut stream, &encode_query_reply(&reply)).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalyticEngine, DistributedEngine};
    use crate::wire::encode_f64;
    use smp_core::query::Engine;

    fn encode_provenance(p: &Provenance) -> String {
        let mut line = String::new();
        append_provenance(&mut line, p);
        line
    }

    fn voting() -> ModelSpec {
        ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        }
    }

    fn sample_request() -> QueryRequest {
        QueryRequest {
            model: voting(),
            engine: "auto".to_string(),
            method: "euler".to_string(),
            deadline: Some(Duration::from_millis(2500)),
            t_points: vec![1.0, 2.5, 14.0],
            measures: vec![
                "density:p2>=2".to_string(),
                "quantile:p2>=2@0.5,0.9".to_string(),
            ],
        }
    }

    #[test]
    fn query_request_round_trips() {
        let request = sample_request();
        let decoded = decode_query_request(&encode_query_request(&request)).expect("decodes");
        assert_eq!(decoded, request);
    }

    #[test]
    fn query_request_without_deadline_round_trips() {
        let request = QueryRequest {
            deadline: None,
            ..sample_request()
        };
        let decoded = decode_query_request(&encode_query_request(&request)).expect("decodes");
        assert_eq!(decoded.deadline, None);
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for payload in [
            "",
            "reports v=1 n=0\n",
            "query v=1\n",
            "query v=9 engine=auto method=euler deadline_ms=0 measures=0 tpoints=0\nmodel x\ngrid\n",
            "query v=1 engine=auto method=euler deadline_ms=0 measures=1 tpoints=2\nmodel voting:3:1:1\ngrid 3ff0000000000000\n",
            "query v=1 engine=auto method=euler deadline_ms=0 measures=2 tpoints=0\nmodel voting:3:1:1\ngrid\nmeasure density:p2>=2\n",
            // Counts far past what the payload carries fail when it runs out.
            hostile_query("1", HUGE_COUNT).as_str(),
            hostile_query(HUGE_COUNT, "0").as_str(),
        ] {
            assert!(
                decode_query_request(payload).is_err(),
                "payload should be rejected: {payload:?}"
            );
        }
    }

    #[test]
    fn reply_round_trips_reports_with_full_provenance() {
        let mut provenance = Provenance::local("distributed", "tcp-pool");
        provenance.workers = 2;
        provenance.states = Some(37);
        provenance.messages = 12;
        provenance.bytes_on_wire = 4096;
        provenance.evaluations = 99;
        provenance.matrix_rebuilds_avoided = 7;
        provenance.pooled_lst_evaluations = 55;
        provenance.cache_hits = 3;
        provenance.shared_hits = 2;
        provenance.wall = Duration::from_micros(1234);
        provenance.error_bound = Some(1e-9);
        provenance.queue_wait = Duration::from_millis(5);
        provenance.model_cache_hits = 4;
        provenance.model_cache_misses = 1;
        provenance.shards = 3;
        provenance.shard_states = vec![13, 12, 12];
        provenance.halo_bytes = 2048;
        provenance.exchange_rounds = 17;
        let reports = vec![
            MeasureReport {
                name: "density:p2>=2".to_string(),
                kind: MeasureKind::Density,
                points: vec![1.0, 2.0],
                values: vec![0.25, 0.125],
                provenance: provenance.clone(),
            },
            MeasureReport {
                name: "quantile:p2>=2@0.5,0.9".to_string(),
                kind: MeasureKind::Quantile {
                    probs: vec![0.5, 0.9],
                },
                points: vec![0.5, 0.9],
                values: vec![3.5, 7.25],
                provenance: Provenance::local("uniformization", "phase-ctmc"),
            },
            MeasureReport {
                name: "moment:p2>=2@2".to_string(),
                kind: MeasureKind::Moment { order: 2 },
                points: vec![2.0],
                values: vec![42.0],
                provenance,
            },
        ];
        let encoded = encode_query_reply(&QueryReply::Reports(reports.clone()));
        let decoded = match decode_query_reply(&encoded).expect("decodes") {
            QueryReply::Reports(decoded) => decoded,
            QueryReply::Refusal(refusal) => panic!("unexpected refusal: {refusal}"),
        };
        assert_eq!(decoded.len(), reports.len());
        for (d, r) in decoded.iter().zip(&reports) {
            assert_eq!(d.name, r.name);
            assert_eq!(d.kind, r.kind);
            assert_eq!(d.points, r.points);
            assert_eq!(d.values, r.values);
            let (dp, rp) = (&d.provenance, &r.provenance);
            assert_eq!(dp.engine, rp.engine);
            assert_eq!(dp.backend, rp.backend);
            assert_eq!(dp.workers, rp.workers);
            assert_eq!(dp.states, rp.states);
            assert_eq!(dp.messages, rp.messages);
            assert_eq!(dp.bytes_on_wire, rp.bytes_on_wire);
            assert_eq!(dp.evaluations, rp.evaluations);
            assert_eq!(dp.matrix_rebuilds_avoided, rp.matrix_rebuilds_avoided);
            assert_eq!(dp.pooled_lst_evaluations, rp.pooled_lst_evaluations);
            assert_eq!(dp.cache_hits, rp.cache_hits);
            assert_eq!(dp.shared_hits, rp.shared_hits);
            assert_eq!(dp.wall, rp.wall);
            assert_eq!(dp.error_bound, rp.error_bound);
            assert_eq!(dp.queue_wait, rp.queue_wait);
            assert_eq!(dp.model_cache_hits, rp.model_cache_hits);
            assert_eq!(dp.model_cache_misses, rp.model_cache_misses);
            assert_eq!(dp.shards, rp.shards);
            assert_eq!(dp.shard_states, rp.shard_states);
            assert_eq!(dp.halo_bytes, rp.halo_bytes);
            assert_eq!(dp.exchange_rounds, rp.exchange_rounds);
        }
    }

    #[test]
    fn refusals_round_trip_every_kind() {
        for kind in [
            RefusalKind::Model,
            RefusalKind::Unsupported,
            RefusalKind::Analysis,
            RefusalKind::Busy,
            RefusalKind::Deadline,
            RefusalKind::Protocol,
        ] {
            let refusal = Refusal {
                kind,
                message: format!("details for {} with spaces / % signs", kind.name()),
            };
            let encoded = encode_query_reply(&QueryReply::Refusal(refusal.clone()));
            match decode_query_reply(&encoded).expect("decodes") {
                QueryReply::Refusal(decoded) => assert_eq!(decoded, refusal),
                QueryReply::Reports(_) => panic!("expected a refusal"),
            }
        }
    }

    fn bare_shared(max_inflight: usize, max_queued: usize) -> ServerShared {
        ServerShared {
            models: Arc::new(ModelCache::new(4)),
            phase_chains: Arc::new(PhaseChainCache::new(4)),
            results: Arc::new(ResultCache::with_byte_limit(1 << 20)),
            routes: LruMemo::new(2),
            admission: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            admission_cv: Condvar::new(),
            pool_spec: PoolSpec::InProcess(1),
            rendezvous: None,
            max_inflight,
            max_queued,
            shutdown: AtomicBool::new(false),
            pool_recovered: AtomicU64::new(0),
        }
    }

    #[test]
    fn admission_refuses_busy_beyond_queue_cap_and_releases_on_drop() {
        let shared = bare_shared(1, 0);
        let (permit, wait) = shared.admit(None).expect("first admit");
        assert_eq!(wait, Duration::ZERO);
        // In flight is full and the queue cap is zero: refuse immediately.
        match shared.admit(Some(Instant::now() + Duration::from_secs(5))) {
            Err(refusal) => assert_eq!(refusal.kind, RefusalKind::Busy),
            Ok(_) => panic!("second admit should be refused busy"),
        }
        drop(permit);
        let (_permit, _) = shared.admit(None).expect("slot freed by drop");
    }

    #[test]
    fn admission_queue_times_out_against_the_deadline() {
        let shared = bare_shared(1, 4);
        let (_permit, _) = shared.admit(None).expect("first admit");
        let started = Instant::now();
        match shared.admit(Some(Instant::now() + Duration::from_millis(120))) {
            Err(refusal) => assert_eq!(refusal.kind, RefusalKind::Deadline),
            Ok(_) => panic!("queued admit should hit its deadline"),
        }
        assert!(started.elapsed() >= Duration::from_millis(100));
    }

    #[test]
    fn route_memo_hits_on_repeat_and_evicts_lru() {
        let shared = bare_shared(1, 1); // two route slots
        let a = ModelSpec::Voting {
            voters: 2,
            polling: 1,
            central: 1,
        };
        let b = ModelSpec::Voting {
            voters: 3,
            polling: 1,
            central: 1,
        };
        let c = ModelSpec::Voting {
            voters: 4,
            polling: 1,
            central: 1,
        };
        let route = |model: &ModelSpec| {
            let (routed, hits, misses) =
                route_engine(&shared, EngineChoice::Auto, model, &model.fingerprint()).unwrap();
            (routed == EngineChoice::Uniform, hits, misses)
        };
        assert_eq!(route(&a), (false, 0, 1), "first probe explores");
        assert_eq!(route(&a), (false, 1, 0), "repeat probe hits");
        assert_eq!(route(&b), (false, 0, 1));
        // Touch `a`, insert `c`: the LRU entry is now `b`.
        assert_eq!(route(&a), (false, 1, 0));
        assert_eq!(route(&c), (false, 0, 1));
        assert_eq!(route(&a), (false, 1, 0), "a survived eviction");
        assert_eq!(shared.routes.misses(), 3);
        // `b`'s verdict was evicted, but the four-entry model cache still
        // holds its explored model: the probe runs without exploring.
        assert_eq!(route(&b), (false, 1, 0), "b was evicted");
        assert_eq!(shared.routes.misses(), 4);
    }

    /// A one-token three-state all-exponential ring, so `--engine auto`'s
    /// uniformization probe says yes.
    fn exp_ring() -> ModelSpec {
        ModelSpec::Dnamaca(
            r"
\place{a}{1}
\place{b}{0}
\place{c}{0}

\transition{ab}{
    \condition{a > 0}
    \action{ next->a = a - 1; next->b = b + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(2.0, s); }
}
\transition{bc}{
    \condition{b > 0}
    \action{ next->b = b - 1; next->c = c + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(1.0, s); }
}
\transition{ca}{
    \condition{c > 0}
    \action{ next->c = c - 1; next->a = a + 1; }
    \weight{1.0}
    \sojourntimeLT{ return expLT(3.0, s); }
}
"
            .to_string(),
        )
    }

    #[test]
    fn auto_routes_all_exponential_models_to_uniformization() {
        let shared = Arc::new(bare_shared(1, 1));
        let route = |model: &ModelSpec| {
            let fingerprint = model.fingerprint();
            route_engine(&shared, EngineChoice::Auto, model, &fingerprint).expect("auto routes")
        };
        let exp_model = exp_ring();
        assert_eq!(route(&exp_model), (EngineChoice::Uniform, 0, 1));
        assert_eq!(route(&exp_model), (EngineChoice::Uniform, 1, 0));
        assert_eq!(route(&voting()).0, EngineChoice::Distributed);
    }

    /// Cold `auto` queries of a passage and then a transient measure over
    /// one model explore it once between them: the routing probe explores,
    /// and the engine each query routes to finds the model in the cache.
    #[test]
    fn auto_queries_explore_each_model_once() {
        let shared = Arc::new(bare_shared(1, 1));
        for (model, target) in [(voting(), "p2>=2"), (exp_ring(), "c>=1")] {
            let mut misses = 0;
            for kind in ["cdf", "transient"] {
                let request = QueryRequest {
                    model: model.clone(),
                    deadline: None,
                    measures: vec![format!("{kind}:{target}")],
                    ..sample_request()
                };
                let QueryReply::Reports(reports) = answer_query(&shared, &request) else {
                    panic!("{model:?}: {kind} was refused");
                };
                misses += reports[0].provenance.model_cache_misses;
            }
            assert_eq!(misses, 1, "{model:?}");
        }
    }

    /// Answers `request` on `shared`: its reports, or its refusal.
    fn ask(
        shared: &Arc<ServerShared>,
        request: &QueryRequest,
    ) -> Result<Vec<MeasureReport>, Refusal> {
        match answer_query(shared, request) {
            QueryReply::Reports(reports) => Ok(reports),
            QueryReply::Refusal(refusal) => Err(refusal),
        }
    }

    /// The served engines that validate against the net of a cached model.
    const LAPLACE_ENGINES: [&str; 3] = ["auto", "analytic", "distributed"];

    /// Once the model is explored in the server's cache, requests are
    /// checked against its net instead of a fresh parse, and are refused in
    /// the same kinds and words; a model that does not parse is never
    /// cached, and is refused alike on every repeat.
    #[test]
    fn a_cached_model_validates_requests_as_a_parsed_one_does() {
        let shared = Arc::new(bare_shared(1, 1));
        for engine in LAPLACE_ENGINES {
            let query = |model: &ModelSpec, measure: &str, t_points: &[f64]| QueryRequest {
                model: model.clone(),
                engine: engine.to_string(),
                deadline: None,
                t_points: t_points.to_vec(),
                measures: vec![measure.to_string()],
                ..sample_request()
            };
            let grid = [1.0, 2.5, 14.0];
            ask(&shared, &query(&voting(), "cdf:p2>=2", &grid)).unwrap();
            assert!(shared.models.resident(&voting()).is_some(), "{engine}");

            let unknown = ask(&shared, &query(&voting(), "cdf:x>=1", &grid)).unwrap_err();
            assert_eq!(unknown.kind, RefusalKind::Model, "{engine}: {unknown}");
            assert_eq!(unknown.message, "place 'x' does not exist in the model");
            let one_point = ask(&shared, &query(&voting(), "cdf:p2>=2", &[2.0])).unwrap_err();
            assert_eq!(
                one_point.kind,
                RefusalKind::Analysis,
                "{engine}: {one_point}"
            );
            assert!(
                one_point.message.contains("at least two points"),
                "{one_point}"
            );

            let broken = ModelSpec::Dnamaca(r"\place{a}{1} \transition{".to_string());
            let refused = || ask(&shared, &query(&broken, "cdf:a>=1", &grid)).unwrap_err();
            let first = refused();
            assert_eq!(first.kind, RefusalKind::Model, "{engine}: {first}");
            assert_eq!(refused(), first, "{engine}");
        }
    }

    /// A fully warm query finds its model's net without touching the model
    /// cache: its hit and miss counters stay put, every model stays
    /// resident, and the least recently used one is still the next evicted —
    /// a lookup that restamped the queried model would save it and evict
    /// another.
    #[test]
    fn a_fully_warm_query_leaves_the_model_cache_as_it_found_it() {
        let model = |voters| ModelSpec::Voting {
            voters,
            polling: 1,
            central: 1,
        };
        for engine in LAPLACE_ENGINES {
            // Four model slots, and the server's room for routing verdicts.
            let mut shared = bare_shared(1, 1);
            shared.routes = LruMemo::new(ROUTE_MEMO_SLOTS);
            let shared = Arc::new(shared);
            let query = |voters| QueryRequest {
                model: model(voters),
                engine: engine.to_string(),
                deadline: None,
                ..sample_request()
            };
            for voters in 2..6 {
                ask(&shared, &query(voters)).unwrap();
            }
            let counters = || (shared.models.hits(), shared.models.misses());
            let before = counters();
            let repeat = ask(&shared, &query(2)).unwrap();
            let after = counters();
            // Counted, not looked at: the look would be the lookup under test.
            assert_eq!(shared.models.len(), 4);
            assert!(
                repeat.iter().all(|r| r.provenance.evaluations == 0),
                "{engine}"
            );
            assert_eq!(after, before, "{engine}");
            ask(&shared, &query(6)).unwrap();
            assert!(shared.models.resident(&model(2)).is_none(), "{engine}");
            assert!((3..7).all(|voters| shared.models.resident(&model(voters)).is_some()));
        }
    }

    /// A served one-measure query on the distributed engine, over `voting()`.
    fn distributed_query(measure: &str, method: &str, t_points: &[f64]) -> QueryRequest {
        QueryRequest {
            engine: "distributed".to_string(),
            method: method.to_string(),
            deadline: None,
            t_points: t_points.to_vec(),
            measures: vec![measure.to_string()],
            ..sample_request()
        }
    }

    /// The one report of a served one-measure query.
    fn one_report(shared: &Arc<ServerShared>, request: &QueryRequest) -> MeasureReport {
        let mut reports = ask(shared, request).unwrap_or_else(|r| panic!("refused: {r}"));
        assert_eq!(reports.len(), 1);
        reports.remove(0)
    }

    /// What a distributed engine with no shared cache, so no memory of any
    /// answer, answers to each measure of `request`.
    fn fresh_answers(request: &QueryRequest) -> Vec<Vec<u64>> {
        let (_, method, measures) =
            resolve_request(&request.engine, &request.method, &request.measures).unwrap();
        let requests: Vec<MeasureRequest> = measures
            .into_iter()
            .map(|measure| measure.with_t_points(&request.t_points))
            .collect();
        let engine = DistributedEngine::in_process(
            request.model.clone(),
            method,
            PipelineOptions::with_workers(1),
        );
        let reports = engine.solve(&requests).unwrap();
        reports.iter().map(|report| bits(&report.values)).collect()
    }

    /// What a distributed engine with no shared cache answers to the first
    /// measure of `request`.
    fn fresh_answer(request: &QueryRequest) -> Vec<u64> {
        fresh_answers(request).swap_remove(0)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A repeated quantile is answered from the shared cache's memory of the
    /// search: the same bits, nothing evaluated, sent or looked up, and the
    /// grid points the search read counted as cache hits — what a re-search
    /// over the warm cache reports.  A result cache too small to keep any
    /// model's values but the latest shows that the repeat read no grid.
    #[test]
    fn a_repeated_quantile_is_answered_from_the_remembered_search() {
        let mut shared = bare_shared(1, 1);
        shared.results = Arc::new(ResultCache::with_byte_limit(1));
        let shared = Arc::new(shared);
        let request = distributed_query("quantile:p2>=2@0.5,0.9", "euler", &[1.0, 2.5, 14.0]);
        let cold = one_report(&shared, &request);
        assert!(cold.provenance.evaluations > 0);
        let grid_points = cold.provenance.evaluations + cold.provenance.cache_hits;
        // Another target's values displace the first's from the cache.
        one_report(
            &shared,
            &distributed_query("cdf:p2>=1", "euler", &[1.0, 2.0]),
        );
        let repeat = one_report(&shared, &request);
        assert_eq!(bits(&repeat.values), bits(&cold.values));
        let p = &repeat.provenance;
        assert_eq!((p.evaluations, p.messages, p.bytes_on_wire), (0, 0, 0));
        assert_eq!((p.model_cache_hits, p.model_cache_misses), (0, 0));
        assert_eq!(p.cache_hits, grid_points);
        assert_eq!(p.matrix_rebuilds_avoided, grid_points as u64);
        assert_eq!(bits(&repeat.values), fresh_answer(&request));
    }

    /// Whatever a search depends on is in the memo's key: other
    /// probabilities, another last `t`, another inversion method and another
    /// target each get their own search, bitwise what a fresh engine finds.
    #[test]
    fn each_search_input_gets_its_own_remembered_answer() {
        let shared = Arc::new(bare_shared(1, 1));
        let grid = [1.0, 2.5, 14.0];
        let first = distributed_query("quantile:p2>=2@0.5,0.9", "euler", &grid);
        let variants = [
            distributed_query("quantile:p2>=2@0.5,0.75", "euler", &grid),
            distributed_query("quantile:p2>=2@0.5,0.9", "euler", &[1.0, 2.5, 3.0]),
            distributed_query("quantile:p2>=2@0.5,0.9", "laguerre", &grid),
            distributed_query("quantile:p2>=1@0.5,0.9", "euler", &grid),
        ];
        let answer = |request: &QueryRequest| bits(&one_report(&shared, request).values);
        let remembered = answer(&first);
        for request in &variants {
            let own = answer(request);
            assert_eq!(own, fresh_answer(request), "{:?}", request.measures);
            assert_eq!(answer(request), own, "{:?} on repeat", request.measures);
        }
        assert_eq!(answer(&first), remembered);
    }

    /// Only a search that succeeds is remembered: one whose probability the
    /// CDF does not reach within the horizon is searched, and refused, again.
    #[test]
    fn a_failed_search_is_refused_again_on_repeat() {
        let shared = Arc::new(bare_shared(1, 1));
        let request = distributed_query("quantile:p2>=2@0.99", "euler", &[1e-4, 2e-4]);
        for _ in 0..2 {
            let refusal = ask(&shared, &request).unwrap_err();
            assert_eq!(refusal.kind, RefusalKind::Analysis, "{refusal}");
            assert!(refusal
                .message
                .contains("not reached within the search horizon"));
        }
    }

    /// Two clients asking one cold quantile at once may both search; both
    /// get the same bits, and so does a third asking after them.
    #[test]
    fn concurrent_cold_quantiles_answer_identical_bits() {
        let shared = Arc::new(bare_shared(2, 2));
        let request = distributed_query("quantile:p2>=2@0.5,0.9", "euler", &[1.0, 2.5, 14.0]);
        let [a, b] = std::thread::scope(|scope| {
            let ask = || scope.spawn(|| bits(&one_report(&shared, &request).values));
            [ask(), ask()].map(|client| client.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(bits(&one_report(&shared, &request).values), a);
        assert_eq!(a, fresh_answer(&request));
    }

    /// A provenance with its wall zeroed, printed: two of them are equal
    /// when every field but the wall is.
    fn without_wall(report: &MeasureReport) -> String {
        let provenance = Provenance {
            wall: Duration::ZERO,
            ..report.provenance.clone()
        };
        format!("{provenance:?}")
    }

    /// Every measure kind the distributed engine answers is remembered: a
    /// repeat gives a fresh engine's bits, and reports what a fully warm
    /// re-run over the same cache reports — nothing evaluated, sent or
    /// looked up, every grid point a cache hit.
    #[test]
    fn a_repeated_curve_is_answered_from_the_remembered_answer() {
        let shared = Arc::new(bare_shared(1, 1));
        let grid = [1.0, 2.5, 14.0];
        for measure in [
            "cdf:p2>=2",
            "density:p2>=2",
            "transient:p2>=2",
            "mean:p2>=2",
            "moment:p2>=2@2",
            "quantile:p2>=2@0.5,0.9",
        ] {
            let request = distributed_query(measure, "euler", &grid);
            let cold = one_report(&shared, &request);
            let remembered = shared.results.remembered_answers();
            let repeat = one_report(&shared, &request);
            assert_eq!(shared.results.remembered_answers(), remembered, "{measure}");
            assert_eq!(bits(&repeat.values), bits(&cold.values), "{measure}");
            assert_eq!(bits(&repeat.values), fresh_answer(&request), "{measure}");
            shared.results.forget_answers();
            let rerun = one_report(&shared, &request);
            assert_eq!(rerun.provenance.evaluations, 0, "{measure}: fully warm");
            assert_eq!(bits(&rerun.values), bits(&cold.values), "{measure}");
            assert_eq!(without_wall(&repeat), without_wall(&rerun), "{measure}");
        }
    }

    /// The memo sits where a request is handed to its engine, so every
    /// served engine remembers: `uniform` and `auto` (which routes the
    /// all-exponential ring there) and `analytic` answer a repeat of every
    /// measure kind with the same bits and the same error bound (the
    /// uniformization truncation bound, the analytic engine's none),
    /// evaluating nothing.  Only a Laplace engine reads a grid, so only its
    /// repeat counts cache hits.
    #[test]
    fn every_served_engine_answers_a_repeat_from_the_remembered_answer() {
        for (engine, model, target) in [
            ("uniform", exp_ring(), "c>=1"),
            ("auto", exp_ring(), "c>=1"),
            ("analytic", voting(), "p2>=2"),
        ] {
            for kind in ["cdf", "density", "transient", "mean", "quantile"] {
                // A server of its own, so the cold query evaluates.
                let shared = Arc::new(bare_shared(1, 1));
                let measure = match kind {
                    "quantile" => format!("quantile:{target}@0.5,0.9"),
                    _ => format!("{kind}:{target}"),
                };
                let request = QueryRequest {
                    model: model.clone(),
                    engine: engine.to_string(),
                    deadline: None,
                    t_points: vec![0.5, 2.5, 8.0],
                    measures: vec![measure.clone()],
                    ..sample_request()
                };
                let cold = one_report(&shared, &request);
                let remembered = shared.results.remembered_answers();
                let repeat = one_report(&shared, &request);
                assert_eq!(shared.results.remembered_answers(), remembered);
                let (c, r) = (&cold.provenance, &repeat.provenance);
                assert!(c.evaluations > 0, "{engine} {measure}: cold");
                assert_eq!(r.evaluations, 0, "{engine} {measure}: repeat");
                assert_eq!(
                    bits(&repeat.values),
                    bits(&cold.values),
                    "{engine} {measure}"
                );
                let bound = |p: &Provenance| p.error_bound.map(f64::to_bits);
                assert_eq!(bound(r), bound(c), "{engine} {measure}");
                assert_eq!((r.engine, &r.backend), (c.engine, &c.backend));
                let read = match c.engine {
                    "uniformization" => 0,
                    _ => c.evaluations + c.cache_hits + c.shared_hits,
                };
                assert_eq!(r.cache_hits, read, "{engine} {measure}");
            }
        }
    }

    /// Whatever an answer depends on is in the memo's key: another model,
    /// target, kind, probability, moment order, method or `t`-point bit
    /// each gets an answer of its own, bitwise what a fresh engine finds;
    /// a mean, which reads no grid, is the same answer on any grid.
    #[test]
    fn each_answer_input_gets_its_own_remembered_answer() {
        let shared = Arc::new(bare_shared(1, 1));
        let grid = [1.0, 2.5, 14.0];
        let nudged = [1.0, 2.5, f64::from_bits(14.0f64.to_bits() + 1)];
        let other_model = QueryRequest {
            model: ModelSpec::Voting {
                voters: 4,
                polling: 1,
                central: 1,
            },
            ..distributed_query("cdf:p2>=2", "euler", &grid)
        };
        let requests = [
            distributed_query("cdf:p2>=2", "euler", &grid),
            other_model,
            distributed_query("cdf:p2>=1", "euler", &grid),
            distributed_query("density:p2>=2", "euler", &grid),
            distributed_query("transient:p2>=2", "euler", &grid),
            distributed_query("cdf:p2>=2", "laguerre", &grid),
            distributed_query("cdf:p2>=2", "euler", &nudged),
            distributed_query("quantile:p2>=2@0.5,0.9", "euler", &grid),
            distributed_query("quantile:p2>=2@0.5,0.75", "euler", &grid),
            distributed_query("mean:p2>=2", "euler", &grid),
            distributed_query("moment:p2>=2@2", "euler", &grid),
        ];
        let mut answers = Vec::new();
        for request in &requests {
            let before = shared.results.remembered_answers();
            let own = bits(&one_report(&shared, request).values);
            assert_eq!(
                shared.results.remembered_answers(),
                before + 1,
                "{:?} {:?} misses",
                request.measures,
                request.t_points
            );
            assert_eq!(own, fresh_answer(request), "{:?}", request.measures);
            answers.push(own);
        }
        let remembered = shared.results.remembered_answers();
        for (request, own) in requests.iter().zip(&answers) {
            assert_eq!(&bits(&one_report(&shared, request).values), own);
        }
        let mean = distributed_query("mean:p2>=2", "euler", &[2.0, 5.0]);
        assert_eq!(bits(&one_report(&shared, &mean).values), answers[9]);
        assert_eq!(shared.results.remembered_answers(), remembered, "all hit");
    }

    /// A request whose every answer is remembered needs neither its model's
    /// net nor its explored state space: with the model evicted by other
    /// voting shapes, the repeat is answered and the model cache's counters
    /// and resident set stay as they were.
    #[test]
    fn a_remembered_request_needs_no_resident_model() {
        let shared = Arc::new(bare_shared(1, 1));
        let shape = |voters| ModelSpec::Voting {
            voters,
            polling: 1,
            central: 1,
        };
        let query = |voters| QueryRequest {
            model: shape(voters),
            ..distributed_query("cdf:p2>=2", "euler", &[1.0, 2.5, 14.0])
        };
        let cold = one_report(&shared, &query(3));
        for voters in 4..8 {
            one_report(&shared, &query(voters));
        }
        let resident = || {
            (3..8)
                .map(|voters| shared.models.resident(&shape(voters)).is_some())
                .collect::<Vec<_>>()
        };
        let state = || (shared.models.hits(), shared.models.misses(), resident());
        let before = state();
        assert_eq!(before.2, [false, true, true, true, true], "3,1,1 evicted");
        let repeat = one_report(&shared, &query(3));
        assert_eq!(bits(&repeat.values), bits(&cold.values));
        assert_eq!(state(), before);
    }

    /// The grid checks run before the memo is asked: a remembered mean,
    /// which reads no grid, and a remembered quantile, which reads only the
    /// last point, are refused on a grid with a NaN point all the same.
    #[test]
    fn a_hostile_grid_is_refused_even_when_remembered() {
        let shared = Arc::new(bare_shared(1, 1));
        for measure in ["mean:p2>=2", "quantile:p2>=2@0.5,0.9"] {
            one_report(
                &shared,
                &distributed_query(measure, "euler", &[1.0, 2.5, 14.0]),
            );
            let hostile = distributed_query(measure, "euler", &[1.0, f64::NAN, 14.0]);
            let refusal = ask(&shared, &hostile).unwrap_err();
            assert_eq!(refusal.kind, RefusalKind::Analysis, "{measure}: {refusal}");
            assert!(refusal.message.contains("is not finite"), "{refusal}");
        }
    }

    /// A request only some of whose answers are remembered runs as a fresh
    /// solve: a fresh engine's bits for every measure, and the counts of the
    /// same request with no answer remembered.  A result cache too small to
    /// keep any target's values but the latest makes the batch evaluate, so
    /// a remembered CDF answered beside the batch would show: the density
    /// would own the evaluations the CDF owns.
    #[test]
    fn a_partly_remembered_request_answers_as_a_fresh_solve() {
        let grid = [1.0, 2.5, 14.0];
        let cdf = distributed_query("cdf:p2>=2", "euler", &grid);
        let both = QueryRequest {
            measures: vec!["cdf:p2>=2".to_string(), "density:p2>=2".to_string()],
            ..cdf.clone()
        };
        let served = |forget: bool| {
            let mut shared = bare_shared(1, 1);
            shared.results = Arc::new(ResultCache::with_byte_limit(1));
            let shared = Arc::new(shared);
            one_report(&shared, &cdf);
            one_report(&shared, &distributed_query("cdf:p2>=1", "euler", &grid));
            if forget {
                shared.results.forget_answers();
            }
            ask(&shared, &both).unwrap()
        };
        let partly = served(false);
        let plan = smp_laplace::SPointPlan::new(InversionMethod::euler(), &grid).len();
        let counts = |r: &MeasureReport| (r.provenance.evaluations, r.provenance.shared_hits);
        assert_eq!(counts(&partly[0]), (plan, 0), "the CDF owns every point");
        assert_eq!(counts(&partly[1]), (0, plan), "the density shares them");
        let fresh = fresh_answers(&both);
        assert_eq!(partly.len(), 2);
        for (report, fresh) in partly.iter().zip(&fresh) {
            assert_eq!(&bits(&report.values), fresh, "{}", report.name);
        }
        let unremembered = served(true);
        for (report, today) in partly.iter().zip(&unremembered) {
            assert_eq!(without_wall(report), without_wall(today), "{}", report.name);
        }
    }

    #[test]
    fn a_sharded_tcp_pool_is_refused_before_anything_is_bound() {
        // Every address the options name is taken: a refusal that came
        // after a bind would fail with `AddrInUse` instead.
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap().to_string();
        let options = QueryServerOptions {
            listen: addr.clone(),
            pool: PoolSpec::ShardedTcp(vec![addr]),
            ..QueryServerOptions::default()
        };
        let error = QueryServer::bind(options).unwrap_err();
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput, "{error}");
    }

    #[test]
    fn a_tcp_pool_with_no_addresses_is_refused() {
        let options = QueryServerOptions {
            pool: PoolSpec::Tcp(Vec::new()),
            ..QueryServerOptions::default()
        };
        let error = QueryServer::bind(options).unwrap_err();
        assert_eq!(error.kind(), InvalidInput, "{error}");
        let models = Arc::new(ModelCache::new(1));
        for spec in [PoolSpec::Tcp(Vec::new()), PoolSpec::ShardedTcp(Vec::new())] {
            let Err(error) = crate::transport::build_transport(&spec, &models, None) else {
                panic!("{spec:?} was built over no address");
            };
            assert_eq!(error.kind(), InvalidInput, "{spec:?}: {error}");
        }
    }

    /// One model cache: a sharded server's master-side transient fallback
    /// explores in the shared cache, so a second cold transient query over
    /// the model, on another grid, misses nothing.  (The fallback used to
    /// explore the model again, into a private cache, on every request.)
    #[test]
    fn sharded_transient_queries_find_their_model_in_the_shared_cache() {
        let mut shared = bare_shared(1, 1);
        shared.pool_spec = PoolSpec::Loopback(2);
        let shared = Arc::new(shared);
        let transient = |t_points: Vec<f64>| QueryRequest {
            deadline: None,
            t_points,
            measures: vec!["transient:p2>=2".to_string()],
            ..sample_request()
        };
        let first = ask(&shared, &transient(vec![1.0, 2.5, 14.0])).unwrap();
        assert_eq!(first[0].provenance.backend, "sharded-loopback");
        let second = ask(&shared, &transient(vec![1.0, 2.5, 8.0, 14.0])).unwrap();
        let provenance = &second[0].provenance;
        assert!(provenance.evaluations > 0, "a cold grid");
        assert_eq!(provenance.model_cache_misses, 0);
        assert!(provenance.model_cache_hits > 0);
    }

    #[test]
    fn sharded_server_answers_a_repeat_query_from_the_shared_cache() {
        let mut shared = bare_shared(1, 1);
        shared.pool_spec = PoolSpec::Loopback(2);
        let shared = Arc::new(shared);
        let request = QueryRequest {
            engine: "distributed".to_string(),
            deadline: None,
            measures: vec!["cdf:p2>=2".to_string()],
            ..sample_request()
        };
        let answer = || match answer_query(&shared, &request) {
            QueryReply::Reports(mut reports) => reports.remove(0),
            other => panic!("expected reports, got {other:?}"),
        };
        let grid = smp_laplace::SPointPlan::new(InversionMethod::euler(), &request.t_points).len();
        let cold = answer();
        assert_eq!(cold.provenance.backend, "sharded-loopback");
        assert_eq!(cold.provenance.evaluations, grid);
        assert!(cold.provenance.exchange_rounds > 0);
        // The repeat never reaches the slice fleet: every planned point is
        // in the server's result cache.
        let warm = answer();
        assert_eq!(warm.provenance.evaluations, 0);
        assert_eq!(warm.provenance.exchange_rounds, 0);
        assert_eq!(warm.provenance.cache_hits, grid);
        assert_eq!(
            warm.values, cold.values,
            "bitwise equal to the first answer"
        );
        let target = smp_core::query::TargetSpec::parse("p2>=2").unwrap();
        let analytic = AnalyticEngine::new(voting(), InversionMethod::euler())
            .solve(&[MeasureRequest::cdf(target, &request.t_points)])
            .unwrap();
        assert_eq!(warm.values, analytic[0].values, "bitwise equal to one-shot");
    }

    #[test]
    fn simulation_and_unknown_engines_are_refused() {
        let shared = Arc::new(bare_shared(1, 1));
        let refusal = |engine: &str, method: &str, measure: &str| {
            let request = QueryRequest {
                engine: engine.to_string(),
                method: method.to_string(),
                measures: measure.split_whitespace().map(str::to_string).collect(),
                ..sample_request()
            };
            match answer_query(&shared, &request) {
                QueryReply::Refusal(refusal) => refusal,
                QueryReply::Reports(_) => panic!("{engine}/{method}/{measure} was answered"),
            }
        };
        let kind = |engine, method, measure| refusal(engine, method, measure).kind;
        assert_eq!(kind("sim", "euler", "cdf:p2>=2"), RefusalKind::Unsupported);
        assert_eq!(kind("warp", "euler", "cdf:p2>=2"), RefusalKind::Protocol);
        assert_eq!(kind("auto", "talbot", "cdf:p2>=2"), RefusalKind::Protocol);
        assert_eq!(kind("auto", "euler", ""), RefusalKind::Protocol);
        // A bad measure is refused in the words of the selector the request
        // named, before any routing probe runs.
        let bad_kind = refusal("auto", "euler", "frob:p2>=2");
        assert_eq!(bad_kind.kind, RefusalKind::Model);
        assert!(bad_kind.message.contains("the auto engine"), "{bad_kind}");
        assert_eq!(shared.routes.misses(), 0);
    }

    #[test]
    fn malformed_replies_are_typed_errors_not_panics() {
        let report = |kind: &str, points: &[f64], values: &[f64]| {
            let run = |xs: &[f64]| {
                let count = xs.len().to_string();
                xs.iter()
                    .fold(count, |run, x| format!("{run} {}", encode_f64(*x)))
            };
            format!(
                "reports v=1 n=1\nreport name=m kind={kind}\npoints {}\nvalues {}\n{}\n",
                run(points),
                run(values),
                encode_provenance(&Provenance::local("analytic", "sequential"))
            )
        };
        assert!(decode_query_reply(&report("moment", &[4.0], &[1.0])).is_ok());
        for payload in [
            String::new(),
            "reports v=1 n=1\n".to_string(),
            "refusal v=1 kind=grumpy msg=x\n".to_string(),
            // As many values as points, or a client indexes past the short one.
            report("cdf", &[1.0, 2.0], &[]),
            report("cdf", &[1.0], &[0.5, 0.5]),
            // A moment's order is its first point, in 1..=4.
            report("moment", &[], &[]),
            report("moment", &[9.0], &[1.0]),
            report("moment", &[1.5], &[1.0]),
            report("moment", &[f64::NAN], &[1.0]),
            // Counts far past what the payload carries.
            format!("reports v=1 n={HUGE_COUNT}\n"),
            report("cdf", &[], &[]).replace("points 0", &format!("points {HUGE_COUNT}")),
            report("cdf", &[1.0], &[]).replace("values 0", &format!("values {HUGE_COUNT}")),
        ] {
            let decoded = decode_query_reply(&payload);
            assert!(
                matches!(decoded, Err(WireError::Malformed { .. })),
                "payload should be rejected: {payload:?}"
            );
        }
    }

    /// 2^45: reserving as many grid points up front is 256 TiB, which aborts
    /// the process instead of returning an error.
    const HUGE_COUNT: &str = "35184372088832";

    /// A query announcing `measures` measures and `tpoints` grid points over
    /// a payload that carries none of either.
    fn hostile_query(measures: &str, tpoints: &str) -> String {
        let model = voting().encode();
        format!("query v=1 engine=auto method=euler deadline_ms=0 measures={measures} tpoints={tpoints}\nmodel {model}\ngrid\n")
    }

    #[test]
    fn a_hostile_count_is_refused_and_the_server_keeps_answering() {
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            let mut hostile = TcpStream::connect(&addr).unwrap();
            write_payload(&mut hostile, &hostile_query("1", HUGE_COUNT)).unwrap();
            let (reply, _) = read_payload(&mut hostile).unwrap();
            match decode_query_reply(&reply).unwrap() {
                QueryReply::Refusal(refusal) => assert_eq!(refusal.kind, RefusalKind::Protocol),
                QueryReply::Reports(_) => panic!("a hostile count was answered"),
            }
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            let reports = client.query(&sample_request()).unwrap();
            assert_eq!(reports.len(), 2);
            client.shutdown().unwrap();
            running.join().unwrap().unwrap();
        });
    }

    /// A fresh connection is accepted as soon as it dials, not on the next
    /// poll of the listener, and `run` returns as soon as a client asks for
    /// shutdown.
    #[test]
    fn fresh_connections_and_shutdown_are_served_without_delay() {
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            let started = Instant::now();
            for _ in 0..25 {
                let mut stream = TcpStream::connect(addr).unwrap();
                write_payload(&mut stream, "not a query").unwrap();
                let (reply, _) = read_payload(&mut stream).unwrap();
                match decode_query_reply(&reply).unwrap() {
                    QueryReply::Refusal(refusal) => assert_eq!(refusal.kind, RefusalKind::Protocol),
                    QueryReply::Reports(_) => panic!("a malformed payload was answered"),
                }
            }
            let served = started.elapsed();
            let stopping = Instant::now();
            let stopper = crate::client::QueryClient::connect(&addr.to_string());
            stopper.unwrap().shutdown().unwrap();
            running.join().unwrap().unwrap();
            let stopped = stopping.elapsed();
            let limit = Duration::from_millis(200);
            assert!(served < limit, "25 connections took {served:?}");
            assert!(stopped < limit, "shutdown took {stopped:?}");
        });
    }

    /// A model whose state space cannot be explored
    /// ([`crate::engine::tests::hostile_models`]) is refused as a model error
    /// on every engine the server runs, and the server goes on answering.
    #[test]
    fn a_model_whose_sojourn_makes_no_distribution_is_refused_on_every_engine() {
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            for model in crate::engine::tests::hostile_models() {
                for engine in ["auto", "analytic", "distributed", "uniform"] {
                    let request = QueryRequest {
                        model: model.clone(),
                        engine: engine.to_string(),
                        measures: vec!["density:b>=1".to_string()],
                        ..sample_request()
                    };
                    let mut client = crate::client::QueryClient::connect(&addr).unwrap();
                    match client.query(&request) {
                        Err(crate::client::QueryError::Refused(refusal)) => {
                            assert_eq!(refusal.kind, RefusalKind::Model, "{engine}: {refusal}");
                        }
                        other => panic!("{engine}: expected a model refusal, got {other:?}"),
                    }
                }
            }
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            assert_eq!(client.query(&sample_request()).unwrap().len(), 2);
            client.shutdown().unwrap();
            running.join().unwrap().unwrap();
        });
    }

    /// A model whose condition nests 200,000 groups deep is refused as a
    /// model error, and the same connection answers its next query.  (Its
    /// parse used to overflow the connection thread's stack, aborting the
    /// daemon.)
    #[test]
    fn a_model_nested_200000_deep_is_refused_and_the_connection_keeps_answering() {
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let depth = 200_000;
        let condition = format!("{}a > 0{}", "(".repeat(depth), ")".repeat(depth));
        let source = format!(
            r"\place{{a}}{{1}} \place{{b}}{{0}}
            \transition{{ab}}{{ \condition{{{condition}}}
                \action{{ next->a = a - 1; next->b = b + 1; }}
                \sojourntimeLT{{ return expLT(1.0, s); }} }}
            \transition{{ba}}{{ \condition{{b > 0}}
                \action{{ next->a = a + 1; next->b = b - 1; }}
                \sojourntimeLT{{ return expLT(1.0, s); }} }}"
        );
        let deep = QueryRequest {
            model: ModelSpec::Dnamaca(source),
            measures: vec!["density:b>=1".to_string()],
            ..sample_request()
        };
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            match client.query(&deep) {
                Err(crate::client::QueryError::Refused(refusal)) => {
                    assert_eq!(refusal.kind, RefusalKind::Model, "{refusal}");
                    assert!(refusal.message.contains("nested deeper"), "{refusal}");
                }
                other => panic!("expected a model refusal, got {other:?}"),
            }
            assert_eq!(client.query(&sample_request()).unwrap().len(), 2);
            client.shutdown().unwrap();
            running.join().unwrap().unwrap();
        });
    }

    /// A time grid holding a point that is not finite — or, on an engine
    /// that inverts Laplace transforms, a curve point that is not positive
    /// — is refused as an analysis error naming the point, on every engine
    /// the server runs, and the connection answers its next query.  (Before,
    /// such a point panicked the Laplace engines' planner, killing the
    /// connection's thread, and uniformization answered a CDF at t = ∞ with
    /// the value at the grid's other point.)  A quantile reads only its
    /// grid's last point, as a positive starting horizon or not at all, and
    /// uniformization keeps answering at t = 0.
    #[test]
    fn a_hostile_time_grid_is_refused_and_the_connection_keeps_answering() {
        let server = QueryServer::bind(QueryServerOptions {
            pool: PoolSpec::InProcess(1),
            ..QueryServerOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        // (engine, model, target, whether it inverts Laplace transforms)
        let served = [
            ("auto", voting(), "p2>=2", true),
            ("auto", exp_ring(), "c>=1", false),
            ("analytic", exp_ring(), "c>=1", true),
            ("distributed", exp_ring(), "c>=1", true),
            ("uniform", exp_ring(), "c>=1", false),
        ];
        let checks = |client: &mut crate::client::QueryClient| {
            for (engine, model, target, laplace) in &served {
                for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                    for (kind, curve) in [("cdf", true), ("quantile", false)] {
                        let suffix = if curve { "" } else { "@0.5" };
                        let request = QueryRequest {
                            model: model.clone(),
                            engine: engine.to_string(),
                            deadline: None,
                            t_points: vec![1.0, t],
                            measures: vec![format!("{kind}:{target}{suffix}")],
                            ..sample_request()
                        };
                        // The refusal's words: the grid check's, naming the
                        // point, or uniformization's own for a negative t.
                        let refused = if !t.is_finite() || (*laplace && curve && t <= 0.0) {
                            Some(format!("t = {t} "))
                        } else if curve && t < 0.0 {
                            Some("non-negative".to_string())
                        } else {
                            None
                        };
                        let case = format!("{engine} {kind} at t = {t}");
                        match (client.query(&request), refused) {
                            (Err(crate::client::QueryError::Refused(refusal)), Some(words)) => {
                                assert_eq!(
                                    refusal.kind,
                                    RefusalKind::Analysis,
                                    "{case}: {refusal}"
                                );
                                assert!(refusal.message.contains(&words), "{case}: {refusal}");
                            }
                            (Ok(reports), None) => assert_eq!(reports.len(), 1, "{case}"),
                            (other, _) => panic!("{case}: got {other:?}"),
                        }
                    }
                }
            }
            assert_eq!(client.query(&sample_request()).unwrap().len(), 2);
        };
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            let mut client = crate::client::QueryClient::connect(&addr).unwrap();
            // A failed check must still stop the server, or the scope waits
            // on it for ever.
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                checks(&mut client);
            }));
            let stopper = crate::client::QueryClient::connect(&addr).unwrap();
            stopper.shutdown().unwrap();
            running.join().unwrap().unwrap();
            if let Err(failure) = checked {
                std::panic::resume_unwind(failure);
            }
        });
    }
}
