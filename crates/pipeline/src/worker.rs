//! The slave-processor loops.
//!
//! A worker repeatedly requests the next *chunk* of `s`-values from the global
//! work queue, evaluates the transform of the measure each item belongs to (for
//! passage-time analysis: refill the prebuilt `U` skeleton's values for the
//! point and run the iterative algorithm to convergence — the symbolic phase
//! ran once at solver construction, see `smp_core::workspace`), and returns
//! the whole chunk's results to the master in a single message.  Workers never talk to
//! each other — the property that gives the pipeline its near-linear
//! scalability — and chunking keeps the master⇄worker message count
//! proportional to the number of chunks, not the number of points.  Chunking
//! also feeds the hot path: a thread that owns a chunk hands each run of one
//! measure's points to that measure's evaluator whole (`evaluate_chunk`),
//! which checks one `PassageWorkspace` out of the solver's pool for the run
//! and — for a passage transform — advances the points four at a time in
//! lockstep lanes.  The pool hands the thread the workspace it last
//! returned, so the numeric phase allocates nothing after a thread's first
//! chunk and the number of workspaces ever built is bounded by the worker
//! count.
//!
//! Two loops live here: `run_batch_worker`, the in-process thread worker
//! that pulls straight from the shared queue, and `serve_link`, the frame
//! loop a worker at the far end of a [`Link`] runs — `smpq worker` processes
//! over a dialed [`TcpLink`] ([`run_tcp_worker`]).  Its slice-session step,
//! `answer`, is what a loopback shard runs inline, one call per frame.

use crate::fault::Backoff;
use crate::link::{Link, TcpLink};
use crate::shard::SliceWorkerSession;
use crate::transform::{CompiledEvaluator, CompiledModelSet, ModelCache, TransformSpec};
use crate::wire::{Frame, WIRE_VERSION};
use crate::work::{WorkItem, WorkQueue};
use smp_numeric::Complex64;
use std::io;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Per-worker accounting, reported back to the master when the queue drains.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker identifier (0-based).
    pub id: usize,
    /// Number of `s`-points this worker evaluated.
    pub evaluated: usize,
    /// Number of result messages (chunks) this worker sent to the master.
    pub messages: usize,
    /// Total time spent evaluating (excludes queue waiting).
    pub busy: Duration,
}

/// One evaluated item inside a [`WorkerMessage`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkItemOutcome {
    /// The work item that was evaluated.
    pub item: WorkItem,
    /// The transform value, or an error description.
    pub outcome: Result<Complex64, String>,
}

/// A result message from a worker to the master: every outcome of one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerMessage {
    /// The sending worker's identifier.
    pub worker: usize,
    /// The evaluated chunk, in the order the items were popped.
    pub results: Vec<WorkItemOutcome>,
}

/// Evaluates one chunk — the one place a chunk is walked, whichever loop
/// popped it (worker thread, worker process).
/// Each run of consecutive items of one measure goes to that measure's
/// evaluator as a whole ([`CompiledEvaluator::eval_many`]); every item keeps
/// its own outcome, in chunk order, and an item naming a measure
/// `evaluators` lacks fails alone.
pub(crate) fn evaluate_chunk(
    items: &[WorkItem],
    evaluators: &[CompiledEvaluator<'_>],
) -> Vec<WorkItemOutcome> {
    let mut outcomes = Vec::with_capacity(items.len());
    for run in items.chunk_by(|a, b| a.measure == b.measure) {
        let measure = run[0].measure;
        let values: Vec<Result<Complex64, String>> = match evaluators.get(measure) {
            Some(evaluator) => {
                let points: Vec<Complex64> = run.iter().map(|item| item.s).collect();
                evaluator.eval_many(&points)
            }
            None => run
                .iter()
                .map(|_| Err(format!("work item references unknown measure {measure}")))
                .collect(),
        };
        outcomes.extend(
            run.iter()
                .zip(values)
                .map(|(&item, outcome)| WorkItemOutcome { item, outcome }),
        );
    }
    outcomes
}

/// Runs one worker until the queue is empty, evaluating each chunk with the
/// evaluators of the measures its items belong to and answering it with one
/// message.
pub(crate) fn run_batch_worker(
    id: usize,
    queue: &WorkQueue,
    evaluators: &[CompiledEvaluator<'_>],
    results: &Sender<WorkerMessage>,
) -> WorkerStats {
    let mut stats = WorkerStats {
        id,
        evaluated: 0,
        messages: 0,
        busy: Duration::ZERO,
    };
    while let Some(chunk) = queue.pop_chunk() {
        let started = Instant::now();
        let outcomes = evaluate_chunk(&chunk, evaluators);
        stats.busy += started.elapsed();
        stats.evaluated += outcomes.len();
        stats.messages += 1;
        if results
            .send(WorkerMessage {
                worker: id,
                results: outcomes,
            })
            .is_err()
        {
            // The master has gone away; stop quietly.
            break;
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// The worker at the far end of a link
// ---------------------------------------------------------------------------

/// Options for a worker process's connection loop.
#[derive(Debug, Clone)]
pub struct TcpWorkerOptions {
    /// How many times to retry the initial dial (the master may still be
    /// binding when the worker starts).
    pub connect_attempts: u32,
    /// Delay between dial attempts.
    pub retry_delay: Duration,
    /// How long to wait for the master's next frame before declaring it lost
    /// and exiting — the mirror image of the master's io timeout, so a
    /// SIGSTOPped or partitioned master cannot leave zombie workers behind.
    /// `None` waits forever.  An idle worker legitimately waits while its
    /// peers finish the tail of the queue, so size this above the expected
    /// run length (default: 10 minutes, matching the master's default).
    pub idle_timeout: Option<Duration>,
    /// Drop the connection (without farewell) after evaluating this many
    /// chunks — an operational fault-injection hook, used by the disconnect
    /// recovery tests.
    pub exit_after_chunks: Option<usize>,
    /// How many times to *redial* after the link closes (0 = exit on close,
    /// today's one-shot behaviour).  A reconnecting worker treats every link
    /// end except an explicit outer `done` frame as "the master may be
    /// restarting" — a `kill -9`'d master and a clean release both present as
    /// EOF, so only the farewell frame distinguishes them — and redials with
    /// deterministic-jitter backoff.  This is what lets a recovering master
    /// find its fleet waiting at the rendezvous.
    pub reconnect_attempts: u32,
}

impl Default for TcpWorkerOptions {
    fn default() -> Self {
        TcpWorkerOptions {
            connect_attempts: 40,
            retry_delay: Duration::from_millis(250),
            idle_timeout: Some(Duration::from_secs(600)),
            exit_after_chunks: None,
            reconnect_attempts: 0,
        }
    }
}

/// What a worker process did during one connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcpWorkerSummary {
    /// The id the master assigned in the most recent job frame.
    pub worker_id: usize,
    /// Jobs served to completion (`done` frames received).  A one-shot run
    /// serves exactly one; a worker resident behind a query server serves one
    /// per request it participated in.
    pub jobs: usize,
    /// Chunks evaluated and answered, across all jobs.
    pub chunks: usize,
    /// Individual `s`-points evaluated, across all jobs.
    pub evaluated: usize,
    /// True when the worker dropped the link early via
    /// [`TcpWorkerOptions::exit_after_chunks`].
    pub dropped_early: bool,
    /// True when the master's run finished before this worker was assigned
    /// any job: the master's farewell, or a clean close, came between the
    /// hello and the first job frame.  Not a failure — the queue simply
    /// drained without this worker.
    pub released_before_work: bool,
    /// Dial attempts that failed and were retried (initial connect and every
    /// reconnect round).
    pub dial_retries: u64,
    /// Sessions re-established after a link loss (only under
    /// [`TcpWorkerOptions::reconnect_attempts`] > 0).
    pub reconnects: u32,
}

/// Runs one worker process end to end: dial the master, handshake, rebuild
/// the evaluators from the job's [`TransformSpec`]s, answer chunks until the
/// master says `done` (or the fault-injection limit drops the link).
///
/// The worker is **resident**: after a `done` frame it stays connected and
/// waits for the next job, so a long-running master (the query server) can
/// reuse it across requests without a fresh rendezvous.  Every master,
/// one-shot or served, chunk or sharded, says an outer-level `done` when its
/// transport drops, and the worker exits on it — with or without a
/// reconnect budget, which only a link that ends without that farewell
/// spends.  The last explored model is kept: back-to-back
/// jobs over one model (the common case behind a server), whatever measures
/// they ask, skip the parse and state-space exploration entirely.
///
/// This is what `smpq worker --connect HOST:PORT` executes.
pub fn run_tcp_worker(
    connect: &str,
    options: &TcpWorkerOptions,
) -> Result<TcpWorkerSummary, String> {
    let mut summary = TcpWorkerSummary::default();
    // The last job's explored model.  A resident worker behind a query
    // daemon sees the same model for most jobs, and a repeat job must not pay
    // the exploration again.  The cache survives reconnects: a worker that
    // outlives a crashed master keeps its explored state space for the
    // resumed run.
    let models = ModelCache::new(1);
    let mut redial = Backoff::for_endpoint(
        options.retry_delay.max(Duration::from_millis(1)),
        options.retry_delay.max(Duration::from_millis(1)) * 8,
        connect,
    );

    loop {
        let mut link = match dial(connect, options, &mut summary.dial_retries) {
            Ok(link) => link,
            // A reconnecting worker that already served work and now cannot
            // find the master again has outlived the computation — that is a
            // clean end, not a failure.  The very first dial failing is still
            // an error either way.
            Err(_) if summary.reconnects > 0 => return Ok(summary),
            Err(e) => return Err(e),
        };

        match serve_link(&mut link, options.exit_after_chunks, &mut summary, &models) {
            // Only an explicit outer `done` (or the fault-injection exit)
            // ends a reconnecting worker: every other link end could be a
            // master mid-restart.
            Ok(SessionEnd::DroppedEarly) => return Ok(summary),
            Ok(SessionEnd::Done) => {
                summary.released_before_work = summary.jobs == 0;
                return Ok(summary);
            }
            Ok(SessionEnd::Released) => {
                if summary.reconnects >= options.reconnect_attempts {
                    summary.released_before_work = summary.jobs == 0;
                    return Ok(summary);
                }
            }
            Ok(SessionEnd::Lost(message)) => {
                if summary.reconnects >= options.reconnect_attempts {
                    return Err(message);
                }
            }
            // Protocol-level refusals (wire version skew, bad specs, unknown
            // frames) are never retried: redialling cannot fix them.  The
            // last frame out may be a `fatal` the master has yet to read.
            Err(protocol) => {
                link.linger();
                return Err(protocol);
            }
        }
        summary.reconnects += 1;
        std::thread::sleep(redial.next_delay());
    }
}

/// Dials the master with deterministic-jitter exponential backoff (seeded by
/// the endpoint string, so the schedule replays run over run and distinct
/// endpoints de-synchronize).  `retries` counts failed attempts that were
/// retried.
fn dial(connect: &str, options: &TcpWorkerOptions, retries: &mut u64) -> Result<TcpLink, String> {
    let attempts = options.connect_attempts.max(1);
    let base = options.retry_delay.max(Duration::from_millis(1));
    let mut backoff = Backoff::for_endpoint(base, base * 8, connect);
    let mut last_error = String::new();
    for attempt in 0..attempts {
        match TcpLink::dial(connect, options.idle_timeout) {
            Ok(link) => return Ok(link),
            Err(e) => {
                last_error = e.to_string();
                if attempt + 1 < attempts {
                    *retries += 1;
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }
    Err(format!(
        "could not connect to master at {connect} after {attempts} attempt(s): {last_error}"
    ))
}

/// How one worker⇄master session ended, seen from the worker.
pub(crate) enum SessionEnd {
    /// The link closed cleanly (EOF) or went idle — a released worker, a
    /// finished one-shot master, or a `kill -9`'d master: indistinguishable
    /// at the socket, which is exactly why a reconnecting worker redials on
    /// this and exits only on [`SessionEnd::Done`].
    Released,
    /// The master said `done` at the outer level — an explicit farewell.
    Done,
    /// The worker dropped the link itself via
    /// [`TcpWorkerOptions::exit_after_chunks`].
    DroppedEarly,
    /// The link failed abruptly mid-work; the message is the error a
    /// non-reconnecting worker reports.
    Lost(String),
}

/// The peer hung up: EOF, reset or abort.
fn hung_up(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// The peer is connected but went quiet for the link's whole read timeout.
fn went_quiet(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The next frame that asks for work: liveness probes (the query server's
/// pool heartbeat) are answered on the spot, in every state of the loop.
fn next_frame(link: &mut dyn Link) -> io::Result<Frame> {
    loop {
        match link.recv()?.0 {
            Frame::Ping { nonce } => link.send(&Frame::Pong { nonce })?,
            frame => return Ok(frame),
        };
    }
}

/// Reports a failure the master must hear about (it would otherwise wait on
/// a result that never comes) and hands the message back for the worker to
/// fail with.
fn fatal(link: &mut dyn Link, message: String) -> String {
    let _ = link.send(&Frame::Fatal {
        message: message.clone(),
    });
    message
}

/// The worker's frame loop over one connected link: say hello, then serve
/// whatever the master assigns — a chunk job ([`serve_chunks`]) or a
/// row-sharded session (rounds of [`answer`]) — until the link ends.
/// Protocol errors (the master speaking a different dialect) are `Err` and
/// never retried; every way the *link* can end is a [`SessionEnd`].
///
/// `exit_after` is the fault-injection hook behind `smpq worker
/// --exit-after-chunks`: once the worker has written that many responses
/// (chunk results or slice states) it vanishes without a farewell, exactly
/// like a crashed slave processor.
pub(crate) fn serve_link(
    link: &mut dyn Link,
    exit_after: Option<usize>,
    summary: &mut TcpWorkerSummary,
    models: &ModelCache,
) -> Result<SessionEnd, String> {
    let hello = Frame::Hello {
        version: WIRE_VERSION,
    };
    if let Err(e) = link.send(&hello) {
        return Ok(SessionEnd::Lost(format!("handshake write failed: {e}")));
    }
    loop {
        let job = match next_frame(link) {
            Ok(job) => job,
            // A link that closes while no job is in progress means the master
            // released this worker: either its queue drained without the
            // worker ever being assigned work (a warm run, or a faster peer
            // took everything), or a long-running master shut down after some
            // number of jobs.  Both are clean exits, not failures.  So is a
            // read timeout *between* jobs — the master is merely quiet, but a
            // worker cannot idle forever (that is what `idle_timeout`
            // bounds); only the very first job wait treats a timeout as an
            // error, since a master that never sends any job within the
            // window is indistinguishable from a hung one.
            Err(e) if hung_up(&e) || (summary.jobs > 0 && went_quiet(&e)) => {
                return Ok(SessionEnd::Released)
            }
            Err(e) => return Ok(SessionEnd::Lost(format!("job read failed: {e}"))),
        };
        let ended = match job {
            Frame::Job {
                version,
                worker,
                method,
                specs,
            } if version == WIRE_VERSION => {
                summary.worker_id = worker;
                serve_chunks(link, exit_after, summary, models, &method, specs)?
            }
            Frame::Job { version, .. } => {
                return Err(format!(
                    "master speaks wire version {version}, this worker speaks {WIRE_VERSION}"
                ))
            }
            // A sharded session: this worker becomes one row slice of the
            // state space and serves lockstep SpMV rounds until the master's
            // `done`, then waits for the next assignment.  A mid-session
            // `SliceJob` rebuilds the slice in place — that is how the master
            // re-shards survivors after losing a worker.
            Frame::SliceJob { worker, .. } => {
                summary.worker_id = worker;
                let mut session = None;
                let mut step = |frame: &Frame, summary: &mut TcpWorkerSummary| {
                    summary.evaluated += usize::from(matches!(frame, Frame::SPoint { .. }));
                    answer(&mut session, frame)
                };
                match serve_rounds(link, job, exit_after, summary, &mut step) {
                    // A refused frame was reported as `fatal`: that ends the
                    // session, not the worker.
                    Ok(Rounds::Done | Rounds::Refused(_)) => None,
                    Ok(Rounds::DroppedEarly) => Some(SessionEnd::DroppedEarly),
                    // The master vanishing mid-session is how a one-shot
                    // sharded master releases its workers (and how a lost —
                    // or `kill -9`'d — master manifests): both are clean
                    // session ends here, and a reconnecting worker redials to
                    // offer itself to the resumed run.
                    Err(e) if hung_up(&e) || went_quiet(&e) => Some(SessionEnd::Released),
                    Err(e) => Some(SessionEnd::Lost(format!("slice session failed: {e}"))),
                }
            }
            // An explicit outer-level `done` releases a resident worker — the
            // one link end a reconnecting worker does *not* retry.
            Frame::Done => return Ok(SessionEnd::Done),
            other => return Err(format!("expected job frame, got {other:?}")),
        };
        match ended {
            Some(end) => return Ok(end),
            None => summary.jobs += 1,
        }
    }
}

/// A worker's answer to one frame of the slice grammar — the per-frame step
/// [`serve_link`] runs after each `recv` and a loopback shard
/// ([`crate::link::LoopbackLink`]) runs inline on `send`, so the two
/// deployments cannot drift.  A `SliceJob` (re)builds the session and
/// answers its `SliceMeta`, `Done` ends it, everything else is the
/// session's ([`SliceWorkerSession::handle`]); `Err` is a refusal the master
/// must hear as `Fatal`.
pub(crate) fn answer(
    session: &mut Option<SliceWorkerSession>,
    frame: &Frame,
) -> Result<Option<Frame>, String> {
    match frame {
        Frame::Ping { nonce } => Ok(Some(Frame::Pong { nonce: *nonce })),
        Frame::Done => {
            *session = None;
            Ok(None)
        }
        Frame::SliceJob { version, .. } if *version != WIRE_VERSION => Err(format!(
            "wire version mismatch: master speaks v{version}, worker v{WIRE_VERSION}"
        )),
        Frame::SliceJob {
            worker,
            shards,
            spec,
            ..
        } => {
            let built = session.insert(SliceWorkerSession::new(spec, *shards, *worker)?);
            Ok(Some(built.meta()))
        }
        other => match session {
            Some(session) => session.handle(other),
            None => Err(format!("no slice session is active for {other:?}")),
        },
    }
}

/// A job's answer to one frame: a reply to send (if the frame has one), or
/// the refusal to report.
type Step<'a> = dyn FnMut(&Frame, &mut TcpWorkerSummary) -> Result<Option<Frame>, String> + 'a;

/// How a job's rounds ended short of a lost link.
enum Rounds {
    /// The master said `done`.
    Done,
    /// The fault-injection response limit was reached.
    DroppedEarly,
    /// `step` refused a frame; the master has been sent the `Fatal`.
    Refused(String),
}

/// The rounds of one job, chunk or slice, starting from the already-read
/// `frame`: answer each frame with `step` until the master's `done`.  The
/// one place that counts responses against `exit_after` (a slice's meta is
/// its job's acknowledgement, not a response) and reports a refusal.
fn serve_rounds(
    link: &mut dyn Link,
    mut frame: Frame,
    exit_after: Option<usize>,
    summary: &mut TcpWorkerSummary,
    step: &mut Step<'_>,
) -> io::Result<Rounds> {
    while frame != Frame::Done {
        match step(&frame, summary) {
            Ok(Some(reply)) => {
                link.send(&reply)?;
                if !matches!(reply, Frame::SliceMeta { .. }) {
                    summary.chunks += 1;
                    summary.dropped_early = exit_after.is_some_and(|limit| summary.chunks >= limit);
                    if summary.dropped_early {
                        return Ok(Rounds::DroppedEarly);
                    }
                }
            }
            Ok(None) => {}
            Err(message) => return Ok(Rounds::Refused(fatal(link, message))),
        }
        frame = next_frame(link)?;
    }
    Ok(Rounds::Done)
}

/// One chunk job: rebuild the evaluators from the job's spec lines, then
/// evaluate chunks until the master says `done` (`Ok(None)`).
fn serve_chunks(
    link: &mut dyn Link,
    exit_after: Option<usize>,
    summary: &mut TcpWorkerSummary,
    models: &ModelCache,
    method: &str,
    spec_lines: Vec<String>,
) -> Result<Option<SessionEnd>, String> {
    let lost = |e: io::Error| Some(SessionEnd::Lost(format!("master connection lost: {e}")));
    // A seat that took no work hears `job, done`: nothing to compile for, and
    // a pooled worker must not be busy exploring when its next job arrives.
    let first = match next_frame(link) {
        Ok(Frame::Done) => return Ok(None),
        Ok(first) => first,
        Err(e) => return Ok(lost(e)),
    };
    // The s-points arrive explicitly in chunks, but a method this build
    // does not know signals a master from a future protocol era — refuse
    // loudly rather than compute something subtly incompatible.
    if smp_laplace::InversionMethod::from_name(method).is_none() {
        return Err(fatal(link, format!("unknown inversion method '{method}'")));
    }

    // Rebuild the evaluators from bytes, exploring the model only when this
    // job's differs from the previous one's.  A compile failure is reported
    // to the master as a fatal frame so the run fails with a message, not a
    // timeout.
    let compiled_set = match spec_lines
        .iter()
        .map(|l| TransformSpec::decode(l).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|specs| CompiledModelSet::compile_cached(&specs, models).map_err(String::from))
    {
        Ok(set) => set,
        Err(message) => return Err(format!("spec compile failed: {}", fatal(link, message))),
    };
    let evaluators = compiled_set
        .evaluators()
        .map_err(|message| format!("evaluator construction failed: {}", fatal(link, message)))?;

    let mut step = |frame: &Frame, summary: &mut TcpWorkerSummary| {
        let Frame::Chunk { items } = frame else {
            return Err(format!("unexpected frame from master: {frame:?}"));
        };
        let started = Instant::now();
        let results = evaluate_chunk(items, &evaluators);
        let busy_nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        summary.evaluated += results.len();
        let message = WorkerMessage {
            worker: summary.worker_id,
            results,
        };
        Ok(Some(Frame::Result {
            message,
            busy_nanos,
        }))
    };
    match serve_rounds(link, first, exit_after, summary, &mut step) {
        Ok(Rounds::Done) => Ok(None),
        Ok(Rounds::DroppedEarly) => Ok(Some(SessionEnd::DroppedEarly)),
        Ok(Rounds::Refused(message)) => Err(message),
        Err(e) => Ok(lost(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_stage;
    use crate::transform::{CompiledModelSet, ModelSpec, TargetSpec};
    use smp_distributions::Dist;
    use std::sync::mpsc::channel;

    /// Compiles the passages of one-stage nets with the given sojourn
    /// transforms: their values are the sojourns' LSTs, which the tests
    /// recompute with `Dist::lst`.
    fn compile_one_stage(lsts: &[&str]) -> CompiledModelSet {
        let specs: Vec<TransformSpec> = lsts.iter().map(|lst| one_stage::passage(lst)).collect();
        CompiledModelSet::compile(&specs).unwrap()
    }

    const EXP: &str = "expLT(1.5, s)";

    #[test]
    fn worker_drains_queue_and_reports_stats() {
        let items: Vec<WorkItem> = (1..=20)
            .map(|k| WorkItem {
                measure: 0,
                index: k - 1,
                s: Complex64::new(k as f64, 0.0),
            })
            .collect();
        let queue = WorkQueue::with_chunk_size(items, 1);
        let (tx, rx) = channel();
        let compiled = compile_one_stage(&[EXP]);
        let stats = run_batch_worker(3, &queue, &compiled.evaluators().unwrap(), &tx);
        drop(tx);
        assert_eq!(stats.id, 3);
        assert_eq!(stats.evaluated, 20);
        // Chunk size 1: one message per point.
        assert_eq!(stats.messages, 20);
        let received: Vec<WorkItemOutcome> =
            rx.iter().flat_map(|message| message.results).collect();
        assert_eq!(received.len(), 20);
        for outcome in received {
            let expect = Dist::exponential(1.5).lst(outcome.item.s);
            assert_eq!(outcome.outcome.unwrap(), expect);
        }
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn chunked_worker_sends_one_message_per_chunk() {
        let items: Vec<WorkItem> = (0..17)
            .map(|index| WorkItem {
                measure: 0,
                index,
                s: Complex64::new(index as f64, 0.0),
            })
            .collect();
        let queue = WorkQueue::with_chunk_size(items, 5);
        let (tx, rx) = channel();
        let compiled = compile_one_stage(&[EXP]);
        let stats = run_batch_worker(1, &queue, &compiled.evaluators().unwrap(), &tx);
        drop(tx);
        // 17 items at chunk size 5: 5 + 5 + 5 + 2 → 4 messages.
        assert_eq!(stats.evaluated, 17);
        assert_eq!(stats.messages, 4);
        let messages: Vec<WorkerMessage> = rx.iter().collect();
        assert_eq!(messages.len(), 4);
        assert!(messages.iter().all(|m| m.worker == 1));
        let total: usize = messages.iter().map(|m| m.results.len()).sum();
        assert_eq!(total, 17);
    }

    #[test]
    fn items_are_routed_to_their_measure_evaluator() {
        let items: Vec<WorkItem> = (0..12)
            .map(|index| WorkItem {
                measure: index % 2,
                index,
                s: Complex64::new(index as f64, 0.0),
            })
            .collect();
        let queue = WorkQueue::with_chunk_size(items, 4);
        let (tx, rx) = channel();
        let compiled = compile_one_stage(&[EXP, "erlangLT(2.0, 3, s)"]);
        run_batch_worker(0, &queue, &compiled.evaluators().unwrap(), &tx);
        drop(tx);
        for outcome in rx.iter().flat_map(|m| m.results) {
            let expect = match outcome.item.measure {
                0 => Dist::exponential(1.5).lst(outcome.item.s),
                _ => Dist::erlang(2.0, 3).lst(outcome.item.s),
            };
            assert_eq!(outcome.outcome.unwrap(), expect);
        }
    }

    /// One chunk, runs of three measures: each of the two compiled passage
    /// evaluators gets its runs whole (and answers each point with its
    /// `eval` bits), and items naming a measure the job does not have fail
    /// alone — all in chunk order.
    #[test]
    fn chunk_runs_keep_order_and_per_item_outcomes() {
        let passage = TransformSpec::passage(
            ModelSpec::Voting {
                voters: 3,
                polling: 1,
                central: 1,
            },
            TargetSpec::parse("p2>=2").unwrap(),
        );
        let compiled = CompiledModelSet::compile(&[passage, one_stage::passage(EXP)]).unwrap();
        let evaluators = compiled.evaluators().unwrap();
        // Runs: measure 0 ×5, measure 1 ×2, measure 7 ×1, measure 0 ×1.
        let items: Vec<WorkItem> = [0, 0, 0, 0, 0, 1, 1, 7, 0]
            .iter()
            .enumerate()
            .map(|(index, &measure)| WorkItem {
                measure,
                index,
                s: Complex64::new(0.2 + 0.1 * index as f64, index as f64 - 4.0),
            })
            .collect();
        let outcomes = evaluate_chunk(&items, &evaluators);
        assert_eq!(outcomes.len(), items.len());
        for (item, outcome) in items.iter().zip(outcomes) {
            assert_eq!(outcome.item, *item);
            match item.measure {
                0 => assert_eq!(outcome.outcome, evaluators[0].eval(item.s)),
                1 => assert_eq!(outcome.outcome, Ok(Dist::exponential(1.5).lst(item.s))),
                _ => assert!(outcome.outcome.unwrap_err().contains("unknown measure 7")),
            }
        }
    }

    #[test]
    fn errors_are_forwarded_not_fatal() {
        // The middle item names a measure the job does not have: its
        // evaluation fails, and the failure travels as that item's outcome.
        let items: Vec<WorkItem> = [
            (0, Complex64::ONE),
            (1, Complex64::I),
            (0, Complex64::new(2.0, 0.0)),
        ]
        .into_iter()
        .enumerate()
        .map(|(index, (measure, s))| WorkItem { measure, index, s })
        .collect();
        let queue = WorkQueue::with_chunk_size(items, 1);
        let (tx, rx) = channel();
        let compiled = compile_one_stage(&[EXP]);
        let stats = run_batch_worker(0, &queue, &compiled.evaluators().unwrap(), &tx);
        drop(tx);
        assert_eq!(stats.evaluated, 3);
        let errors: Vec<_> = rx
            .iter()
            .flat_map(|m| m.results)
            .filter(|o| o.outcome.is_err())
            .collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].item.s, Complex64::I);
    }
}
