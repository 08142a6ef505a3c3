//! Row-sharded distributed SpMV sessions — the wire-level counterpart of
//! [`smp_core::shard`].
//!
//! The in-process [`smp_core::ShardedSolver`] is the executable specification
//! of the protocol; this module runs the same slices behind the length-prefixed
//! frame transport so each worker holds only its `O(N/shards)` row block:
//!
//! * [`SliceWorkerSession`] — the worker half, written once and driven
//!   frame-by-frame by the worker's slice step (`worker::answer` — run by a
//!   worker process's link loop and, inline, by a loopback shard): build
//!   the slice from a [`Frame::SliceJob`], answer [`Frame::SPoint`] /
//!   [`Frame::Halo`] with [`Frame::SState`].
//! * [`SliceFleet`] — the master's session driver over one [`Link`] per
//!   worker (loopback workers or accepted TCP connections): the `SliceJob` →
//!   `SliceMeta` → `SliceRoute` handshake, the per-point `SPoint` / `Halo` /
//!   `SState` lockstep rounds with the [`ConvergenceFold`] of the core
//!   solver, and re-sharding recovery when a worker connection dies mid-run.
//!   It owns no worker between runs.
//! * `ShardedTransport` — the fleet as a [`Transport`], so a row-sharded
//!   solve is planned, memoised, checkpointed and inverted by the same
//!   pipeline run (`master::run`) as every other deployment.  It is a
//!   [`TcpTransport`] plus the `.shard` sidecar: the seat table holds the
//!   slice links between runs, accepts the holders and sends them the
//!   farewell, exactly as it does for chunk workers.
//!
//! The session protocol, frame by frame (`shards = 3`):
//!
//! ```text
//! master                                  worker k ∈ {0, 1, 2}
//!   SliceJob{worker: k, shards: 3} ────▶  parse, explore, carve slice k
//!   ◀──────── SliceMeta{states, nnz, dists, need}   (memory model + halo subscription)
//!   SliceRoute{rows} ──────────────────▶  rows other shards will ask of k
//!   SPoint{id, s} ─────────────────────▶  refill + init
//!   ◀──────── SState{r: 0, quiet, targets, exports}
//!   Halo{id, r: 1, entries} ───────────▶  apply halo, one SpMV step
//!   ◀──────── SState{r: 1, ...}           (… rounds until the master folds
//!   ⋮                                      the deltas to convergence …)
//!   Done ──────────────────────────────▶  session over, await next SliceJob
//! ```
//!
//! Values are **bitwise identical for any worker count**: the fold replicates
//! `PassageTimeSolver::transform_at` exactly (see `smp_core::shard` for the
//! analysis) and every float crosses the wire as its exact bit pattern.
//!
//! Points where a kernel entry evaluates to exact zero (an LST underflowing at
//! `Re(s)·delay ≳ 745`) run on the shards like every other point: a slice is
//! the same scatter restricted to its columns, so such an entry is
//! bitwise-neutral for the reason `smp_core::workspace`'s module docs give.
//! The master therefore never compiles or explores the model for a passage
//! spec.

use crate::checkpoint::{shard_snapshot_path, ShardSnapshot};
use crate::link::{Link, LoopbackLink};
use crate::master::PipelineError;
use crate::transform::{CompiledModelSet, ExploredModel, ModelCache, TransformSpec};
use crate::transport::{transport_error, ExecutionPlan, TcpTransport, Transport, TransportReport};
use crate::wire::{Frame, WIRE_VERSION};
use crate::work::WorkItem;
use crate::worker::{point_outcome, WorkItemOutcome, WorkerMessage};
use smp_core::shard::owner_of;
use smp_core::{
    plan_exchange, ConvergenceFold, FoldStatus, IterationOptions, ShardWorkspace, ShardedSkeleton,
    StateSet,
};
use smp_numeric::Complex64;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// One worker's half of a sharded session: the slice workspace plus the
/// export route the master assigned, driven frame-by-frame.
///
/// The state machine is written once here; loopback shards and `smpq worker`
/// processes run it behind the same per-frame step, so the two deployments
/// cannot drift.
pub struct SliceWorkerSession {
    ws: ShardWorkspace,
    route: Vec<u32>,
    epsilon: f64,
}

impl SliceWorkerSession {
    /// Builds the slice for `worker` of `shards` from an encoded spec line:
    /// decode → parse → explore → resolve targets → carve the row block.  The
    /// full net and state space are dropped before returning, so the session
    /// keeps only its `O(N/shards + halo)` slice resident — the distributed
    /// memory model the sharded deployment exists for.
    pub fn new(
        spec_line: &str,
        shards: usize,
        worker: usize,
    ) -> Result<SliceWorkerSession, String> {
        let spec = TransformSpec::decode(spec_line).map_err(|e| e.to_string())?;
        let TransformSpec::Passage { model, targets } = &spec else {
            return Err(format!(
                "sharded sessions evaluate passage transforms only, got '{spec_line}'"
            ));
        };
        if shards == 0 || worker >= shards {
            return Err(format!(
                "shard index {worker} is out of range for {shards} shards"
            ));
        }
        let explored = ExploredModel::explore(model)?;
        let target_states = explored.resolve(targets).map_err(|e| e.to_string())?;
        let space = explored.space();
        let smp = space.smp();
        let target_set =
            StateSet::new(smp.num_states(), &target_states).map_err(|e| e.to_string())?;
        let skeleton =
            ShardedSkeleton::build(smp, &target_set, space.initial_state(), shards, worker);
        // The explored model drops here: only the slice survives.
        Ok(SliceWorkerSession {
            ws: ShardWorkspace::new(Arc::new(skeleton)),
            route: Vec::new(),
            epsilon: IterationOptions::default().epsilon,
        })
    }

    /// The [`Frame::SliceMeta`] answer to the job this session was built
    /// from: the slice's memory-model numbers and its halo subscription.
    pub(crate) fn meta(&self) -> Frame {
        let skeleton = self.ws.skeleton();
        Frame::SliceMeta {
            states: skeleton.owned_states(),
            nnz: skeleton.nnz(),
            dists: skeleton.pool_len(),
            need: skeleton.need_rows().to_vec(),
        }
    }

    /// Handles one in-session frame.  [`Frame::SliceRoute`] installs the
    /// export route and has no answer; [`Frame::SPoint`] and [`Frame::Halo`]
    /// answer with the round's [`Frame::SState`].  Anything else — a route
    /// naming a row this shard does not own included — is a protocol error.
    pub(crate) fn handle(&mut self, frame: &Frame) -> Result<Option<Frame>, String> {
        match frame {
            Frame::SliceRoute { rows } => {
                // The only rows a route may name are this shard's own.
                let (lo, hi) = self.ws.skeleton().bounds();
                let ascending = rows.windows(2).all(|pair| pair[0] < pair[1]);
                if !ascending || !rows.iter().all(|&r| (lo..hi).contains(&(r as usize))) {
                    return Err(format!(
                        "export route is not strictly ascending inside this shard's rows {lo}..{hi}"
                    ));
                }
                self.route = rows.clone();
                Ok(None)
            }
            Frame::SPoint { id, s } => {
                self.ws.refill(*s);
                self.ws.init();
                Ok(Some(self.state_frame(*id, 0)))
            }
            Frame::Halo { id, r, entries } => {
                self.ws.apply_halo(entries).map_err(|e| e.to_string())?;
                self.ws.step();
                Ok(Some(self.state_frame(*id, *r)))
            }
            // A pure read of the current iterate: this shard's owned rows
            // keyed by global index.  Taking a snapshot can therefore never
            // perturb the solve — cadence choices cannot change values.
            Frame::TermReq { id, r } => {
                let mut entries = Vec::new();
                self.ws.save_term(&mut entries);
                Ok(Some(Frame::Term {
                    id: *id,
                    r: *r,
                    entries,
                }))
            }
            // Mid-point resume: refill the matrix for `s`, load the owned
            // slice of the checkpointed global term vector (rows outside this
            // shard's block are skipped — the snapshot is shard-count
            // independent), and answer a round-`r` state.  The master ignores
            // the targets and quiet flag (the fold resumes from the
            // checkpoint) and uses only the exports to seed round `r + 1`'s
            // halo.
            Frame::Restore { id, r, s, entries } => {
                self.ws.refill(*s);
                self.ws.load_term(entries).map_err(|e| e.to_string())?;
                Ok(Some(self.state_frame(*id, *r)))
            }
            other => Err(format!("unexpected frame in a slice session: {other:?}")),
        }
    }

    fn state_frame(&self, id: u64, r: u64) -> Frame {
        let mut targets = Vec::new();
        self.ws.collect_targets(&mut targets);
        let mut exports = Vec::new();
        self.ws.export_values(&self.route, &mut exports);
        Frame::SState {
            id,
            r,
            quiet: self.ws.is_quiet(self.epsilon),
            targets,
            exports,
        }
    }
}

// ---------------------------------------------------------------------------
// Master side
// ---------------------------------------------------------------------------

/// What one [`SliceFleet::solve`] call did: the transform values plus the
/// wire, exchange and memory-model counters that feed
/// [`smp_core::query::Provenance`].
#[derive(Debug, Clone, Default)]
pub struct ShardedOutcome {
    /// The transform value at each requested `s`-point, in request order.
    pub values: Vec<Complex64>,
    /// Frames sent and received.
    pub messages: usize,
    /// Bytes shipped (or, on the loopback backend, that would have shipped).
    pub bytes_on_wire: u64,
    /// Bytes of [`Frame::Halo`] boundary traffic within `bytes_on_wire`.
    pub halo_bytes: u64,
    /// Boundary-exchange rounds driven across all points.
    pub exchange_rounds: usize,
    /// Workers lost (and re-sharded around) during the call.
    pub disconnects: usize,
    /// Total states across the slices of the final session.
    pub num_states: usize,
    /// Owned states per shard — sums to `num_states`; the largest entry is
    /// the per-worker memory ceiling `⌈N/shards⌉`.
    pub shard_states: Vec<usize>,
    /// Injected or organic link faults the solve absorbed (re-shards and
    /// mid-point resumes) without changing its values.
    pub recovered_faults: u64,
    /// Exchange rounds *not* redone thanks to mid-point snapshot resumes —
    /// each resume contributes the round it restarted from.
    pub resumed_rounds: u64,
}

/// Crash-recovery knobs for [`SliceFleet::solve_recoverable`] — all off by
/// default, in which case it behaves exactly like [`SliceFleet::solve`].
#[derive(Default)]
pub struct SolveRecovery<'a> {
    /// The measure's transform key, stamped into snapshots so a restarted
    /// run never resumes a different measure's iterate.
    pub key: String,
    /// Sidecar file for on-disk snapshots (`None` keeps them in memory only,
    /// which still covers lost-worker resume within one master process).
    pub snapshot_path: Option<std::path::PathBuf>,
    /// Snapshot cadence in exchange rounds; `0` disables snapshots.
    pub snapshot_every: u64,
    /// A snapshot recovered from a previous (killed) run; consumed by the
    /// first point whose `(key, s)` matches bitwise.
    pub seed: Option<ShardSnapshot>,
    /// Called with `(s, value)` as each point completes — the incremental
    /// checkpoint hook.  An `Err` aborts the solve.
    #[allow(clippy::type_complexity)]
    pub on_value: Option<&'a mut dyn FnMut(Complex64, Complex64) -> io::Result<()>>,
}

/// One link, the seat it came from, and the number of response frames the
/// master has asked of it and not yet consumed — drained before any
/// re-handshake so a torn session can never leave a stale frame in front of
/// a fresh `SliceMeta`.
struct Slot {
    seat: usize,
    link: Box<dyn Link>,
    pending: usize,
}

impl Slot {
    fn send(&mut self, frame: &Frame, out: &mut ShardedOutcome) -> io::Result<()> {
        let bytes = self.link.send(frame)?;
        out.messages += 1;
        out.bytes_on_wire += bytes;
        if matches!(frame, Frame::Halo { .. }) {
            out.halo_bytes += bytes;
        }
        if matches!(
            frame,
            Frame::SliceJob { .. }
                | Frame::SPoint { .. }
                | Frame::Halo { .. }
                | Frame::TermReq { .. }
                | Frame::Restore { .. }
        ) {
            self.pending += 1;
        }
        Ok(())
    }

    fn recv(&mut self, out: &mut ShardedOutcome) -> io::Result<Frame> {
        let (frame, bytes) = self.link.recv()?;
        out.messages += 1;
        out.bytes_on_wire += bytes;
        self.pending = self.pending.saturating_sub(1);
        Ok(frame)
    }

    fn drain(&mut self, out: &mut ShardedOutcome) -> io::Result<()> {
        while self.pending > 0 {
            self.recv(out)?;
        }
        Ok(())
    }
}

/// The routing state of one handshaken session.
struct SessionState {
    shards: usize,
    num_states: usize,
    /// Per-shard halo subscriptions, as reported in the `SliceMeta` frames.
    needs: Vec<Vec<u32>>,
}

/// A worker lost mid-operation (recoverable by re-sharding) versus a
/// protocol or evaluation failure (not).
enum PointError {
    Channel(usize, io::Error),
    Hard(PipelineError),
}

/// `shards` links to fresh in-process loopback slice workers.
pub(crate) fn loopback_slices(shards: usize) -> Vec<Box<dyn Link>> {
    let slice = |_| Box::new(LoopbackLink::new()) as Box<dyn Link>;
    (0..shards).map(slice).collect()
}

/// The master's session driver over a set of slice workers.
///
/// A fleet is handed its links (loopback workers or accepted TCP
/// connections) and runs any number of sharded sessions over them — one
/// [`solve`](SliceFleet::solve) call per passage spec.  Losing a worker
/// mid-run shrinks the fleet: the session is re-handshaken across the
/// survivors (block boundaries are a pure function of `N` and the shard
/// count, so any count yields the same values) and the in-flight point is
/// redone from scratch.  Between a `ShardedTransport`'s runs the links live
/// in its seat table, not here.
pub struct SliceFleet {
    slots: Vec<Slot>,
}

impl SliceFleet {
    /// A fleet of `shards` in-process loopback workers.
    pub fn loopback(shards: usize) -> SliceFleet {
        SliceFleet::from_links(loopback_slices(shards))
    }

    /// A fleet over explicit, already handshaken links.
    pub fn from_links(links: Vec<Box<dyn Link>>) -> SliceFleet {
        SliceFleet::seated(&mut links.into_iter().map(Some).collect())
    }

    /// A fleet over the links a seat table holds, taken out of their seats;
    /// [`unseat`](SliceFleet::unseat) puts the survivors back.
    fn seated(seats: &mut crate::transport::Links) -> SliceFleet {
        let held = seats.iter_mut().enumerate();
        let held = held.filter_map(|(seat, link)| Some((seat, link.take()?)));
        let slots = held.map(|(seat, link)| Slot {
            seat,
            link,
            pending: 0,
        });
        SliceFleet {
            slots: slots.collect(),
        }
    }

    /// Puts every surviving link back in its seat, first draining what a
    /// failed solve left unread; a link that fails the drain stays out.
    fn unseat(self, seats: &mut crate::transport::Links) {
        let mut unread = ShardedOutcome::default();
        for mut slot in self.slots {
            if slot.drain(&mut unread).is_ok() {
                seats[slot.seat] = Some(slot.link);
            }
        }
    }

    /// Workers currently alive in the fleet.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Evaluates `spec` at every `s`-point through one sharded session —
    /// bitwise identical to the compiled solver's
    /// [`PassageTimeSolver::transform_at`](smp_core::PassageTimeSolver::transform_at)
    /// on the same spec, for any live worker count.
    ///
    /// `spec` must be a passage transform.  Transient specs are rejected:
    /// their iterations are not row-sharded and stay master-side.
    pub fn solve(
        &mut self,
        spec: &TransformSpec,
        s_points: &[Complex64],
    ) -> Result<ShardedOutcome, PipelineError> {
        self.solve_recoverable(spec, s_points, &mut SolveRecovery::default())
    }

    /// [`solve`](SliceFleet::solve) with crash recovery: mid-point snapshots
    /// at a fixed round cadence (in memory, and — when a path is given — on
    /// disk), a seed snapshot from a previous killed run consumed by its
    /// matching point, and a per-value callback for incremental
    /// checkpointing.  Recovery never changes values: a resumed point holds
    /// bitwise the iterate the interrupted run held, so the fold converges to
    /// bitwise the fault-free answer.
    pub fn solve_recoverable(
        &mut self,
        spec: &TransformSpec,
        s_points: &[Complex64],
        recovery: &mut SolveRecovery<'_>,
    ) -> Result<ShardedOutcome, PipelineError> {
        if !matches!(spec, TransformSpec::Passage { .. }) {
            return Err(transport_error(
                "sharded sessions evaluate passage transforms; transient measures are \
                 evaluated master-side"
                    .to_string(),
            ));
        }
        let spec_line = spec.encode();
        let options = IterationOptions::default();
        let mut out = ShardedOutcome {
            values: Vec::with_capacity(s_points.len()),
            ..ShardedOutcome::default()
        };
        let key = recovery.key.clone();
        let path = recovery.snapshot_path.clone();
        let every = recovery.snapshot_every;
        let mut session = self.handshake(&spec_line, &mut out)?;
        let mut index = 0;
        // The in-memory snapshot of the in-flight point, refreshed at the
        // cadence.  A lost worker resumes the point from here (on the
        // re-sharded fleet — snapshots are shard-count independent) instead
        // of redoing it from round 0.
        let mut latest: Option<ShardSnapshot> = None;
        while index < s_points.len() {
            let s = s_points[index];
            if latest.is_none()
                && recovery.seed.as_ref().is_some_and(|seed| {
                    seed.key == key
                        && seed.s.re.to_bits() == s.re.to_bits()
                        && seed.s.im.to_bits() == s.im.to_bits()
                })
            {
                // The previous run died while solving exactly this point:
                // pick up its iterate instead of starting cold.
                latest = recovery.seed.take();
            }
            let resume = latest.clone();
            let mut fresh: Option<ShardSnapshot> = None;
            let mut sink = |mut snap: ShardSnapshot| -> io::Result<()> {
                snap.key = key.clone();
                if let Some(path) = &path {
                    snap.save(path)?;
                }
                fresh = Some(snap);
                Ok(())
            };
            let outcome = run_point(
                &mut self.slots,
                &session,
                index as u64,
                s,
                options,
                resume.as_ref(),
                every,
                &mut sink,
                &mut out,
            );
            if let Some(snap) = fresh {
                latest = Some(snap);
            }
            match outcome {
                Ok(value) => {
                    if let Some(on_value) = recovery.on_value.as_mut() {
                        on_value(s, value).map_err(PipelineError::Io)?;
                    }
                    out.values.push(value);
                    latest = None;
                    index += 1;
                }
                Err(PointError::Hard(e)) => return Err(e),
                Err(PointError::Channel(k, cause)) => {
                    self.slots.remove(k);
                    out.disconnects += 1;
                    out.recovered_faults += 1;
                    session = self.handshake(&spec_line, &mut out).map_err(|e| {
                        transport_error(format!("{e} (worker {k} lost mid-point: {cause})"))
                    })?;
                    // Redo the same point on the re-sharded fleet — resuming
                    // from `latest` if a snapshot of it exists.
                }
            }
        }
        self.end_session(&mut out);
        let _ = session;
        if let Some(path) = &path {
            // Clean completion: the sidecar must not seed a future run with a
            // point this run already finished (those live in the checkpoint
            // proper).
            let _ = ShardSnapshot::remove(path);
        }
        Ok(out)
    }

    /// Handshakes a session across the current fleet, shrinking it on
    /// link failures until a full handshake lands or nobody is left.
    fn handshake(
        &mut self,
        spec_line: &str,
        out: &mut ShardedOutcome,
    ) -> Result<SessionState, PipelineError> {
        loop {
            if self.slots.is_empty() {
                return Err(transport_error(
                    "every slice worker was lost before the session could run".to_string(),
                ));
            }
            match try_handshake(&mut self.slots, spec_line, out) {
                Ok(session) => {
                    out.num_states = session.num_states;
                    return Ok(session);
                }
                Err(PointError::Channel(k, _)) => {
                    self.slots.remove(k);
                    out.disconnects += 1;
                }
                Err(PointError::Hard(e)) => return Err(e),
            }
        }
    }

    /// Ends the session on every live worker (they return to their outer
    /// frame loop, ready for the next `SliceJob`).  A worker lost here is
    /// simply dropped — there is no work left to requeue.
    fn end_session(&mut self, out: &mut ShardedOutcome) {
        let mut k = 0;
        while k < self.slots.len() {
            match self.slots[k].send(&Frame::Done, out) {
                Ok(()) => k += 1,
                Err(_) => {
                    self.slots.remove(k);
                    out.disconnects += 1;
                }
            }
        }
    }
}

/// One full `SliceJob` → `SliceMeta` → `SliceRoute` handshake across the
/// fleet, recording the memory-model numbers into `out`.
fn try_handshake(
    slots: &mut [Slot],
    spec_line: &str,
    out: &mut ShardedOutcome,
) -> Result<SessionState, PointError> {
    let shards = slots.len();
    // Flush responses still in flight from a torn session, so the metas read
    // below cannot be stale frames of the previous assignment.
    for (k, slot) in slots.iter_mut().enumerate() {
        slot.drain(out).map_err(|e| PointError::Channel(k, e))?;
    }
    for (k, slot) in slots.iter_mut().enumerate() {
        let job = Frame::SliceJob {
            version: WIRE_VERSION,
            worker: k,
            shards,
            spec: spec_line.to_string(),
        };
        slot.send(&job, out)
            .map_err(|e| PointError::Channel(k, e))?;
    }
    let mut states = Vec::with_capacity(shards);
    let mut needs = Vec::with_capacity(shards);
    for (k, slot) in slots.iter_mut().enumerate() {
        match slot.recv(out).map_err(|e| PointError::Channel(k, e))? {
            Frame::SliceMeta {
                states: s, need, ..
            } => {
                states.push(s);
                needs.push(need);
            }
            Frame::Fatal { message } => {
                return Err(PointError::Hard(transport_error(format!(
                    "slice worker {k}: {message}"
                ))))
            }
            other => {
                return Err(PointError::Hard(transport_error(format!(
                    "expected a slice meta from worker {k}, got {other:?}"
                ))))
            }
        }
    }
    let num_states = states.iter().sum();
    let need_refs: Vec<&[u32]> = needs.iter().map(Vec::as_slice).collect();
    let plan = plan_exchange(num_states, shards, &need_refs);
    for (k, slot) in slots.iter_mut().enumerate() {
        let route = Frame::SliceRoute {
            rows: plan.exports(k).to_vec(),
        };
        slot.send(&route, out)
            .map_err(|e| PointError::Channel(k, e))?;
    }
    out.shard_states = states;
    Ok(SessionState {
        shards,
        num_states,
        needs,
    })
}

/// One shard's round state as received from the wire.
struct SliceState {
    quiet: bool,
    targets: Vec<Complex64>,
    exports: Vec<(u32, Complex64)>,
}

fn recv_state(
    slot: &mut Slot,
    k: usize,
    id: u64,
    r: u64,
    out: &mut ShardedOutcome,
) -> Result<SliceState, PointError> {
    match slot.recv(out).map_err(|e| PointError::Channel(k, e))? {
        Frame::SState {
            id: got_id,
            r: got_r,
            quiet,
            targets,
            exports,
        } => {
            if got_id != id || got_r != r {
                return Err(PointError::Hard(transport_error(format!(
                    "slice worker {k} answered point {got_id} round {got_r}, \
                     expected point {id} round {r}"
                ))));
            }
            Ok(SliceState {
                quiet,
                targets,
                exports,
            })
        }
        Frame::Fatal { message } => Err(PointError::Hard(transport_error(format!(
            "slice worker {k}: {message}"
        )))),
        other => Err(PointError::Hard(transport_error(format!(
            "expected a slice state from worker {k}, got {other:?}"
        )))),
    }
}

/// The halo for shard `k`: its subscribed rows looked up in the owners'
/// published exports — identical to `ShardedSolver::exchange`.
fn assemble_halo(
    session: &SessionState,
    k: usize,
    exports: &[Vec<(u32, Complex64)>],
) -> Vec<(u32, Complex64)> {
    let mut entries = Vec::new();
    for &row in &session.needs[k] {
        let owner = owner_of(session.num_states, session.shards, row as usize);
        if let Ok(pos) = exports[owner].binary_search_by_key(&row, |&(r, _)| r) {
            entries.push(exports[owner][pos]);
        }
    }
    entries
}

/// Drives one `s`-point through the fleet to its converged value.
///
/// With `resume`, the point restarts mid-iteration: every shard gets a
/// [`Frame::Restore`] carrying the snapshot's global term vector (each loads
/// only its owned rows), the fold resumes from the checkpointed
/// `(total, quiet, last_delta)`, and iteration continues at `round + 1` —
/// producing bitwise the value an uninterrupted run produces.  With
/// `snapshot_every > 0`, a [`Frame::TermReq`] sweep (a pure read) captures
/// the iterate every that-many rounds and hands it to `snapshot`.
#[allow(clippy::too_many_arguments)]
fn run_point(
    slots: &mut [Slot],
    session: &SessionState,
    id: u64,
    s: Complex64,
    options: IterationOptions,
    resume: Option<&ShardSnapshot>,
    snapshot_every: u64,
    snapshot: &mut dyn FnMut(ShardSnapshot) -> io::Result<()>,
    out: &mut ShardedOutcome,
) -> Result<Complex64, PointError> {
    let (mut fold, mut exports, start_round) = match resume {
        None => {
            for (k, slot) in slots.iter_mut().enumerate() {
                slot.send(&Frame::SPoint { id, s }, out)
                    .map_err(|e| PointError::Channel(k, e))?;
            }
            let mut initial = Complex64::ZERO;
            let mut exports: Vec<Vec<(u32, Complex64)>> = vec![Vec::new(); session.shards];
            for (k, slot) in slots.iter_mut().enumerate() {
                let state = recv_state(slot, k, id, 0, out)?;
                // Shard order is ascending state order: this accumulation is
                // the exact fold sequence of the unsharded solver's init.
                for value in &state.targets {
                    initial += *value;
                }
                exports[k] = state.exports;
            }
            (ConvergenceFold::new(options, initial), exports, 0usize)
        }
        Some(snap) => {
            for (k, slot) in slots.iter_mut().enumerate() {
                slot.send(
                    &Frame::Restore {
                        id,
                        r: snap.round,
                        s,
                        entries: snap.entries.clone(),
                    },
                    out,
                )
                .map_err(|e| PointError::Channel(k, e))?;
            }
            let mut exports: Vec<Vec<(u32, Complex64)>> = vec![Vec::new(); session.shards];
            for (k, slot) in slots.iter_mut().enumerate() {
                let state = recv_state(slot, k, id, snap.round, out)?;
                // Targets and quiet flags of the restore-ack are ignored:
                // the fold's state comes from the snapshot, and the ack's
                // exports seed the next round's halo.
                exports[k] = state.exports;
            }
            out.resumed_rounds += snap.round;
            out.recovered_faults += 1;
            (
                ConvergenceFold::resume(options, snap.total, snap.quiet as usize, snap.last_delta),
                exports,
                snap.round as usize,
            )
        }
    };
    for r in (start_round + 1)..=options.max_iterations {
        out.exchange_rounds += 1;
        for (k, slot) in slots.iter_mut().enumerate() {
            let entries = assemble_halo(session, k, &exports);
            slot.send(
                &Frame::Halo {
                    id,
                    r: r as u64,
                    entries,
                },
                out,
            )
            .map_err(|e| PointError::Channel(k, e))?;
        }
        let mut delta = Complex64::ZERO;
        let mut quiet = true;
        for (k, slot) in slots.iter_mut().enumerate() {
            let state = recv_state(slot, k, id, r as u64, out)?;
            quiet &= state.quiet;
            for value in &state.targets {
                delta += *value;
            }
            exports[k] = state.exports;
        }
        match fold.push(delta, || quiet) {
            FoldStatus::Continue => {}
            FoldStatus::Converged(total) => return Ok(total),
            FoldStatus::Diverged => return Err(no_convergence(s, r, &fold)),
        }
        if snapshot_every > 0 && (r as u64).is_multiple_of(snapshot_every) {
            // Capture the iterate *after* this round's fold: a TermReq sweep
            // is a pure read on every shard, so the snapshot cadence cannot
            // perturb the values.
            for (k, slot) in slots.iter_mut().enumerate() {
                slot.send(&Frame::TermReq { id, r: r as u64 }, out)
                    .map_err(|e| PointError::Channel(k, e))?;
            }
            let mut entries = Vec::new();
            for (k, slot) in slots.iter_mut().enumerate() {
                match slot.recv(out).map_err(|e| PointError::Channel(k, e))? {
                    Frame::Term {
                        id: got_id,
                        r: got_r,
                        entries: shard_entries,
                    } if got_id == id && got_r == r as u64 => {
                        // Shards own disjoint ascending row blocks, so
                        // extending in shard order keeps rows ascending.
                        entries.extend(shard_entries);
                    }
                    Frame::Fatal { message } => {
                        return Err(PointError::Hard(transport_error(format!(
                            "slice worker {k}: {message}"
                        ))))
                    }
                    other => {
                        return Err(PointError::Hard(transport_error(format!(
                            "expected a term snapshot from worker {k}, got {other:?}"
                        ))))
                    }
                }
            }
            snapshot(ShardSnapshot {
                key: String::new(), // stamped by the caller
                s,
                round: r as u64,
                total: fold.total(),
                quiet: fold.quiet_rounds() as u64,
                last_delta: fold.last_delta(),
                entries,
            })
            .map_err(|e| PointError::Hard(PipelineError::Io(e)))?;
        }
    }
    Err(no_convergence(s, options.max_iterations, &fold))
}

/// The failure of a sharded point retired after `iterations` rounds — the
/// round its total diverged, or the whole budget.
fn no_convergence(s: Complex64, iterations: usize, fold: &ConvergenceFold) -> PointError {
    PointError::Hard(PipelineError::Evaluation {
        s,
        message: format!(
            "no convergence after {iterations} iterations (last delta {:.3e})",
            fold.last_delta()
        ),
    })
}

// ---------------------------------------------------------------------------
// The transport adapter
// ---------------------------------------------------------------------------

/// Snapshot cadence of checkpointed sharded solves, in exchange rounds: low
/// enough that a killed master redoes at most a few rounds per point, high
/// enough that the pure-read `TermReq` sweep stays a rounding error next to
/// the per-round halo exchange.
const SNAPSHOT_EVERY: u64 = 8;

/// Row-sharded evaluation as a [`Transport`].
///
/// The state space is partitioned into contiguous row blocks — a pure
/// function of the state count and the shard count — and each slice worker
/// iterates only its own `O(N/shards)` block.  It explores and compiles the
/// whole model first (see [`SliceWorkerSession::new`]) and keeps only its
/// slice, so a holder's peak memory is the whole explored model's.  Where
/// the chunk backends farm whole `s`-points out, this one drives every point
/// of the plan through a [`SliceFleet`] over its held links, one sharded
/// session per distinct transform spec, and hands each finished value to the
/// pipeline as its own [`WorkerMessage`] — so the pipeline's result cache
/// and checkpoint writer memoise, restore and record sharded points exactly
/// as they do unsharded ones.  Specs the slice grammar does not speak
/// (transient transforms) are compiled master-side, through the model cache.
pub(crate) struct ShardedTransport {
    /// The holders' seat table — which keeps them between runs, seats TCP
    /// holders as they dial in and releases them — model cache and deadline.
    seats: TcpTransport,
    sidecar: Option<PathBuf>,
}

impl ShardedTransport {
    /// Row-sharded evaluation over the holders `seats` seats (loopback
    /// slices, or `smpq worker` processes), exploring transient specs in
    /// `models`.  With a `checkpoint`, a mid-point iterate snapshot is kept
    /// in its `<checkpoint>.shard` sidecar, so a killed master resumes its
    /// in-flight point mid-iteration; `None` keeps snapshots off.
    pub(crate) fn new(
        seats: TcpTransport,
        models: Arc<ModelCache>,
        checkpoint: Option<&Path>,
    ) -> ShardedTransport {
        ShardedTransport {
            seats: seats.with_model_cache(models),
            sidecar: checkpoint.map(shard_snapshot_path),
        }
    }

    /// Drives every item of the plan through `fleet`, one session per
    /// distinct spec, folding the sessions' counters into `report`.
    fn drain(
        &self,
        fleet: &mut SliceFleet,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
        report: &mut TransportReport,
    ) -> Result<(), PipelineError> {
        let mut groups: Vec<(&TransformSpec, Vec<WorkItem>)> = Vec::new();
        for item in plan.items {
            let spec = plan.specs[item.measure];
            match groups.iter_mut().find(|(known, _)| *known == spec) {
                Some((_, items)) => items.push(item),
                None => groups.push((spec, vec![item])),
            }
        }
        // A snapshot a killed run left behind is offered only to the spec
        // whose key it carries; anything else starts its points cold.
        let mut seed = match &self.sidecar {
            Some(path) => ShardSnapshot::load(path)?,
            None => None,
        };
        let mut deliver = |item: WorkItem, outcome: Result<Complex64, String>| {
            on_message(WorkerMessage {
                worker: 0,
                results: vec![WorkItemOutcome { item, outcome }],
            })
        };
        for (spec, items) in groups {
            let points: Vec<Complex64> = items.iter().map(|item| item.s).collect();
            if !matches!(spec, TransformSpec::Passage { .. }) {
                let models = self.model_cache().expect("built over a model cache");
                let set = CompiledModelSet::compile_cached([spec], models)?;
                let evaluator = set.evaluator(0).map_err(transport_error)?;
                for (&item, point) in items.iter().zip(evaluator.transform_many(&points)) {
                    deliver(item, point_outcome(point));
                }
                report.states = report.states.or(Some(set.num_states()));
                report.hotpath = report.hotpath.merged(evaluator.hotpath_stats());
                report.model_cache_hits += set.cache_hits();
                report.model_cache_misses += set.cache_misses();
                continue;
            }
            let key = spec.transform_key();
            // The fleet finishes the points in order, one value each.
            let mut answered = 0;
            let mut on_value = |_s: Complex64, value: Complex64| -> io::Result<()> {
                deliver(items[answered], Ok(value));
                answered += 1;
                Ok(())
            };
            let mut recovery = SolveRecovery {
                seed: seed.take_if(|snapshot| snapshot.key == key),
                key,
                snapshot_path: self.sidecar.clone(),
                snapshot_every: self.sidecar.as_ref().map_or(0, |_| SNAPSHOT_EVERY),
                on_value: Some(&mut on_value),
            };
            let out = fleet.solve_recoverable(spec, &points, &mut recovery)?;
            report.messages += out.messages;
            report.bytes_on_wire += out.bytes_on_wire;
            report.halo_bytes += out.halo_bytes;
            report.exchange_rounds += out.exchange_rounds as u64;
            report.states = report.states.or(Some(out.num_states));
            // The layout of the *current* session: shrinks if a worker was lost.
            report.shards = fleet.shards();
            report.shard_states = out.shard_states;
            report.disconnects += out.disconnects;
            report.retries += out.disconnects as u64;
            report.recovered_faults += out.recovered_faults;
            report.resumed_rounds += out.resumed_rounds;
        }
        Ok(())
    }
}

impl Transport for ShardedTransport {
    fn name(&self) -> &'static str {
        match self.seats.local_addrs().is_empty() {
            true => "sharded-loopback",
            false => "sharded-tcp",
        }
    }

    fn parallelism(&self) -> usize {
        self.seats.parallelism()
    }

    fn model_cache(&self) -> Option<&ModelCache> {
        self.seats.model_cache()
    }

    fn execute(
        &self,
        plan: ExecutionPlan<'_>,
        on_message: &mut dyn FnMut(WorkerMessage),
    ) -> Result<TransportReport, PipelineError> {
        self.seats.with_seats(|seats, mut report| {
            let mut fleet = SliceFleet::seated(seats);
            let drained = self.drain(&mut fleet, plan, on_message, &mut report);
            fleet.unseat(seats);
            drained.map(|()| report)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::link::FaultyLink;
    use crate::transform::{CompiledModelSet, ModelSpec};
    use smp_core::query::TargetSpec;
    use std::sync::Mutex;

    pub(crate) fn voting_spec() -> TransformSpec {
        TransformSpec::passage(
            ModelSpec::Voting {
                voters: 3,
                polling: 1,
                central: 1,
            },
            TargetSpec::parse("p2>=2").unwrap(),
        )
    }

    pub(crate) fn points() -> Vec<Complex64> {
        vec![
            Complex64::new(0.9, 0.0),
            Complex64::new(0.4, 1.3),
            Complex64::new(1.7, -0.8),
            Complex64::new(0.05, 2.5),
        ]
    }

    /// A two-token DNAmaca ring whose `ab` delay is deterministic: past
    /// `Re(s)·2 ≈ 745` its LST underflows to exact zero, so the first two
    /// points hit exact-zero kernel entries and the last two do not.
    pub(crate) fn underflow_spec_and_points() -> (TransformSpec, Vec<Complex64>) {
        let source = r"
            \place{a}{2} \place{b}{0} \place{c}{0}
            \transition{ab}{ \condition{a > 0} \action{ next->a = a - 1; next->b = b + 1; }
                \weight{1.0} \sojourntimeLT{ return deterministicLT(2.0, s); } }
            \transition{bc}{ \condition{b > 0} \action{ next->b = b - 1; next->c = c + 1; }
                \weight{1.0} \sojourntimeLT{ return expLT(1.0, s); } }
            \transition{ca}{ \condition{c > 0} \action{ next->c = c - 1; next->a = a + 1; }
                \weight{1.0} \sojourntimeLT{ return erlangLT(2.0, 2, s); } }";
        let spec = TransformSpec::passage(
            ModelSpec::Dnamaca(source.to_string()),
            TargetSpec::parse("c>=2").unwrap(),
        );
        let points = vec![
            Complex64::new(500.0, 0.0),
            Complex64::new(900.0, 1.5),
            Complex64::new(0.9, 0.0),
            Complex64::new(0.4, 1.3),
        ];
        for &s in &points[..2] {
            let lst = smp_distributions::Dist::deterministic(2.0).lst(s);
            assert_eq!((lst.re, lst.im), (0.0, 0.0), "{s} must underflow");
        }
        (spec, points)
    }

    pub(crate) fn bits(values: &[Complex64]) -> Vec<(u64, u64)> {
        let bits = |v: &Complex64| (v.re.to_bits(), v.im.to_bits());
        values.iter().map(bits).collect()
    }

    /// Underflow points are solved by the shards themselves — values bitwise
    /// those of the compiled evaluator, and a solve of the underflow points
    /// alone still drives exchange rounds (the master compiled nothing).
    pub(crate) fn assert_underflow_points_run_on_the_shards(fleet: &mut SliceFleet) {
        let (spec, points) = underflow_spec_and_points();
        let expected = reference(&spec, &points);
        let out = fleet.solve(&spec, &points).unwrap();
        assert_eq!(bits(&out.values), bits(&expected));
        let out = fleet.solve(&spec, &points[..2]).unwrap();
        assert_eq!(bits(&out.values), bits(&expected[..2]));
        assert!(out.exchange_rounds > 0, "the points ran on the shards");
        assert_eq!(out.disconnects, 0);
    }

    /// A loopback fleet whose links `faulty` picks consult the shared `plan`.
    fn faulty_fleet(
        shards: usize,
        plan: &Arc<Mutex<FaultPlan>>,
        faulty: impl Fn(usize) -> bool,
    ) -> SliceFleet {
        let link = |k| {
            let link = Box::new(LoopbackLink::new()) as Box<dyn Link>;
            match faulty(k) {
                true => Box::new(FaultyLink::new(link, Arc::clone(plan))) as Box<dyn Link>,
                false => link,
            }
        };
        SliceFleet::from_links((0..shards).map(link).collect())
    }

    /// A three-worker fleet whose worker 1 dies (as if its process was
    /// killed) at the `op`-th frame the master sends it.
    fn fleet_losing_worker_one_at(op: u64) -> SliceFleet {
        let plan = FaultPlan::scripted([(op, FaultKind::Disconnect)]);
        faulty_fleet(3, &Arc::new(Mutex::new(plan)), |k| k == 1)
    }

    /// Recovery with in-memory snapshots every `snapshot_every` rounds.
    fn recovery(snapshot_every: u64) -> SolveRecovery<'static> {
        SolveRecovery {
            key: "passage".to_string(),
            snapshot_every,
            ..SolveRecovery::default()
        }
    }

    pub(crate) fn reference(spec: &TransformSpec, points: &[Complex64]) -> Vec<Complex64> {
        let set = CompiledModelSet::compile(std::slice::from_ref(spec)).unwrap();
        let evaluator = set.evaluator(0).unwrap();
        points
            .iter()
            .map(|&s| evaluator.transform_at(s).unwrap().value)
            .collect()
    }

    #[test]
    fn loopback_fleet_matches_the_local_evaluator_bitwise_for_any_shard_count() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        for shards in 1..=4 {
            let mut fleet = SliceFleet::loopback(shards);
            let out = fleet.solve(&spec, &points()).unwrap();
            assert_eq!(out.values, expected, "{shards} shards");
            // The memory claim: the slices partition the full state space and
            // the largest slice is the ⌈N/shards⌉ block.
            assert_eq!(out.shard_states.len(), shards);
            assert_eq!(out.shard_states.iter().sum::<usize>(), out.num_states);
            let ceiling = out.num_states.div_ceil(shards);
            assert!(out.shard_states.iter().all(|&s| s <= ceiling));
            assert_eq!(out.disconnects, 0);
            assert!(out.messages > 0 && out.bytes_on_wire > 0);
            if shards > 1 {
                assert!(out.halo_bytes > 0, "boundary exchange must ship bytes");
            }
            assert!(out.exchange_rounds > 0);
        }
    }

    #[test]
    fn killed_worker_is_requeued_onto_survivors_bitwise() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        // The failing worker dies mid-run (its slice job, route, first point
        // and five halo rounds got through); the point in flight is redone
        // on the re-sharded survivors.
        let mut fleet = fleet_losing_worker_one_at(8);
        let out = fleet.solve(&spec, &points()).unwrap();
        assert_eq!(out.values, expected);
        assert_eq!(out.disconnects, 1);
        assert_eq!(fleet.shards(), 2);
        assert_eq!(out.shard_states.len(), 2, "memory model tracks survivors");
    }

    #[test]
    fn fleet_sessions_are_reusable_across_solves() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        let mut fleet = SliceFleet::loopback(2);
        let first = fleet.solve(&spec, &points()).unwrap();
        let second = fleet.solve(&spec, &points()).unwrap();
        assert_eq!(first.values, expected);
        assert_eq!(second.values, expected);
        assert_eq!(fleet.shards(), 2);
    }

    #[test]
    fn non_passage_specs_are_rejected() {
        let spec = TransformSpec::transient(
            ModelSpec::Voting {
                voters: 3,
                polling: 1,
                central: 1,
            },
            TargetSpec::parse("p2>=2").unwrap(),
        );
        let mut fleet = SliceFleet::loopback(2);
        match fleet.solve(&spec, &points()) {
            Err(PipelineError::Transport { message }) => {
                assert!(message.contains("passage"), "{message}");
            }
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_cadence_never_perturbs_values_and_cleans_up_its_sidecar() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("smp-shard-resume-{}.shard", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // TermReq sweeps are pure reads: any cadence yields the same bits.
        for every in [1u64, 2, 5] {
            let mut fleet = SliceFleet::loopback(3);
            let mut recovery = SolveRecovery {
                snapshot_path: Some(path.clone()),
                ..recovery(every)
            };
            let out = fleet
                .solve_recoverable(&spec, &points(), &mut recovery)
                .unwrap();
            assert_eq!(out.values, expected, "cadence {every}");
            // Clean completion removes the sidecar.
            assert!(ShardSnapshot::load(&path).unwrap().is_none());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeded_mid_point_resume_matches_bitwise_on_a_different_shard_count() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("smp-shard-seed-{}.shard", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mid: Option<ShardSnapshot>;
        {
            // Kill the run after the second point: the sidecar then holds a
            // snapshot of point 2 (if its iteration crossed the cadence).
            let mut fleet = SliceFleet::loopback(3);
            let mut seen = 0usize;
            let mut on_value = |_s: Complex64, _v: Complex64| -> io::Result<()> {
                seen += 1;
                if seen == 3 {
                    return Err(io::Error::other("simulated master kill"));
                }
                Ok(())
            };
            let mut recovery = SolveRecovery {
                snapshot_path: Some(path.clone()),
                on_value: Some(&mut on_value),
                ..recovery(2)
            };
            let err = fleet
                .solve_recoverable(&spec, &points(), &mut recovery)
                .unwrap_err();
            assert!(matches!(err, PipelineError::Io(_)), "{err:?}");
            mid = ShardSnapshot::load(&path).unwrap();
        }
        let seed = mid.expect("the killed run left a mid-point snapshot behind");
        assert!(seed.round > 0 && !seed.entries.is_empty());
        // Resume on a *different* shard count, seeding the snapshot — the
        // values must be bitwise identical and the resume must skip rounds.
        let mut fleet = SliceFleet::loopback(2);
        let mut recovery = SolveRecovery {
            snapshot_path: Some(path.clone()),
            seed: Some(seed.clone()),
            ..recovery(2)
        };
        let out = fleet
            .solve_recoverable(&spec, &points(), &mut recovery)
            .unwrap();
        assert_eq!(out.values, expected, "resume must not change any value");
        assert_eq!(out.resumed_rounds, seed.round, "the resume skipped rounds");
        assert!(out.recovered_faults > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn underflow_points_run_on_the_shards_and_resume_bitwise() {
        assert_underflow_points_run_on_the_shards(&mut SliceFleet::loopback(3));

        // A snapshot resume (`Frame::Restore`) *at* an underflow point: kill
        // the run as the second underflow point completes, then seed its
        // last snapshot into a fresh fleet.
        let (spec, points) = underflow_spec_and_points();
        let expected = reference(&spec, &points);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("smp-shard-underflow-{}.shard", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut seen = 0usize;
        let mut on_value = |_s: Complex64, _v: Complex64| -> io::Result<()> {
            seen += 1;
            match seen {
                2 => Err(io::Error::other("simulated master kill")),
                _ => Ok(()),
            }
        };
        let mut killed = SolveRecovery {
            snapshot_path: Some(path.clone()),
            on_value: Some(&mut on_value),
            ..recovery(1)
        };
        SliceFleet::loopback(3)
            .solve_recoverable(&spec, &points, &mut killed)
            .unwrap_err();
        let seed = ShardSnapshot::load(&path).unwrap().expect("a snapshot");
        assert_eq!(bits(&[seed.s]), bits(&points[1..2]), "taken at point 1");
        let mut resumed = SolveRecovery {
            seed: Some(seed.clone()),
            ..recovery(0)
        };
        let out = SliceFleet::loopback(2)
            .solve_recoverable(&spec, &points, &mut resumed)
            .unwrap();
        assert_eq!(bits(&out.values), bits(&expected));
        assert_eq!(out.resumed_rounds, seed.round, "point 1 resumed mid-way");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lost_worker_resumes_from_the_in_memory_snapshot() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        // The failing worker dies well into the solve; with a snapshot
        // cadence the redone point resumes mid-iteration instead of cold.
        let mut fleet = fleet_losing_worker_one_at(10);
        let mut recovery = recovery(2);
        let out = fleet
            .solve_recoverable(&spec, &points(), &mut recovery)
            .unwrap();
        assert_eq!(out.values, expected);
        assert_eq!(out.disconnects, 1);
        assert!(out.recovered_faults >= 1);
        assert_eq!(fleet.shards(), 2);
    }

    #[test]
    fn faulty_channels_recover_to_bitwise_identical_values() {
        let spec = voting_spec();
        let expected = reference(&spec, &points());
        let schedules: Vec<FaultPlan> = vec![
            FaultPlan::scripted([(11, FaultKind::DropFrame)]),
            FaultPlan::scripted([(7, FaultKind::CorruptByte { xor: 0x40 })]),
            FaultPlan::scripted([(19, FaultKind::Disconnect)]),
            FaultPlan::scripted([
                (5, FaultKind::CorruptByte { xor: 0x01 }),
                (23, FaultKind::DropFrame),
            ]),
            // A background schedule needs a budget under the shard count to
            // be survivable: each fault can cost the fleet one worker.
            FaultPlan::seeded(0xfeed_beef, 37).with_budget(3),
        ];
        for plan in schedules {
            let shared = Arc::new(Mutex::new(plan));
            let mut fleet = faulty_fleet(4, &shared, |_| true);
            let mut recovery = recovery(2);
            let out = fleet
                .solve_recoverable(&spec, &points(), &mut recovery)
                .unwrap();
            let injected = shared.lock().unwrap().injected();
            assert_eq!(
                out.values, expected,
                "values must be bitwise identical under {injected} injected fault(s)"
            );
            if injected > 0 {
                assert!(out.disconnects > 0, "faults must flow through recovery");
            }
        }
    }

    #[test]
    fn sharded_transport_answers_every_item_with_its_own_message() {
        let passage = voting_spec();
        let TransformSpec::Passage { model, targets } = &passage else {
            unreachable!()
        };
        let transient = TransformSpec::transient(model.clone(), targets.clone());
        let specs = [&passage, &transient];
        // Measure 0 rides the slice fleet, measure 1 the master-side fallback.
        let items: Vec<WorkItem> = points()
            .into_iter()
            .flat_map(|s| [0, 1].map(|measure| (measure, s)))
            .enumerate()
            .map(|(index, (measure, s))| WorkItem { measure, index, s })
            .collect();
        let plan = || ExecutionPlan {
            specs: specs.to_vec(),
            items: items.clone(),
            chunk_size: 64,
            method: "euler".to_string(),
        };
        let slices = TcpTransport::from_links(loopback_slices(2));
        let transport = ShardedTransport::new(slices, Arc::new(ModelCache::new(1)), None);
        assert_eq!(transport.name(), "sharded-loopback");
        // The slices stay seated, and the fallback's model stays in the
        // transport's cache: a second execute reuses both.
        for round in 0..2 {
            let mut answered = Vec::new();
            let report = transport
                .execute(plan(), &mut |message| {
                    assert_eq!(message.results.len(), 1, "one point per message");
                    answered.extend(message.results);
                })
                .unwrap();
            assert_eq!(answered.len(), items.len());
            for outcome in answered {
                let expected = reference(specs[outcome.item.measure], &[outcome.item.s]);
                assert_eq!(outcome.outcome.unwrap(), expected[0]);
            }
            assert_eq!(report.shards, 2);
            assert_eq!(
                report.shard_states.iter().sum::<usize>(),
                report.states.unwrap()
            );
            assert!(report.exchange_rounds > 0 && report.halo_bytes > 0);
            assert_eq!(report.model_cache_misses, usize::from(round == 0));
        }
    }

    #[test]
    fn worker_session_reports_its_slice_meta() {
        let spec_line = voting_spec().encode();
        let session = SliceWorkerSession::new(&spec_line, 2, 0).unwrap();
        let Frame::SliceMeta { states, nnz, .. } = session.meta() else {
            panic!("meta must be a SliceMeta frame");
        };
        assert!(states > 0 && nnz > 0);
        // Out-of-range shard assignments fail loudly.
        assert!(SliceWorkerSession::new(&spec_line, 2, 5).is_err());
        assert!(SliceWorkerSession::new("garbage", 2, 0).is_err());
    }

    /// A route is outside input: rows another shard owns, or out of order,
    /// are refused when the route arrives — not a panic at the next export.
    #[test]
    fn worker_session_refuses_a_route_outside_its_rows() {
        let spec_line = voting_spec().encode();
        let mut session = SliceWorkerSession::new(&spec_line, 2, 1).unwrap();
        let lo = session.ws.skeleton().bounds().0 as u32;
        let point = Frame::SPoint {
            id: 1,
            s: Complex64::new(0.5, 1.0),
        };
        for rows in [vec![0], vec![lo + 1, lo], vec![lo, lo], vec![u32::MAX]] {
            assert!(session.handle(&Frame::SliceRoute { rows }).is_err());
            // The refused route was not installed.
            assert!(matches!(
                session.handle(&point),
                Ok(Some(Frame::SState { .. }))
            ));
        }
        let rows = vec![lo, lo + 1];
        assert_eq!(session.handle(&Frame::SliceRoute { rows }), Ok(None));
        assert!(matches!(
            session.handle(&point),
            Ok(Some(Frame::SState { .. }))
        ));
    }
}
