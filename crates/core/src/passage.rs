//! The iterative passage-time algorithm (Section 3 of the paper).
//!
//! For a target set `j`, the `r`-transition passage-time transform is
//!
//! ```text
//!   L̃^{(r)}_j(s) = U (I + U' + U'² + … + U'^{(r−1)}) ẽ           (Eq. 9)
//! ```
//!
//! where `U` has entries `u_pq = r*_pq(s)`, `U'` is `U` with the rows of target
//! states zeroed (targets made absorbing), and `ẽ_k = 1` iff `k ∈ j`.  With multiple
//! source states weighted by `α` (Eq. 5) this becomes
//!
//! ```text
//!   L^{(r)}_{i→j}(s) = (αU + αUU' + … + αUU'^{(r−1)}) ẽ          (Eq. 10)
//! ```
//!
//! which is evaluated with a row-vector accumulator: the accumulator is initialised
//! to `αU`, post-multiplied by `U'` at every step, and each term's inner product with
//! `ẽ` is added to the running result.  Convergence is declared when both the real
//! and the imaginary part of the increment fall below `ε` (Eq. 11).  The worst-case
//! cost is `O(N²r)` — compare the `O(N³)` of the dense solver in
//! [`dense_reference_solve`], which this module also provides as the validation
//! baseline.
//!
//! ## One iteration, one oracle
//!
//! Every entry point iterates through the fixed-structure workspace kernel
//! ([`crate::workspace`]); the build-per-point solver is not in the library
//! at all — it is test support of `tests/workspace_equivalence.rs`, the
//! reference the equivalence suites compare against.  The two
//! differ structurally only where a kernel entry evaluates to exact zero (an
//! LST underflowing at `Re(s)·delay ≳ 745`): the oracle drops the entry, the
//! kernel keeps a slot holding `±0`.  That slot is bitwise-neutral — every
//! accumulator starts at `+0`, `z + (±0) = z` and `(+0) + (±0) = +0` under
//! round-to-nearest, and iterates are finite wherever a zero slot can exist
//! (`|p_ij·h*_ij(s)| ≤ p_ij` on `Re(s) ≥ 0`; underflow needs `Re(s) > 0`) —
//! so values and iteration counts agree bit for bit with no per-point
//! verdict or fallback.  Only a non-finite iterate (outside that half-plane)
//! can tell the two apart, and then both report `ConvergenceFailure`: the
//! kernel on the round its total goes non-finite ([`FoldStatus::Diverged`]),
//! the oracle at its iteration cap.  The convergence policy itself lives in
//! [`ConvergenceFold`], shared with the row-sharded drivers.

use crate::error::SmpError;
use crate::smp::{SemiMarkovProcess, StateSet};
use crate::workspace::{
    lane, lanes_for, HotPathStats, LaneKernel, LaneSets, LaneWidth, Lanes, PassageSkeleton,
    PassageWorkspace, WorkspacePool, BLOCK_LANES, NARROW_LANES,
};
use smp_distributions::LaplaceTransform;
use smp_numeric::Complex64;
use std::sync::Arc;

/// Convergence controls for the iterative sum (Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationOptions {
    /// Tolerance `ε` applied separately to the real and imaginary parts of the
    /// increment.
    pub epsilon: f64,
    /// Hard cap on the number of transitions `r` considered.
    pub max_iterations: usize,
    /// Number of consecutive sub-tolerance increments required before the sum is
    /// declared converged.  A value above 1 guards against passages whose shortest
    /// path to the target set is longer than the first quiet stretch of increments.
    pub consecutive: usize,
}

impl Default for IterationOptions {
    fn default() -> Self {
        IterationOptions {
            epsilon: smp_numeric::DEFAULT_EPSILON,
            max_iterations: 1_000_000,
            consecutive: 3,
        }
    }
}

/// What [`ConvergenceFold::push`] decided about the iteration so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FoldStatus {
    /// Keep iterating.
    Continue,
    /// Converged: the final transform value.
    Converged(Complex64),
    /// The total went non-finite (a round through an LST pole): it stays so
    /// and never converges, so the point has failed on this round.
    Diverged,
}

/// The convergence policy of the scalar iteration (Eq. 11), in one place: the
/// running total, the per-round delta magnitude and the consecutive-quiet
/// streak.  [`PassageTimeSolver::transform_at_with`] drives it directly; the
/// row-sharded drivers (`crate::shard` in process, the slice fleet of
/// `smp-pipeline` over the wire) feed it per-round deltas folded in shard
/// order and the AND of the shards' quiet verdicts — the same accumulation
/// sequence, so the same bits.
#[derive(Debug, Clone)]
pub struct ConvergenceFold {
    options: IterationOptions,
    total: Complex64,
    quiet: usize,
    last_delta: f64,
}

impl ConvergenceFold {
    /// Starts a fold with the round-0 total (the `α·U · ẽ` inner product).
    pub fn new(options: IterationOptions, initial: Complex64) -> ConvergenceFold {
        ConvergenceFold {
            options,
            total: initial,
            quiet: 0,
            last_delta: f64::INFINITY,
        }
    }

    /// Folds one round's delta (the term's `· ẽ` inner product after the
    /// step).  A round is quiet when the delta is below `ε` *and* the whole
    /// term vector has gone quiet: a passage whose shortest route to the
    /// target is long produces exact zero increments for the first few
    /// transitions even though mass is still in flight.  `term_quiet` is
    /// asked only on rounds whose delta already went quiet, so the unsharded
    /// solver's `O(N)` scan stays off the common path.
    pub fn push(&mut self, delta: Complex64, term_quiet: impl FnOnce() -> bool) -> FoldStatus {
        self.total += delta;
        self.last_delta = delta.re.abs().max(delta.im.abs());
        if !self.total.is_finite() {
            return FoldStatus::Diverged;
        }
        if self.last_delta < self.options.epsilon && term_quiet() {
            self.quiet += 1;
            if self.quiet >= self.options.consecutive {
                return FoldStatus::Converged(self.total);
            }
        } else {
            self.quiet = 0;
        }
        FoldStatus::Continue
    }

    /// Magnitude of the most recent delta (for the convergence-failure
    /// report).
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// The failure of a point at `s` retired after `iterations` rounds —
    /// the round its total diverged, or the whole budget.
    pub fn failure(&self, s: Complex64, iterations: usize) -> SmpError {
        SmpError::ConvergenceFailure {
            s: (s.re, s.im),
            iterations,
            last_delta: self.last_delta,
        }
    }

    /// Resumes a fold from checkpointed state: the running total, the quiet
    /// streak and the last delta magnitude exactly as a prior fold left them
    /// after its round-`r` [`ConvergenceFold::push`].  Continuing with round
    /// `r + 1` pushes then replays the original accumulation sequence bit
    /// for bit — `total` is the only accumulated quantity, and it crossed
    /// the checkpoint as an exact bit pattern.
    pub fn resume(
        options: IterationOptions,
        total: Complex64,
        quiet: usize,
        last_delta: f64,
    ) -> ConvergenceFold {
        ConvergenceFold {
            options,
            total,
            quiet,
            last_delta,
        }
    }

    /// The running total (checkpointed by the crash-recovery layer).
    pub fn total(&self) -> Complex64 {
        self.total
    }

    /// The current consecutive-quiet streak (checkpointed alongside the
    /// total).
    pub fn quiet_rounds(&self) -> usize {
        self.quiet
    }
}

/// The result of evaluating the passage-time transform at one `s`-point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassagePoint {
    /// The converged transform value `L_{i→j}(s)` (`T*_{i→j}(s)` for a
    /// transient solver).
    pub value: Complex64,
    /// The number of transitions `r` at which the sum converged.
    pub iterations: usize,
}

/// Evaluates passage-time transforms for one (source set, target set) pair of a
/// semi-Markov process — or, built by [`PassageTimeSolver::transient`], the
/// transient transforms of the same pair: one kernel and one convergence
/// driver for both measures, told apart only by the skeleton.
///
/// Construction runs the one-time *symbolic* phase: the CSR skeleton of `U`
/// and its per-nonzero fill plan (see [`crate::workspace`]), the list of
/// non-zero α-weights, and the target-index list of the `· ẽ` inner
/// products.  Each [`PassageTimeSolver::transform_at`] call then performs
/// only the *numeric* phase — evaluate each pooled LST once, refill a
/// reusable values buffer, iterate — through a checked-out
/// [`PassageWorkspace`], so a batch of `s`-points allocates nothing after the
/// first.  Results are bitwise identical to the build-per-point reference
/// oracle of `tests/workspace_equivalence.rs` at every point, exact-zero
/// kernel entries included (see [`crate::workspace`]).
#[derive(Debug, Clone)]
pub struct PassageTimeSolver<'a> {
    smp: &'a SemiMarkovProcess,
    sources: StateSet,
    targets: StateSet,
    options: IterationOptions,
    /// The non-zero entries of `α`, where each point's iteration starts.
    starts: Vec<(usize, f64)>,
    /// Shared symbolic skeleton + reusable numeric workspaces.
    pool: Arc<WorkspacePool>,
}

impl<'a> PassageTimeSolver<'a> {
    /// Creates a solver for the passage from `sources` into `targets`.
    ///
    /// With a single source state no steady-state solve is needed (`α` is a unit
    /// vector); with several sources the embedded DTMC is solved to obtain the
    /// α-weights of Eq. (5).
    pub fn new(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
    ) -> Result<Self, SmpError> {
        Self::with_options(smp, sources, targets, IterationOptions::default())
    }

    /// Creates a solver with explicit convergence options.
    pub fn with_options(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
        options: IterationOptions,
    ) -> Result<Self, SmpError> {
        Self::over(smp, sources, targets, options, PassageSkeleton::build)
    }

    /// Creates a solver of the transient measure `T*_{i→j}(s)`, the
    /// transform of the probability of being in `targets` at time `t` having
    /// started in `sources` (α-weighted as for a passage).  Its pool runs
    /// over the occupancy skeleton of `targets`, and every value it returns
    /// is the kernel's sum divided by `s` (see [`crate::transient`]).
    pub fn transient(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
        options: IterationOptions,
    ) -> Result<Self, SmpError> {
        Self::over(smp, sources, targets, options, PassageSkeleton::occupancy)
    }

    /// A solver whose pool runs over the `skeleton` of the target set.
    fn over(
        smp: &'a SemiMarkovProcess,
        sources: &[usize],
        targets: &[usize],
        options: IterationOptions,
        skeleton: fn(&SemiMarkovProcess, &StateSet) -> PassageSkeleton,
    ) -> Result<Self, SmpError> {
        let (sources, targets, alpha) = start_weights(smp, sources, targets)?;
        // The symbolic skeleton: the one-time phase of the symbolic/numeric split.
        let pool = Arc::new(WorkspacePool::over(skeleton(smp, &targets)));
        Ok(PassageTimeSolver {
            smp,
            sources,
            targets,
            options,
            starts: nonzero_weights(&alpha),
            pool,
        })
    }

    /// The source state set.
    pub fn sources(&self) -> &StateSet {
        &self.sources
    }

    /// The target state set.
    pub fn targets(&self) -> &StateSet {
        &self.targets
    }

    /// The α-weights in use (Eq. 5), as a vector over every state.
    pub fn alpha(&self) -> Vec<f64> {
        let mut alpha = vec![0.0; self.smp.num_states()];
        for &(state, weight) in &self.starts {
            alpha[state] = weight;
        }
        alpha
    }

    /// The convergence options in use.
    pub fn options(&self) -> &IterationOptions {
        &self.options
    }

    /// The underlying process.
    pub fn smp(&self) -> &SemiMarkovProcess {
        self.smp
    }

    /// The value this solver returns for the kernel's converged (or
    /// truncated) sum at `s`: the sum itself for a passage, the sum over `s`
    /// for an occupancy measure — the one final division of
    /// [`crate::transient`].
    fn measured(&self, s: Complex64, sum: Complex64) -> Complex64 {
        if self.pool.skeleton().sojourn_weighted() {
            sum / s
        } else {
            sum
        }
    }

    /// [`PassageTimeSolver::measured`] on an evaluated point.
    fn measured_point(
        &self,
        s: Complex64,
        point: Result<PassagePoint, SmpError>,
    ) -> Result<PassagePoint, SmpError> {
        point.map(|p| PassagePoint {
            value: self.measured(s, p.value),
            ..p
        })
    }

    /// A workspace built over another solver's skeleton would silently
    /// compute against the wrong target set; the pointer comparison is free
    /// next to a transform evaluation, so this guards release builds too.
    fn check_workspace(&self, ws: &PassageWorkspace) {
        assert!(
            Arc::ptr_eq(ws.skeleton_arc(), self.pool.skeleton()),
            "workspace belongs to a different solver (checkout_workspace \
             and transform_at_with must use the same solver)"
        );
    }

    /// Checks a reusable workspace out of this solver's pool.  Pair with
    /// [`PassageTimeSolver::give_back`] around a batch of
    /// [`PassageTimeSolver::transform_at_with`] calls to evaluate a whole
    /// chunk of `s`-points through one workspace explicitly (the convenience
    /// wrappers do this per call, which costs one pool lock round-trip).
    pub fn checkout_workspace(&self) -> PassageWorkspace {
        self.pool.checkout()
    }

    /// Returns a workspace to the pool, folding its counters into
    /// [`PassageTimeSolver::hotpath_stats`].
    pub fn give_back(&self, workspace: PassageWorkspace) {
        self.pool.give_back(workspace);
    }

    /// Runs `f` with a workspace checked out of this solver's pool and
    /// returns it afterwards — the scoped form of
    /// [`PassageTimeSolver::checkout_workspace`] /
    /// [`PassageTimeSolver::give_back`] that centralises the return-to-pool
    /// discipline (early `?` returns inside `f` still give the workspace
    /// back; a panic merely forfeits one pooled buffer).
    fn with_workspace<R>(&self, f: impl FnOnce(&mut PassageWorkspace) -> R) -> R {
        let mut ws = self.pool.checkout();
        let result = f(&mut ws);
        self.pool.give_back(ws);
        result
    }

    /// Aggregate symbolic/numeric-split counters for this solver (matrix
    /// rebuilds avoided, pooled LST evaluations) — surfaced through
    /// `Provenance` in engine reports.
    pub fn hotpath_stats(&self) -> HotPathStats {
        self.pool.stats()
    }

    /// Evaluates the α-weighted passage-time transform `L_{i→j}(s)` (or, for
    /// a [`PassageTimeSolver::transient`] solver, `T*_{i→j}(s)`) at one
    /// complex point by the iterative algorithm of Eq. (10).
    pub fn transform_at(&self, s: Complex64) -> Result<PassagePoint, SmpError> {
        self.with_workspace(|ws| self.transform_at_with(ws, s))
    }

    /// [`PassageTimeSolver::transform_at`] through an explicit, reusable
    /// workspace: the numeric phase refills the workspace's value table in
    /// place (one pooled LST evaluation per distinct distribution) and runs
    /// the iteration in its scratch buffers — no matrix construction, no
    /// sort, no allocation.
    pub fn transform_at_with(
        &self,
        ws: &mut PassageWorkspace,
        s: Complex64,
    ) -> Result<PassagePoint, SmpError> {
        self.check_workspace(ws);
        self.measured_point(s, solve_point(self.smp, ws, &self.starts, self.options, s))
    }

    /// Evaluates the transform at every point of a chunk, one result per
    /// point in order — each bit for bit (value and iteration count) what
    /// [`PassageTimeSolver::transform_at`] returns for that point alone, so a
    /// point that fails to converge fails alone.
    pub fn transform_many(&self, points: &[Complex64]) -> Vec<Result<PassagePoint, SmpError>> {
        self.with_workspace(|ws| solve_chunk(self.smp, ws, &self.starts, self.options, points))
            .into_iter()
            .zip(points)
            .map(|(point, &s)| self.measured_point(s, point))
            .collect()
    }

    /// Evaluates the truncated `r`-transition transform `L^{(r)}_{i→j}(s)` exactly —
    /// no convergence test, precisely `r` terms of the sum (divided by `s` for
    /// a transient solver).  Used to study the convergence behaviour of the
    /// iteration (the paper's stated future work).
    pub fn r_transition_transform(&self, s: Complex64, r: usize) -> Complex64 {
        if r == 0 {
            return Complex64::ZERO;
        }
        let sum = self.with_workspace(|ws| {
            ws.refill(self.smp, s);
            let mut kernel = ws.kernel::<1>();
            let [mut total] = kernel.begin(&self.starts);
            for _ in 1..r {
                kernel.step();
                let [delta] = kernel.read_out();
                total += delta;
            }
            total
        });
        self.measured(s, sum)
    }
}

/// Validates a measure's source and target sets and derives its start
/// weights: a unit vector for a single source state, the α-weights of Eq. (5)
/// for several.
fn start_weights(
    smp: &SemiMarkovProcess,
    sources: &[usize],
    targets: &[usize],
) -> Result<(StateSet, StateSet, Vec<f64>), SmpError> {
    let n = smp.num_states();
    let sources = StateSet::new(n, sources)?;
    let targets = StateSet::new(n, targets)?;
    if sources.is_empty() {
        return Err(SmpError::EmptyStateSet { which: "source" });
    }
    if targets.is_empty() {
        return Err(SmpError::EmptyStateSet { which: "target" });
    }
    let alpha = if sources.len() == 1 {
        let mut a = vec![0.0; n];
        a[sources.indices()[0]] = 1.0;
        a
    } else {
        // Memoized per process: a batch of solvers over one model runs
        // the embedded steady-state solve exactly once.
        smp.embedded_chain()?.alpha_weights(&sources)?
    };
    Ok((sources, targets, alpha))
}

/// The non-zero entries of a start-weight vector, `(state, weight)` by
/// ascending state: what [`LaneKernel::begin`] starts a point from.
fn nonzero_weights(alpha: &[f64]) -> Vec<(usize, f64)> {
    alpha
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a != 0.0)
        .map(|(r, &a)| (r, a))
        .collect()
}

/// Evaluates one point through the single-lane kernel of `ws`.
fn solve_point(
    smp: &SemiMarkovProcess,
    ws: &mut PassageWorkspace,
    alpha: &[(usize, f64)],
    options: IterationOptions,
    s: Complex64,
) -> Result<PassagePoint, SmpError> {
    ws.refill(smp, s);
    let [point] = iterate(ws.kernel::<1>(), alpha, options, &[s]);
    point.expect("the one lane is live")
}

/// Evaluates a chunk of points through `ws`, one result per point in order.
///
/// The chunk is cut into blocks of the model's lane width
/// ([`lanes_for`] its state count), each advancing its points as lockstep
/// lanes over one shared pass of the index arrays.  A padding lane costs a
/// full lane, so what is left at the end takes the narrowest kernel that
/// holds it: five to seven points one padded eight-lane block, two to four a
/// four-lane block, one point the single-lane instance of the same code.
fn solve_chunk(
    smp: &SemiMarkovProcess,
    ws: &mut PassageWorkspace,
    alpha: &[(usize, f64)],
    options: IterationOptions,
    points: &[Complex64],
) -> Vec<Result<PassagePoint, SmpError>> {
    let width = lanes_for(ws.skeleton().num_states());
    let mut results = Vec::with_capacity(points.len());
    for block in points.chunks(width) {
        match block.len() {
            1 => results.push(solve_point(smp, ws, alpha, options, block[0])),
            2..=NARROW_LANES => {
                results.extend(solve_block::<NARROW_LANES>(smp, ws, alpha, options, block));
            }
            _ => results.extend(solve_block::<BLOCK_LANES>(smp, ws, alpha, options, block)),
        }
    }
    results
}

/// Evaluates up to `K` points as one block of the `K`-lane kernel.
fn solve_block<const K: usize>(
    smp: &SemiMarkovProcess,
    ws: &mut PassageWorkspace,
    alpha: &[(usize, f64)],
    options: IterationOptions,
    block: &[Complex64],
) -> impl Iterator<Item = Result<PassagePoint, SmpError>>
where
    LaneSets: LaneWidth<K>,
{
    ws.refill_block::<K>(smp, block);
    iterate(ws.kernel::<K>(), alpha, options, block)
        .into_iter()
        .flatten()
}

/// The convergence driver of both measures, generic in the lane count: lane
/// `l` of the (already refilled) kernel evaluates `points[l]` with its own
/// [`ConvergenceFold`] and lazy quiet test, exactly as if it ran alone.  What
/// a round reads off the term vector — a passage's `· ẽ`, an occupancy
/// measure's sojourn-weighted sum — is the kernel skeleton's to say
/// (`LaneKernel::read_out`).  A converged lane keeps stepping with the
/// others and is no longer read; lanes past `points.len()` are padding and
/// yield `None`.
fn iterate<const K: usize>(
    mut kernel: LaneKernel<'_, K>,
    alpha: &[(usize, f64)],
    options: IterationOptions,
    points: &[Complex64],
) -> [Option<Result<PassagePoint, SmpError>>; K] {
    // Accumulator initialised to αU (the leading U term of Eq. 9/10 ensures
    // cycle times L_ii register correctly instead of collapsing to zero).
    let initial = kernel.begin(alpha);
    let mut folds: [Option<ConvergenceFold>; K] = std::array::from_fn(|l| {
        (l < points.len()).then(|| ConvergenceFold::new(options, initial[l]))
    });
    let mut results = std::array::from_fn(|_| None);
    // Per lane, the row its last quiet test found loud: where the next one
    // starts looking.
    let mut loud_rows = [0usize; K];
    for r in 1..=options.max_iterations {
        kernel.step();
        let delta = kernel.read_out();
        for (l, slot) in folds.iter_mut().enumerate() {
            let Some(fold) = slot else { continue };
            // `loud_row` reaches the same decision as the oracle's full
            // `max(norm)` fold, lazily.
            let quiet = || match loud_row(kernel.term(), l, loud_rows[l], options.epsilon) {
                Some(row) => {
                    loud_rows[l] = row;
                    false
                }
                None => true,
            };
            results[l] = match fold.push(delta[l], quiet) {
                FoldStatus::Continue => continue,
                FoldStatus::Converged(value) => Some(Ok(PassagePoint {
                    value,
                    iterations: r,
                })),
                FoldStatus::Diverged => Some(Err(fold.failure(points[l], r))),
            };
            *slot = None;
        }
        if folds.iter().all(Option::is_none) {
            break;
        }
    }
    for ((fold, result), &s) in folds.iter().zip(&mut results).zip(points) {
        if let Some(fold) = fold {
            *result = Some(Err(fold.failure(s, options.max_iterations)));
        }
    }
    results
}

/// Exactly the legacy quiet test `max_i |term_i| < ε` (the fold of `hypot`
/// norms compared against ε), decided lazily: `hypot(a, b) ≥ max(|a|, |b|)`
/// holds in floating point, so any component at or above ε settles the answer
/// without computing the norm — and this runs at all only on iterations whose
/// increment already went quiet ([`ConvergenceFold::push`] asks lazily),
/// instead of `N` square roots on *every* transition.
///
/// NaN components mirror the legacy `f64::max` fold, which ignores NaN: a NaN
/// norm contributes nothing, while an infinite component (whose norm is +∞
/// even when the other component is NaN) is loud.
///
/// The test is per-element and order-independent, so the row-sharded solver
/// (`crate::shard`) applies it to each shard's slice of the term vector and
/// ANDs the verdicts — exactly the whole-vector answer.
pub(crate) fn term_is_quiet(term: impl IntoIterator<Item = Complex64>, epsilon: f64) -> bool {
    can_be_quiet(epsilon) && !term.into_iter().any(|c| is_loud(c, epsilon))
}

/// The legacy fold starts at 0.0, so its mass is never below a non-positive
/// (or NaN) ε.
fn can_be_quiet(epsilon: f64) -> bool {
    epsilon.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater)
}

/// One element's share of [`term_is_quiet`]: whether its norm reaches a
/// positive `epsilon`.
#[inline]
fn is_loud(c: Complex64, epsilon: f64) -> bool {
    let a = c.re.abs();
    let b = c.im.abs();
    // Provably quiet without the hypot: both components below ε/2 bound the
    // true norm by √2·ε/2 ≈ 0.707·ε, and correct rounding cannot carry that
    // across ε.  Near convergence this covers almost every element.
    let half = epsilon * 0.5;
    if a < half && b < half {
        return false;
    }
    if a.is_nan() || b.is_nan() {
        return a == f64::INFINITY || b == f64::INFINITY;
    }
    a >= epsilon || b >= epsilon || a.hypot(b) >= epsilon
}

/// [`term_is_quiet`] on lane `l` of the kernel's term vector, as a search for
/// a loud row that starts at row `from` and wraps round: `None` is "quiet".
/// The test is order-independent, so where the scan starts changes no
/// verdict — but a lane that was loud at some row a round ago is loud at or
/// just past it now (the mass still in flight moves as a front), so starting
/// at the row the last scan returned meets a loud row in a few reads where a
/// scan from row 0 crosses every state the front has left behind.
fn loud_row<const K: usize>(
    term: &[Lanes<K>],
    l: usize,
    from: usize,
    epsilon: f64,
) -> Option<usize> {
    if !can_be_quiet(epsilon) {
        return Some(from);
    }
    let loud = |x: &Lanes<K>| is_loud(lane(x, l), epsilon);
    let (before, onwards) = term.split_at(from);
    match onwards.iter().position(loud) {
        Some(offset) => Some(from + offset),
        None => before.iter().position(loud),
    }
}

impl LaplaceTransform for PassageTimeSolver<'_> {
    /// A passage-time (or transient) solver *is* a Laplace transform:
    /// evaluating it at `s` runs the iterative algorithm.  This lets the
    /// inversion and pipeline layers treat its transforms exactly like any
    /// closed-form distribution.
    ///
    /// # Panics
    /// Panics if the iteration fails to converge; use [`PassageTimeSolver::transform_at`]
    /// for explicit error handling.
    fn lst(&self, s: Complex64) -> Complex64 {
        self.transform_at(s)
            .unwrap_or_else(|e| panic!("transform iteration failed: {e}"))
            .value
    }
}

/// Solves Eq. (2) directly by dense complex Gaussian elimination with partial
/// pivoting — the `O(N³)` baseline against which the paper motivates the `O(N²r)`
/// iterative method.  Returns the full vector `(L_{1j}(s), …, L_{Nj}(s))`.
///
/// # Panics
/// Panics for models above 2 500 states (a dense complex matrix would need more
/// memory than the iterative method by orders of magnitude — which is the point).
pub fn dense_reference_solve(
    smp: &SemiMarkovProcess,
    targets: &StateSet,
    s: Complex64,
) -> Vec<Complex64> {
    let n = smp.num_states();
    assert!(
        n <= 2_500,
        "dense reference solver refuses models above 2500 states ({n} requested)"
    );
    let u = smp.build_u(s);
    // A = I − U·D (D zeroes the columns of target states);  b_i = Σ_{k∈j} u_ik.
    let mut a = vec![vec![Complex64::ZERO; n]; n];
    let mut b = vec![Complex64::ZERO; n];
    for i in 0..n {
        a[i][i] = Complex64::ONE;
        for (k, v) in u.row(i) {
            if targets.contains(k) {
                b[i] += v;
            } else {
                a[i][k] -= v;
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let (pivot_row, _) = (col..n)
            .map(|r| (r, a[r][col].norm()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .expect("non-empty pivot search");
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let pivot = a[col][col];
        assert!(
            pivot.norm() > 1e-300,
            "singular passage-time system at column {col}"
        );
        let (pivot_rows, lower_rows) = a.split_at_mut(col + 1);
        let pivot_cells = &pivot_rows[col][col..n];
        for (off, row_cells) in lower_rows.iter_mut().enumerate() {
            let factor = row_cells[col] / pivot;
            if factor.norm() == 0.0 {
                continue;
            }
            for (cell, &p) in row_cells[col..n].iter_mut().zip(pivot_cells) {
                let sub = factor * p;
                *cell -= sub;
            }
            let sub = factor * b[col];
            b[col + 1 + off] -= sub;
        }
    }
    // Back substitution.
    let mut x = vec![Complex64::ZERO; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use proptest::prelude::*;
    use smp_distributions::Dist;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).norm() < tol
    }

    fn test_points() -> Vec<Complex64> {
        vec![
            Complex64::new(0.5, 0.0),
            Complex64::new(1.0, 2.0),
            Complex64::new(0.2, -3.0),
            Complex64::new(3.0, 7.0),
        ]
    }

    #[test]
    fn single_hop_passage_is_the_holding_distribution() {
        // 0 --Exp(2)--> 1, 1 --Exp(5)--> 0 ; passage 0 -> 1 is just Exp(2).
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(2.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(5.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[1]).unwrap();
        for s in test_points() {
            let got = solver.transform_at(s).unwrap();
            assert!(close(got.value, Dist::exponential(2.0).lst(s), 1e-8));
            assert!(got.iterations < 100);
        }
    }

    #[test]
    fn series_passage_is_a_convolution() {
        // 0 -> 1 -> 2 -> (back to 0); passage 0 -> 2 is the convolution of the two
        // holding distributions on the way.
        let d01 = Dist::erlang(2.0, 2);
        let d12 = Dist::uniform(0.5, 1.5);
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, d01.clone());
        b.add_transition(1, 2, 1.0, d12.clone());
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        for s in test_points() {
            let expect = d01.lst(s) * d12.lst(s);
            let got = solver.transform_at(s).unwrap().value;
            assert!(close(got, expect, 1e-8), "at {s}: {got} vs {expect}");
        }
    }

    #[test]
    fn branching_passage_weights_by_probability() {
        // From 0, with prob 0.3 go to 1 (Exp(1)); with prob 0.7 go to 2 (Det(2)).
        // Passage 0 -> {1, 2} has transform 0.3·L_exp + 0.7·L_det.
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 0.3, Dist::exponential(1.0));
        b.add_transition(0, 2, 0.7, Dist::deterministic(2.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[1, 2]).unwrap();
        for s in test_points() {
            let expect = Dist::exponential(1.0).lst(s).scale(0.3)
                + Dist::deterministic(2.0).lst(s).scale(0.7);
            let got = solver.transform_at(s).unwrap().value;
            assert!(close(got, expect, 1e-8));
        }
    }

    #[test]
    fn cycle_time_uses_leading_u_term() {
        // 0 -> 1 -> 0 ; the cycle time L_00 is the convolution of both holding times.
        // Without the leading U term of Eq. (9) this would evaluate to zero.
        let d01 = Dist::exponential(1.0);
        let d10 = Dist::erlang(3.0, 2);
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, d01.clone());
        b.add_transition(1, 0, 1.0, d10.clone());
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[0]).unwrap();
        for s in test_points() {
            let expect = d01.lst(s) * d10.lst(s);
            let got = solver.transform_at(s).unwrap().value;
            assert!(close(got, expect, 1e-8), "at {s}: {got} vs {expect}");
        }
    }

    #[test]
    fn geometric_retry_passage() {
        // 0 retries itself with probability q and succeeds to 1 with probability p:
        // analytic transform L(s) = p·H(s) / (1 − q·H(s)).
        let p = 0.25;
        let q = 0.75;
        let h = Dist::exponential(2.0);
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 0, q, h.clone());
        b.add_transition(0, 1, p, h.clone());
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[1]).unwrap();
        for s in test_points() {
            let hs = h.lst(s);
            let expect = hs.scale(p) / (Complex64::ONE - hs.scale(q));
            let got = solver.transform_at(s).unwrap().value;
            assert!(close(got, expect, 1e-7), "at {s}: {got} vs {expect}");
        }
    }

    /// The scalar transform from source `i` is entry `i` of the dense
    /// solver's vector `(L_1j(s), …, L_Nj(s))`, at every probe point.
    fn assert_every_source_matches_dense(smp: &SemiMarkovProcess, targets: &[usize]) {
        let target_set = StateSet::new(smp.num_states(), targets).unwrap();
        for s in test_points() {
            let dense = dense_reference_solve(smp, &target_set, s);
            for (source, &expect) in dense.iter().enumerate() {
                let scalar = PassageTimeSolver::new(smp, &[source], targets)
                    .unwrap()
                    .transform_at(s)
                    .unwrap()
                    .value;
                assert!(
                    close(scalar, expect, 1e-7),
                    "source {source} at {s}: dense {expect} vs iter {scalar}"
                );
            }
        }
    }

    #[test]
    fn transform_vector_matches_scalar_per_source() {
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(0, 2, 2.0, Dist::erlang(2.0, 2));
        b.add_transition(1, 3, 1.0, Dist::uniform(0.0, 1.0));
        b.add_transition(2, 3, 1.0, Dist::deterministic(0.5));
        b.add_transition(3, 0, 1.0, Dist::exponential(3.0));
        assert_every_source_matches_dense(&b.build().unwrap(), &[3]);
    }

    #[test]
    fn iterative_matches_dense_reference() {
        let mut b = SmpBuilder::new(5);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(0, 2, 3.0, Dist::uniform(0.2, 0.7));
        b.add_transition(1, 2, 1.0, Dist::erlang(2.0, 3));
        b.add_transition(1, 3, 1.0, Dist::deterministic(1.0));
        b.add_transition(2, 4, 2.0, Dist::exponential(0.5));
        b.add_transition(2, 0, 1.0, Dist::exponential(2.0));
        b.add_transition(3, 4, 1.0, Dist::uniform(0.0, 0.5));
        b.add_transition(4, 0, 1.0, Dist::erlang(1.0, 2));
        assert_every_source_matches_dense(&b.build().unwrap(), &[4]);
    }

    #[test]
    fn multiple_sources_alpha_weighting() {
        // Symmetric ring: sources {0, 1} have equal alpha; passage to state 2.
        let mut b = SmpBuilder::new(3);
        for i in 0..3 {
            b.add_transition(i, (i + 1) % 3, 1.0, Dist::exponential(1.0));
        }
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0, 1], &[2]).unwrap();
        assert!((solver.alpha()[0] - 0.5).abs() < 1e-9);
        assert!((solver.alpha()[1] - 0.5).abs() < 1e-9);
        let s = Complex64::new(1.0, 0.5);
        let exp = Dist::exponential(1.0).lst(s);
        // From 1: one hop (Exp); from 0: two hops (Exp²); weighted 50/50.
        let expect = (exp + exp * exp).scale(0.5);
        let got = solver.transform_at(s).unwrap().value;
        assert!(close(got, expect, 1e-8));
    }

    #[test]
    fn unreachable_target_gives_zero_transform() {
        // Two disjoint cycles {0,1} and {2,3}; target 2 unreachable from source 0.
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 3, 1.0, Dist::exponential(1.0));
        b.add_transition(3, 2, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        let s = Complex64::new(0.5, 1.0);
        let got = solver.transform_at(s).unwrap();
        assert!(got.value.norm() < 1e-9);
    }

    #[test]
    fn passage_transform_at_small_s_approaches_one() {
        // For an irreducible SMP the passage completes with probability 1, so
        // L(s) -> 1 as s -> 0+.
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::uniform(0.1, 0.3));
        b.add_transition(1, 2, 2.0, Dist::exponential(4.0));
        b.add_transition(1, 0, 1.0, Dist::erlang(5.0, 2));
        b.add_transition(2, 0, 1.0, Dist::deterministic(0.2));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        let got = solver.transform_at(Complex64::real(1e-6)).unwrap().value;
        assert!((got - Complex64::ONE).norm() < 1e-3, "L(0+) = {got}");
    }

    #[test]
    fn r_transition_transform_increases_towards_limit() {
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(2.0));
        b.add_transition(1, 2, 1.0, Dist::exponential(2.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(3.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        let s = Complex64::real(0.3);
        let full = solver.transform_at(s).unwrap().value;
        let mut last_err = f64::INFINITY;
        for r in [1usize, 2, 4, 8, 16, 32, 64] {
            let partial = solver.r_transition_transform(s, r);
            let err = (partial - full).norm();
            assert!(err <= last_err + 1e-12, "error should not increase with r");
            last_err = err;
        }
        assert!(last_err < 1e-6);
        assert_eq!(solver.r_transition_transform(s, 0), Complex64::ZERO);
    }

    #[test]
    fn convergence_failure_reported() {
        // An unreachable target probed at s = 0: the probability mass cycles forever
        // in the source component without decaying (|U'| entries have magnitude 1)
        // and never reaches the target, so the iteration must report a
        // ConvergenceFailure rather than silently returning a wrong answer.
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 3, 1.0, Dist::exponential(1.0));
        b.add_transition(3, 2, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::with_options(
            &smp,
            &[0],
            &[2],
            IterationOptions {
                epsilon: 1e-12,
                max_iterations: 200,
                consecutive: 2,
            },
        )
        .unwrap();
        let err = solver.transform_at(Complex64::ZERO).unwrap_err();
        assert!(matches!(err, SmpError::ConvergenceFailure { .. }));
        // The same probe at Re(s) > 0 converges (the cycling mass decays) to zero.
        let ok = solver.transform_at(Complex64::real(0.5)).unwrap();
        assert!(ok.value.norm() < 1e-9);
    }

    #[test]
    fn a_point_on_an_lst_pole_fails_instead_of_converging_to_nan() {
        // At s = −2, on the pole of the first hop's exp(2) transform, one
        // round carries NaN into the target: the total goes non-finite, the
        // fold reports it diverged, and the point fails on that round
        // instead of running out the default budget of 10⁶ rounds.
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::exponential(2.0));
        b.add_transition(1, 2, 1.0, Dist::exponential(1.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(3.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        let err = solver.transform_at(Complex64::real(-2.0)).unwrap_err();
        assert!(
            matches!(err, SmpError::ConvergenceFailure { iterations: 1, .. }),
            "{err}"
        );
        let options = IterationOptions::default();
        let mut fold = ConvergenceFold::new(options, Complex64::ZERO);
        assert_eq!(fold.push(Complex64::ONE, || true), FoldStatus::Continue);
        assert_eq!(
            fold.push(Complex64::new(f64::NAN, 0.0), || true),
            FoldStatus::Diverged
        );
        let mut fold = ConvergenceFold::new(options, Complex64::ZERO);
        assert_eq!(
            fold.push(Complex64::new(0.0, f64::INFINITY), || true),
            FoldStatus::Diverged
        );
    }

    #[test]
    fn empty_sets_rejected() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        assert!(matches!(
            PassageTimeSolver::new(&smp, &[], &[1]),
            Err(SmpError::EmptyStateSet { which: "source" })
        ));
        assert!(matches!(
            PassageTimeSolver::new(&smp, &[0], &[]),
            Err(SmpError::EmptyStateSet { which: "target" })
        ));
        assert!(matches!(
            PassageTimeSolver::new(&smp, &[0], &[9]),
            Err(SmpError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn laplace_transform_impl_delegates() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::erlang(1.0, 2));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let solver = PassageTimeSolver::new(&smp, &[0], &[1]).unwrap();
        let s = Complex64::new(0.4, 0.6);
        assert_eq!(
            LaplaceTransform::lst(&solver, s),
            solver.transform_at(s).unwrap().value
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// On random irreducible SMPs the iterative algorithm agrees with the dense
        /// O(N³) reference solver at every probed s-point.
        #[test]
        fn prop_iterative_matches_dense(seed in 0u64..300) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..10usize);
            let mut b = SmpBuilder::new(n);
            for i in 0..n {
                // ring edge for irreducibility plus random extra edges
                b.add_transition(i, (i + 1) % n, rng.gen_range(0.5..2.0), Dist::exponential(rng.gen_range(0.5..3.0)));
                for _ in 0..rng.gen_range(0..3usize) {
                    let to = rng.gen_range(0..n);
                    let dist = match rng.gen_range(0..4) {
                        0 => Dist::exponential(rng.gen_range(0.2..3.0)),
                        1 => Dist::erlang(rng.gen_range(0.5..2.0), rng.gen_range(1..4)),
                        2 => Dist::deterministic(rng.gen_range(0.1..2.0)),
                        _ => Dist::uniform(0.0, rng.gen_range(0.5..2.0)),
                    };
                    b.add_transition(i, to, rng.gen_range(0.1..1.5), dist);
                }
            }
            let smp = b.build().unwrap();
            let target = rng.gen_range(0..n);
            let targets = StateSet::new(n, &[target]).unwrap();
            let s = Complex64::new(rng.gen_range(0.05..2.0), rng.gen_range(-4.0..4.0));
            let dense = dense_reference_solve(&smp, &targets, s);
            for (source, &expect) in dense.iter().enumerate() {
                let solver = PassageTimeSolver::new(&smp, &[source], &[target]).unwrap();
                let scalar = solver.transform_at(s).unwrap().value;
                prop_assert!((scalar - expect).norm() < 1e-6, "source {source}: dense {expect} vs iterative {scalar}");
            }
        }

        /// |L(s)| ≤ 1 on the right half-plane (it is the transform of a distribution).
        #[test]
        fn prop_transform_is_bounded(seed in 0u64..100, re in 0.01f64..3.0, im in -6.0f64..6.0) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..8usize);
            let mut b = SmpBuilder::new(n);
            for i in 0..n {
                b.add_transition(i, (i + 1) % n, 1.0, Dist::erlang(rng.gen_range(0.5..2.0), rng.gen_range(1..3)));
                if rng.gen_bool(0.5) {
                    b.add_transition(i, rng.gen_range(0..n), rng.gen_range(0.2..1.0), Dist::uniform(0.0, rng.gen_range(0.5..2.0)));
                }
            }
            let smp = b.build().unwrap();
            let solver = PassageTimeSolver::new(&smp, &[0], &[n - 1]).unwrap();
            let value = solver.transform_at(Complex64::new(re, im)).unwrap().value;
            prop_assert!(value.norm() <= 1.0 + 1e-7, "|L| = {}", value.norm());
        }
    }
}
