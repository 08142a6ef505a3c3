//! Symbolic/numeric split for the per-`s`-point hot path.
//!
//! The paper's cost model (Section 4) is *number of transform evaluations ×
//! cost per evaluation*, yet the kernel matrix `U(s)` of Eq. (9) has a fixed
//! sparsity **structure** for a given model — only its numeric entries vary
//! with the transform variable `s`.  This module factors the per-point work
//! accordingly:
//!
//! * [`PassageSkeleton`] — the one-time *symbolic* phase per `(model, target
//!   set)` pair: the sorted CSR skeleton (`indptr` / `col_indices`) of `U`
//!   plus a per-nonzero fill plan of `(pool distribution id, probability)`
//!   contributions, and the target-set bookkeeping the iteration needs
//!   (membership mask, ascending index list).
//! * [`PassageWorkspace`] — the reusable *numeric* state: a CSR matrix whose
//!   values buffer is refilled in place per `s`-point (each pooled LST
//!   evaluated exactly once), and the iteration scratch vectors, so a batch
//!   of `s`-points allocates nothing after the first.
//! * [`WorkspacePool`] — a shared checkout pool so several worker threads can
//!   evaluate points of one measure concurrently, each amortising its own
//!   workspace, with aggregate [`HotPathStats`] for provenance reports.
//!
//! `U'` (targets made absorbing, Eq. 9) is never materialised: the masked
//! sparse kernels of `smp-sparse` (`vec_mul_into_masked` /
//! `mul_vec_into_masked`) apply the target-row mask on the fly, which is
//! bitwise identical to multiplying by `U.zero_rows(mask)`.
//!
//! ## Bitwise equivalence with the reference oracle
//!
//! [`PassageWorkspace::refill`] reproduces `SemiMarkovProcess::build_u`
//! exactly: the skeleton is built by running the *same* triplet compression
//! (`TripletMatrix::to_csr`) with each entry's identity as the payload, so
//! duplicate `(row, col)` contributions are summed in the same order the
//! build-per-point construction sums them (push order — the compression's
//! sorts are stable, so the order does not depend on which entries a point
//! drops), and every slot holds bit-for-bit the value that construction
//! would produce.  The one structural difference:
//! `build_u` drops entries whose value is *exactly* zero at a particular `s`
//! (an LST underflowing at extreme `Re(s)·delay`, e.g. `e^{-s·d}` past ~745,
//! or duplicate contributions cancelling), where the fixed skeleton keeps the
//! slot holding `±0`.
//!
//! Such a slot is **bitwise-neutral**, so the workspace kernel is the one
//! iteration the system ships and the build-per-point solver
//! (`PassageTimeSolver::transform_at_legacy`) survives only as the oracle the
//! equivalence suites compare against.  The argument: every accumulator of
//! every kernel — `scratch[c] += v·x_r` in the sparse and dense scatters,
//! `mul_vec_into_masked`'s row sums, the gather of `crate::shard` — starts
//! at `+0`, and IEEE-754 round-to-nearest gives `z + (±0) = z` and
//! `(+0) + (±0) = +0`; the duplicate merge in `refill` starts from its first
//! contribution, and `(±0) + v = v` puts it where the oracle's merge (zero
//! contributions skipped at push) starts.  A slot
//! holding `±0` multiplied by a *finite* iterate entry is `±0`, so it
//! contributes exactly what the structurally dropped entry contributes:
//! nothing.  A column reached only through zero slots merely joins the
//! active list one round early with value `+0` and is skipped by the
//! `x_r.is_zero()` test like any other zero row.
//!
//! The precondition is that iterates are finite wherever a zero slot can
//! exist, which holds on the half-plane the inversion samples:
//! `|p_ij·h*_ij(s)| ≤ p_ij` on `Re(s) ≥ 0`, and an LST underflows to zero
//! only at `Re(s) > 0`.  Off it (a non-finite iterate meeting a zero slot
//! yields NaN where the oracle's dropped entry yields nothing) both paths
//! still fail with `ConvergenceFailure`, but may report a different
//! `last_delta`.

use crate::smp::{DistId, SemiMarkovProcess, StateSet};
use smp_numeric::Complex64;
use smp_sparse::{CsrMatrix, Scalar, TripletMatrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregate counters of the symbolic/numeric split, surfaced through
/// `Provenance` so reports can show what the workspace saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Matrix constructions avoided: one per `s`-point served by refilling an
    /// existing skeleton instead of building the `(U, U')` pair from triplets.
    pub matrix_rebuilds_avoided: u64,
    /// Pooled Laplace–Stieltjes transform evaluations performed (one per
    /// *distinct* holding-time distribution per `s`-point — never one per
    /// transition).
    pub pooled_lst_evaluations: u64,
    /// Symbolic skeleton builds (one per `(model, target set)` per workspace
    /// actually created — bounded by the number of concurrent threads).
    pub skeleton_builds: u64,
}

impl HotPathStats {
    /// Element-wise sum of two stat snapshots.
    pub fn merged(self, other: HotPathStats) -> HotPathStats {
        HotPathStats {
            matrix_rebuilds_avoided: self.matrix_rebuilds_avoided + other.matrix_rebuilds_avoided,
            pooled_lst_evaluations: self.pooled_lst_evaluations + other.pooled_lst_evaluations,
            skeleton_builds: self.skeleton_builds + other.skeleton_builds,
        }
    }

    /// Element-wise difference against an earlier snapshot of the same
    /// counters (saturating, so a reset pool cannot underflow).
    pub fn since(self, earlier: HotPathStats) -> HotPathStats {
        HotPathStats {
            matrix_rebuilds_avoided: self
                .matrix_rebuilds_avoided
                .saturating_sub(earlier.matrix_rebuilds_avoided),
            pooled_lst_evaluations: self
                .pooled_lst_evaluations
                .saturating_sub(earlier.pooled_lst_evaluations),
            skeleton_builds: self.skeleton_builds.saturating_sub(earlier.skeleton_builds),
        }
    }
}

/// The target-independent half of the symbolic phase: the sorted CSR
/// structure of `U` and its per-nonzero fill plan.  Every target set over one
/// model shares it, so it is memoized per [`SemiMarkovProcess`]
/// (`SemiMarkovProcess::u_structure`) and building a [`PassageSkeleton`] for
/// another target set of an already-analysed process costs only `O(N)` for
/// the target bookkeeping — which is what keeps `TransientSolver`'s
/// one-cycle-solver-per-target construction (and its large-target-set
/// per-point fallback) cheap.
#[derive(Debug)]
pub(crate) struct UStructure {
    num_states: usize,
    num_dists: usize,
    indptr: Vec<u64>,
    col_indices: Vec<u32>,
    /// `slot_ptr[k] .. slot_ptr[k + 1]` indexes the contributions of CSR slot
    /// `k` in `contrib_dist` / `contrib_prob`, in legacy summation order.
    slot_ptr: Vec<u32>,
    /// True when every slot has exactly one contribution (no duplicate
    /// `(row, col)` transitions) — the common case, refilled by a plain zip.
    uniform_slots: bool,
    contrib_dist: Vec<DistId>,
    contrib_prob: Vec<f64>,
}

/// The symbolic phase: everything about `U(s)` and the target set that does
/// not depend on `s`, computed once per `(model, target set)` pair (the
/// target-independent structure is shared across skeletons of one process).
#[derive(Debug)]
pub struct PassageSkeleton {
    structure: Arc<UStructure>,
    target_mask: Vec<bool>,
    /// Target indices in ascending order — the order the legacy `dot_e`
    /// mask-filter visits them in, so the inner products sum identically.
    target_indices: Vec<usize>,
}

impl UStructure {
    /// Runs the same triplet compression as `SemiMarkovProcess::build_u`, with
    /// each raw entry's index as the payload, so the resulting slot order and
    /// per-slot contribution order match the legacy construction exactly.
    pub(crate) fn build(smp: &SemiMarkovProcess) -> UStructure {
        let n = smp.num_states();
        // The raw entry stream of build_u, in push order.
        let mut entry_dist = Vec::with_capacity(smp.num_transitions());
        let mut entry_prob = Vec::with_capacity(smp.num_transitions());
        let mut tracer = TripletMatrix::<Complex64>::with_capacity(n, n, smp.num_transitions());
        for i in 0..n {
            for tr in smp.transitions(i) {
                // Payload: this entry's index, smuggled through the value bits
                // so the compression applies the identical permutation it
                // applies to the real values (same element type, same keys).
                let index = entry_dist.len() as u64;
                entry_dist.push(tr.dist);
                entry_prob.push(tr.probability);
                tracer.push(i, tr.target, Complex64::new(f64::from_bits(index), 1.0));
            }
        }
        // The compression merges duplicate coordinates (summing the payloads,
        // whose im = 1.0 keeps every merged value nonzero so no slot is
        // dropped); only its *structure* is kept.
        let traced = tracer.to_csr();

        // Recover each slot's contribution order by replaying the sort on the
        // raw stream: counting-sort by row, then the column sort — both
        // stable, as in to_csr, so a slot's contributions are in push order.
        let mut row_counts = vec![0usize; n + 1];
        for i in 0..n {
            row_counts[i + 1] = row_counts[i] + smp.transitions(i).len();
        }
        let mut slot_ptr: Vec<u32> = Vec::with_capacity(traced.nnz() + 1);
        let mut contrib_dist: Vec<DistId> = Vec::with_capacity(entry_dist.len());
        let mut contrib_prob: Vec<f64> = Vec::with_capacity(entry_prob.len());
        slot_ptr.push(0);
        let mut scratch: Vec<(u32, Complex64)> = Vec::new();
        for (i, &row_base) in row_counts.iter().take(n).enumerate() {
            scratch.clear();
            for (offset, tr) in smp.transitions(i).iter().enumerate() {
                let index = (row_base + offset) as u64;
                scratch.push((tr.target as u32, Complex64::new(f64::from_bits(index), 1.0)));
            }
            scratch.sort_by_key(|&(c, _)| c);
            let mut k = 0usize;
            while k < scratch.len() {
                let c = scratch[k].0;
                while k < scratch.len() && scratch[k].0 == c {
                    let index = scratch[k].1.re.to_bits() as usize;
                    contrib_dist.push(entry_dist[index]);
                    contrib_prob.push(entry_prob[index]);
                    k += 1;
                }
                slot_ptr.push(contrib_dist.len() as u32);
            }
        }
        debug_assert_eq!(slot_ptr.len(), traced.nnz() + 1);
        let uniform_slots = slot_ptr.windows(2).all(|w| w[1] - w[0] == 1);

        UStructure {
            num_states: n,
            num_dists: smp.num_distributions(),
            indptr: traced.indptr().to_vec(),
            col_indices: traced.col_indices().to_vec(),
            slot_ptr,
            uniform_slots,
            contrib_dist,
            contrib_prob,
        }
    }

    // Read-only views for the row-sharded slices (`crate::shard`), which carve
    // per-shard sub-skeletons out of one memoized structure.

    pub(crate) fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    pub(crate) fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    pub(crate) fn slot_ptr(&self) -> &[u32] {
        &self.slot_ptr
    }

    pub(crate) fn contrib_dist(&self) -> &[DistId] {
        &self.contrib_dist
    }

    pub(crate) fn contrib_prob(&self) -> &[f64] {
        &self.contrib_prob
    }
}

impl PassageSkeleton {
    /// Builds the skeleton for a process and target set.
    ///
    /// The expensive target-independent structure (CSR skeleton + fill plan)
    /// comes from the process's memoized copy; only the `O(N)` target
    /// bookkeeping is built here.
    pub fn build(smp: &SemiMarkovProcess, targets: &StateSet) -> PassageSkeleton {
        let target_mask = targets.mask().to_vec();
        let target_indices: Vec<usize> = target_mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        PassageSkeleton {
            structure: smp.u_structure(),
            target_mask,
            target_indices,
        }
    }

    /// Number of states (matrix dimension).
    pub fn num_states(&self) -> usize {
        self.structure.num_states
    }

    /// Number of stored non-zeros in the `U` skeleton.
    pub fn nnz(&self) -> usize {
        self.structure.col_indices.len()
    }

    /// The target-state membership mask (the row mask of the `U'` view).
    pub fn target_mask(&self) -> &[bool] {
        &self.target_mask
    }

    /// The target-state indices, ascending — the summation order of the
    /// `· ẽ` inner products of Eq. (9)/(10).
    pub fn target_indices(&self) -> &[usize] {
        &self.target_indices
    }

    /// Inner product of a state-indexed vector with the target indicator `ẽ`,
    /// in the same ascending order (and therefore with bitwise the same value)
    /// as the legacy full-mask filter — but in `O(|targets|)` instead of
    /// `O(N)` per transition.
    #[inline]
    pub fn dot_e(&self, vec: &[Complex64]) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for &t in &self.target_indices {
            acc += vec[t];
        }
        acc
    }

    /// An all-zero CSR matrix with this skeleton's structure, ready for
    /// refilling.
    fn empty_matrix(&self) -> CsrMatrix<Complex64> {
        CsrMatrix::from_raw_parts(
            self.structure.num_states,
            self.structure.num_states,
            self.structure.indptr.clone(),
            self.structure.col_indices.clone(),
            vec![Complex64::ZERO; self.structure.col_indices.len()],
        )
    }
}

/// Leave the sparse active-list iteration mode once the live fraction of the
/// term vector exceeds `1 / DENSE_SWITCH_DIVISOR` — past that point the plain
/// full-scan scatter's predictable branches beat the list bookkeeping.
const DENSE_SWITCH_DIVISOR: usize = 4;

/// The numeric phase: reusable per-thread buffers for evaluating the
/// passage-time iteration at one `s`-point after another without allocating.
///
/// Obtain one from a [`WorkspacePool`] (or directly via
/// [`PassageWorkspace::new`]) and pass it to
/// `PassageTimeSolver::transform_at_with` to evaluate a whole chunk of
/// `s`-points through a single workspace.
#[derive(Debug)]
pub struct PassageWorkspace {
    skeleton: Arc<PassageSkeleton>,
    pub(crate) u: CsrMatrix<Complex64>,
    pool_values: Vec<Complex64>,
    /// Iteration scratch, all `num_states` long.
    pub(crate) term: Vec<Complex64>,
    pub(crate) acc: Vec<Complex64>,
    pub(crate) scratch: Vec<Complex64>,
    /// Sparse-phase bookkeeping for the `term · U'` steps: the rows where
    /// `term` may be nonzero, ascending (empty + `dense = true` once the
    /// frontier saturates).  The passage iteration's term vector starts with
    /// a handful of nonzeros (the source states' successors) and fills in
    /// over the transitions — the active list makes the early iterations cost
    /// `O(live rows)` instead of `O(N)`.
    active: Vec<u32>,
    touched: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    dense: bool,
    filled: bool,
    stats: HotPathStats,
}

impl PassageWorkspace {
    /// Creates a workspace over a shared skeleton.
    pub fn new(skeleton: Arc<PassageSkeleton>) -> PassageWorkspace {
        let n = skeleton.structure.num_states;
        let u = skeleton.empty_matrix();
        let pool_values = vec![Complex64::ZERO; skeleton.structure.num_dists];
        PassageWorkspace {
            skeleton,
            u,
            pool_values,
            term: vec![Complex64::ZERO; n],
            acc: vec![Complex64::ZERO; n],
            scratch: vec![Complex64::ZERO; n],
            active: Vec::new(),
            touched: Vec::new(),
            stamp: vec![0; n],
            generation: 0,
            dense: true,
            filled: false,
            stats: HotPathStats {
                skeleton_builds: 0,
                ..HotPathStats::default()
            },
        }
    }

    /// The shared symbolic skeleton.
    pub fn skeleton(&self) -> &PassageSkeleton {
        &self.skeleton
    }

    /// The skeleton's shared handle (lets the iteration hold the skeleton
    /// while mutably borrowing the scratch buffers).
    pub(crate) fn skeleton_arc(&self) -> &Arc<PassageSkeleton> {
        &self.skeleton
    }

    /// The refilled `U(s)` matrix of the most recent [`PassageWorkspace::refill`].
    ///
    /// Use the masked products of `smp-sparse` with
    /// [`PassageSkeleton::target_mask`] to read it as `U'`.
    pub fn u(&self) -> &CsrMatrix<Complex64> {
        &self.u
    }

    /// Numeric phase: evaluates each pooled LST once at `s` and refills the
    /// values buffer in place — no triplet matrix, no sort, no allocation.
    ///
    /// Every slot then holds bit-for-bit the value
    /// `SemiMarkovProcess::build_u(s)` stores there; a slot `build_u` drops
    /// because it evaluates to exact zero holds `±0`, which the kernels treat
    /// as the absent entry it is (see the module docs).
    pub fn refill(&mut self, smp: &SemiMarkovProcess, s: Complex64) {
        debug_assert_eq!(smp.num_states(), self.skeleton.structure.num_states);
        for (id, slot) in self.pool_values.iter_mut().enumerate() {
            *slot = smp.distribution(id as DistId).lst(s);
        }
        let sk = &*self.skeleton.structure;
        if sk.uniform_slots {
            // One contribution per slot — refill is a straight zip.
            for ((value, &dist), &prob) in self
                .u
                .values_mut()
                .iter_mut()
                .zip(&sk.contrib_dist)
                .zip(&sk.contrib_prob)
            {
                *value = self.pool_values[dist as usize].scale(prob);
            }
        } else {
            for (k, value) in self.u.values_mut().iter_mut().enumerate() {
                let start = sk.slot_ptr[k] as usize;
                let end = sk.slot_ptr[k + 1] as usize;
                // Same accumulation order as to_csr's duplicate merge: first
                // contribution initialises, the rest add in sorted-stream
                // order.  build_u skips a zero contribution before the merge;
                // here `(±0) + v = v` and `v + (±0) = v` skip it in effect.
                let mut acc =
                    self.pool_values[sk.contrib_dist[start] as usize].scale(sk.contrib_prob[start]);
                for j in start + 1..end {
                    acc += self.pool_values[sk.contrib_dist[j] as usize].scale(sk.contrib_prob[j]);
                }
                *value = acc;
            }
        }
        if self.filled {
            self.stats.matrix_rebuilds_avoided += 1;
        }
        self.filled = true;
        self.stats.pooled_lst_evaluations += self.pool_values.len() as u64;
    }

    /// Prepares the sparse/dense iteration state for a fresh `s`-point, after
    /// the caller has written the point's initial vector into `term`: scans
    /// `term` once for its live rows, (re-)zeroes `scratch`, and picks the
    /// starting mode.  Must be called before the first
    /// [`PassageWorkspace::step_term_times_u_prime`] of every point.
    pub(crate) fn begin_point(&mut self) {
        let n = self.skeleton.structure.num_states;
        for slot in self.scratch.iter_mut() {
            *slot = Complex64::ZERO;
        }
        self.active.clear();
        for (r, value) in self.term.iter().enumerate() {
            if !value.is_zero() {
                self.active.push(r as u32);
            }
        }
        self.dense = self.active.len() > n / DENSE_SWITCH_DIVISOR;
    }

    /// One `term ← term · U'` step of the iteration (Eq. 10), exploiting term
    /// sparsity while it lasts.
    ///
    /// Sparse mode scatters only the rows on the active list — ascending, so
    /// each output accumulates its contributions in exactly the order the
    /// full-scan scatter produces them (rows absent from the list hold exact
    /// zeros, which the full scan skips anyway): bitwise identical to
    /// `U.zero_rows(targets).vec_mul_into(term, out)`, at `O(live)` instead
    /// of `O(N + nnz)`.  Once the live fraction saturates, the step switches
    /// to the full-scan masked scatter.
    pub(crate) fn step_term_times_u_prime(&mut self) {
        let sk = &*self.skeleton;
        if self.dense {
            self.u
                .vec_mul_into_masked(&self.term, &mut self.scratch, &sk.target_mask);
            std::mem::swap(&mut self.term, &mut self.scratch);
            return;
        }
        // Sparse mode invariant: scratch is all-zero here (established by
        // begin_point and restored below), so first touches need no clear.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // A wrapped generation could collide with stale stamps and drop a
            // live row from the active list; reset instead.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.touched.clear();
        let indptr = self.u.indptr();
        let cols = self.u.col_indices();
        let values = self.u.values();
        for &r in &self.active {
            let r = r as usize;
            if sk.target_mask[r] {
                continue;
            }
            let xr = self.term[r];
            if xr.is_zero() {
                continue;
            }
            let start = indptr[r] as usize;
            let end = indptr[r + 1] as usize;
            for (&v, &c) in values[start..end].iter().zip(&cols[start..end]) {
                let c = c as usize;
                if self.stamp[c] != self.generation {
                    self.stamp[c] = self.generation;
                    self.touched.push(c as u32);
                }
                self.scratch[c] += v * xr;
            }
        }
        // Restore the all-zero invariant on the buffer about to become
        // scratch: only the old active rows can be nonzero in it.
        for &r in &self.active {
            self.term[r as usize] = Complex64::ZERO;
        }
        std::mem::swap(&mut self.term, &mut self.scratch);
        // The next round's active rows, ascending for the bitwise order: an
        // O(touched·log) sort while the frontier is small, an O(N) sequential
        // stamp scan once sorting would cost more.
        if self.touched.len() < sk.num_states() / 32 {
            self.touched.sort_unstable();
            std::mem::swap(&mut self.active, &mut self.touched);
        } else {
            self.active.clear();
            let generation = self.generation;
            for (c, &stamp) in self.stamp.iter().enumerate() {
                if stamp == generation {
                    self.active.push(c as u32);
                }
            }
        }
        if self.active.len() > sk.num_states() / DENSE_SWITCH_DIVISOR {
            self.dense = true;
        }
    }

    /// Counters accumulated by this workspace since creation (or the last
    /// [`WorkspacePool`] check-in, which drains them into the pool).
    pub fn stats(&self) -> HotPathStats {
        self.stats
    }

    fn take_stats(&mut self) -> HotPathStats {
        std::mem::take(&mut self.stats)
    }
}

/// A checkout pool of [`PassageWorkspace`]s over one shared
/// [`PassageSkeleton`].
///
/// Solvers are shared across worker threads (`transform_fn` closures are
/// `Sync`), so the per-point buffers cannot live in the solver directly; the
/// pool hands each thread its own workspace and takes it back afterwards.
/// The number of workspaces ever created is bounded by the peak number of
/// concurrent threads, and each is reused for every subsequent point its
/// thread evaluates — which is what amortises the symbolic phase across a
/// whole work-queue chunk.
pub struct WorkspacePool {
    skeleton: Arc<PassageSkeleton>,
    idle: parking_lot::Mutex<Vec<PassageWorkspace>>,
    rebuilds_avoided: AtomicU64,
    lst_evaluations: AtomicU64,
    skeleton_builds: AtomicU64,
    created: AtomicU64,
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspacePool")
            .field("states", &self.skeleton.num_states())
            .field("nnz", &self.skeleton.nnz())
            .field("created", &self.created.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkspacePool {
    /// Builds the skeleton for `(smp, targets)` and an initially-empty pool
    /// over it.
    pub fn build(smp: &SemiMarkovProcess, targets: &StateSet) -> WorkspacePool {
        WorkspacePool {
            skeleton: Arc::new(PassageSkeleton::build(smp, targets)),
            idle: parking_lot::Mutex::new(Vec::new()),
            rebuilds_avoided: AtomicU64::new(0),
            lst_evaluations: AtomicU64::new(0),
            skeleton_builds: AtomicU64::new(1),
            created: AtomicU64::new(0),
        }
    }

    /// The shared skeleton.
    pub fn skeleton(&self) -> &Arc<PassageSkeleton> {
        &self.skeleton
    }

    /// Checks a workspace out (reusing an idle one when available).
    pub fn checkout(&self) -> PassageWorkspace {
        if let Some(ws) = self.idle.lock().pop() {
            return ws;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        PassageWorkspace::new(self.skeleton.clone())
    }

    /// Returns a workspace to the pool, folding its counters into the pool's
    /// aggregate stats.
    ///
    /// # Panics
    /// Panics if the workspace was built over a different skeleton — adopting
    /// it would hand later checkouts the wrong target set.
    pub fn give_back(&self, mut workspace: PassageWorkspace) {
        assert!(
            Arc::ptr_eq(&workspace.skeleton, &self.skeleton),
            "workspace returned to a pool it was not checked out from"
        );
        let stats = workspace.take_stats();
        self.rebuilds_avoided
            .fetch_add(stats.matrix_rebuilds_avoided, Ordering::Relaxed);
        self.lst_evaluations
            .fetch_add(stats.pooled_lst_evaluations, Ordering::Relaxed);
        self.skeleton_builds
            .fetch_add(stats.skeleton_builds, Ordering::Relaxed);
        self.idle.lock().push(workspace);
    }

    /// Aggregate counters over everything this pool's workspaces have done
    /// (checked-in work only; a workspace currently on loan reports at
    /// check-in).
    pub fn stats(&self) -> HotPathStats {
        HotPathStats {
            matrix_rebuilds_avoided: self.rebuilds_avoided.load(Ordering::Relaxed),
            pooled_lst_evaluations: self.lst_evaluations.load(Ordering::Relaxed),
            skeleton_builds: self.skeleton_builds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smp::SmpBuilder;
    use smp_distributions::Dist;

    /// A kernel with duplicate (row, col) transitions carrying different
    /// distributions — the case where contribution order matters.
    fn duplicate_edge_smp() -> SemiMarkovProcess {
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(0, 1, 2.0, Dist::erlang(2.0, 2));
        b.add_transition(0, 1, 0.5, Dist::uniform(0.1, 0.9));
        b.add_transition(0, 2, 1.0, Dist::deterministic(0.4));
        b.add_transition(1, 2, 1.0, Dist::exponential(3.0));
        b.add_transition(1, 0, 1.0, Dist::erlang(2.0, 2));
        b.add_transition(2, 0, 1.0, Dist::exponential(0.7));
        b.build().unwrap()
    }

    #[test]
    fn refilled_matrix_is_bitwise_build_u() {
        let smp = duplicate_edge_smp();
        let targets = StateSet::new(3, &[2]).unwrap();
        let pool = WorkspacePool::build(&smp, &targets);
        let mut ws = pool.checkout();
        for &(re, im) in &[(0.5, 0.0), (1.0, 2.0), (0.2, -3.0), (3.0, 7.0), (0.5, 0.0)] {
            let s = Complex64::new(re, im);
            ws.refill(&smp, s);
            let legacy = smp.build_u(s);
            assert_eq!(ws.u().indptr(), legacy.indptr());
            assert_eq!(ws.u().col_indices(), legacy.col_indices());
            assert_eq!(ws.u().values(), legacy.values(), "values differ at s={s}");
        }
        pool.give_back(ws);
        let stats = pool.stats();
        assert_eq!(stats.matrix_rebuilds_avoided, 4); // 5 refills, first builds
        assert_eq!(
            stats.pooled_lst_evaluations,
            5 * smp.num_distributions() as u64
        );
        assert_eq!(stats.skeleton_builds, 1);
    }

    #[test]
    fn masked_view_matches_zero_rows_bitwise() {
        let smp = duplicate_edge_smp();
        let targets = StateSet::new(3, &[1, 2]).unwrap();
        let pool = WorkspacePool::build(&smp, &targets);
        let mut ws = pool.checkout();
        let s = Complex64::new(0.8, 1.3);
        ws.refill(&smp, s);
        let (u, u_prime) = smp.build_u_pair(s, &targets);
        let x = vec![
            Complex64::new(1.0, -0.25),
            Complex64::new(0.5, 0.75),
            Complex64::new(-2.0, 0.125),
        ];
        let mut masked = vec![Complex64::ZERO; 3];
        ws.u()
            .vec_mul_into_masked(&x, &mut masked, pool.skeleton().target_mask());
        assert_eq!(masked, u_prime.vec_mul(&x));
        ws.u()
            .mul_vec_into_masked(&x, &mut masked, pool.skeleton().target_mask());
        assert_eq!(masked, u_prime.mul_vec(&x));
        assert_eq!(ws.u().values(), u.values());
    }

    #[test]
    fn dot_e_matches_mask_filter_order() {
        let smp = duplicate_edge_smp();
        // Insertion order deliberately descending: dot_e must still sum in
        // ascending state order like the legacy mask filter.
        let targets = StateSet::new(3, &[2, 0]).unwrap();
        let skeleton = PassageSkeleton::build(&smp, &targets);
        assert_eq!(skeleton.target_indices(), &[0, 2]);
        let v = vec![
            Complex64::new(0.1, 0.2),
            Complex64::new(9.0, 9.0),
            Complex64::new(0.4, -0.3),
        ];
        let legacy: Complex64 = v
            .iter()
            .zip(targets.mask())
            .filter(|(_, &m)| m)
            .map(|(c, _)| *c)
            .sum();
        assert_eq!(skeleton.dot_e(&v), legacy);
    }

    #[test]
    fn pool_checkout_bounded_by_concurrency() {
        let smp = duplicate_edge_smp();
        let targets = StateSet::new(3, &[2]).unwrap();
        let pool = WorkspacePool::build(&smp, &targets);
        for _ in 0..10 {
            let ws = pool.checkout();
            pool.give_back(ws);
        }
        assert_eq!(pool.created.load(Ordering::Relaxed), 1);
        let a = pool.checkout();
        let b = pool.checkout();
        pool.give_back(a);
        pool.give_back(b);
        assert_eq!(pool.created.load(Ordering::Relaxed), 2);
    }
}
