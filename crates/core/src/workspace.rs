//! Symbolic/numeric split for the per-`s`-point hot path.
//!
//! The paper's cost model (Section 4) is *number of transform evaluations ×
//! cost per evaluation*, yet the kernel matrix `U(s)` of Eq. (9) has a fixed
//! sparsity **structure** for a given model — only its numeric entries vary
//! with the transform variable `s`, and even those take few distinct values:
//! an entry is its transitions' `probability × LST`, and a model has far
//! fewer distinct `(distribution, probability)` pairs than transitions (the
//! paper's 106,994-state system 1: 570,700 entries, 104 pairs).  This module
//! factors the per-point work accordingly:
//!
//! * [`PassageSkeleton`] — the one-time *symbolic* phase per `(model, target
//!   set)` pair: the sorted CSR skeleton (`indptr` / `col_indices`) of `U`,
//!   the **recipe table** — each distinct ordered list of `(pool
//!   distribution id, probability)` contributions an entry is summed from,
//!   in first-appearance order — with one `u32` recipe id per nonzero, and
//!   the measure's bookkeeping: which rows the steps skip (a passage's
//!   absorbing targets; none for an occupancy measure) and which states the
//!   read-out sums over, ascending.
//! * [`PassageWorkspace`] — the reusable *numeric* state: per `s`-point each
//!   pooled LST is evaluated exactly once and only the value table is
//!   refilled (`O(distinct recipes)`, not `O(nnz)`); the `term · U'` steps
//!   read `table[id[e]]`.  The iteration is written once, generic in a lane
//!   count `K`: `K` `s`-points advance in lockstep over one shared index
//!   stream, each lane an independent point.  A batch of points allocates
//!   nothing after the workspace's first.
//! * [`WorkspacePool`] — a shared checkout pool so several worker threads can
//!   evaluate points of one measure concurrently, each amortising its own
//!   workspace, with aggregate [`HotPathStats`] for provenance reports.
//!
//! `U'` (targets made absorbing, Eq. 9) is never materialised: the steps skip
//! the target rows on the fly, which is bitwise identical to multiplying by
//! `U.zero_rows(mask)`.  `U` itself is materialised only on request:
//! [`PassageWorkspace::u`] is a lazily built CSR view of the same bits, for
//! tests and benchmark probes; no solve builds it.
//!
//! ## Bitwise equivalence with the reference oracle
//!
//! [`PassageWorkspace::refill`] reproduces `SemiMarkovProcess::build_u`
//! exactly: the skeleton has the slots of that construction's triplet
//! compression (`TripletMatrix::to_csr`, whose stable row and column sorts
//! the build repeats on each row's transition list — the compression run
//! with each entry's identity as the payload is its test oracle), so
//! duplicate `(row, col)` contributions are summed in the same order the
//! build-per-point construction sums them (push order — the sorts are
//! stable, so the order does not depend on which entries a point drops), and
//! every table entry holds bit-for-bit the value that construction would
//! store in each slot that names it.  The one structural difference:
//! `build_u` drops entries whose value is *exactly* zero at a particular `s`
//! (an LST underflowing at extreme `Re(s)·delay`, e.g. `e^{-s·d}` past ~745,
//! or duplicate contributions cancelling), where the fixed skeleton keeps the
//! slot holding `±0`.
//!
//! Such a slot is **bitwise-neutral**, so the workspace kernel is the one
//! iteration the system ships and the build-per-point solver survives only
//! as the oracle the equivalence suites compare against (test support of
//! `tests/workspace_equivalence.rs`).  The argument: every accumulator of
//! every kernel — `out[c] += v·x_r` in the sparse and dense scatters and in
//! the column-restricted scatter of `crate::shard` — starts at `+0`, and
//! IEEE-754 round-to-nearest gives `z + (±0) = z` and `(+0) + (±0) = +0` (so
//! no accumulator ever holds `−0`); the duplicate
//! merge in `refill` starts from its first contribution, and `(±0) + v = v`
//! puts it where the oracle's merge (zero contributions skipped at push)
//! starts.  A slot holding `±0` multiplied by a *finite* iterate entry is
//! `±0`, so it contributes exactly what the structurally dropped entry
//! contributes: nothing.  A column reached only through zero slots merely
//! joins the active list one round early with value `+0` and is skipped by
//! the zero-row test like any other zero row.
//!
//! **Lanes extend the argument by its mirror image.**  A row is skipped when
//! *all* its lanes are zero; a zero lane in a live row is not branched
//! around, it adds `v·(±0) = ±0` for a *finite* kernel entry `v` — neutral
//! for the same reason, with the roles of entry and iterate swapped.  A
//! column one lane reaches a round before another joins the shared active
//! list early for the late lane, holding `+0` there.  So every lane computes
//! the bits, and takes the iteration count, of the `K = 1` kernel evaluating
//! that point alone; a lane that has converged keeps stepping and is simply
//! no longer read (mask, not compact), and the padding lanes of a short
//! block hold zeros throughout.
//!
//! The preconditions are that iterates are finite wherever a zero slot can
//! exist and kernel entries are finite wherever a zero lane can, which hold
//! where inversion plans sample: `|p_ij·h*_ij(s)| ≤ p_ij` on `Re(s) ≥ 0`, an
//! LST underflows to zero only at `Re(s) > 0`, and the moment stencil's real
//! nodes sit at most 6e-3 to the left of the origin, where an LST is
//! infinite only on a pole of its own — and there the single-lane kernel
//! fails too.  Off that region (a non-finite iterate
//! meeting a zero slot, or a non-finite entry meeting a zero lane, yields
//! NaN where the oracle yields nothing) both paths still fail with
//! `ConvergenceFailure`, but may report a different `last_delta`.

use crate::smp::{DistId, SemiMarkovProcess, StateSet, Transition};
use crate::unpoisoned;
use smp_distributions::Dist;
use smp_numeric::Complex64;
use smp_sparse::CsrMatrix;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// structure of `U` and its fill plan.  Every target set over one model
/// shares it, so it is memoized per [`SemiMarkovProcess`]
/// (`SemiMarkovProcess::u_structure`) and building a [`PassageSkeleton`] for
/// another measure of an already-analysed process — a passage into another
/// target set, or `TransientSolver`'s occupancy of one — costs only `O(N)`
/// for the mask and read-out bookkeeping.
#[derive(Debug)]
pub(crate) struct UStructure {
    num_states: usize,
    num_dists: usize,
    indptr: Vec<u64>,
    col_indices: Vec<u32>,
    /// The recipe each CSR slot is filled from: an index into the table
    /// below.  Slots with equal contribution lists share a recipe, so the
    /// numeric phase evaluates a value once per recipe, not once per slot.
    slot_recipe: Vec<u32>,
    pub(crate) recipes: RecipeTable,
}

/// Each distinct ordered list of `(pool distribution id, probability)`
/// contributions a kernel entry is summed from, numbered in order of first
/// appearance in the slot stream it was built over.
#[derive(Debug)]
pub(crate) struct RecipeTable {
    /// `ptr[r] .. ptr[r + 1]` indexes the contributions of recipe `r` in
    /// `dist` / `prob`, in legacy summation order.
    ptr: Vec<u32>,
    dist: Vec<DistId>,
    prob: Vec<f64>,
}

impl RecipeTable {
    pub(crate) fn new() -> RecipeTable {
        RecipeTable {
            ptr: vec![0],
            dist: Vec::new(),
            prob: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    pub(crate) fn get(&self, id: usize) -> (&[DistId], &[f64]) {
        let (start, end) = (self.ptr[id] as usize, self.ptr[id + 1] as usize);
        (&self.dist[start..end], &self.prob[start..end])
    }

    /// Appends a recipe and returns its id.
    pub(crate) fn push(&mut self, contributions: impl Iterator<Item = (DistId, f64)>) -> u32 {
        for (dist, prob) in contributions {
            self.dist.push(dist);
            self.prob.push(prob);
        }
        self.ptr.push(self.dist.len() as u32);
        (self.ptr.len() - 2) as u32
    }
}

/// The symbolic phase: everything about `U(s)` and the target set that does
/// not depend on `s`, computed once per `(model, target set)` pair (the
/// target-independent structure is shared across skeletons of one process).
///
/// A skeleton is one of two measures over the same iteration.  A *passage*
/// into the target set ([`PassageSkeleton::build`]) masks the target rows —
/// `U'` of Eq. (9) — and reads `term · ẽ`.  The *occupancy* of the set
/// (`PassageSkeleton::occupancy`, the transient measure of
/// `crate::transient`) masks no row and weighs each read-out state `k` by
/// `1 − h*_k(s)`.
#[derive(Debug)]
pub struct PassageSkeleton {
    structure: Arc<UStructure>,
    /// The rows the steps skip: the target set of a passage, no row of an
    /// occupancy measure.
    target_mask: Vec<bool>,
    /// Target indices in ascending order — the order the legacy `dot_e`
    /// mask-filter visits them in, so the inner products sum identically.
    target_indices: Vec<usize>,
    /// Whether the read-out is the occupancy measure's weighted sum.
    sojourn_weighted: bool,
}

impl UStructure {
    /// The slots of `SemiMarkovProcess::build_u`'s triplet compression, read
    /// straight off the transition lists: each row's transitions sorted by
    /// column — stably, as `to_csr` sorts, so a slot's contributions stay in
    /// push order — one slot per distinct column, and each slot's
    /// contribution list de-duplicated into the recipe table.
    pub(crate) fn build(smp: &SemiMarkovProcess) -> UStructure {
        let n = smp.num_states();
        let mut indptr: Vec<u64> = Vec::with_capacity(n + 1);
        indptr.push(0);
        // Every slot holds at least one transition.
        let mut col_indices: Vec<u32> = Vec::with_capacity(smp.num_transitions());
        let mut slot_recipe: Vec<u32> = Vec::with_capacity(smp.num_transitions());
        let mut recipes = RecipeTable::new();
        // Lookup only — recipe ids come from the table's length, so its
        // order never depends on the map's.
        let mut known: HashMap<Vec<(DistId, u64)>, u32> = HashMap::new();
        let mut recipe: Vec<(DistId, u64)> = Vec::new();
        let mut row: Vec<&Transition> = Vec::new();
        for i in 0..n {
            row.clear();
            row.extend(smp.transitions(i));
            row.sort_by_key(|tr| tr.target);
            for slot in row.chunk_by(|a, b| a.target == b.target) {
                recipe.clear();
                recipe.extend(slot.iter().map(|tr| (tr.dist, tr.probability.to_bits())));
                let id = match known.get(recipe.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = recipes.push(recipe.iter().map(|&(d, p)| (d, f64::from_bits(p))));
                        known.insert(recipe.clone(), id);
                        id
                    }
                };
                col_indices.push(slot[0].target as u32);
                slot_recipe.push(id);
            }
            indptr.push(col_indices.len() as u64);
        }

        UStructure {
            num_states: n,
            num_dists: smp.num_distributions(),
            indptr,
            col_indices,
            slot_recipe,
            recipes,
        }
    }

    /// The recipe ids and column indices of row `r`'s slots (the row-sharded
    /// slices of `crate::shard` are carved from these).
    #[inline]
    pub(crate) fn row(&self, r: usize) -> (&[u32], &[u32]) {
        let (start, end) = (self.indptr[r] as usize, self.indptr[r + 1] as usize);
        (&self.slot_recipe[start..end], &self.col_indices[start..end])
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
            sojourn_weighted: false,
        }
    }

    /// Builds the skeleton of the occupancy of `states`: the structure and
    /// read-out states of the passage into them, with no row masked and the
    /// read-out weighted by `1 − h*_k(s)`.
    pub(crate) fn occupancy(smp: &SemiMarkovProcess, states: &StateSet) -> PassageSkeleton {
        let mut skeleton = Self::build(smp, states);
        skeleton.target_mask.fill(false);
        skeleton.sojourn_weighted = true;
        skeleton
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
}

/// Leave the sparse active-list iteration mode once the live fraction of the
/// term vector exceeds `1 / DENSE_SWITCH_DIVISOR` — past that point the plain
/// full-scan scatter's predictable branches beat the list bookkeeping.
const DENSE_SWITCH_DIVISOR: usize = 4;

/// Lanes of a block: `s`-points that advance in lockstep.  Four lanes share
/// one pass over the index arrays and fill one 256-bit AVX2 register per
/// component (one 64-byte cache line per block).  Eight measured level with
/// four on the 106,994-state model (x86-64-v3 build, 2-core Xeon: median
/// 2.18 against 2.22 s, faster in 2 of 4 pairs) for twice the iterate bytes
/// behind every scattered entry.  It is also the chunk a work queue hands a
/// thread when whole blocks are the unit of work.
pub const BLOCK_LANES: usize = 4;

/// `K` complex numbers, one per lane, planar: the real parts, then the
/// imaginary parts.
pub(crate) type Lanes<const K: usize> = [[f64; K]; 2];

/// Scatters one row of `U` into `out`: `out[c] += table[id] · x` for each of
/// the row's `(id, c)` slots, in every lane — per lane exactly `Complex64`'s
/// `y += v * x`.  The one inner loop of the initialisation and of every step,
/// unsharded (`LaneKernel`) and row-sharded (`crate::shard`, whose slices are
/// this scatter restricted to their owned columns).
#[inline(always)]
pub(crate) fn scatter_row<const K: usize>(
    out: &mut [Lanes<K>],
    table: &[Lanes<K>],
    ids: &[u32],
    cols: &[u32],
    x: Lanes<K>,
) {
    for (&id, &c) in ids.iter().zip(cols) {
        let v = &table[id as usize];
        let y = &mut out[c as usize];
        for l in 0..K {
            y[0][l] += v[0][l] * x[0][l] - v[1][l] * x[1][l];
            y[1][l] += v[0][l] * x[1][l] + v[1][l] * x[0][l];
        }
    }
}

/// True when every lane holds an exact (signed) zero — the lane form of
/// `Scalar::is_zero`, and the same test at `K = 1`.
#[inline]
pub(crate) fn all_zero<const K: usize>(x: &Lanes<K>) -> bool {
    x[0].iter().chain(&x[1]).all(|&component| component == 0.0)
}

/// `c` in every lane.
#[inline]
pub(crate) fn splat<const K: usize>(c: Complex64) -> Lanes<K> {
    [[c.re; K], [c.im; K]]
}

/// Lane `l` of `x`.
#[inline]
pub(crate) fn lane<const K: usize>(x: &Lanes<K>, l: usize) -> Complex64 {
    Complex64::new(x[0][l], x[1][l])
}

/// The numeric phase of one block of points: evaluates each pooled LST once
/// per point (lane `l` at `points[l]`) and rebuilds the value table — per
/// recipe the bits `build_u` stores, `pool[dist].scale(prob)` merged left to
/// right.  Lanes past `points.len()` are padding: no LST is evaluated for
/// them and they hold zeros.  `recipes` names distributions by their index
/// in `dists`.
pub(crate) fn fill_table<const K: usize>(
    dists: &[Dist],
    recipes: &RecipeTable,
    points: &[Complex64],
    pool: &mut [Lanes<K>],
    table: &mut [Lanes<K>],
) {
    debug_assert!((1..=K).contains(&points.len()));
    for (slot, dist) in pool.iter_mut().zip(dists) {
        *slot = [[0.0; K]; 2];
        for (l, &s) in points.iter().enumerate() {
            let value = dist.lst(s);
            slot[0][l] = value.re;
            slot[1][l] = value.im;
        }
    }
    for (id, entry) in table.iter_mut().enumerate() {
        let (dists, probs) = recipes.get(id);
        // Same accumulation order as to_csr's duplicate merge: the first
        // contribution initialises, the rest add in sorted-stream order.
        // build_u skips a zero contribution before the merge; here
        // `(±0) + v = v` and `v + (±0) = v` skip it in effect.
        let mut contributions = dists.iter().zip(probs);
        let (&dist, &prob) = contributions.next().expect("a slot has a contribution");
        *entry = pool[dist as usize].map(|part| part.map(|x| x * prob));
        for (&dist, &prob) in contributions {
            let value = &pool[dist as usize];
            for l in 0..K {
                entry[0][l] += value[0][l] * prob;
                entry[1][l] += value[1][l] * prob;
            }
        }
    }
}

/// Bytes in a cache line, and the `f64`s it holds.
const LINE_BYTES: usize = 64;
const LINE_F64S: usize = LINE_BYTES / size_of::<f64>();

/// A zeroed `[Lanes<K>]` whose first element starts a cache line, so every
/// `K = 4` block (64 bytes) is one whole line and no lane load is split
/// across two.  The allocator only promises 16 bytes (large blocks start 16
/// bytes past a page boundary), so the storage carries a line of slack and
/// the lanes start at its first 64-byte boundary; the offset moves with the
/// storage, so swapping two buffers keeps both aligned.
#[derive(Debug, Default)]
struct LaneVec<const K: usize> {
    storage: Vec<f64>,
    /// Index in `storage` of the first lane block's first `f64`.
    offset: usize,
    len: usize,
}

impl<const K: usize> LaneVec<K> {
    fn zeroed(len: usize) -> LaneVec<K> {
        let storage = vec![0.0; len * 2 * K + LINE_F64S];
        let misaligned = storage.as_ptr().addr() % LINE_BYTES / size_of::<f64>();
        let offset = (LINE_F64S - misaligned) % LINE_F64S;
        LaneVec {
            storage,
            offset,
            len,
        }
    }
}

impl<const K: usize> std::ops::Deref for LaneVec<K> {
    type Target = [Lanes<K>];

    fn deref(&self) -> &[Lanes<K>] {
        let flat = &self.storage[self.offset..self.offset + self.len * 2 * K];
        flat.as_chunks::<K>().0.as_chunks::<2>().0
    }
}

impl<const K: usize> std::ops::DerefMut for LaneVec<K> {
    fn deref_mut(&mut self) -> &mut [Lanes<K>] {
        let flat = &mut self.storage[self.offset..self.offset + self.len * 2 * K];
        flat.as_chunks_mut::<K>().0.as_chunks_mut::<2>().0
    }
}

/// The numeric state of `K` lockstep `s`-points: the pooled LST values, the
/// recipe value table built from them, and the two iterate vectors.  Sized on
/// first use, so a workspace pays only for the lane counts it is asked for.
#[derive(Debug, Default)]
struct LaneBuffers<const K: usize> {
    pool: LaneVec<K>,
    table: LaneVec<K>,
    term: LaneVec<K>,
    scratch: LaneVec<K>,
    /// An occupancy skeleton's read-out weights `1 − h*_k(s)`, one per
    /// read-out state in [`PassageSkeleton::target_indices`] order; empty
    /// for a passage.
    weights: Vec<Lanes<K>>,
}

impl<const K: usize> LaneBuffers<K> {
    /// Sizes the buffers on first use, fills pool and table at `points`
    /// ([`fill_table`]) and, for an occupancy skeleton, the read-out weights.
    fn refill(&mut self, smp: &SemiMarkovProcess, sk: &PassageSkeleton, points: &[Complex64]) {
        let st = &*sk.structure;
        if self.term.len() != st.num_states {
            self.pool = LaneVec::zeroed(st.num_dists);
            self.table = LaneVec::zeroed(st.recipes.len());
            self.term = LaneVec::zeroed(st.num_states);
            self.scratch = LaneVec::zeroed(st.num_states);
        }
        fill_table(
            smp.distributions(),
            &st.recipes,
            points,
            &mut self.pool,
            &mut self.table,
        );
        if sk.sojourn_weighted {
            // `h*_k(s)` is row `k`'s sum of the table just built — the
            // sojourn-time LST, at no LST evaluation of its own.
            self.weights.clear();
            for &k in &sk.target_indices {
                let mut h = [[0.0; K]; 2];
                for &id in st.row(k).0 {
                    let value = &self.table[id as usize];
                    for l in 0..K {
                        h[0][l] += value[0][l];
                        h[1][l] += value[1][l];
                    }
                }
                self.weights
                    .push([h[0].map(|re| 1.0 - re), h[1].map(|im| -im)]);
            }
        }
    }
}

/// Sparse-phase bookkeeping for the `term · U'` steps: the rows where `term`
/// may be nonzero in some lane, ascending (unused once `dense` is set, when
/// the frontier has saturated).  The passage iteration's term vector starts
/// with a handful of nonzeros (the source states' successors) and fills in
/// over the transitions — the active list makes the early iterations cost
/// `O(live rows)` instead of `O(N)`.
#[derive(Debug)]
struct Frontier {
    active: Vec<u32>,
    touched: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    dense: bool,
}

/// The `K`-lane iteration over one workspace: what
/// `PassageTimeSolver`'s convergence driver steps.  Obtained from
/// [`PassageWorkspace::kernel`] / [`PassageWorkspace::block_kernel`] after
/// the matching refill.
pub(crate) struct LaneKernel<'a, const K: usize> {
    skeleton: &'a PassageSkeleton,
    lanes: &'a mut LaneBuffers<K>,
    frontier: &'a mut Frontier,
}

impl<const K: usize> LaneKernel<'_, K> {
    /// Starts a fresh point per lane: `term ← α·U` (the leading `U` of
    /// Eq. 9/10, unmasked) in every lane, `scratch` zeroed, the live rows
    /// listed and the starting mode picked.  Returns the sum's first value
    /// per lane: the read-out of `α·U`, plus — for an occupancy measure,
    /// whose series starts a transition earlier — the read-out of `α`.
    pub(crate) fn begin(&mut self, alpha: &[Complex64]) -> [Complex64; K] {
        let st = &*self.skeleton.structure;
        let zero = [[0.0; K]; 2];
        self.lanes.term.fill(zero);
        self.lanes.scratch.fill(zero);
        for (r, a) in alpha.iter().enumerate() {
            let x = splat(*a);
            if all_zero(&x) {
                continue;
            }
            let (ids, cols) = st.row(r);
            scatter_row(&mut self.lanes.term, &self.lanes.table, ids, cols, x);
        }
        let frontier = &mut *self.frontier;
        frontier.active.clear();
        for (r, x) in self.lanes.term.iter().enumerate() {
            if !all_zero(x) {
                frontier.active.push(r as u32);
            }
        }
        frontier.dense = frontier.active.len() > st.num_states / DENSE_SWITCH_DIVISOR;
        let mut first = self.read_out();
        if self.skeleton.sojourn_weighted {
            let at_rest = self.weighted(|k| splat(alpha[k]));
            for (value, rest) in first.iter_mut().zip(at_rest) {
                *value += rest;
            }
        }
        first
    }

    /// One `term ← term · U'` step of the iteration (Eq. 10) in every lane,
    /// exploiting term sparsity while it lasts.
    pub(crate) fn step(&mut self) {
        if self.frontier.dense {
            self.step_dense();
        } else {
            self.step_sparse();
        }
    }

    /// The full-scan masked scatter: every non-target row whose term is live
    /// in some lane, ascending.  Each row is zeroed as it is read, which is
    /// what leaves the buffer about to become scratch all-zero without a
    /// pass of its own.
    fn step_dense(&mut self) {
        let st = &*self.skeleton.structure;
        let lanes = &mut *self.lanes;
        let (scratch, table) = (&mut *lanes.scratch, &*lanes.table);
        for (r, slot) in lanes.term.iter_mut().enumerate() {
            let x = *slot;
            if all_zero(&x) {
                continue;
            }
            *slot = [[0.0; K]; 2];
            if self.skeleton.target_mask[r] {
                continue;
            }
            let (ids, cols) = st.row(r);
            scatter_row(scratch, table, ids, cols, x);
        }
        std::mem::swap(&mut lanes.term, &mut lanes.scratch);
    }

    /// Scatters only the rows on the active list — ascending, so each output
    /// accumulates its contributions in exactly the order the full-scan
    /// scatter produces them (rows absent from the list hold exact zeros in
    /// every lane, which the full scan skips anyway): bitwise identical to
    /// `U.zero_rows(targets).vec_mul_into(term, out)` per lane, at `O(live)`
    /// instead of `O(N + nnz)`.  Once the live fraction saturates, the next
    /// step is dense.
    fn step_sparse(&mut self) {
        let sk = self.skeleton;
        let st = &*sk.structure;
        let lanes = &mut *self.lanes;
        let frontier = &mut *self.frontier;
        // Invariant of both phases: scratch is all-zero at step entry
        // (established by `begin`, restored by every step), so first touches
        // need no clear.
        frontier.generation = frontier.generation.wrapping_add(1);
        if frontier.generation == 0 {
            // A wrapped generation could collide with stale stamps and drop a
            // live row from the active list; reset instead.
            frontier.stamp.fill(0);
            frontier.generation = 1;
        }
        let generation = frontier.generation;
        frontier.touched.clear();
        let (term, scratch, table) = (&mut *lanes.term, &mut *lanes.scratch, &*lanes.table);
        for &r in &frontier.active {
            let r = r as usize;
            let x = term[r];
            if sk.target_mask[r] || all_zero(&x) {
                continue;
            }
            let (ids, cols) = st.row(r);
            for &c in cols {
                if frontier.stamp[c as usize] != generation {
                    frontier.stamp[c as usize] = generation;
                    frontier.touched.push(c);
                }
            }
            scatter_row(scratch, table, ids, cols, x);
        }
        // Restore the all-zero invariant on the buffer about to become
        // scratch: only the old active rows can be nonzero in it.
        for &r in &frontier.active {
            term[r as usize] = [[0.0; K]; 2];
        }
        std::mem::swap(&mut lanes.term, &mut lanes.scratch);
        // The next round's active rows, ascending for the bitwise order: an
        // O(touched·log) sort while the frontier is small, an O(N) sequential
        // stamp scan once sorting would cost more.
        if frontier.touched.len() < st.num_states / 32 {
            frontier.touched.sort_unstable();
            std::mem::swap(&mut frontier.active, &mut frontier.touched);
        } else {
            frontier.active.clear();
            for (c, &stamp) in frontier.stamp.iter().enumerate() {
                if stamp == generation {
                    frontier.active.push(c as u32);
                }
            }
        }
        if frontier.active.len() > st.num_states / DENSE_SWITCH_DIVISOR {
            frontier.dense = true;
        }
    }

    /// What a round adds to every lane's sum: a passage's `term · ẽ`, an
    /// occupancy measure's `Σ_k (1 − h*_k(s)) · term_k`.
    pub(crate) fn read_out(&self) -> [Complex64; K] {
        if self.skeleton.sojourn_weighted {
            self.weighted(|k| self.lanes.term[k])
        } else {
            self.dot_e()
        }
    }

    /// `Σ_k w_k · x(k)` per lane over the read-out states `k`, ascending,
    /// with `w` the weights of the latest refill.
    fn weighted(&self, x: impl Fn(usize) -> Lanes<K>) -> [Complex64; K] {
        let mut acc = [[0.0; K]; 2];
        for (w, &k) in self.lanes.weights.iter().zip(&self.skeleton.target_indices) {
            let x = x(k);
            for l in 0..K {
                acc[0][l] += w[0][l] * x[0][l] - w[1][l] * x[1][l];
                acc[1][l] += w[0][l] * x[1][l] + w[1][l] * x[0][l];
            }
        }
        std::array::from_fn(|l| lane(&acc, l))
    }

    /// Every lane's inner product of the term vector with the target
    /// indicator `ẽ`, summed over [`PassageSkeleton::target_indices`] in
    /// ascending order — the order (and therefore bitwise the value) of the
    /// legacy full-mask filter, in `O(|targets|)` instead of `O(N)`.
    fn dot_e(&self) -> [Complex64; K] {
        let mut acc = [[0.0; K]; 2];
        for &t in &self.skeleton.target_indices {
            let x = &self.lanes.term[t];
            for l in 0..K {
                acc[0][l] += x[0][l];
                acc[1][l] += x[1][l];
            }
        }
        std::array::from_fn(|l| lane(&acc, l))
    }

    /// The term vector, in state order: every lane's component of a state
    /// side by side.
    pub(crate) fn term(&self) -> &[Lanes<K>] {
        &self.lanes.term
    }
}

/// The numeric phase: reusable per-thread buffers for evaluating the
/// passage-time iteration at one `s`-point after another without allocating.
///
/// Obtain one from a [`WorkspacePool`] (or directly via
/// [`PassageWorkspace::new`]) and pass it to
/// `PassageTimeSolver::transform_at_with` (or `transform_many_with`) to
/// evaluate a whole chunk of `s`-points through a single workspace.
#[derive(Debug)]
pub struct PassageWorkspace {
    skeleton: Arc<PassageSkeleton>,
    /// The single-point kernel's state: what [`PassageWorkspace::refill`]
    /// fills and [`PassageWorkspace::u`] views.
    single: LaneBuffers<1>,
    /// The lockstep kernel's state, for blocks of up to [`BLOCK_LANES`]
    /// points.
    block: LaneBuffers<BLOCK_LANES>,
    frontier: Frontier,
    /// `U(s)` of the latest [`PassageWorkspace::refill`] as a CSR matrix —
    /// absent until somebody asks for it, kept current from then on.
    u: OnceCell<CsrMatrix<Complex64>>,
    filled: bool,
    stats: HotPathStats,
}

impl PassageWorkspace {
    /// Creates a workspace over a shared skeleton.
    pub fn new(skeleton: Arc<PassageSkeleton>) -> PassageWorkspace {
        let n = skeleton.structure.num_states;
        PassageWorkspace {
            skeleton,
            single: LaneBuffers::default(),
            block: LaneBuffers::default(),
            frontier: Frontier {
                active: Vec::new(),
                touched: Vec::new(),
                stamp: vec![0; n],
                generation: 0,
                dense: true,
            },
            u: OnceCell::new(),
            filled: false,
            stats: HotPathStats::default(),
        }
    }

    /// The shared symbolic skeleton.
    pub fn skeleton(&self) -> &PassageSkeleton {
        &self.skeleton
    }

    /// The skeleton's shared handle.
    pub(crate) fn skeleton_arc(&self) -> &Arc<PassageSkeleton> {
        &self.skeleton
    }

    /// The refilled `U(s)` matrix of the most recent [`PassageWorkspace::refill`]
    /// (all zeros before the first), materialised from the value table on
    /// first request and kept current by later refills.  The iteration does
    /// not read it.
    ///
    /// Use the masked products of `smp-sparse` with
    /// [`PassageSkeleton::target_mask`] to read it as `U'`.
    pub fn u(&self) -> &CsrMatrix<Complex64> {
        self.u.get_or_init(|| {
            let st = &*self.skeleton.structure;
            let mut u = CsrMatrix::from_raw_parts(
                st.num_states,
                st.num_states,
                st.indptr.clone(),
                st.col_indices.clone(),
                vec![Complex64::ZERO; st.col_indices.len()],
            );
            gather_values(st, &self.single.table, u.values_mut());
            u
        })
    }

    /// Numeric phase: evaluates each pooled LST once at `s` and refills the
    /// value table in place — no triplet matrix, no sort, no allocation.
    ///
    /// Every slot of `U(s)` then reads bit-for-bit the value
    /// `SemiMarkovProcess::build_u(s)` stores there; a slot `build_u` drops
    /// because it evaluates to exact zero reads `±0`, which the kernels treat
    /// as the absent entry it is (see the module docs).
    pub fn refill(&mut self, smp: &SemiMarkovProcess, s: Complex64) {
        debug_assert_eq!(smp.num_states(), self.skeleton.structure.num_states);
        self.single.refill(smp, &self.skeleton, &[s]);
        if let Some(u) = self.u.get_mut() {
            let st = &*self.skeleton.structure;
            gather_values(st, &self.single.table, u.values_mut());
        }
        self.count_points(1);
    }

    /// [`PassageWorkspace::refill`] for a block: lane `l` of the lockstep
    /// kernel is refilled at `points[l]` (at most [`BLOCK_LANES`] of them).
    pub(crate) fn refill_block(&mut self, smp: &SemiMarkovProcess, points: &[Complex64]) {
        debug_assert_eq!(smp.num_states(), self.skeleton.structure.num_states);
        self.block.refill(smp, &self.skeleton, points);
        self.count_points(points.len() as u64);
    }

    /// The counters stay per point whatever the block shape: every point
    /// after a workspace's first avoids a matrix build, and every point
    /// evaluates each pooled LST once.
    fn count_points(&mut self, points: u64) {
        self.stats.matrix_rebuilds_avoided += points - u64::from(!self.filled);
        self.filled = true;
        self.stats.pooled_lst_evaluations += points * self.skeleton.structure.num_dists as u64;
    }

    /// The iteration over the point of the latest [`PassageWorkspace::refill`].
    pub(crate) fn kernel(&mut self) -> LaneKernel<'_, 1> {
        LaneKernel {
            skeleton: &self.skeleton,
            lanes: &mut self.single,
            frontier: &mut self.frontier,
        }
    }

    /// The lockstep iteration over the points of the latest
    /// [`PassageWorkspace::refill_block`].
    pub(crate) fn block_kernel(&mut self) -> LaneKernel<'_, BLOCK_LANES> {
        LaneKernel {
            skeleton: &self.skeleton,
            lanes: &mut self.block,
            frontier: &mut self.frontier,
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

/// Writes the CSR values the single-lane table stands for: `table[id[e]]`
/// per slot (zeros while the table has never been filled).
fn gather_values(st: &UStructure, table: &[Lanes<1>], values: &mut [Complex64]) {
    if table.is_empty() {
        return;
    }
    for (value, &id) in values.iter_mut().zip(&st.slot_recipe) {
        *value = lane(&table[id as usize], 0);
    }
}

/// A checkout pool of [`PassageWorkspace`]s over one shared
/// [`PassageSkeleton`].
///
/// Solvers are shared across worker threads (a solver is `Sync`), so the
/// per-point buffers cannot live in the solver directly; the pool hands each
/// thread its own workspace and takes it back afterwards.
/// The number of workspaces ever created is bounded by the peak number of
/// concurrent threads, and each is reused for every subsequent point its
/// thread evaluates — which is what amortises the symbolic phase across a
/// whole work-queue chunk.
pub struct WorkspacePool {
    skeleton: Arc<PassageSkeleton>,
    idle: Mutex<Vec<PassageWorkspace>>,
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
        Self::over(PassageSkeleton::build(smp, targets))
    }

    /// An initially-empty pool over an already-built skeleton.
    pub(crate) fn over(skeleton: PassageSkeleton) -> WorkspacePool {
        WorkspacePool {
            skeleton: Arc::new(skeleton),
            idle: Mutex::new(Vec::new()),
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
        if let Some(ws) = unpoisoned(self.idle.lock()).pop() {
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
        unpoisoned(self.idle.lock()).push(workspace);
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

    fn starts_a_line<const K: usize>(v: &LaneVec<K>) -> bool {
        v.as_ptr().addr().is_multiple_of(LINE_BYTES)
    }

    fn lane_vec_is_aligned_zeroed_and_sized<const K: usize>() {
        for len in [0, 1, 106_994] {
            let (mut term, mut scratch) = (LaneVec::<K>::zeroed(len), LaneVec::<K>::zeroed(len));
            assert!(
                starts_a_line(&term) && starts_a_line(&scratch),
                "K = {K}, len {len}"
            );
            assert_eq!((term.len(), scratch.len()), (len, len), "K = {K}");
            assert!(
                term.iter()
                    .chain(scratch.iter())
                    .all(|x| *x == [[0.0; K]; 2]),
                "K = {K}, len {len}"
            );
            if len > 0 {
                term[len - 1][1][K - 1] = 1.0;
            }
            std::mem::swap(&mut term, &mut scratch);
            assert!(
                starts_a_line(&term) && starts_a_line(&scratch),
                "K = {K}, len {len}"
            );
            assert_eq!((term.len(), scratch.len()), (len, len), "K = {K}");
            if len > 0 {
                assert_eq!(scratch[len - 1][1][K - 1], 1.0, "K = {K}, len {len}");
            }
        }
    }

    #[test]
    fn lane_vec_starts_a_cache_line_through_a_swap() {
        lane_vec_is_aligned_zeroed_and_sized::<1>();
        lane_vec_is_aligned_zeroed_and_sized::<BLOCK_LANES>();
    }

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
        assert_eq!(ws.u().values(), u.values());
    }

    #[test]
    fn dot_e_matches_mask_filter_order() {
        let smp = duplicate_edge_smp();
        // Insertion order deliberately descending: dot_e must still sum in
        // ascending state order like the legacy mask filter.
        let targets = StateSet::new(3, &[2, 0]).unwrap();
        let skeleton = Arc::new(PassageSkeleton::build(&smp, &targets));
        assert_eq!(skeleton.target_indices(), &[0, 2]);
        let v = [
            Complex64::new(0.1, 0.2),
            Complex64::new(9.0, 9.0),
            Complex64::new(0.4, -0.3),
        ];
        let legacy = |v: &[Complex64]| -> Complex64 {
            v.iter()
                .zip(targets.mask())
                .filter(|(_, &m)| m)
                .map(|(c, _)| *c)
                .sum()
        };
        let mut ws = PassageWorkspace::new(skeleton);
        ws.refill(&smp, Complex64::ONE);
        ws.refill_block(&smp, &[Complex64::ONE; BLOCK_LANES]);
        // Lane l of the block holds v scaled by l + 1.
        for (r, value) in v.iter().enumerate() {
            ws.single.term[r] = [[value.re], [value.im]];
            for l in 0..BLOCK_LANES {
                let scaled = value.scale((l + 1) as f64);
                ws.block.term[r][0][l] = scaled.re;
                ws.block.term[r][1][l] = scaled.im;
            }
        }
        assert_eq!(ws.kernel().dot_e(), [legacy(&v)]);
        let block = ws.block_kernel().dot_e();
        for (l, got) in block.iter().enumerate() {
            let scaled: Vec<Complex64> = v.iter().map(|c| c.scale((l + 1) as f64)).collect();
            assert_eq!(*got, legacy(&scaled), "lane {l}");
        }
    }

    /// The build [`UStructure::build`] replaced, kept as its oracle: the
    /// triplet compression of `SemiMarkovProcess::build_u` run with each raw
    /// entry's index as the payload (so it applies the permutation it applies
    /// to real values), then the sort replayed on the raw stream to recover
    /// each slot's contribution order.
    fn triplet_structure(smp: &SemiMarkovProcess) -> UStructure {
        let n = smp.num_states();
        let mut entry_dist = Vec::with_capacity(smp.num_transitions());
        let mut entry_prob = Vec::with_capacity(smp.num_transitions());
        let mut tracer =
            smp_sparse::TripletMatrix::<Complex64>::with_capacity(n, n, smp.num_transitions());
        for i in 0..n {
            for tr in smp.transitions(i) {
                let index = entry_dist.len() as u64;
                entry_dist.push(tr.dist);
                entry_prob.push(tr.probability);
                tracer.push(i, tr.target, Complex64::new(f64::from_bits(index), 1.0));
            }
        }
        // im = 1.0 keeps every merged payload nonzero, so no slot is dropped.
        let traced = tracer.to_csr();

        let mut row_counts = vec![0usize; n + 1];
        for i in 0..n {
            row_counts[i + 1] = row_counts[i] + smp.transitions(i).len();
        }
        let mut slot_recipe: Vec<u32> = Vec::with_capacity(traced.nnz());
        let mut recipes = RecipeTable::new();
        let mut known: HashMap<Vec<(DistId, u64)>, u32> = HashMap::new();
        let mut recipe: Vec<(DistId, u64)> = Vec::new();
        let mut scratch: Vec<(u32, usize)> = Vec::new();
        for (i, &row_base) in row_counts.iter().take(n).enumerate() {
            scratch.clear();
            for (offset, tr) in smp.transitions(i).iter().enumerate() {
                scratch.push((tr.target as u32, row_base + offset));
            }
            scratch.sort_by_key(|&(c, _)| c);
            for slot in scratch.chunk_by(|a, b| a.0 == b.0) {
                recipe.clear();
                recipe.extend(
                    slot.iter()
                        .map(|&(_, index)| (entry_dist[index], entry_prob[index].to_bits())),
                );
                let id = match known.get(recipe.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = recipes.push(recipe.iter().map(|&(d, p)| (d, f64::from_bits(p))));
                        known.insert(recipe.clone(), id);
                        id
                    }
                };
                slot_recipe.push(id);
            }
        }
        assert_eq!(slot_recipe.len(), traced.nnz());
        UStructure {
            num_states: n,
            num_dists: smp.num_distributions(),
            indptr: traced.indptr().to_vec(),
            col_indices: traced.col_indices().to_vec(),
            slot_recipe,
            recipes,
        }
    }

    /// A process of this crate with the transitions and distribution pool of
    /// the model `source` describes, as the DNAmaca front end explores it.
    fn explored(source: &str) -> SemiMarkovProcess {
        let net = smp_dnamaca::parse_model(source).unwrap();
        let space = smp_smspn::StateSpace::explore(&net).unwrap();
        let front = space.smp();
        let mut b = SmpBuilder::new(front.num_states());
        for id in 0..front.num_distributions() as DistId {
            let interned = b.intern_distribution(front.distribution(id).clone());
            assert_eq!(interned, id, "the pool keeps its numbering");
        }
        for i in 0..front.num_states() {
            for tr in front.transitions(i) {
                b.add_transition_pooled(i, tr.target, tr.probability, tr.dist);
            }
        }
        b.build().unwrap()
    }

    /// The transition lists give the triplet compression's slots, slot
    /// recipes and recipe table, on duplicate edges, every corpus model and
    /// the paper's voting 5,2,2.
    #[test]
    fn structure_is_the_triplet_compression() {
        let voting =
            |c, m, n| smp_voting::spec::dnamaca_source(smp_voting::VotingConfig::new(c, m, n));
        let models = [
            ("duplicate edges", duplicate_edge_smp()),
            (
                "ring-exp",
                explored(include_str!("../../../tests/corpus/ring_exp.mod")),
            ),
            (
                "voting-exp",
                explored(include_str!("../../../tests/corpus/voting_exp.mod")),
            ),
            (
                "ring-erlang-lookalike",
                explored(include_str!("../../../tests/corpus/erlang_lookalike.mod")),
            ),
            ("voting 3,1,1", explored(&voting(3, 1, 1))),
            ("voting 5,2,2", explored(&voting(5, 2, 2))),
        ];
        for (name, smp) in &models {
            let (built, oracle) = (UStructure::build(smp), triplet_structure(smp));
            assert_eq!(built.indptr, oracle.indptr, "{name}");
            assert_eq!(built.col_indices, oracle.col_indices, "{name}");
            assert_eq!(built.slot_recipe, oracle.slot_recipe, "{name}");
            assert_eq!(built.recipes.ptr, oracle.recipes.ptr, "{name}");
            assert_eq!(built.recipes.dist, oracle.recipes.dist, "{name}");
            let bits = |t: &RecipeTable| t.prob.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&built.recipes), bits(&oracle.recipes), "{name}");
        }
        // The duplicate edge merges three transitions into one slot.
        assert!(models[0].1.num_transitions() > UStructure::build(&models[0].1).col_indices.len());
    }

    /// Slots with equal contribution lists share a recipe; recipes are
    /// numbered by first appearance in the slot stream.
    #[test]
    fn recipes_are_deduplicated_in_first_appearance_order() {
        let shared = Dist::exponential(2.0);
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, shared.clone());
        b.add_transition(0, 2, 1.0, Dist::erlang(1.0, 2));
        b.add_transition(1, 2, 1.0, Dist::erlang(1.0, 2));
        b.add_transition(1, 0, 1.0, shared.clone());
        // A duplicate edge: one slot, a two-contribution recipe of its own.
        b.add_transition(2, 0, 1.0, shared.clone());
        b.add_transition(2, 0, 1.0, shared);
        let smp = b.build().unwrap();
        let st = smp.u_structure();
        // Slots in CSR order: (0,1) (0,2) (1,0) (1,2) (2,0).
        assert_eq!(st.slot_recipe, [0, 1, 0, 1, 2]);
        assert_eq!(st.recipes.len(), 3);
        let (dists, probs) = st.recipes.get(2);
        assert_eq!((dists.len(), probs), (2, &[0.5, 0.5][..]));
        assert_eq!(dists[0], dists[1]);
    }

    /// `u()` is built on first request and kept current by later refills;
    /// block refills neither build nor disturb it.
    #[test]
    fn u_view_is_lazy_and_follows_refills() {
        let smp = duplicate_edge_smp();
        let targets = StateSet::new(3, &[2]).unwrap();
        let mut ws = PassageWorkspace::new(Arc::new(PassageSkeleton::build(&smp, &targets)));
        assert!(ws.u().values().iter().all(|v| *v == Complex64::ZERO));
        let mut lazy = PassageWorkspace::new(Arc::clone(ws.skeleton_arc()));
        let (s1, s2) = (Complex64::new(0.5, 1.0), Complex64::new(2.0, -3.0));
        lazy.refill(&smp, s1);
        lazy.refill_block(&smp, &[s2, s1]);
        assert!(lazy.u.get().is_none(), "nobody asked for the matrix yet");
        assert_eq!(lazy.u().values(), smp.build_u(s1).values());
        for s in [s2, s1] {
            ws.refill(&smp, s);
            lazy.refill(&smp, s);
            lazy.refill_block(&smp, &[s1, s2, s1]);
            assert_eq!(ws.u().values(), smp.build_u(s).values());
            assert_eq!(lazy.u().values(), smp.build_u(s).values());
        }
        // Counted per point: three single refills, blocks of 2, 3 and 3.
        assert_eq!(lazy.stats().matrix_rebuilds_avoided, (3 + 2 + 3 + 3) - 1);
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
