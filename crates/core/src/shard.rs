//! Row-sharded slices of the passage-time iteration (the paper's distributed
//! memory model).
//!
//! The source paper runs its iterative algorithm on a cluster where no single
//! node holds the whole kernel matrix: the state space is partitioned into
//! contiguous blocks, each worker stores only its slice of `U`, and every
//! iteration exchanges the boundary ("halo") entries of the iterate between
//! neighbours.  This module is that partitioning, kept **bitwise identical**
//! to the unsharded solver for every shard count:
//!
//! * [`shard_bounds`] — the deterministic block boundaries, a pure function of
//!   `(N, shards)`: shard `k` owns states `⌊kN/S⌋ .. ⌊(k+1)N/S⌋`.
//! * [`ShardedSkeleton`] — one shard's symbolic slice of the memoized
//!   `U`-structure: the kernel entries that *land in* its owned columns
//!   (the row-vector iteration `term ← term · U'` writes column `c`, so the
//!   shard owning `c` stores column `c`'s entries), the fill plan and LST
//!   pool restricted to those entries, and the sorted list of external rows
//!   whose iterate values the shard needs each round ([`ShardedSkeleton::need_rows`]).
//! * [`ShardWorkspace`] — the numeric per-shard state: refill values in
//!   place per `s`-point, apply a received halo, take one gather step.
//! * [`plan_exchange`] / [`ExchangePlan`] — the master-side routing: which
//!   owned rows each shard must publish per iteration (the union of the other
//!   shards' needs).
//! * [`ConvergenceFold`] (defined beside `IterationOptions` in
//!   `crate::passage`) — the one convergence policy, fed per-round deltas
//!   folded in shard order and the AND of the shards' quiet verdicts.
//! * [`ShardedSolver`] — an in-process lockstep driver over all shards: the
//!   executable specification that the distributed transport in `smp-pipeline`
//!   reproduces frame by frame, and the oracle its conformance tests solve
//!   against.
//!
//! ## Why the result is bitwise shard-count-invariant
//!
//! The sequential step zeroes the output vector and scatters unmasked rows in
//! ascending order, so output column `c` accumulates `ZERO += v·x_r` over its
//! entries in ascending row order.  A shard owning `c` stores exactly those
//! entries in the same order and folds them with the same skipped-zero rules
//! (`x_r` exactly zero, or `r` masked) into a local accumulator initialised to
//! `ZERO` — the identical floating-point sequence.  Halo values are shipped
//! bit-exactly (the wire codec is the `f64`-bit-pattern codec), zero values
//! are elided on the wire because both sides skip exact zeros anyway, and the
//! convergence fold sums shard target-slices in shard order = ascending state
//! order, matching `PassageSkeleton::dot_e`.
//!
//! ## Exact-zero kernel entries
//!
//! A slice entry that evaluates to exact zero at some `s` (an LST
//! underflowing at `Re(s)·delay ≳ 745`) stays in its slot holding `±0`, as in
//! `crate::workspace`, and is bitwise-neutral for the same reason: the gather
//! accumulator of [`ShardWorkspace::step`] and the owned slots
//! [`ShardWorkspace::init`] adds into start at `+0`, round-to-nearest gives
//! `z + (±0) = z` and `(+0) + (±0) = +0`, and iterates are finite wherever a
//! zero slot can exist (`|p_ij·h*_ij(s)| ≤ p_ij` on `Re(s) ≥ 0`; underflow
//! needs `Re(s) > 0`).  An owned value that is `+0` only because its entries
//! underflowed is elided from the halo like any other zero.  So underflow
//! points run on the shards like every other point and still equal the
//! build-per-point oracle bit for bit; only a non-finite iterate could tell
//! the two apart, and then both report `ConvergenceFailure` (possibly with a
//! different `last_delta`).

use crate::error::SmpError;
use crate::passage::{term_is_quiet, ConvergenceFold, FoldStatus, IterationOptions, PassagePoint};
use crate::smp::{SemiMarkovProcess, StateSet};
use smp_distributions::Dist;
use smp_numeric::Complex64;
use smp_sparse::Scalar;
use std::sync::Arc;

/// Sentinel `entry_x` slot for entries whose source row is masked (a target
/// state): the step skips them, exactly as the full masked scatter skips
/// masked rows, and init never reads the iterate at all.
const SKIP: u32 = u32::MAX;

/// The contiguous state block owned by shard `shard` of `shards`, as a
/// half-open range — a pure function of `(num_states, shards)`, so every
/// process in a cluster computes identical boundaries with no negotiation.
///
/// Blocks cover `0..num_states` exactly, are ascending, and differ in size by
/// at most one state; with more shards than states the trailing shards own
/// empty blocks.
///
/// # Panics
/// Panics when `shards == 0` or `shard >= shards`.
pub fn shard_bounds(num_states: usize, shards: usize, shard: usize) -> (usize, usize) {
    assert!(shards >= 1, "shard count must be at least 1");
    assert!(
        shard < shards,
        "shard index {shard} out of range 0..{shards}"
    );
    (
        shard * num_states / shards,
        (shard + 1) * num_states / shards,
    )
}

/// The shard whose block contains `row` (the inverse of [`shard_bounds`]).
///
/// # Panics
/// Panics when `row >= num_states` or `shards == 0`.
pub fn owner_of(num_states: usize, shards: usize, row: usize) -> usize {
    assert!(row < num_states, "row {row} out of range 0..{num_states}");
    assert!(shards >= 1, "shard count must be at least 1");
    // Binary search for the first shard whose upper bound exceeds `row`.
    let (mut lo, mut hi) = (0usize, shards);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if shard_bounds(num_states, shards, mid).1 <= row {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One shard's symbolic slice of the kernel structure: everything about its
/// owned column block of `U` that does not depend on `s`.
///
/// Built from the process's memoized `U`-structure, but self-contained
/// afterwards — it holds its own (restricted, re-indexed) distribution pool,
/// so a worker process can drop the full model once its slice is built.  That
/// is the memory claim of the distributed layer: the resident per-point state
/// is `O(nnz(slice) + N/S)`, not `O(nnz(U) + N)`.
#[derive(Debug)]
pub struct ShardedSkeleton {
    num_states: usize,
    shards: usize,
    shard: usize,
    lo: usize,
    hi: usize,
    source: usize,
    /// Entries of owned column `c` (local index) are
    /// `col_ptr[c] .. col_ptr[c+1]`, in ascending global-row order — the
    /// accumulation order of the sequential scatter.
    col_ptr: Vec<u32>,
    /// Global source row of each entry.
    entry_row: Vec<u32>,
    /// Iterate slot of each entry: `< owned` = owned block, `>= owned` =
    /// halo slot, [`SKIP`] = masked row (skipped by the step, like the full
    /// masked scatter; kept for init).
    entry_x: Vec<u32>,
    /// Fill plan: contributions of entry `e` are `slot_ptr[e]..slot_ptr[e+1]`
    /// of `contrib_dist` / `contrib_prob`, in legacy summation order.
    slot_ptr: Vec<u32>,
    /// True when every slice entry has exactly one contribution.
    uniform_slots: bool,
    contrib_dist: Vec<u32>,
    contrib_prob: Vec<f64>,
    /// The restricted LST pool: only distributions referenced by this slice,
    /// re-indexed densely (`contrib_dist` holds local ids).
    pool: Vec<Dist>,
    /// External (other-shard) unmasked rows whose iterate values the step
    /// reads, ascending — the shard's halo subscription.
    need_rows: Vec<u32>,
    /// Entries whose source row is the α-source (global indices into the
    /// entry arrays, ascending by owned column) — the slice of the `α·U`
    /// initialisation.
    init_entries: Vec<u32>,
    /// Global indices of target states inside the owned block, ascending —
    /// this shard's summands of the `· ẽ` inner product.
    owned_targets: Vec<u32>,
}

impl ShardedSkeleton {
    /// Carves shard `shard` of `shards` out of the process's memoized
    /// `U`-structure for the passage from single source `source` into
    /// `targets`.
    ///
    /// # Panics
    /// Panics when `shards == 0`, `shard >= shards` or `source` is out of
    /// range (callers validate state sets beforehand).
    pub fn build(
        smp: &SemiMarkovProcess,
        targets: &StateSet,
        source: usize,
        shards: usize,
        shard: usize,
    ) -> ShardedSkeleton {
        let n = smp.num_states();
        assert!(source < n, "source state {source} out of range 0..{n}");
        let (lo, hi) = shard_bounds(n, shards, shard);
        let owned = hi - lo;
        let structure = smp.u_structure();
        let mask = targets.mask();

        // Pass 1: bucket the slice's entries by owned column (rows arrive
        // ascending, so each bucket is already in scatter order) and collect
        // the halo subscription.
        let indptr = structure.indptr();
        let cols = structure.col_indices();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); owned];
        let mut need_rows: Vec<u32> = Vec::new();
        for r in 0..n {
            let (a, b) = (indptr[r] as usize, indptr[r + 1] as usize);
            // Columns are sorted within the row: the owned range is one
            // contiguous run of entries.
            let row_cols = &cols[a..b];
            let s = a + row_cols.partition_point(|&c| (c as usize) < lo);
            let e = a + row_cols.partition_point(|&c| (c as usize) < hi);
            if s == e {
                continue;
            }
            if !mask[r] && (r < lo || r >= hi) {
                need_rows.push(r as u32);
            }
            for k in s..e {
                buckets[cols[k] as usize - lo].push(k as u32);
            }
        }

        // Pass 2: flatten column-major, restricting the fill plan and the
        // distribution pool to the slice.
        let mut local_of: Vec<u32> = vec![u32::MAX; smp.num_distributions()];
        let mut pool: Vec<Dist> = Vec::new();
        let mut col_ptr: Vec<u32> = Vec::with_capacity(owned + 1);
        let mut entry_row: Vec<u32> = Vec::new();
        let mut entry_x: Vec<u32> = Vec::new();
        let mut slot_ptr: Vec<u32> = vec![0];
        let mut contrib_dist: Vec<u32> = Vec::new();
        let mut contrib_prob: Vec<f64> = Vec::new();
        let mut init_entries: Vec<u32> = Vec::new();
        col_ptr.push(0);
        for bucket in &buckets {
            for &k in bucket {
                let r = {
                    // Recover the entry's global row from its CSR position.
                    // `indptr` is monotone, so this is a binary search for the
                    // last row starting at or before `k`.
                    let mut lo_r = 0usize;
                    let mut hi_r = n;
                    while lo_r + 1 < hi_r {
                        let mid = lo_r + (hi_r - lo_r) / 2;
                        if indptr[mid] as usize <= k as usize {
                            lo_r = mid;
                        } else {
                            hi_r = mid;
                        }
                    }
                    lo_r
                };
                let x_slot = if mask[r] {
                    SKIP
                } else if r >= lo && r < hi {
                    (r - lo) as u32
                } else {
                    let pos = need_rows
                        .binary_search(&(r as u32))
                        .expect("external unmasked row must be subscribed");
                    (owned + pos) as u32
                };
                if r == source {
                    init_entries.push(entry_row.len() as u32);
                }
                entry_row.push(r as u32);
                entry_x.push(x_slot);
                let (dists, probs) = structure.slot_contributions(k as usize);
                for (&dist, &prob) in dists.iter().zip(probs) {
                    let gd = dist as usize;
                    if local_of[gd] == u32::MAX {
                        local_of[gd] = pool.len() as u32;
                        pool.push(smp.distribution(dist).clone());
                    }
                    contrib_dist.push(local_of[gd]);
                    contrib_prob.push(prob);
                }
                slot_ptr.push(contrib_dist.len() as u32);
            }
            col_ptr.push(entry_row.len() as u32);
        }
        let uniform_slots = slot_ptr.windows(2).all(|w| w[1] - w[0] == 1);
        let owned_targets: Vec<u32> = (lo..hi).filter(|&t| mask[t]).map(|t| t as u32).collect();

        ShardedSkeleton {
            num_states: n,
            shards,
            shard,
            lo,
            hi,
            source,
            col_ptr,
            entry_row,
            entry_x,
            slot_ptr,
            uniform_slots,
            contrib_dist,
            contrib_prob,
            pool,
            need_rows,
            init_entries,
            owned_targets,
        }
    }

    /// Total number of states in the (unsharded) model.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The shard count this slice was cut for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// This slice's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The owned state block as a half-open range (= [`shard_bounds`]).
    pub fn bounds(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Number of states in the owned block.
    pub fn owned_states(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of kernel entries stored by this slice.
    pub fn nnz(&self) -> usize {
        self.entry_row.len()
    }

    /// Number of distributions in the restricted LST pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The external unmasked rows whose iterate values this shard needs every
    /// round, ascending.
    pub fn need_rows(&self) -> &[u32] {
        &self.need_rows
    }

    /// Global indices of target states in the owned block, ascending.
    pub fn owned_targets(&self) -> &[u32] {
        &self.owned_targets
    }

    /// The single α-source state this slice was built for.
    pub fn source(&self) -> usize {
        self.source
    }
}

/// The numeric per-shard state: refilled values, the iterate slice and its
/// halo, and the gather output buffer.  Reused across `s`-points and
/// iterations without allocating.
#[derive(Debug)]
pub struct ShardWorkspace {
    skeleton: Arc<ShardedSkeleton>,
    pool_values: Vec<Complex64>,
    values: Vec<Complex64>,
    /// The owned slice of the current term vector.
    x_owned: Vec<Complex64>,
    /// Halo slots, in `need_rows` order.
    x_halo: Vec<Complex64>,
    y: Vec<Complex64>,
}

impl ShardWorkspace {
    /// Creates a workspace over a shared slice skeleton.
    pub fn new(skeleton: Arc<ShardedSkeleton>) -> ShardWorkspace {
        let owned = skeleton.owned_states();
        let halo = skeleton.need_rows.len();
        let nnz = skeleton.nnz();
        let dists = skeleton.pool.len();
        ShardWorkspace {
            skeleton,
            pool_values: vec![Complex64::ZERO; dists],
            values: vec![Complex64::ZERO; nnz],
            x_owned: vec![Complex64::ZERO; owned],
            x_halo: vec![Complex64::ZERO; halo],
            y: vec![Complex64::ZERO; owned],
        }
    }

    /// The shared slice skeleton.
    pub fn skeleton(&self) -> &ShardedSkeleton {
        &self.skeleton
    }

    /// Numeric phase for one `s`-point: evaluates each pooled LST once and
    /// refills the slice's entry values — the same arithmetic as
    /// `PassageWorkspace::refill`, restricted to this shard's entries.
    pub fn refill(&mut self, s: Complex64) {
        let sk = &*self.skeleton;
        for (slot, dist) in self.pool_values.iter_mut().zip(&sk.pool) {
            *slot = dist.lst(s);
        }
        if sk.uniform_slots {
            for ((value, &dist), &prob) in self
                .values
                .iter_mut()
                .zip(&sk.contrib_dist)
                .zip(&sk.contrib_prob)
            {
                *value = self.pool_values[dist as usize].scale(prob);
            }
        } else {
            for (e, value) in self.values.iter_mut().enumerate() {
                let start = sk.slot_ptr[e] as usize;
                let end = sk.slot_ptr[e + 1] as usize;
                let mut acc =
                    self.pool_values[sk.contrib_dist[start] as usize].scale(sk.contrib_prob[start]);
                for j in start + 1..end {
                    acc += self.pool_values[sk.contrib_dist[j] as usize].scale(sk.contrib_prob[j]);
                }
                *value = acc;
            }
        }
    }

    /// Writes the owned slice of the initial accumulator `term₀ = α·U` (α the
    /// unit vector at the source state): zero, then scatter the source row's
    /// entries — the exact arithmetic of `u.vec_mul_into(α, term)`, whose only
    /// surviving row is the source.  Also clears the halo slots.
    pub fn init(&mut self) {
        let sk = &*self.skeleton;
        for slot in self.x_owned.iter_mut() {
            *slot = Complex64::ZERO;
        }
        for slot in self.x_halo.iter_mut() {
            *slot = Complex64::ZERO;
        }
        let alpha = Complex64::real(1.0);
        for &e in &sk.init_entries {
            // Column index of entry `e`: its bucket in col_ptr.  init_entries
            // is sparse (≤ out-degree of the source), so a binary search per
            // entry is fine.
            let c = sk.col_ptr.partition_point(|&p| p <= e) - 1;
            self.x_owned[c] += self.values[e as usize] * alpha;
        }
    }

    /// Installs a round's halo: zeroes all halo slots, then writes the
    /// received `(global row, value)` entries.  Rows absent from the message
    /// held exact zeros at their owner (elided on the wire); the step skips
    /// exact-zero iterate entries anyway, so elision is bitwise-neutral.
    ///
    /// Returns an error for a row this shard never subscribed to (a protocol
    /// violation, not a numeric condition).
    pub fn apply_halo(&mut self, entries: &[(u32, Complex64)]) -> Result<(), SmpError> {
        for slot in self.x_halo.iter_mut() {
            *slot = Complex64::ZERO;
        }
        for &(row, value) in entries {
            let pos = self.skeleton.need_rows.binary_search(&row).map_err(|_| {
                SmpError::StateOutOfRange {
                    state: row as usize,
                    num_states: self.skeleton.num_states,
                }
            })?;
            self.x_halo[pos] = value;
        }
        Ok(())
    }

    /// One `term ← term · U'` step for the owned block: gathers each owned
    /// column from the current iterate (owned slice + halo), skipping masked
    /// rows and exact-zero iterate entries — the identical accumulation
    /// sequence as the sequential full-scan masked scatter restricted to
    /// these columns (see the module docs).  The halo must have been applied
    /// for this round first.
    pub fn step(&mut self) {
        let sk = &*self.skeleton;
        let owned = sk.owned_states();
        for (c, out) in self.y.iter_mut().enumerate() {
            let start = sk.col_ptr[c] as usize;
            let end = sk.col_ptr[c + 1] as usize;
            let mut acc = Complex64::ZERO;
            for e in start..end {
                let slot = sk.entry_x[e];
                if slot == SKIP {
                    continue;
                }
                let xr = if (slot as usize) < owned {
                    self.x_owned[slot as usize]
                } else {
                    self.x_halo[slot as usize - owned]
                };
                if xr.is_zero() {
                    continue;
                }
                acc += self.values[e] * xr;
            }
            *out = acc;
        }
        std::mem::swap(&mut self.x_owned, &mut self.y);
    }

    /// Folds this shard's target-state values of the current term into `acc`
    /// (ascending state order).  Calling this per shard in shard order
    /// reproduces `PassageSkeleton::dot_e`'s exact summation sequence.
    pub fn fold_targets(&self, acc: &mut Complex64) {
        let sk = &*self.skeleton;
        for &t in &sk.owned_targets {
            *acc += self.x_owned[t as usize - sk.lo];
        }
    }

    /// Pushes this shard's target-state values of the current term, ascending
    /// — the wire form of [`ShardWorkspace::fold_targets`]: the master folds
    /// the shipped values in the same order with the same `+=`.
    pub fn collect_targets(&self, out: &mut Vec<Complex64>) {
        let sk = &*self.skeleton;
        for &t in &sk.owned_targets {
            out.push(self.x_owned[t as usize - sk.lo]);
        }
    }

    /// Publishes the current term values at the requested owned rows,
    /// eliding exact zeros (receivers skip them regardless — see
    /// [`ShardWorkspace::apply_halo`]).  `rows` must be ascending owned
    /// indices; the output preserves that order.
    pub fn export_values(&self, rows: &[u32], out: &mut Vec<(u32, Complex64)>) {
        let lo = self.skeleton.lo;
        for &r in rows {
            let v = self.x_owned[r as usize - lo];
            if !v.is_zero() {
                out.push((r, v));
            }
        }
    }

    /// Whether this shard's slice of the term has gone quiet under `epsilon`
    /// — the per-element legacy test; AND the shards' verdicts for the
    /// whole-vector answer.
    pub fn is_quiet(&self, epsilon: f64) -> bool {
        term_is_quiet(self.x_owned.iter().copied(), epsilon)
    }

    /// The owned slice of the current term vector (tests and diagnostics).
    pub fn owned_term(&self) -> &[Complex64] {
        &self.x_owned
    }

    /// Appends the nonzero entries of the owned term slice keyed by *global*
    /// row, ascending — the shard-layout-independent snapshot form used by
    /// crash checkpoints.  A pure read: calling it at any cadence cannot
    /// perturb the iteration.  Exact zeros are elided (the restore side
    /// zero-fills first), mirroring [`ShardWorkspace::export_values`].
    pub fn save_term(&self, out: &mut Vec<(u32, Complex64)>) {
        let lo = self.skeleton.lo;
        for (offset, &v) in self.x_owned.iter().enumerate() {
            if !v.is_zero() {
                out.push(((lo + offset) as u32, v));
            }
        }
    }

    /// Overwrites the owned term slice from snapshot entries keyed by global
    /// row: all owned slots are zeroed, then each entry falling in this
    /// shard's row range is written (entries owned by other shards are
    /// skipped, so every shard can be handed the full global snapshot).  The
    /// halo is zeroed too — the next round's [`ShardWorkspace::apply_halo`]
    /// rebuilds it from the resumed exchange.
    ///
    /// Returns an error for a row at or beyond the state count (a corrupted
    /// snapshot, not a numeric condition).
    pub fn load_term(&mut self, entries: &[(u32, Complex64)]) -> Result<(), SmpError> {
        let sk = &*self.skeleton;
        let lo = sk.lo;
        let owned = sk.owned_states();
        for slot in self.x_owned.iter_mut() {
            *slot = Complex64::ZERO;
        }
        for slot in self.x_halo.iter_mut() {
            *slot = Complex64::ZERO;
        }
        for &(row, value) in entries {
            let row = row as usize;
            if row >= sk.num_states {
                return Err(SmpError::StateOutOfRange {
                    state: row,
                    num_states: sk.num_states,
                });
            }
            if row >= lo && row < lo + owned {
                self.x_owned[row - lo] = value;
            }
        }
        Ok(())
    }
}

/// The master-side halo routing for one sharded session: which owned rows
/// each shard must publish every round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangePlan {
    exports: Vec<Vec<u32>>,
}

impl ExchangePlan {
    /// The ascending owned rows shard `k` must publish each round.
    pub fn exports(&self, k: usize) -> &[u32] {
        &self.exports[k]
    }

    /// Total subscribed boundary rows across all shards (diagnostics).
    pub fn total_exports(&self) -> usize {
        self.exports.iter().map(Vec::len).sum()
    }
}

/// Computes the exchange routing from every shard's halo subscription
/// (`needs[k]` = shard `k`'s [`ShardedSkeleton::need_rows`]): shard `k`'s
/// export list is the sorted union of the rows it owns across all other
/// shards' needs.
pub fn plan_exchange(num_states: usize, shards: usize, needs: &[&[u32]]) -> ExchangePlan {
    assert_eq!(needs.len(), shards, "one need list per shard");
    let mut exports: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for need in needs {
        for &r in *need {
            exports[owner_of(num_states, shards, r as usize)].push(r);
        }
    }
    for list in exports.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    ExchangePlan { exports }
}

/// An in-process lockstep driver over all shards of one passage measure: the
/// executable specification of the distributed protocol, bitwise identical to
/// `PassageTimeSolver::transform_at` for every shard count.
///
/// The distributed transport in `smp-pipeline` runs the same slices behind
/// wire frames; its conformance tests solve through this driver (and through
/// the unsharded solver) as the oracle.
pub struct ShardedSolver {
    options: IterationOptions,
    slices: Vec<ShardWorkspace>,
    plan: ExchangePlan,
    num_states: usize,
    shards: usize,
    exports: Vec<Vec<(u32, Complex64)>>,
    halos: Vec<Vec<(u32, Complex64)>>,
}

impl ShardedSolver {
    /// Builds `shards` slices for the passage from single source `source`
    /// into `targets`, with explicit convergence options.
    pub fn new(
        smp: &SemiMarkovProcess,
        source: usize,
        targets: &[usize],
        options: IterationOptions,
        shards: usize,
    ) -> Result<ShardedSolver, SmpError> {
        assert!(shards >= 1, "shard count must be at least 1");
        let n = smp.num_states();
        if source >= n {
            return Err(SmpError::StateOutOfRange {
                state: source,
                num_states: n,
            });
        }
        let target_set = StateSet::new(n, targets)?;
        if target_set.is_empty() {
            return Err(SmpError::EmptyStateSet { which: "target" });
        }
        let slices: Vec<ShardWorkspace> = (0..shards)
            .map(|k| {
                ShardWorkspace::new(Arc::new(ShardedSkeleton::build(
                    smp,
                    &target_set,
                    source,
                    shards,
                    k,
                )))
            })
            .collect();
        let needs: Vec<&[u32]> = slices.iter().map(|ws| ws.skeleton().need_rows()).collect();
        let plan = plan_exchange(n, shards, &needs);
        Ok(ShardedSolver {
            options,
            slices,
            plan,
            num_states: n,
            shards,
            exports: vec![Vec::new(); shards],
            halos: vec![Vec::new(); shards],
        })
    }

    /// The per-shard slices (diagnostics: owned states, nnz, pool sizes).
    pub fn slices(&self) -> &[ShardWorkspace] {
        &self.slices
    }

    /// The exchange routing in use.
    pub fn plan(&self) -> &ExchangePlan {
        &self.plan
    }

    /// Publishes every shard's boundary values and assembles each shard's
    /// halo for the coming round.
    fn exchange(&mut self) {
        for (k, ws) in self.slices.iter().enumerate() {
            self.exports[k].clear();
            ws.export_values(self.plan.exports(k), &mut self.exports[k]);
        }
        for (k, ws) in self.slices.iter().enumerate() {
            let halo = &mut self.halos[k];
            halo.clear();
            for &r in ws.skeleton().need_rows() {
                let owner = owner_of(self.num_states, self.shards, r as usize);
                if let Ok(pos) = self.exports[owner].binary_search_by_key(&r, |&(row, _)| row) {
                    halo.push(self.exports[owner][pos]);
                }
            }
        }
    }

    /// Evaluates the α-weighted passage-time transform at one `s`-point
    /// through the sharded iteration — bitwise identical to
    /// `PassageTimeSolver::transform_at` for any shard count.
    pub fn transform_at(&mut self, s: Complex64) -> Result<PassagePoint, SmpError> {
        for ws in self.slices.iter_mut() {
            ws.refill(s);
            ws.init();
        }
        let mut initial = Complex64::ZERO;
        for ws in &self.slices {
            ws.fold_targets(&mut initial);
        }
        let mut fold = ConvergenceFold::new(self.options, initial);
        for r in 1..=self.options.max_iterations {
            self.exchange();
            for (k, ws) in self.slices.iter_mut().enumerate() {
                ws.apply_halo(&self.halos[k])
                    .expect("planned halo rows are always subscribed");
                ws.step();
            }
            let mut delta = Complex64::ZERO;
            let mut quiet = true;
            for ws in &self.slices {
                ws.fold_targets(&mut delta);
                quiet &= ws.is_quiet(self.options.epsilon);
            }
            if let FoldStatus::Converged(value) = fold.push(delta, || quiet) {
                return Ok(PassagePoint {
                    value,
                    iterations: r,
                });
            }
        }
        Err(SmpError::ConvergenceFailure {
            s: (s.re, s.im),
            iterations: self.options.max_iterations,
            last_delta: fold.last_delta(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passage::PassageTimeSolver;
    use crate::smp::SmpBuilder;
    use smp_distributions::Dist;

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

    fn random_smp(n: usize, seed: u64) -> SemiMarkovProcess {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = SmpBuilder::new(n);
        for i in 0..n {
            b.add_transition(
                i,
                (i + 1) % n,
                rng.gen_range(0.5..2.0),
                Dist::exponential(rng.gen_range(0.5..3.0)),
            );
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
        b.build().unwrap()
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
    fn bounds_partition_the_state_space() {
        for n in [0usize, 1, 3, 7, 100, 101] {
            for shards in 1..=6usize {
                let mut cursor = 0;
                for k in 0..shards {
                    let (lo, hi) = shard_bounds(n, shards, k);
                    assert_eq!(lo, cursor, "n={n} shards={shards} k={k}");
                    assert!(hi >= lo);
                    cursor = hi;
                }
                assert_eq!(cursor, n);
                // Block sizes differ by at most one.
                let sizes: Vec<usize> = (0..shards)
                    .map(|k| {
                        let (lo, hi) = shard_bounds(n, shards, k);
                        hi - lo
                    })
                    .collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} shards={shards} sizes={sizes:?}");
                // owner_of inverts the bounds.
                for row in 0..n {
                    let owner = owner_of(n, shards, row);
                    let (lo, hi) = shard_bounds(n, shards, owner);
                    assert!(lo <= row && row < hi);
                }
            }
        }
    }

    #[test]
    fn slices_cover_the_full_structure() {
        let smp = random_smp(17, 5);
        let targets = StateSet::new(17, &[3, 11]).unwrap();
        let full_nnz = smp.build_u(Complex64::new(0.5, 0.5)).nnz();
        for shards in 1..=4usize {
            let slices: Vec<ShardedSkeleton> = (0..shards)
                .map(|k| ShardedSkeleton::build(&smp, &targets, 0, shards, k))
                .collect();
            let states: usize = slices.iter().map(ShardedSkeleton::owned_states).sum();
            let nnz: usize = slices.iter().map(ShardedSkeleton::nnz).sum();
            assert_eq!(states, 17);
            assert_eq!(nnz, full_nnz, "shards={shards}");
            let max_owned = slices.iter().map(ShardedSkeleton::owned_states).max();
            assert_eq!(max_owned, Some(17usize.div_ceil(shards)));
        }
    }

    #[test]
    fn sharded_solve_is_bitwise_identical_for_any_shard_count() {
        for (smp, source, targets) in [
            (duplicate_edge_smp(), 0usize, vec![2usize]),
            (random_smp(23, 7), 1, vec![22]),
            (random_smp(40, 11), 0, vec![19, 37]),
        ] {
            let reference = PassageTimeSolver::new(&smp, &[source], &targets).unwrap();
            for shards in 1..=4usize {
                let mut sharded =
                    ShardedSolver::new(&smp, source, &targets, IterationOptions::default(), shards)
                        .unwrap();
                for s in test_points() {
                    let want = reference.transform_at(s).unwrap();
                    let got = sharded.transform_at(s).unwrap();
                    assert_eq!(got.value, want.value, "shards={shards} s={s}");
                    assert_eq!(got.iterations, want.iterations, "shards={shards} s={s}");
                }
            }
        }
    }

    #[test]
    fn cycle_time_with_masked_source_stays_bitwise() {
        // Source == target: the source row is masked, so its α·U init entries
        // come from a masked row — the one case where a skipped step entry is
        // still read at init.
        let smp = random_smp(12, 3);
        let reference = PassageTimeSolver::new(&smp, &[4], &[4]).unwrap();
        for shards in 1..=4usize {
            let mut sharded =
                ShardedSolver::new(&smp, 4, &[4], IterationOptions::default(), shards).unwrap();
            for s in test_points() {
                let want = reference.transform_at(s).unwrap();
                let got = sharded.transform_at(s).unwrap();
                assert_eq!(got.value, want.value, "shards={shards} s={s}");
                assert_eq!(got.iterations, want.iterations);
            }
        }
    }

    #[test]
    fn more_shards_than_states_leaves_trailing_shards_empty() {
        let smp = duplicate_edge_smp();
        let reference = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        let mut sharded =
            ShardedSolver::new(&smp, 0, &[2], IterationOptions::default(), 5).unwrap();
        assert!(sharded
            .slices()
            .iter()
            .any(|ws| ws.skeleton().owned_states() == 0));
        let s = Complex64::new(0.8, 1.2);
        let want = reference.transform_at(s).unwrap();
        let got = sharded.transform_at(s).unwrap();
        assert_eq!(got.value, want.value);
        assert_eq!(got.iterations, want.iterations);
    }

    #[test]
    fn unfaithful_points_fall_back_to_the_legacy_path() {
        // A deterministic holding time with Re(s)·d past ~745 underflows
        // e^{-s·d} to exact zero: build_u drops the entry structurally, the
        // slice keeps a slot holding zero — and the sharded kernel itself
        // must still equal the build-per-point oracle bit for bit (the name
        // dates from when such points were re-solved through the oracle).
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::deterministic(1.0));
        b.add_transition(1, 2, 1.0, Dist::exponential(2.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        let smp = b.build().unwrap();
        let s = Complex64::new(800.0, 0.0);
        let reference = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
        for shards in 1..=3usize {
            let mut sharded =
                ShardedSolver::new(&smp, 0, &[2], IterationOptions::default(), shards).unwrap();
            for ws in sharded.slices.iter_mut() {
                ws.refill(s);
            }
            assert!(
                sharded
                    .slices
                    .iter()
                    .any(|ws| ws.values.iter().any(|v| v.is_zero())),
                "the point solved must be an underflow point"
            );
            let want = reference.transform_at_legacy(s).unwrap();
            let got = sharded.transform_at(s).unwrap();
            assert_eq!(got.value, want.value, "shards={shards}");
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(reference.transform_at(s).unwrap(), want);
        }
    }

    #[test]
    fn exchange_plan_matches_subscriptions() {
        let smp = random_smp(20, 9);
        let targets = StateSet::new(20, &[19]).unwrap();
        let shards = 3;
        let slices: Vec<ShardedSkeleton> = (0..shards)
            .map(|k| ShardedSkeleton::build(&smp, &targets, 0, shards, k))
            .collect();
        let needs: Vec<&[u32]> = slices.iter().map(|s| s.need_rows()).collect();
        let plan = plan_exchange(20, shards, &needs);
        for (k, slice) in slices.iter().enumerate() {
            let (lo, hi) = shard_bounds(20, shards, k);
            // Every export row is owned by its shard and demanded by someone.
            for &r in plan.exports(k) {
                assert!((lo..hi).contains(&(r as usize)));
                assert!(needs.iter().any(|need| need.contains(&r)));
            }
            // Every subscribed row appears in its owner's export list.
            for &r in slice.need_rows() {
                let owner = owner_of(20, shards, r as usize);
                assert_ne!(owner, k, "need rows are external");
                assert!(plan.exports(owner).contains(&r));
            }
        }
    }
}
