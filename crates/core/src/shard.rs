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
//! * [`ShardedSkeleton`] — one shard's symbolic slice: the row-major
//!   restriction of the memoized `U`-structure to the kernel entries that
//!   *land in* its owned columns (the row-vector iteration `term ← term · U'`
//!   writes column `c`, so the shard owning `c` stores column `c`'s entries),
//!   the recipe table and LST pool restricted to those entries, and the
//!   sorted list of external rows whose iterate values the shard needs each
//!   round ([`ShardedSkeleton::need_rows`]).
//! * [`ShardWorkspace`] — the numeric per-shard state: refill the value table
//!   in place per `s`-point, apply a received halo, take one scatter step.
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
//! ascending order, so output column `c` accumulates `+0 += v·x_r` over its
//! entries in ascending row order.  A slice is the same scatter restricted to
//! its columns: it visits the rows that reach an owned column in the same
//! order with the same skipped-zero rules (`x_r` exactly zero, or `r`
//! masked), through the same inner loop (`workspace::scatter_row` at one
//! lane), into an output zeroed to `+0` — the identical floating-point
//! sequence per column.  Halo values are shipped bit-exactly (the wire codec
//! is the `f64`-bit-pattern codec), zero values are elided on the wire
//! because both sides skip exact zeros anyway, and the convergence fold sums
//! shard target-slices in shard order = ascending state order, matching
//! `PassageSkeleton::dot_e`.
//!
//! Exact-zero kernel entries (an LST underflowing at `Re(s)·delay ≳ 745`)
//! are therefore bitwise-neutral on a slice for the reason `crate::workspace`
//! gives for the unsharded kernel, and underflow points run on the shards
//! like every other point; an owned value that is `+0` only because its
//! entries underflowed is elided from the halo like any other zero.

use crate::error::SmpError;
use crate::passage::{term_is_quiet, ConvergenceFold, FoldStatus, IterationOptions, PassagePoint};
use crate::smp::{SemiMarkovProcess, StateSet};
use crate::workspace::{all_zero, fill_table, lane, scatter_row, splat, Lanes, RecipeTable};
use smp_distributions::Dist;
use smp_numeric::Complex64;
use smp_sparse::Scalar;
use std::sync::Arc;

/// Sentinel iterate slot of a masked row (a target state): the step skips
/// it, exactly as the full masked scatter skips masked rows, and init never
/// reads the iterate at all.
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
/// afterwards — it holds its own (restricted, re-indexed) recipe table and
/// distribution pool, so a worker process can drop the full model once its
/// slice is built.  That is the memory claim of the distributed layer: the
/// resident per-point state is `O(nnz(slice) + N/S)` — eight bytes of index
/// per kernel entry, values per recipe — not `O(nnz(U) + N)`.
#[derive(Debug)]
pub struct ShardedSkeleton {
    num_states: usize,
    lo: usize,
    hi: usize,
    /// Iterate slot of each row of `U` that has an entry in the owned
    /// columns, rows ascending — the order the sequential scatter visits
    /// them in: `< owned` = owned block, `>= owned` = halo slot, [`SKIP`] =
    /// masked row.
    row_x: Vec<u32>,
    /// The slots of the `i`-th such row are `row_ptr[i] .. row_ptr[i + 1]` of
    /// `slot_recipe` / `slot_col`, columns ascending.
    row_ptr: Vec<u32>,
    /// Recipe id (into `recipes`) and local column of each kernel entry.
    slot_recipe: Vec<u32>,
    slot_col: Vec<u32>,
    /// The recipes and distributions this slice references, re-indexed
    /// densely in order of first appearance (`recipes` holds local pool ids).
    recipes: RecipeTable,
    pool: Vec<Dist>,
    /// External (other-shard) unmasked rows whose iterate values the step
    /// reads, ascending — the shard's halo subscription.
    need_rows: Vec<u32>,
    /// The α-source's position among the rows above, when it reaches an
    /// owned column — the slice of the `α·U` initialisation.
    source_row: Option<usize>,
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
        let structure = smp.u_structure();
        let mask = targets.mask();
        let mut slice = ShardedSkeleton {
            num_states: n,
            lo,
            hi,
            row_x: Vec::new(),
            row_ptr: vec![0],
            slot_recipe: Vec::new(),
            slot_col: Vec::new(),
            recipes: RecipeTable::new(),
            pool: Vec::new(),
            need_rows: Vec::new(),
            source_row: None,
            owned_targets: (lo..hi).filter(|&t| mask[t]).map(|t| t as u32).collect(),
        };
        // Local ids of the recipes and distributions met so far, by global id.
        let mut local_recipe = vec![u32::MAX; structure.recipes.len()];
        let mut local_dist = vec![u32::MAX; smp.num_distributions()];
        for (r, &masked) in mask.iter().enumerate() {
            let (ids, cols) = structure.row(r);
            // Columns are sorted within the row: the owned range is one
            // contiguous run of entries.
            let start = cols.partition_point(|&c| (c as usize) < lo);
            let end = cols.partition_point(|&c| (c as usize) < hi);
            if start == end {
                continue;
            }
            if r == source {
                slice.source_row = Some(slice.row_x.len());
            }
            slice.row_x.push(if masked {
                SKIP
            } else if (lo..hi).contains(&r) {
                (r - lo) as u32
            } else {
                slice.need_rows.push(r as u32);
                (hi - lo + slice.need_rows.len() - 1) as u32
            });
            for (&id, &c) in ids[start..end].iter().zip(&cols[start..end]) {
                if local_recipe[id as usize] == u32::MAX {
                    let (dists, probs) = structure.recipes.get(id as usize);
                    let pool = &mut slice.pool;
                    let contributions = dists.iter().zip(probs).map(|(&dist, &prob)| {
                        let local = &mut local_dist[dist as usize];
                        if *local == u32::MAX {
                            *local = pool.len() as u32;
                            pool.push(smp.distribution(dist).clone());
                        }
                        (*local, prob)
                    });
                    local_recipe[id as usize] = slice.recipes.push(contributions);
                }
                slice.slot_recipe.push(local_recipe[id as usize]);
                slice.slot_col.push(c - lo as u32);
            }
            slice.row_ptr.push(slice.slot_col.len() as u32);
        }
        slice
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
        self.slot_col.len()
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

    /// The recipe ids and local columns of the `i`-th stored row's slots.
    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[u32]) {
        let (start, end) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.slot_recipe[start..end], &self.slot_col[start..end])
    }
}

/// The numeric per-shard state: the refilled value table, the iterate slice
/// and its halo, and the scatter output buffer.  Reused across `s`-points and
/// iterations without allocating.
#[derive(Debug)]
pub struct ShardWorkspace {
    skeleton: Arc<ShardedSkeleton>,
    pool_values: Vec<Lanes<1>>,
    table: Vec<Lanes<1>>,
    /// The owned slice of the current term vector.
    x_owned: Vec<Lanes<1>>,
    /// Halo slots, in `need_rows` order.
    x_halo: Vec<Lanes<1>>,
    y: Vec<Lanes<1>>,
}

const ZERO: Lanes<1> = [[0.0]; 2];

impl ShardWorkspace {
    /// Creates a workspace over a shared slice skeleton.
    pub fn new(skeleton: Arc<ShardedSkeleton>) -> ShardWorkspace {
        let owned = skeleton.owned_states();
        ShardWorkspace {
            pool_values: vec![ZERO; skeleton.pool.len()],
            table: vec![ZERO; skeleton.recipes.len()],
            x_owned: vec![ZERO; owned],
            x_halo: vec![ZERO; skeleton.need_rows.len()],
            y: vec![ZERO; owned],
            skeleton,
        }
    }

    /// The shared slice skeleton.
    pub fn skeleton(&self) -> &ShardedSkeleton {
        &self.skeleton
    }

    /// Numeric phase for one `s`-point: evaluates each pooled LST once and
    /// refills the slice's value table — the table fill of
    /// `PassageWorkspace::refill`, over this shard's recipes.
    pub fn refill(&mut self, s: Complex64) {
        let sk = &*self.skeleton;
        fill_table(
            &sk.pool,
            &sk.recipes,
            &[s],
            &mut self.pool_values,
            &mut self.table,
        );
    }

    /// Writes the owned slice of the initial accumulator `term₀ = α·U` (α the
    /// unit vector at the source state): zero, then scatter the source row's
    /// entries — the exact arithmetic of `u.vec_mul_into(α, term)`, whose only
    /// surviving row is the source (read even when it is masked: the leading
    /// `U` of Eq. 9/10 is unmasked).  Also clears the halo slots.
    pub fn init(&mut self) {
        let sk = &*self.skeleton;
        self.x_owned.fill(ZERO);
        self.x_halo.fill(ZERO);
        if let Some(i) = sk.source_row {
            let (ids, cols) = sk.row(i);
            let alpha = splat(Complex64::real(1.0));
            scatter_row(&mut self.x_owned, &self.table, ids, cols, alpha);
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
        self.x_halo.fill(ZERO);
        for &(row, value) in entries {
            let pos = self.skeleton.need_rows.binary_search(&row).map_err(|_| {
                SmpError::StateOutOfRange {
                    state: row as usize,
                    num_states: self.skeleton.num_states,
                }
            })?;
            self.x_halo[pos] = splat(value);
        }
        Ok(())
    }

    /// One `term ← term · U'` step for the owned block: scatters each stored
    /// row from the current iterate (owned slice + halo) into the owned
    /// columns, skipping masked rows and exact-zero iterate entries — the
    /// sequential full-scan masked scatter restricted to these columns (see
    /// the module docs).  The halo must have been applied for this round
    /// first.
    pub fn step(&mut self) {
        let sk = &*self.skeleton;
        let owned = self.x_owned.len();
        self.y.fill(ZERO);
        for (i, &slot) in sk.row_x.iter().enumerate() {
            if slot == SKIP {
                continue;
            }
            let x = match (slot as usize).checked_sub(owned) {
                None => self.x_owned[slot as usize],
                Some(halo) => self.x_halo[halo],
            };
            if all_zero(&x) {
                continue;
            }
            let (ids, cols) = sk.row(i);
            scatter_row(&mut self.y, &self.table, ids, cols, x);
        }
        std::mem::swap(&mut self.x_owned, &mut self.y);
    }

    /// The current term value at global row `row` of the owned block.
    fn term_at(&self, row: u32) -> Complex64 {
        lane(&self.x_owned[row as usize - self.skeleton.lo], 0)
    }

    /// Folds this shard's target-state values of the current term into `acc`
    /// (ascending state order).  Calling this per shard in shard order
    /// reproduces `PassageSkeleton::dot_e`'s exact summation sequence.
    pub(crate) fn fold_targets(&self, acc: &mut Complex64) {
        for &t in &self.skeleton.owned_targets {
            *acc += self.term_at(t);
        }
    }

    /// Pushes this shard's target-state values of the current term, ascending
    /// — the wire form of `ShardWorkspace::fold_targets`: the master folds
    /// the shipped values in the same order with the same `+=`.
    pub fn collect_targets(&self, out: &mut Vec<Complex64>) {
        out.extend(self.skeleton.owned_targets.iter().map(|&t| self.term_at(t)));
    }

    /// Publishes the current term values at the requested owned rows,
    /// eliding exact zeros (receivers skip them regardless — see
    /// [`ShardWorkspace::apply_halo`]).  `rows` must be ascending owned
    /// indices; the output preserves that order.
    pub fn export_values(&self, rows: &[u32], out: &mut Vec<(u32, Complex64)>) {
        for &r in rows {
            let v = self.term_at(r);
            if !v.is_zero() {
                out.push((r, v));
            }
        }
    }

    /// Whether this shard's slice of the term has gone quiet under `epsilon`
    /// — the per-element legacy test; AND the shards' verdicts for the
    /// whole-vector answer.
    pub fn is_quiet(&self, epsilon: f64) -> bool {
        term_is_quiet(self.x_owned.iter().map(|x| lane(x, 0)), epsilon)
    }

    /// Appends the nonzero entries of the owned term slice keyed by *global*
    /// row, ascending — the shard-layout-independent snapshot form used by
    /// crash checkpoints.  A pure read: calling it at any cadence cannot
    /// perturb the iteration.  Exact zeros are elided (the restore side
    /// zero-fills first), mirroring [`ShardWorkspace::export_values`].
    pub fn save_term(&self, out: &mut Vec<(u32, Complex64)>) {
        let lo = self.skeleton.lo;
        for (offset, x) in self.x_owned.iter().enumerate() {
            if !all_zero(x) {
                out.push(((lo + offset) as u32, lane(x, 0)));
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
        self.x_owned.fill(ZERO);
        self.x_halo.fill(ZERO);
        for &(row, value) in entries {
            let row = row as usize;
            if row >= sk.num_states {
                return Err(SmpError::StateOutOfRange {
                    state: row,
                    num_states: sk.num_states,
                });
            }
            if (sk.lo..sk.hi).contains(&row) {
                self.x_owned[row - sk.lo] = splat(value);
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

    /// One lockstep round: publishes every shard's boundary values, assembles
    /// each shard's halo from them, then steps every shard.
    fn round(&mut self) {
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
        for (ws, halo) in self.slices.iter_mut().zip(&self.halos) {
            ws.apply_halo(halo)
                .expect("planned halo rows are always subscribed");
            ws.step();
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
            self.round();
            let mut delta = Complex64::ZERO;
            let mut quiet = true;
            for ws in &self.slices {
                ws.fold_targets(&mut delta);
                quiet &= ws.is_quiet(self.options.epsilon);
            }
            match fold.push(delta, || quiet) {
                FoldStatus::Continue => {}
                FoldStatus::Converged(value) => {
                    return Ok(PassagePoint {
                        value,
                        iterations: r,
                    })
                }
                FoldStatus::Diverged => return Err(fold.failure(s, r)),
            }
        }
        Err(fold.failure(s, self.options.max_iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passage::PassageTimeSolver;
    use crate::smp::SmpBuilder;
    use crate::workspace::{PassageSkeleton, PassageWorkspace};

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
            // The restricted pools together hold exactly the model's
            // distributions, each slice's without repeats.
            let pooled: Vec<&Dist> = slices.iter().flat_map(|slice| &slice.pool).collect();
            assert!(pooled.iter().all(|dist| smp.distributions().contains(dist)));
            assert!(smp.distributions().iter().all(|d| pooled.contains(&d)));
            for pool in slices.iter().map(|slice| &slice.pool) {
                assert!((0..pool.len()).all(|i| !pool[..i].contains(&pool[i])));
            }
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
            .slices
            .iter()
            .any(|ws| ws.skeleton().owned_states() == 0));
        let s = Complex64::new(0.8, 1.2);
        let want = reference.transform_at(s).unwrap();
        let got = sharded.transform_at(s).unwrap();
        assert_eq!(got.value, want.value);
        assert_eq!(got.iterations, want.iterations);
    }

    /// Every round, not only the converged value: each slice's owned term is
    /// rows `lo..hi` of the single-lane kernel's term, bit for bit (signed
    /// zeros included) — with duplicate edges, with a masked source row (read
    /// at `init` only), and at a point where a kernel entry underflows to
    /// exact zero.
    #[test]
    fn every_round_of_every_slice_is_the_unsharded_term_bitwise() {
        let bits = |c: Complex64| (c.re.to_bits(), c.im.to_bits());
        let underflow = Complex64::new(800.0, 0.0);
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 1.0, Dist::deterministic(1.0));
        b.add_transition(1, 2, 1.0, Dist::exponential(2.0));
        b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
        let underflow_smp = b.build().unwrap();
        assert!(
            underflow_smp.build_u(underflow).nnz() < 3,
            "e^(-800) is zero"
        );
        for (smp, source, target) in [
            (duplicate_edge_smp(), 0usize, 2usize),
            (random_smp(12, 3), 4, 4),
            (underflow_smp, 0, 2),
        ] {
            let n = smp.num_states();
            let targets = StateSet::new(n, &[target]).unwrap();
            let mut full = PassageWorkspace::new(Arc::new(PassageSkeleton::build(&smp, &targets)));
            for shards in [1, 2, 3, n + 1] {
                let options = IterationOptions::default();
                let mut sharded =
                    ShardedSolver::new(&smp, source, &[target], options, shards).unwrap();
                let nnz: usize = sharded.slices.iter().map(|ws| ws.skeleton.nnz()).sum();
                assert_eq!(nnz, full.skeleton().nnz(), "shards={shards}");
                for s in test_points().into_iter().chain([underflow]) {
                    full.refill(&smp, s);
                    let mut kernel = full.kernel::<1>();
                    kernel.begin(&[(source, 1.0)]);
                    for ws in sharded.slices.iter_mut() {
                        ws.refill(s);
                        ws.init();
                    }
                    for round in 0..=40 {
                        if round > 0 {
                            kernel.step();
                            sharded.round();
                        }
                        let want: Vec<_> = kernel.term().iter().map(|x| bits(lane(x, 0))).collect();
                        for ws in &sharded.slices {
                            let (lo, hi) = (ws.skeleton.lo, ws.skeleton.hi);
                            let got: Vec<_> = ws.x_owned.iter().map(|x| bits(lane(x, 0))).collect();
                            assert_eq!(got, want[lo..hi], "shards={shards} s={s} round={round}");
                        }
                    }
                }
            }
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
