//! The semi-Markov process kernel.
//!
//! A time-homogeneous SMP over states `{0, …, N−1}` is described by its kernel
//! `R(i,j,t) = p_ij · H_ij(t)` (Section 2.1 of the paper): `p_ij` is the embedded
//! state-transition probability and `H_ij` the sojourn-time distribution used when
//! the next state is `j`.  [`SemiMarkovProcess`] stores the kernel flat, as one
//! CSR: `u32` row offsets into a single array of 16-byte [`Transition`]s
//! (`u32` target, pooled distribution id, `f64` probability), each row in push
//! order, with holding-time distributions de-duplicated into a shared pool.
//! Nothing is allocated per state, so a process has at most `u32::MAX` states
//! and transitions ([`SmpError::TooLarge`] refuses more).  It knows how to
//! materialise the Laplace-domain matrices used by the passage-time iteration:
//!
//! * `U`  with entries `u_pq  = r*_pq(s) = p_pq · H*_pq(s)`;
//! * `U'` equal to `U` with the rows of target states zeroed (targets made
//!   absorbing).

use crate::embedded::EmbeddedChain;
use crate::error::SmpError;
use crate::unpoisoned;
use smp_distributions::Dist;
use smp_numeric::Complex64;
use smp_sparse::{CsrMatrix, TripletMatrix};
use std::sync::{Arc, Mutex};

/// Identifier of a distribution in the de-duplicated pool.
pub type DistId = u32;

/// One outgoing transition of the SMP kernel: a target, a probability and a
/// holding-time distribution id, the `(P, H)` pair of one kernel entry, in
/// 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Destination state.
    pub target: u32,
    /// Index of the holding-time distribution in the process's pool.
    pub dist: DistId,
    /// Embedded transition probability `p_ij` (normalised over the source state).
    pub probability: f64,
}

/// The most states — and transitions — a process may have: state numbers and
/// row offsets are `u32`, and `u32::MAX` numbers no state.
const MAX_INDEX: usize = u32::MAX as usize;

/// `n` as a `u32` state number or row offset.  It saturates at `u32::MAX`,
/// which [`SmpBuilder::build`] refuses as a count and never accepts as a
/// state, so a saturated value is never read.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// Where row `k` of a CSR with these row offsets lies in its entry array.
fn row_span(offsets: &[u32], k: usize) -> std::ops::Range<usize> {
    offsets[k] as usize..offsets[k + 1] as usize
}

/// A set of states, stored both as a membership mask (O(1) lookups during the
/// iteration) and as an index list (cheap iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct StateSet {
    mask: Vec<bool>,
    indices: Vec<usize>,
}

impl StateSet {
    /// Builds a state set from a list of indices.
    ///
    /// Duplicates are ignored; indices must be below `num_states`.
    pub fn new(num_states: usize, states: &[usize]) -> Result<Self, SmpError> {
        let mut mask = vec![false; num_states];
        let mut indices = Vec::with_capacity(states.len());
        for &s in states {
            if s >= num_states {
                return Err(SmpError::StateOutOfRange {
                    state: s,
                    num_states,
                });
            }
            if !mask[s] {
                mask[s] = true;
                indices.push(s);
            }
        }
        Ok(StateSet { mask, indices })
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, state: usize) -> bool {
        self.mask[state]
    }

    /// The member indices, in insertion order.
    pub(crate) fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The membership mask over all states.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Number of member states.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// A finite, time-homogeneous semi-Markov process.
///
/// Cloning is cheap on the solver state: the memoized embedded-chain solve
/// (see [`SemiMarkovProcess::embedded_chain`]) is shared between clones, so a
/// clone of an already-analysed process never re-runs the steady-state solver.
#[derive(Debug, Clone)]
pub struct SemiMarkovProcess {
    /// State `i`'s transitions are `transitions[row_offsets[i]..row_offsets[i + 1]]`.
    row_offsets: Vec<u32>,
    /// Every state's transitions, row after row, each row in push order.
    transitions: Vec<Transition>,
    dist_pool: Vec<Dist>,
    /// Lazily-memoized stationary solve of the embedded DTMC: every
    /// `PassageTimeSolver` (passage or transient) built over this process for
    /// a multiple-source measure needs the same α-weight solve, so a
    /// multi-measure batch pays for it exactly once.
    embedded_cache: Arc<Mutex<Option<Arc<EmbeddedChain>>>>,
    /// Lazily-memoized target-independent CSR structure + fill plan of `U(s)`
    /// (see `crate::workspace::UStructure`): shared by every passage and
    /// occupancy skeleton built over this process, so a batch of measures
    /// over one model pays the `O(nnz log)` compression once.
    structure_cache: Arc<Mutex<Option<Arc<crate::workspace::UStructure>>>>,
}

impl SemiMarkovProcess {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total number of kernel transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of distinct holding-time distributions in the pool.
    pub fn num_distributions(&self) -> usize {
        self.dist_pool.len()
    }

    /// The outgoing transitions of a state.
    pub fn transitions(&self, state: usize) -> &[Transition] {
        &self.transitions[row_span(&self.row_offsets, state)]
    }

    /// Looks up a pooled distribution.
    pub fn distribution(&self, id: DistId) -> &Dist {
        &self.dist_pool[id as usize]
    }

    /// The distribution pool, indexed by [`DistId`].
    pub(crate) fn distributions(&self) -> &[Dist] {
        &self.dist_pool
    }

    /// The memoized stationary solve of the embedded DTMC (default solver
    /// options).  The first call runs the Gauss–Seidel solver; every later
    /// call — from any solver or clone of this process — returns the shared
    /// result.  Use `EmbeddedChain::solve_with` directly for non-default
    /// solver options (those results are not cached).
    pub fn embedded_chain(&self) -> Result<Arc<EmbeddedChain>, SmpError> {
        let mut cache = unpoisoned(self.embedded_cache.lock());
        if let Some(chain) = cache.as_ref() {
            return Ok(Arc::clone(chain));
        }
        let chain = Arc::new(EmbeddedChain::solve_uncached(self)?);
        *cache = Some(Arc::clone(&chain));
        Ok(chain)
    }

    /// The memoized target-independent `U(s)` structure + fill plan shared by
    /// every passage skeleton over this process.
    pub(crate) fn u_structure(&self) -> Arc<crate::workspace::UStructure> {
        let mut cache = unpoisoned(self.structure_cache.lock());
        if let Some(structure) = cache.as_ref() {
            return Arc::clone(structure);
        }
        let structure = Arc::new(crate::workspace::UStructure::build(self));
        *cache = Some(Arc::clone(&structure));
        structure
    }

    /// The embedded discrete-time Markov chain `P = [p_ij]`.
    pub(crate) fn embedded_dtmc(&self) -> CsrMatrix<f64> {
        let n = self.num_states();
        let mut t = TripletMatrix::with_capacity(n, n, self.num_transitions());
        for i in 0..n {
            for tr in self.transitions(i) {
                t.push(i, tr.target as usize, tr.probability);
            }
        }
        t.to_csr()
    }

    /// The matrix `U(s)` with entries `u_pq = r*_pq(s) = p_pq · H*_pq(s)`.
    pub fn build_u(&self, s: Complex64) -> CsrMatrix<Complex64> {
        // Evaluate every pooled distribution once, then scale per transition.
        let pool_values: Vec<Complex64> = self.dist_pool.iter().map(|d| d.lst(s)).collect();
        let n = self.num_states();
        let mut t = TripletMatrix::with_capacity(n, n, self.num_transitions());
        for i in 0..n {
            for tr in self.transitions(i) {
                t.push(
                    i,
                    tr.target as usize,
                    pool_values[tr.dist as usize].scale(tr.probability),
                );
            }
        }
        t.to_csr()
    }

    /// The pair `(U, U')` for a target set: `U'` is `U` with target-state rows
    /// removed (targets made absorbing), as required by Eq. (9) of the paper.
    pub fn build_u_pair(
        &self,
        s: Complex64,
        targets: &StateSet,
    ) -> (CsrMatrix<Complex64>, CsrMatrix<Complex64>) {
        let u = self.build_u(s);
        let u_prime = u.zero_rows(targets.mask());
        (u, u_prime)
    }

    /// LST of the (unconditional) sojourn-time distribution in state `i`:
    /// `h*_i(s) = Σ_j r*_ij(s)`.
    pub fn sojourn_lst(&self, state: usize, s: Complex64) -> Complex64 {
        self.transitions(state)
            .iter()
            .map(|tr| {
                self.dist_pool[tr.dist as usize]
                    .lst(s)
                    .scale(tr.probability)
            })
            .sum()
    }

    /// Mean sojourn time in state `i`: `Σ_j p_ij · E[H_ij]`.
    pub(crate) fn mean_sojourn(&self, state: usize) -> f64 {
        self.transitions(state)
            .iter()
            .map(|tr| tr.probability * self.dist_pool[tr.dist as usize].mean())
            .sum()
    }

    /// Samples the next state and sojourn time from state `i` (used by tests and by
    /// the state-level simulator to cross-validate the analytic pipeline).
    pub fn sample_step<R: rand::Rng + ?Sized>(&self, state: usize, rng: &mut R) -> (usize, f64) {
        let row = self.transitions(state);
        debug_assert!(!row.is_empty(), "deadlock state {state} in sample_step");
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for tr in row {
            if u < tr.probability {
                let delay = self.dist_pool[tr.dist as usize].sample(rng);
                return (tr.target as usize, delay);
            }
            u -= tr.probability;
        }
        let tr = row.last().expect("non-empty transition row");
        (
            tr.target as usize,
            self.dist_pool[tr.dist as usize].sample(rng),
        )
    }
}

/// Incremental builder for a [`SemiMarkovProcess`].
///
/// Transitions are added with arbitrary positive *weights*; at [`SmpBuilder::build`]
/// time the weights of each source state are normalised into the embedded transition
/// probabilities `p_ij` (this mirrors the weight-based probabilistic choice of the
/// SM-SPN formalism, Section 5.1).  A builder is filled either by source state
/// ([`SmpBuilder::add_transition`] on a builder made for `n` states) or one whole
/// row at a time ([`SmpBuilder::push_state`], for a state space that is still
/// being discovered).  Neither keeps anything per state but a row offset:
/// pushed rows go straight into the process's layout, and added transitions
/// are sorted into it by source at `build`.
#[derive(Debug, Clone)]
pub struct SmpBuilder {
    /// States made by [`SmpBuilder::new`]; their rows hold only added
    /// transitions.
    declared: usize,
    /// Rows pushed whole, as a CSR: state `declared + k` is
    /// `pushed[offsets[k]..offsets[k + 1]]`.  `probability` holds the weight
    /// until `build`, here and in `added`.
    offsets: Vec<u32>,
    pushed: Vec<Transition>,
    /// Transitions added by source, in add order, and each one's source.
    added: Vec<Transition>,
    sources: Vec<u32>,
    dist_pool: Vec<Dist>,
}

impl SmpBuilder {
    /// Creates a builder for a process with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        SmpBuilder {
            declared: num_states,
            offsets: vec![0],
            pushed: Vec::new(),
            added: Vec::new(),
            sources: Vec::new(),
            dist_pool: Vec::new(),
        }
    }

    /// Number of states the process will have.
    pub fn num_states(&self) -> usize {
        self.declared + self.offsets.len() - 1
    }

    /// Interns a distribution into the pool, returning its identifier.  Equal
    /// distributions share a single pool slot — this is what keeps the kernel's
    /// memory footprint proportional to the number of *distinct* firing
    /// distributions rather than the number of transitions.
    pub fn intern_distribution(&mut self, dist: Dist) -> DistId {
        if let Some(pos) = self.dist_pool.iter().position(|d| *d == dist) {
            return pos as DistId;
        }
        self.dist_pool.push(dist);
        (self.dist_pool.len() - 1) as DistId
    }

    /// Adds a transition `from → to` with the given weight and holding-time
    /// distribution.
    pub fn add_transition(&mut self, from: usize, to: usize, weight: f64, dist: Dist) {
        let id = self.intern_distribution(dist);
        self.add_transition_pooled(from, to, weight, id);
    }

    /// Adds a transition referring to an already-interned distribution.
    pub(crate) fn add_transition_pooled(
        &mut self,
        from: usize,
        to: usize,
        weight: f64,
        dist: DistId,
    ) {
        assert!(from < self.num_states(), "source state {from} out of range");
        assert!(to < self.num_states(), "target state {to} out of range");
        let transition = self.pooled(to, weight, dist);
        self.added.push(transition);
        self.sources.push(to_u32(from));
    }

    /// Appends a state whose outgoing transitions are `row`, as
    /// `(target, weight, pooled distribution)`, and returns its index.  A
    /// target may name a state not pushed yet; [`SmpBuilder::build`] checks
    /// that every target exists by then.
    pub fn push_state(&mut self, row: &[(usize, f64, DistId)]) -> usize {
        for &(to, weight, dist) in row {
            let transition = self.pooled(to, weight, dist);
            self.pushed.push(transition);
        }
        self.offsets.push(to_u32(self.pushed.len()));
        self.num_states() - 1
    }

    fn pooled(&self, target: usize, weight: f64, dist: DistId) -> Transition {
        assert!(
            (dist as usize) < self.dist_pool.len(),
            "unknown distribution id"
        );
        Transition {
            target: to_u32(target),
            dist,
            probability: weight,
        }
    }

    /// Finalises the process, normalising weights into probabilities.
    ///
    /// A process with more states or transitions than a `u32` can number is
    /// refused with [`SmpError::TooLarge`] before anything is allocated.
    pub fn build(mut self) -> Result<SemiMarkovProcess, SmpError> {
        let num_states = self.num_states();
        let num_transitions = self.pushed.len() + self.added.len();
        for (what, count) in [("states", num_states), ("transitions", num_transitions)] {
            if count > MAX_INDEX {
                return Err(SmpError::TooLarge {
                    what,
                    count,
                    limit: MAX_INDEX,
                });
            }
        }
        if num_states == 0 {
            return Err(SmpError::EmptyModel);
        }
        let (row_offsets, mut transitions) = self.flatten();
        for state in 0..num_states {
            let row = &mut transitions[row_span(&row_offsets, state)];
            if row.is_empty() {
                return Err(SmpError::DeadlockState { state });
            }
            let mut total = 0.0;
            for tr in row.iter() {
                assert!(
                    (tr.target as usize) < num_states,
                    "target state {} out of range",
                    tr.target
                );
                let w = tr.probability;
                if !(w > 0.0 && w.is_finite()) {
                    return Err(SmpError::InvalidWeight {
                        from: state,
                        to: tr.target as usize,
                        weight: w,
                    });
                }
                total += w;
            }
            for tr in row.iter_mut() {
                tr.probability /= total;
            }
        }
        Ok(SemiMarkovProcess {
            row_offsets,
            transitions,
            dist_pool: self.dist_pool,
            embedded_cache: Arc::new(Mutex::new(None)),
            structure_cache: Arc::new(Mutex::new(None)),
        })
    }

    /// Every row in state order, as row offsets and one transition list: the
    /// pushed CSR itself when nothing was added, otherwise a stable counting
    /// sort by source — a row's pushed transitions, then its added ones in
    /// add order.
    fn flatten(&mut self) -> (Vec<u32>, Vec<Transition>) {
        self.dist_pool.shrink_to_fit();
        if self.declared == 0 && self.added.is_empty() {
            let (mut offsets, mut pushed) = (
                std::mem::take(&mut self.offsets),
                std::mem::take(&mut self.pushed),
            );
            offsets.shrink_to_fit();
            pushed.shrink_to_fit();
            return (offsets, pushed);
        }
        let n = self.num_states();
        let mut row_offsets = vec![0u32; n + 1];
        for (k, pair) in self.offsets.windows(2).enumerate() {
            row_offsets[self.declared + k + 1] = pair[1] - pair[0];
        }
        for &source in &self.sources {
            row_offsets[source as usize + 1] += 1;
        }
        for i in 0..n {
            row_offsets[i + 1] += row_offsets[i];
        }
        let mut next = row_offsets[..n].to_vec();
        let unset = Transition {
            target: 0,
            dist: 0,
            probability: 0.0,
        };
        let mut transitions = vec![unset; row_offsets[n] as usize];
        for k in 0..self.offsets.len() - 1 {
            let row = &self.pushed[row_span(&self.offsets, k)];
            let slot = &mut next[self.declared + k];
            transitions[*slot as usize..][..row.len()].copy_from_slice(row);
            *slot += to_u32(row.len());
        }
        for (&source, &tr) in self.sources.iter().zip(&self.added) {
            let slot = &mut next[source as usize];
            transitions[*slot as usize] = tr;
            *slot += 1;
        }
        (row_offsets, transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn three_state_smp() -> SemiMarkovProcess {
        let mut b = SmpBuilder::new(3);
        b.add_transition(0, 1, 3.0, Dist::exponential(1.0));
        b.add_transition(0, 2, 1.0, Dist::deterministic(2.0));
        b.add_transition(1, 2, 1.0, Dist::erlang(2.0, 2));
        b.add_transition(2, 0, 1.0, Dist::uniform(0.5, 1.5));
        b.build().unwrap()
    }

    #[test]
    fn builder_normalises_weights() {
        let smp = three_state_smp();
        assert_eq!(smp.num_states(), 3);
        assert_eq!(smp.num_transitions(), 4);
        let row0 = smp.transitions(0);
        assert_eq!(row0.len(), 2);
        assert!((row0[0].probability - 0.75).abs() < 1e-15);
        assert!((row0[1].probability - 0.25).abs() < 1e-15);
    }

    #[test]
    fn rows_pushed_whole_build_the_same_process() {
        let by_source = three_state_smp();
        let mut b = SmpBuilder::new(0);
        let exp = b.intern_distribution(Dist::exponential(1.0));
        let det = b.intern_distribution(Dist::deterministic(2.0));
        let erl = b.intern_distribution(Dist::erlang(2.0, 2));
        let uni = b.intern_distribution(Dist::uniform(0.5, 1.5));
        // Row 0 names states 1 and 2 before they are pushed.
        assert_eq!(b.push_state(&[(1, 3.0, exp), (2, 1.0, det)]), 0);
        assert_eq!(b.push_state(&[(2, 1.0, erl)]), 1);
        assert_eq!(b.push_state(&[(0, 1.0, uni)]), 2);
        let pushed = b.build().unwrap();
        for s in 0..3 {
            assert_eq!(pushed.transitions(s), by_source.transitions(s));
        }
        assert_eq!(pushed.num_transitions(), by_source.num_transitions());
        assert_eq!(pushed.num_distributions(), by_source.num_distributions());
    }

    /// The explorer's build path: rows pushed whole are stored as one CSR of
    /// 16-byte transitions and `u32` row offsets, with no slack capacity.
    #[test]
    fn pushed_rows_are_stored_without_slack() {
        assert_eq!(std::mem::size_of::<Transition>(), 16);
        let mut b = SmpBuilder::new(0);
        let exp = b.intern_distribution(Dist::exponential(1.0));
        let n = 1000;
        for state in 0..n {
            b.push_state(&[((state + 1) % n, 1.0, exp), ((state + 7) % n, 2.0, exp)]);
        }
        let smp = b.build().unwrap();
        assert_eq!(smp.row_offsets.capacity(), n + 1);
        assert_eq!(smp.transitions.capacity(), 2 * n);
        assert_eq!(smp.dist_pool.capacity(), 1);
    }

    #[test]
    fn adds_out_of_source_order_fill_the_rows_pushes_give() {
        // (source, target, weight, pooled distribution) in add order, the
        // sources interleaved; a source's entries are its row in push order.
        let adds: [(usize, usize, f64, DistId); 8] = [
            (2, 0, 0.3, 0),
            (0, 1, 3.0, 0),
            (3, 0, 1.0, 2),
            (2, 3, 0.7, 1),
            (0, 2, 1.0, 1),
            (1, 2, 2.5, 2),
            (0, 1, 0.1, 2),
            (2, 1, 0.2, 0),
        ];
        let row = |state: usize| adds.iter().filter(move |a| a.0 == state);
        let mut by_source = SmpBuilder::new(4);
        let mut by_row = SmpBuilder::new(0);
        for dist in [
            Dist::exponential(1.0),
            Dist::deterministic(2.0),
            Dist::erlang(2.0, 2),
        ] {
            by_source.intern_distribution(dist.clone());
            by_row.intern_distribution(dist);
        }
        for &(from, to, weight, dist) in &adds {
            by_source.add_transition_pooled(from, to, weight, dist);
        }
        for state in 0..4 {
            let pushed: Vec<_> = row(state).map(|&(_, to, w, d)| (to, w, d)).collect();
            assert_eq!(by_row.push_state(&pushed), state);
        }
        // Two declared states filled by source, then states 2 and 3 pushed
        // with their first transition and given the rest by source.
        let mut mixed = SmpBuilder::new(2);
        mixed.dist_pool = by_row.dist_pool.clone();
        for state in 2..4 {
            let &(_, to, w, d) = row(state).next().unwrap();
            assert_eq!(mixed.push_state(&[(to, w, d)]), state);
        }
        for &(from, to, weight, dist) in &adds {
            if from < 2 || row(from).next() != Some(&(from, to, weight, dist)) {
                mixed.add_transition_pooled(from, to, weight, dist);
            }
        }
        let (by_source, by_row) = (by_source.build().unwrap(), by_row.build().unwrap());
        let mixed = mixed.build().unwrap();
        let bits = |tr: &Transition| (tr.target, tr.dist, tr.probability.to_bits());
        for state in 0..4 {
            // The weights normalised as a row of lists did: summed in push
            // order, then each divided by the sum.
            let total = row(state).fold(0.0, |total, a| total + a.2);
            let expect: Vec<_> = row(state)
                .map(|&(_, to, w, d)| (to as u32, d, (w / total).to_bits()))
                .collect();
            let got = |smp: &SemiMarkovProcess| {
                smp.transitions(state).iter().map(bits).collect::<Vec<_>>()
            };
            assert_eq!(got(&by_source), expect, "added, state {state}");
            assert_eq!(got(&by_row), expect, "pushed, state {state}");
            assert_eq!(got(&mixed), expect, "mixed, state {state}");
        }
    }

    #[test]
    fn a_process_past_u32_state_numbers_is_refused() {
        let states = u32::MAX as usize + 1;
        let mut b = SmpBuilder::new(states);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        assert_eq!(
            b.build().unwrap_err(),
            SmpError::TooLarge {
                what: "states",
                count: states,
                limit: u32::MAX as usize,
            }
        );
    }

    #[test]
    fn distribution_pool_dedups() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(5.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(5.0));
        b.add_transition(1, 1, 1.0, Dist::exponential(7.0));
        let smp = b.build().unwrap();
        assert_eq!(smp.num_distributions(), 2);
        assert_eq!(smp.num_transitions(), 3);
    }

    #[test]
    fn embedded_dtmc_is_stochastic() {
        let smp = three_state_smp();
        let p = smp.embedded_dtmc();
        for r in 0..p.rows() {
            let sum: f64 = p.row(r).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() <= 1e-12, "row {r} sums to {sum}, not 1");
        }
        assert_eq!(p.get(0, 1), 0.75);
        assert_eq!(p.get(0, 2), 0.25);
    }

    #[test]
    fn u_matrix_values_match_kernel() {
        let smp = three_state_smp();
        let s = Complex64::new(0.3, 0.7);
        let u = smp.build_u(s);
        let expect_01 = Dist::exponential(1.0).lst(s).scale(0.75);
        let expect_02 = Dist::deterministic(2.0).lst(s).scale(0.25);
        assert!((u.get(0, 1) - expect_01).norm() < 1e-14);
        assert!((u.get(0, 2) - expect_02).norm() < 1e-14);
        // At s = 0 the U matrix reduces to the embedded DTMC.
        let u0 = smp.build_u(Complex64::ZERO);
        for (r, c, v) in u0.iter() {
            assert!((v.re - smp.embedded_dtmc().get(r, c)).abs() < 1e-14);
            assert_eq!(v.im, 0.0);
        }
    }

    #[test]
    fn u_prime_zeroes_target_rows() {
        let smp = three_state_smp();
        let targets = StateSet::new(3, &[2]).unwrap();
        let s = Complex64::new(0.1, 0.2);
        let (u, u_prime) = smp.build_u_pair(s, &targets);
        assert_eq!(u_prime.row(2).count(), 0);
        assert_eq!(u.row(2).count(), 1);
        assert_eq!(u_prime.get(0, 1), u.get(0, 1));
    }

    #[test]
    fn sojourn_lst_and_mean() {
        let smp = three_state_smp();
        let s = Complex64::new(0.4, -0.2);
        let expect =
            Dist::exponential(1.0).lst(s).scale(0.75) + Dist::deterministic(2.0).lst(s).scale(0.25);
        assert!((smp.sojourn_lst(0, s) - expect).norm() < 1e-14);
        assert!((smp.mean_sojourn(0) - (0.75 * 1.0 + 0.25 * 2.0)).abs() < 1e-14);
        // h*_i(0) = 1 for every state.
        for i in 0..3 {
            assert!((smp.sojourn_lst(i, Complex64::ZERO) - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn sample_step_respects_probabilities() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let smp = three_state_smp();
        let mut rng = StdRng::seed_from_u64(5);
        let mut to_1 = 0;
        let n = 40_000;
        for _ in 0..n {
            let (next, delay) = smp.sample_step(0, &mut rng);
            assert!(delay >= 0.0);
            if next == 1 {
                to_1 += 1;
            } else {
                assert_eq!(next, 2);
            }
        }
        let frac = to_1 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "fraction to state 1: {frac}");
    }

    #[test]
    fn state_set_operations() {
        let set = StateSet::new(5, &[1, 3, 3]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains(1) && set.contains(3));
        assert!(!set.contains(0));
        assert_eq!(set.indices(), &[1, 3]);
        assert_eq!(set.mask(), &[false, true, false, true, false]);
        assert!(StateSet::new(3, &[7]).is_err());
        assert!(!set.is_empty());
    }

    #[test]
    fn deadlock_and_invalid_weight_rejected() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        assert_eq!(b.build().unwrap_err(), SmpError::DeadlockState { state: 1 });

        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 1, 0.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::exponential(1.0));
        assert!(matches!(
            b.build().unwrap_err(),
            SmpError::InvalidWeight { .. }
        ));

        assert_eq!(
            SmpBuilder::new(0).build().unwrap_err(),
            SmpError::EmptyModel
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_state() {
        let mut b = SmpBuilder::new(2);
        b.add_transition(0, 5, 1.0, Dist::exponential(1.0));
    }

    #[test]
    #[should_panic(expected = "target state 5 out of range")]
    fn build_rejects_a_pushed_row_naming_no_state() {
        let mut b = SmpBuilder::new(0);
        let exp = b.intern_distribution(Dist::exponential(1.0));
        b.push_state(&[(5, 1.0, exp)]);
        let _ = b.build();
    }

    proptest! {
        /// For random SMPs, every row of U(s) with Re(s) ≥ 0 has |row sum| ≤ 1
        /// (it equals h*_i(s), the LST of a distribution), and U(0) row sums are 1.
        #[test]
        fn prop_u_row_sums_are_sojourn_lsts(seed in 0u64..200, re in 0.0f64..3.0, im in -5.0f64..5.0) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..8);
            let mut b = SmpBuilder::new(n);
            for i in 0..n {
                let fanout = rng.gen_range(1..4usize);
                for _ in 0..fanout {
                    let to = rng.gen_range(0..n);
                    let dist = match rng.gen_range(0..3) {
                        0 => Dist::exponential(rng.gen_range(0.2..3.0)),
                        1 => Dist::erlang(rng.gen_range(0.5..2.0), rng.gen_range(1..4)),
                        _ => Dist::uniform(0.0, rng.gen_range(0.5..4.0)),
                    };
                    b.add_transition(i, to, rng.gen_range(0.1..2.0), dist);
                }
            }
            let smp = b.build().unwrap();
            let s = Complex64::new(re, im);
            let u = smp.build_u(s);
            for i in 0..n {
                let row_sum: Complex64 = u.row(i).map(|(_, v)| v).sum();
                prop_assert!(row_sum.norm() <= 1.0 + 1e-9);
                prop_assert!((row_sum - smp.sojourn_lst(i, s)).norm() < 1e-10);
            }
            let u0 = smp.build_u(Complex64::ZERO);
            for i in 0..n {
                let row_sum: Complex64 = u0.row(i).map(|(_, v)| v).sum();
                prop_assert!((row_sum - Complex64::ONE).norm() < 1e-9);
            }
        }
    }
}
