//! The symbolic/numeric split's correctness contract: workspace-evaluated
//! transforms are **bitwise equal** to the build-per-point reference oracle
//! (`build_u_pair` + freshly-allocated iteration buffers) across random SMPs,
//! target sets and `s`-points — points where kernel entries underflow to
//! exact zero included, through the kernel itself — and a workspace reused
//! across `s`-point chunks and target sets never leaks state from one
//! evaluation into the next.
//!
//! The transient measure runs the same kernel unmasked with a weighted
//! read-out (`smp_core::transient`); its oracle is the paper's Eq. 7 assembled
//! from dense per-target solves, held by tolerance, and its lane blocks are
//! held bitwise against its own single-point evaluation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smp_core::passage::{dense_reference_solve, PassagePoint};
use smp_core::{
    IterationOptions, PassageTimeSolver, SemiMarkovProcess, ShardedSolver, SmpBuilder, SmpError,
    StateSet,
};
use smp_distributions::Dist;
use smp_numeric::Complex64;

/// The reference oracle: the build-per-point evaluation of `solver`'s measure
/// at `s`.  Materialises the `(U, U')` pair from triplets at every call
/// (`SemiMarkovProcess::build_u_pair`) — exact-zero entries dropped
/// structurally — and iterates with freshly-allocated buffers, a full
/// `max(norm)` quiet test every round.  It shares nothing with the kernel but
/// the model, which is why it lives here and not in the library.
fn transform_at_legacy(
    solver: &PassageTimeSolver<'_>,
    s: Complex64,
) -> Result<PassagePoint, SmpError> {
    let options = solver.options();
    let (u, u_prime) = solver.smp().build_u_pair(s, solver.targets());
    let alpha_c: Vec<Complex64> = solver.alpha().iter().map(|&a| Complex64::real(a)).collect();
    let mut term = u.vec_mul(&alpha_c);
    let e_mask = solver.targets().mask();
    let dot_e = |vec: &[Complex64]| -> Complex64 {
        vec.iter()
            .zip(e_mask)
            .filter(|(_, &m)| m)
            .map(|(v, _)| *v)
            .sum()
    };
    let mut total = dot_e(&term);
    let mut scratch = vec![Complex64::ZERO; term.len()];
    let mut quiet = 0usize;
    let mut last_delta = f64::INFINITY;
    for r in 1..=options.max_iterations {
        u_prime.vec_mul_into(&term, &mut scratch);
        std::mem::swap(&mut term, &mut scratch);
        let delta = dot_e(&term);
        total += delta;
        last_delta = delta.re.abs().max(delta.im.abs());
        let term_mass: f64 = term.iter().map(|c| c.norm()).fold(0.0, f64::max);
        if last_delta < options.epsilon && term_mass < options.epsilon {
            quiet += 1;
            if quiet >= options.consecutive {
                return Ok(PassagePoint {
                    value: total,
                    iterations: r,
                });
            }
        } else {
            quiet = 0;
        }
    }
    Err(SmpError::ConvergenceFailure {
        s: (s.re, s.im),
        iterations: options.max_iterations,
        last_delta,
    })
}

/// A random irreducible SMP with a ring backbone, random extra edges, and —
/// importantly for the fill plan — occasional *duplicate* `(from, to)`
/// transitions carrying different distributions, whose contributions the
/// compression must sum in exactly the legacy order.
fn random_smp(seed: u64) -> SemiMarkovProcess {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..12usize);
    let mut b = SmpBuilder::new(n);
    for i in 0..n {
        b.add_transition(
            i,
            (i + 1) % n,
            rng.gen_range(0.5..2.0),
            Dist::exponential(rng.gen_range(0.5..3.0)),
        );
        for _ in 0..rng.gen_range(0..4usize) {
            let to = rng.gen_range(0..n);
            let dist = match rng.gen_range(0..4) {
                0 => Dist::exponential(rng.gen_range(0.2..3.0)),
                1 => Dist::erlang(rng.gen_range(0.5..2.0), rng.gen_range(1..4)),
                2 => Dist::deterministic(rng.gen_range(0.1..2.0)),
                _ => Dist::uniform(0.0, rng.gen_range(0.5..2.0)),
            };
            b.add_transition(i, to, rng.gen_range(0.1..1.5), dist);
        }
        // Parallel duplicate edges to the ring successor.
        if rng.gen_bool(0.4) {
            b.add_transition(
                i,
                (i + 1) % n,
                rng.gen_range(0.1..0.8),
                Dist::erlang(rng.gen_range(0.5..2.0), 2),
            );
        }
        if rng.gen_bool(0.2) {
            b.add_transition(
                i,
                (i + 1) % n,
                rng.gen_range(0.1..0.8),
                Dist::uniform(0.1, rng.gen_range(0.5..1.5)),
            );
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// transform_at == transform_at_legacy, bit for bit: value AND iteration
    /// count, at every probed point of the right half-plane.
    #[test]
    fn workspace_scalar_is_bitwise_legacy(
        seed in 0u64..400,
        re in 0.01f64..3.0,
        im in -6.0f64..6.0,
    ) {
        let smp = random_smp(seed);
        let n = smp.num_states();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let source = rng.gen_range(0..n);
        let target = rng.gen_range(0..n);
        let solver = PassageTimeSolver::new(&smp, &[source], &[target]).unwrap();
        let s = Complex64::new(re, im);
        let fast = solver.transform_at(s).unwrap();
        let legacy = transform_at_legacy(&solver, s).unwrap();
        prop_assert_eq!(fast.value, legacy.value);
        prop_assert_eq!(fast.iterations, legacy.iterations);
    }
}

/// A workspace reused across a whole chunk of `s`-points — and interleaved
/// with evaluations of *another* solver over a different target set — returns
/// exactly the same answers as fresh per-point evaluation: no state leaks
/// between points, targets or checkouts.
#[test]
fn workspace_reuse_across_chunks_and_target_sets_never_leaks() {
    let smp = random_smp(7);
    let n = smp.num_states();
    let solver_a = PassageTimeSolver::new(&smp, &[0], &[n - 1]).unwrap();
    let solver_b = PassageTimeSolver::new(&smp, &[0], &[n / 2]).unwrap();
    let points: Vec<Complex64> = (1..=20)
        .map(|k| Complex64::new(0.05 + 0.1 * k as f64, ((k * 7) % 11) as f64 - 5.0))
        .collect();

    // Reference: fresh legacy evaluation per point.
    let ref_a: Vec<_> = points
        .iter()
        .map(|&s| transform_at_legacy(&solver_a, s).unwrap())
        .collect();
    let ref_b: Vec<_> = points
        .iter()
        .map(|&s| transform_at_legacy(&solver_b, s).unwrap())
        .collect();

    // One workspace per solver, reused across every point, interleaved —
    // evaluated twice over to catch leakage from the first pass.
    let mut ws_a = solver_a.checkout_workspace();
    let mut ws_b = solver_b.checkout_workspace();
    for _round in 0..2 {
        for (i, &s) in points.iter().enumerate() {
            let a = solver_a.transform_at_with(&mut ws_a, s).unwrap();
            let b = solver_b.transform_at_with(&mut ws_b, s).unwrap();
            assert_eq!(a.value, ref_a[i].value, "solver A leaked at point {i}");
            assert_eq!(a.iterations, ref_a[i].iterations);
            assert_eq!(b.value, ref_b[i].value, "solver B leaked at point {i}");
            assert_eq!(b.iterations, ref_b[i].iterations);
        }
    }
    solver_a.give_back(ws_a);
    solver_b.give_back(ws_b);

    // The pool-managed convenience path agrees too, after the workspaces
    // above were returned (checkout reuses them).
    for (i, &s) in points.iter().enumerate() {
        assert_eq!(solver_a.transform_at(s).unwrap().value, ref_a[i].value);
    }

    // Stats reflect the reuse: every point after each workspace's first was
    // served without a rebuild.
    let stats = solver_a.hotpath_stats();
    assert!(stats.matrix_rebuilds_avoided >= 2 * points.len() as u64);
    assert!(stats.pooled_lst_evaluations > 0);
}

/// `r_transition_transform` (the truncated sum) also matches its legacy
/// arithmetic: identical prefix sums of the same iteration.
#[test]
fn r_transition_transform_matches_legacy_iteration_prefixes() {
    let smp = random_smp(11);
    let n = smp.num_states();
    let solver = PassageTimeSolver::new(&smp, &[0], &[n - 1]).unwrap();
    let s = Complex64::new(0.4, 0.9);
    // The truncated transform at r = max_iterations of a capped solver equals
    // the capped iteration's partial sum; spot-check monotone convergence to
    // the converged value instead (exact equality is covered by the solver's
    // own unit tests).
    let full = solver.transform_at(s).unwrap().value;
    let mut last_err = f64::INFINITY;
    for r in [1usize, 4, 16, 64, 256] {
        let err = (solver.r_transition_transform(s, r) - full).norm();
        assert!(err <= last_err + 1e-12);
        last_err = err;
    }
    assert!(last_err < 1e-6);
}

/// An LST underflowing to exactly zero (e.g. `e^{-s·d}` past `Re(s)·d ≈
/// 745`) makes the oracle's construction drop the kernel entry structurally;
/// the workspace keeps the slot holding zero, which is bitwise-neutral, so
/// results stay identical even there (the name dates from when such points
/// were re-solved through the oracle).
#[test]
fn lst_underflow_points_fall_back_to_the_legacy_path_bitwise() {
    let mut b = SmpBuilder::new(3);
    b.add_transition(0, 1, 1.0, Dist::deterministic(2.0));
    b.add_transition(1, 2, 1.0, Dist::exponential(1.0));
    b.add_transition(2, 0, 1.0, Dist::exponential(0.5));
    let smp = b.build().unwrap();
    let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
    // e^{-500·2} underflows to exactly 0.0: build_u drops the 0→1 entry.
    for &re in &[500.0, 900.0] {
        let s = Complex64::real(re);
        let fast = solver.transform_at(s).unwrap();
        let legacy = transform_at_legacy(&solver, s).unwrap();
        assert_eq!(fast.value, legacy.value);
        assert_eq!(fast.iterations, legacy.iterations);
    }
    // And ordinary points on the same solver agree as ever.
    let s = Complex64::new(0.5, 1.0);
    assert_eq!(
        solver.transform_at(s).unwrap().value,
        transform_at_legacy(&solver, s).unwrap().value
    );
}

/// The same neutrality on the row-sharded slices, for every shard count: a
/// deterministic holding time with `Re(s)·d` past ~745 underflows `e^{-s·d}`
/// to exact zero, `build_u` drops the entry structurally, the slice keeps a
/// slot holding zero — and still equals the oracle bit for bit.
#[test]
fn underflow_points_equal_the_oracle_on_every_shard_count() {
    let mut b = SmpBuilder::new(3);
    b.add_transition(0, 1, 1.0, Dist::deterministic(1.0));
    b.add_transition(1, 2, 1.0, Dist::exponential(2.0));
    b.add_transition(2, 0, 1.0, Dist::exponential(1.0));
    let smp = b.build().unwrap();
    let s = Complex64::new(800.0, 0.0);
    assert!(
        smp.build_u(s).nnz() < smp.build_u(Complex64::ONE).nnz(),
        "the point solved must be an underflow point"
    );
    let reference = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
    let want = transform_at_legacy(&reference, s).unwrap();
    assert_eq!(reference.transform_at(s).unwrap(), want);
    for shards in 1..=3usize {
        let mut sharded =
            ShardedSolver::new(&smp, 0, &[2], IterationOptions::default(), shards).unwrap();
        assert_eq!(sharded.transform_at(s).unwrap(), want, "shards={shards}");
    }
}

/// A random SMP built to hit exact-zero kernel entries from every side:
/// deterministic delays in `1..4` (so `e^{-s·d}` underflows at the probed
/// `Re(s)`), duplicate `(from, to)` edges where one contribution underflows
/// and one does not, one state whose *only* in-edge is deterministic — a
/// column reachable only through an underflowing entry — and, in a quarter of
/// the models, a hub row of ~45 edges with many-way duplicates, long enough
/// that the compression's column sort leaves insertion-sort territory (the
/// duplicate merge order must not depend on which entries underflowed).
fn underflow_smp(seed: u64) -> SemiMarkovProcess {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..12usize);
    let lonely = rng.gen_range(0..n);
    let hub = rng.gen_bool(0.25).then(|| rng.gen_range(0..n));
    let mut b = SmpBuilder::new(n);
    for i in 0..n {
        let extras = if hub == Some(i) {
            45
        } else {
            rng.gen_range(0..3usize)
        };
        let next = (i + 1) % n;
        if next == lonely || rng.gen_bool(0.5) {
            b.add_transition(i, next, 1.0, Dist::deterministic(rng.gen_range(1.0..4.0)));
            if next != lonely && rng.gen_bool(0.6) {
                b.add_transition(
                    i,
                    next,
                    rng.gen_range(0.2..1.0),
                    Dist::exponential(rng.gen_range(0.5..3.0)),
                );
                if rng.gen_bool(0.4) {
                    let extra = Dist::deterministic(rng.gen_range(1.0..4.0));
                    b.add_transition(i, next, rng.gen_range(0.2..1.0), extra);
                }
            }
        } else {
            b.add_transition(i, next, 1.0, Dist::exponential(rng.gen_range(0.5..3.0)));
        }
        for _ in 0..extras {
            let to = rng.gen_range(0..n);
            if to == lonely {
                continue;
            }
            let dist = match rng.gen_range(0..3) {
                0 => Dist::deterministic(rng.gen_range(1.0..4.0)),
                1 => Dist::erlang(rng.gen_range(0.5..2.0), rng.gen_range(1..4)),
                _ => Dist::uniform(0.0, rng.gen_range(0.5..2.0)),
            };
            b.add_transition(i, to, rng.gen_range(0.1..1.5), dist);
        }
    }
    b.build().unwrap()
}

fn bits(c: Complex64) -> (u64, u64) {
    (c.re.to_bits(), c.im.to_bits())
}

/// The kernel handles exact-zero entries itself: at well over a thousand
/// points whose refilled values contain an exact zero, the scalar transform
/// (value bits and iteration count), the truncated `r`-transition prefixes and the row-sharded solver at 1, 2, 3 and 5 shards
/// all equal the build-per-point oracle, which drops those entries
/// structurally.
#[test]
fn exact_zero_kernel_entries_are_bitwise_neutral() {
    let mut zero_points = 0usize;
    for seed in 0..300u64 {
        let smp = underflow_smp(seed);
        let n = smp.num_states();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed_270b);
        let source = rng.gen_range(0..n);
        let targets = [rng.gen_range(0..n)];
        let solver = PassageTimeSolver::new(&smp, &[source], &targets).unwrap();
        let mut sharded: Vec<ShardedSolver> = [1usize, 2, 3, 5]
            .iter()
            .map(|&k| {
                ShardedSolver::new(&smp, source, &targets, IterationOptions::default(), k).unwrap()
            })
            .collect();
        // With ε = ∞ every round is quiet, so the oracle stops after exactly
        // `consecutive` steps: the (consecutive + 1)-term prefix of the sum.
        let prefix_oracles = [2usize, 3, 5, 9].map(|r| {
            let truncated = IterationOptions {
                epsilon: f64::INFINITY,
                max_iterations: r,
                consecutive: r - 1,
            };
            let oracle = PassageTimeSolver::with_options(&smp, &[source], &targets, truncated);
            (r, oracle.unwrap())
        });
        let mut ws = solver.checkout_workspace();
        for &re in &[200.0, 400.0, 760.0, 1500.0, 5000.0] {
            for im in [0.0, rng.gen_range(-6.0..6.0)] {
                let s = Complex64::new(re, im);
                ws.refill(&smp, s);
                let zeros = ws.u().values().iter().any(|v| v.re == 0.0 && v.im == 0.0);
                zero_points += zeros as usize;

                let oracle = transform_at_legacy(&solver, s).unwrap();
                let fast = solver.transform_at_with(&mut ws, s).unwrap();
                assert_eq!(bits(fast.value), bits(oracle.value), "seed {seed} s={s}");
                assert_eq!(fast.iterations, oracle.iterations, "seed {seed} s={s}");

                for (r, prefix_oracle) in &prefix_oracles {
                    let prefix = transform_at_legacy(prefix_oracle, s).unwrap();
                    assert_eq!(prefix.iterations, r - 1);
                    assert_eq!(
                        bits(solver.r_transition_transform(s, *r)),
                        bits(prefix.value),
                        "seed {seed} s={s} r={r}"
                    );
                }

                for solver_k in sharded.iter_mut() {
                    let got = solver_k.transform_at(s).unwrap();
                    assert_eq!(bits(got.value), bits(oracle.value), "seed {seed} s={s}");
                    assert_eq!(got.iterations, oracle.iterations, "seed {seed} s={s}");
                }
            }
        }
        solver.give_back(ws);
    }
    assert!(
        zero_points >= 1_000,
        "only {zero_points} of 3000 probed points had an exact-zero kernel entry"
    );
}

/// The chunk shapes the lane axis is probed with: a lone point (`K = 1`), short
/// blocks (2, 3), one full block, a block plus a lone remainder (5, 9), and
/// back-to-back full blocks (8).
const CHUNK_SHAPES: [usize; 7] = [1, 2, 3, 4, 5, 8, 9];

/// Asserts that `transform_many` over `points` returns, per point, the
/// oracle's value bits and iteration count (or, for a point that does not
/// converge, the oracle's failure), and that the hot-path counters stay per
/// point whatever the block shape.
fn assert_chunk_is_the_oracle_per_point(
    smp: &SemiMarkovProcess,
    solver: &PassageTimeSolver,
    points: &[Complex64],
    context: &str,
) {
    let before = solver.hotpath_stats();
    let many = solver.transform_many(points);
    assert_eq!(many.len(), points.len(), "{context}");
    for (lane, (&s, got)) in points.iter().zip(&many).enumerate() {
        match (got, transform_at_legacy(solver, s)) {
            (Ok(got), Ok(oracle)) => {
                assert_eq!(
                    bits(got.value),
                    bits(oracle.value),
                    "{context} lane {lane} s={s}"
                );
                assert_eq!(
                    got.iterations, oracle.iterations,
                    "{context} lane {lane} s={s}"
                );
            }
            (Err(got), Err(oracle)) => assert_eq!(*got, oracle, "{context} lane {lane} s={s}"),
            (got, oracle) => panic!("{context} lane {lane} s={s}: {got:?} vs oracle {oracle:?}"),
        }
    }
    let stats = solver.hotpath_stats().since(before);
    assert_eq!(
        stats.pooled_lst_evaluations,
        (points.len() * smp.num_distributions()) as u64,
        "{context}: one LST evaluation per point per pooled distribution"
    );
    // The pool's one workspace is new for the first chunk only.
    let first = u64::from(before.pooled_lst_evaluations == 0);
    assert_eq!(
        stats.matrix_rebuilds_avoided,
        points.len() as u64 - first,
        "{context}: points − 1 per workspace"
    );
}

/// The lane axis on `random_smp`, whose duplicate edges give slots
/// multi-contribution recipes: every chunk shape returns, per point, the
/// oracle's bits and iteration count.
#[test]
fn lane_blocks_are_the_oracle_per_point_on_random_models() {
    for seed in 0..40u64 {
        let smp = random_smp(seed);
        let n = smp.num_states();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a4e_5b10);
        let source = rng.gen_range(0..n);
        let target = rng.gen_range(0..n);
        let solver = PassageTimeSolver::new(&smp, &[source], &[target]).unwrap();
        for shape in CHUNK_SHAPES {
            let points: Vec<Complex64> = (0..shape)
                .map(|_| Complex64::new(rng.gen_range(0.01..3.0), rng.gen_range(-6.0..6.0)))
                .collect();
            let context = format!("seed {seed} shape {shape}");
            assert_chunk_is_the_oracle_per_point(&smp, &solver, &points, &context);
        }
    }
}

/// The lane axis on `underflow_smp`: blocks that mix lanes whose kernel holds
/// exact zeros (`Re(s)` past the deterministic delays' underflow) with lanes
/// whose kernel holds none, in every position of the block.
#[test]
fn lane_blocks_mix_exact_zero_and_zero_free_kernels() {
    let mut mixed_blocks = 0usize;
    for seed in 0..120u64 {
        let smp = underflow_smp(seed);
        let n = smp.num_states();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7c0f_fee5);
        let source = rng.gen_range(0..n);
        let targets = [rng.gen_range(0..n)];
        let solver = PassageTimeSolver::new(&smp, &[source], &targets).unwrap();
        let mut probe = solver.checkout_workspace();
        for shape in CHUNK_SHAPES {
            let points: Vec<Complex64> = (0..shape)
                .map(|lane| {
                    let re = if (lane + seed as usize + shape).is_multiple_of(2) {
                        [400.0, 760.0, 1500.0][rng.gen_range(0..3usize)]
                    } else {
                        rng.gen_range(0.05..2.0)
                    };
                    Complex64::new(re, rng.gen_range(-6.0..6.0))
                })
                .collect();
            for block in points.chunks(4).filter(|block| block.len() >= 2) {
                let with_zeros = block
                    .iter()
                    .filter(|&&s| {
                        probe.refill(&smp, s);
                        probe
                            .u()
                            .values()
                            .iter()
                            .any(|v| v.re == 0.0 && v.im == 0.0)
                    })
                    .count();
                mixed_blocks += (0 < with_zeros && with_zeros < block.len()) as usize;
            }
            let context = format!("seed {seed} shape {shape}");
            assert_chunk_is_the_oracle_per_point(&smp, &solver, &points, &context);
        }
        solver.give_back(probe);
    }
    assert!(
        mixed_blocks >= 300,
        "only {mixed_blocks} blocks mixed exact-zero and zero-free kernels"
    );
}

/// A lane whose row is zero while its neighbour's is live: in the three-state
/// chain below state 1 is entered only through a deterministic delay, so at
/// `Re(s) = 500` that kernel entry — and row 1 of the lane's iterate, on every
/// round — is exactly zero, while the neighbouring lanes at ordinary points
/// carry mass through the same row.  The zero lane is not branched around;
/// it must still return its own `K = 1` bits, and so must its neighbours.
#[test]
fn a_zero_lane_in_a_live_row_is_neutral() {
    let mut b = SmpBuilder::new(3);
    b.add_transition(0, 1, 1.0, Dist::deterministic(2.0));
    b.add_transition(1, 2, 1.0, Dist::exponential(1.0));
    b.add_transition(2, 0, 1.0, Dist::exponential(0.5));
    let smp = b.build().unwrap();
    let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
    let live = [Complex64::new(0.5, 1.0), Complex64::new(0.2, -3.0)];
    let zero = [Complex64::real(500.0), Complex64::real(900.0)];
    for points in [
        vec![live[0], zero[0]],
        vec![zero[0], live[0]],
        vec![live[0], zero[0], live[1], zero[1]],
        vec![zero[0], zero[1], live[0]],
        vec![zero[1], live[1], live[0], zero[0], live[0]],
    ] {
        let context = format!("{points:?}");
        assert_chunk_is_the_oracle_per_point(&smp, &solver, &points, &context);
    }
}

/// One lane that does not converge fails alone: at `s = 0` the mass of an
/// unreachable passage cycles without decaying, so that lane runs into the
/// iteration cap and reports its own failure — the `K = 1` kernel's, field
/// for field — while the lanes beside it return their `K = 1` bits, in every
/// position of a block and as the lone remainder after one.
#[test]
fn a_lane_that_does_not_converge_fails_alone() {
    // Two disjoint cycles plus a slow leak out of the first into the second,
    // so the passage 0 → 2 is reachable and ordinary points have nonzero
    // transforms; the twin without the leak is the unreachable one.
    let build = |leak: bool| {
        let mut b = SmpBuilder::new(4);
        b.add_transition(0, 1, 1.0, Dist::exponential(1.0));
        b.add_transition(1, 0, 1.0, Dist::erlang(2.0, 2));
        if leak {
            b.add_transition(1, 2, 0.25, Dist::uniform(0.1, 0.9));
        }
        b.add_transition(2, 3, 1.0, Dist::exponential(1.0));
        b.add_transition(3, 2, 1.0, Dist::exponential(1.0));
        b.build().unwrap()
    };
    let options = IterationOptions {
        epsilon: 1e-12,
        max_iterations: 150,
        consecutive: 2,
    };
    let ordinary = [
        Complex64::new(0.5, 1.0),
        Complex64::new(1.5, -2.0),
        Complex64::new(0.8, 0.0),
        Complex64::new(2.0, 4.0),
    ];
    for leak in [false, true] {
        let smp = build(leak);
        let solver = PassageTimeSolver::with_options(&smp, &[0], &[2], options).unwrap();
        // s = 0 never converges without the leak; with it, a point this close
        // to the origin needs far more rounds than the cap allows.
        let stuck = if leak {
            Complex64::real(1e-9)
        } else {
            Complex64::ZERO
        };
        let alone = solver.transform_at(stuck).unwrap_err();
        assert!(matches!(
            alone,
            smp_core::SmpError::ConvergenceFailure {
                iterations: 150,
                ..
            }
        ));
        // The occupancy of the same state: unmasked, so near the origin its
        // mass decays no faster, and the same point is stuck.
        let occupancy = PassageTimeSolver::transient(&smp, &[0], &[2], options).unwrap();
        let occupancy_alone = occupancy.transform_at(stuck).unwrap_err();
        assert!(matches!(
            occupancy_alone,
            smp_core::SmpError::ConvergenceFailure {
                iterations: 150,
                ..
            }
        ));
        for position in 0..=4 {
            let mut points = ordinary.to_vec();
            points.insert(position, stuck);
            for (lane, (&s, got)) in points
                .iter()
                .zip(occupancy.transform_many(&points))
                .enumerate()
            {
                if lane == position {
                    assert_eq!(
                        got.unwrap_err(),
                        occupancy_alone,
                        "leak {leak} at {position}"
                    );
                } else {
                    let single = occupancy.transform_at(s).unwrap().value;
                    assert_eq!(
                        bits(got.unwrap().value),
                        bits(single),
                        "leak {leak} lane {lane}"
                    );
                }
            }
            let many = solver.transform_many(&points);
            for (lane, (&s, got)) in points.iter().zip(&many).enumerate() {
                if lane == position {
                    assert_eq!(
                        got.as_ref().unwrap_err(),
                        &alone,
                        "leak {leak} at {position}"
                    );
                } else {
                    let single = solver.transform_at(s).unwrap();
                    let got = got.as_ref().unwrap();
                    assert_eq!(
                        bits(got.value),
                        bits(single.value),
                        "leak {leak} lane {lane}"
                    );
                    assert_eq!(got.iterations, single.iterations, "leak {leak} lane {lane}");
                }
            }
            let context = format!("leak {leak} stuck at {position}");
            assert_chunk_is_the_oracle_per_point(&smp, &solver, &points, &context);
        }
    }
}

/// A failure's fields as bits: the last delta of a diverged point may be NaN.
fn failure_bits(error: &SmpError) -> ((u64, u64), usize, u64) {
    match error {
        SmpError::ConvergenceFailure {
            s,
            iterations,
            last_delta,
        } => (
            (s.0.to_bits(), s.1.to_bits()),
            *iterations,
            last_delta.to_bits(),
        ),
        other => panic!("expected a convergence failure, got {other}"),
    }
}

/// A lane on an LST pole fails on the round its total goes non-finite, not
/// at the iteration cap: the default budget of 10⁶ rounds is never spent.
/// In a block it reports its `K = 1` failure field for field — that round as
/// its iteration count — while the lanes beside it return their `K = 1`
/// bits, in every position of a block and as the lone remainder after one;
/// the occupancy measure and the row-sharded solver fail on the same round.
#[test]
fn a_lane_on_an_lst_pole_fails_on_its_divergent_round() {
    let mut b = SmpBuilder::new(3);
    b.add_transition(0, 1, 1.0, Dist::exponential(2.0));
    b.add_transition(1, 2, 1.0, Dist::exponential(1.0));
    b.add_transition(2, 0, 1.0, Dist::exponential(3.0));
    let smp = b.build().unwrap();
    let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
    let occupancy =
        PassageTimeSolver::transient(&smp, &[0], &[2], IterationOptions::default()).unwrap();
    let ordinary = [
        Complex64::new(0.5, 1.0),
        Complex64::new(1.5, -2.0),
        Complex64::new(0.8, 0.0),
        Complex64::new(2.0, 4.0),
    ];
    // The poles of the exp(2) and exp(1) holding times.
    for pole in [Complex64::real(-2.0), Complex64::real(-1.0)] {
        let alone = solver.transform_at(pole).unwrap_err();
        let (_, rounds, _) = failure_bits(&alone);
        assert!(rounds <= 3, "s = {pole} failed after {rounds} rounds");
        let occupancy_alone = occupancy.transform_at(pole).unwrap_err();
        assert!(failure_bits(&occupancy_alone).1 <= 3, "{occupancy_alone}");
        for shards in 1..=3 {
            let mut sharded =
                ShardedSolver::new(&smp, 0, &[2], IterationOptions::default(), shards).unwrap();
            let got = sharded.transform_at(pole).unwrap_err();
            assert_eq!(failure_bits(&got), failure_bits(&alone), "shards={shards}");
        }
        for position in 0..=4 {
            let mut points = ordinary.to_vec();
            points.insert(position, pole);
            let many = solver.transform_many(&points);
            let occupied = occupancy.transform_many(&points);
            for (lane, &s) in points.iter().enumerate() {
                let context = format!("s = {pole} at {position}, lane {lane}");
                if lane == position {
                    let got = many[lane].as_ref().unwrap_err();
                    assert_eq!(failure_bits(got), failure_bits(&alone), "{context}");
                    let got = occupied[lane].as_ref().unwrap_err();
                    assert_eq!(
                        failure_bits(got),
                        failure_bits(&occupancy_alone),
                        "{context}"
                    );
                } else {
                    let single = solver.transform_at(s).unwrap();
                    let got = many[lane].as_ref().unwrap();
                    assert_eq!(bits(got.value), bits(single.value), "{context}");
                    assert_eq!(got.iterations, single.iterations, "{context}");
                    let single = occupancy.transform_at(s).unwrap().value;
                    assert_eq!(
                        bits(occupied[lane].as_ref().unwrap().value),
                        bits(single),
                        "{context}"
                    );
                }
            }
        }
    }
}

/// Eq. 7 of the paper, assembled from dense solves: per target state `k` the
/// column `L_·k(s)` (whose entry `k` is the cycle transform `L_kk`) and
/// `Λ_k = (1 − h*_k) / (1 − L_kk)`, weighted over the sources by `alpha`.
fn transient_by_eq7(
    smp: &SemiMarkovProcess,
    alpha: &[f64],
    targets: &[usize],
    s: Complex64,
) -> Complex64 {
    let n = smp.num_states();
    let mut total = Complex64::ZERO;
    for &k in targets {
        let column = dense_reference_solve(smp, &StateSet::new(n, &[k]).unwrap(), s);
        let lambda = (Complex64::ONE - smp.sojourn_lst(k, s)) / (Complex64::ONE - column[k]);
        for (i, &a) in alpha.iter().enumerate() {
            let from_i = if i == k { lambda } else { lambda * column[i] };
            total += from_i.scale(a);
        }
    }
    total / s
}

/// The transient solver's renewal form against Eq. 7 from dense columns, on
/// both generators: a single source outside the target set, a source inside
/// it, α-weighted sources, and the whole state space as target (`T* = 1/s`).
#[test]
fn transient_renewal_form_matches_eq7_from_dense_columns() {
    for seed in 0..80u64 {
        let smp = if seed % 2 == 0 {
            random_smp(seed)
        } else {
            underflow_smp(seed)
        };
        let n = smp.num_states();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1e_57ed);
        let inside = rng.gen_range(0..n);
        let outside = (inside + 1 + rng.gen_range(0..n - 1)) % n;
        let subset: Vec<usize> = (0..n)
            .filter(|&k| k == inside || (k != outside && rng.gen_bool(0.3)))
            .collect();
        let everything: Vec<usize> = (0..n).collect();
        let spread: Vec<usize> = (0..n).step_by(2).chain([n - 1]).collect();
        for (sources, targets) in [
            (vec![outside], &subset),
            (vec![inside], &subset),
            (spread.clone(), &subset),
            (vec![outside], &everything),
            (spread, &everything),
        ] {
            let alpha = match sources[..] {
                [source] => (0..n).map(|i| f64::from(i == source)).collect(),
                _ => smp
                    .embedded_chain()
                    .unwrap()
                    .alpha_weights(&StateSet::new(n, &sources).unwrap())
                    .unwrap(),
            };
            let solver =
                PassageTimeSolver::transient(&smp, &sources, targets, IterationOptions::default())
                    .unwrap();
            for _ in 0..3 {
                let s = Complex64::new(rng.gen_range(0.1..4.0), rng.gen_range(-6.0..6.0));
                let got = solver.transform_at(s).unwrap().value;
                let expect = transient_by_eq7(&smp, &alpha, targets, s);
                let context = format!("seed {seed} sources {sources:?} targets {targets:?} s={s}");
                assert!((got - expect).norm() < 1e-6, "{context}: {got} vs {expect}");
                if targets.len() == n {
                    assert!((got - Complex64::ONE / s).norm() < 1e-6, "{context}: {got}");
                }
            }
        }
    }
}

/// The lane axis of the transient solver: `transform_many` over every chunk
/// shape returns, per point, the bits `transform_at` returns for that point
/// alone — on `random_smp` and on `underflow_smp` with blocks mixing
/// exact-zero and zero-free kernels — and counts one refill per point.
#[test]
fn transient_lane_blocks_are_single_points_bitwise() {
    for seed in 0..60u64 {
        let zeros = seed % 2 == 1;
        let smp = if zeros {
            underflow_smp(seed)
        } else {
            random_smp(seed)
        };
        let n = smp.num_states();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0cc0_9a7c);
        let source = rng.gen_range(0..n);
        let targets: Vec<usize> = (0..n).filter(|&k| k == 0 || rng.gen_bool(0.3)).collect();
        let solver =
            PassageTimeSolver::transient(&smp, &[source], &targets, IterationOptions::default())
                .unwrap();
        for shape in CHUNK_SHAPES {
            let points: Vec<Complex64> = (0..shape)
                .map(|lane| {
                    let re = if zeros && (lane + shape).is_multiple_of(2) {
                        [400.0, 760.0, 1500.0][rng.gen_range(0..3usize)]
                    } else {
                        rng.gen_range(0.05..3.0)
                    };
                    Complex64::new(re, rng.gen_range(-6.0..6.0))
                })
                .collect();
            let before = solver.hotpath_stats();
            let many = solver.transform_many(&points);
            let stats = solver.hotpath_stats().since(before);
            assert_eq!(many.len(), shape);
            assert_eq!(
                stats.pooled_lst_evaluations,
                (shape * smp.num_distributions()) as u64,
                "seed {seed} shape {shape}"
            );
            for (lane, (&s, got)) in points.iter().zip(many).enumerate() {
                let single = solver.transform_at(s).unwrap().value;
                assert_eq!(
                    bits(got.unwrap().value),
                    bits(single),
                    "seed {seed} shape {shape} lane {lane} s={s}"
                );
            }
        }
    }
}

/// The memoized embedded-chain solve returns the same α-weights as a fresh
/// solve, and repeated multi-source solver construction over one process hits
/// the cache (same Arc).
#[test]
fn embedded_chain_memoization_is_transparent() {
    let smp = random_smp(13);
    let n = smp.num_states();
    let sources: Vec<usize> = (0..n).step_by(2).collect();
    let first =
        PassageTimeSolver::with_options(&smp, &sources, &[n - 1], IterationOptions::default())
            .unwrap();
    let second =
        PassageTimeSolver::with_options(&smp, &sources, &[n - 1], IterationOptions::default())
            .unwrap();
    assert_eq!(first.alpha(), second.alpha());
    let a = smp.embedded_chain().unwrap();
    let b = smp.embedded_chain().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "second solve must hit the cache"
    );
    // Clones share the cache.
    let clone = smp.clone();
    let c = clone.embedded_chain().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&a, &c),
        "clones share the memoized solve"
    );
}
