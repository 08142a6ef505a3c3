//! Cross-crate numerical validation: the iterative passage-time algorithm, the
//! Laplace inversion algorithms and the distribution library must agree with each
//! other and with closed-form ground truth when all three are composed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smp_suite::core::{steady_state_probability, IterationOptions, PassageTimeSolver, SmpBuilder};
use smp_suite::distributions::Dist;
use smp_suite::laplace::{Euler, InversionMethod, Laguerre, MeasureKind};
use smp_suite::numeric::stats::{linspace, trapezoid};

#[test]
fn passage_density_of_exponential_tandem_is_erlang() {
    // k exponential stages in series: the passage density is Erlang(rate, k); check
    // the full chain (kernel -> iteration -> inversion) against the closed form for
    // both inversion algorithms.
    let rate = 1.5;
    let stages = 4;
    let mut builder = SmpBuilder::new(stages + 1);
    for i in 0..stages {
        builder.add_transition(i, i + 1, 1.0, Dist::exponential(rate));
    }
    builder.add_transition(stages, 0, 1.0, Dist::exponential(1.0));
    let smp = builder.build().unwrap();

    let solver = PassageTimeSolver::new(&smp, &[0], &[stages]).unwrap();
    let ts = linspace(0.2, 8.0, 30);
    for method in [InversionMethod::euler(), InversionMethod::laguerre()] {
        let density = solver.measure(MeasureKind::Density, method, &ts).unwrap();
        for (&t, f) in ts.iter().zip(density) {
            let expect =
                rate.powi(stages as i32) * t.powi(stages as i32 - 1) * (-rate * t).exp() / 6.0; // (k-1)! = 3! = 6
            assert!(
                (f - expect).abs() < 2e-4,
                "f({t}) = {f} vs Erlang density {expect}"
            );
        }
    }
}

#[test]
fn random_smp_densities_integrate_to_one_and_match_transform_mean() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..5 {
        let n = rng.gen_range(3..8);
        let mut builder = SmpBuilder::new(n);
        for i in 0..n {
            builder.add_transition(
                i,
                (i + 1) % n,
                1.0,
                Dist::uniform(0.1, rng.gen_range(0.5..2.0)),
            );
            if rng.gen_bool(0.6) {
                builder.add_transition(
                    i,
                    rng.gen_range(0..n),
                    rng.gen_range(0.3..1.5),
                    Dist::erlang(rng.gen_range(0.5..3.0), rng.gen_range(1..4)),
                );
            }
        }
        let smp = builder.build().unwrap();
        let target = n - 1;
        let solver = PassageTimeSolver::new(&smp, &[0], &[target]).unwrap();
        let euler = InversionMethod::euler;
        let mean = solver.measure(MeasureKind::MEAN, euler(), &[]).unwrap()[0];
        assert!(mean > 0.0, "trial {trial}: non-positive mean");

        let ts = linspace(mean * 0.01, mean * 8.0, 400);
        let density = solver.measure(MeasureKind::Density, euler(), &ts).unwrap();
        let mass = trapezoid(&ts, &density);
        assert!(
            (mass - 1.0).abs() < 0.05,
            "trial {trial}: density mass {mass}"
        );
        // First moment of the inverted density matches -L'(0).
        let weighted: Vec<f64> = ts.iter().zip(&density).map(|(t, f)| t * f).collect();
        let numeric_mean = trapezoid(&ts, &weighted);
        assert!(
            (numeric_mean - mean).abs() < 0.05 * mean + 0.05,
            "trial {trial}: numeric mean {numeric_mean} vs transform mean {mean}"
        );
    }
}

#[test]
fn euler_and_laguerre_agree_on_a_smooth_passage_density() {
    // A CTMC passage density is smooth and vanishes at infinity, so both inversion
    // methods apply and must agree.  (Transient distributions tend to a non-zero
    // steady-state constant, which the Laguerre expansion handles poorly — the paper
    // likewise reserves Laguerre for smooth, decaying densities and uses Euler
    // elsewhere.)
    let mut builder = SmpBuilder::new(3);
    builder.add_transition(0, 1, 1.0, Dist::exponential(1.0));
    builder.add_transition(1, 2, 1.0, Dist::exponential(2.0));
    builder.add_transition(2, 0, 1.0, Dist::exponential(0.5));
    let smp = builder.build().unwrap();

    let solver = PassageTimeSolver::new(&smp, &[0], &[2]).unwrap();
    let ts = linspace(0.5, 10.0, 12);
    let density = |method| solver.measure(MeasureKind::Density, method, &ts).unwrap();
    let euler_curve = density(InversionMethod::euler());
    let laguerre_curve = density(InversionMethod::laguerre());
    for ((t, a), b) in ts.iter().zip(euler_curve).zip(laguerre_curve) {
        assert!((a - b).abs() < 5e-4, "f({t}): euler {a} vs laguerre {b}");
    }

    // The Euler-inverted transient still approaches its steady-state asymptote.
    let transient =
        PassageTimeSolver::transient(&smp, &[0], &[2], IterationOptions::default()).unwrap();
    let steady = steady_state_probability(&smp, transient.targets()).unwrap();
    let curve = transient
        .measure(
            MeasureKind::Transient,
            InversionMethod::euler(),
            &linspace(5.0, 60.0, 6),
        )
        .unwrap();
    assert!((curve.last().unwrap() - steady).abs() < 0.01);
}

#[test]
fn direct_inverters_recover_a_composed_distribution() {
    // A convolution of a mixture with a deterministic shift, inverted directly —
    // exercises the distribution algebra plus both inversion code paths without any
    // SMP in the loop.
    let d = Dist::convolution(vec![
        Dist::mixture(vec![
            (0.5, Dist::erlang(2.0, 2)),
            (0.5, Dist::exponential(0.8)),
        ]),
        Dist::erlang(4.0, 2),
    ]);
    let euler = Euler::standard();
    let laguerre = Laguerre::standard();
    let ts = linspace(0.3, 8.0, 16);
    let mass: f64 = {
        let fine = linspace(0.01, 40.0, 2000);
        let values = euler.invert_many(&d, &fine);
        trapezoid(&fine, &values)
    };
    assert!((mass - 1.0).abs() < 1e-3, "density mass {mass}");
    for &t in &ts {
        let a = euler.invert(&d, t);
        let b = laguerre.invert(&d, t);
        assert!((a - b).abs() < 1e-3, "f({t}): euler {a} vs laguerre {b}");
        assert!(a > -1e-6);
    }
}
