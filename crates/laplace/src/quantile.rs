//! Passage-time quantiles and reliability probabilities.
//!
//! Convenience wrappers that go straight from a density transform to the two numbers
//! modellers actually quote:
//!
//! * "the probability that the system processes 175 voters in under 440 s is 0.9858"
//!   — [`probability_of_completion_by`];
//! * "the 99th-percentile response time is …" — [`quantile`].
//!
//! Both invert `L(s)/s`: the first on a short grid ending at the deadline, the second
//! wherever the search of [`quantiles_from_cdf`] asks — 16 `t`-points per horizon
//! level, then one per Newton round, whose step divides by the density `L(s)`
//! inverts from the same transform values.

use crate::cdf::CdfCurve;
use crate::splan::{InversionMethod, SPointPlan, TransformValues};
use smp_distributions::LaplaceTransform;
use smp_numeric::stats::{linspace, quantile_from_cdf};

/// Probability that the passage completes by time `deadline`, i.e. `F(deadline)`.
///
/// # Example
///
/// The paper's style of reliability query — the probability that an
/// Erlang(2, 4) passage completes within 3 time units — and the matching
/// quantile look-up that inverts it:
///
/// ```
/// use smp_laplace::{probability_of_completion_by, quantile, InversionMethod};
/// use smp_distributions::Dist;
///
/// let d = Dist::erlang(2.0, 4);
/// let p = probability_of_completion_by(InversionMethod::euler(), &d, 3.0);
/// assert!((0.0..=1.0).contains(&p));
///
/// // The p-quantile asks the inverse question — by which time does the
/// // completion probability reach p? — so it recovers the deadline.
/// let t = quantile(InversionMethod::euler(), &d, p, 1.0, 64.0).unwrap();
/// assert!((t - 3.0).abs() < 0.05, "q({p}) = {t}");
/// ```
pub fn probability_of_completion_by<L: LaplaceTransform + ?Sized>(
    method: InversionMethod,
    density_transform: &L,
    deadline: f64,
) -> f64 {
    assert!(deadline > 0.0, "deadline must be positive");
    // A short grid ending at the deadline: the last point is the answer, the others
    // stabilise the monotonicity repair.
    let ts = linspace(deadline / 16.0, deadline, 16);
    let curve = CdfCurve::from_density_transform(method, density_transform, &ts);
    curve.probability_at(deadline)
}

/// The `p`-quantile of the passage time: the earliest time by which the completion
/// probability reaches `p`.
///
/// The search ([`quantiles_from_cdf`]) doubles the time horizon (up to `max_horizon`)
/// until the CDF reaches `p`, then takes Newton steps on the density inside the cell
/// that straddles it.  Each grid evaluates `L(s)` once per planned point and inverts
/// it twice: `L(s)/s` for the CDF, `L(s)` for the density.  Returns `None` if the
/// probability is not reached within `max_horizon` (e.g. defective distributions).
pub fn quantile<L: LaplaceTransform + ?Sized>(
    method: InversionMethod,
    density_transform: &L,
    p: f64,
    initial_horizon: f64,
    max_horizon: f64,
) -> Option<f64> {
    assert!((0.0..1.0).contains(&p) || p == 1.0, "p must be in [0, 1]");
    let result: Result<Vec<Option<f64>>, std::convert::Infallible> =
        quantiles_from_cdf(&[p], initial_horizon, max_horizon, &mut |ts: &[f64]| {
            // The search repairs the CDF values itself, as `CdfCurve` would.
            let plan = SPointPlan::new(method.clone(), ts);
            let values = TransformValues::compute(&plan, density_transform);
            let cdf = plan.invert_with(|s| values.get(s).expect("planned point computed") / s);
            Ok(cdf.into_iter().zip(plan.invert(&values)).collect())
        });
    match result {
        Ok(mut quantiles) => quantiles.pop().flatten(),
        Err(never) => match never {},
    }
}

/// A batched CDF-and-density evaluator: maps a strictly increasing grid of
/// positive times to the pairs `(F(t), f(t))` on it — the passage CDF and its
/// density, which a Laplace engine inverts from the same transform values.
/// The callback form taken by [`quantiles_from_cdf`].
pub type CdfOnGrid<'a, E> = dyn FnMut(&[f64]) -> Result<Vec<(f64, f64)>, E> + 'a;

/// Points of a horizon level's grid, `horizon·k/LEVEL_POINTS`.
const LEVEL_POINTS: usize = 16;
/// Probes the Newton refinement spends on one probability at most.
const MAX_PROBES: usize = 8;
/// The search floor is `horizon / FLOOR_DIVISOR` (16·9³): no probe is placed
/// below it.
const FLOOR_DIVISOR: f64 = 11_664.0;
/// A next step no longer than `horizon · STEP_TOLERANCE` (2⁻²⁴) ends the
/// refinement.
const STEP_TOLERANCE: f64 = 1.0 / 16_777_216.0;

/// The generic quantile search: horizon doubling plus a safeguarded Newton
/// refinement over **any** CDF-and-density provider.
///
/// `cdf_on_grid` receives a strictly increasing grid of positive times and
/// returns `(F(t), f(t))` on it — by in-process inversion ([`quantile`] wraps
/// this function that way), by a distributed pipeline run, by uniformization,
/// or by anything else.  This is the single home of the search policy, so
/// every engine that layers quantiles on the CDF machinery asks for
/// **identical** grids and therefore (given identical values) reports
/// bitwise-identical quantiles.
///
/// # The policy
///
/// Starting from `initial_horizon`, each horizon level reads the provider on
/// the 16 points `horizon·k/16`, one grid for *all* pending probabilities.
/// The horizon doubles (up to `max_horizon`) until every probability is
/// reached, and because the points are computed as that product, a doubled
/// level's first eight points are the previous level's even points bit for
/// bit — a provider that remembers what it evaluated pays for eight new
/// points, not sixteen.
///
/// A probability `p` the level reaches is then *refined* inside the level
/// cell that first straddles it, one probe per round.  The first step starts
/// from the cell end whose CDF value lies nearer `p` (the upper end when the
/// cell starts at the origin), and each step is the Newton step
/// `(F(t) − p) / f(t)` from the last point.  A step that does not land
/// strictly inside the current bracket — where a density that is not
/// positive and finite sends it — or is longer than half the step before it
/// (Newton that is not converging, as behind a density several times too
/// large) falls back to the bracket's Illinois-weighted chord: regula falsi
/// that halves the residual of an end kept twice in a row.  Each probe
/// replaces the bracket end on its side of `p`.  The refinement stops when
/// the next step is at most horizon·2⁻²⁴, or after 8 probes, and answers
/// with the final bracket's chord.  Probe values are clamped into — and made
/// monotone from — the CDF values already known at the bracket's two ends
/// (the repair [`CdfCurve::from_samples`] applies to a whole curve, anchored
/// at both ends), so inversion noise can never walk the bracket off `p`.
///
/// The cost is 16 `t`-points per level plus one per Newton round: on a
/// smooth CDF two to four rounds per probability.  The entry for a
/// probability not reached within `max_horizon` is `None` (e.g. defective
/// distributions).  Errors from `cdf_on_grid` propagate immediately.
///
/// # One provider call per probability per round
///
/// A provider need not be pointwise: uniformization sums every `t` of a call
/// to the depth its largest `t` needs, so a value can depend on which other
/// times share its call.  Every call here therefore depends only on the
/// horizon (the level grid) or on one probability's own bracket (its probe)
/// — never on which other probabilities happen to be in the batch — so each
/// probability resolves through exactly the calls a single-probability
/// search would make, and batching never changes the values.
///
/// # The origin is never probed
///
/// Transform inversion is undefined at `t = 0`, so the first level cell's
/// lower edge stands for `F(0) = 0` without being asked, and no probe is
/// placed below the search floor horizon/11,664.  A bracket still anchored at
/// the origin when the refinement stops resolves to its upper end — the
/// floor itself when `p` is at or below the CDF there — rather than
/// interpolating towards a value nobody evaluated.
pub fn quantiles_from_cdf<E>(
    probs: &[f64],
    initial_horizon: f64,
    max_horizon: f64,
    cdf_on_grid: &mut CdfOnGrid<'_, E>,
) -> Result<Vec<Option<f64>>, E> {
    assert!(
        initial_horizon > 0.0 && max_horizon >= initial_horizon,
        "horizons must satisfy 0 < initial <= max"
    );
    assert!(
        probs.iter().all(|p| (0.0..=1.0).contains(p)),
        "probabilities must be in [0, 1]"
    );
    let mut out: Vec<Option<f64>> = vec![None; probs.len()];
    let mut pending: Vec<usize> = (0..probs.len()).collect();
    let mut horizon = initial_horizon;
    while !pending.is_empty() {
        let ts: Vec<f64> = (1..=LEVEL_POINTS)
            .map(|k| horizon * k as f64 / LEVEL_POINTS as f64)
            .collect();
        // The level is itself a bracket: from the origin to wherever the
        // CDF — at most 1 — stands at the horizon.
        let level = Bracket {
            lo: Sample::unprobed(0.0, 0.0),
            hi: Sample::unprobed(horizon, 1.0),
        };
        let curve = level.repair(&ts, cdf_on_grid(&ts)?);
        let mut still_pending = Vec::with_capacity(pending.len());
        for index in pending {
            let p = probs[index];
            match level.cell_straddling(&curve, p) {
                Some(cell) => out[index] = Some(refine(cell, p, horizon, cdf_on_grid)?),
                None => still_pending.push(index),
            }
        }
        pending = still_pending;
        if horizon >= max_horizon {
            break;
        }
        horizon = (horizon * 2.0).min(max_horizon);
    }
    Ok(out)
}

/// The safeguarded Newton refinement of `p` inside the level `cell` that
/// straddles it, one provider call of one point per round.
fn refine<E>(
    cell: Bracket,
    p: f64,
    horizon: f64,
    cdf_on_grid: &mut CdfOnGrid<'_, E>,
) -> Result<f64, E> {
    let floor = horizon / FLOOR_DIVISOR;
    if p <= cell.lo.cdf {
        // Only the origin's F(0) = 0 reaches p here: the quantile of p = 0.
        return Ok(floor);
    }
    let tolerance = horizon * STEP_TOLERANCE;
    let mut bracket = cell;
    let mut chord = Chord::of(&bracket, p);
    let mut from = if bracket.lo.t > 0.0 && p - bracket.lo.cdf < bracket.hi.cdf - p {
        bracket.lo
    } else {
        bracket.hi
    };
    let mut last_step = f64::INFINITY;
    for _ in 0..MAX_PROBES {
        if bracket.lo.t == 0.0 && bracket.hi.t <= floor {
            break;
        }
        // `from` is a bracket end, so a density that is not positive and
        // finite sends the step out of the bracket or leaves it on the end.
        let newton = from.t - (from.cdf - p) / from.density;
        let t = if newton > bracket.lo.t
            && newton < bracket.hi.t
            && (newton - from.t).abs() <= 0.5 * last_step
        {
            newton
        } else {
            chord.at(&bracket)
        }
        .max(floor);
        last_step = (t - from.t).abs();
        if last_step <= tolerance {
            break;
        }
        let probe = bracket.repair(&[t], cdf_on_grid(&[t])?)[0];
        chord.replace(&mut bracket, probe, p);
        from = probe;
    }
    Ok(bracket.interpolate(p))
}

/// A point of the CDF as the search knows it: the time, the repaired CDF
/// value there, and the density — NaN at a bracket end nobody evaluated.
#[derive(Debug, Clone, Copy)]
struct Sample {
    t: f64,
    cdf: f64,
    density: f64,
}

impl Sample {
    /// A bracket end whose CDF value is known without a probe: the origin, or
    /// the ceiling 1 at a level's horizon.
    fn unprobed(t: f64, cdf: f64) -> Sample {
        Sample {
            t,
            cdf,
            density: f64::NAN,
        }
    }
}

/// A time interval with the CDF known at each end.  The level grid's first
/// cell starts at the origin, `(0, 0)`, which is never evaluated.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    lo: Sample,
    hi: Sample,
}

impl Bracket {
    /// Pairs interior times with their raw `(F, f)` values, each CDF value
    /// clamped into the bracket's end values and raised to the running
    /// maximum from the lower end.
    fn repair(&self, ts: &[f64], raw: Vec<(f64, f64)>) -> Vec<Sample> {
        assert_eq!(ts.len(), raw.len(), "mismatched sample lengths");
        let mut running = self.lo.cdf;
        ts.iter()
            .zip(raw)
            .map(|(&t, (cdf, density))| {
                running = running.max(cdf.clamp(self.lo.cdf, self.hi.cdf));
                Sample {
                    t,
                    cdf: running,
                    density,
                }
            })
            .collect()
    }

    /// The cell that ends at the first of `samples` (repaired interior points
    /// of this bracket) whose value reaches `p`; `None` when none does.
    fn cell_straddling(&self, samples: &[Sample], p: f64) -> Option<Bracket> {
        let k = samples.iter().position(|s| s.cdf >= p)?;
        Some(Bracket {
            lo: if k == 0 { self.lo } else { samples[k - 1] },
            hi: samples[k],
        })
    }

    /// The time at which the chord between the ends reaches `p` — or the
    /// upper end itself when the lower end is the origin.
    fn interpolate(&self, p: f64) -> f64 {
        let (lo, hi) = (self.lo, self.hi);
        if lo.t == 0.0 {
            return hi.t;
        }
        quantile_from_cdf(&[lo.t, hi.t], &[lo.cdf, hi.cdf], p)
            .expect("a bracket straddles its probability")
    }
}

/// The Illinois-weighted chord of a bracket: the residuals `F − p` at its two
/// ends, the one at an end kept twice in a row halved, so a chord pinned to
/// one end of a curved CDF still closes in on `p`.
#[derive(Debug, Clone, Copy)]
struct Chord {
    lo: f64,
    hi: f64,
    /// Whether the last probe replaced the upper end; `None` before any.
    upper_replaced: Option<bool>,
}

impl Chord {
    fn of(bracket: &Bracket, p: f64) -> Chord {
        Chord {
            lo: bracket.lo.cdf - p,
            hi: bracket.hi.cdf - p,
            upper_replaced: None,
        }
    }

    /// Where the weighted chord crosses `p`.  The lower residual is
    /// negative (a lower end lies below `p`) and the upper one is not, so
    /// the chord has a slope.
    fn at(&self, bracket: &Bracket) -> f64 {
        bracket.lo.t - self.lo * (bracket.hi.t - bracket.lo.t) / (self.hi - self.lo)
    }

    /// Makes `probe` the bracket end on its side of `p`.
    fn replace(&mut self, bracket: &mut Bracket, probe: Sample, p: f64) {
        let upper = probe.cdf >= p;
        if upper {
            bracket.hi = probe;
            self.hi = probe.cdf - p;
        } else {
            bracket.lo = probe;
            self.lo = probe.cdf - p;
        }
        if self.upper_replaced == Some(upper) {
            if upper {
                self.lo *= 0.5;
            } else {
                self.hi *= 0.5;
            }
        }
        self.upper_replaced = Some(upper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_distributions::Dist;

    #[test]
    fn completion_probability_exponential() {
        let d = Dist::exponential(1.0);
        let p = probability_of_completion_by(InversionMethod::euler(), &d, 2.0);
        let expect = 1.0 - (-2.0f64).exp();
        assert!((p - expect).abs() < 1e-5, "P = {p} vs {expect}");
    }

    #[test]
    fn quantile_exponential_median() {
        let d = Dist::exponential(2.0);
        let q = quantile(InversionMethod::euler(), &d, 0.5, 1.0, 64.0).unwrap();
        let expect = std::f64::consts::LN_2 / 2.0;
        assert!((q - expect).abs() < 0.01, "median {q} vs {expect}");
    }

    #[test]
    fn quantile_expands_horizon_when_needed() {
        // Erlang with mean 50 — the initial horizon of 1 is far too small.
        let d = Dist::erlang(0.1, 5);
        let q = quantile(InversionMethod::euler(), &d, 0.9, 1.0, 1024.0).unwrap();
        assert!(q > 50.0 && q < 150.0, "q90 = {q}");
    }

    #[test]
    fn quantile_unreachable_returns_none() {
        let d = Dist::erlang(0.001, 5); // mean 5000, far beyond the horizon cap
        assert_eq!(quantile(InversionMethod::euler(), &d, 0.99, 1.0, 8.0), None);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn rejects_bad_deadline() {
        probability_of_completion_by(InversionMethod::euler(), &Dist::exponential(1.0), 0.0);
    }

    #[test]
    fn quantiles_from_cdf_matches_the_transform_wrapper() {
        // The generic search fed by two separate inversions — the CDF curve
        // of `L(s)/s`, the density of `L(s)` — must agree bitwise with the
        // `quantile()` API, which wraps it and inverts one set of values twice.
        let d = Dist::erlang(2.0, 3);
        let method = InversionMethod::euler();
        let probs = [0.25, 0.5, 0.9];
        let mut sweeps = 0usize;
        let generic: Vec<Option<f64>> = quantiles_from_cdf::<std::convert::Infallible>(
            &probs,
            1.0,
            64.0,
            &mut |ts: &[f64]| {
                sweeps += 1;
                let cdf = CdfCurve::from_density_transform(method.clone(), &d, ts);
                let plan = SPointPlan::new(method.clone(), ts);
                let density = plan.invert(&TransformValues::compute(&plan, &d));
                Ok(cdf.values().iter().copied().zip(density).collect())
            },
        )
        .unwrap();
        for (&p, &q) in probs.iter().zip(&generic) {
            let wrapped = quantile(InversionMethod::euler(), &d, p, 1.0, 64.0);
            assert_eq!(q, wrapped, "p = {p}");
            assert!(q.is_some());
        }
        // Batching shares the level grids: one per horizon level serves every
        // probability, plus one probe per Newton round.  The Erlang(2, 3)
        // quartile (0.86), median (1.34) and 0.9-quantile (2.66) are first
        // reached at horizons 1, 2 and 4: 3 levels + 7 rounds among them.
        assert_eq!(sweeps, 3 + 7, "shared level grids");
    }

    #[test]
    fn quantiles_from_cdf_propagates_provider_errors() {
        let result =
            quantiles_from_cdf::<String>(
                &[0.5],
                1.0,
                8.0,
                &mut |_| Err("backend lost".to_string()),
            );
        assert_eq!(result.unwrap_err(), "backend lost");
    }

    #[test]
    fn quantiles_from_cdf_edge_probabilities() {
        // Synthetic CDF F(t) = min(1, t/2): linear ramp that reaches 1 exactly
        // at t = 2, so every edge case has a known answer.
        // Its density is 1/2 up to t = 2 and 0 on the flat top.
        let mut ramp = |ts: &[f64]| -> Result<Vec<(f64, f64)>, std::convert::Infallible> {
            Ok(ts
                .iter()
                .map(|&t| if t < 2.0 { (t / 2.0, 0.5) } else { (1.0, 0.0) })
                .collect())
        };

        // p -> 0: resolved on the first level grid; the answer is the
        // smallest time the search probes, i.e. its resolution floor, never a
        // negative or zero time.
        let result = quantiles_from_cdf(&[0.0, 1e-12], 1.0, 16.0, &mut ramp).unwrap();
        for (p, q) in [0.0, 1e-12].iter().zip(&result) {
            let q = q.expect("tiny probabilities resolve immediately");
            assert!(q > 0.0 && q <= 1.0 / 64.0, "q({p}) = {q}");
        }

        // p = 1: reached exactly at t = 2 (a point of the second level's grid).
        let result = quantiles_from_cdf(&[1.0], 1.0, 16.0, &mut ramp).unwrap();
        let q = result[0].expect("the ramp reaches 1 within the horizon");
        assert!((q - 2.0).abs() < 0.1, "q(1.0) = {q}");

        // p = 1 against an asymptotic CDF that never *equals* 1 on the grid:
        // reported as unreachable, not as the horizon cap.
        let mut asymptotic = |ts: &[f64]| -> Result<Vec<(f64, f64)>, std::convert::Infallible> {
            Ok(ts.iter().map(|t| (1.0 - (-t).exp(), (-t).exp())).collect())
        };
        let result = quantiles_from_cdf(&[1.0], 1.0, 16.0, &mut asymptotic).unwrap();
        assert_eq!(result[0], None);

        // Non-bracketing (far too large) initial horizon: the true median of
        // the ramp (t = 1) sits below the first level grid point at
        // 1024/16 = 64.  The search still resolves -- by refining the cell
        // that starts at the origin, never below the true quantile and never
        // above the level cell that first crossed p.
        let result = quantiles_from_cdf(&[0.5], 1024.0, 1024.0, &mut ramp).unwrap();
        let q = result[0].expect("resolved on the oversized grid");
        assert!((1.0..=16.0).contains(&q), "q(0.5) = {q} on a 1024 horizon");

        // Non-bracketing (too small) initial horizon with no room to expand:
        // max_horizon == initial_horizon < q(p) means None, not a clamp.
        let result = quantiles_from_cdf(&[0.9], 0.25, 0.25, &mut ramp).unwrap();
        assert_eq!(result[0], None);
    }

    #[test]
    fn quantiles_from_cdf_reports_unreachable_probs_as_none() {
        // A defective CDF that tops out at 0.4: the 0.9-quantile is never
        // reached, the 0.25-quantile is.
        let result = quantiles_from_cdf::<std::convert::Infallible>(
            &[0.25, 0.9],
            1.0,
            16.0,
            &mut |ts: &[f64]| {
                Ok(ts
                    .iter()
                    .map(|t| (0.4 * (1.0 - (-t).exp()), 0.4 * (-t).exp()))
                    .collect())
            },
        )
        .unwrap();
        assert!(result[0].is_some());
        assert_eq!(result[1], None);
    }
}
