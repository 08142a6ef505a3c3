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
//! wherever the sectioning search of [`quantiles_from_cdf`] asks — 16 `t`-points per
//! horizon level plus 24 per probability.

use crate::cdf::CdfCurve;
use crate::splan::InversionMethod;
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
/// until the CDF reaches `p`, then sections the cell that straddles it.  Returns `None`
/// if the probability is not reached within `max_horizon` (e.g. defective distributions).
pub fn quantile<L: LaplaceTransform + ?Sized>(
    method: InversionMethod,
    density_transform: &L,
    p: f64,
    initial_horizon: f64,
    max_horizon: f64,
) -> Option<f64>
where
    InversionMethod: Clone,
{
    assert!((0.0..1.0).contains(&p) || p == 1.0, "p must be in [0, 1]");
    let result: Result<Vec<Option<f64>>, std::convert::Infallible> =
        quantiles_from_cdf(&[p], initial_horizon, max_horizon, &mut |ts: &[f64]| {
            Ok(
                CdfCurve::from_density_transform(method.clone(), density_transform, ts)
                    .values()
                    .to_vec(),
            )
        });
    match result {
        Ok(mut quantiles) => quantiles.pop().flatten(),
        Err(never) => match never {},
    }
}

/// A batched CDF evaluator: maps a strictly increasing grid of positive times
/// to the CDF values on it.  The callback form taken by
/// [`quantiles_from_cdf`].
pub type CdfOnGrid<'a, E> = dyn FnMut(&[f64]) -> Result<Vec<f64>, E> + 'a;

/// The generic quantile search: horizon doubling plus sectioning over **any**
/// CDF-on-grid provider.
///
/// `cdf_on_grid` receives a strictly increasing grid of positive times and
/// returns the CDF values on it — by in-process inversion ([`quantile`] wraps
/// this function that way), by a distributed pipeline run, by uniformization,
/// or by anything else.  This is the single home of the search policy, so
/// every engine that layers quantiles on the CDF machinery asks for
/// **identical** grids and therefore (given identical CDF values) reports
/// bitwise-identical quantiles.
///
/// # The policy
///
/// Starting from `initial_horizon`, each horizon level reads the CDF on the
/// 16 points `horizon·k/16`, one grid for *all* pending probabilities.  The
/// horizon doubles (up to `max_horizon`) until every probability is reached,
/// and because the points are computed as that product, a doubled level's
/// first eight points are the previous level's even points bit for bit — a
/// provider that remembers what it evaluated pays for eight new points, not
/// sixteen.
///
/// A probability `p` the level reaches is then *sectioned* inside the level
/// cell that first straddles it: three rounds of 8 interior probes cut the
/// bracket into 9 and keep the sub-cell straddling `p`, and the answer is the
/// linear inverse interpolation of `p` in the final cell, whose width is
/// horizon/11,664.  Probe values are clamped into — and made monotone from —
/// the CDF values already known at the bracket's two ends (the repair
/// [`CdfCurve::from_samples`] applies to a whole curve, anchored at both
/// ends), so inversion noise can never walk the bracket off `p`.
///
/// The cost is 16 `t`-points per level plus 24 per probability: a
/// `quantile@0.5,0.9` that resolves on its first level is 64 `t`-points
/// (2,944 Euler `s`-points).  The entry for a probability not reached within
/// `max_horizon` is `None` (e.g. defective distributions).  Errors from
/// `cdf_on_grid` propagate immediately.
///
/// # One provider call per probability per round
///
/// A provider need not be pointwise: uniformization sums every `t` of a call
/// to the depth its largest `t` needs, so a value can depend on which other
/// times share its call.  Every call here therefore depends only on the
/// horizon (the level grid) or on one probability's own bracket (its eight
/// probes) — never on which other probabilities happen to be in the batch —
/// so each probability resolves through exactly the calls a
/// single-probability search would make, and batching never changes the
/// values.
///
/// # The origin is never probed
///
/// Transform inversion is undefined at `t = 0`, so the first level cell's
/// lower edge stands for `F(0) = 0` without being asked.  A bracket still
/// anchored there after the last round — `p` at or below the CDF at the
/// smallest time probed — resolves to that time, the search floor
/// horizon/11,664, rather than interpolating towards a value nobody
/// evaluated.
pub fn quantiles_from_cdf<E>(
    probs: &[f64],
    initial_horizon: f64,
    max_horizon: f64,
    cdf_on_grid: &mut CdfOnGrid<'_, E>,
) -> Result<Vec<Option<f64>>, E> {
    /// Points of a horizon level's grid, `horizon·k/LEVEL_POINTS`.
    const LEVEL_POINTS: usize = 16;
    /// Interior probes of one sectioning round: the bracket is cut into
    /// `SECTION_PROBES + 1` cells.
    const SECTION_PROBES: usize = 8;
    /// Sectioning rounds per probability.
    const SECTION_ROUNDS: usize = 3;

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
            lo: (0.0, 0.0),
            hi: (horizon, 1.0),
        };
        let curve = level.repair(&ts, cdf_on_grid(&ts)?);
        let mut still_pending = Vec::with_capacity(pending.len());
        for index in pending {
            let p = probs[index];
            let Some(mut bracket) = level.cell_straddling(&curve, p) else {
                still_pending.push(index);
                continue;
            };
            for _ in 0..SECTION_ROUNDS {
                let (lo, width) = (bracket.lo.0, bracket.hi.0 - bracket.lo.0);
                let probes: Vec<f64> = (1..=SECTION_PROBES)
                    .map(|j| lo + width * j as f64 / (SECTION_PROBES + 1) as f64)
                    .collect();
                let mut section = bracket.repair(&probes, cdf_on_grid(&probes)?);
                section.push(bracket.hi);
                bracket = bracket
                    .cell_straddling(&section, p)
                    .expect("a bracket's upper end reaches its probability");
            }
            out[index] = Some(bracket.interpolate(p));
        }
        pending = still_pending;
        if horizon >= max_horizon {
            break;
        }
        horizon = (horizon * 2.0).min(max_horizon);
    }
    Ok(out)
}

/// A time interval with the CDF value known at each end, as `(t, F(t))`
/// pairs.  The level grid's first cell starts at the origin, `(0, 0)`, which
/// is never evaluated.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    lo: (f64, f64),
    hi: (f64, f64),
}

impl Bracket {
    /// Pairs interior times with their raw CDF values, each clamped into the
    /// bracket's end values and raised to the running maximum from the lower
    /// end.
    fn repair(&self, ts: &[f64], raw: Vec<f64>) -> Vec<(f64, f64)> {
        assert_eq!(ts.len(), raw.len(), "mismatched sample lengths");
        let mut running = self.lo.1;
        ts.iter()
            .zip(raw)
            .map(|(&t, v)| {
                running = running.max(v.clamp(self.lo.1, self.hi.1));
                (t, running)
            })
            .collect()
    }

    /// The cell that ends at the first of `samples` (repaired interior points
    /// of this bracket) whose value reaches `p`; `None` when none does.
    fn cell_straddling(&self, samples: &[(f64, f64)], p: f64) -> Option<Bracket> {
        let k = samples.iter().position(|&(_, v)| v >= p)?;
        Some(Bracket {
            lo: if k == 0 { self.lo } else { samples[k - 1] },
            hi: samples[k],
        })
    }

    /// The time at which the chord between the ends reaches `p` — or the
    /// upper end itself when the lower end is the origin.
    fn interpolate(&self, p: f64) -> f64 {
        let ((t0, f0), (t1, f1)) = (self.lo, self.hi);
        if t0 == 0.0 {
            return t1;
        }
        quantile_from_cdf(&[t0, t1], &[f0, f1], p).expect("a bracket straddles its probability")
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
        // The generic search fed by in-process inversion must agree bitwise
        // with the historical `quantile()` API, which now wraps it.
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
                Ok(CdfCurve::from_density_transform(method.clone(), &d, ts)
                    .values()
                    .to_vec())
            },
        )
        .unwrap();
        for (&p, &q) in probs.iter().zip(&generic) {
            let wrapped = quantile(InversionMethod::euler(), &d, p, 1.0, 64.0);
            assert_eq!(q, wrapped, "p = {p}");
            assert!(q.is_some());
        }
        // Batching shares the level grids: one per horizon level serves every
        // probability, plus three sectioning rounds per probability.  The
        // Erlang(2, 3) quartile (0.86), median (1.34) and 0.9-quantile (2.66)
        // are first reached at horizons 1, 2 and 4: 3 levels + 3·3 rounds.
        assert_eq!(sweeps, 3 + 3 * probs.len(), "shared level grids");
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
        let mut ramp = |ts: &[f64]| -> Result<Vec<f64>, std::convert::Infallible> {
            Ok(ts.iter().map(|t| (t / 2.0).min(1.0)).collect())
        };

        // p -> 0: resolved on the first level grid; the answer is the
        // smallest time the sectioning probes, i.e. the search's resolution
        // floor, never a negative or zero time.
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
        let mut asymptotic = |ts: &[f64]| -> Result<Vec<f64>, std::convert::Infallible> {
            Ok(ts.iter().map(|t| 1.0 - (-t).exp()).collect())
        };
        let result = quantiles_from_cdf(&[1.0], 1.0, 16.0, &mut asymptotic).unwrap();
        assert_eq!(result[0], None);

        // Non-bracketing (far too large) initial horizon: the true median of
        // the ramp (t = 1) sits below the first level grid point at
        // 1024/16 = 64.  The search still resolves -- by sectioning the cell
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
            &mut |ts: &[f64]| Ok(ts.iter().map(|t| 0.4 * (1.0 - (-t).exp())).collect()),
        )
        .unwrap();
        assert!(result[0].is_some());
        assert_eq!(result[1], None);
    }
}
