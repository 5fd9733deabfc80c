//! Forecast intervals. Sec. IV-B: "each time we should obtain a forecast
//! range of the prediction result, we can use the method … to decide the
//! predicted value" — the MMSE forecast comes with a variance, and the
//! pre-alert rule can fire on the interval's upper edge rather than the
//! point estimate (earlier, more conservative alerts).
//!
//! For an ARMA process written as `Y_t = μ + Σ ψ_j Z_{t−j}` (the MA(∞)
//! expansion), the h-step forecast error variance is
//! `σ² · Σ_{j<h} ψ_j²`; differencing is handled by integrating the ψ
//! weights.

use crate::arima::ArimaModel;

/// A point forecast with a symmetric confidence band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// MMSE point estimate.
    pub mean: f64,
    /// Lower edge of the band.
    pub lower: f64,
    /// Upper edge of the band.
    pub upper: f64,
    /// Forecast standard error.
    pub std_error: f64,
}

/// Compute the ψ (impulse-response) weights of an ARMA(p, q) model:
/// `ψ_0 = 1`, `ψ_j = θ_j + Σ_{i=1..min(j,p)} φ_i ψ_{j−i}`.
pub fn psi_weights(phi: &[f64], theta: &[f64], n: usize) -> Vec<f64> {
    let mut psi = Vec::with_capacity(n);
    psi.push(1.0);
    for j in 1..n {
        let mut v = if j <= theta.len() { theta[j - 1] } else { 0.0 };
        for (i, &f) in phi.iter().enumerate() {
            let lag = j as i64 - (i as i64 + 1);
            if lag >= 0 {
                v += f * psi[lag as usize];
            }
        }
        psi.push(v);
    }
    psi
}

/// Integrate ψ weights once per differencing order: the forecast of the
/// original series is a cumulative sum of forecasts of the differenced
/// series, so its error weights are partial sums of the inner weights.
fn integrate(psi: &[f64], d: usize) -> Vec<f64> {
    let mut cur = psi.to_vec();
    for _ in 0..d {
        let mut acc = 0.0;
        for v in cur.iter_mut() {
            acc += *v;
            *v = acc;
        }
    }
    cur
}

impl ArimaModel {
    /// MMSE forecasts with `z`-standard-error bands (z = 1.96 for 95 %).
    ///
    /// Combines [`ArimaModel::forecast`] with the ψ-weight variance
    /// `Var[e_{t+h}] = σ̂² Σ_{j<h} ψ̃_j²` where ψ̃ are the `d`-integrated
    /// weights.
    pub fn forecast_with_interval(&self, history: &[f64], horizon: usize, z: f64) -> Vec<Forecast> {
        assert!(z >= 0.0, "band width must be non-negative");
        let means = self.forecast(history, horizon);
        let psi = integrate(&psi_weights(&self.phi, &self.theta, horizon), self.spec.d);
        let mut cum = 0.0;
        means
            .into_iter()
            .zip(psi)
            .map(|(mean, w)| {
                cum += w * w;
                let se = (self.sigma2 * cum).sqrt();
                Forecast {
                    mean,
                    lower: mean - z * se,
                    upper: mean + z * se,
                    std_error: se,
                }
            })
            .collect()
    }
}

/// The conservative pre-alert rule: alert when the *upper* edge of the
/// h-step forecast band crosses the threshold. Returns the first step (1-
/// based) at which that happens.
pub fn first_alert_step(forecasts: &[Forecast], threshold: f64) -> Option<usize> {
    forecasts
        .iter()
        .position(|f| f.upper > threshold)
        .map(|i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arima::{ArimaModel, ArimaSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ar1(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = vec![0.0];
        for _ in 0..n {
            let e: f64 = rng.gen_range(-0.5..0.5);
            let prev = *y.last().expect("non-empty");
            y.push(phi * prev + e);
        }
        y
    }

    #[test]
    fn psi_weights_of_ar1_are_geometric() {
        let psi = psi_weights(&[0.5], &[], 5);
        let expect = [1.0, 0.5, 0.25, 0.125, 0.0625];
        for (a, b) in psi.iter().zip(expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn psi_weights_of_ma1() {
        let psi = psi_weights(&[], &[0.7], 4);
        assert_eq!(psi, vec![1.0, 0.7, 0.0, 0.0]);
    }

    #[test]
    fn psi_weights_of_arma11() {
        // ψ_1 = φ + θ, ψ_j = φ ψ_{j−1} afterwards
        let psi = psi_weights(&[0.5], &[0.3], 4);
        assert!((psi[1] - 0.8).abs() < 1e-12);
        assert!((psi[2] - 0.4).abs() < 1e-12);
        assert!((psi[3] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn interval_width_grows_with_horizon() {
        let y = ar1(0.7, 5_000, 1);
        let m = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 0)).unwrap();
        let fc = m.forecast_with_interval(&y, 10, 1.96);
        for w in fc.windows(2) {
            assert!(
                w[1].std_error >= w[0].std_error - 1e-12,
                "variance must be non-decreasing"
            );
        }
        // h=1 standard error ≈ innovation σ
        assert!((fc[0].std_error - m.sigma2.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn random_walk_interval_grows_like_sqrt_h() {
        // ARIMA(0,1,0): Var[e_h] = h σ²
        let mut rng = StdRng::seed_from_u64(3);
        let mut y = vec![0.0f64];
        for _ in 0..3_000 {
            let e: f64 = rng.gen_range(-0.5..0.5);
            let prev = *y.last().expect("non-empty");
            y.push(prev + e);
        }
        let m = ArimaModel::fit(&y, ArimaSpec::new(0, 1, 0)).unwrap();
        let fc = m.forecast_with_interval(&y, 9, 1.0);
        let r = fc[8].std_error / fc[0].std_error;
        assert!((r - 3.0).abs() < 0.01, "sqrt(9) = 3, got {r}");
    }

    #[test]
    fn band_contains_future_values_mostly() {
        let y = ar1(0.6, 3_000, 9);
        let split = 2_900;
        let m = ArimaModel::fit(&y[..split], ArimaSpec::new(1, 0, 0)).unwrap();
        // count 95% coverage of 1-step forecasts over the test range
        let mut covered = 0;
        let mut total = 0;
        for t in split..y.len() - 1 {
            let fc = m.forecast_with_interval(&y[..t], 1, 1.96)[0];
            if y[t] >= fc.lower && y[t] <= fc.upper {
                covered += 1;
            }
            total += 1;
        }
        let rate = covered as f64 / total as f64;
        assert!(rate > 0.85, "coverage {rate} too low for a 95% band");
    }

    #[test]
    fn first_alert_step_finds_upper_crossing() {
        let fcs = vec![
            Forecast {
                mean: 0.5,
                lower: 0.4,
                upper: 0.6,
                std_error: 0.05,
            },
            Forecast {
                mean: 0.7,
                lower: 0.5,
                upper: 0.93,
                std_error: 0.1,
            },
            Forecast {
                mean: 0.8,
                lower: 0.6,
                upper: 1.0,
                std_error: 0.1,
            },
        ];
        assert_eq!(first_alert_step(&fcs, 0.9), Some(2));
        assert_eq!(first_alert_step(&fcs, 1.5), None);
        // the conservative rule fires before the point estimate would
        assert!(fcs[1].mean < 0.9);
    }
}
