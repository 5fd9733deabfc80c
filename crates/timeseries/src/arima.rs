//! ARIMA(p, d, q) estimation and MMSE forecasting (Sec. IV-B).
//!
//! The paper writes the model as `φ(L) ∇^d Y_t = θ(L) Z_t` with
//! `Z_t ~ WN(0, σ²)` and forecasts with the minimum-mean-square-error
//! recursion — one-step-ahead directly, k-step-ahead "recursively using the
//! one-step-ahead value as the historical data" (Eqn. 12).
//!
//! Estimation uses the Hannan–Rissanen procedure: a long-AR fit supplies
//! innovation estimates, then the ARMA coefficients come from one ordinary
//! least-squares regression of the differenced series on its own lags and
//! the lagged innovations. This matches the Box–Jenkins workflow the paper
//! invokes without requiring nonlinear optimisation.

use crate::ar::fit_ar;
use crate::linalg::{least_squares, Matrix};
use crate::series::{difference, undifference};
use crate::stats::mean;
use std::fmt;

/// Model orders (p, d, q).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArimaSpec {
    /// Autoregressive order.
    pub p: usize,
    /// Differencing order.
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

impl ArimaSpec {
    /// Convenience constructor.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        Self { p, d, q }
    }

    /// Number of estimated coefficients (φ's, θ's and the intercept).
    pub fn param_count(&self) -> usize {
        self.p + self.q + 1
    }
}

impl fmt::Display for ArimaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ARIMA({},{},{})", self.p, self.d, self.q)
    }
}

/// Errors from ARIMA fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Not enough observations for the requested orders.
    TooShort {
        /// Observations supplied.
        have: usize,
        /// Observations needed.
        need: usize,
    },
    /// The series is (numerically) constant after differencing.
    Degenerate,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooShort { have, need } => {
                write!(f, "series has {have} observations but {need} are required")
            }
            FitError::Degenerate => write!(f, "series is constant after differencing"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted ARIMA model.
#[derive(Debug, Clone)]
pub struct ArimaModel {
    /// The (p, d, q) orders.
    pub spec: ArimaSpec,
    /// AR coefficients φ_1..φ_p (on the differenced, demeaned scale).
    pub phi: Vec<f64>,
    /// MA coefficients θ_1..θ_q.
    pub theta: Vec<f64>,
    /// Mean of the differenced series (drift term).
    pub mean: f64,
    /// Innovation variance σ̂².
    pub sigma2: f64,
    /// Number of observations used in the regression (for AIC/BIC).
    pub nobs: usize,
}

impl ArimaModel {
    /// Fit by Hannan–Rissanen on the `d`-times differenced series.
    pub fn fit(y: &[f64], spec: ArimaSpec) -> Result<Self, FitError> {
        let min_len = spec.d + spec.p.max(1) + spec.q + 20;
        if y.len() < min_len {
            return Err(FitError::TooShort {
                have: y.len(),
                need: min_len,
            });
        }
        let (w, _) = difference(y, spec.d);
        let mu = mean(&w);
        let wc: Vec<f64> = w.iter().map(|v| v - mu).collect();
        if crate::stats::variance(&wc) < 1e-12 {
            return Err(FitError::Degenerate);
        }

        let (phi, theta, sigma2, nobs) = if spec.q == 0 {
            // pure AR: Yule–Walker
            if spec.p == 0 {
                let s2 = crate::stats::variance(&wc).max(1e-12);
                (Vec::new(), Vec::new(), s2, wc.len())
            } else {
                let fit = fit_ar(&wc, spec.p).ok_or(FitError::Degenerate)?;
                let nobs = wc.len() - spec.p;
                (fit.phi, Vec::new(), fit.sigma2, nobs)
            }
        } else {
            // Stage 1: long AR for innovation estimates.
            let long_p = (spec.p + spec.q + 2)
                .max(((wc.len() as f64).ln() * 2.0).ceil() as usize)
                .min(wc.len() / 4)
                .max(1);
            let long = fit_ar(&wc, long_p).ok_or(FitError::Degenerate)?;
            let e = long.residuals(&wc);

            // Stage 2: OLS of w_t on [w_{t-1..p}, e_{t-1..q}].
            let start = long_p.max(spec.p).max(spec.q);
            let rows = wc.len() - start;
            if rows < spec.param_count() + 5 {
                return Err(FitError::TooShort {
                    have: y.len(),
                    need: y.len() + spec.param_count() + 5 - rows,
                });
            }
            let ncols = spec.p + spec.q;
            let mut xd = Vec::with_capacity(rows * ncols);
            let mut targets = Vec::with_capacity(rows);
            for t in start..wc.len() {
                for j in 1..=spec.p {
                    xd.push(wc[t - j]);
                }
                for j in 1..=spec.q {
                    xd.push(e[t - j]);
                }
                targets.push(wc[t]);
            }
            let x = Matrix::from_vec(rows, ncols, xd);
            let beta = least_squares(&x, &targets).ok_or(FitError::Degenerate)?;
            let (phi, theta) = beta.split_at(spec.p);
            let mut phi = phi.to_vec();
            let mut theta = theta.to_vec();
            clamp_coeffs(&mut phi);
            clamp_coeffs(&mut theta);

            // innovation variance from the final model's residuals
            let model = ArimaModel {
                spec,
                phi: phi.clone(),
                theta: theta.clone(),
                mean: mu,
                sigma2: 1.0,
                nobs: rows,
            };
            let resid = model.residuals_differenced(&w);
            let used = &resid[start..];
            let s2 = used.iter().map(|r| r * r).sum::<f64>() / used.len() as f64;
            (phi, theta, s2.max(1e-12), rows)
        };

        Ok(Self {
            spec,
            phi,
            theta,
            mean: mu,
            sigma2,
            nobs,
        })
    }

    /// Conditional one-step residuals on the differenced (not demeaned)
    /// scale; the first `max(p, q)` entries are zero.
    pub fn residuals_differenced(&self, w: &[f64]) -> Vec<f64> {
        let p = self.phi.len();
        let q = self.theta.len();
        let start = p.max(q);
        let mut e = vec![0.0; w.len()];
        for t in start..w.len() {
            let mut pred = self.mean;
            for (j, f) in self.phi.iter().enumerate() {
                pred += f * (w[t - 1 - j] - self.mean);
            }
            for (j, th) in self.theta.iter().enumerate() {
                pred += th * e[t - 1 - j];
            }
            e[t] = w[t] - pred;
        }
        e
    }

    /// MMSE forecast `P_t Y_{t+1..t+horizon}` on the *original* scale,
    /// given the full observed history (original scale).
    ///
    /// Implements Eqn. 12: forecast the differenced ARMA recursively with
    /// future innovations set to zero, then invert `∇^d`.
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        assert!(
            history.len() > self.spec.d + self.phi.len().max(self.theta.len()),
            "history too short to forecast"
        );
        let (w, seeds) = difference(history, self.spec.d);
        let e = self.residuals_differenced(&w);

        let p = self.phi.len();
        let q = self.theta.len();
        // extended arrays: observed + forecast region
        let mut wx = w.clone();
        let mut ex = e;
        for _ in 0..horizon {
            let t = wx.len();
            let mut pred = self.mean;
            for (j, f) in self.phi.iter().enumerate() {
                if t > j {
                    pred += f * (wx[t - 1 - j] - self.mean);
                }
            }
            for (j, th) in self.theta.iter().enumerate() {
                if t > j {
                    pred += th * ex[t - 1 - j];
                }
            }
            wx.push(pred);
            ex.push(0.0); // future innovations have zero conditional mean
            let _ = (p, q);
        }
        undifference(&wx[w.len()..], &seeds)
    }

    /// One-step-ahead rolling predictions over `series[split..]`: for each
    /// t ≥ split, predict `series[t]` from `series[..t]`. This is the
    /// evaluation protocol of Fig. 6.
    pub fn rolling_one_step(&self, series: &[f64], split: usize) -> Vec<f64> {
        assert!(split < series.len(), "split beyond series end");
        (split..series.len())
            .map(|t| self.forecast(&series[..t], 1)[0])
            .collect()
    }

    /// Akaike information criterion.
    pub fn aic(&self) -> f64 {
        let k = self.spec.param_count() as f64;
        self.nobs as f64 * self.sigma2.ln() + 2.0 * k
    }
}

/// Shrink coefficient vectors whose ℓ1 norm threatens non-stationarity /
/// non-invertibility; keeps the forecast recursion stable on short, noisy
/// fits without implementing full root-flipping.
fn clamp_coeffs(c: &mut [f64]) {
    let norm: f64 = c.iter().map(|v| v.abs()).sum();
    const LIMIT: f64 = 0.98;
    if norm > LIMIT {
        let s = LIMIT / norm;
        for v in c {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arma11(phi: f64, theta: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = vec![0.0];
        let mut prev_e = 0.0;
        for _ in 0..n {
            let e: f64 = rng.gen_range(-0.5..0.5);
            let prev = *y.last().expect("non-empty");
            y.push(phi * prev + e + theta * prev_e);
            prev_e = e;
        }
        y
    }

    #[test]
    fn fits_arma11_coefficients() {
        let y = arma11(0.6, 0.4, 40_000, 21);
        let m = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 1)).unwrap();
        assert!((m.phi[0] - 0.6).abs() < 0.08, "phi = {:?}", m.phi);
        assert!((m.theta[0] - 0.4).abs() < 0.08, "theta = {:?}", m.theta);
        assert!(
            (m.sigma2 - 1.0 / 12.0).abs() < 0.01,
            "sigma2 = {}",
            m.sigma2
        );
    }

    #[test]
    fn fits_pure_ar_via_yule_walker() {
        let y = arma11(0.7, 0.0, 30_000, 2);
        let m = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 0)).unwrap();
        assert!((m.phi[0] - 0.7).abs() < 0.05);
        assert!(m.theta.is_empty());
    }

    #[test]
    fn differencing_handles_linear_trend() {
        // y_t = 2t + AR(1) noise: ARIMA(1,1,0) should forecast the trend
        let noise = arma11(0.5, 0.0, 600, 8);
        let y: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(t, n)| 2.0 * t as f64 + n)
            .collect();
        let m = ArimaModel::fit(&y, ArimaSpec::new(1, 1, 0)).unwrap();
        let fc = m.forecast(&y, 5);
        let last = *y.last().expect("non-empty");
        // each step should grow by roughly the slope 2
        for (h, f) in fc.iter().enumerate() {
            let expect = last + 2.0 * (h + 1) as f64;
            assert!((f - expect).abs() < 3.0, "h={h}: {f} vs {expect}");
        }
    }

    #[test]
    fn one_step_forecast_beats_naive_on_ar1() {
        let y = arma11(0.8, 0.0, 3_000, 77);
        let split = 2_500;
        let m = ArimaModel::fit(&y[..split], ArimaSpec::new(1, 0, 0)).unwrap();
        let preds = m.rolling_one_step(&y, split);
        let mse_model: f64 = preds
            .iter()
            .zip(&y[split..])
            .map(|(p, a)| (p - a).powi(2))
            .sum::<f64>()
            / preds.len() as f64;
        let mse_naive: f64 = (split..y.len())
            .map(|t| (y[t] - y[t - 1]).powi(2))
            .sum::<f64>()
            / preds.len() as f64;
        assert!(
            mse_model < mse_naive,
            "model {mse_model} vs naive {mse_naive}"
        );
    }

    #[test]
    fn kstep_forecast_converges_to_mean() {
        let y = arma11(0.5, 0.0, 5_000, 3);
        let m = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 0)).unwrap();
        let fc = m.forecast(&y, 200);
        // AR(1) k-step forecast decays geometrically toward the mean
        let far = fc[199];
        assert!(
            (far - m.mean).abs() < 0.05,
            "far forecast {far} mean {}",
            m.mean
        );
    }

    #[test]
    fn too_short_series_is_rejected() {
        let err = ArimaModel::fit(&[1.0, 2.0, 3.0], ArimaSpec::new(1, 1, 1)).unwrap_err();
        assert!(matches!(err, FitError::TooShort { .. }));
    }

    #[test]
    fn constant_series_is_degenerate() {
        let err = ArimaModel::fit(&[5.0; 100], ArimaSpec::new(1, 0, 0)).unwrap_err();
        assert_eq!(err, FitError::Degenerate);
    }

    #[test]
    fn aic_penalises_extra_parameters() {
        let y = arma11(0.6, 0.0, 5_000, 5);
        let small = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 0)).unwrap();
        let big = ArimaModel::fit(&y, ArimaSpec::new(4, 0, 3)).unwrap();
        // σ² barely improves, so AIC should favour the small model
        assert!(small.aic() < big.aic() + 50.0);
    }

    #[test]
    fn clamp_keeps_unstable_fit_bounded() {
        let mut c = vec![0.9, 0.9];
        clamp_coeffs(&mut c);
        assert!(c.iter().map(|v| v.abs()).sum::<f64>() <= 0.99);
        let mut ok = vec![0.3, 0.2];
        clamp_coeffs(&mut ok);
        assert_eq!(ok, vec![0.3, 0.2]);
    }
}
