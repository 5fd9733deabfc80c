//! Model-fit diagnostics: the checks Box–Jenkins practice runs after
//! estimation — residual whiteness (Ljung–Box), residual mean/variance,
//! and in-sample accuracy — bundled into one report so callers (and the
//! experiment harness) can decide whether a fitted model is trustworthy
//! before wiring it into the alert pipeline.

use crate::arima::ArimaModel;
use crate::series::difference;
use crate::stats::{ljung_box, ljung_box_white, mean, variance};

/// Diagnostic summary of a fitted model's residuals.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Human-readable model name.
    pub model: String,
    /// Residual mean (should be ≈ 0).
    pub residual_mean: f64,
    /// Residual variance (≈ σ̂²).
    pub residual_variance: f64,
    /// Ljung–Box Q statistic at the chosen lag.
    pub ljung_box_q: f64,
    /// Lags used for the portmanteau test.
    pub lags: usize,
    /// The "residuals look like white noise" verdict: the Ljung–Box Q is
    /// at most the χ² 95% point with `lags − p − q` degrees of freedom (at
    /// least 1), so truly white residuals pass 95% of the time.
    pub residuals_white: bool,
    /// Akaike information criterion of the fit.
    pub aic: f64,
    /// Observations the residuals were computed over.
    pub n: usize,
}

impl FitReport {
    /// Overall verdict: a usable model has near-zero-mean, white
    /// residuals.
    pub fn acceptable(&self) -> bool {
        self.residuals_white
            && self.residual_mean.abs() <= 3.0 * (self.residual_variance / self.n as f64).sqrt()
    }
}

/// Diagnose a fitted ARIMA model against the series it was fit on.
pub fn diagnose_arima(model: &ArimaModel, y: &[f64], lags: usize) -> FitReport {
    let (w, _) = difference(y, model.spec.d);
    let resid = model.residuals_differenced(&w);
    let start = model.phi.len().max(model.theta.len());
    let used = &resid[start..];
    let h = lags.min(used.len().saturating_sub(2)).max(1);
    let q = ljung_box(used, h);
    FitReport {
        model: model.spec.to_string(),
        residual_mean: mean(used),
        residual_variance: variance(used),
        ljung_box_q: q,
        lags,
        residuals_white: ljung_box_white(q, h, model.spec.p + model.spec.q),
        aic: model.aic(),
        n: used.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arima::ArimaSpec;
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
    fn correct_model_passes_diagnostics() {
        let y = ar1(0.7, 8_000, 1);
        let m = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 0)).unwrap();
        let report = diagnose_arima(&m, &y, 10);
        assert!(report.residuals_white, "{report:?}");
        assert!(report.acceptable(), "{report:?}");
        assert!(report.residual_mean.abs() < 0.02);
        // σ² of uniform(-0.5, 0.5) = 1/12
        assert!((report.residual_variance - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn underfitted_model_fails_diagnostics() {
        // AR(2) data fit with white-noise-only ARIMA(0,0,q=0 is rejected;
        // use an MA(1) which cannot absorb the AR(2) structure)
        let mut rng = StdRng::seed_from_u64(3);
        let mut y = vec![0.0, 0.0];
        for t in 2..8_000 {
            let e: f64 = rng.gen_range(-0.5..0.5);
            y.push(0.6 * y[t - 1] + 0.3 * y[t - 2] + e);
        }
        let m = ArimaModel::fit(&y, ArimaSpec::new(0, 0, 1)).unwrap();
        let report = diagnose_arima(&m, &y, 10);
        assert!(!report.residuals_white, "underfit must show in residuals");
        assert!(!report.acceptable());
    }

    #[test]
    fn white_residuals_pass_at_the_tests_level() {
        // white noise fit by an AR(1): a 5% test keeps about 95% of them
        let mut rng = StdRng::seed_from_u64(28);
        let white = (0..200)
            .filter(|_| {
                let e: Vec<f64> = (0..500).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let m = ArimaModel::fit(&e, ArimaSpec::new(1, 0, 0)).unwrap();
                diagnose_arima(&m, &e, 12).residuals_white
            })
            .count();
        assert!(white >= 180, "only {white} of 200 white series pass");
    }

    #[test]
    fn diagnostics_rank_models_by_aic() {
        let y = ar1(0.7, 4_000, 5);
        let right = ArimaModel::fit(&y, ArimaSpec::new(1, 0, 0)).unwrap();
        let wrong = ArimaModel::fit(&y, ArimaSpec::new(0, 0, 1)).unwrap();
        let r1 = diagnose_arima(&right, &y, 10);
        let r2 = diagnose_arima(&wrong, &y, 10);
        assert!(r1.aic < r2.aic, "correct model should win on AIC");
    }
}
