//! Descriptive statistics for Box–Jenkins identification: autocovariance,
//! ACF, and the Ljung–Box portmanteau test used to check residual
//! whiteness.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(y: &[f64]) -> f64 {
    if y.is_empty() {
        0.0
    } else {
        y.iter().sum::<f64>() / y.len() as f64
    }
}

/// Population variance.
pub fn variance(y: &[f64]) -> f64 {
    if y.is_empty() {
        return 0.0;
    }
    let m = mean(y);
    y.iter().map(|v| (v - m).powi(2)).sum::<f64>() / y.len() as f64
}

/// Biased sample autocovariance at lags `0..=max_lag`
/// (`γ̂(k) = 1/n Σ (y_t − ȳ)(y_{t+k} − ȳ)`, the standard estimator which
/// guarantees a positive semi-definite autocovariance sequence).
pub fn autocovariance(y: &[f64], max_lag: usize) -> Vec<f64> {
    let n = y.len();
    assert!(max_lag < n, "max_lag must be < series length");
    let m = mean(y);
    (0..=max_lag)
        .map(|k| (0..n - k).map(|t| (y[t] - m) * (y[t + k] - m)).sum::<f64>() / n as f64)
        .collect()
}

/// Autocorrelation function at lags `0..=max_lag` (ρ(0) = 1).
pub fn acf(y: &[f64], max_lag: usize) -> Vec<f64> {
    let gamma = autocovariance(y, max_lag);
    let g0 = gamma[0];
    if g0 <= 0.0 {
        // constant series: no correlation structure
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    gamma.iter().map(|g| g / g0).collect()
}

/// Ljung–Box Q statistic over residual autocorrelations at lags
/// `1..=max_lag`. Large Q ⇒ residuals are not white noise;
/// [`diagnose_arima`](crate::diagnostics::diagnose_arima) compares it
/// with the χ² 95% point.
pub fn ljung_box(residuals: &[f64], max_lag: usize) -> f64 {
    let n = residuals.len() as f64;
    let rho = acf(residuals, max_lag);
    n * (n + 2.0)
        * (1..=max_lag)
            .map(|k| rho[k] * rho[k] / (n - k as f64))
            .sum::<f64>()
}

/// Upper 5% point of the χ² distribution with `dof` degrees of freedom,
/// by the Wilson–Hilferty cube-root normal approximation (15.49 at 8
/// degrees of freedom, against the exact 15.51).
pub(crate) fn chi2_95(dof: usize) -> f64 {
    // the standard normal's upper 5% point
    const Z_95: f64 = 1.644_853_626_951_472;
    let k = dof as f64;
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + Z_95 * a.sqrt()).powi(3)
}

/// The Ljung–Box test at the 5% level: residuals of a model with `fitted`
/// ARMA coefficients pass as white noise when their Q over `max_lag` lags
/// is at most χ²₀.₉₅ with `max_lag − fitted` degrees of freedom, floored
/// at 1.
pub(crate) fn ljung_box_white(q: f64, max_lag: usize, fitted: usize) -> bool {
    q <= chi2_95(max_lag.saturating_sub(fitted).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn mean_and_variance() {
        let y = [2.0, 4.0, 6.0];
        assert_eq!(mean(&y), 4.0);
        assert!((variance(&y) - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn acf_lag0_is_one() {
        let y = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0];
        let r = acf(&y, 3);
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!(r[1..].iter().all(|v| v.abs() <= 1.0 + 1e-12));
    }

    #[test]
    fn acf_of_constant_series() {
        let r = acf(&[5.0; 10], 3);
        assert_eq!(r[0], 1.0);
        assert!(r[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ar1_acf_decays_geometrically() {
        // y_t = 0.8 y_{t-1} + e_t has ρ(k) ≈ 0.8^k
        let mut rng = StdRng::seed_from_u64(42);
        let mut y = vec![0.0];
        for _ in 0..20_000 {
            let e: f64 = rng.gen_range(-1.0..1.0);
            let prev = *y.last().expect("non-empty");
            y.push(0.8 * prev + e);
        }
        let r = acf(&y, 3);
        assert!((r[1] - 0.8).abs() < 0.05, "rho1 = {}", r[1]);
        assert!((r[2] - 0.64).abs() < 0.07, "rho2 = {}", r[2]);
    }

    #[test]
    fn white_noise_passes_ljung_box_test() {
        let mut rng = StdRng::seed_from_u64(9);
        let e: Vec<f64> = (0..5_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(ljung_box_white(ljung_box(&e, 10), 10, 0));
        // an AR(1) series must fail the same test
        let mut y = vec![0.0];
        for i in 0..4_999 {
            y.push(0.9 * y[i] + e[i]);
        }
        assert!(!ljung_box_white(ljung_box(&y, 10), 10, 0));
        assert!(ljung_box(&y, 10) > ljung_box(&e, 10));
    }

    #[test]
    fn chi2_quantile_tracks_the_table() {
        // exact upper 5% points
        for (dof, exact) in [(1, 3.841), (8, 15.507), (12, 21.026), (30, 43.773)] {
            let got = chi2_95(dof);
            assert!(
                (got - exact).abs() < 0.03 * exact,
                "{dof} dof: {got} vs {exact}"
            );
        }
        assert!((chi2_95(8) - 15.49).abs() < 0.005, "{}", chi2_95(8));
        // degrees of freedom below 1 are floored
        assert_eq!(ljung_box_white(3.5, 2, 3), 3.5 <= chi2_95(1));
    }
}
