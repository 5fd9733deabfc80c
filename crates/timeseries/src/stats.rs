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
/// `1..=max_lag`. Large Q ⇒ residuals are not white noise. The caller
/// compares against a χ² quantile; we also expose a rough whiteness check.
pub fn ljung_box(residuals: &[f64], max_lag: usize) -> f64 {
    let n = residuals.len() as f64;
    let rho = acf(residuals, max_lag);
    n * (n + 2.0)
        * (1..=max_lag)
            .map(|k| rho[k] * rho[k] / (n - k as f64))
            .sum::<f64>()
}

/// Conservative whiteness heuristic: true when all |ρ(k)| for k ≥ 1 stay
/// within the ±2/√n large-sample band.
pub fn looks_white(residuals: &[f64], max_lag: usize) -> bool {
    let band = 2.0 / (residuals.len() as f64).sqrt();
    acf(residuals, max_lag)[1..].iter().all(|r| r.abs() <= band)
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
    fn white_noise_passes_ljung_box_band() {
        let mut rng = StdRng::seed_from_u64(9);
        let e: Vec<f64> = (0..5_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        assert!(looks_white(&e, 10));
        // an AR(1) series must fail the same band
        let mut y = vec![0.0];
        for i in 0..4_999 {
            y.push(0.9 * y[i] + e[i]);
        }
        assert!(!looks_white(&y, 10));
        assert!(ljung_box(&y, 10) > ljung_box(&e, 10));
    }
}
