//! Box–Jenkins order selection (Sec. IV-B): pick (p, d, q) by grid search,
//! choosing `d` from a stationarity heuristic and (p, q) by information
//! criterion — the automated equivalent of the paper's manual MATLAB
//! workflow that arrived at ARIMA(1,1,1).

use crate::arima::{ArimaModel, ArimaSpec};
use crate::series::difference_once;
use crate::stats::acf;

/// Which information criterion drives the (p, q) choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Akaike.
    Aic,
    /// Bayesian (heavier parameter penalty).
    Bic,
}

/// Grid-search bounds for [`select`].
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// Maximum AR order.
    pub max_p: usize,
    /// Maximum differencing order.
    pub max_d: usize,
    /// Maximum MA order.
    pub max_q: usize,
    /// Information criterion.
    pub criterion: Criterion,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            max_p: 3,
            max_d: 2,
            max_q: 3,
            criterion: Criterion::Aic,
        }
    }
}

/// Choose the differencing order: difference until the lag-1
/// autocorrelation of the result drops below a stationarity band (or
/// `max_d` is reached). Slowly-decaying ACF near 1 is the classical
/// unit-root signature.
pub fn choose_d(y: &[f64], max_d: usize) -> usize {
    let mut cur = y.to_vec();
    for d in 0..=max_d {
        if cur.len() < 10 {
            return d;
        }
        let rho1 = acf(&cur, 1)[1];
        if rho1 < 0.9 {
            return d;
        }
        cur = difference_once(&cur);
    }
    max_d
}

/// Fit every (p, q) in the grid at the chosen `d` and return the model
/// with the best criterion value. `None` when nothing fits (degenerate or
/// too-short series).
pub fn select(y: &[f64], cfg: &SelectionConfig) -> Option<(ArimaSpec, ArimaModel)> {
    let d = choose_d(y, cfg.max_d);
    let mut best: Option<(f64, ArimaSpec, ArimaModel)> = None;
    for p in 0..=cfg.max_p {
        for q in 0..=cfg.max_q {
            if p == 0 && q == 0 {
                continue;
            }
            let spec = ArimaSpec::new(p, d, q);
            let Ok(model) = ArimaModel::fit(y, spec) else {
                continue;
            };
            let score = match cfg.criterion {
                Criterion::Aic => model.aic(),
                Criterion::Bic => model.bic(),
            };
            if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
                best = Some((score, spec, model));
            }
        }
    }
    best.map(|(_, spec, model)| (spec, model))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn choose_d_zero_for_stationary() {
        let y = ar1(0.5, 3_000, 1);
        assert_eq!(choose_d(&y, 2), 0);
    }

    #[test]
    fn choose_d_one_for_random_walk() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut y = vec![0.0f64];
        for _ in 0..3_000 {
            let e: f64 = rng.gen_range(-0.5..0.5);
            let prev = *y.last().expect("non-empty");
            y.push(prev + e);
        }
        assert_eq!(choose_d(&y, 2), 1);
    }

    #[test]
    fn select_prefers_small_model_with_bic() {
        let y = ar1(0.7, 8_000, 3);
        let cfg = SelectionConfig {
            criterion: Criterion::Bic,
            ..SelectionConfig::default()
        };
        let (spec, model) = select(&y, &cfg).unwrap();
        assert_eq!(spec.d, 0);
        assert!(spec.p <= 2, "chose {spec}");
        assert!((model.phi[0] - 0.7).abs() < 0.1);
    }

    #[test]
    fn select_handles_trend_with_differencing() {
        let base = ar1(0.4, 2_000, 4);
        let y: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(t, v)| 0.5 * t as f64 + v)
            .collect();
        let (spec, _) = select(&y, &SelectionConfig::default()).unwrap();
        assert!(spec.d >= 1, "chose {spec}");
    }

    #[test]
    fn select_returns_none_on_degenerate() {
        assert!(select(&[1.0; 200], &SelectionConfig::default()).is_none());
    }
}
