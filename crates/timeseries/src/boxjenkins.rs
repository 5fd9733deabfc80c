//! Box–Jenkins order selection (Sec. IV-B): pick (p, d, q) by grid search,
//! choosing `d` from a stationarity heuristic and (p, q) by the Akaike
//! information criterion — the automated equivalent of the paper's
//! manual MATLAB workflow that arrived at ARIMA(1,1,1).

use crate::arima::{ArimaModel, ArimaSpec};
use crate::series::difference_once;
use crate::stats::acf;

/// Highest AR order [`select`] tries.
const MAX_P: usize = 3;
/// Highest differencing order [`select`] tries.
const MAX_D: usize = 2;
/// Highest MA order [`select`] tries.
const MAX_Q: usize = 3;

/// Choose the differencing order: difference until the lag-1
/// autocorrelation of the result drops below a stationarity band (or
/// [`MAX_D`] is reached). Slowly-decaying ACF near 1 is the classical
/// unit-root signature.
fn choose_d(y: &[f64]) -> usize {
    let mut cur = y.to_vec();
    for d in 0..=MAX_D {
        if cur.len() < 10 {
            return d;
        }
        let rho1 = acf(&cur, 1)[1];
        if rho1 < 0.9 {
            return d;
        }
        cur = difference_once(&cur);
    }
    MAX_D
}

/// Fit every (p, q) up to (3, 3) at the chosen `d` (at most 2) and
/// return the model with the least AIC. `None` when nothing fits
/// (degenerate or too-short series).
pub fn select(y: &[f64]) -> Option<(ArimaSpec, ArimaModel)> {
    let d = choose_d(y);
    let mut best: Option<(f64, ArimaSpec, ArimaModel)> = None;
    for p in 0..=MAX_P {
        for q in 0..=MAX_Q {
            if p == 0 && q == 0 {
                continue;
            }
            let spec = ArimaSpec::new(p, d, q);
            let Ok(model) = ArimaModel::fit(y, spec) else {
                continue;
            };
            let score = model.aic();
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
        assert_eq!(choose_d(&y), 0);
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
        assert_eq!(choose_d(&y), 1);
    }

    #[test]
    fn select_prefers_small_model() {
        let y = ar1(0.7, 8_000, 3);
        let (spec, model) = select(&y).unwrap();
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
        let (spec, _) = select(&y).unwrap();
        assert!(spec.d >= 1, "chose {spec}");
    }

    #[test]
    fn select_returns_none_on_degenerate() {
        assert!(select(&[1.0; 200]).is_none());
    }
}
