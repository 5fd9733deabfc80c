//! Dynamic model selection (Sec. IV-B, Eqn. 14).
//!
//! Rather than committing to a single model, Sheriff maintains a pool of
//! fitted predictors (typically two ARIMA and two NARNET variants). At
//! each step it emits the prediction of the model with the lowest rolling
//! mean-square prediction error
//! `MSE_f(t, T_p) = (1/T_p) Σ_{i=t−T_p+1..t} ERROR_f(i)²` over the last
//! `T_p` observations.

use crate::arima::ArimaModel;
use crate::narnet::Narnet;
use std::collections::VecDeque;

/// A fitted one-step predictor usable in the dynamic pool.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// A fitted ARIMA model.
    Arima(ArimaModel),
    /// A trained NARNET.
    Narnet(Narnet),
}

impl Predictor {
    /// One-step-ahead prediction from the observed history.
    pub fn predict_next(&self, history: &[f64]) -> f64 {
        match self {
            Predictor::Arima(m) => m.forecast(history, 1)[0],
            Predictor::Narnet(n) => n.predict_next(history),
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            Predictor::Arima(m) => m.spec.to_string(),
            Predictor::Narnet(n) => format!("NARNET({},·)", n.lags()),
        }
    }
}

/// The combined model: a pool plus rolling error bookkeeping.
#[derive(Debug, Clone)]
pub struct DynamicSelector {
    models: Vec<Predictor>,
    window: usize,
    errors: Vec<VecDeque<f64>>,
}

impl DynamicSelector {
    /// Pool with rolling window `T_p` (the paper's `T_p` period).
    pub fn new(models: Vec<Predictor>, window: usize) -> Self {
        assert!(!models.is_empty(), "need at least one model");
        assert!(window >= 1, "window must be positive");
        let n = models.len();
        Self {
            models,
            window,
            errors: vec![VecDeque::new(); n],
        }
    }

    /// Rolling MSE_f(t, T_p) of model `f`; `INFINITY` before any errors are
    /// recorded so untested models are only used when nothing has history.
    pub fn rolling_mse(&self, f: usize) -> f64 {
        let e = &self.errors[f];
        if e.is_empty() {
            f64::INFINITY
        } else {
            e.iter().map(|x| x * x).sum::<f64>() / e.len() as f64
        }
    }

    /// Index of the model the selector would trust right now.
    pub fn best_model(&self) -> usize {
        let any_history = self.errors.iter().any(|e| !e.is_empty());
        if !any_history {
            return 0;
        }
        (0..self.models.len())
            .min_by(|&a, &b| {
                self.rolling_mse(a)
                    .partial_cmp(&self.rolling_mse(b))
                    .expect("MSE is never NaN")
            })
            .expect("non-empty pool")
    }

    /// Predict the next value of `history` using the currently-best model.
    /// Returns (prediction, model index used).
    pub fn predict_next(&self, history: &[f64]) -> (f64, usize) {
        let best = self.best_model();
        (self.models[best].predict_next(history), best)
    }

    /// Record the realised value for the step just predicted; every model's
    /// own prediction error enters its rolling window.
    pub fn observe(&mut self, history: &[f64], actual: f64) {
        for (f, model) in self.models.iter().enumerate() {
            let p = model.predict_next(history);
            let e = &mut self.errors[f];
            e.push_back(actual - p);
            if e.len() > self.window {
                e.pop_front();
            }
        }
    }

    /// Run the full open-loop evaluation protocol over `series[split..]`:
    /// predict each point with the currently-best model, then reveal the
    /// actual. Returns the combined prediction series and, per point, the
    /// index of the model used.
    pub fn run(&mut self, series: &[f64], split: usize) -> (Vec<f64>, Vec<usize>) {
        assert!(split < series.len(), "split beyond series end");
        let mut preds = Vec::with_capacity(series.len() - split);
        let mut used = Vec::with_capacity(series.len() - split);
        for t in split..series.len() {
            let history = &series[..t];
            let (p, f) = self.predict_next(history);
            preds.push(p);
            used.push(f);
            self.observe(history, series[t]);
        }
        (preds, used)
    }

    /// Labels of the pool models, in index order.
    pub fn labels(&self) -> Vec<String> {
        self.models.iter().map(Predictor::label).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arima::ArimaSpec;
    use crate::metrics::mse;
    use crate::narnet::NarnetConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A series whose first half is linear AR(1) and second half is a
    /// strongly nonlinear threshold process: no single model wins on both.
    fn mixed_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y: Vec<f64> = vec![0.1];
        for t in 1..n {
            let e: f64 = rng.gen_range(-0.05..0.05);
            let prev = y[t - 1];
            let v = if t < n / 2 {
                0.8 * prev + e
            } else if prev > 0.0 {
                0.9 * prev - 0.5 + e
            } else {
                -0.8 * prev + 0.4 + e
            };
            y.push(v);
        }
        y
    }

    fn pool(train: &[f64]) -> Vec<Predictor> {
        let arima = ArimaModel::fit(train, ArimaSpec::new(1, 0, 1)).unwrap();
        let nn = Narnet::fit(
            train,
            NarnetConfig {
                lags: 6,
                hidden: 12,
                epochs: 120,
                patience: 15,
                ..NarnetConfig::default()
            },
        );
        vec![Predictor::Arima(arima), Predictor::Narnet(nn)]
    }

    #[test]
    fn selector_at_least_matches_single_models() {
        let y = mixed_series(1_000, 42);
        let split = 700;
        let models = pool(&y[..split]);
        // individual model errors
        let single: Vec<f64> = models
            .iter()
            .map(|m| {
                let preds: Vec<f64> = (split..y.len()).map(|t| m.predict_next(&y[..t])).collect();
                mse(&preds, &y[split..])
            })
            .collect();
        let mut sel = DynamicSelector::new(models, 20);
        let (preds, _) = sel.run(&y, split);
        let combined = mse(&preds, &y[split..]);
        let best_single = single.iter().cloned().fold(f64::INFINITY, f64::min);
        // the combined model must be competitive with the best single model
        assert!(
            combined <= best_single * 1.25,
            "combined {combined} vs best single {best_single}"
        );
    }

    #[test]
    fn selector_switches_models_on_mixed_data() {
        let y = mixed_series(1_000, 7);
        let split = 400; // test spans the regime change at 500
        let models = pool(&y[..split]);
        let mut sel = DynamicSelector::new(models, 15);
        let (_, used) = sel.run(&y, split);
        let distinct: std::collections::HashSet<_> = used.iter().collect();
        assert!(distinct.len() > 1, "selector never switched models");
    }

    #[test]
    fn rolling_window_bounds_error_history() {
        let y = mixed_series(300, 3);
        let models = pool(&y[..250]);
        let mut sel = DynamicSelector::new(models, 5);
        let (_, _) = sel.run(&y, 250);
        for f in 0..2 {
            assert!(sel.errors[f].len() <= 5);
            assert!(sel.rolling_mse(f).is_finite());
        }
    }

    #[test]
    fn untested_pool_uses_first_model() {
        let y = mixed_series(300, 9);
        let models = pool(&y[..250]);
        let sel = DynamicSelector::new(models, 5);
        assert_eq!(sel.best_model(), 0);
        assert_eq!(sel.rolling_mse(0), f64::INFINITY);
    }

    #[test]
    fn labels_name_both_model_families() {
        let y = mixed_series(300, 1);
        let sel = DynamicSelector::new(pool(&y[..250]), 5);
        let labels = sel.labels();
        assert!(labels[0].contains("ARIMA"));
        assert!(labels[1].contains("NARNET"));
    }
}
