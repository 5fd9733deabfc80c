//! NARNET — nonlinear autoregressive neural network (Sec. IV-B).
//!
//! `Y_t = F(Y_{t−1}, …, Y_{t−ni}) + ε_t` (Eqn. 13), with `F` a single
//! hidden layer of `nh` tanh units and a linear output, trained by Adam on
//! mean-squared error. The paper's evaluation uses 20 hidden neurons and a
//! 70 %/30 % train/test split (Fig. 7). Inputs are min-max normalised
//! internally so workloads at arbitrary scales train equally well.

use crate::series::lag_matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct NarnetConfig {
    /// Number of lag inputs `ni`.
    pub lags: usize,
    /// Number of hidden units `nh` (paper: 20).
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Fraction of training rows held out for early stopping.
    pub validation_fraction: f64,
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for NarnetConfig {
    fn default() -> Self {
        Self {
            lags: 8,
            hidden: 20,
            learning_rate: 0.01,
            epochs: 400,
            batch: 32,
            validation_fraction: 0.15,
            patience: 30,
            seed: 0x5EED,
        }
    }
}

/// A trained NARNET model.
#[derive(Debug, Clone)]
pub struct Narnet {
    cfg: NarnetConfig,
    /// hidden weights, row h = [w_{h,1..ni}, bias_h]
    w1: Vec<f64>,
    /// output weights [v_1..v_nh, bias]
    w2: Vec<f64>,
    /// min-max normalisation bounds of the training series
    lo: f64,
    hi: f64,
    /// final training MSE (normalised scale)
    train_mse: f64,
}

struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
    lr: f64,
}

impl Adam {
    fn new(n: usize, lr: f64) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    fn step(&mut self, w: &mut [f64], g: &[f64]) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for i in 0..w.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g[i] * g[i];
            let mh = self.m[i] / bc1;
            let vh = self.v[i] / bc2;
            w[i] -= self.lr * mh / (vh.sqrt() + EPS);
        }
    }
}

impl Narnet {
    /// Train on a series. Panics if the series is shorter than
    /// `lags + 10` observations.
    pub fn fit(series: &[f64], cfg: NarnetConfig) -> Self {
        assert!(
            series.len() >= cfg.lags + 10,
            "series too short for {} lags",
            cfg.lags
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (lo, hi) = bounds(series);
        let norm: Vec<f64> = series.iter().map(|v| scale(*v, lo, hi)).collect();
        let (rows, targets) = lag_matrix(&norm, cfg.lags);

        // chronological validation split (time series: never shuffle across
        // the split boundary)
        let val_len = ((rows.len() as f64 * cfg.validation_fraction) as usize).max(1);
        let train_len = rows.len().saturating_sub(val_len).max(1);

        let ni = cfg.lags;
        let nh = cfg.hidden;
        let n_w1 = nh * (ni + 1);
        let n_w2 = nh + 1;
        // Xavier-ish init
        let s1 = (1.0 / ni as f64).sqrt();
        let s2 = (1.0 / nh as f64).sqrt();
        let mut w1: Vec<f64> = (0..n_w1).map(|_| rng.gen_range(-s1..s1)).collect();
        let mut w2: Vec<f64> = (0..n_w2).map(|_| rng.gen_range(-s2..s2)).collect();
        let mut opt1 = Adam::new(n_w1, cfg.learning_rate);
        let mut opt2 = Adam::new(n_w2, cfg.learning_rate);

        let mut order: Vec<usize> = (0..train_len).collect();
        let mut best_val = f64::INFINITY;
        let mut best = (w1.clone(), w2.clone());
        let mut stall = 0;

        let mut g1 = vec![0.0; n_w1];
        let mut g2 = vec![0.0; n_w2];
        let mut hidden = vec![0.0; nh];

        for _epoch in 0..cfg.epochs {
            // Fisher–Yates shuffle of the training rows
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(cfg.batch) {
                g1.iter_mut().for_each(|g| *g = 0.0);
                g2.iter_mut().for_each(|g| *g = 0.0);
                for &r in chunk {
                    let x = &rows[r];
                    let y = targets[r];
                    // forward
                    for h in 0..nh {
                        let wrow = &w1[h * (ni + 1)..(h + 1) * (ni + 1)];
                        let z = crate::linalg::dot(&wrow[..ni], x) + wrow[ni];
                        hidden[h] = z.tanh();
                    }
                    let out = crate::linalg::dot(&w2[..nh], &hidden) + w2[nh];
                    let err = out - y;
                    // backward
                    for h in 0..nh {
                        g2[h] += err * hidden[h];
                        let dh = err * w2[h] * (1.0 - hidden[h] * hidden[h]);
                        let grow = &mut g1[h * (ni + 1)..(h + 1) * (ni + 1)];
                        for (gi, &xi) in grow[..ni].iter_mut().zip(x) {
                            *gi += dh * xi;
                        }
                        grow[ni] += dh;
                    }
                    g2[nh] += err;
                }
                let inv = 1.0 / chunk.len() as f64;
                g1.iter_mut().for_each(|g| *g *= inv);
                g2.iter_mut().for_each(|g| *g *= inv);
                opt1.step(&mut w1, &g1);
                opt2.step(&mut w2, &g2);
            }
            // validation
            let val_mse = mse_on(&w1, &w2, ni, nh, &rows[train_len..], &targets[train_len..]);
            if val_mse + 1e-9 < best_val {
                best_val = val_mse;
                best = (w1.clone(), w2.clone());
                stall = 0;
            } else {
                stall += 1;
                if stall >= cfg.patience {
                    break;
                }
            }
        }
        let (w1, w2) = best;
        let train_mse = mse_on(&w1, &w2, ni, nh, &rows[..train_len], &targets[..train_len]);
        Self {
            cfg,
            w1,
            w2,
            lo,
            hi,
            train_mse,
        }
    }

    /// One-step-ahead prediction from the most recent observations
    /// (original scale; needs at least `lags` values).
    pub fn predict_next(&self, history: &[f64]) -> f64 {
        let ni = self.cfg.lags;
        assert!(history.len() >= ni, "need at least {ni} observations");
        let x: Vec<f64> = (1..=ni)
            .map(|j| scale(history[history.len() - j], self.lo, self.hi))
            .collect();
        let nh = self.cfg.hidden;
        let mut out = self.w2[nh];
        for h in 0..nh {
            let wrow = &self.w1[h * (ni + 1)..(h + 1) * (ni + 1)];
            let z = crate::linalg::dot(&wrow[..ni], &x) + wrow[ni];
            out += self.w2[h] * z.tanh();
        }
        unscale(out, self.lo, self.hi)
    }

    /// Closed-loop k-step forecast: feed predictions back as inputs.
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Vec<f64> {
        let mut buf = history.to_vec();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let p = self.predict_next(&buf);
            out.push(p);
            buf.push(p);
        }
        out
    }

    /// One-step rolling predictions for `series[split..]` given true
    /// history (open loop) — the Fig. 7 test protocol.
    pub fn rolling_one_step(&self, series: &[f64], split: usize) -> Vec<f64> {
        assert!(split >= self.cfg.lags, "split must be >= lags");
        (split..series.len())
            .map(|t| self.predict_next(&series[..t]))
            .collect()
    }

    /// Final training MSE on the normalised scale.
    pub fn train_mse(&self) -> f64 {
        self.train_mse
    }

    /// Number of lag inputs.
    pub fn lags(&self) -> usize {
        self.cfg.lags
    }
}

fn bounds(y: &[f64]) -> (f64, f64) {
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-12 {
        (lo - 0.5, lo + 0.5)
    } else {
        (lo, hi)
    }
}

#[inline]
fn scale(v: f64, lo: f64, hi: f64) -> f64 {
    2.0 * (v - lo) / (hi - lo) - 1.0
}

#[inline]
fn unscale(v: f64, lo: f64, hi: f64) -> f64 {
    (v + 1.0) / 2.0 * (hi - lo) + lo
}

fn mse_on(w1: &[f64], w2: &[f64], ni: usize, nh: usize, rows: &[Vec<f64>], t: &[f64]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for (x, &y) in rows.iter().zip(t) {
        let mut out = w2[nh];
        for h in 0..nh {
            let wrow = &w1[h * (ni + 1)..(h + 1) * (ni + 1)];
            let z = crate::linalg::dot(&wrow[..ni], x) + wrow[ni];
            out += w2[h] * z.tanh();
        }
        sum += (out - y) * (out - y);
    }
    sum / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| (t as f64 * 0.3).sin() * 5.0 + 10.0)
            .collect()
    }

    fn quick_cfg() -> NarnetConfig {
        NarnetConfig {
            lags: 6,
            hidden: 10,
            epochs: 150,
            patience: 20,
            ..NarnetConfig::default()
        }
    }

    #[test]
    fn learns_a_sine_wave() {
        let y = sine(400);
        let model = Narnet::fit(&y[..300], quick_cfg());
        let preds = model.rolling_one_step(&y, 300);
        let mse: f64 = preds
            .iter()
            .zip(&y[300..])
            .map(|(p, a)| (p - a).powi(2))
            .sum::<f64>()
            / preds.len() as f64;
        // amplitude 5 → variance 12.5; demand far better than predicting the mean
        assert!(mse < 0.5, "test mse = {mse}");
    }

    #[test]
    fn learns_nonlinear_map_better_than_linear() {
        // threshold autoregression: linear models cannot capture the switch
        let mut y = vec![0.5f64, -0.3];
        for t in 2..1_200 {
            let prev: f64 = y[t - 1];
            let v = if prev > 0.0 {
                0.9 * prev - 0.4
            } else {
                -0.7 * prev + 0.3
            };
            y.push(v + 0.05 * ((t as f64) * 1.7).sin());
        }
        let split = 900;
        let model = Narnet::fit(&y[..split], quick_cfg());
        let nn_preds = model.rolling_one_step(&y, split);
        let nn_mse: f64 = nn_preds
            .iter()
            .zip(&y[split..])
            .map(|(p, a)| (p - a).powi(2))
            .sum::<f64>()
            / nn_preds.len() as f64;

        let ar = crate::ar::fit_ar(&y[..split], 6).unwrap();
        let ar_mse: f64 = (split..y.len())
            .map(|t| (ar.predict_next(&y[..t]) - y[t]).powi(2))
            .sum::<f64>()
            / (y.len() - split) as f64;
        assert!(
            nn_mse < ar_mse,
            "NARNET {nn_mse} should beat linear AR {ar_mse} on TAR data"
        );
    }

    #[test]
    fn forecast_closed_loop_has_right_length_and_stays_bounded() {
        let y = sine(300);
        let model = Narnet::fit(&y, quick_cfg());
        let fc = model.forecast(&y, 50);
        assert_eq!(fc.len(), 50);
        // normalisation clamps tanh output near training range
        for v in fc {
            assert!(v > 0.0 && v < 20.0, "runaway forecast {v}");
        }
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let y = sine(200);
        let a = Narnet::fit(&y, quick_cfg());
        let b = Narnet::fit(&y, quick_cfg());
        assert_eq!(a.predict_next(&y), b.predict_next(&y));
    }

    #[test]
    fn constant_series_predicts_constant() {
        let y = vec![7.0; 100];
        let model = Narnet::fit(&y, quick_cfg());
        let p = model.predict_next(&y);
        assert!((p - 7.0).abs() < 0.5, "predicted {p}");
    }

    #[test]
    #[should_panic(expected = "series too short")]
    fn short_series_panics() {
        Narnet::fit(&[1.0, 2.0], quick_cfg());
    }
}
