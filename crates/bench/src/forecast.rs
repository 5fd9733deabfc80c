//! Fig. 6–8: prediction accuracy of ARIMA, NARNET, and the combined
//! (dynamic-selection) model.
//!
//! * Fig. 6 — ARIMA(1,1,1), 50 % train / 50 % test on the weekly traffic
//!   trace, one-step-ahead predictions and bias.
//! * Fig. 7 — NARNET with 20 hidden neurons, 70 % train / 30 % test, on a
//!   nonlinear series where linear models fail.
//! * Fig. 8 — the rolling-MSE selector over an {ARIMA×2, NARNET×2} pool
//!   on mixed data; its MSE should undercut each single model.

use crate::report::Table;
use timeseries::arima::{ArimaModel, ArimaSpec, FitError};
use timeseries::generator::{nonlinear_trace, weekly_traffic_trace, TraceConfig};
use timeseries::metrics::{mae, mse};
use timeseries::narnet::{Narnet, NarnetConfig};
use timeseries::selector::{DynamicSelector, Predictor};

/// Fig. 6 — ARIMA on the weekly traffic trace.
///
/// Errors if the generated trace is too short or degenerate for the
/// ARIMA fit — a seed-dependent condition the CLI reports instead of
/// panicking on.
pub fn fig6(seed: u64) -> Result<Table, FitError> {
    let cfg = TraceConfig {
        len: 7 * 72,
        samples_per_day: 72,
        seed,
    };
    let y = weekly_traffic_trace(&cfg);
    let split = y.len() / 2;
    let model = ArimaModel::fit(&y[..split], ArimaSpec::new(1, 1, 1))?;

    // in-sample one-step (training output) and out-of-sample (test output)
    let warmup = model.spec.d + 5;
    let train_pred = model.rolling_one_step(&y[..split], warmup);
    let train_actual = &y[warmup..split];
    let test_pred = model.rolling_one_step(&y, split);
    let test_actual = &y[split..];

    let mut t = Table::new(
        "fig6",
        "ARIMA(1,1,1) predicting switch traffic (train 50% / test 50%)",
        &["t", "actual", "predicted", "bias"],
    );
    for (i, (p, a)) in test_pred.iter().zip(test_actual).enumerate() {
        t.push(vec![(split + i) as f64, *a, *p, p - a]);
    }
    let train_mse = mse(&train_pred, train_actual);
    let test_mse = mse(&test_pred, test_actual);
    t.note(format!(
        "train MSE = {train_mse:.3}, test MSE = {test_mse:.3}"
    ));
    t.note(format!(
        "test MAE = {:.3} on series with std {:.3}",
        mae(&test_pred, test_actual),
        timeseries::stats::variance(test_actual).sqrt()
    ));
    // naive (last-value) baseline for context
    let naive: Vec<f64> = (split..y.len()).map(|i| y[i - 1]).collect();
    t.note(format!(
        "naive last-value test MSE = {:.3} (ARIMA should beat this)",
        mse(&naive, test_actual)
    ));
    Ok(t)
}

/// Standard NARNET config used by the figure experiments (20 hidden
/// neurons per the paper).
pub fn paper_narnet(seed: u64) -> NarnetConfig {
    NarnetConfig {
        lags: 8,
        hidden: 20,
        epochs: 300,
        patience: 25,
        seed,
    }
}

/// Fig. 7 — NARNET on a nonlinear series (70 % train / 30 % test).
///
/// Errors if the ARIMA comparator cannot be fit on the generated
/// series.
pub fn fig7(seed: u64) -> Result<Table, FitError> {
    let y = nonlinear_trace(900, seed);
    let split = y.len() * 7 / 10;
    let nn = Narnet::fit(&y[..split], paper_narnet(seed));
    let preds = nn.rolling_one_step(&y, split);
    let actual = &y[split..];

    let mut t = Table::new(
        "fig7",
        "NARNET (20 hidden) predicting a nonlinear series (train 70% / test 30%)",
        &["t", "actual", "predicted", "bias"],
    );
    for (i, (p, a)) in preds.iter().zip(actual).enumerate() {
        t.push(vec![(split + i) as f64, *a, *p, p - a]);
    }
    let nn_mse = mse(&preds, actual);
    t.note(format!("NARNET test MSE = {nn_mse:.5}"));
    // the linear comparator the paper motivates NARNET against
    let ar = ArimaModel::fit(&y[..split], ArimaSpec::new(2, 0, 1))?;
    let ar_preds = ar.rolling_one_step(&y, split);
    let ar_mse = mse(&ar_preds, actual);
    t.note(format!(
        "ARIMA(2,0,1) on the same nonlinear data: test MSE = {ar_mse:.5} (NARNET should win)"
    ));
    Ok(t)
}

/// Build the four-model pool the paper describes (two ARIMA, two NARNET).
pub fn paper_pool(train: &[f64], seed: u64) -> Vec<Predictor> {
    let mut pool = Vec::new();
    for spec in [ArimaSpec::new(1, 1, 1), ArimaSpec::new(2, 0, 2)] {
        if let Ok(m) = ArimaModel::fit(train, spec) {
            pool.push(Predictor::Arima(m));
        }
    }
    for (lags, hidden) in [(6usize, 12usize), (10, 20)] {
        pool.push(Predictor::Narnet(Narnet::fit(
            train,
            NarnetConfig {
                lags,
                hidden,
                epochs: 250,
                patience: 25,
                seed: seed ^ (lags as u64),
            },
        )));
    }
    pool
}

/// A series mixing a linear periodic regime with a nonlinear regime so
/// that neither model family wins everywhere.
pub fn mixed_series(len: usize, seed: u64) -> Vec<f64> {
    let cfg = TraceConfig {
        len: len / 2,
        samples_per_day: 36,
        seed,
    };
    let mut y = weekly_traffic_trace(&cfg);
    // rescale the nonlinear half into the traffic range and append
    let nl = nonlinear_trace(len - y.len(), seed);
    let base = y.last().copied().unwrap_or(0.0);
    y.extend(nl.iter().map(|v| base + 25.0 * v));
    y
}

/// Fig. 8 — the combined model on mixed data.
pub fn fig8(seed: u64) -> Table {
    let y = mixed_series(900, seed);
    let split = y.len() / 2;
    let pool = paper_pool(&y[..split], seed);
    let labels: Vec<String> = pool.iter().map(Predictor::label).collect();

    // individual model errors
    let singles: Vec<f64> = pool
        .iter()
        .map(|m| {
            let preds: Vec<f64> = (split..y.len()).map(|t| m.predict_next(&y[..t])).collect();
            mse(&preds, &y[split..])
        })
        .collect();

    let mut sel = DynamicSelector::new(pool);
    let (preds, used) = sel.run(&y, split);
    let combined = mse(&preds, &y[split..]);

    let mut t = Table::new(
        "fig8",
        "Combined (dynamic-selection) model on mixed linear+nonlinear data",
        &["t", "actual", "predicted", "model_used"],
    );
    for (i, (p, u)) in preds.iter().zip(&used).enumerate() {
        t.push(vec![(split + i) as f64, y[split + i], *p, *u as f64]);
    }
    for (label, m) in labels.iter().zip(&singles) {
        t.note(format!("{label} alone: test MSE = {m:.3}"));
    }
    let best_single = singles.iter().cloned().fold(f64::INFINITY, f64::min);
    t.note(format!(
        "combined model: test MSE = {combined:.3} (best single = {best_single:.3})"
    ));
    let switches = used.windows(2).filter(|w| w[0] != w[1]).count();
    t.note(format!("selector switched models {switches} times"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_arima_beats_naive() {
        let t = fig6(1).expect("fits");
        let test_mse: f64 = parse_note_value(&t.notes[0], "test MSE = ");
        let naive: f64 = parse_note_value(&t.notes[2], "test MSE = ");
        assert!(test_mse < naive, "ARIMA {test_mse} vs naive {naive}");
    }

    #[test]
    fn fig7_narnet_beats_linear_on_nonlinear_data() {
        let t = fig7(1).expect("fits");
        let nn: f64 = parse_note_value(&t.notes[0], "MSE = ");
        let ar: f64 = parse_note_value(&t.notes[1], "MSE = ");
        assert!(nn < ar, "NARNET {nn} vs ARIMA {ar}");
    }

    #[test]
    fn fig8_combined_close_to_best_single() {
        let t = fig8(1);
        let last = t.notes.iter().rev().nth(1).unwrap();
        let combined: f64 = parse_note_value(last, "test MSE = ");
        let best: f64 = parse_note_value(last, "best single = ");
        assert!(
            combined <= best * 1.25,
            "combined {combined} should be competitive with best single {best}"
        );
    }

    fn parse_note_value(note: &str, key: &str) -> f64 {
        let start = note.find(key).expect("key present") + key.len();
        let rest = &note[start..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().expect("number parses")
    }
}
