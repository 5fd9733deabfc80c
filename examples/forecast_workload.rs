//! The prediction phase of Sheriff (Sec. IV): fit ARIMA and NARNET to a
//! server's workload history, combine them with the rolling-MSE selector,
//! and raise pre-alerts when the *predicted* profile crosses the
//! threshold — before the overload actually happens.
//!
//! ```text
//! cargo run --release --example forecast_workload
//! ```

use sheriff_dcn::forecast::generator::{weekly_traffic_trace, TraceConfig};
use sheriff_dcn::forecast::metrics::mse;
use sheriff_dcn::prelude::*;

fn main() {
    // a week of switch traffic at 2-hour granularity
    let cfg = TraceConfig {
        len: 7 * 72,
        samples_per_day: 72,
        seed: 11,
    };
    let traffic = weekly_traffic_trace(&cfg);
    let split = traffic.len() / 2;

    // --- ARIMA(1,1,1), the paper's Fig. 6 model -------------------------
    let arima = ArimaModel::fit(&traffic[..split], ArimaSpec::new(1, 1, 1))
        .expect("traffic trace is well-behaved");
    let arima_preds = arima.rolling_one_step(&traffic, split);
    println!(
        "ARIMA(1,1,1): phi={:?} theta={:?}, test MSE {:.2}",
        arima.phi,
        arima.theta,
        mse(&arima_preds, &traffic[split..])
    );

    // --- NARNET with 20 hidden neurons (Fig. 7) -------------------------
    let narnet = Narnet::fit(
        &traffic[..split],
        NarnetConfig {
            lags: 8,
            hidden: 20,
            ..NarnetConfig::default()
        },
    );
    let nn_preds = narnet.rolling_one_step(&traffic, split);
    println!(
        "NARNET(8 lags, 20 hidden): test MSE {:.2}",
        mse(&nn_preds, &traffic[split..])
    );

    // --- dynamic selection (Fig. 8, Eqn. 14) -----------------------------
    let mut selector = DynamicSelector::new(vec![
        Predictor::Arima(arima.clone()),
        Predictor::Narnet(narnet),
    ]);
    let (combined, used) = selector.run(&traffic, split);
    let switches = used.windows(2).filter(|w| w[0] != w[1]).count();
    println!(
        "combined: test MSE {:.2}, model switches {switches}",
        mse(&combined, &traffic[split..])
    );

    // --- k-step-ahead pre-alerting (Sec. IV-C) ---------------------------
    // predict the next 6 steps; alert if the normalised forecast crosses
    // the 90 % threshold
    let horizon = 6;
    let forecast = arima.forecast(&traffic, horizon);
    let peak = traffic.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("\n{horizon}-step-ahead forecast (traffic units, peak so far {peak:.1}):");
    let threshold = 0.9;
    for (h, value) in forecast.iter().enumerate() {
        let normalized = value / peak;
        let alert = if normalized > threshold {
            format!("ALERT = {normalized:.2}")
        } else {
            "ok".to_string()
        };
        println!("  t+{:>2}: {value:7.1}  [{alert}]", h + 1);
    }

    // --- the same pipeline on a full VM workload profile ----------------
    let workload = VmWorkload::synthetic(400, 3);
    let predictor = HoltPredictor::default();
    let t = 350;
    let predicted = predictor.predict(&workload, t + 1);
    let actual = workload.at(t + 1);
    println!(
        "\nVM profile one-step prediction at t={t}: predicted max {:.2}, actual max {:.2}",
        predicted.max(),
        actual.max()
    );
    if predicted.exceeds(0.9) {
        println!(
            "  -> shim would raise a pre-alert (severity {:.2})",
            predicted.max()
        );
    } else {
        println!("  -> no alert: predicted profile under the 0.9 threshold");
    }
}
