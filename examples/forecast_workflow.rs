//! The complete Box–Jenkins workflow Sheriff's prediction phase automates
//! (Sec. IV-B): order selection, fit diagnostics (with a refit on recent
//! history when they fail), forecast intervals, and the conservative
//! pre-alert rule that fires on the interval's upper edge.
//!
//! ```text
//! cargo run --release --example forecast_workflow
//! ```

use sheriff_dcn::forecast::boxjenkins::select;
use sheriff_dcn::forecast::diagnostics::diagnose_arima;
use sheriff_dcn::forecast::generator::{weekly_traffic_trace, TraceConfig};
use sheriff_dcn::forecast::interval::first_alert_step;

fn main() {
    let season = 48; // samples per day
    let y = weekly_traffic_trace(&TraceConfig {
        len: 7 * season,
        samples_per_day: season,
        seed: 13,
    });
    let train = &y[..5 * season];

    // --- 1. automatic order selection -------------------------------------
    let (spec, model) = select(train).expect("order selection");
    println!("Box–Jenkins selected {spec} (AIC {:.1})", model.aic());

    // --- 2. residual diagnostics -------------------------------------------
    // Box–Jenkins checks a fit before trusting it. The order above is
    // already the AIC optimum over the whole (p, d, q) grid, so when its
    // residuals are not white the candidate left to try is the data: a
    // shim forecasts from recent history, so refit on the most recent
    // days, one day shorter at a time, keeping at least two daily cycles.
    let (mut window, mut model) = (train, model);
    let mut report = diagnose_arima(&model, window, 12);
    let mut days = train.len() / season;
    loop {
        println!(
            "\n{} on the last {days} days: residual mean {:+.3}, variance {:.3}, \
             Ljung–Box Q {:.1}, white: {}",
            report.model,
            report.residual_mean,
            report.residual_variance,
            report.ljung_box_q,
            report.residuals_white
        );
        if report.acceptable() || days <= 2 {
            break;
        }
        days -= 1;
        window = &train[train.len() - days * season..];
        model = select(window).expect("order selection").1;
        report = diagnose_arima(&model, window, 12);
    }
    if !report.acceptable() {
        println!(
            "no window of two days or more passes: proceeding with {}, \
             whose bands may understate the forecast error",
            report.model
        );
    }

    // --- 3. forecast intervals (the paper's "forecast range") --------------
    let horizon = 12;
    let forecasts = model.forecast_with_interval(window, horizon, 1.96);
    println!("\n{horizon}-step forecast with 95% bands:");
    for (h, f) in forecasts.iter().enumerate() {
        println!(
            "  t+{:>2}: {:6.1}  [{:6.1}, {:6.1}]  (se {:.2})",
            h + 1,
            f.mean,
            f.lower,
            f.upper,
            f.std_error
        );
    }

    // --- 4. conservative pre-alerting --------------------------------------
    // alert when the *upper band* crosses the threshold, not the mean —
    // the earlier, risk-averse variant of the Sec. IV-C rule
    let peak = train.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let threshold = 0.95 * peak;
    match first_alert_step(&forecasts, threshold) {
        Some(h) => println!(
            "\nupper-band crosses {threshold:.1} at t+{h}: raise the pre-alert {h} steps early"
        ),
        None => {
            println!("\nupper band stays below {threshold:.1} across the horizon: no alert needed")
        }
    }
}
