//! Synthetic trace generation — the ZopleCloud substitute (DESIGN.md §1).
//!
//! The paper's prediction study (Sec. VI-A, Fig. 3–5) uses proprietary
//! traces from a local data-center provider: weekly switch traffic, VM CPU
//! utilisation and disk-I/O speed. These generators produce seeded,
//! reproducible series with the same qualitative structure: strong diurnal
//! and weekly periodicity (the "explicit diurnal traffic pattern" of
//! telecom workloads \[24\]), autocorrelated noise, and bursts. A
//! threshold-autoregressive generator supplies the nonlinear regime where
//! NARNET outperforms ARIMA (Fig. 7).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared shape parameters for the periodic generators.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of samples to generate.
    pub len: usize,
    /// Samples per day (e.g. 144 for 10-minute sampling).
    pub samples_per_day: usize,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// One day at 10-minute sampling.
    pub fn one_day(seed: u64) -> Self {
        Self {
            len: 144,
            samples_per_day: 144,
            seed,
        }
    }
}

/// AR(1) noise process shared by the generators.
fn ar1_noise(rng: &mut StdRng, n: usize, phi: f64, scale: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut prev = 0.0;
    for _ in 0..n {
        let e: f64 = rng.gen_range(-1.0..1.0);
        prev = phi * prev + scale * e;
        out.push(prev);
    }
    out
}

/// CPU-utilisation trace in percent (Fig. 3): diurnal sinusoid around a
/// business-hours plateau, AR(1) noise, sporadic load spikes; clamped to
/// [0, 100].
pub fn cpu_trace(cfg: &TraceConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let noise = ar1_noise(&mut rng, cfg.len, 0.6, 6.0);
    let spd = cfg.samples_per_day as f64;
    // different tenants peak at different hours: each trace gets its own
    // diurnal phase, so co-located workloads do not surge in lock-step
    let phase_offset: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
    (0..cfg.len)
        .map(|t| {
            let day_phase = 2.0 * std::f64::consts::PI * (t as f64) / spd + phase_offset;
            let base = 45.0 + 25.0 * (day_phase - 1.2).sin();
            let spike = if rng.gen_bool(0.03) {
                rng.gen_range(15.0..40.0)
            } else {
                0.0
            };
            (base + noise[t] + spike).clamp(0.0, 100.0)
        })
        .collect()
}

/// Disk-I/O rate trace in MB (Fig. 4): low baseline with heavy bursts
/// (batch jobs, backups) and mild periodicity; clamped to [0, 1200].
pub fn disk_io_trace(cfg: &TraceConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x10));
    let noise = ar1_noise(&mut rng, cfg.len, 0.4, 40.0);
    let spd = cfg.samples_per_day as f64;
    let mut burst_left = 0usize;
    let mut burst_height = 0.0;
    (0..cfg.len)
        .map(|t| {
            let day_phase = 2.0 * std::f64::consts::PI * (t as f64) / spd;
            let base = 180.0 + 90.0 * (day_phase + 0.5).sin();
            if burst_left == 0 && rng.gen_bool(0.05) {
                burst_left = rng.gen_range(2..6);
                burst_height = rng.gen_range(300.0..900.0);
            }
            let burst = if burst_left > 0 {
                burst_left -= 1;
                burst_height
            } else {
                0.0
            };
            (base + noise[t] + burst).clamp(0.0, 1200.0)
        })
        .collect()
}

/// Weekly switch-traffic trace in MB (Fig. 5): daily sinusoid whose
/// amplitude is modulated by a weekday/weekend factor, plus AR(1) noise —
/// "the weekly traffic have its peaks and troughs regularly" (Sec. VI-A).
pub fn weekly_traffic_trace(cfg: &TraceConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x20));
    let noise = ar1_noise(&mut rng, cfg.len, 0.7, 4.0);
    let spd = cfg.samples_per_day as f64;
    (0..cfg.len)
        .map(|t| {
            let day = (t as f64 / spd).floor() as usize % 7;
            let weekday_factor = if day < 5 { 1.0 } else { 0.55 };
            let day_phase = 2.0 * std::f64::consts::PI * (t as f64) / spd;
            let base = 50.0 + weekday_factor * 35.0 * (day_phase - 1.0).sin().max(-0.4);
            (base + noise[t]).max(0.0)
        })
        .collect()
}

/// Nonlinear (threshold-autoregressive) trace where the dynamics switch
/// regime on the sign of the previous value — linear ARIMA cannot capture
/// this, NARNET can (Fig. 7's motivation).
pub fn nonlinear_trace(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x30));
    let mut y = Vec::with_capacity(len);
    let mut prev: f64 = 0.2;
    for t in 0..len {
        let e: f64 = rng.gen_range(-0.08..0.08);
        let v = if prev > 0.0 {
            0.85 * prev - 0.45
        } else {
            -0.75 * prev + 0.35
        };
        prev = v + e + 0.1 * ((t as f64) * 0.05).sin();
        y.push(prev);
    }
    y
}

/// A memory-utilisation trace in [0, 1]: slow random walk with mean
/// reversion (memory changes slower than CPU). Used by the simulator's
/// workload profiles.
pub fn memory_trace(cfg: &TraceConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x40));
    let mut level: f64 = rng.gen_range(0.3..0.6);
    (0..cfg.len)
        .map(|_| {
            let e: f64 = rng.gen_range(-0.02..0.02);
            level += e + 0.01 * (0.5 - level);
            level = level.clamp(0.0, 1.0);
            level
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::acf;

    #[test]
    fn cpu_trace_in_percent_range() {
        let y = cpu_trace(&TraceConfig::one_day(1));
        assert_eq!(y.len(), 144);
        assert!(y.iter().all(|&v| (0.0..=100.0).contains(&v)));
        // must actually vary
        assert!(crate::stats::variance(&y) > 10.0);
    }

    #[test]
    fn disk_io_trace_bursty_and_bounded() {
        let cfg = TraceConfig {
            len: 600,
            samples_per_day: 144,
            seed: 2,
        };
        let y = disk_io_trace(&cfg);
        assert!(y.iter().all(|&v| (0.0..=1200.0).contains(&v)));
        let max = y.iter().cloned().fold(0.0, f64::max);
        let mean = crate::stats::mean(&y);
        assert!(max > 2.0 * mean, "no bursts: max {max}, mean {mean}");
    }

    #[test]
    fn weekly_traffic_has_strong_daily_periodicity() {
        let cfg = TraceConfig {
            len: 7 * 24,
            samples_per_day: 24,
            seed: 3,
        };
        let y = weekly_traffic_trace(&cfg);
        let r = acf(&y, 24);
        assert!(r[24] > 0.3, "daily-lag autocorrelation too weak: {}", r[24]);
    }

    #[test]
    fn weekend_traffic_lower_than_weekday() {
        let cfg = TraceConfig {
            len: 7 * 48,
            samples_per_day: 48,
            seed: 4,
        };
        let y = weekly_traffic_trace(&cfg);
        let weekday_peak: f64 = y[..5 * 48].iter().cloned().fold(0.0, f64::max);
        let weekend_peak: f64 = y[5 * 48..].iter().cloned().fold(0.0, f64::max);
        assert!(
            weekend_peak < weekday_peak,
            "{weekend_peak} !< {weekday_peak}"
        );
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let cfg = TraceConfig::one_day(9);
        assert_eq!(cpu_trace(&cfg), cpu_trace(&cfg));
        assert_ne!(
            cpu_trace(&cfg),
            cpu_trace(&TraceConfig::one_day(10)),
            "different seeds must differ"
        );
    }

    #[test]
    fn nonlinear_trace_is_bounded_and_nonlinear() {
        let y = nonlinear_trace(2_000, 5);
        assert!(y.iter().all(|v| v.abs() < 5.0));
        // regime switching keeps the lag-1 ACF well below an AR(1) with
        // comparable variance
        let r = acf(&y, 2);
        assert!(r[1].abs() < 0.9);
    }

    #[test]
    fn memory_trace_in_unit_interval() {
        let cfg = TraceConfig::one_day(6);
        let y = memory_trace(&cfg);
        assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
