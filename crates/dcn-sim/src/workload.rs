//! Per-VM workload profiles `W^k_ij = [CPU, MEM, IO, TRF]` (Sec. IV-A),
//! each element normalised to [0, 1], backed by synthetic traces.

use timeseries::generator::{
    cpu_trace, disk_io_trace, memory_trace, weekly_traffic_trace, TraceConfig,
};
use timeseries::MinMaxScaler;

/// One snapshot of a VM's workload profile, every element in [0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// CPU load fraction.
    pub cpu: f64,
    /// Memory utilisation fraction.
    pub mem: f64,
    /// Disk-I/O rate fraction.
    pub io: f64,
    /// Uplink network traffic fraction.
    pub trf: f64,
}

impl Profile {
    /// The four features as an array, in the paper's `[CPU, MEM, IO, TRF]`
    /// order.
    #[inline]
    pub fn as_array(&self) -> [f64; 4] {
        [self.cpu, self.mem, self.io, self.trf]
    }

    /// `max(W)` — the value reported as the ALERT magnitude (Sec. IV-C).
    #[inline]
    pub fn max(&self) -> f64 {
        self.as_array().iter().cloned().fold(0.0, f64::max)
    }

    /// Whether any feature exceeds the THRESHOLD.
    #[inline]
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.as_array().iter().any(|&v| v > threshold)
    }

    /// Validate every feature lies in [0, 1].
    pub fn is_normalized(&self) -> bool {
        self.as_array().iter().all(|&v| (0.0..=1.0).contains(&v))
    }
}

/// A VM's full workload history: four aligned normalised series.
#[derive(Debug, Clone)]
pub struct VmWorkload {
    cpu: Vec<f64>,
    mem: Vec<f64>,
    io: Vec<f64>,
    trf: Vec<f64>,
}

impl VmWorkload {
    /// Build from raw (unnormalised) series; each is min-max scaled into
    /// [0, 1] with fixed domain ranges so that "90 % CPU" means the same
    /// thing across VMs.
    pub fn from_raw(cpu: Vec<f64>, mem: Vec<f64>, io: Vec<f64>, trf: Vec<f64>) -> Self {
        assert!(
            cpu.len() == mem.len() && mem.len() == io.len() && io.len() == trf.len(),
            "all four feature series must be aligned"
        );
        let cpu_s = MinMaxScaler::with_range(0.0, 100.0);
        let io_s = MinMaxScaler::with_range(0.0, 1200.0);
        let trf_s = MinMaxScaler::fit(&trf);
        Self {
            cpu: cpu_s.transform_all(&cpu),
            mem, // memory_trace is already in [0, 1]
            io: io_s.transform_all(&io),
            trf: trf_s.transform_all(&trf),
        }
    }

    /// Generate a seeded synthetic workload of `len` steps, mimicking the
    /// ZopleCloud trace mix (DESIGN.md §1).
    pub fn synthetic(len: usize, seed: u64) -> Self {
        let cfg = TraceConfig {
            len,
            samples_per_day: 144,
            seed,
        };
        Self::from_raw(
            cpu_trace(&cfg),
            memory_trace(&cfg),
            disk_io_trace(&cfg),
            weekly_traffic_trace(&cfg),
        )
    }

    /// Number of time steps.
    #[inline]
    pub fn len(&self) -> usize {
        self.cpu.len()
    }

    /// True when the workload has no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cpu.is_empty()
    }

    /// Profile at time step `t` (clamped to the last step so simulations
    /// can outrun the trace without panicking).
    pub fn at(&self, t: usize) -> Profile {
        let i = t.min(self.len().saturating_sub(1));
        Profile {
            cpu: self.cpu[i],
            mem: self.mem[i],
            io: self.io[i],
            trf: self.trf[i],
        }
    }

    /// Overlay a surge window: every feature in steps
    /// `[start, start + duration)` is multiplied by `factor` and clamped
    /// back into [0, 1]. The burst scenarios of the scenario engine use
    /// this to turn the diurnal synthetic traces into flash crowds
    /// (factor > 1) or brown-outs (factor < 1).
    pub fn apply_surge(&mut self, start: usize, duration: usize, factor: f64) {
        let end = start.saturating_add(duration).min(self.len());
        for series in [&mut self.cpu, &mut self.mem, &mut self.io, &mut self.trf] {
            for v in &mut series[start.min(end)..end] {
                *v = (*v * factor).clamp(0.0, 1.0);
            }
        }
    }

    /// Borrow one feature's history up to (excluding) step `t` — the input
    /// the per-feature forecaster sees.
    pub fn feature_history(&self, feature: Feature, t: usize) -> &[f64] {
        let end = t.min(self.len());
        match feature {
            Feature::Cpu => &self.cpu[..end],
            Feature::Mem => &self.mem[..end],
            Feature::Io => &self.io[..end],
            Feature::Trf => &self.trf[..end],
        }
    }
}

/// The four workload features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// CPU utilisation.
    Cpu,
    /// Memory utilisation.
    Mem,
    /// Disk I/O rate.
    Io,
    /// Network traffic.
    Trf,
}

impl Feature {
    /// All four features in profile order.
    pub const ALL: [Feature; 4] = [Feature::Cpu, Feature::Mem, Feature::Io, Feature::Trf];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_max_and_threshold() {
        let p = Profile {
            cpu: 0.95,
            mem: 0.4,
            io: 0.2,
            trf: 0.1,
        };
        assert_eq!(p.max(), 0.95);
        assert!(p.exceeds(0.9));
        assert!(!p.exceeds(0.96));
        assert!(p.is_normalized());
    }

    #[test]
    fn synthetic_workload_is_normalized() {
        let w = VmWorkload::synthetic(200, 5);
        assert_eq!(w.len(), 200);
        for t in 0..w.len() {
            assert!(w.at(t).is_normalized(), "step {t} out of range");
        }
    }

    #[test]
    fn at_clamps_beyond_end() {
        let w = VmWorkload::synthetic(50, 1);
        assert_eq!(w.at(1000), w.at(49));
    }

    #[test]
    fn feature_history_is_prefix() {
        let w = VmWorkload::synthetic(100, 2);
        let h = w.feature_history(Feature::Cpu, 30);
        assert_eq!(h.len(), 30);
        assert_eq!(h[29], w.at(29).cpu);
        // beyond end clamps to full series
        assert_eq!(w.feature_history(Feature::Trf, 500).len(), 100);
    }

    #[test]
    fn surge_scales_and_clamps_the_window() {
        let mut w = VmWorkload::synthetic(20, 3);
        let before = w.at(4);
        let inside = w.at(7);
        w.apply_surge(5, 5, 10.0);
        // outside the window: untouched
        assert_eq!(w.at(4), before);
        assert_eq!(w.at(10), VmWorkload::synthetic(20, 3).at(10));
        // inside: scaled up and clamped into [0, 1]
        let after = w.at(7);
        assert!(after.cpu >= inside.cpu);
        assert!(after.is_normalized());
        // a surge window past the end is a no-op, not a panic
        w.apply_surge(100, 5, 2.0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = VmWorkload::synthetic(50, 1);
        let b = VmWorkload::synthetic(50, 2);
        assert_ne!(a.at(10), b.at(10));
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_series_rejected() {
        VmWorkload::from_raw(vec![1.0], vec![0.5, 0.5], vec![1.0], vec![1.0]);
    }
}
