//! Round-based cluster simulation: topology + placement + workloads +
//! dependencies, with pluggable per-VM workload prediction and the alert
//! generation that drives the controllers (Sec. VI-B's experimental
//! setup).

use crate::alert::{Alert, AlertSource};
use crate::config::SimConfig;
use crate::error::SheriffError;
use crate::workload::{Feature, Profile, VmWorkload};
use dcn_topology::dependency::DependencyGraph;
use dcn_topology::{Dcn, HostId, Placement, RackId, VmId, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for populating a [`Cluster`] with VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Average VMs per host.
    pub vms_per_host: f64,
    /// VM capacity is drawn uniformly from this range (paper caps at 20).
    pub vm_capacity_range: (f64, f64),
    /// VM value (the knapsack objective in Alg. 2) range.
    pub vm_value_range: (f64, f64),
    /// Fraction of VMs marked delay-sensitive (never migrated).
    pub delay_sensitive_fraction: f64,
    /// Average dependency degree in `G_d`.
    pub dependency_degree: f64,
    /// Time steps of synthetic workload attached to each VM (0 = none;
    /// the scale sweeps of Fig. 11–14 do not need traces).
    pub workload_len: usize,
    /// Placement skew exponent: 0 = uniform host choice, larger values
    /// concentrate VMs on low-index hosts of each rack, producing the
    /// initial imbalance visible at round 0 of Fig. 9/10.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            vms_per_host: 3.0,
            vm_capacity_range: (5.0, 20.0),
            vm_value_range: (1.0, 10.0),
            delay_sensitive_fraction: 0.1,
            dependency_degree: 2.0,
            workload_len: 0,
            skew: 2.0,
            seed: 0xC10D,
        }
    }
}

impl ClusterConfig {
    /// Check every field is in the range the population loop relies on
    /// (ranges ordered, probabilities in `[0, 1]`, rates finite and
    /// non-negative) — the invariants that otherwise surface as panics
    /// deep inside `rand`.
    pub fn validate(&self) -> Result<(), SheriffError> {
        let bad = |field: &'static str, reason: String| {
            Err(SheriffError::InvalidClusterConfig { field, reason })
        };
        if !self.vms_per_host.is_finite() || self.vms_per_host < 0.0 {
            return bad(
                "vms_per_host",
                format!("must be finite and >= 0, got {}", self.vms_per_host),
            );
        }
        let (lo, hi) = self.vm_capacity_range;
        if !(lo.is_finite() && hi.is_finite()) || lo <= 0.0 || hi < lo {
            return bad(
                "vm_capacity_range",
                format!("needs 0 < lo <= hi, got ({lo}, {hi})"),
            );
        }
        let (vlo, vhi) = self.vm_value_range;
        if !(vlo.is_finite() && vhi.is_finite()) || vlo < 0.0 || vhi < vlo {
            return bad(
                "vm_value_range",
                format!("needs 0 <= lo <= hi, got ({vlo}, {vhi})"),
            );
        }
        if !self.delay_sensitive_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.delay_sensitive_fraction)
        {
            return bad(
                "delay_sensitive_fraction",
                format!("must be in [0, 1], got {}", self.delay_sensitive_fraction),
            );
        }
        if !self.dependency_degree.is_finite() || self.dependency_degree < 0.0 {
            return bad(
                "dependency_degree",
                format!("must be finite and >= 0, got {}", self.dependency_degree),
            );
        }
        if !self.skew.is_finite() || self.skew < 0.0 {
            return bad(
                "skew",
                format!("must be finite and >= 0, got {}", self.skew),
            );
        }
        Ok(())
    }
}

/// A fully-populated simulated data center.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The network.
    pub dcn: Dcn,
    /// Live VM → host assignment.
    pub placement: Placement,
    /// VM dependency/conflict graph.
    pub deps: DependencyGraph,
    /// Per-VM workload traces (empty when `workload_len == 0`).
    pub workloads: Vec<VmWorkload>,
    /// Simulation parameters.
    pub sim: SimConfig,
}

impl Cluster {
    /// Populate a topology with VMs according to `ccfg`.
    ///
    /// Panics on invalid configuration; use [`Cluster::try_build`] (or
    /// the `SystemBuilder` in `sheriff-core`) to get a typed error
    /// instead.
    pub fn build(dcn: Dcn, ccfg: &ClusterConfig, sim: SimConfig) -> Self {
        Self::try_build(dcn, ccfg, sim).expect("invalid cluster configuration")
    }

    /// Fallible [`Cluster::build`]: validates the topology and both
    /// configs before populating, returning a [`SheriffError`] on any
    /// out-of-range field instead of panicking mid-population.
    pub fn try_build(dcn: Dcn, ccfg: &ClusterConfig, sim: SimConfig) -> Result<Self, SheriffError> {
        if dcn.inventory.host_count() == 0 {
            return Err(SheriffError::EmptyTopology);
        }
        ccfg.validate()?;
        sim.validate()?;
        let mut rng = StdRng::seed_from_u64(ccfg.seed);
        let mut placement = Placement::new(&dcn.inventory);
        let host_count = dcn.inventory.host_count();
        let target_vms = (host_count as f64 * ccfg.vms_per_host).round() as usize;

        // Hotspots are scattered: skew concentrates load on a random
        // *permutation* of the hosts, so every region contains a mix of
        // hot and cold hosts (as in production hotspot studies) and the
        // initial imbalance of Fig. 9/10 is reachable by regional
        // balancing.
        let mut perm: Vec<usize> = (0..host_count).collect();
        for i in (1..host_count).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }

        let mut workloads = Vec::new();
        let (lo, hi) = ccfg.vm_capacity_range;
        let (vlo, vhi) = ccfg.vm_value_range;
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < target_vms && attempts < target_vms * 20 {
            attempts += 1;
            // skewed host pick: u^(1+skew) biases toward the front of the
            // shuffled host order
            let u: f64 = rng.gen::<f64>();
            let h = ((u.powf(1.0 + ccfg.skew)) * host_count as f64) as usize;
            let host = HostId::from_index(perm[h.min(host_count - 1)]);
            let spec = VmSpec {
                id: placement.next_vm_id(),
                capacity: rng.gen_range(lo..=hi),
                value: rng.gen_range(vlo..=vhi),
                delay_sensitive: rng.gen_bool(ccfg.delay_sensitive_fraction),
            };
            if placement.add_vm(spec, host).is_ok() {
                placed += 1;
                if ccfg.workload_len > 0 {
                    workloads.push(VmWorkload::synthetic(
                        ccfg.workload_len,
                        ccfg.seed.wrapping_add(placed as u64 * 7919),
                    ));
                }
            }
        }
        // Dependent VMs cannot share a host (the conflict-graph premise of
        // Sec. II-C), so the generated G_d must respect the initial
        // placement: co-located pairs never become dependent.
        let n = placement.vm_count();
        let mut deps = DependencyGraph::new(n);
        if n >= 2 {
            let p = (ccfg.dependency_degree / (n as f64 - 1.0)).clamp(0.0, 1.0);
            let hosts: Vec<HostId> = (0..n)
                .map(|v| placement.host_of(VmId::from_index(v)))
                .collect();
            for (a, &ha) in hosts.iter().enumerate() {
                for (b, &hb) in hosts.iter().enumerate().skip(a + 1) {
                    if ha != hb && rng.gen_bool(p) {
                        deps.add_dependency(VmId::from_index(a), VmId::from_index(b));
                    }
                }
            }
        }
        Ok(Self {
            dcn,
            placement,
            deps,
            workloads,
            sim,
        })
    }

    /// Observed profile of a VM at step `t` (requires workloads).
    pub fn profile_at(&self, vm: VmId, t: usize) -> Profile {
        self.workloads[vm.index()].at(t)
    }

    /// Generate host-overload alerts from *predicted* profiles: for each
    /// VM whose predicted profile at `t+1` crosses the threshold, its host
    /// raises one alert to the owning shim (deduplicated per host, keeping
    /// the worst severity). This is Sheriff's pre-alert path.
    pub fn predicted_alerts<P: ProfilePredictor>(&self, predictor: &P, t: usize) -> Vec<Alert> {
        let mut per_host: std::collections::HashMap<HostId, f64> = std::collections::HashMap::new();
        for vm in self.placement.vm_ids() {
            let w = &self.workloads[vm.index()];
            let predicted = predictor.predict(w, t);
            let v = crate::alert::alert_value(&predicted, self.sim.alert_threshold);
            if v > 0.0 {
                let host = self.placement.host_of(vm);
                // a failed host raises no pre-alerts: its evacuation is
                // driven by the fault injector's stranded-VM work-list
                if !self.placement.is_host_online(host) {
                    continue;
                }
                let cur = per_host.entry(host).or_insert(0.0);
                if v > *cur {
                    *cur = v;
                }
            }
        }
        let mut alerts: Vec<Alert> = per_host
            .into_iter()
            .map(|(host, severity)| Alert {
                rack: self.placement.rack_of_host(host),
                source: AlertSource::Host(host),
                severity,
                time: t,
            })
            .collect();
        alerts.sort_by_key(|a| match a.source {
            AlertSource::Host(h) => h.index(),
            _ => usize::MAX,
        });
        alerts
    }

    /// The Fig. 9–14 protocol: "five percent of virtual machines in each
    /// pod raise alerts for migration". The alerting VMs sit on the
    /// hottest hosts scattered across the network, so the alert set is
    /// one host alert on each of the `fraction × vm_count` most-utilised
    /// *distinct* hosts (each such host sheds one VM via PRIORITY's
    /// `w = 1` branch, so the number of migrating VMs matches the paper's
    /// fraction).
    pub fn fraction_alerts(&self, fraction: f64, t: usize) -> Vec<Alert> {
        let n = self.placement.vm_count();
        let want = ((n as f64 * fraction).ceil() as usize).clamp(1, self.placement.host_count());
        let mut hosts: Vec<HostId> = (0..self.placement.host_count())
            .map(HostId::from_index)
            .filter(|&h| !self.placement.vms_on(h).is_empty() && self.placement.is_host_online(h))
            .collect();
        hosts.sort_by(|&a, &b| {
            self.placement
                .utilization(b)
                .partial_cmp(&self.placement.utilization(a))
                .expect("utilisation is never NaN")
                .then(a.cmp(&b))
        });
        hosts
            .into_iter()
            .take(want)
            .map(|host| Alert {
                rack: self.placement.rack_of_host(host),
                source: AlertSource::Host(host),
                severity: self.placement.utilization(host).min(1.0),
                time: t,
            })
            .collect()
    }

    /// Workload-percentage standard deviation across hosts (Fig. 9/10's
    /// y-axis).
    pub fn utilization_stddev(&self) -> f64 {
        self.placement.utilization_stddev()
    }

    /// Racks within the shim's dominating region of `rack`: a fresh
    /// breadth-first search of the topology out to the configured hop
    /// radius on every call.
    pub fn region_of(&self, rack: RackId) -> Vec<RackId> {
        self.dcn.neighbor_racks(rack, self.sim.region_hops)
    }
}

/// One-step-ahead workload-profile prediction, pluggable so the examples
/// can use real ARIMA/NARNET forecasting while large sweeps use cheap
/// predictors.
pub trait ProfilePredictor {
    /// Predict the profile at step `t` given history strictly before `t`.
    fn predict(&self, workload: &VmWorkload, t: usize) -> Profile;

    /// Predict the profile `h ≥ 1` steps past the last observation before
    /// `t` (the paper's k-step-ahead prediction, Sec. IV-B). The default
    /// ignores the horizon — overridden by trend-aware predictors.
    fn predict_ahead(&self, workload: &VmWorkload, t: usize, _h: usize) -> Profile {
        self.predict(workload, t)
    }
}

/// Naive predictor: tomorrow looks like today.
#[derive(Debug, Clone, Copy, Default)]
pub struct LastValue;

impl ProfilePredictor for LastValue {
    fn predict(&self, workload: &VmWorkload, t: usize) -> Profile {
        workload.at(t.saturating_sub(1))
    }
}

/// Exponentially-weighted moving average with linear trend extrapolation —
/// a cheap stand-in for the full ARIMA pipeline in large simulations
/// (double exponential smoothing, Holt's method).
#[derive(Debug, Clone, Copy)]
pub struct HoltPredictor {
    /// Level smoothing factor.
    pub alpha: f64,
    /// Trend smoothing factor.
    pub beta: f64,
}

impl Default for HoltPredictor {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.2,
        }
    }
}

impl HoltPredictor {
    /// Holt's level and trend after the whole series; `(0, 0)` when empty.
    pub(crate) fn smooth(&self, h: &[f64]) -> (f64, f64) {
        if h.is_empty() {
            return (0.0, 0.0);
        }
        let mut level = h[0];
        let mut trend = 0.0;
        for &y in &h[1..] {
            let prev = level;
            level = self.alpha * y + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev) + (1.0 - self.beta) * trend;
        }
        (level, trend)
    }

    fn predict_series(&self, h: &[f64], horizon: usize) -> f64 {
        let (level, trend) = self.smooth(h);
        (level + horizon as f64 * trend).clamp(0.0, 1.0)
    }
}

impl ProfilePredictor for HoltPredictor {
    fn predict(&self, workload: &VmWorkload, t: usize) -> Profile {
        self.predict_ahead(workload, t, 1)
    }

    fn predict_ahead(&self, workload: &VmWorkload, t: usize, h: usize) -> Profile {
        let f = |feat: Feature| self.predict_series(workload.feature_history(feat, t), h.max(1));
        Profile {
            cpu: f(Feature::Cpu),
            mem: f(Feature::Mem),
            io: f(Feature::Io),
            trf: f(Feature::Trf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::{self, FatTreeConfig};

    fn small_cluster(workload_len: usize) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let ccfg = ClusterConfig {
            workload_len,
            vms_per_host: 2.0,
            seed: 42,
            ..ClusterConfig::default()
        };
        Cluster::build(dcn, &ccfg, SimConfig::paper())
    }

    #[test]
    fn build_populates_vms_within_capacity() {
        let c = small_cluster(0);
        assert!(c.placement.vm_count() > 0);
        for h in 0..c.placement.host_count() {
            let host = HostId::from_index(h);
            assert!(c.placement.used_capacity(host) <= c.placement.host_capacity(host) + 1e-9);
        }
    }

    #[test]
    fn skewed_placement_is_imbalanced() {
        let c = small_cluster(0);
        assert!(
            c.utilization_stddev() > 10.0,
            "skew should create imbalance, got {}",
            c.utilization_stddev()
        );
    }

    #[test]
    fn build_is_deterministic() {
        let a = small_cluster(0);
        let b = small_cluster(0);
        assert_eq!(a.placement.vm_count(), b.placement.vm_count());
        for vm in a.placement.vm_ids() {
            assert_eq!(a.placement.host_of(vm), b.placement.host_of(vm));
        }
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let bad = ClusterConfig {
            vm_capacity_range: (10.0, 5.0),
            ..ClusterConfig::default()
        };
        let err = Cluster::try_build(dcn.clone(), &bad, SimConfig::paper()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::SheriffError::InvalidClusterConfig {
                field: "vm_capacity_range",
                ..
            }
        ));
        let bad = ClusterConfig {
            delay_sensitive_fraction: 2.0,
            ..ClusterConfig::default()
        };
        assert!(Cluster::try_build(dcn.clone(), &bad, SimConfig::paper()).is_err());
        let ok = Cluster::try_build(dcn, &ClusterConfig::default(), SimConfig::paper());
        assert!(ok.is_ok());
    }

    #[test]
    fn fraction_alerts_targets_loaded_hosts() {
        let c = small_cluster(0);
        let alerts = c.fraction_alerts(0.05, 0);
        assert!(!alerts.is_empty());
        // alerted hosts must be at least as utilised as the cluster mean
        let mean: f64 = (0..c.placement.host_count())
            .map(|h| c.placement.utilization(HostId::from_index(h)))
            .sum::<f64>()
            / c.placement.host_count() as f64;
        for a in &alerts {
            let AlertSource::Host(h) = a.source else {
                panic!("expected host alerts");
            };
            assert!(c.placement.utilization(h) >= mean * 0.99);
        }
    }

    #[test]
    fn predicted_alerts_fire_on_hot_workloads() {
        let c = small_cluster(144);
        let alerts = c.predicted_alerts(&HoltPredictor::default(), 100);
        // synthetic CPU traces regularly exceed 0.9; some alert must fire
        // across ~32 VMs x 144 steps
        for a in &alerts {
            assert!(a.severity > c.sim.alert_threshold);
            assert!(matches!(a.source, AlertSource::Host(_)));
        }
    }

    #[test]
    fn holt_predictor_tracks_trend() {
        let p = HoltPredictor::default();
        let rising: Vec<f64> = (0..50).map(|t| 0.01 * t as f64).collect();
        let pred = p.predict_series(&rising, 1);
        assert!(
            pred >= 0.49,
            "trend extrapolation should reach the next value, got {pred}"
        );
        assert!(p.predict_series(&[], 1) == 0.0);
    }

    #[test]
    fn last_value_predictor_echoes_history() {
        let c = small_cluster(50);
        let vm = VmId(0);
        let w = &c.workloads[vm.index()];
        let p = LastValue.predict(w, 10);
        assert_eq!(p, w.at(9));
    }

    #[test]
    fn region_respects_hop_radius() {
        let c = small_cluster(0);
        let region = c.region_of(RackId(0));
        // two hops in a 4-pod fat-tree reaches only the pod peer
        assert_eq!(region, vec![RackId(1)]);
    }
}
