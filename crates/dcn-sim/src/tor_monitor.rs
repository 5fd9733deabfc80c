//! ToR uplink monitoring and prediction (Sec. III-B.3, IV-A): "shim
//! should monitor the uplink flow rate of its local ToR proactively and
//! distinguish the possibility of uplink congestion … Using the historic
//! information about the queue length, we can predict future queue
//! length."
//!
//! Each rack's uplink utilisation (outbound flow rate over aggregate
//! uplink capacity) is recorded per round; a double-exponential forecast
//! over the history raises LocalTor pre-alerts before the uplink
//! saturates.

use crate::alert::{Alert, AlertSource};
use crate::flows::FlowNetwork;
use dcn_topology::{Dcn, Placement, RackId};

/// Rolling per-rack uplink utilisation history with prediction.
#[derive(Debug, Clone)]
pub struct TorMonitor {
    /// history\[rack\] = utilisation series, oldest first.
    history: Vec<Vec<f64>>,
    /// Aggregate uplink capacity per rack (Σ edge-link capacities).
    uplink_capacity: Vec<f64>,
    /// Keep at most this many samples per rack.
    window: usize,
    /// Holt smoothing parameters (level, trend).
    pub alpha: f64,
    /// Trend gain.
    pub beta: f64,
}

impl TorMonitor {
    /// Monitor over every rack of the topology.
    pub fn new(dcn: &Dcn, window: usize) -> Self {
        assert!(window >= 4, "need a few samples to predict");
        let uplink_capacity = (0..dcn.rack_count())
            .map(|r| {
                let node = dcn.rack_node(RackId::from_index(r));
                dcn.graph
                    .neighbors(node)
                    .iter()
                    .map(|&(_, e)| dcn.graph.link(e).capacity)
                    .sum()
            })
            .collect();
        Self {
            history: vec![Vec::new(); dcn.rack_count()],
            uplink_capacity,
            window,
            alpha: 0.4,
            beta: 0.1,
        }
    }

    /// Record this round's uplink utilisation from the flow network.
    pub fn record(&mut self, flows: &FlowNetwork, placement: &Placement) {
        let uplink = flows.tor_uplink(placement, self.history.len());
        for (r, &load) in uplink.iter().enumerate() {
            let u = if self.uplink_capacity[r] > 0.0 {
                load / self.uplink_capacity[r]
            } else {
                0.0
            };
            let h = &mut self.history[r];
            h.push(u);
            if h.len() > self.window {
                h.remove(0);
            }
        }
    }

    /// Utilisation history of one rack.
    pub fn history(&self, rack: RackId) -> &[f64] {
        &self.history[rack.index()]
    }

    /// Holt forecast of a rack's utilisation `horizon` steps out.
    pub fn predict(&self, rack: RackId, horizon: usize) -> f64 {
        let h = &self.history[rack.index()];
        if h.is_empty() {
            return 0.0;
        }
        let mut level = h[0];
        let mut trend = 0.0;
        for &y in &h[1..] {
            let prev = level;
            level = self.alpha * y + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - prev) + (1.0 - self.beta) * trend;
        }
        (level + horizon as f64 * trend).max(0.0)
    }

    /// LocalTor pre-alerts: racks whose *predicted* uplink utilisation
    /// crosses `threshold` within `horizon` steps (requires at least 4
    /// samples so the trend is meaningful).
    pub fn predicted_alerts(&self, threshold: f64, horizon: usize, t: usize) -> Vec<Alert> {
        (0..self.history.len())
            .filter(|&r| self.history[r].len() >= 4)
            .filter_map(|r| {
                let rack = RackId::from_index(r);
                let predicted = self.predict(rack, horizon);
                (predicted > threshold).then(|| Alert {
                    rack,
                    source: AlertSource::LocalTor(rack),
                    severity: predicted.min(1.0),
                    time: t,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::Flow;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::{HostId, VmId, VmSpec};

    fn setup(rate: f64) -> (Dcn, Placement, FlowNetwork) {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut p = Placement::new(&dcn.inventory);
        for h in [0usize, 2] {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: 5.0,
                value: 1.0,
                delay_sensitive: false,
            };
            p.add_vm(s, HostId::from_index(h)).unwrap();
        }
        let flows = FlowNetwork::route(
            &dcn,
            &p,
            vec![Flow {
                src: VmId(0),
                dst: VmId(1),
                rate,
                delay_sensitive: false,
            }],
        );
        (dcn, p, flows)
    }

    #[test]
    fn records_utilization_for_source_rack_only() {
        let (dcn, p, flows) = setup(1.0);
        let mut mon = TorMonitor::new(&dcn, 16);
        mon.record(&flows, &p);
        // rack 0's uplinks: 2 × capacity 1.0 -> utilisation 0.5
        assert!((mon.history(RackId(0))[0] - 0.5).abs() < 1e-12);
        assert_eq!(mon.history(RackId(1))[0], 0.0);
    }

    #[test]
    fn rising_uplink_predicts_over_threshold_before_it_happens() {
        let (dcn, mut p, _) = setup(0.2);
        let mut mon = TorMonitor::new(&dcn, 16);
        // ramp the uplink: re-route with increasing rates
        for step in 1..=8 {
            let flows = FlowNetwork::route(
                &dcn,
                &p,
                vec![Flow {
                    src: VmId(0),
                    dst: VmId(1),
                    rate: 0.2 * step as f64,
                    delay_sensitive: false,
                }],
            );
            mon.record(&flows, &p);
        }
        // current utilisation 0.8 (1.6/2.0); the 5-step trend
        // extrapolation must cross 0.9 before the actual does
        let current = *mon.history(RackId(0)).last().unwrap();
        assert!(current < 0.9, "premise: not yet saturated ({current})");
        let alerts = mon.predicted_alerts(0.9, 5, 8);
        assert!(
            alerts.iter().any(|a| a.rack == RackId(0)),
            "rising trend should pre-alert rack 0"
        );
        assert!(matches!(alerts[0].source, AlertSource::LocalTor(_)));
        let _ = &mut p;
    }

    #[test]
    fn flat_low_uplink_never_alerts() {
        let (dcn, p, flows) = setup(0.3);
        let mut mon = TorMonitor::new(&dcn, 16);
        for _ in 0..10 {
            mon.record(&flows, &p);
        }
        assert!(mon.predicted_alerts(0.9, 5, 10).is_empty());
    }

    #[test]
    fn window_bounds_history() {
        let (dcn, p, flows) = setup(0.5);
        let mut mon = TorMonitor::new(&dcn, 6);
        for _ in 0..20 {
            mon.record(&flows, &p);
        }
        assert_eq!(mon.history(RackId(0)).len(), 6);
    }

    #[test]
    fn too_few_samples_stay_silent() {
        let (dcn, p, flows) = setup(5.0); // saturating immediately
        let mut mon = TorMonitor::new(&dcn, 8);
        mon.record(&flows, &p);
        mon.record(&flows, &p);
        // only 2 samples: no alert yet even though utilisation is extreme
        assert!(mon.predicted_alerts(0.9, 2, 2).is_empty());
    }
}
