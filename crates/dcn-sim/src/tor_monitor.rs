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
use crate::engine::HoltPredictor;
use crate::flows::FlowNetwork;
use dcn_topology::{Dcn, Placement, RackId};

/// Samples of uplink utilisation kept per rack.
const TOR_WINDOW: usize = 32;

/// Steps ahead the LocalTor pre-alert forecasts.
const TOR_HORIZON: usize = 3;

/// The Holt smoother of the uplink forecast: level gain 0.4, trend gain
/// 0.1.
const TOR_HOLT: HoltPredictor = HoltPredictor {
    alpha: 0.4,
    beta: 0.1,
};

/// Rolling per-rack uplink utilisation history with prediction.
#[derive(Debug, Clone)]
pub struct TorMonitor {
    /// history\[rack\] = utilisation series, oldest first.
    history: Vec<Vec<f64>>,
    /// Aggregate uplink capacity per rack (Σ edge-link capacities).
    uplink_capacity: Vec<f64>,
}

impl TorMonitor {
    /// Monitor over every rack of the topology, keeping the last
    /// `TOR_WINDOW` (32) samples of each.
    pub fn new(dcn: &Dcn) -> Self {
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
            if h.len() > TOR_WINDOW {
                h.remove(0);
            }
        }
    }

    /// Utilisation history of one rack.
    pub fn history(&self, rack: RackId) -> &[f64] {
        &self.history[rack.index()]
    }

    /// Holt forecast of a rack's utilisation `TOR_HORIZON` (3) steps out.
    /// Unlike a VM profile forecast it is not capped at 1: an uplink can
    /// be asked to carry more than its capacity.
    fn predict(&self, rack: RackId) -> f64 {
        let (level, trend) = TOR_HOLT.smooth(&self.history[rack.index()]);
        (level + TOR_HORIZON as f64 * trend).max(0.0)
    }

    /// LocalTor pre-alerts: racks whose *predicted* uplink utilisation
    /// crosses `threshold` within `TOR_HORIZON` steps (requires at least
    /// 4 samples so the trend is meaningful).
    pub fn predicted_alerts(&self, threshold: f64, t: usize) -> Vec<Alert> {
        (0..self.history.len())
            .filter(|&r| self.history[r].len() >= 4)
            .filter_map(|r| {
                let rack = RackId::from_index(r);
                let predicted = self.predict(rack);
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
        let mut mon = TorMonitor::new(&dcn);
        mon.record(&flows, &p);
        // rack 0's uplinks: 2 × capacity 1.0 -> utilisation 0.5
        assert!((mon.history(RackId(0))[0] - 0.5).abs() < 1e-12);
        assert_eq!(mon.history(RackId(1))[0], 0.0);
    }

    #[test]
    fn rising_uplink_predicts_over_threshold_before_it_happens() {
        let (dcn, mut p, _) = setup(0.2);
        let mut mon = TorMonitor::new(&dcn);
        // ramp the uplink from 0.19 to 0.89: re-route with increasing rates
        for step in 1..=8 {
            let flows = FlowNetwork::route(
                &dcn,
                &p,
                vec![Flow {
                    src: VmId(0),
                    dst: VmId(1),
                    rate: 0.18 + 0.2 * step as f64,
                    delay_sensitive: false,
                }],
            );
            mon.record(&flows, &p);
        }
        // current utilisation 0.89 (1.78/2.0); the 3-step trend
        // extrapolation must cross 0.9 before the actual does
        let current = *mon.history(RackId(0)).last().unwrap();
        assert!(current < 0.9, "premise: not yet saturated ({current})");
        let alerts = mon.predicted_alerts(0.9, 8);
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
        let mut mon = TorMonitor::new(&dcn);
        for _ in 0..10 {
            mon.record(&flows, &p);
        }
        assert!(mon.predicted_alerts(0.9, 10).is_empty());
    }

    #[test]
    fn window_bounds_history() {
        let (dcn, p, flows) = setup(0.5);
        let mut mon = TorMonitor::new(&dcn);
        for _ in 0..TOR_WINDOW + 8 {
            mon.record(&flows, &p);
        }
        assert_eq!(mon.history(RackId(0)).len(), TOR_WINDOW);
    }

    #[test]
    fn too_few_samples_stay_silent() {
        let (dcn, p, flows) = setup(5.0); // saturating immediately
        let mut mon = TorMonitor::new(&dcn);
        mon.record(&flows, &p);
        mon.record(&flows, &p);
        // only 2 samples: no alert yet even though utilisation is extreme
        assert!(mon.predicted_alerts(0.9, 2).is_empty());
    }
}
