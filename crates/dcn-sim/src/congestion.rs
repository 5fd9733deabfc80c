//! End-to-end congestion dynamics: per-switch QCN congestion points fed
//! by the flow network's link loads. This closes the loop of
//! Sec. III-B.2/3 — switches watch their queues, signal congestion, and
//! the shims' FLOWREROUTE drains the hotspot.

use crate::flows::FlowNetwork;
use crate::qcn::{CongestionPoint, QcnFeedback};
use dcn_topology::{Dcn, SwitchId};

/// Packets that arrive at a switch per step at 100 % worst-link
/// utilisation.
const ARRIVAL_SCALE: f64 = 40.0;

/// Utilisation a switch can service per step (queues build above this,
/// drain below).
const SERVICE_UTILIZATION: f64 = 0.85;

/// One congestion point per switch, stepped from the flow network state.
#[derive(Debug, Clone)]
pub struct CongestionSim {
    switches: Vec<SwitchId>,
    points: Vec<CongestionPoint>,
}

impl CongestionSim {
    /// A congestion point for every switch of the topology.
    pub fn new(dcn: &Dcn) -> Self {
        let switches: Vec<SwitchId> = dcn
            .graph
            .switch_indices()
            .into_iter()
            .filter_map(|i| dcn.graph.node_id(i).as_switch())
            .collect();
        let points = vec![CongestionPoint::default(); switches.len()];
        Self { switches, points }
    }

    /// Worst utilisation over a switch's incident links.
    fn switch_utilization(&self, dcn: &Dcn, flows: &FlowNetwork, sw: SwitchId) -> f64 {
        let Some(node) = dcn.graph.node_idx(dcn_topology::NodeId::Switch(sw)) else {
            return 0.0;
        };
        dcn.graph
            .neighbors(node)
            .iter()
            .map(|&(_, e)| flows.load(e) / dcn.graph.link(e).capacity)
            .fold(0.0, f64::max)
    }

    /// Advance every queue one sampling interval from the current link
    /// loads; returns the switches that raised congestion feedback.
    pub fn step(&mut self, dcn: &Dcn, flows: &FlowNetwork) -> Vec<(SwitchId, QcnFeedback)> {
        let mut out = Vec::new();
        for (i, &sw) in self.switches.iter().enumerate() {
            let u = self.switch_utilization(dcn, flows, sw);
            let arrived = ARRIVAL_SCALE * u;
            let serviced = ARRIVAL_SCALE * SERVICE_UTILIZATION;
            if let Some(fb) = self.points[i].sample(arrived, serviced) {
                out.push((sw, fb));
            }
        }
        out
    }

    /// Current queue length at a switch (0 for unknown ids).
    pub fn queue(&self, sw: SwitchId) -> f64 {
        self.switches
            .iter()
            .position(|&s| s == sw)
            .map(|i| self.points[i].queue_len())
            .unwrap_or(0.0)
    }

    /// Congestion severity of a switch in [0, 1] for alert construction.
    pub fn severity(&self, sw: SwitchId) -> f64 {
        self.switches
            .iter()
            .position(|&s| s == sw)
            .map(|i| self.points[i].severity())
            .unwrap_or(0.0)
    }

    /// The worst queue length across all switches.
    pub fn worst_queue(&self) -> f64 {
        self.points
            .iter()
            .map(CongestionPoint::queue_len)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::Flow;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::{HostId, Placement, VmId, VmSpec};

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
    fn saturated_link_builds_queue_and_signals() {
        let (dcn, _, flows) = setup(0.98);
        let mut sim = CongestionSim::new(&dcn);
        let mut signalled = false;
        for _ in 0..20 {
            signalled |= !sim.step(&dcn, &flows).is_empty();
        }
        assert!(signalled, "98% utilisation must trigger QCN feedback");
        assert!(sim.worst_queue() > 0.0);
    }

    #[test]
    fn light_load_never_signals() {
        let (dcn, _, flows) = setup(0.3);
        let mut sim = CongestionSim::new(&dcn);
        for _ in 0..20 {
            assert!(sim.step(&dcn, &flows).is_empty());
        }
        assert_eq!(sim.worst_queue(), 0.0);
    }

    #[test]
    fn queue_drains_after_reroute() {
        let (dcn, p, mut flows) = setup(0.98);
        let mut sim = CongestionSim::new(&dcn);
        for _ in 0..15 {
            sim.step(&dcn, &flows);
        }
        let peak = sim.worst_queue();
        assert!(peak > 0.0);
        // reroute the flow away from the hot switch
        let hot = flows.congested_switches(&dcn, 0.9);
        let (sw, _) = hot[0];
        let ids = flows.flows_through_switch(&dcn, sw);
        let src = dcn.rack_node(p.rack_of(VmId(0)));
        let dst = dcn.rack_node(p.rack_of(VmId(1)));
        let hot_node = dcn
            .graph
            .node_idx(dcn_topology::NodeId::Switch(sw))
            .unwrap();
        let route = dcn_topology::ksp::k_shortest_paths(
            &dcn.graph,
            src,
            dst,
            4,
            dcn_topology::path::distance_cost,
        )
        .into_iter()
        .find(|path| !path.nodes.contains(&hot_node))
        .unwrap()
        .edges;
        flows.reroute(ids[0], route);
        for _ in 0..40 {
            sim.step(&dcn, &flows);
        }
        assert!(
            sim.queue(sw) < peak,
            "queue at {sw} should drain after reroute"
        );
        assert_eq!(sim.queue(sw), 0.0, "idle switch drains completely");
    }

    #[test]
    fn severity_tracks_queue() {
        let (dcn, _, flows) = setup(0.98);
        let mut sim = CongestionSim::new(&dcn);
        for _ in 0..30 {
            sim.step(&dcn, &flows);
        }
        let hot = flows.congested_switches(&dcn, 0.9);
        let (sw, _) = hot[0];
        assert!(sim.severity(sw) > 0.0);
        assert!(sim.severity(SwitchId(9999)) == 0.0);
    }
}
