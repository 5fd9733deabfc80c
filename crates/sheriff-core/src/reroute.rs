//! FLOWREROUTE — congestion-avoiding flow rerouting (Sec. III-B case 3).
//!
//! "If v_i detects alerts from outer switch s_j, it will figure out the
//! conflict flows from a set of local VM's. Then v_i should reroute
//! portion of flows to their destinations without passing through hot
//! switches." Rerouting is cheaper and faster than live migration, so
//! shims apply it before VMMIGRATION.

use dcn_sim::flows::FlowNetwork;
use dcn_topology::{Dcn, NodeId, Placement, SwitchId};

/// Outcome of a FLOWREROUTE invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RerouteReport {
    /// Flows successfully moved off the hot switch.
    pub rerouted: usize,
    /// Flows that had no alternative path.
    pub stuck: usize,
    /// Delay-sensitive flows that were left untouched.
    pub skipped_delay_sensitive: usize,
}

/// Candidate paths FLOWREROUTE weighs per flow (Yen's k-shortest).
pub const REROUTE_PATHS: usize = 4;

/// Reroute the given flows (indices into `flows`) away from `hot`: among
/// up to [`REROUTE_PATHS`] loopless shortest paths (Yen's algorithm) that
/// avoid the hot switch, each flow takes the one that minimises the worst
/// post-reroute link utilisation. On ECMP fabrics like Fat-Tree this
/// spreads detours instead of stacking every rerouted flow onto the same
/// alternative. Delay-sensitive flows are never disturbed (Alg. 2 line 1
/// applies to reroute victims too). Returns per-category counts.
pub fn flow_reroute(
    dcn: &Dcn,
    placement: &Placement,
    flows: &mut FlowNetwork,
    hot: SwitchId,
    flow_ids: &[usize],
) -> RerouteReport {
    let mut report = RerouteReport::default();
    let Some(hot_node) = dcn.graph.node_idx(NodeId::Switch(hot)) else {
        return report;
    };
    for &f in flow_ids {
        let flow = &flows.flows()[f];
        if flow.delay_sensitive {
            report.skipped_delay_sensitive += 1;
            continue;
        }
        let rate = flow.rate;
        let src = dcn.rack_node(placement.rack_of(flow.src));
        let dst = dcn.rack_node(placement.rack_of(flow.dst));
        if src == dst {
            continue; // intra-rack flow never touches a switch
        }
        let candidates = dcn_topology::ksp::k_shortest_paths(
            &dcn.graph,
            src,
            dst,
            REROUTE_PATHS,
            dcn_topology::path::distance_cost,
        );
        // pick the candidate avoiding the hot switch with the lowest
        // worst-link utilisation after carrying this flow
        let mut best: Option<(&[dcn_topology::EdgeIdx], f64)> = None;
        for cand in &candidates {
            if cand.nodes.contains(&hot_node) {
                continue;
            }
            let worst = cand
                .edges
                .iter()
                .map(|&e| (flows.load(e) + rate) / dcn.graph.link(e).capacity)
                .fold(0.0f64, f64::max);
            if best.is_none_or(|(_, b)| worst < b) {
                best = Some((&cand.edges, worst));
            }
        }
        match best {
            Some((route, _)) => {
                flows.reroute(f, route.to_vec());
                report.rerouted += 1;
            }
            None => report.stuck += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::flows::Flow;
    use dcn_topology::bcube::{self, BCubeConfig};
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::{HostId, VmId, VmSpec};

    fn setup() -> (Dcn, Placement, FlowNetwork) {
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
                rate: 0.95,
                delay_sensitive: false,
            }],
        );
        (dcn, p, flows)
    }

    #[test]
    fn reroute_avoids_hot_switch() {
        let (dcn, p, mut flows) = setup();
        let hot = flows.congested_switches(&dcn, 0.9);
        assert!(!hot.is_empty());
        let (sw, _) = hot[0];
        let ids = flows.flows_through_switch(&dcn, sw);
        let report = flow_reroute(&dcn, &p, &mut flows, sw, &ids);
        assert_eq!(report.rerouted, ids.len());
        assert!(flows.flows_through_switch(&dcn, sw).is_empty());
    }

    #[test]
    fn delay_sensitive_flows_skipped() {
        let (dcn, p, _) = setup();
        let mut flows = FlowNetwork::route(
            &dcn,
            &p,
            vec![Flow {
                src: VmId(0),
                dst: VmId(1),
                rate: 0.95,
                delay_sensitive: true,
            }],
        );
        let hot = flows.congested_switches(&dcn, 0.9);
        let (sw, _) = hot[0];
        let ids = flows.flows_through_switch(&dcn, sw);
        let report = flow_reroute(&dcn, &p, &mut flows, sw, &ids);
        assert_eq!(report.rerouted, 0);
        assert_eq!(report.skipped_delay_sensitive, 1);
        // route untouched
        assert!(!flows.flows_through_switch(&dcn, sw).is_empty());
    }

    #[test]
    fn balanced_reroute_spreads_across_paths() {
        // two parallel hot flows between the same pod pair: the balanced
        // reroute should not stack both onto one alternative path
        let dcn = fattree::build(&FatTreeConfig::paper(8));
        let mut p = Placement::new(&dcn.inventory);
        for h in [0usize, 4] {
            for _ in 0..2 {
                let s = VmSpec {
                    id: p.next_vm_id(),
                    capacity: 5.0,
                    value: 1.0,
                    delay_sensitive: false,
                };
                p.add_vm(s, HostId::from_index(h)).unwrap();
            }
        }
        let mk = |src, dst| Flow {
            src,
            dst,
            rate: 0.45,
            delay_sensitive: false,
        };
        let mut flows =
            FlowNetwork::route(&dcn, &p, vec![mk(VmId(0), VmId(2)), mk(VmId(1), VmId(3))]);
        // both flows share the single distance-shortest route initially
        assert_eq!(flows.route_of(0), flows.route_of(1));
        let hot_sw = {
            let (a, b) = dcn.graph.endpoints(flows.route_of(0)[0]);
            let node = if dcn.graph.node_id(a).is_rack() { b } else { a };
            dcn.graph.node_id(node).as_switch().unwrap()
        };
        let report = flow_reroute(&dcn, &p, &mut flows, hot_sw, &[0, 1]);
        assert_eq!(report.rerouted, 2);
        // after balancing, the two flows take different first hops
        assert_ne!(flows.route_of(0)[0], flows.route_of(1)[0]);
        // and neither passes the hot switch
        assert!(flows.flows_through_switch(&dcn, hot_sw).is_empty());
    }

    #[test]
    fn balanced_reroute_reduces_worst_link_load() {
        let (dcn, p, mut flows) = setup();
        let hot = flows.congested_switches(&dcn, 0.9);
        let (sw, _) = hot[0];
        let ids = flows.flows_through_switch(&dcn, sw);
        let worst_before: f64 = (0..dcn.graph.edge_count())
            .map(|e| flows.load(e) / dcn.graph.link(e).capacity)
            .fold(0.0, f64::max);
        let report = flow_reroute(&dcn, &p, &mut flows, sw, &ids);
        assert_eq!(report.rerouted, ids.len());
        let worst_after: f64 = (0..dcn.graph.edge_count())
            .map(|e| flows.load(e) / dcn.graph.link(e).capacity)
            .fold(0.0, f64::max);
        assert!(worst_after <= worst_before + 1e-9);
    }

    #[test]
    fn stuck_when_no_alternative_exists() {
        // BCube(2,0) is a single switch connecting two servers: no detour
        let dcn = bcube::build(&BCubeConfig {
            k: 0,
            ..BCubeConfig::paper(2)
        });
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
        let mut flows = FlowNetwork::route(
            &dcn,
            &p,
            vec![Flow {
                src: VmId(0),
                dst: VmId(1),
                rate: 0.95,
                delay_sensitive: false,
            }],
        );
        let sw = SwitchId(0);
        let ids = flows.flows_through_switch(&dcn, sw);
        assert_eq!(ids.len(), 1);
        let report = flow_reroute(&dcn, &p, &mut flows, sw, &ids);
        assert_eq!(report.stuck, 1);
        assert_eq!(report.rerouted, 0);
    }
}
