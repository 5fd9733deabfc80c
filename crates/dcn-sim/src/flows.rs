//! Flow model: traffic between dependent VMs routed across the wired
//! graph, per-link load accounting, and congestion detection that feeds
//! the outer-switch alerts of Alg. 1 (Sec. III-B case 3).

use dcn_topology::graph::{EdgeIdx, NodeIdx};
use dcn_topology::{Dcn, Placement, SwitchId, VmId};

/// A unidirectional traffic flow between two VMs.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Source VM.
    pub src: VmId,
    /// Destination VM.
    pub dst: VmId,
    /// Offered rate (same units as link capacity).
    pub rate: f64,
    /// Delay-sensitive flows are exempt from migration/reroute (Alg. 2).
    pub delay_sensitive: bool,
}

/// All flows plus their current routes and the induced link loads.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    flows: Vec<Flow>,
    /// `routes[f]` = the edge sequence flow `f` traverses (empty for
    /// intra-rack flows, which never leave the ToR).
    routes: Vec<Vec<EdgeIdx>>,
    /// Aggregate load per edge of the wired graph.
    link_load: Vec<f64>,
}

impl FlowNetwork {
    /// Route every flow along the current distance-shortest rack-to-rack
    /// path and accumulate link loads.
    pub fn route(dcn: &Dcn, placement: &Placement, flows: Vec<Flow>) -> Self {
        let g = &dcn.graph;
        let mut net = Self {
            routes: Vec::with_capacity(flows.len()),
            link_load: vec![0.0; g.edge_count()],
            flows,
        };
        for f in &net.flows {
            let (src_rack, dst_rack) = (placement.rack_of(f.src), placement.rack_of(f.dst));
            let route = if src_rack == dst_rack {
                Vec::new()
            } else {
                shortest_route(dcn, dcn.rack_node(src_rack), dcn.rack_node(dst_rack))
                    .unwrap_or_default()
            };
            for &e in &route {
                bump(&mut net.link_load, e, f.rate);
            }
            net.routes.push(route);
        }
        net
    }

    /// The flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// A flow's current route.
    // sheriff-lint: allow(DEAD01, "the reroute tests in dcn-sim and sheriff-core")
    pub fn route_of(&self, flow: usize) -> &[EdgeIdx] {
        self.routes.get(flow).map_or(&[], Vec::as_slice)
    }

    /// Load on one edge.
    pub fn load(&self, e: EdgeIdx) -> f64 {
        self.link_load.get(e).copied().unwrap_or(0.0)
    }

    /// Utilisation of one edge against its capacity.
    pub fn utilization(&self, dcn: &Dcn, e: EdgeIdx) -> f64 {
        self.load(e) / dcn.graph.link(e).capacity
    }

    /// Switches incident to at least one link loaded above
    /// `threshold × capacity`, with their worst incident utilisation —
    /// these raise the outer-switch alerts of Alg. 1.
    pub fn congested_switches(&self, dcn: &Dcn, threshold: f64) -> Vec<(SwitchId, f64)> {
        let g = &dcn.graph;
        let mut worst: std::collections::HashMap<SwitchId, f64> = std::collections::HashMap::new();
        for (e, &load) in self.link_load.iter().enumerate() {
            let util = load / g.link(e).capacity;
            if util > threshold {
                let (a, b) = g.endpoints(e);
                for n in [a, b] {
                    if let Some(sw) = g.node_id(n).as_switch() {
                        let cur = worst.entry(sw).or_insert(0.0);
                        if util > *cur {
                            *cur = util;
                        }
                    }
                }
            }
        }
        let mut out: Vec<_> = worst.into_iter().collect();
        out.sort_by_key(|a| a.0);
        out
    }

    /// Indices of flows whose route passes through the given switch
    /// (Alg. 1 case 1: "flows out from m passing through s").
    pub fn flows_through_switch(&self, dcn: &Dcn, sw: SwitchId) -> Vec<usize> {
        let g = &dcn.graph;
        let Some(sw_node) = g.node_idx(dcn_topology::NodeId::Switch(sw)) else {
            return Vec::new();
        };
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, route)| {
                route.iter().any(|&e| {
                    let (a, b) = g.endpoints(e);
                    a == sw_node || b == sw_node
                })
            })
            .map(|(f, _)| f)
            .collect()
    }

    /// Replace a flow's route (FLOWREROUTE). Link loads are updated.
    pub fn reroute(&mut self, flow: usize, new_route: Vec<EdgeIdx>) {
        let Some(rate) = self.flows.get(flow).map(|f| f.rate) else {
            return;
        };
        let Some(slot) = self.routes.get_mut(flow) else {
            return;
        };
        let old_route = std::mem::replace(slot, new_route);
        for &e in &old_route {
            bump(&mut self.link_load, e, -rate);
        }
        for &e in self.routes.get(flow).into_iter().flatten() {
            bump(&mut self.link_load, e, rate);
        }
    }

    /// Re-route every flow touching `vm` from its *current* placement —
    /// required after a migration moves the VM to another rack, or its
    /// old routes keep carrying phantom load. Returns how many flows were
    /// rebased.
    pub fn rebase_vm(&mut self, dcn: &Dcn, placement: &Placement, vm: VmId) -> usize {
        let mut rebased = 0;
        let racks: Vec<(usize, _, _)> = self
            .flows
            .iter()
            .enumerate()
            .filter(|(_, flow)| flow.src == vm || flow.dst == vm)
            .map(|(f, flow)| (f, placement.rack_of(flow.src), placement.rack_of(flow.dst)))
            .collect();
        for (f, src_rack, dst_rack) in racks {
            let new_route = if src_rack == dst_rack {
                Vec::new()
            } else {
                shortest_route(dcn, dcn.rack_node(src_rack), dcn.rack_node(dst_rack))
                    .unwrap_or_default()
            };
            if self.routes.get(f) != Some(&new_route) {
                self.reroute(f, new_route);
                rebased += 1;
            }
        }
        rebased
    }

    /// Aggregate ToR uplink traffic per rack: the sum of rates of flows
    /// whose source VM sits in the rack and whose route leaves it. Drives
    /// the local-ToR alerts.
    pub fn tor_uplink(&self, placement: &Placement, rack_count: usize) -> Vec<f64> {
        let mut up = vec![0.0; rack_count];
        for (flow, route) in self.flows.iter().zip(&self.routes) {
            if !route.is_empty() {
                bump(&mut up, placement.rack_of(flow.src).index(), flow.rate);
            }
        }
        up
    }
}

/// Add `delta` to `load[e]`, ignoring out-of-range edges.
fn bump(load: &mut [f64], e: usize, delta: f64) {
    if let Some(l) = load.get_mut(e) {
        *l += delta;
    }
}

/// Shortest route (by physical distance) between two graph nodes as an
/// edge list. `None` when `dst` is unreachable from `src`.
fn shortest_route(dcn: &Dcn, src: NodeIdx, dst: NodeIdx) -> Option<Vec<EdgeIdx>> {
    let g = &dcn.graph;
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_edge = vec![usize::MAX; n];
    let mut prev_node = vec![usize::MAX; n];
    let mut heap = std::collections::BinaryHeap::new();
    #[derive(PartialEq)]
    struct E(f64, NodeIdx);
    impl Eq for E {}
    impl Ord for E {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // costs are finite sums of distances, never NaN
            o.0.partial_cmp(&self.0)
                .unwrap_or(std::cmp::Ordering::Equal)
        }
    }
    impl PartialOrd for E {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    if let Some(d0) = dist.get_mut(src) {
        *d0 = 0.0;
    }
    heap.push(E(0.0, src));
    while let Some(E(d, u)) = heap.pop() {
        if dist.get(u).is_none_or(|&du| d > du) {
            continue;
        }
        if u == dst {
            break;
        }
        for &(v, e) in g.neighbors(u) {
            let nd = d + g.link(e).distance;
            let Some(dv) = dist.get_mut(v) else { continue };
            if nd < *dv {
                *dv = nd;
                if let Some(pe) = prev_edge.get_mut(v) {
                    *pe = e;
                }
                if let Some(pn) = prev_node.get_mut(v) {
                    *pn = u;
                }
                heap.push(E(nd, v));
            }
        }
    }
    if !dist.get(dst).is_some_and(|d| d.is_finite()) {
        return None;
    }
    let mut route = Vec::new();
    let mut cur = dst;
    while cur != src {
        route.push(*prev_edge.get(cur)?);
        cur = *prev_node.get(cur)?;
    }
    route.reverse();
    Some(route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::ksp::k_shortest_paths;
    use dcn_topology::path::distance_cost;
    use dcn_topology::{HostId, VmSpec};

    fn setup() -> (Dcn, Placement) {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut p = Placement::new(&dcn.inventory);
        // one VM on host 0 (rack 0), one on host 2 (rack 1), one on host 4 (rack 2)
        for h in [0usize, 2, 4] {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: 5.0,
                value: 1.0,
                delay_sensitive: false,
            };
            p.add_vm(s, HostId::from_index(h)).unwrap();
        }
        (dcn, p)
    }

    #[test]
    fn routes_and_loads() {
        let (dcn, p) = setup();
        let flows = vec![Flow {
            src: VmId(0),
            dst: VmId(1),
            rate: 0.5,
            delay_sensitive: false,
        }];
        let net = FlowNetwork::route(&dcn, &p, flows);
        let route = net.route_of(0);
        assert_eq!(route.len(), 2, "same-pod racks are 2 hops apart");
        for &e in route {
            assert_eq!(net.load(e), 0.5);
        }
    }

    #[test]
    fn intra_rack_flow_has_empty_route() {
        let (dcn, mut p) = setup();
        // second VM on host 1 (also rack 0)
        let s = VmSpec {
            id: p.next_vm_id(),
            capacity: 5.0,
            value: 1.0,
            delay_sensitive: false,
        };
        let vm = p.add_vm(s, HostId(1)).unwrap();
        let net = FlowNetwork::route(
            &dcn,
            &p,
            vec![Flow {
                src: VmId(0),
                dst: vm,
                rate: 1.0,
                delay_sensitive: false,
            }],
        );
        assert!(net.route_of(0).is_empty());
        assert_eq!(net.link_load.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn congestion_detection_names_involved_switches() {
        let (dcn, p) = setup();
        // edge links have capacity 1.0; a 0.95 flow crosses the 0.9 threshold
        let net = FlowNetwork::route(
            &dcn,
            &p,
            vec![Flow {
                src: VmId(0),
                dst: VmId(1),
                rate: 0.95,
                delay_sensitive: false,
            }],
        );
        let hot = net.congested_switches(&dcn, 0.9);
        assert!(!hot.is_empty());
        for (_, util) in &hot {
            assert!(*util > 0.9);
        }
        // the flow passes through every hot switch
        for (sw, _) in hot {
            assert_eq!(net.flows_through_switch(&dcn, sw), vec![0]);
        }
    }

    #[test]
    fn reroute_moves_load() {
        let (dcn, p) = setup();
        let mut net = FlowNetwork::route(
            &dcn,
            &p,
            vec![Flow {
                src: VmId(0),
                dst: VmId(1),
                rate: 0.8,
                delay_sensitive: false,
            }],
        );
        let old_route = net.route_of(0).to_vec();
        // avoid the first switch on the old path
        let (a, b) = dcn.graph.endpoints(old_route[0]);
        let avoid = if dcn.graph.node_id(a).is_rack() { b } else { a };
        let src = dcn.rack_node(p.rack_of(VmId(0)));
        let dst = dcn.rack_node(p.rack_of(VmId(1)));
        let new_route = k_shortest_paths(&dcn.graph, src, dst, 4, distance_cost)
            .into_iter()
            .find(|path| !path.nodes.contains(&avoid))
            .expect("alternate path exists")
            .edges(&dcn.graph);
        assert_ne!(new_route, old_route);
        net.reroute(0, new_route.clone());
        for &e in &old_route {
            assert_eq!(net.load(e), 0.0);
        }
        for &e in &new_route {
            assert_eq!(net.load(e), 0.8);
        }
    }

    #[test]
    fn tor_uplink_accumulates_outbound_only() {
        let (dcn, p) = setup();
        let net = FlowNetwork::route(
            &dcn,
            &p,
            vec![
                Flow {
                    src: VmId(0),
                    dst: VmId(1),
                    rate: 0.3,
                    delay_sensitive: false,
                },
                Flow {
                    src: VmId(0),
                    dst: VmId(2),
                    rate: 0.2,
                    delay_sensitive: false,
                },
            ],
        );
        let up = net.tor_uplink(&p, dcn.rack_count());
        assert!((up[0] - 0.5).abs() < 1e-12);
        assert_eq!(up[1], 0.0);
    }
}
