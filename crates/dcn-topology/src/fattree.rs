//! Fat-Tree topology builder (Sec. II, Fig. 1; Al-Fares et al. \[27\]).
//!
//! A `k`-pod Fat-Tree has `(k/2)²` core switches and `k` pods, each with
//! `k/2` aggregation switches and `k/2` edge (ToR) switches. Every ToR is a
//! rack/delegation node holding `hosts_per_rack` servers (classically
//! `k/2`). Edge switch ↔ every aggregation switch of its pod; aggregation
//! switch `j` of every pod ↔ core switches `j·k/2 … (j+1)·k/2 − 1`.

use crate::dcn::Dcn;
use crate::graph::NetGraph;
use crate::ids::SwitchId;
use crate::link::{Link, CORE_BANDWIDTH, CORE_DISTANCE, EDGE_BANDWIDTH, EDGE_DISTANCE};
use crate::rack::{Inventory, HOST_CAPACITY};

/// Parameters for building a Fat-Tree [`Dcn`].
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// Number of pods `k`; must be even and ≥ 2.
    pub pods: usize,
    /// Servers per rack (the paper's facility settings describe ~40; the
    /// classical Fat-Tree uses `k/2`).
    pub hosts_per_rack: usize,
    /// Per-host resource capacity (normalised units).
    pub host_capacity: f64,
}

impl FatTreeConfig {
    /// The paper's simulation settings (Sec. VI-B) for a `k`-pod tree.
    pub fn paper(pods: usize) -> Self {
        Self {
            pods,
            hosts_per_rack: pods / 2,
            host_capacity: HOST_CAPACITY,
        }
    }

    /// Expected number of racks: `k²/2`.
    pub fn rack_count(&self) -> usize {
        self.pods * self.pods / 2
    }

    /// Expected number of non-ToR switches: `k²/4` core + `k²/2` agg.
    #[cfg(test)]
    pub fn switch_count(&self) -> usize {
        self.pods * self.pods / 4 + self.pods * self.pods / 2
    }

    /// Expected number of hosts.
    pub fn host_count(&self) -> usize {
        self.rack_count() * self.hosts_per_rack
    }
}

/// Build a Fat-Tree [`Dcn`] from a config.
pub fn build(cfg: &FatTreeConfig) -> Dcn {
    assert!(
        cfg.pods >= 2 && cfg.pods.is_multiple_of(2),
        "pods must be even and >= 2"
    );
    let k = cfg.pods;
    let half = k / 2;

    let mut graph = NetGraph::new();
    let mut inventory = Inventory::new();
    let mut rack_nodes = Vec::with_capacity(cfg.rack_count());
    let mut next_switch = 0u32;
    let mut switch = |graph: &mut NetGraph| {
        let id = SwitchId(next_switch);
        next_switch += 1;
        graph.add_switch(id)
    };

    // core switches, indexed [j][i] with j = which agg column, i = 0..half
    let mut cores = Vec::with_capacity(half * half);
    for _ in 0..half * half {
        cores.push(switch(&mut graph));
    }

    for _pod in 0..k {
        // aggregation switches of this pod
        let aggs: Vec<_> = (0..half).map(|_| switch(&mut graph)).collect();
        // ToR/rack nodes of this pod
        for _ in 0..half {
            let rack = inventory.add_rack(cfg.hosts_per_rack, cfg.host_capacity);
            let node = graph.add_rack(rack);
            rack_nodes.push(node);
            for &agg in &aggs {
                graph.add_edge(node, agg, Link::new(EDGE_BANDWIDTH, EDGE_DISTANCE));
            }
        }
        // agg j connects to core group j
        for (j, &agg) in aggs.iter().enumerate() {
            for i in 0..half {
                graph.add_edge(
                    agg,
                    cores[j * half + i],
                    Link::new(CORE_BANDWIDTH, CORE_DISTANCE),
                );
            }
        }
    }

    Dcn {
        graph,
        inventory,
        rack_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RackId;
    use crate::path::{distance_cost, PathCosts};

    #[test]
    fn four_pod_counts() {
        let cfg = FatTreeConfig::paper(4);
        let dcn = build(&cfg);
        // racks = k²/2 = 8, switches = k²/4 + k²/2 = 4 + 8 = 12
        assert_eq!(dcn.rack_count(), 8);
        assert_eq!(dcn.graph.node_count(), 8 + 12);
        assert_eq!(dcn.inventory.host_count(), 8 * 2);
        // edges: racks*half (8*2=16) + pods*half*half (4*2*2=16)
        assert_eq!(dcn.graph.edge_count(), 32);
    }

    #[test]
    fn counts_match_config_formulas() {
        for k in [2usize, 4, 8, 16] {
            let cfg = FatTreeConfig::paper(k);
            let dcn = build(&cfg);
            assert_eq!(dcn.rack_count(), cfg.rack_count(), "k={k}");
            assert_eq!(
                dcn.graph.node_count(),
                cfg.rack_count() + cfg.switch_count(),
                "k={k}"
            );
            assert_eq!(dcn.inventory.host_count(), cfg.host_count(), "k={k}");
        }
    }

    #[test]
    fn fat_tree_is_connected() {
        for k in [2usize, 4, 8] {
            let dcn = build(&FatTreeConfig::paper(k));
            assert!(dcn.graph.is_connected(), "k={k}");
        }
    }

    #[test]
    fn rack_degree_is_half_k() {
        let k = 8;
        let dcn = build(&FatTreeConfig::paper(k));
        for &node in &dcn.rack_nodes {
            assert_eq!(dcn.graph.degree(node), k / 2);
        }
    }

    #[test]
    fn intra_pod_cheaper_than_cross_pod() {
        let dcn = build(&FatTreeConfig::paper(4));
        let p = PathCosts::dijkstra_all(&dcn.graph, distance_cost);
        // racks 0,1 share pod 0; rack 2 is in pod 1
        let same_pod = p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(1)));
        let cross_pod = p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(2)));
        assert!(same_pod < cross_pod);
    }

    #[test]
    fn neighbor_racks_two_hops_is_pod() {
        let k = 4;
        let dcn = build(&FatTreeConfig::paper(k));
        // two hops (rack -> agg -> rack) reaches exactly the pod peers
        let nb = dcn.neighbor_racks(RackId(0), 2);
        assert_eq!(nb, vec![RackId(1)]);
        // four hops reaches every rack
        let nb4 = dcn.neighbor_racks(RackId(0), 4);
        assert_eq!(nb4.len(), dcn.rack_count() - 1);
    }

    #[test]
    #[should_panic(expected = "pods must be even")]
    fn odd_pods_rejected() {
        build(&FatTreeConfig::paper(3));
    }
}
