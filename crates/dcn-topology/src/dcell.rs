//! DCell topology builder (Guo et al., SIGCOMM'08) — the third topology
//! family, exercising Sec. II-A's claim that Sheriff "can be easily
//! implemented in other DCN topologies". DCell is recursively defined and
//! server-centric like BCube but wires servers *directly to each other*
//! across sub-cells, so the delegation graph contains server–server edges
//! in addition to server–switch edges.
//!
//! DCell₀(n) is `n` servers on one mini-switch. DCell_k is built from
//! `g_k = t_{k−1} + 1` copies of DCell_{k−1} (where `t_{k−1}` is the
//! number of servers in a DCell_{k−1}); server `j` of sub-cell `i` links
//! to server `i` of sub-cell `j + 1` for `i ≤ j` (the classical
//! construction pairing each server with exactly one level-k link).

use crate::dcn::Dcn;
use crate::graph::{NetGraph, NodeIdx};
use crate::ids::SwitchId;
use crate::link::{Link, EDGE_BANDWIDTH, EDGE_DISTANCE, LEVEL_DISTANCE};
use crate::rack::{Inventory, HOSTS_PER_RACK, HOST_CAPACITY};

/// Parameters for building a DCell [`Dcn`].
#[derive(Debug, Clone)]
pub struct DCellConfig {
    /// Servers per DCell₀ (mini-switch port count); ≥ 2.
    pub n: usize,
    /// Recursion level `k` (0 = just a DCell₀).
    pub k: usize,
}

impl DCellConfig {
    /// Settings aligned with the other topologies' paper settings.
    pub fn paper(n: usize, k: usize) -> Self {
        Self { n, k }
    }

    /// Number of servers `t_k` in a DCell of level `k`.
    pub fn server_count(&self) -> usize {
        t_k(self.n, self.k)
    }

    /// Number of mini-switches (one per DCell₀).
    #[cfg(test)]
    pub fn switch_count(&self) -> usize {
        self.server_count() / self.n
    }
}

/// `t_k`: servers in a DCell_k. `t_0 = n`, `t_k = t_{k−1} · (t_{k−1} + 1)`.
pub fn t_k(n: usize, k: usize) -> usize {
    let mut t = n;
    for _ in 0..k {
        t *= t + 1;
    }
    t
}

/// Build a DCell [`Dcn`].
pub fn build(cfg: &DCellConfig) -> Dcn {
    assert!(cfg.n >= 2, "DCell needs n >= 2");
    assert!(
        cfg.k <= 2,
        "t_k explodes double-exponentially; k <= 2 covers 10^5+ servers"
    );
    let servers = cfg.server_count();

    let mut graph = NetGraph::new();
    let mut inventory = Inventory::new();
    let mut rack_nodes: Vec<NodeIdx> = Vec::with_capacity(servers);
    for _ in 0..servers {
        let rack = inventory.add_rack(HOSTS_PER_RACK, HOST_CAPACITY);
        rack_nodes.push(graph.add_rack(rack));
    }

    // level-0 mini-switches: consecutive groups of n servers
    // (switch ids continue across levels, hence the explicit counter)
    let mut next_switch = 0u32;
    #[allow(clippy::explicit_counter_loop)]
    for cell0 in 0..servers / cfg.n {
        let sw = graph.add_switch(SwitchId(next_switch));
        next_switch += 1;
        for j in 0..cfg.n {
            graph.add_edge(
                rack_nodes[cell0 * cfg.n + j],
                sw,
                Link::new(EDGE_BANDWIDTH, EDGE_DISTANCE),
            );
        }
    }

    // recursive level-l links: within each DCell_l (a block of t_l
    // servers), connect its g_l = t_{l-1}+1 sub-cells pairwise
    for level in 1..=cfg.k {
        let t_prev = t_k(cfg.n, level - 1);
        let t_cur = t_k(cfg.n, level);
        let distance = EDGE_DISTANCE + LEVEL_DISTANCE * level as f64;
        for block in 0..servers / t_cur {
            let base = block * t_cur;
            // sub-cell i, server j ↔ sub-cell j+1, server i (i <= j)
            let g = t_prev + 1;
            for i in 0..g {
                for j in i..g - 1 {
                    let a = base + i * t_prev + j;
                    let b = base + (j + 1) * t_prev + i;
                    graph.add_edge(
                        rack_nodes[a],
                        rack_nodes[b],
                        Link::new(EDGE_BANDWIDTH, distance),
                    );
                }
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
    fn t_k_formula() {
        assert_eq!(t_k(4, 0), 4);
        assert_eq!(t_k(4, 1), 20);
        assert_eq!(t_k(4, 2), 420);
        assert_eq!(t_k(2, 1), 6);
        assert_eq!(t_k(3, 1), 12);
    }

    #[test]
    fn dcell0_is_a_star() {
        let dcn = build(&DCellConfig::paper(4, 0));
        assert_eq!(dcn.rack_count(), 4);
        assert_eq!(dcn.graph.node_count(), 5);
        assert_eq!(dcn.graph.edge_count(), 4);
        assert!(dcn.graph.is_connected());
    }

    #[test]
    fn dcell1_counts_and_degrees() {
        // DCell1(4): 20 servers, 5 mini-switches, each server exactly one
        // level-1 link -> 10 level-1 edges + 20 level-0 edges
        let dcn = build(&DCellConfig::paper(4, 1));
        assert_eq!(dcn.rack_count(), 20);
        assert_eq!(dcn.graph.edge_count(), 30);
        for &node in &dcn.rack_nodes {
            assert_eq!(dcn.graph.degree(node), 2, "server = 1 switch + 1 peer link");
        }
        assert!(dcn.graph.is_connected());
    }

    #[test]
    fn dcell1_counts_for_various_n() {
        for n in [2usize, 3, 5, 6] {
            let cfg = DCellConfig::paper(n, 1);
            let dcn = build(&cfg);
            assert_eq!(dcn.rack_count(), cfg.server_count(), "n={n}");
            assert_eq!(
                dcn.graph.node_count() - dcn.rack_count(),
                cfg.switch_count(),
                "n={n}"
            );
            assert!(dcn.graph.is_connected(), "n={n}");
        }
    }

    #[test]
    fn dcell2_is_connected() {
        // DCell2(2): t_1 = 6, t_2 = 42 servers
        let dcn = build(&DCellConfig::paper(2, 2));
        assert_eq!(dcn.rack_count(), 42);
        assert!(dcn.graph.is_connected());
        // every server has one level-0 port plus one port per level
        for &node in &dcn.rack_nodes {
            assert!(dcn.graph.degree(node) >= 2 && dcn.graph.degree(node) <= 3);
        }
    }

    #[test]
    fn cross_cell_paths_exist_and_are_short() {
        let dcn = build(&DCellConfig::paper(4, 1));
        let p = PathCosts::dijkstra_all(&dcn.graph, distance_cost);
        // same DCell0: 2 hops through the mini-switch
        assert!((p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(1))) - 2.0).abs() < 1e-12);
        // different DCell0s: reachable within a few hops (DCell1 diameter is small)
        let d = p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(19)));
        assert!(d.is_finite() && d <= 8.0, "cross-cell distance {d}");
    }

    #[test]
    #[should_panic(expected = "k <= 2")]
    fn deep_recursion_rejected() {
        build(&DCellConfig::paper(2, 3));
    }
}
