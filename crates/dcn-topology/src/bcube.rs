//! BCube topology builder (Sec. VI-B; Guo et al., SIGCOMM'09).
//!
//! BCube(n, k) is server-centric: `n^(k+1)` servers, each with `k+1` ports,
//! and `k+1` levels of `n^k` switches. A server is labelled by digits
//! `(a_k, …, a_0)` with `a_i ∈ [0, n)`; the level-`l` switch identified by
//! the label with digit `l` removed connects the `n` servers that differ
//! only in digit `l`.
//!
//! Sheriff's delegation unit is the rack/ToR; in a server-centric BCube
//! each *server* plays that role, so every BCube server becomes one rack
//! whose [`HOSTS_PER_RACK`] hosts model the VMs' physical machines. The
//! paper sweeps "the number of the switches each level of Bcube ... from 8
//! to 48", i.e. BCube(n, 1) with n = 8..48.

use crate::dcn::Dcn;
use crate::graph::NetGraph;
use crate::ids::SwitchId;
use crate::link::{Link, EDGE_BANDWIDTH, EDGE_DISTANCE, LEVEL_DISTANCE};
use crate::rack::{Inventory, HOSTS_PER_RACK, HOST_CAPACITY};

/// Parameters for building a BCube [`Dcn`].
#[derive(Debug, Clone)]
pub struct BCubeConfig {
    /// Switch port count `n` (servers per BCube₀ group); ≥ 2.
    pub n: usize,
    /// Highest level `k` (BCube(n, 1) has two switch levels).
    pub k: usize,
}

impl BCubeConfig {
    /// The paper's simulation settings for BCube(n, 1).
    pub fn paper(n: usize) -> Self {
        Self { n, k: 1 }
    }

    /// Number of servers (= racks in our mapping): `n^(k+1)`.
    pub fn server_count(&self) -> usize {
        self.n.pow(self.k as u32 + 1)
    }

    /// Number of switches: `(k+1) · n^k`.
    #[cfg(test)]
    pub fn switch_count(&self) -> usize {
        (self.k + 1) * self.n.pow(self.k as u32)
    }
}

/// Build a BCube [`Dcn`] from a config.
pub fn build(cfg: &BCubeConfig) -> Dcn {
    assert!(cfg.n >= 2, "BCube needs n >= 2");
    let n = cfg.n;
    let levels = cfg.k + 1;
    let servers = cfg.server_count();
    let per_level = n.pow(cfg.k as u32);

    let mut graph = NetGraph::new();
    let mut inventory = Inventory::new();
    let mut rack_nodes = Vec::with_capacity(servers);

    // server-racks first: server s has digits base-n
    for _ in 0..servers {
        let rack = inventory.add_rack(HOSTS_PER_RACK, HOST_CAPACITY);
        rack_nodes.push(graph.add_rack(rack));
    }

    // switches: level l, group g (g = server label with digit l removed)
    let mut next_switch = 0u32;
    for level in 0..levels {
        let distance = EDGE_DISTANCE + LEVEL_DISTANCE * level as f64;
        for group in 0..per_level {
            let sw = graph.add_switch(SwitchId(next_switch));
            next_switch += 1;
            // reinsert digit `level` into `group` to enumerate members
            let low_base = n.pow(level as u32);
            let low = group % low_base;
            let high = group / low_base;
            for digit in 0..n {
                let server = high * low_base * n + digit * low_base + low;
                graph.add_edge(rack_nodes[server], sw, Link::new(EDGE_BANDWIDTH, distance));
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
    fn bcube_4_1_counts() {
        let cfg = BCubeConfig::paper(4);
        let dcn = build(&cfg);
        assert_eq!(dcn.rack_count(), 16); // n² servers
        assert_eq!(dcn.graph.node_count(), 16 + 8); // + 2 levels × 4 switches
        assert_eq!(dcn.graph.edge_count(), 32); // each server has k+1 = 2 ports
    }

    #[test]
    fn counts_match_formulas() {
        for (n, k) in [(2usize, 1usize), (3, 1), (4, 2), (8, 1)] {
            let cfg = BCubeConfig {
                k,
                ..BCubeConfig::paper(n)
            };
            let dcn = build(&cfg);
            assert_eq!(dcn.rack_count(), cfg.server_count(), "n={n} k={k}");
            assert_eq!(
                dcn.graph.node_count() - dcn.rack_count(),
                cfg.switch_count(),
                "n={n} k={k}"
            );
            // every server has exactly k+1 ports
            for &node in &dcn.rack_nodes {
                assert_eq!(dcn.graph.degree(node), k + 1);
            }
        }
    }

    #[test]
    fn bcube_is_connected() {
        for n in [2usize, 4, 8] {
            let dcn = build(&BCubeConfig::paper(n));
            assert!(dcn.graph.is_connected(), "n={n}");
        }
    }

    #[test]
    fn switch_degree_is_n() {
        let cfg = BCubeConfig::paper(4);
        let dcn = build(&cfg);
        for idx in dcn.graph.switch_indices() {
            assert_eq!(dcn.graph.degree(idx), 4);
        }
    }

    #[test]
    fn same_group_two_hops_apart() {
        // In BCube(4,1), servers 0 and 1 share a level-0 switch:
        // distance = 1 + 1 = 2 via level-0 (distance 1 each side).
        let dcn = build(&BCubeConfig::paper(4));
        let p = PathCosts::dijkstra_all(&dcn.graph, distance_cost);
        let d01 = p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(1)));
        assert!((d01 - 2.0).abs() < 1e-12);
        // servers 0 and 4 differ in digit 1 → level-1 switch, distance 2 each side
        let d04 = p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(4)));
        assert!((d04 - 4.0).abs() < 1e-12);
        // servers 0 and 5 differ in both digits → two hops through servers
        let d05 = p.dist(dcn.rack_node(RackId(0)), dcn.rack_node(RackId(5)));
        assert!(d05 > d04);
    }

    #[test]
    fn level_groups_partition_servers() {
        // every server appears in exactly one group per level
        let cfg = BCubeConfig::paper(3);
        let dcn = build(&cfg);
        // count edges per server per level by distance (level encoded in distance)
        for &node in &dcn.rack_nodes {
            let mut dists: Vec<f64> = dcn
                .graph
                .neighbors(node)
                .iter()
                .map(|&(_, e)| dcn.graph.link(e).distance)
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(dists, vec![1.0, 2.0]);
        }
    }
}
