//! VL2 topology builder (Greenberg et al., SIGCOMM'09 — the paper's
//! ref. \[3\]). A Clos network: `D_A/2` intermediate switches with `D_I`
//! ports each, `D_I` aggregation switches with `D_A` ports each
//! (complete bipartite between the two layers), and `D_A·D_I/4` ToRs,
//! each dual-homed to two aggregation switches.

use crate::dcn::Dcn;
use crate::graph::NetGraph;
use crate::ids::SwitchId;
use crate::link::{Link, CORE_BANDWIDTH, CORE_DISTANCE, EDGE_BANDWIDTH, EDGE_DISTANCE};
use crate::rack::{Inventory, HOSTS_PER_RACK, HOST_CAPACITY};

/// Parameters for building a VL2 [`Dcn`].
#[derive(Debug, Clone)]
pub struct Vl2Config {
    /// Aggregation-switch port count `D_A` (even, ≥ 4).
    pub d_a: usize,
    /// Intermediate-switch port count `D_I` (even, ≥ 2).
    pub d_i: usize,
}

impl Vl2Config {
    /// Settings aligned with the other builders' paper settings.
    pub fn paper(d_a: usize, d_i: usize) -> Self {
        Self { d_a, d_i }
    }

    /// Number of ToRs/racks: `D_A · D_I / 4`.
    pub fn rack_count(&self) -> usize {
        self.d_a * self.d_i / 4
    }

    /// Number of non-ToR switches: `D_A/2` intermediate + `D_I` aggregation.
    #[cfg(test)]
    pub fn switch_count(&self) -> usize {
        self.d_a / 2 + self.d_i
    }
}

/// Build a VL2 [`Dcn`].
pub fn build(cfg: &Vl2Config) -> Dcn {
    assert!(
        cfg.d_a >= 4 && cfg.d_a.is_multiple_of(2),
        "D_A must be even and >= 4"
    );
    assert!(
        cfg.d_i >= 2 && cfg.d_i.is_multiple_of(2),
        "D_I must be even and >= 2"
    );

    let mut graph = NetGraph::new();
    let mut inventory = Inventory::new();
    let mut next_switch = 0u32;
    let mut switch = |graph: &mut NetGraph| {
        let id = SwitchId(next_switch);
        next_switch += 1;
        graph.add_switch(id)
    };

    // intermediate layer
    let ints: Vec<_> = (0..cfg.d_a / 2).map(|_| switch(&mut graph)).collect();
    // aggregation layer, complete bipartite with intermediates
    let aggs: Vec<_> = (0..cfg.d_i).map(|_| switch(&mut graph)).collect();
    for &agg in &aggs {
        for &int in &ints {
            graph.add_edge(agg, int, Link::new(CORE_BANDWIDTH, CORE_DISTANCE));
        }
    }

    // ToRs: rack i dual-homes to aggs (i mod D_I) and ((i+1) mod D_I);
    // the ring assignment gives every aggregation switch exactly D_A/2
    // ToR-facing links
    let racks = cfg.rack_count();
    let mut rack_nodes = Vec::with_capacity(racks);
    for i in 0..racks {
        let rack = inventory.add_rack(HOSTS_PER_RACK, HOST_CAPACITY);
        let node = graph.add_rack(rack);
        rack_nodes.push(node);
        let a1 = aggs[i % cfg.d_i];
        let a2 = aggs[(i + 1) % cfg.d_i];
        for agg in [a1, a2] {
            graph.add_edge(node, agg, Link::new(EDGE_BANDWIDTH, EDGE_DISTANCE));
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
    use crate::path::PathCosts;

    #[test]
    fn counts_match_formulas() {
        for (da, di) in [(4usize, 4usize), (8, 4), (8, 8), (12, 6)] {
            let cfg = Vl2Config::paper(da, di);
            let dcn = build(&cfg);
            assert_eq!(dcn.rack_count(), cfg.rack_count(), "D_A={da} D_I={di}");
            assert_eq!(
                dcn.graph.node_count() - dcn.rack_count(),
                cfg.switch_count()
            );
            // edges: complete bipartite (d_i * d_a/2) + 2 per ToR
            assert_eq!(dcn.graph.edge_count(), di * da / 2 + 2 * cfg.rack_count());
        }
    }

    #[test]
    fn tors_are_dual_homed_and_aggs_balanced() {
        let cfg = Vl2Config::paper(8, 4);
        let dcn = build(&cfg);
        for &node in &dcn.rack_nodes {
            assert_eq!(dcn.graph.degree(node), 2, "ToRs dual-home");
        }
        // every aggregation switch: D_A/2 ToR links + D_A/2 int links = D_A
        let int_count = cfg.d_a / 2;
        for idx in dcn.graph.switch_indices() {
            let sw = dcn.graph.node_id(idx).as_switch().unwrap();
            let degree = dcn.graph.degree(idx);
            if (sw.index()) < int_count {
                assert_eq!(degree, cfg.d_i, "intermediate degree");
            } else {
                assert_eq!(degree, cfg.d_a, "aggregation degree");
            }
        }
    }

    #[test]
    fn vl2_is_connected_with_short_paths() {
        let dcn = build(&Vl2Config::paper(8, 4));
        assert!(dcn.graph.is_connected());
        let hops = PathCosts::dijkstra_all(&dcn.graph, |_| 1.0);
        let racks = dcn.rack_count();
        for i in 0..racks {
            for j in 0..racks {
                if i == j {
                    continue;
                }
                let d = hops.dist(
                    dcn.rack_node(RackId::from_index(i)),
                    dcn.rack_node(RackId::from_index(j)),
                );
                // Clos: 2 hops through a shared agg or 4 through the core
                assert!(d == 2.0 || d == 4.0, "ToR distance {d}");
            }
        }
    }

    #[test]
    fn sheriff_metric_works_on_vl2() {
        // the cost metric and neighbor regions must work out of the box
        let dcn = build(&Vl2Config::paper(8, 4));
        let region = dcn.neighbor_racks(RackId(0), 2);
        assert!(!region.is_empty());
        assert!(region.len() < dcn.rack_count() - 1, "region is local");
    }

    #[test]
    #[should_panic(expected = "D_A must be even")]
    fn odd_da_rejected() {
        build(&Vl2Config::paper(5, 4));
    }
}
