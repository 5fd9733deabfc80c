//! Property-based tests over random graphs: shortest-path algorithms
//! agree with each other, Yen's paths are sorted/loopless/distinct, and
//! topology builders keep their structural invariants.

use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::graph::NetGraph;
use dcn_topology::ids::{RackId, SwitchId};
use dcn_topology::ksp::k_shortest_paths;
use dcn_topology::link::Link;
use dcn_topology::path::{distance_cost, PathCosts};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected graph: `racks` rack nodes + `switches` switch nodes,
/// a random spanning tree plus `extra` random edges with random
/// distances.
fn random_graph(seed: u64, racks: usize, switches: usize, extra: usize) -> NetGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = NetGraph::new();
    for r in 0..racks {
        g.add_rack(RackId::from_index(r));
    }
    for s in 0..switches {
        g.add_switch(SwitchId::from_index(s));
    }
    let n = racks + switches;
    // spanning tree: connect node i to a random earlier node
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let d = rng.gen_range(0.5..5.0);
        g.add_edge(i, j, Link::new(1.0, d));
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && g.edge_between(a, b).is_none() {
            let d = rng.gen_range(0.5..5.0);
            g.add_edge(a, b, Link::new(1.0, d));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Floyd–Warshall and repeated Dijkstra compute identical APSP
    /// matrices on arbitrary connected graphs.
    #[test]
    fn apsp_algorithms_agree(seed in 0u64..500, racks in 2usize..8, switches in 1usize..6, extra in 0usize..10) {
        let g = random_graph(seed, racks, switches, extra);
        let fw = PathCosts::floyd_warshall(&g, distance_cost);
        let dj = PathCosts::dijkstra_all(&g, distance_cost);
        for a in 0..g.node_count() {
            for b in 0..g.node_count() {
                prop_assert!((fw.dist(a, b) - dj.dist(a, b)).abs() < 1e-9,
                    "mismatch at ({a},{b}): {} vs {}", fw.dist(a, b), dj.dist(a, b));
            }
        }
    }

    /// Path reconstruction always produces a valid path whose edge sum
    /// equals the reported distance.
    #[test]
    fn apsp_paths_are_consistent(seed in 0u64..500, racks in 2usize..7, extra in 0usize..8) {
        let g = random_graph(seed, racks, 2, extra);
        let p = PathCosts::dijkstra_all(&g, distance_cost);
        for a in 0..g.node_count() {
            for b in 0..g.node_count() {
                let Some(path) = p.path(a, b) else { continue };
                prop_assert_eq!(path[0], a);
                prop_assert_eq!(*path.last().unwrap(), b);
                let total: f64 = path.windows(2).map(|w| {
                    let e = g.edge_between(w[0], w[1]).expect("edge exists");
                    g.link(e).distance
                }).sum();
                prop_assert!((total - p.dist(a, b)).abs() < 1e-9);
            }
        }
    }

    /// Yen's k-shortest paths: sorted by cost, loopless, pairwise
    /// distinct, first equals the Dijkstra optimum.
    #[test]
    fn yen_paths_well_formed(seed in 0u64..500, racks in 2usize..7, extra in 2usize..10, k in 1usize..5) {
        let g = random_graph(seed, racks, 2, extra);
        let n = g.node_count();
        let (a, b) = (0, n - 1);
        let paths = k_shortest_paths(&g, a, b, k, distance_cost);
        prop_assert!(!paths.is_empty(), "connected graph must have a path");
        let apsp = PathCosts::dijkstra_all(&g, distance_cost);
        prop_assert!((paths[0].cost - apsp.dist(a, b)).abs() < 1e-9,
            "first path must be optimal");
        for w in paths.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost + 1e-9, "not sorted");
            prop_assert_ne!(&w[0].nodes, &w[1].nodes, "duplicate path");
        }
        for p in &paths {
            let set: std::collections::HashSet<_> = p.nodes.iter().collect();
            prop_assert_eq!(set.len(), p.nodes.len(), "loop in path");
        }
    }

    /// The triangle inequality holds for every APSP matrix (it is a
    /// shortest-path metric by construction).
    #[test]
    fn apsp_satisfies_triangle_inequality(seed in 0u64..300, racks in 3usize..7, extra in 0usize..8) {
        let g = random_graph(seed, racks, 2, extra);
        let p = PathCosts::dijkstra_all(&g, distance_cost);
        let n = g.node_count();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    prop_assert!(p.dist(a, c) <= p.dist(a, b) + p.dist(b, c) + 1e-9);
                }
            }
        }
    }

    /// Fat-Tree rack-to-rack hop distance is 2 within a pod and 4 across
    /// pods, for every valid pod count.
    #[test]
    fn fattree_hop_structure(k in (2usize..7).prop_map(|v| v * 2)) {
        let dcn = fattree::build(&FatTreeConfig::paper(k));
        let hops = PathCosts::dijkstra_all(&dcn.graph, |_| 1.0);
        let half = k / 2;
        let racks = dcn.rack_count();
        for i in 0..racks.min(8) {
            for j in 0..racks.min(8) {
                if i == j { continue; }
                let same_pod = i / half == j / half;
                let d = hops.dist(dcn.rack_node(RackId::from_index(i)), dcn.rack_node(RackId::from_index(j)));
                if same_pod {
                    prop_assert_eq!(d, 2.0);
                } else {
                    prop_assert_eq!(d, 4.0);
                }
            }
        }
    }
}
