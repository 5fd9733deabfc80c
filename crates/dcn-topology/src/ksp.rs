//! Yen's k-shortest loopless paths. Fat-Tree and BCube are deliberately
//! multipath; FLOWREROUTE benefits from choosing among several disjoint
//! detours (ECMP-style) instead of only the single shortest one, and the
//! congestion-aware reroute picks the least-loaded of the k candidates.

use crate::graph::{EdgeIdx, NetGraph, NodeIdx};
use crate::link::Link;
use crate::path::{dijkstra, walk_back};

/// A path as node sequence, the edges its search crossed, and its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Node sequence, inclusive of both endpoints.
    pub nodes: Vec<NodeIdx>,
    /// The edge indices along the path, in path order.
    pub edges: Vec<EdgeIdx>,
    /// Total edge cost.
    pub cost: f64,
}

/// The cheapest `src` → `dst` path over the edges not `banned`, or
/// `None` when `dst` is unreachable.
fn shortest(
    g: &NetGraph,
    src: NodeIdx,
    dst: NodeIdx,
    edge_cost: &impl Fn(&Link) -> f64,
    banned: &[bool],
) -> Option<Path> {
    let (dist, prev) = dijkstra(g, src, Some(dst), |e, l| {
        (banned.get(e) == Some(&false)).then(|| edge_cost(l))
    });
    let cost = *dist.get(dst)?;
    if !cost.is_finite() {
        return None;
    }
    let (mut edges, mut nodes): (Vec<EdgeIdx>, Vec<NodeIdx>) = walk_back(g, &prev, dst).unzip();
    edges.reverse();
    nodes.reverse();
    nodes.push(dst);
    Some(Path { nodes, edges, cost })
}

/// Yen's algorithm: up to `k` loopless shortest paths from `src` to
/// `dst`, sorted by cost. Fewer than `k` are returned when the graph
/// doesn't have that many distinct paths.
pub fn k_shortest_paths(
    g: &NetGraph,
    src: NodeIdx,
    dst: NodeIdx,
    k: usize,
    edge_cost: impl Fn(&Link) -> f64,
) -> Vec<Path> {
    assert!(k >= 1, "k must be positive");
    let mut banned = vec![false; g.edge_count()];

    let Some(first) = shortest(g, src, dst, &edge_cost, &banned) else {
        return Vec::new();
    };
    let mut found = vec![first];
    let mut candidates: Vec<Path> = Vec::new();

    for _ in 1..k {
        let last = found.last().expect("at least the first path").clone();
        // branch at every spur node of the previous path
        for (spur_idx, &spur_node) in last.nodes.iter().enumerate().take(last.edges.len()) {
            let root = &last.nodes[..=spur_idx];
            banned.fill(false);
            let mut ban = |e: EdgeIdx| {
                if let Some(b) = banned.get_mut(e) {
                    *b = true;
                }
            };
            // ban edges used by previous paths that share this root
            for p in &found {
                if p.nodes.get(..=spur_idx) == Some(root) {
                    if let Some(&e) = p.edges.get(spur_idx) {
                        ban(e);
                    }
                }
            }
            // ban root nodes (except the spur) to keep paths loopless:
            // refusing every edge at a node keeps the search out of it
            for &n in &root[..spur_idx] {
                g.neighbors(n).iter().for_each(|&(_, e)| ban(e));
            }

            if let Some(spur) = shortest(g, spur_node, dst, &edge_cost, &banned) {
                let mut nodes = root[..spur_idx].to_vec();
                nodes.extend(spur.nodes);
                let mut edges = last.edges[..spur_idx].to_vec();
                edges.extend(spur.edges);
                let cost: f64 = edges.iter().map(|&e| edge_cost(g.link(e))).sum();
                let cand = Path { nodes, edges, cost };
                if !found.contains(&cand) && !candidates.contains(&cand) {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // take the cheapest candidate
        let (best_idx, _) = candidates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).expect("no NaN"))
            .expect("non-empty");
        found.push(candidates.swap_remove(best_idx));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::{self, FatTreeConfig};
    use crate::ids::RackId;
    use crate::path::distance_cost;

    #[test]
    fn finds_all_equal_cost_paths_in_fattree() {
        // same-pod racks in a 4-pod fat-tree have exactly k/2 = 2 disjoint
        // 2-hop paths (one per aggregation switch)
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let src = dcn.rack_node(RackId(0));
        let dst = dcn.rack_node(RackId(1));
        let paths = k_shortest_paths(&dcn.graph, src, dst, 4, distance_cost);
        assert!(paths.len() >= 2, "expected >= 2 paths, got {}", paths.len());
        assert!((paths[0].cost - 2.0).abs() < 1e-12);
        assert!((paths[1].cost - 2.0).abs() < 1e-12);
        // middle hops must differ (different agg switches)
        assert_ne!(paths[0].nodes[1], paths[1].nodes[1]);
    }

    #[test]
    fn paths_are_sorted_and_loopless() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let src = dcn.rack_node(RackId(0));
        let dst = dcn.rack_node(RackId(4)); // cross-pod
        let paths = k_shortest_paths(&dcn.graph, src, dst, 6, distance_cost);
        assert!(!paths.is_empty());
        for w in paths.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-12, "not sorted");
        }
        for p in &paths {
            let set: std::collections::HashSet<_> = p.nodes.iter().collect();
            assert_eq!(set.len(), p.nodes.len(), "loop in path {:?}", p.nodes);
            assert_eq!(p.nodes[0], src);
            assert_eq!(*p.nodes.last().unwrap(), dst);
        }
    }

    #[test]
    fn cost_matches_edge_sum() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let src = dcn.rack_node(RackId(0));
        let dst = dcn.rack_node(RackId(2));
        for p in k_shortest_paths(&dcn.graph, src, dst, 3, distance_cost) {
            let sum: f64 = p.edges.iter().map(|&e| dcn.graph.link(e).distance).sum();
            assert!((sum - p.cost).abs() < 1e-9);
        }
    }

    #[test]
    fn k_larger_than_path_count_is_fine() {
        // a DCell0 star has exactly one path between any two servers
        let dcn = crate::dcell::build(&crate::dcell::DCellConfig::paper(3, 0));
        let paths = k_shortest_paths(
            &dcn.graph,
            dcn.rack_node(RackId(0)),
            dcn.rack_node(RackId(1)),
            5,
            distance_cost,
        );
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn unreachable_returns_empty() {
        let mut g = crate::graph::NetGraph::new();
        let a = g.add_rack(RackId(0));
        let b = g.add_rack(RackId(1));
        assert!(k_shortest_paths(&g, a, b, 3, distance_cost).is_empty());
    }
}
