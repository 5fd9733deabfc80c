//! Shortest paths over the wired graph.
//!
//! Sec. V-A.2 of the paper collapses the rack-to-rack multigraph into a
//! complete metric with Floyd–Warshall so that the transmission cost
//! `g(v_i, v_p, e_ip)` becomes a function `G(v_i, v_p)` of the endpoints
//! only. [`dijkstra`] is the one search behind that metric
//! (`dcn_sim::RackMetric`), the flow routes and Yen's k-shortest paths;
//! [`PathCosts`] (Floyd–Warshall, faithful to the paper, or repeated
//! Dijkstra; both give the same answer) is the all-pairs oracle the tests
//! check against.

use crate::graph::{EdgeIdx, NetGraph, NodeIdx};
use crate::link::Link;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const NO_NEXT: u32 = u32::MAX;

/// All-pairs shortest path distances with next-hop path reconstruction.
#[derive(Debug, Clone)]
pub struct PathCosts {
    n: usize,
    dist: Vec<f64>,
    /// `next[a*n+b]` = first hop on the shortest a→b path.
    next: Vec<u32>,
}

impl PathCosts {
    /// Floyd–Warshall over every node of the graph, O(n³).
    ///
    /// `edge_cost` maps a link to a non-negative traversal cost; the paper
    /// uses the per-edge transmission cost `δ·T(e) + η·P(e)`.
    // sheriff-lint: allow(DEAD01, "the all-pairs oracle of the dijkstra_all agreement proptest")
    pub fn floyd_warshall(g: &NetGraph, edge_cost: impl Fn(&Link) -> f64) -> Self {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut next = vec![NO_NEXT; n * n];
        for i in 0..n {
            dist[i * n + i] = 0.0;
            next[i * n + i] = i as u32;
        }
        for (a, b, link) in g.edges() {
            let c = edge_cost(link);
            debug_assert!(c >= 0.0, "edge costs must be non-negative");
            // keep the cheaper edge if the builder ever produced parallels
            if c < dist[a * n + b] {
                dist[a * n + b] = c;
                dist[b * n + a] = c;
                next[a * n + b] = b as u32;
                next[b * n + a] = a as u32;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = dist[i * n + k];
                if dik.is_infinite() {
                    continue;
                }
                for j in 0..n {
                    let through = dik + dist[k * n + j];
                    if through < dist[i * n + j] {
                        dist[i * n + j] = through;
                        next[i * n + j] = next[i * n + k];
                    }
                }
            }
        }
        Self { n, dist, next }
    }

    /// Repeated Dijkstra from every node, O(n · m log n). Identical result
    /// to [`PathCosts::floyd_warshall`] but much faster on sparse DCNs.
    // sheriff-lint: allow(DEAD01, "the all-pairs oracle of the shortest-path proptests")
    pub fn dijkstra_all(g: &NetGraph, edge_cost: impl Fn(&Link) -> f64) -> Self {
        let n = g.node_count();
        let mut dist = vec![f64::INFINITY; n * n];
        let mut next = vec![NO_NEXT; n * n];
        for src in 0..n {
            let (d, prev) = dijkstra(g, src, None, |_, l| Some(edge_cost(l)));
            for t in 0..n {
                dist[src * n + t] = d[t];
                if d[t].is_finite() {
                    // the first hop is the last node before src on the
                    // walk back from t (t itself when src precedes it)
                    let hop = walk_back(g, &prev, t)
                        .map(|(_, p)| p)
                        .take_while(|&p| p != src)
                        .last()
                        .unwrap_or(t);
                    next[src * n + t] = hop as u32;
                }
            }
        }
        Self { n, dist, next }
    }

    /// Shortest-path distance between two nodes.
    #[inline]
    pub fn dist(&self, a: NodeIdx, b: NodeIdx) -> f64 {
        self.dist[a * self.n + b]
    }

    /// Number of nodes covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Reconstruct the node sequence of a shortest a→b path (inclusive of
    /// both endpoints). `None` when unreachable.
    pub fn path(&self, a: NodeIdx, b: NodeIdx) -> Option<Vec<NodeIdx>> {
        if self.dist(a, b).is_infinite() {
            return None;
        }
        let mut out = vec![a];
        let mut cur = a;
        while cur != b {
            let nx = self.next[cur * self.n + b];
            debug_assert_ne!(nx, NO_NEXT);
            cur = nx as usize;
            out.push(cur);
        }
        Some(out)
    }
}

/// A heap entry: a node keyed by its tentative distance, popped
/// cheapest first.
#[derive(PartialEq)]
struct Entry(f64, NodeIdx);

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on cost; costs are sums of non-negative edge costs,
        // never NaN
        other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source Dijkstra, the workspace's one shortest-path search.
///
/// `edge_cost` prices each edge it is offered, or refuses it with `None`.
/// With a `target` the search stops once that node is settled: its
/// distance and path are final, other nodes' may not be. Returns every
/// node's distance (infinite when unreached) and the edge it was reached
/// by (`None` for the source and for unreached nodes); [`walk_back`]
/// reads a path out of the latter.
pub fn dijkstra(
    g: &NetGraph,
    src: NodeIdx,
    target: Option<NodeIdx>,
    edge_cost: impl Fn(EdgeIdx, &Link) -> Option<f64>,
) -> (Vec<f64>, Vec<Option<EdgeIdx>>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    if let Some(d) = dist.get_mut(src) {
        *d = 0.0;
        heap.push(Entry(0.0, src));
    }
    while let Some(Entry(d, u)) = heap.pop() {
        if dist.get(u).is_none_or(|&du| d > du) {
            continue;
        }
        if Some(u) == target {
            break;
        }
        for &(v, e) in g.neighbors(u) {
            let Some(c) = edge_cost(e, g.link(e)) else {
                continue;
            };
            debug_assert!(c >= 0.0, "edge costs must be non-negative");
            let nd = d + c;
            if let (Some(dv), Some(pv)) = (dist.get_mut(v), prev.get_mut(v)) {
                if nd < *dv {
                    *dv = nd;
                    *pv = Some(e);
                    heap.push(Entry(nd, v));
                }
            }
        }
    }
    (dist, prev)
}

/// Walk a [`dijkstra`] search tree from `t` back to its source: each
/// predecessor edge, with the node it leads back to. Empty for the
/// source and for a node the search did not reach.
pub fn walk_back<'a>(
    g: &'a NetGraph,
    prev: &'a [Option<EdgeIdx>],
    t: NodeIdx,
) -> impl Iterator<Item = (EdgeIdx, NodeIdx)> + 'a {
    let mut cur = t;
    std::iter::from_fn(move || {
        let e = (*prev.get(cur)?)?;
        let (a, b) = g.endpoints(e);
        cur = if a == cur { b } else { a };
        Some((e, cur))
    })
}

/// Convenience edge-cost: physical distance `D(e)`.
pub fn distance_cost(l: &Link) -> f64 {
    l.distance
}

/// Convenience edge-cost: the paper's per-edge transmission cost
/// `δ·T(e) + η·P(e)` for a VM of size `vm_capacity`.
pub fn transmission_cost(vm_capacity: f64, delta: f64, eta: f64) -> impl Fn(&Link) -> f64 {
    move |l: &Link| delta * l.transmission_time(vm_capacity) + eta * l.utility_rate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RackId, SwitchId};
    use crate::link::LinkTier;

    /// racks v0,v1,v2 in a line through switches: v0-s0-v1-s1-v2, plus a
    /// shortcut s0-s1 making v0→v2 cheaper through switches only.
    fn line() -> NetGraph {
        let mut g = NetGraph::new();
        let v0 = g.add_rack(RackId(0));
        let v1 = g.add_rack(RackId(1));
        let v2 = g.add_rack(RackId(2));
        let s0 = g.add_switch(SwitchId(0));
        let s1 = g.add_switch(SwitchId(1));
        let l = |d| Link::new(1.0, d, LinkTier::Edge);
        g.add_edge(v0, s0, l(1.0));
        g.add_edge(s0, v1, l(1.0));
        g.add_edge(v1, s1, l(1.0));
        g.add_edge(s1, v2, l(1.0));
        g.add_edge(s0, s1, l(0.5));
        g
    }

    #[test]
    fn floyd_warshall_distances() {
        let g = line();
        let p = PathCosts::floyd_warshall(&g, distance_cost);
        assert_eq!(p.dist(0, 0), 0.0);
        assert_eq!(p.dist(0, 1), 2.0);
        // v0 -> s0 -> s1 -> v2 = 1 + 0.5 + 1
        assert!((p.dist(0, 2) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn path_reconstruction_matches_distance() {
        let g = line();
        let p = PathCosts::floyd_warshall(&g, distance_cost);
        let path = p.path(0, 2).unwrap();
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&2));
        let total: f64 = path
            .windows(2)
            .map(|w| g.link(g.edge_between(w[0], w[1]).unwrap()).distance)
            .sum();
        assert!((total - p.dist(0, 2)).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_all_agrees_with_floyd_warshall() {
        let g = line();
        let fw = PathCosts::floyd_warshall(&g, distance_cost);
        let dj = PathCosts::dijkstra_all(&g, distance_cost);
        for a in 0..g.node_count() {
            for b in 0..g.node_count() {
                assert!(
                    (fw.dist(a, b) - dj.dist(a, b)).abs() < 1e-9,
                    "mismatch at ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn dijkstra_path_reconstruction() {
        let g = line();
        let dj = PathCosts::dijkstra_all(&g, distance_cost);
        let path = dj.path(0, 2).unwrap();
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), 2);
        // every consecutive pair must be an actual edge
        for w in path.windows(2) {
            assert!(g.edge_between(w[0], w[1]).is_some());
        }
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = line();
        let lonely = g.add_rack(RackId(9));
        let p = PathCosts::floyd_warshall(&g, distance_cost);
        assert!(p.dist(0, lonely).is_infinite());
        assert!(p.path(0, lonely).is_none());
    }

    #[test]
    fn transmission_cost_formula() {
        let mut l = Link::new(10.0, 1.0, LinkTier::CoreAgg);
        l.consume(5.0); // B(e) = 5
        let f = transmission_cost(20.0, 1.0, 1.0);
        // T = 20/5 = 4, P = 5/10 = 0.5
        assert!((f(&l) - 4.5).abs() < 1e-12);
        let f2 = transmission_cost(20.0, 2.0, 0.0);
        assert!((f2(&l) - 8.0).abs() < 1e-12);
    }
}
