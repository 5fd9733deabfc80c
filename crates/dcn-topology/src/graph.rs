//! The wired network graph `G_r = (V ∪ S, E_r)` (Sec. II-C).
//!
//! Nodes are either racks (delegation node = shim + ToR) or non-ToR
//! switches; edges carry [`Link`] state. Storage is a dense adjacency list
//! with an edge table so that link state (available bandwidth) can be
//! mutated in place while both endpoints observe the change.

use crate::ids::{NodeId, RackId, SwitchId};
use crate::link::Link;
use std::collections::HashMap;

/// Dense index of a node inside a [`NetGraph`].
pub type NodeIdx = usize;
/// Dense index of an undirected edge inside a [`NetGraph`].
pub type EdgeIdx = usize;

/// The wired DCN graph. Undirected; parallel edges are not allowed (the
/// Floyd–Warshall transformation in Sec. V-A.2 collapses any multigraph
/// into single best-cost edges anyway).
#[derive(Debug, Clone, Default)]
pub struct NetGraph {
    nodes: Vec<NodeId>,
    /// adjacency\[u\] = list of (neighbor node idx, edge idx)
    adjacency: Vec<Vec<(NodeIdx, EdgeIdx)>>,
    /// edge table: endpoints + link payload
    edges: Vec<(NodeIdx, NodeIdx, Link)>,
    /// reverse map NodeId -> dense index
    index: HashMap<NodeId, NodeIdx>,
}

impl NetGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its dense index. Panics if the node already
    /// exists (topology builders own id allocation).
    pub fn add_node(&mut self, id: NodeId) -> NodeIdx {
        assert!(
            !self.index.contains_key(&id),
            "node {id} inserted twice into NetGraph"
        );
        let idx = self.nodes.len();
        self.nodes.push(id);
        self.adjacency.push(Vec::new());
        self.index.insert(id, idx);
        idx
    }

    /// Convenience: add a rack node.
    pub fn add_rack(&mut self, id: RackId) -> NodeIdx {
        self.add_node(NodeId::Rack(id))
    }

    /// Convenience: add a switch node.
    pub fn add_switch(&mut self, id: SwitchId) -> NodeIdx {
        self.add_node(NodeId::Switch(id))
    }

    /// Add an undirected edge with the given link state; returns its index.
    pub fn add_edge(&mut self, a: NodeIdx, b: NodeIdx, link: Link) -> EdgeIdx {
        assert!(
            a < self.nodes.len() && b < self.nodes.len(),
            "endpoint out of range"
        );
        assert_ne!(a, b, "self-loops are not meaningful in a DCN");
        let e = self.edges.len();
        self.edges.push((a, b, link));
        self.adjacency[a].push((b, e));
        self.adjacency[b].push((a, e));
        e
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The `NodeId` at a dense index.
    #[inline]
    pub fn node_id(&self, idx: NodeIdx) -> NodeId {
        self.nodes[idx]
    }

    /// Dense index for a `NodeId`, if present.
    #[inline]
    pub fn node_idx(&self, id: NodeId) -> Option<NodeIdx> {
        self.index.get(&id).copied()
    }

    /// Neighbors of a node as (neighbor index, edge index).
    #[inline]
    pub fn neighbors(&self, idx: NodeIdx) -> &[(NodeIdx, EdgeIdx)] {
        &self.adjacency[idx]
    }

    /// Degree of a node.
    #[inline]
    // sheriff-lint: allow(DEAD01, "the fat-tree and BCube degree proptests in tests/proptests.rs")
    pub fn degree(&self, idx: NodeIdx) -> usize {
        self.adjacency[idx].len()
    }

    /// Immutable link payload of an edge.
    #[inline]
    pub fn link(&self, e: EdgeIdx) -> &Link {
        &self.edges[e].2
    }

    /// Mutable link payload of an edge.
    #[inline]
    pub fn link_mut(&mut self, e: EdgeIdx) -> &mut Link {
        &mut self.edges[e].2
    }

    /// Endpoints of an edge.
    #[inline]
    pub fn endpoints(&self, e: EdgeIdx) -> (NodeIdx, NodeIdx) {
        let (a, b, _) = self.edges[e];
        (a, b)
    }

    /// Find the edge between two nodes, if any.
    // sheriff-lint: allow(DEAD01, "the path-edge checks of crates/dcn-topology/tests/proptests.rs")
    pub fn edge_between(&self, a: NodeIdx, b: NodeIdx) -> Option<EdgeIdx> {
        self.adjacency[a]
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, e)| e)
    }

    /// Iterator over all node indices.
    pub fn node_indices(&self) -> impl Iterator<Item = NodeIdx> {
        0..self.nodes.len()
    }

    /// Iterator over all edges as (a, b, &Link).
    pub fn edges(&self) -> impl Iterator<Item = (NodeIdx, NodeIdx, &Link)> {
        self.edges.iter().map(|(a, b, l)| (*a, *b, l))
    }

    /// All switch node indices (the set `S`).
    pub fn switch_indices(&self) -> Vec<NodeIdx> {
        self.node_indices()
            .filter(|&i| !self.nodes[i].is_rack())
            .collect()
    }

    /// True when every node can reach every other node (BFS from node 0).
    // sheriff-lint: allow(DEAD01, "the topology structure proptests in tests/proptests.rs")
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in &self.adjacency[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkTier;

    fn triangle() -> NetGraph {
        let mut g = NetGraph::new();
        let a = g.add_rack(RackId(0));
        let b = g.add_rack(RackId(1));
        let s = g.add_switch(SwitchId(0));
        g.add_edge(a, s, Link::new(1.0, 1.0, LinkTier::Edge));
        g.add_edge(b, s, Link::new(1.0, 1.0, LinkTier::Edge));
        g
    }

    #[test]
    fn counts_and_lookup() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_idx(NodeId::Rack(RackId(1))), Some(1));
        assert_eq!(g.node_idx(NodeId::Rack(RackId(0))), Some(0));
        assert_eq!(g.node_id(2), NodeId::Switch(SwitchId(0)));
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        let s = g.node_idx(NodeId::Switch(SwitchId(0))).unwrap();
        assert_eq!(g.degree(s), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.edge_between(0, s), Some(0));
        assert_eq!(g.edge_between(s, 0), Some(0));
        assert_eq!(g.edge_between(0, 1), None);
    }

    #[test]
    fn link_mutation_visible_from_both_sides() {
        let mut g = triangle();
        let e = g.edge_between(0, 2).unwrap();
        g.link_mut(e).consume(0.4);
        let (_, via) = g.neighbors(0)[0];
        assert!((g.link(via).available_bw - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rack_and_switch_partition() {
        let g = triangle();
        let racks: Vec<NodeIdx> = g
            .node_indices()
            .filter(|&i| g.node_id(i).is_rack())
            .collect();
        assert_eq!(racks, vec![0, 1]);
        assert_eq!(g.switch_indices(), vec![2]);
    }

    #[test]
    fn connectivity() {
        let mut g = triangle();
        assert!(g.is_connected());
        g.add_rack(RackId(2));
        assert!(!g.is_connected());
    }

    #[test]
    fn every_topology_builder_yields_a_simple_graph() {
        // the sizes the experiments, scenarios and benchmark build: a
        // shortest-path search's predecessor edge stands for its node
        // pair only while no pair has two edges
        use crate::{bcube, dcell, fattree, vl2};
        let mut graphs = Vec::new();
        for k in [4, 8, 16, 24, 32, 40, 48] {
            let dcn = fattree::build(&fattree::FatTreeConfig::paper(k));
            graphs.push((format!("Fat-Tree k={k}"), dcn.graph));
        }
        for n in [4, 8, 16, 24, 32, 40, 48] {
            let dcn = bcube::build(&bcube::BCubeConfig::paper(n));
            graphs.push((format!("BCube n={n}"), dcn.graph));
        }
        let dcn = dcell::build(&dcell::DCellConfig::paper(4, 1));
        graphs.push(("DCell(4, 1)".into(), dcn.graph));
        for (d_a, d_i) in [(4, 2), (8, 8)] {
            let dcn = vl2::build(&vl2::Vl2Config::paper(d_a, d_i));
            graphs.push((format!("VL2({d_a}, {d_i})"), dcn.graph));
        }
        for (name, g) in graphs {
            for u in g.node_indices() {
                let mut peers: Vec<NodeIdx> = g.neighbors(u).iter().map(|&(v, _)| v).collect();
                let degree = peers.len();
                peers.sort_unstable();
                peers.dedup();
                assert_eq!(peers.len(), degree, "{name}: two edges at node {u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn duplicate_node_panics() {
        let mut g = NetGraph::new();
        g.add_rack(RackId(0));
        g.add_rack(RackId(0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = NetGraph::new();
        let a = g.add_rack(RackId(0));
        g.add_edge(a, a, Link::new(1.0, 1.0, LinkTier::Edge));
    }
}
