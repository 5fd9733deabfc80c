//! A complete data center network: wired graph + rack/host inventory.

use crate::graph::{NetGraph, NodeIdx};
use crate::ids::RackId;
use crate::rack::Inventory;

/// A data center network instance: the wired graph `G_r`, the rack/host
/// inventory, and the mapping between the two.
#[derive(Debug, Clone)]
pub struct Dcn {
    /// Wired graph `G_r = (V ∪ S, E_r)`.
    pub graph: NetGraph,
    /// Racks and hosts.
    pub inventory: Inventory,
    /// `rack_nodes[rack.index()]` = graph node index of that rack.
    pub rack_nodes: Vec<NodeIdx>,
}

impl Dcn {
    /// Graph node index of a rack's delegation node.
    #[inline]
    pub fn rack_node(&self, rack: RackId) -> NodeIdx {
        self.rack_nodes[rack.index()]
    }

    /// Number of racks (delegation nodes `|V|`).
    #[inline]
    pub fn rack_count(&self) -> usize {
        self.rack_nodes.len()
    }

    /// Racks whose delegation node is within `hops` edges of `rack`'s node
    /// in `G_r` — the shim's *dominating region* (the paper's local scope is
    /// one-hop wired neighbours, Sec. VIII). Excludes `rack` itself.
    pub fn neighbor_racks(&self, rack: RackId, hops: usize) -> Vec<RackId> {
        let start = self.rack_node(rack);
        let n = self.graph.node_count();
        let mut depth = vec![usize::MAX; n];
        depth[start] = 0;
        let mut queue = std::collections::VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            if depth[u] == hops {
                continue;
            }
            for &(v, _) in self.graph.neighbors(u) {
                if depth[v] == usize::MAX {
                    depth[v] = depth[u] + 1;
                    if let Some(r) = self.graph.node_id(v).as_rack() {
                        if r != rack {
                            out.push(r);
                        }
                    }
                    queue.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }
}
