//! A complete data center network: wired graph + rack/host inventory.

use crate::graph::{NetGraph, NodeIdx};
use crate::ids::RackId;
use crate::rack::Inventory;

/// Which topology family a [`Dcn`] was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Fat-Tree with `pods` pods (Al-Fares et al., SIGCOMM'08).
    FatTree {
        /// Number of pods `k` (even).
        pods: usize,
    },
    /// BCube(n, k): `levels = k + 1` switch levels of `n^k` switches each,
    /// `n^(k+1)` servers (Guo et al., SIGCOMM'09).
    BCube {
        /// Switch port count / servers per BCube₀ group.
        n: usize,
        /// Highest level index `k` (BCube₀ has k = 0).
        k: usize,
    },
    /// DCell(n, k): recursively-defined server-centric topology with
    /// direct server-to-server links (Guo et al., SIGCOMM'08).
    DCell {
        /// Servers per DCell₀.
        n: usize,
        /// Recursion level.
        k: usize,
    },
    /// VL2 Clos network (Greenberg et al., SIGCOMM'09 — the paper's \[3\]).
    Vl2 {
        /// Aggregation-switch port count.
        d_a: usize,
        /// Intermediate-switch port count.
        d_i: usize,
    },
}

/// A data center network instance: the wired graph `G_r`, the rack/host
/// inventory, and the mapping between the two.
#[derive(Debug, Clone)]
pub struct Dcn {
    /// Topology family and parameters.
    pub kind: TopologyKind,
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
