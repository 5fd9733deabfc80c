//! # dcn-topology
//!
//! Data center network substrates for the Sheriff reproduction (ICPP'15):
//! Fat-Tree, BCube, DCell and VL2 topology builders, the wired graph
//! `G_r = (V ∪ S, E_r)` with per-link capacity/distance/bandwidth state,
//! shortest paths (one Dijkstra, Yen's k-shortest paths, and an all-pairs
//! oracle), rack/host inventories, the VM placement map, and the VM
//! dependency (conflict) graph `G_d`.
//!
//! Every builder wires the paper's one physical configuration
//! (Sec. VI-B): bandwidth 1 below the aggregation layer and 10 above
//! it, host capacity 100 and ToR capacity 1000, each a constant of
//! [`link`] or [`rack`]. Builder configs hold only what callers vary.
//!
//! ```
//! use dcn_topology::fattree::{self, FatTreeConfig};
//! use dcn_topology::path::{PathCosts, distance_cost};
//!
//! let dcn = fattree::build(&FatTreeConfig::paper(4));
//! assert_eq!(dcn.rack_count(), 8);
//! let costs = PathCosts::dijkstra_all(&dcn.graph, distance_cost);
//! assert!(costs.dist(dcn.rack_node(0.into()), dcn.rack_node(7.into())).is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcube;
pub mod dcell;
pub mod dcn;
pub mod dependency;
pub mod fattree;
pub mod graph;
pub mod ids;
pub mod ksp;
pub mod link;
pub mod path;
pub mod placement;
pub mod rack;
pub mod vl2;

pub use dcn::Dcn;
pub use dependency::DependencyGraph;
pub use graph::{EdgeIdx, NetGraph, NodeIdx};
pub use ids::{HostId, NodeId, RackId, SwitchId, VmId};
pub use link::Link;
pub use path::PathCosts;
pub use placement::{Placement, PlacementError, VmSpec};
pub use rack::{Host, Inventory};
