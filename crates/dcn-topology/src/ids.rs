//! Strongly-typed identifiers for every entity in the data center network.
//!
//! The paper (Sec. II-C) distinguishes shim/delegation nodes `v_i` (one per
//! rack, co-located with the ToR switch), aggregation/core switches `s_j`,
//! hosts `h_ij`, and virtual machines `m^k_ij`. Using newtypes instead of
//! bare `usize` makes it impossible to index a rack table with a VM id.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index, usable for dense `Vec` storage.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a dense index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                Self::from_index(i)
            }
        }
    };
}

id_type!(
    /// A rack and its shim/delegation node `v_i` (the ToR controller).
    RackId,
    "v"
);
id_type!(
    /// A physical host (server) `h_ij`, globally indexed.
    HostId,
    "h"
);
id_type!(
    /// A virtual machine `m^k_ij`, globally indexed.
    VmId,
    "m"
);
id_type!(
    /// An aggregation/core/BCube switch `s_j` (ToR switches are part of the
    /// rack node, per the paper's "smallest network unit" convention).
    SwitchId,
    "s"
);

/// A node of the wired network graph `G_r = (V ∪ S, E_r)`: either a rack
/// (shim + ToR, the paper's `v_i`) or a non-ToR switch (`s_j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// Delegation node: rack with its ToR switch and shim layer.
    Rack(RackId),
    /// Aggregation, core, or BCube-level switch.
    Switch(SwitchId),
}

impl NodeId {
    /// Returns the rack id if this node is a rack.
    #[inline]
    pub fn as_rack(self) -> Option<RackId> {
        match self {
            NodeId::Rack(r) => Some(r),
            NodeId::Switch(_) => None,
        }
    }

    /// Returns the switch id if this node is a switch.
    #[inline]
    pub fn as_switch(self) -> Option<SwitchId> {
        match self {
            NodeId::Rack(_) => None,
            NodeId::Switch(s) => Some(s),
        }
    }

    /// True when the node is a rack (delegation node).
    #[inline]
    pub fn is_rack(self) -> bool {
        matches!(self, NodeId::Rack(_))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Rack(r) => write!(f, "{r}"),
            NodeId::Switch(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let r = RackId::from_index(7);
        assert_eq!(r.index(), 7);
        assert_eq!(r, RackId(7));
        assert_eq!(r.to_string(), "v7");
    }

    #[test]
    fn host_vm_switch_display() {
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(VmId(12).to_string(), "m12");
        assert_eq!(SwitchId(0).to_string(), "s0");
    }

    #[test]
    fn node_id_accessors() {
        let n = NodeId::Rack(RackId(2));
        assert!(n.is_rack());
        assert_eq!(n.as_rack(), Some(RackId(2)));
        assert_eq!(n.as_switch(), None);

        let s = NodeId::Switch(SwitchId(5));
        assert!(!s.is_rack());
        assert_eq!(s.as_switch(), Some(SwitchId(5)));
        assert_eq!(s.as_rack(), None);
        assert_eq!(s.to_string(), "s5");
    }

    #[test]
    fn ordering_is_by_raw_value() {
        assert!(RackId(1) < RackId(2));
        assert!(NodeId::Rack(RackId(9)) < NodeId::Switch(SwitchId(0)));
    }

    #[test]
    fn from_usize() {
        let v: VmId = 5usize.into();
        assert_eq!(v, VmId(5));
    }
}
