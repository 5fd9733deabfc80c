//! Racks and physical hosts (Sec. II-A/II-C).
//!
//! A rack `v_i` holds a set of hosts `H_i = {h_i1, …}`; the paper's
//! facility settings use 42U racks with ~40 servers each, but the
//! simulations use smaller per-rack host counts, so the count is a
//! builder parameter.

use crate::ids::{HostId, RackId};

/// A physical host/server `h_ij`.
#[derive(Debug, Clone)]
pub struct Host {
    /// Global host id.
    pub id: HostId,
    /// Owning rack (delegation node).
    pub rack: RackId,
    /// Total resource capacity of the host (same normalised units as VM
    /// capacities; Mbps is the paper's minimum capacity unit).
    pub capacity: f64,
}

/// A rack with its shim/ToR delegation node `v_i` and local host set.
#[derive(Debug, Clone)]
pub struct Rack {
    /// Delegation node id.
    pub id: RackId,
    /// Hosts in this rack (the index set `SR_i`).
    pub hosts: Vec<HostId>,
    /// Uplink (ToR) capacity available for migrations/flows.
    pub tor_capacity: f64,
}

/// Dense tables of all racks and hosts in a DCN.
#[derive(Debug, Clone, Default)]
pub struct Inventory {
    racks: Vec<Rack>,
    hosts: Vec<Host>,
}

impl Inventory {
    /// Empty inventory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rack with `host_count` hosts of equal `host_capacity`.
    /// Returns the new rack id.
    pub fn add_rack(&mut self, host_count: usize, host_capacity: f64, tor_capacity: f64) -> RackId {
        let rack_id = RackId::from_index(self.racks.len());
        let mut hosts = Vec::with_capacity(host_count);
        for _ in 0..host_count {
            let id = HostId::from_index(self.hosts.len());
            self.hosts.push(Host {
                id,
                rack: rack_id,
                capacity: host_capacity,
            });
            hosts.push(id);
        }
        self.racks.push(Rack {
            id: rack_id,
            hosts,
            tor_capacity,
        });
        rack_id
    }

    /// Number of racks.
    #[inline]
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// Number of hosts.
    #[inline]
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Rack by id.
    #[inline]
    pub fn rack(&self, id: RackId) -> &Rack {
        &self.racks[id.index()]
    }

    /// Host by id.
    #[cfg(test)]
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.index()]
    }

    /// The rack owning a host.
    #[inline]
    pub fn rack_of(&self, host: HostId) -> RackId {
        self.hosts[host.index()].rack
    }

    /// Iterate over racks.
    pub fn racks(&self) -> impl Iterator<Item = &Rack> {
        self.racks.iter()
    }

    /// Iterate over hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    /// All host ids in a rack.
    #[inline]
    pub fn hosts_in(&self, rack: RackId) -> &[HostId] {
        &self.racks[rack.index()].hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_rack_allocates_contiguous_hosts() {
        let mut inv = Inventory::new();
        let r0 = inv.add_rack(3, 20.0, 100.0);
        let r1 = inv.add_rack(2, 20.0, 100.0);
        assert_eq!(inv.rack_count(), 2);
        assert_eq!(inv.host_count(), 5);
        assert_eq!(inv.hosts_in(r0), &[HostId(0), HostId(1), HostId(2)]);
        assert_eq!(inv.hosts_in(r1), &[HostId(3), HostId(4)]);
    }

    #[test]
    fn rack_of_is_consistent() {
        let mut inv = Inventory::new();
        let r0 = inv.add_rack(2, 10.0, 50.0);
        let r1 = inv.add_rack(2, 10.0, 50.0);
        for &h in inv.hosts_in(r0) {
            assert_eq!(inv.rack_of(h), r0);
        }
        for &h in inv.hosts_in(r1) {
            assert_eq!(inv.rack_of(h), r1);
        }
    }

    #[test]
    fn capacities_recorded() {
        let mut inv = Inventory::new();
        let r = inv.add_rack(1, 42.0, 99.0);
        assert_eq!(inv.host(HostId(0)).capacity, 42.0);
        assert_eq!(inv.rack(r).tor_capacity, 99.0);
    }
}
