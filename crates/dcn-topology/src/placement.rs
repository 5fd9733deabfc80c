//! VM specifications and the VM → host placement map (the paper's `M`,
//! `VM_i` lists, Sec. II-C) with capacity-checked migration (Eqn. 8).

use crate::ids::{HostId, RackId, VmId};
use crate::rack::Inventory;
use std::fmt;

/// Static description of a VM `m^k_ij`.
#[derive(Debug, Clone)]
pub struct VmSpec {
    /// Global VM id.
    pub id: VmId,
    /// Resource demand (the paper caps it at 20 in Sec. VI-B; Mbps is the
    /// minimum capacity unit in Alg. 2).
    pub capacity: f64,
    /// The "value" used by the PRIORITY knapsack (Alg. 2): lower-value VMs
    /// are preferred migration victims.
    pub value: f64,
    /// Delay-sensitive VMs are never selected for migration (Alg. 2 line 1).
    pub delay_sensitive: bool,
}

/// Errors from placement mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Destination host lacks free capacity (violates Eqn. 8).
    CapacityExceeded {
        /// The host that could not accept the VM.
        host: HostId,
        /// The VM that did not fit.
        vm: VmId,
    },
    /// The VM is already on the requested host.
    AlreadyPlaced {
        /// The VM in question.
        vm: VmId,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::CapacityExceeded { host, vm } => {
                write!(f, "host {host} lacks capacity for VM {vm}")
            }
            PlacementError::AlreadyPlaced { vm } => {
                write!(f, "VM {vm} is already on the requested host")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The live VM → host assignment, with per-host usage accounting.
#[derive(Debug, Clone)]
pub struct Placement {
    specs: Vec<VmSpec>,
    vm_host: Vec<HostId>,
    host_vms: Vec<Vec<VmId>>,
    host_used: Vec<f64>,
    host_capacity: Vec<f64>,
    host_rack: Vec<RackId>,
    host_online: Vec<bool>,
}

impl Placement {
    /// Empty placement over an inventory's hosts.
    pub fn new(inventory: &Inventory) -> Self {
        let host_capacity: Vec<f64> = inventory.hosts().map(|h| h.capacity).collect();
        let host_rack: Vec<RackId> = inventory.hosts().map(|h| h.rack).collect();
        let n = host_capacity.len();
        Self {
            specs: Vec::new(),
            vm_host: Vec::new(),
            host_vms: vec![Vec::new(); n],
            host_used: vec![0.0; n],
            host_capacity,
            host_rack,
            host_online: vec![true; n],
        }
    }

    /// Place a new VM on a host. The spec's `id` must equal the next dense
    /// id; use [`Placement::next_vm_id`] to allocate.
    pub fn add_vm(&mut self, spec: VmSpec, host: HostId) -> Result<VmId, PlacementError> {
        assert_eq!(
            spec.id.index(),
            self.specs.len(),
            "VM ids must be allocated densely via next_vm_id()"
        );
        let id = spec.id;
        if self.free_capacity(host) < spec.capacity {
            return Err(PlacementError::CapacityExceeded { host, vm: id });
        }
        self.host_used[host.index()] += spec.capacity;
        self.host_vms[host.index()].push(id);
        self.vm_host.push(host);
        self.specs.push(spec);
        Ok(id)
    }

    /// The id the next [`Placement::add_vm`] call must use.
    #[inline]
    pub fn next_vm_id(&self) -> VmId {
        VmId::from_index(self.specs.len())
    }

    /// Move a VM to another host, enforcing Eqn. 8 (capacity).
    pub fn migrate(&mut self, vm: VmId, to: HostId) -> Result<(), PlacementError> {
        let from = self.vm_host[vm.index()];
        if from == to {
            return Err(PlacementError::AlreadyPlaced { vm });
        }
        let cap = self.specs[vm.index()].capacity;
        if self.free_capacity(to) < cap {
            return Err(PlacementError::CapacityExceeded { host: to, vm });
        }
        self.host_used[from.index()] -= cap;
        self.host_vms[from.index()].retain(|&v| v != vm);
        self.host_used[to.index()] += cap;
        self.host_vms[to.index()].push(vm);
        self.vm_host[vm.index()] = to;
        Ok(())
    }

    /// Spec of a VM.
    #[inline]
    pub fn spec(&self, vm: VmId) -> &VmSpec {
        &self.specs[vm.index()]
    }

    /// Host currently running a VM.
    #[inline]
    pub fn host_of(&self, vm: VmId) -> HostId {
        self.vm_host[vm.index()]
    }

    /// Rack currently hosting a VM.
    #[inline]
    pub fn rack_of(&self, vm: VmId) -> RackId {
        self.host_rack[self.host_of(vm).index()]
    }

    /// Rack of a host.
    #[inline]
    pub fn rack_of_host(&self, host: HostId) -> RackId {
        self.host_rack[host.index()]
    }

    /// VMs on a host (the `M_ij` set).
    #[inline]
    pub fn vms_on(&self, host: HostId) -> &[VmId] {
        &self.host_vms[host.index()]
    }

    /// Used capacity on a host.
    #[inline]
    pub fn used_capacity(&self, host: HostId) -> f64 {
        self.host_used[host.index()]
    }

    /// Free capacity on a host. An offline host reports zero so every
    /// capacity check (Eqn. 8) naturally rejects it as a destination.
    #[inline]
    pub fn free_capacity(&self, host: HostId) -> f64 {
        if !self.host_online[host.index()] {
            return 0.0;
        }
        self.host_capacity[host.index()] - self.host_used[host.index()]
    }

    /// Whether a host is accepting placements (true unless failed via
    /// [`Placement::set_host_online`]).
    #[inline]
    pub fn is_host_online(&self, host: HostId) -> bool {
        self.host_online[host.index()]
    }

    /// Mark a host failed (`online = false`) or recovered. Resident VMs
    /// stay assigned — evacuating them is the management layer's job —
    /// but the host stops being a valid migration destination.
    pub fn set_host_online(&mut self, host: HostId, online: bool) {
        self.host_online[host.index()] = online;
    }

    /// Utilisation fraction of a host in [0, 1].
    #[inline]
    pub fn utilization(&self, host: HostId) -> f64 {
        self.host_used[host.index()] / self.host_capacity[host.index()]
    }

    /// Total capacity of a host.
    #[inline]
    pub fn host_capacity(&self, host: HostId) -> f64 {
        self.host_capacity[host.index()]
    }

    /// Number of VMs.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of hosts.
    #[inline]
    pub fn host_count(&self) -> usize {
        self.host_capacity.len()
    }

    /// Iterate over all VM ids.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> {
        (0..self.specs.len()).map(VmId::from_index)
    }

    /// Population standard deviation of host utilisation percentages —
    /// the paper's Fig. 9/10 metric ("workload percentages" std-dev).
    pub fn utilization_stddev(&self) -> f64 {
        let n = self.host_capacity.len();
        if n == 0 {
            return 0.0;
        }
        let utils: Vec<f64> = (0..n)
            .map(|i| 100.0 * self.host_used[i] / self.host_capacity[i])
            .collect();
        let mean = utils.iter().sum::<f64>() / n as f64;
        let var = utils.iter().map(|u| (u - mean).powi(2)).sum::<f64>() / n as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv() -> Inventory {
        let mut inv = Inventory::new();
        inv.add_rack(2, 10.0, 100.0); // hosts 0, 1
        inv.add_rack(1, 10.0, 100.0); // host 2
        inv
    }

    fn spec(p: &Placement, cap: f64) -> VmSpec {
        VmSpec {
            id: p.next_vm_id(),
            capacity: cap,
            value: 1.0,
            delay_sensitive: false,
        }
    }

    #[test]
    fn add_and_account() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        let s = spec(&p, 4.0);
        let vm = p.add_vm(s, HostId(0)).unwrap();
        assert_eq!(p.host_of(vm), HostId(0));
        assert_eq!(p.used_capacity(HostId(0)), 4.0);
        assert_eq!(p.free_capacity(HostId(0)), 6.0);
        assert_eq!(p.vms_on(HostId(0)), &[vm]);
        assert_eq!(p.rack_of(vm), RackId(0));
    }

    #[test]
    fn capacity_enforced_on_add() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        let s = spec(&p, 11.0);
        let err = p.add_vm(s, HostId(0)).unwrap_err();
        assert!(matches!(err, PlacementError::CapacityExceeded { .. }));
        assert_eq!(p.vm_count(), 0);
    }

    #[test]
    fn migrate_moves_usage() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        let s = spec(&p, 6.0);
        let vm = p.add_vm(s, HostId(0)).unwrap();
        p.migrate(vm, HostId(2)).unwrap();
        assert_eq!(p.used_capacity(HostId(0)), 0.0);
        assert_eq!(p.used_capacity(HostId(2)), 6.0);
        assert_eq!(p.rack_of(vm), RackId(1));
        assert!(p.vms_on(HostId(0)).is_empty());
    }

    #[test]
    fn migrate_rejects_overload_and_noop() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        let a = p.add_vm(spec(&p, 6.0), HostId(0)).unwrap();
        let b = p.add_vm(spec(&p, 6.0), HostId(1)).unwrap();
        // b cannot join a on host 0 (6+6 > 10)
        assert!(matches!(
            p.migrate(b, HostId(0)),
            Err(PlacementError::CapacityExceeded { .. })
        ));
        assert_eq!(p.host_of(b), HostId(1));
        assert!(matches!(
            p.migrate(a, HostId(0)),
            Err(PlacementError::AlreadyPlaced { .. })
        ));
    }

    #[test]
    fn stddev_drops_when_balanced() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        let a = p.add_vm(spec(&p, 5.0), HostId(0)).unwrap();
        let _b = p.add_vm(spec(&p, 5.0), HostId(0)).unwrap();
        let before = p.utilization_stddev();
        p.migrate(a, HostId(1)).unwrap();
        let after = p.utilization_stddev();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn offline_host_rejects_placements_but_keeps_residents() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        let a = p.add_vm(spec(&p, 4.0), HostId(0)).unwrap();
        let b = p.add_vm(spec(&p, 4.0), HostId(1)).unwrap();
        p.set_host_online(HostId(0), false);
        assert!(!p.is_host_online(HostId(0)));
        assert_eq!(p.free_capacity(HostId(0)), 0.0);
        // residents stay assigned and accounted
        assert_eq!(p.host_of(a), HostId(0));
        assert_eq!(p.used_capacity(HostId(0)), 4.0);
        // inbound migration is rejected by the ordinary capacity check
        assert!(matches!(
            p.migrate(b, HostId(0)),
            Err(PlacementError::CapacityExceeded { .. })
        ));
        // outbound evacuation still works
        p.migrate(a, HostId(2)).unwrap();
        assert_eq!(p.used_capacity(HostId(0)), 0.0);
        // recovery restores the full headroom
        p.set_host_online(HostId(0), true);
        assert_eq!(p.free_capacity(HostId(0)), 10.0);
        p.migrate(b, HostId(0)).unwrap();
    }

    #[test]
    fn stddev_zero_when_uniform() {
        let inv = inv();
        let mut p = Placement::new(&inv);
        for h in 0..3 {
            let s = spec(&p, 5.0);
            p.add_vm(s, HostId(h)).unwrap();
        }
        assert!(p.utilization_stddev() < 1e-12);
    }
}
