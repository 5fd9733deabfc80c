//! Alg. 4 — the REQUEST action at the destination shim.
//!
//! A migration only proceeds once the destination's delegation node
//! accepts: it checks that the target host still has capacity (Eqn. 8) —
//! and, per constraint (7), that no dependent VM already lives there —
//! then commits the reservation and replies ACK; otherwise it replies
//! REJECT and the source shim must recalculate.

use dcn_topology::{DependencyGraph, HostId, Placement, PlacementError, VmId};
use sheriff_obs::RejectKind;

/// Process one migration REQUEST against the authoritative placement:
/// `Ok` is the ACK (the VM has moved and its capacity is committed),
/// `Err` the REJECT with its reason. FCFS ordering is the caller's
/// responsibility (the sequential planner's iteration order, or the
/// fabric's per-rack delivery order).
pub fn request_migration(
    placement: &mut Placement,
    deps: &DependencyGraph,
    vm: VmId,
    dest: HostId,
) -> Result<(), RejectKind> {
    if deps.conflicts_on_host(vm, dest, placement) {
        return Err(RejectKind::Conflict);
    }
    placement.migrate(vm, dest).map_err(|e| match e {
        PlacementError::CapacityExceeded { .. } => RejectKind::Capacity,
        PlacementError::AlreadyPlaced { .. } => RejectKind::Noop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{Inventory, VmSpec};

    fn setup() -> (Placement, DependencyGraph) {
        let mut inv = Inventory::new();
        inv.add_rack(2, 10.0, 100.0); // hosts 0, 1
        let mut p = Placement::new(&inv);
        for _ in 0..2 {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: 6.0,
                value: 1.0,
                delay_sensitive: false,
            };
            p.add_vm(s, HostId(0)).ok();
        }
        // only VM 0 fits on host 0 (6+6 > 10): second add failed
        let s = VmSpec {
            id: p.next_vm_id(),
            capacity: 6.0,
            value: 1.0,
            delay_sensitive: false,
        };
        p.add_vm(s, HostId(1)).unwrap();
        (p, DependencyGraph::new(3))
    }

    #[test]
    fn ack_commits_the_move() {
        let (mut p, deps) = setup();
        // VM 0 is on host 0, VM 1 on host 1 (ids 0 and 1; the failed add
        // never allocated an id, so ids are dense)
        let vm = VmId(0);
        let out = request_migration(&mut p, &deps, vm, HostId(1));
        // host 1 has 10-6=4 free < 6 -> capacity reject
        assert_eq!(out, Err(RejectKind::Capacity));
        assert_eq!(p.host_of(vm), HostId(0));
    }

    #[test]
    fn conflict_rejected_before_capacity() {
        let (mut p, mut deps) = setup();
        deps.add_dependency(VmId(0), VmId(1));
        let out = request_migration(&mut p, &deps, VmId(0), HostId(1));
        assert_eq!(out, Err(RejectKind::Conflict));
    }

    #[test]
    fn noop_request_rejected() {
        let (mut p, deps) = setup();
        let out = request_migration(&mut p, &deps, VmId(0), HostId(0));
        assert_eq!(out, Err(RejectKind::Noop));
    }

    #[test]
    fn successful_request_is_fcfs_first_wins() {
        let mut inv = Inventory::new();
        inv.add_rack(3, 10.0, 100.0);
        let mut p = Placement::new(&inv);
        for h in [0usize, 1] {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: 6.0,
                value: 1.0,
                delay_sensitive: false,
            };
            p.add_vm(s, HostId::from_index(h)).unwrap();
        }
        let deps = DependencyGraph::new(2);
        // both VMs request host 2; only the first fits
        assert!(request_migration(&mut p, &deps, VmId(0), HostId(2)).is_ok());
        assert_eq!(
            request_migration(&mut p, &deps, VmId(1), HostId(2)),
            Err(RejectKind::Capacity)
        );
        assert_eq!(p.host_of(VmId(0)), HostId(2));
        assert_eq!(p.host_of(VmId(1)), HostId(1));
    }
}
