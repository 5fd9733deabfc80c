//! The shim planning core shared by the fabric and centralized runtimes.
//!
//! Each alerted shim selects victims with PRIORITY (Algs. 1–2,
//! `select_victims`), collects the destination hosts of its region
//! (`region_slots`), and matches victims to hosts at minimum cost on a
//! placement snapshot (Alg. 3, `plan_proposals`). The fabric runtime in
//! [`fabric`](crate::fabric) then negotiates every proposal with the
//! destination rack as explicit REQUEST/ACK/REJECT messages (Alg. 4,
//! Sec. V-B) over a seeded, faulty channel.

use crate::matching::{min_cost_assignment_padded, FORBIDDEN};
use crate::priority::{priority, Budget};
use crate::protocol::RejectReason;
use dcn_sim::{Alert, AlertSource, RackMetric, SimConfig};
use dcn_topology::{DependencyGraph, HostId, Inventory, Placement, RackId, VmId};
use sheriff_obs::RejectKind;
use std::collections::BTreeSet;

/// Map a protocol-level REJECT payload to its observability label.
pub(crate) fn reject_kind(reason: RejectReason) -> RejectKind {
    match reason {
        RejectReason::Capacity => RejectKind::Capacity,
        RejectReason::Conflict => RejectKind::Conflict,
        RejectReason::Noop => RejectKind::Noop,
        RejectReason::Expired => RejectKind::Expired,
        RejectReason::StaleEpoch => RejectKind::Stale,
    }
}

/// One planned assignment awaiting the destination's verdict.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Proposal {
    pub(crate) vm: VmId,
    pub(crate) dest: HostId,
    pub(crate) cost: f64,
}

/// Alg. 1/2: pick migration victims for one rack's alerts on a snapshot.
/// Returns the selected set plus the size of the candidate pool PRIORITY
/// examined (for the `victims_selected` observability event).
pub(crate) fn select_victims(
    snapshot: &Placement,
    inventory: &Inventory,
    sim: &SimConfig,
    rack: RackId,
    alerts: &[Alert],
    alert_values: &[f64],
) -> (Vec<VmId>, usize) {
    let mut set: Vec<VmId> = Vec::new();
    let mut candidates = 0usize;
    let mut tor_alert = false;
    for alert in alerts.iter().filter(|a| a.rack == rack) {
        match alert.source {
            AlertSource::Host(h) => {
                let f: Vec<VmId> = snapshot.vms_on(h).to_vec();
                candidates += f.len();
                set.extend(priority(
                    &f,
                    snapshot,
                    |vm| alert_values[vm.index()],
                    Budget::SingleMaxAlert,
                ));
            }
            AlertSource::LocalTor(_) => tor_alert = true,
            AlertSource::OuterSwitch(_) => {} // reroute path not simulated here
        }
    }
    if tor_alert {
        let mut f: Vec<VmId> = Vec::new();
        for &host in inventory.hosts_in(rack) {
            f.extend_from_slice(snapshot.vms_on(host));
        }
        candidates += f.len();
        let budget = sim.beta * inventory.rack(rack).tor_capacity;
        set.extend(priority(
            &f,
            snapshot,
            |vm| alert_values[vm.index()],
            Budget::Capacity(budget),
        ));
    }
    set.sort_unstable();
    set.dedup();
    (set, candidates)
}

/// Destination slots for a shim: every host of the given racks, plus its
/// own rack's hosts (the rack-local fallback of the degradation ladder).
pub(crate) fn region_slots(
    inventory: &Inventory,
    region_racks: &[RackId],
    rack: RackId,
) -> Vec<HostId> {
    let mut slots: Vec<HostId> = Vec::new();
    for &r in region_racks.iter().chain(std::iter::once(&rack)) {
        slots.extend_from_slice(inventory.hosts_in(r));
    }
    slots
}

/// Alg. 3's matching on a snapshot: returns the accepted proposals in
/// victim order, the victims left unassigned, and the explored search
/// space. `banned_hosts` are hosts currently absorbing an in-flight
/// pre-copy — they take no additional arrivals this window, or the
/// independent-cost assumption of Eqn. 1 would double-count them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_proposals(
    snapshot: &Placement,
    deps: &DependencyGraph,
    metric: &RackMetric,
    sim: &SimConfig,
    pending: &[VmId],
    slot_hosts: &[HostId],
    excluded: &[(VmId, HostId)],
    banned_hosts: &BTreeSet<HostId>,
) -> (Vec<Proposal>, Vec<VmId>, usize) {
    if pending.is_empty() || slot_hosts.is_empty() {
        return (Vec::new(), pending.to_vec(), 0);
    }
    let search_space = pending.len() * slot_hosts.len();
    let mut cost = vec![vec![FORBIDDEN; slot_hosts.len()]; pending.len()];
    let mut adjusted = vec![vec![FORBIDDEN; slot_hosts.len()]; pending.len()];
    for (i, &vm) in pending.iter().enumerate() {
        let spec = snapshot.spec(vm);
        let from_host = snapshot.host_of(vm);
        let from_rack = snapshot.rack_of(vm);
        for (j, &host) in slot_hosts.iter().enumerate() {
            if host == from_host
                || banned_hosts.contains(&host)
                || excluded.contains(&(vm, host))
                || snapshot.free_capacity(host) < spec.capacity
                || deps.conflicts_on_host(vm, host, snapshot)
            {
                continue;
            }
            let to_rack = snapshot.rack_of_host(host);
            if !metric.reachable(from_rack, to_rack) {
                continue;
            }
            let chi = deps.chi(vm, to_rack, snapshot);
            let c = metric.migration_cost(sim, spec.capacity, from_rack, to_rack, chi);
            let post_util =
                (snapshot.used_capacity(host) + spec.capacity) / snapshot.host_capacity(host);
            cost[i][j] = c;
            adjusted[i][j] = c + sim.load_balance_weight * post_util;
        }
    }
    let (assignment, _) = min_cost_assignment_padded(&adjusted);
    let mut proposals = Vec::new();
    let mut unassigned = Vec::new();
    for (i, assigned) in assignment.into_iter().enumerate() {
        match assigned {
            Some(j) => proposals.push(Proposal {
                vm: pending[i],
                dest: slot_hosts[j],
                cost: cost[i][j],
            }),
            None => unassigned.push(pending[i]),
        }
    }
    (proposals, unassigned, search_space)
}
