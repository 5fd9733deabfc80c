//! Always-on invariant auditor: a cheap post-round consistency check.
//!
//! Every `Runtime::step` can afford one linear pass over the placement
//! after mutating it. The auditor verifies the invariants the paper's
//! constraints (Eqn. 7/8) and our crash-consistency machinery promise —
//! no VM lost or duplicated, no host over capacity, no dependent pair
//! co-located, no migration landing on an offline host, and journal /
//! placement agreement — and reports violations as typed values instead
//! of panicking, so scenario sweeps can surface them as columns.

use crate::journal::{IntentJournal, TxnState};
use crate::protocol::ReqId;
use dcn_topology::{DependencyGraph, HostId, Placement, RackId, VmId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// One invariant breach found by the auditor.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A VM id exists but no host's resident list contains it.
    VmLost {
        /// The vanished VM.
        vm: VmId,
    },
    /// A VM appears in more than one host's resident list.
    VmDuplicated {
        /// The doubled VM.
        vm: VmId,
    },
    /// A host's used capacity exceeds its physical capacity (Eqn. 8).
    CapacityExceeded {
        /// The overfull host.
        host: HostId,
        /// Capacity in use.
        used: f64,
        /// Physical limit.
        limit: f64,
    },
    /// Two dependent VMs share a host (χ constraint, Eqn. 7).
    DependentsColocated {
        /// The shared host.
        host: HostId,
        /// First VM of the dependent pair.
        a: VmId,
        /// Second VM of the dependent pair.
        b: VmId,
    },
    /// A committed migration landed a VM on an offline host.
    OfflineHostGainedVm {
        /// The offline destination.
        host: HostId,
        /// The VM that moved there.
        vm: VmId,
    },
    /// A transaction is still `Prepared` after the round settled.
    UnresolvedTxn {
        /// The zombie transaction.
        req: ReqId,
        /// The VM it holds hostage.
        vm: VmId,
    },
    /// Two shims both claim management of the same VM — a takeover or
    /// partition/heal cycle handed a rack to a new manager without
    /// fencing the old one.
    VmDoubleManaged {
        /// The doubly-managed VM.
        vm: VmId,
        /// First rack claiming it.
        a: RackId,
        /// Second rack claiming it.
        b: RackId,
    },
    /// An in-flight transfer is still streaming across a failed link —
    /// the link-failure propagation into the transfer scheduler missed
    /// it, so its rate is a fiction.
    TransferOnFailedLink {
        /// Scheduler id of the streaming transfer.
        req: u64,
        /// The failed link it still traverses.
        link: usize,
    },
    /// An active transfer has no matching `Prepared` journal entry — its
    /// 2PC context was lost, so neither commit nor abort can settle it.
    TransferWithoutPrepare {
        /// Scheduler id of the orphaned transfer.
        req: u64,
    },
    /// The latest committed journal record for a VM disagrees with the
    /// placement about where the VM lives.
    JournalPlacementMismatch {
        /// The disagreeing transaction.
        req: ReqId,
        /// The disputed VM.
        vm: VmId,
        /// Where the journal says it is.
        journal_host: HostId,
        /// Where the placement says it is.
        placement_host: HostId,
    },
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::VmLost { vm } => write!(f, "{vm} lost: no host lists it"),
            AuditViolation::VmDuplicated { vm } => write!(f, "{vm} duplicated across hosts"),
            AuditViolation::CapacityExceeded { host, used, limit } => {
                write!(f, "{host} over capacity: {used:.2} > {limit:.2}")
            }
            AuditViolation::DependentsColocated { host, a, b } => {
                write!(f, "dependent {a}/{b} co-located on {host}")
            }
            AuditViolation::OfflineHostGainedVm { host, vm } => {
                write!(f, "offline {host} gained {vm}")
            }
            AuditViolation::UnresolvedTxn { req, vm } => {
                write!(f, "{req} still prepared, holds {vm}")
            }
            AuditViolation::VmDoubleManaged { vm, a, b } => {
                write!(f, "{vm} managed by both {a} and {b}")
            }
            AuditViolation::TransferOnFailedLink { req, link } => {
                write!(f, "transfer {req} streams across failed link {link}")
            }
            AuditViolation::TransferWithoutPrepare { req } => {
                write!(f, "transfer {req} active with no prepared journal entry")
            }
            AuditViolation::JournalPlacementMismatch {
                req,
                vm,
                journal_host,
                placement_host,
            } => write!(
                f,
                "{req}: journal puts {vm} on {journal_host}, placement on {placement_host}"
            ),
        }
    }
}

/// Outcome of one auditor pass — clean when `violations` is empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Every invariant breach found, in check order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// Whether every audited invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of breaches found.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// Whether the report holds no violations.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another report's findings into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("audit: clean");
        }
        writeln!(f, "audit: {} violation(s)", self.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Core placement invariants: every VM on exactly one host, no host over
/// capacity, no dependent pair co-located. O(vms + hosts).
pub fn audit_placement(placement: &Placement, deps: &DependencyGraph) -> AuditReport {
    let mut report = AuditReport::default();
    let mut seen: HashMap<VmId, usize> = HashMap::new();
    for h in 0..placement.host_count() {
        let h = HostId::from_index(h);
        for &vm in placement.vms_on(h) {
            *seen.entry(vm).or_insert(0) += 1;
        }
        let used = placement.used_capacity(h);
        let limit = placement.host_capacity(h);
        if used > limit + 1e-9 {
            report.violations.push(AuditViolation::CapacityExceeded {
                host: h,
                used,
                limit,
            });
        }
        let residents = placement.vms_on(h);
        for (i, &a) in residents.iter().enumerate() {
            for &b in &residents[i + 1..] {
                if deps.dependent(a, b) {
                    report
                        .violations
                        .push(AuditViolation::DependentsColocated { host: h, a, b });
                }
            }
        }
    }
    for vm in placement.vm_ids() {
        match seen.get(&vm).copied().unwrap_or(0) {
            0 => report.violations.push(AuditViolation::VmLost { vm }),
            1 => {}
            _ => report.violations.push(AuditViolation::VmDuplicated { vm }),
        }
    }
    report
}

/// Check that no committed move of this round landed on an offline host
/// (the `host_online` gate of the PREPARE path must have held).
pub fn audit_moves<I>(placement: &Placement, moves: I) -> AuditReport
where
    I: IntoIterator<Item = (VmId, HostId)>,
{
    let mut report = AuditReport::default();
    for (vm, to) in moves {
        if !placement.is_host_online(to) {
            report
                .violations
                .push(AuditViolation::OfflineHostGainedVm { host: to, vm });
        }
    }
    report
}

/// Journal/placement agreement: after settlement no transaction may be
/// left `Prepared`, and for each VM the latest committed record must
/// match where the placement says the VM lives. Later higher-id aborted
/// records are fine — rollback restores the previous committed
/// destination.
pub fn audit_journals<'a, I>(placement: &Placement, journals: I) -> AuditReport
where
    I: IntoIterator<Item = &'a IntentJournal>,
{
    let mut report = AuditReport::default();
    // latest committed record per VM across all journals; req ids of one
    // VM always come from its own rack's shim, so the id order is the
    // decision order. `BTreeMap` keeps the final iteration (and thus the
    // violation order in the report) deterministic (DET02).
    let mut latest: BTreeMap<VmId, (ReqId, HostId)> = BTreeMap::new();
    let mut rolled_back: BTreeMap<VmId, ReqId> = BTreeMap::new();
    for journal in journals {
        for (req, rec) in journal.records() {
            match rec.state {
                TxnState::Prepared => report
                    .violations
                    .push(AuditViolation::UnresolvedTxn { req, vm: rec.vm }),
                TxnState::Committed => {
                    let e = latest.entry(rec.vm).or_insert((req, rec.dst));
                    if req >= e.0 {
                        *e = (req, rec.dst);
                    }
                }
                TxnState::Aborted => {
                    let e = rolled_back.entry(rec.vm).or_insert(req);
                    if req > *e {
                        *e = req;
                    }
                }
            }
        }
    }
    for (vm, (req, dst)) in latest {
        // a later rolled-back attempt legitimately moved the VM back off
        // the committed destination
        if rolled_back.get(&vm).is_some_and(|&r| r > req) {
            continue;
        }
        let actual = placement.host_of(vm);
        if actual != dst {
            report
                .violations
                .push(AuditViolation::JournalPlacementMismatch {
                    req,
                    vm,
                    journal_host: dst,
                    placement_host: actual,
                });
        }
    }
    report
}

/// Exclusive management: across all shims, no VM may be claimed —
/// pending, in flight, or parked — by more than one manager at once.
/// Takes `(rack, managed VMs)` pairs; the VM lists need not be sorted.
/// A takeover or partition/heal cycle that leaves a VM on two managers'
/// books would let both replan the same VM and race their 2PC
/// transactions, so the failover machinery must keep the sets disjoint.
pub fn audit_managers<I, V>(claims: I) -> AuditReport
where
    I: IntoIterator<Item = (RackId, V)>,
    V: IntoIterator<Item = VmId>,
{
    let mut report = AuditReport::default();
    let mut owner: BTreeMap<VmId, RackId> = BTreeMap::new();
    let mut flagged: BTreeSet<(VmId, RackId)> = BTreeSet::new();
    for (rack, vms) in claims {
        for vm in vms {
            match owner.get(&vm) {
                Some(&first) if first != rack => {
                    // one violation per conflicting (vm, claimant) pair —
                    // a claimant listing the VM twice is not two conflicts
                    if flagged.insert((vm, rack)) {
                        report.violations.push(AuditViolation::VmDoubleManaged {
                            vm,
                            a: first,
                            b: rack,
                        });
                    }
                }
                Some(_) => {}
                None => {
                    owner.insert(vm, rack);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{Inventory, RackId, VmSpec};

    fn cluster() -> (Placement, DependencyGraph) {
        let mut inv = Inventory::new();
        inv.add_rack(3, 10.0);
        let mut p = Placement::new(&inv);
        for _ in 0..2 {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: 4.0,
                value: 1.0,
                delay_sensitive: false,
            };
            p.add_vm(s, HostId(0)).unwrap();
        }
        (p, DependencyGraph::new(2))
    }

    #[test]
    fn healthy_placement_audits_clean() {
        let (p, deps) = cluster();
        let report = audit_placement(&p, &deps);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn colocated_dependents_are_flagged() {
        let (p, mut deps) = cluster();
        deps.add_dependency(VmId(0), VmId(1));
        let report = audit_placement(&p, &deps);
        assert_eq!(
            report.violations,
            vec![AuditViolation::DependentsColocated {
                host: HostId(0),
                a: VmId(0),
                b: VmId(1),
            }]
        );
    }

    #[test]
    fn offline_destination_is_flagged() {
        let (mut p, _) = cluster();
        p.set_host_online(HostId(1), false);
        let report = audit_moves(&p, [(VmId(0), HostId(1)), (VmId(1), HostId(2))]);
        assert_eq!(
            report.violations,
            vec![AuditViolation::OfflineHostGainedVm {
                host: HostId(1),
                vm: VmId(0),
            }]
        );
    }

    #[test]
    fn unresolved_and_mismatched_journals_are_flagged() {
        let (mut p, _) = cluster();
        let mut j = IntentJournal::new();
        // committed record agreeing with the placement: clean
        p.migrate(VmId(0), HostId(1)).unwrap();
        j.prepare(
            ReqId::new(RackId(0), 0),
            VmId(0),
            HostId(0),
            HostId(1),
            10,
            0,
        );
        j.commit(ReqId::new(RackId(0), 0));
        assert!(audit_journals(&p, [&j]).is_clean());
        // a zombie prepare is unresolved
        j.prepare(
            ReqId::new(RackId(0), 1),
            VmId(1),
            HostId(0),
            HostId(2),
            10,
            0,
        );
        let report = audit_journals(&p, [&j]);
        assert_eq!(report.len(), 1);
        assert!(matches!(
            report.violations[0],
            AuditViolation::UnresolvedTxn { vm: VmId(1), .. }
        ));
        // committed record contradicted by the placement
        j.commit(ReqId::new(RackId(0), 1));
        let report = audit_journals(&p, [&j]);
        assert!(matches!(
            report.violations[0],
            AuditViolation::JournalPlacementMismatch { vm: VmId(1), .. }
        ));
    }

    #[test]
    fn double_management_is_flagged_once_per_pair() {
        let clean = audit_managers([
            (RackId(0), vec![VmId(0), VmId(1)]),
            (RackId(1), vec![VmId(2)]),
        ]);
        assert!(clean.is_clean(), "{clean}");
        let report = audit_managers([
            (RackId(0), vec![VmId(0), VmId(1)]),
            (RackId(1), vec![VmId(1)]),
            // the same rack listing a VM twice is not double management
            (RackId(1), vec![VmId(1)]),
        ]);
        assert_eq!(
            report.violations,
            vec![AuditViolation::VmDoubleManaged {
                vm: VmId(1),
                a: RackId(0),
                b: RackId(1),
            }]
        );
    }

    #[test]
    fn rolled_back_retry_does_not_contradict_earlier_commit() {
        let (mut p, _) = cluster();
        let mut j = IntentJournal::new();
        j.prepare(
            ReqId::new(RackId(0), 0),
            VmId(0),
            HostId(0),
            HostId(1),
            10,
            0,
        );
        p.migrate(VmId(0), HostId(1)).unwrap();
        j.commit(ReqId::new(RackId(0), 0));
        // a later attempt prepared then rolled back: VM returns to host 1
        let mut j2 = IntentJournal::new();
        let (mut p2, deps) = (p.clone(), DependencyGraph::new(2));
        p2.migrate(VmId(0), HostId(2)).unwrap();
        j2.prepare(
            ReqId::new(RackId(0), 1),
            VmId(0),
            HostId(1),
            HostId(2),
            10,
            0,
        );
        j2.abort(&mut p2, &deps, ReqId::new(RackId(0), 1));
        assert!(audit_journals(&p2, [&j, &j2]).is_clean());
    }
}
