//! Per-shim write-ahead intent journal for crash-consistent migrations.
//!
//! The destination shim records every accepted PREPARE as a durable
//! intent *before* answering, then marks it `Committed` or `Aborted` when
//! the second phase resolves. A shim that crashes mid-transaction replays
//! the journal on recovery: committed transfers are re-ACKed (the ACK may
//! have died with the shim), prepares whose lease has lapsed are aborted
//! (rolled back, or committed forward when rollback is impossible), and
//! in-lease prepares are kept alive for the source's retransmitted
//! COMMIT. The journal is the ground truth the invariant auditor checks
//! placements against.

use crate::protocol::ReqId;
use dcn_topology::{DependencyGraph, HostId, Placement, VmId};
use std::collections::BTreeMap;

/// Lifecycle state of one journalled migration transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Intent recorded and placement mutated; awaiting COMMIT or ABORT.
    Prepared,
    /// Second phase confirmed the move; the placement change is final.
    Committed,
    /// The move was undone (or forcibly finished — see `forwarded`).
    Aborted,
}

/// One journal entry: the intent of a migration plus its 2PC state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnRecord {
    /// VM the transaction moves.
    pub vm: VmId,
    /// Host the VM came from (rollback target).
    pub src: HostId,
    /// Host the PREPARE moved it to.
    pub dst: HostId,
    /// Virtual time past which an un-committed prepare is orphaned.
    pub lease: u64,
    /// Source rack's epoch the PREPARE was journalled under; a COMMIT
    /// carrying an older epoch is fenced, and re-integration aborts
    /// prepares whose source rack's epoch has since advanced.
    pub epoch: u64,
    /// Where the transaction is in its lifecycle.
    pub state: TxnState,
}

/// What happened to a prepared transaction when it was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortOutcome {
    /// The VM was migrated back to its source host.
    RolledBack,
    /// Rollback was impossible (source host offline, capacity reclaimed
    /// or a dependent VM landed there); the move was committed forward
    /// instead — never a lost or duplicated VM.
    Forwarded,
    /// The id was unknown or already resolved; nothing changed.
    NotPrepared,
}

/// Counters describing one journal replay after a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal entries walked during replay.
    pub replayed: usize,
    /// Committed transactions whose ACK must be retransmitted, in
    /// deterministic (req-id) order.
    pub reacks: Vec<ReqId>,
    /// Prepares aborted because their lease lapsed while down.
    pub lease_aborts: Vec<(ReqId, VmId)>,
    /// Prepares aborted because their source rack's epoch advanced while
    /// the shim was down (the source was taken over).
    pub epoch_aborts: Vec<(ReqId, VmId)>,
    /// Aborts that had to commit forward instead of rolling back.
    pub forwarded: usize,
}

/// Write-ahead intent journal of one rack's delegation node.
#[derive(Debug, Clone, Default)]
pub struct IntentJournal {
    entries: BTreeMap<ReqId, TxnRecord>,
    forwarded: usize,
}

impl IntentJournal {
    /// Fresh, empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the intent of an accepted PREPARE. The placement mutation
    /// has already happened; this makes it survivable. `epoch` is the
    /// source rack's epoch the PREPARE was sent under.
    pub fn prepare(
        &mut self,
        id: ReqId,
        vm: VmId,
        src: HostId,
        dst: HostId,
        lease: u64,
        epoch: u64,
    ) {
        self.entries.insert(
            id,
            TxnRecord {
                vm,
                src,
                dst,
                lease,
                epoch,
                state: TxnState::Prepared,
            },
        );
    }

    /// Look up a transaction's current state.
    pub fn state(&self, id: ReqId) -> Option<TxnState> {
        self.entries.get(&id).map(|e| e.state)
    }

    /// Look up a transaction's full record.
    pub fn get(&self, id: ReqId) -> Option<&TxnRecord> {
        self.entries.get(&id)
    }

    /// Push a prepared transaction's lease out to `until` (used while a
    /// committed migration's pre-copy streams: the transfer scheduler
    /// owns its fate, so the lease sweep must not abort it mid-flight).
    /// Returns `false` if the id is unknown or not in `Prepared`.
    pub fn extend_lease(&mut self, id: ReqId, until: u64) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) if e.state == TxnState::Prepared => {
                e.lease = e.lease.max(until);
                true
            }
            _ => false,
        }
    }

    /// Finish a prepared transaction. Returns `false` if the id is
    /// unknown or the transaction was not in `Prepared`.
    pub fn commit(&mut self, id: ReqId) -> bool {
        match self.entries.get_mut(&id) {
            Some(e) if e.state == TxnState::Prepared => {
                e.state = TxnState::Committed;
                true
            }
            _ => false,
        }
    }

    /// Abort a prepared transaction, undoing its placement mutation.
    /// Rollback re-migrates the VM to its recorded source; when that is
    /// impossible (offline source, reclaimed capacity, new dependency
    /// conflict) the transaction is committed forward instead, which
    /// keeps the placement consistent at the cost of an unplanned move.
    pub fn abort(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        id: ReqId,
    ) -> AbortOutcome {
        let Some(e) = self.entries.get_mut(&id) else {
            return AbortOutcome::NotPrepared;
        };
        if e.state != TxnState::Prepared {
            return AbortOutcome::NotPrepared;
        }
        // only undo a mutation that is still in effect: if a later
        // transaction already moved the VM off our destination, the
        // prepare was superseded and there is nothing left to undo
        if placement.host_of(e.vm) != e.dst {
            e.state = TxnState::Aborted;
            return AbortOutcome::RolledBack;
        }
        let can_roll_back = !deps.conflicts_on_host(e.vm, e.src, placement)
            && placement.migrate(e.vm, e.src).is_ok();
        if can_roll_back {
            e.state = TxnState::Aborted;
            AbortOutcome::RolledBack
        } else {
            e.state = TxnState::Committed;
            self.forwarded += 1;
            AbortOutcome::Forwarded
        }
    }

    /// Abort every prepared transaction whose lease is `<= now`.
    /// Returns the aborted `(req_id, vm)` pairs in req-id order.
    pub fn expire_leases(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        now: u64,
    ) -> Vec<(ReqId, VmId)> {
        let expired: Vec<(ReqId, VmId)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state == TxnState::Prepared && e.lease <= now)
            .map(|(&id, e)| (id, e.vm))
            .collect();
        for &(id, _) in &expired {
            self.abort(placement, deps, id);
        }
        expired
    }

    /// Replay the journal after a crash: re-ACK committed transfers,
    /// abort prepares whose lease lapsed while the shim was down, and
    /// keep in-lease prepares alive for the retransmitted COMMIT. Every
    /// prepare journalled under an epoch older than its source rack's
    /// current epoch (per `epochs`; racks absent from the map are at
    /// epoch 0) is aborted even while its lease is live — the source shim
    /// was taken over, so the COMMIT it owed will never legitimately
    /// arrive. Rollback when possible, commit-forward when not: the
    /// re-integration choice is made per entry, never losing or
    /// duplicating a VM.
    pub fn recover_with_epochs(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        now: u64,
        epochs: &BTreeMap<dcn_topology::RackId, u64>,
    ) -> RecoveryReport {
        let mut report = RecoveryReport {
            replayed: self.entries.len(),
            ..RecoveryReport::default()
        };
        let forwarded_before = self.forwarded;
        report.reacks = self
            .entries
            .iter()
            .filter(|(_, e)| e.state == TxnState::Committed)
            .map(|(&id, _)| id)
            .collect();
        let stale: Vec<(ReqId, VmId)> = self
            .entries
            .iter()
            .filter(|(id, e)| {
                e.state == TxnState::Prepared
                    && e.epoch < epochs.get(&id.source()).copied().unwrap_or(0)
            })
            .map(|(&id, e)| (id, e.vm))
            .collect();
        for &(id, _) in &stale {
            self.abort(placement, deps, id);
        }
        report.epoch_aborts = stale;
        report.lease_aborts = self.expire_leases(placement, deps, now);
        report.forwarded = self.forwarded - forwarded_before;
        report
    }

    /// The earliest lease deadline among transactions still in
    /// `Prepared`, or `None` when nothing is in-lease. An event loop that
    /// wakes [`IntentJournal::expire_leases`] at this tick aborts the
    /// same orphans as one sweeping every tick (expiry fires when
    /// `lease <= now` and leases only change via prepare/commit/abort).
    pub fn next_lease(&self) -> Option<u64> {
        self.entries
            .values()
            .filter(|e| e.state == TxnState::Prepared)
            .map(|e| e.lease)
            .min()
    }

    /// Iterate all records in req-id order (the auditor's view).
    pub fn records(&self) -> impl Iterator<Item = (ReqId, &TxnRecord)> + '_ {
        self.entries.iter().map(|(&id, e)| (id, e))
    }

    /// Transactions still in `Prepared` — zero once a round settles.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == TxnState::Prepared)
            .count()
    }

    /// Transactions that finished in `Committed`.
    #[cfg(test)]
    pub fn committed(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == TxnState::Committed)
            .count()
    }

    /// Lease-aborts that committed forward because rollback failed.
    #[cfg(test)]
    pub fn forwarded(&self) -> usize {
        self.forwarded
    }

    /// Total transactions ever journalled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been journalled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{Inventory, RackId, VmSpec};

    fn small() -> (Placement, DependencyGraph) {
        let mut inv = Inventory::new();
        inv.add_rack(3, 10.0);
        let mut p = Placement::new(&inv);
        let s = VmSpec {
            id: p.next_vm_id(),
            capacity: 6.0,
            value: 1.0,
            delay_sensitive: false,
        };
        p.add_vm(s, HostId(0)).unwrap();
        (p, DependencyGraph::new(1))
    }

    fn id(seq: u32) -> ReqId {
        ReqId::new(RackId(0), seq)
    }

    #[test]
    fn prepare_commit_lifecycle() {
        let mut j = IntentJournal::new();
        j.prepare(id(0), VmId(0), HostId(0), HostId(1), 10, 0);
        assert_eq!(j.state(id(0)), Some(TxnState::Prepared));
        assert_eq!(j.pending(), 1);
        assert!(j.commit(id(0)));
        assert_eq!(j.state(id(0)), Some(TxnState::Committed));
        assert!(!j.commit(id(0)), "double commit is a no-op");
        assert_eq!(j.committed(), 1);
        assert_eq!(j.pending(), 0);
    }

    #[test]
    fn abort_rolls_the_vm_back() {
        let (mut p, deps) = small();
        p.migrate(VmId(0), HostId(1)).unwrap(); // the PREPARE's mutation
        let mut j = IntentJournal::new();
        j.prepare(id(0), VmId(0), HostId(0), HostId(1), 10, 0);
        assert_eq!(j.abort(&mut p, &deps, id(0)), AbortOutcome::RolledBack);
        assert_eq!(p.host_of(VmId(0)), HostId(0));
        assert_eq!(j.state(id(0)), Some(TxnState::Aborted));
        assert_eq!(j.abort(&mut p, &deps, id(0)), AbortOutcome::NotPrepared);
    }

    #[test]
    fn abort_commits_forward_when_source_is_offline() {
        let (mut p, deps) = small();
        p.migrate(VmId(0), HostId(1)).unwrap();
        p.set_host_online(HostId(0), false); // rollback target dies
        let mut j = IntentJournal::new();
        j.prepare(id(0), VmId(0), HostId(0), HostId(1), 10, 0);
        assert_eq!(j.abort(&mut p, &deps, id(0)), AbortOutcome::Forwarded);
        assert_eq!(p.host_of(VmId(0)), HostId(1), "VM stays put, never lost");
        assert_eq!(j.state(id(0)), Some(TxnState::Committed));
        assert_eq!(j.forwarded(), 1);
    }

    #[test]
    fn recovery_reacks_committed_and_aborts_expired() {
        let (mut p, deps) = small();
        p.migrate(VmId(0), HostId(1)).unwrap();
        let mut j = IntentJournal::new();
        // committed transfer whose ACK may have been lost
        j.prepare(id(0), VmId(0), HostId(0), HostId(1), 5, 0);
        j.commit(id(0));
        // orphaned prepare: lease 8 lapsed while the shim was down
        p.migrate(VmId(0), HostId(2)).unwrap();
        j.prepare(id(1), VmId(0), HostId(1), HostId(2), 8, 0);
        let rep = j.recover_with_epochs(&mut p, &deps, 20, &BTreeMap::new());
        assert_eq!(rep.replayed, 2);
        assert_eq!(rep.reacks, vec![id(0)]);
        assert_eq!(rep.lease_aborts, vec![(id(1), VmId(0))]);
        assert_eq!(rep.forwarded, 0);
        assert_eq!(p.host_of(VmId(0)), HostId(1), "orphan rolled back");
        assert_eq!(j.pending(), 0, "no transaction left prepared");
    }

    #[test]
    fn reintegration_aborts_prepares_from_a_superseded_epoch() {
        let (mut p, deps) = small();
        p.migrate(VmId(0), HostId(1)).unwrap();
        let mut j = IntentJournal::new();
        // prepared under epoch 0, lease far in the future
        j.prepare(id(0), VmId(0), HostId(0), HostId(1), 100, 0);
        // rack 0 was taken over: its epoch is now 1
        let epochs = BTreeMap::from([(RackId(0), 1u64)]);
        let rep = j.recover_with_epochs(&mut p, &deps, 10, &epochs);
        assert_eq!(rep.epoch_aborts, vec![(id(0), VmId(0))]);
        assert_eq!(p.host_of(VmId(0)), HostId(0), "stale prepare rolled back");
        assert_eq!(j.state(id(0)), Some(TxnState::Aborted));
        // same-epoch prepares are untouched
        p.migrate(VmId(0), HostId(1)).unwrap();
        j.prepare(id(1), VmId(0), HostId(0), HostId(1), 100, 1);
        let rep = j.recover_with_epochs(&mut p, &deps, 10, &epochs);
        assert!(rep.epoch_aborts.is_empty());
        assert_eq!(j.state(id(1)), Some(TxnState::Prepared));
    }

    #[test]
    fn in_lease_prepare_survives_recovery() {
        let (mut p, deps) = small();
        p.migrate(VmId(0), HostId(1)).unwrap();
        let mut j = IntentJournal::new();
        j.prepare(id(0), VmId(0), HostId(0), HostId(1), 100, 0);
        let rep = j.recover_with_epochs(&mut p, &deps, 20, &BTreeMap::new());
        assert!(rep.lease_aborts.is_empty());
        assert_eq!(j.state(id(0)), Some(TxnState::Prepared));
        assert_eq!(p.host_of(VmId(0)), HostId(1));
    }
}
