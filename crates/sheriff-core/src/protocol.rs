//! Typed shim-to-shim messages and the endpoint logic that keeps Alg. 4
//! correct over an unreliable channel.
//!
//! The paper's negotiation (Sec. II-B/V-B) assumes REQUEST/ACK/REJECT
//! exchanges always arrive; Sec. III-A waves crashes off to a "backup
//! system". This module supplies the missing machinery: request ids and a
//! dedup log make the destination commit idempotent (a retransmitted or
//! duplicated REQUEST can never double-book Eqn. 8 capacity), exponential
//! backoff with deterministic jitter paces retransmissions, and a
//! heartbeat ledger lets a source shim exclude dead neighbours from its
//! matching instead of waiting on them forever.

use crate::fabric::LIVENESS_DEADLINE;
use crate::journal::{AbortOutcome, IntentJournal, RecoveryReport, TxnState};
use crate::request::request_migration;
use dcn_sim::{mix64, GOLDEN_GAMMA};
use dcn_topology::{DependencyGraph, HostId, Placement, RackId, VmId};
use sheriff_obs::RejectKind;
use std::collections::HashMap;
use std::fmt;

/// Globally unique id of one migration REQUEST. Encodes the source shim's
/// rack in the high half and a per-shim sequence number in the low half,
/// so concurrent shims can mint ids without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

impl ReqId {
    /// Mint the `seq`-th request id of `source`'s shim.
    pub fn new(source: RackId, seq: u32) -> Self {
        Self(((source.index() as u64) << 32) | seq as u64)
    }

    /// The rack whose shim issued this request.
    pub fn source(self) -> RackId {
        RackId::from_index((self.0 >> 32) as usize)
    }
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req:{}#{}", self.source(), self.0 as u32)
    }
}

/// One message on the shim control plane.
///
/// Every variant carries the sender's view of its own rack's epoch so a
/// receiver can fence messages minted before a takeover; `Reject` with
/// [`RejectKind::Stale`] instead carries the *receiver's* current
/// epoch so the fenced sender can adopt it. Pre-failover traffic carries
/// epoch 0 everywhere, which compares equal and changes nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShimMsg {
    /// A liveness beacon, sent by every live shim at the round's start
    /// and once per heartbeat period after.
    Beacon {
        /// The beaconing shim's rack.
        rack: RackId,
        /// The beaconing shim's view of its own rack's epoch.
        epoch: u64,
    },
    /// The destination committed the migration.
    Ack {
        /// Id of the accepted request.
        req_id: ReqId,
        /// The sender's view of its own rack's epoch.
        epoch: u64,
    },
    /// The destination refused the migration; the source must replan.
    Reject {
        /// Id of the refused request.
        req_id: ReqId,
        /// Why it was refused.
        reason: RejectKind,
        /// The sender's epoch — for `Stale` this is the fencing
        /// rack's *current* epoch, which the fenced sender must adopt.
        epoch: u64,
    },
    /// Phase 1 of a crash-consistent migration (Alg. 4's REQUEST): ask
    /// the destination to reserve the move and journal the intent.
    /// Retransmissions reuse the same `req_id`.
    Prepare {
        /// Transaction id (stable across retransmissions).
        req_id: ReqId,
        /// The VM to migrate.
        vm: VmId,
        /// The host it should land on.
        dest: HostId,
        /// Virtual time after which an orphaned prepare self-aborts.
        lease: u64,
        /// The sender's view of its own rack's epoch.
        epoch: u64,
    },
    /// The destination journalled the intent and voted yes.
    PrepareOk {
        /// Id of the prepared transaction.
        req_id: ReqId,
        /// The sender's view of its own rack's epoch.
        epoch: u64,
    },
    /// Phase 2: finalize a prepared transaction. Answered with `Ack`.
    Commit {
        /// Id of the transaction to finish.
        req_id: ReqId,
        /// The sender's view of its own rack's epoch.
        epoch: u64,
    },
    /// The source walked away; undo the prepared transaction.
    Abort {
        /// Id of the transaction to undo.
        req_id: ReqId,
        /// The sender's view of its own rack's epoch.
        epoch: u64,
    },
}

impl ShimMsg {
    /// The epoch the message carries, whatever the variant.
    pub fn epoch(&self) -> u64 {
        match self {
            ShimMsg::Beacon { epoch, .. }
            | ShimMsg::Ack { epoch, .. }
            | ShimMsg::Reject { epoch, .. }
            | ShimMsg::Prepare { epoch, .. }
            | ShimMsg::PrepareOk { epoch, .. }
            | ShimMsg::Commit { epoch, .. }
            | ShimMsg::Abort { epoch, .. } => *epoch,
        }
    }
}

/// The destination's answer to one delivered 2PC message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPhaseReply {
    /// PREPARE accepted: intent journalled, placement reserved.
    PrepareOk,
    /// COMMIT applied (or replayed); the transaction is final.
    Ack,
    /// The message was refused; the payload says why.
    Reject(RejectKind),
}

/// First-attempt reply deadline in ticks; exceeds one round trip.
pub(crate) const BACKOFF_BASE: u64 = 8;
/// Upper bound on the exponential backoff term, in ticks.
pub(crate) const BACKOFF_CAP: u64 = 64;
/// Total send attempts before a source gives up on a request.
pub(crate) const MAX_ATTEMPTS: u32 = 4;

/// Ticks to wait for a reply to attempt `attempt` (0-based) of `req_id`:
/// exponential backoff with deterministic jitter.
///
/// Attempt `n` waits `BACKOFF_BASE · 2ⁿ` ticks (capped at
/// [`BACKOFF_CAP`]) plus a jitter in `[0, BACKOFF_BASE)` hashed from
/// `(req_id, attempt)` — deterministic for reproducibility, yet
/// decorrelated across requests so synchronized timeouts don't
/// retransmit in lockstep.
pub(crate) fn backoff_delay(attempt: u32, req_id: ReqId) -> u64 {
    let exp = BACKOFF_BASE
        .saturating_mul(1u64 << attempt.min(16))
        .min(BACKOFF_CAP);
    // SplitMix64 over (req_id, attempt): stable, but different requests
    // back off on different schedules
    let z = mix64(req_id.0 ^ (attempt as u64 + 1).wrapping_mul(GOLDEN_GAMMA));
    exp + z % BACKOFF_BASE
}

/// Replay log for refused transactions: the first refusal of a
/// `req_id` is recorded and every later copy of that PREPARE —
/// retransmission or channel duplicate — gets the same REJECT back
/// without running Alg. 4 again. (Accepted transactions replay from the
/// intent journal instead.)
#[derive(Debug, Clone, Default)]
pub(crate) struct DedupLog {
    seen: HashMap<ReqId, RejectKind>,
    hits: usize,
}

impl DedupLog {
    /// Look up a previously refused transaction, counting a hit if found.
    pub fn replay(&mut self, id: ReqId) -> Option<RejectKind> {
        let v = self.seen.get(&id).copied();
        if v.is_some() {
            self.hits += 1;
        }
        v
    }

    /// Record the refusal of a fresh transaction.
    pub fn record(&mut self, id: ReqId, reason: RejectKind) {
        self.seen.insert(id, reason);
    }

    /// How many duplicate messages were absorbed.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Count a duplicate that was absorbed outside the log itself (e.g.
    /// replayed from the intent journal instead).
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }
}

/// A rack's delegation node: the destination side of Alg. 4 as two-phase
/// commit, hardened with the dedup log and the intent journal so it is
/// safe to call once per *delivered copy* of a message rather than once
/// per transaction.
#[derive(Debug, Clone)]
pub(crate) struct ShimEndpoint {
    /// The rack this endpoint speaks for.
    pub rack: RackId,
    dedup: DedupLog,
    journal: IntentJournal,
}

impl ShimEndpoint {
    /// Endpoint for one rack.
    pub fn new(rack: RackId) -> Self {
        Self {
            rack,
            dedup: DedupLog::default(),
            journal: IntentJournal::new(),
        }
    }

    /// Decide one delivered PREPARE copy. A fresh prepare runs Alg. 4,
    /// reserves the move in the placement and journals the intent (with
    /// the sender's epoch) before voting yes; duplicates replay the
    /// journalled decision, and prepares for an already aborted
    /// transaction are refused with `Expired` (presumed abort).
    #[allow(clippy::too_many_arguments)] // the 2PC wire fields + epoch fence
    pub fn handle_prepare(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        req_id: ReqId,
        vm: VmId,
        dest: HostId,
        lease: u64,
        epoch: u64,
    ) -> TwoPhaseReply {
        match self.journal.state(req_id) {
            Some(TxnState::Prepared) => {
                self.dedup.note_hit();
                return TwoPhaseReply::PrepareOk;
            }
            Some(TxnState::Committed) => {
                self.dedup.note_hit();
                return TwoPhaseReply::Ack;
            }
            Some(TxnState::Aborted) => return TwoPhaseReply::Reject(RejectKind::Expired),
            None => {}
        }
        if let Some(reason) = self.dedup.replay(req_id) {
            return TwoPhaseReply::Reject(reason);
        }
        let src = placement.host_of(vm);
        match request_migration(placement, deps, vm, dest) {
            Ok(()) => {
                self.journal.prepare(req_id, vm, src, dest, lease, epoch);
                TwoPhaseReply::PrepareOk
            }
            Err(reason) => {
                self.dedup.record(req_id, reason);
                TwoPhaseReply::Reject(reason)
            }
        }
    }

    /// Decide one delivered COMMIT copy: finalize a prepared transaction
    /// (idempotently re-ACK a committed one); a commit for an aborted or
    /// unknown transaction is refused with `Expired`, and a commit
    /// carrying an epoch *older* than the one its own prepare was
    /// journalled under is refused with `Stale` — the journal-level
    /// backstop behind the loop-level fence.
    pub fn handle_commit(&mut self, req_id: ReqId, epoch: u64) -> TwoPhaseReply {
        match self.journal.state(req_id) {
            Some(TxnState::Prepared) => {
                if self.journal.get(req_id).is_some_and(|r| epoch < r.epoch) {
                    return TwoPhaseReply::Reject(RejectKind::Stale);
                }
                self.journal.commit(req_id);
                TwoPhaseReply::Ack
            }
            Some(TxnState::Committed) => {
                self.dedup.note_hit();
                TwoPhaseReply::Ack
            }
            Some(TxnState::Aborted) | None => TwoPhaseReply::Reject(RejectKind::Expired),
        }
    }

    /// Process one delivered ABORT: undo a prepared transaction (rolling
    /// back, or committing forward if rollback is impossible). An abort
    /// for an unknown id leaves an `Expired` tombstone in the dedup log
    /// so a late retransmitted PREPARE with the same id is refused.
    /// Returns the aborted VM and how the abort resolved, when one was
    /// actually pending.
    pub fn handle_abort(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        req_id: ReqId,
    ) -> Option<(VmId, AbortOutcome)> {
        match self.journal.state(req_id) {
            Some(TxnState::Prepared) => {
                let vm = self.journal.get(req_id).map(|r| r.vm)?;
                let outcome = self.journal.abort(placement, deps, req_id);
                Some((vm, outcome))
            }
            Some(_) => None,
            None => {
                if self.dedup.replay(req_id).is_none() {
                    self.dedup.record(req_id, RejectKind::Expired);
                }
                None
            }
        }
    }

    /// Abort every journalled prepare whose lease is `<= now`.
    pub fn expire_leases(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        now: u64,
    ) -> Vec<(ReqId, VmId)> {
        self.journal.expire_leases(placement, deps, now)
    }

    /// Replay the journal after a crash: re-ACKs to send, orphaned
    /// prepares aborted, in-lease prepares kept — and prepares journalled
    /// under an epoch older than their source rack's current epoch
    /// aborted even when their lease is still live, since the source was
    /// taken over and its COMMIT will never legitimately arrive. Rollback
    /// when possible, commit-forward otherwise.
    pub fn recover_fenced(
        &mut self,
        placement: &mut Placement,
        deps: &DependencyGraph,
        now: u64,
        epochs: &std::collections::BTreeMap<RackId, u64>,
    ) -> RecoveryReport {
        self.journal
            .recover_with_epochs(placement, deps, now, epochs)
    }

    /// Read access to the intent journal (the auditor's input).
    pub fn journal(&self) -> &IntentJournal {
        &self.journal
    }

    /// Extend a prepared transaction's lease to at least `until`. The
    /// fabric calls this when a COMMIT hands the migration to the
    /// transfer scheduler: while the pre-copy streams, the periodic
    /// lease sweep must not abort the reservation out from under it.
    /// Returns `false` when the id is unknown or not `Prepared`.
    pub fn extend_lease(&mut self, id: ReqId, until: u64) -> bool {
        self.journal.extend_lease(id, until)
    }

    /// The earliest lease deadline among still-prepared transactions —
    /// the next tick at which [`ShimEndpoint::expire_leases`] could do
    /// anything, which is what an event-driven sweep schedules on.
    pub fn next_lease(&self) -> Option<u64> {
        self.journal.next_lease()
    }

    /// Build the reply message for a 2PC reply, stamped with the replying
    /// shim's epoch.
    pub fn reply_2pc_msg(req_id: ReqId, reply: TwoPhaseReply, epoch: u64) -> ShimMsg {
        match reply {
            TwoPhaseReply::PrepareOk => ShimMsg::PrepareOk { req_id, epoch },
            TwoPhaseReply::Ack => ShimMsg::Ack { req_id, epoch },
            TwoPhaseReply::Reject(reason) => ShimMsg::Reject {
                req_id,
                reason,
                epoch,
            },
        }
    }

    /// Duplicate requests absorbed by this endpoint.
    pub fn dedup_hits(&self) -> usize {
        self.dedup.hits()
    }
}

/// A source shim's view of which neighbour shims are alive, fed by
/// `Beacon` messages. A rack is alive iff it has been heard from within
/// [`LIVENESS_DEADLINE`] ticks; crashed shims simply fall silent and age
/// out, after which the matching excludes their hosts.
#[derive(Debug, Clone, Default)]
pub(crate) struct Liveness {
    last_seen: HashMap<RackId, u64>,
}

impl Liveness {
    /// Record a beacon from `rack` at `tick`.
    pub fn observe(&mut self, rack: RackId, tick: u64) {
        let e = self.last_seen.entry(rack).or_insert(tick);
        if *e < tick {
            *e = tick;
        }
    }

    /// Forget a rack, e.g. after its requests time out repeatedly — the
    /// degradation ladder's "presume dead" step.
    pub fn presume_dead(&mut self, rack: RackId) {
        self.last_seen.remove(&rack);
    }

    /// Whether `rack` has been heard from within the deadline.
    pub fn alive(&self, rack: RackId, now: u64) -> bool {
        self.last_seen
            .get(&rack)
            .is_some_and(|&seen| now.saturating_sub(seen) <= LIVENESS_DEADLINE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{Inventory, VmSpec};

    fn small() -> (Placement, DependencyGraph) {
        let mut inv = Inventory::new();
        inv.add_rack(2, 10.0);
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

    #[test]
    fn req_id_roundtrips_source() {
        let id = ReqId::new(RackId(7), 42);
        assert_eq!(id.source(), RackId(7));
        assert_ne!(ReqId::new(RackId(7), 43), id);
        assert_ne!(ReqId::new(RackId(8), 42), id);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let id = ReqId::new(RackId(1), 1);
        let d0 = backoff_delay(0, id);
        let d1 = backoff_delay(1, id);
        let d3 = backoff_delay(3, id);
        assert!((8..16).contains(&d0), "{d0}");
        assert!((16..24).contains(&d1), "{d1}");
        assert!((64..72).contains(&d3), "capped: {d3}");
        // deterministic
        assert_eq!(d1, backoff_delay(1, id));
        // jitter decorrelates requests
        let other = ReqId::new(RackId(2), 9);
        assert!((8..16).contains(&backoff_delay(0, other)));
    }

    #[test]
    fn prepare_commit_acks_exactly_once() {
        let (mut p, deps) = small();
        let mut ep = ShimEndpoint::new(RackId(0));
        let id = ReqId::new(RackId(0), 0);
        let v = ep.handle_prepare(&mut p, &deps, id, VmId(0), HostId(1), 50, 0);
        assert_eq!(v, TwoPhaseReply::PrepareOk);
        assert_eq!(p.host_of(VmId(0)), HostId(1), "prepare reserves the move");
        // duplicate prepare replays the vote without re-running Alg. 4
        assert_eq!(
            ep.handle_prepare(&mut p, &deps, id, VmId(0), HostId(1), 50, 0),
            TwoPhaseReply::PrepareOk
        );
        assert_eq!(ep.dedup_hits(), 1);
        assert_eq!(ep.handle_commit(id, 0), TwoPhaseReply::Ack);
        // duplicate commit re-ACKs idempotently
        assert_eq!(ep.handle_commit(id, 0), TwoPhaseReply::Ack);
        assert_eq!(ep.journal().committed(), 1);
        // a prepare retransmitted after the commit still answers Ack
        assert_eq!(
            ep.handle_prepare(&mut p, &deps, id, VmId(0), HostId(1), 50, 0),
            TwoPhaseReply::Ack
        );
    }

    #[test]
    fn abort_rolls_back_and_tombstones() {
        let (mut p, deps) = small();
        let mut ep = ShimEndpoint::new(RackId(0));
        let id = ReqId::new(RackId(0), 0);
        ep.handle_prepare(&mut p, &deps, id, VmId(0), HostId(1), 50, 0);
        let (vm, outcome) = ep.handle_abort(&mut p, &deps, id).unwrap();
        assert_eq!(
            (vm, outcome),
            (VmId(0), crate::journal::AbortOutcome::RolledBack)
        );
        assert_eq!(p.host_of(VmId(0)), HostId(0));
        // a late commit for the aborted txn is refused
        assert_eq!(
            ep.handle_commit(id, 0),
            TwoPhaseReply::Reject(RejectKind::Expired)
        );
        // an abort for an id never prepared leaves a tombstone ...
        let stale = ReqId::new(RackId(0), 7);
        assert!(ep.handle_abort(&mut p, &deps, stale).is_none());
        // ... that refuses the late-arriving prepare
        assert_eq!(
            ep.handle_prepare(&mut p, &deps, stale, VmId(0), HostId(1), 50, 0),
            TwoPhaseReply::Reject(RejectKind::Expired)
        );
    }

    #[test]
    fn lease_expiry_aborts_orphaned_prepare() {
        let (mut p, deps) = small();
        let mut ep = ShimEndpoint::new(RackId(0));
        let id = ReqId::new(RackId(0), 0);
        ep.handle_prepare(&mut p, &deps, id, VmId(0), HostId(1), 10, 0);
        assert!(ep.expire_leases(&mut p, &deps, 9).is_empty(), "in lease");
        assert_eq!(ep.expire_leases(&mut p, &deps, 10), vec![(id, VmId(0))]);
        assert_eq!(p.host_of(VmId(0)), HostId(0), "rolled back");
        assert_eq!(
            ep.handle_commit(id, 0),
            TwoPhaseReply::Reject(RejectKind::Expired)
        );
    }

    #[test]
    fn stale_epoch_commit_is_fenced_at_the_journal() {
        let (mut p, deps) = small();
        let mut ep = ShimEndpoint::new(RackId(0));
        let id = ReqId::new(RackId(0), 0);
        // prepared under epoch 2 (post-takeover sender)
        assert_eq!(
            ep.handle_prepare(&mut p, &deps, id, VmId(0), HostId(1), 50, 2),
            TwoPhaseReply::PrepareOk
        );
        // a zombie's commit from epoch 1 is fenced, placement untouched
        assert_eq!(
            ep.handle_commit(id, 1),
            TwoPhaseReply::Reject(RejectKind::Stale)
        );
        assert_eq!(p.host_of(VmId(0)), HostId(1), "reservation still held");
        // the legitimate commit (same or newer epoch) still lands
        assert_eq!(ep.handle_commit(id, 2), TwoPhaseReply::Ack);
        assert_eq!(ep.journal().committed(), 1);
    }

    #[test]
    fn shim_msg_epoch_accessor_covers_every_variant() {
        let id = ReqId::new(RackId(0), 0);
        let msgs = [
            ShimMsg::Beacon {
                rack: RackId(0),
                epoch: 3,
            },
            ShimMsg::Ack {
                req_id: id,
                epoch: 3,
            },
            ShimMsg::Reject {
                req_id: id,
                reason: RejectKind::Stale,
                epoch: 3,
            },
            ShimMsg::Prepare {
                req_id: id,
                vm: VmId(0),
                dest: HostId(0),
                lease: 9,
                epoch: 3,
            },
            ShimMsg::PrepareOk {
                req_id: id,
                epoch: 3,
            },
            ShimMsg::Commit {
                req_id: id,
                epoch: 3,
            },
            ShimMsg::Abort {
                req_id: id,
                epoch: 3,
            },
        ];
        for m in msgs {
            assert_eq!(m.epoch(), 3, "{m:?}");
        }
    }

    #[test]
    fn liveness_ages_out_and_recovers() {
        let mut l = Liveness::default();
        l.observe(RackId(0), 10);
        assert!(l.alive(RackId(0), 10 + LIVENESS_DEADLINE));
        assert!(!l.alive(RackId(0), 11 + LIVENESS_DEADLINE));
        assert!(!l.alive(RackId(1), 0), "never heard from");
        l.observe(RackId(0), 40);
        assert!(l.alive(RackId(0), 42));
        l.presume_dead(RackId(0));
        assert!(!l.alive(RackId(0), 42));
    }
}
