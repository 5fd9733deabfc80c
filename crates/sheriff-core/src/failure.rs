//! Partition-tolerant regional failover: an adaptive failure detector
//! plus epoch/term bookkeeping for shim takeover and fencing.
//!
//! The detector is phi-accrual in spirit but fully deterministic: it
//! watches heartbeat *emission* times in virtual time, keeps a short
//! window of inter-emission intervals per shim, and classifies silence
//! against integer multiples of the observed mean interval. Observing
//! emission (rather than reception) is a deliberate simulator-level
//! choice: a partitioned-but-alive shim keeps emitting, so partitions
//! never masquerade as crashes and takeover only fires for shims that
//! really stopped — which is what structurally prevents two managers for
//! one rack across a partition cut.
//!
//! Epochs are per-rack monotonic terms. Declaring a shim Dead and
//! reassigning its rack bumps the rack's epoch; every protocol message
//! carries its sender's view of its own rack's epoch, and receivers
//! fence 2PC messages whose epoch lags the authoritative one. A fenced
//! zombie learns the current epoch from the `Stale` reject and
//! adopts it — the lazy re-integration step of the
//! Alive→Suspect→Dead→Fenced→Reintegrated state machine (DESIGN.md §5d).

use crate::fabric::{HEARTBEAT_PERIOD, LIVENESS_DEADLINE};
use dcn_topology::RackId;
use std::collections::BTreeMap;

/// How many inter-emission intervals the detector remembers per shim.
const INTERVAL_WINDOW: usize = 8;

/// The detector's verdict on one shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShimHealth {
    /// Heartbeats arriving within the adaptive deadline.
    Alive,
    /// Silence beyond twice the mean interval — takeover not yet
    /// warranted, but the shim's region should brace.
    Suspect,
    /// Silence beyond the dead threshold; the shim's racks are eligible
    /// for takeover.
    Dead,
}

/// Deterministic phi-accrual-style failure detector over virtual-time
/// heartbeat emissions. It assumes the fabric's cadence: a mean interval
/// of [`HEARTBEAT_PERIOD`] ticks before any samples arrive, and no death
/// before [`LIVENESS_DEADLINE`] ticks of silence, however fast the shim
/// was heartbeating.
///
/// All state lives in `BTreeMap`s so iteration (and therefore event
/// emission order) is rack order, never hash order.
#[derive(Debug, Clone, Default)]
pub struct FailureDetector {
    last_emit: BTreeMap<RackId, u64>,
    intervals: BTreeMap<RackId, Vec<u64>>,
    health: BTreeMap<RackId, ShimHealth>,
}

impl FailureDetector {
    /// Start (or refresh) the silence clock for a shim that is expected
    /// to beacon from `t` on, without counting an emission. Used at round
    /// start so a shim that is down from tick 0 still accrues silence.
    pub fn track(&mut self, rack: RackId, t: u64) {
        self.last_emit.entry(rack).or_insert(t);
        self.health.entry(rack).or_insert(ShimHealth::Alive);
    }

    /// Record a beacon emission from `rack` at `t`. Returns the
    /// shim's previous health so the caller can notice a Dead shim
    /// returning (the Reintegrated transition).
    pub fn observe_emission(&mut self, rack: RackId, t: u64) -> ShimHealth {
        if let Some(&last) = self.last_emit.get(&rack) {
            if t > last {
                let window = self.intervals.entry(rack).or_default();
                window.push(t - last);
                if window.len() > INTERVAL_WINDOW {
                    window.remove(0);
                }
            }
        }
        self.last_emit.insert(rack, t);
        self.health
            .insert(rack, ShimHealth::Alive)
            .unwrap_or(ShimHealth::Alive)
    }

    /// Mean observed inter-emission interval for `rack`, falling back to
    /// the default before any samples exist. Integer math, never zero.
    pub fn mean_interval(&self, rack: RackId) -> u64 {
        match self.intervals.get(&rack) {
            Some(w) if !w.is_empty() => (w.iter().sum::<u64>() / w.len() as u64).max(1),
            _ => HEARTBEAT_PERIOD,
        }
    }

    /// Classify `rack` at time `now` without mutating any state.
    pub fn classify(&self, rack: RackId, now: u64) -> ShimHealth {
        let Some(&last) = self.last_emit.get(&rack) else {
            return ShimHealth::Alive;
        };
        let silence = now.saturating_sub(last);
        let mean = self.mean_interval(rack);
        if silence > LIVENESS_DEADLINE.max(3 * mean) {
            ShimHealth::Dead
        } else if silence > 2 * mean {
            ShimHealth::Suspect
        } else {
            ShimHealth::Alive
        }
    }

    /// Advance the detector to `now`: every tracked shim is
    /// re-classified, and the racks whose health *changed* are returned
    /// in rack order as `(rack, old, new)`.
    pub fn tick(&mut self, now: u64) -> Vec<(RackId, ShimHealth, ShimHealth)> {
        let mut changed = Vec::new();
        let racks: Vec<RackId> = self.last_emit.keys().copied().collect();
        for rack in racks {
            let new = self.classify(rack, now);
            let old = self.health.get(&rack).copied().unwrap_or(ShimHealth::Alive);
            if new != old {
                self.health.insert(rack, new);
                changed.push((rack, old, new));
            }
        }
        changed
    }

    /// The last classification recorded for `rack`.
    pub fn health(&self, rack: RackId) -> ShimHealth {
        self.health.get(&rack).copied().unwrap_or(ShimHealth::Alive)
    }

    /// The earliest tick strictly after `now` at which some tracked
    /// shim's classification differs from its recorded health, or `None`
    /// when no amount of further silence changes any verdict.
    ///
    /// Silence-driven transitions happen exactly at `last + 2·mean + 1`
    /// (Alive→Suspect) and `last + max(LIVENESS_DEADLINE, 3·mean) + 1`
    /// (→Dead) — [`classify`](Self::classify) uses strict inequalities —
    /// and nothing else moves between emissions, so an event loop that
    /// wakes the detector at this tick observes the same transitions as
    /// one that ticks it every virtual tick.
    pub fn next_transition_after(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        for (&rack, &last) in &self.last_emit {
            let mean = self.mean_interval(rack);
            let cur = self.health(rack);
            let candidates = [
                last.saturating_add(2 * mean + 1),
                last.saturating_add(LIVENESS_DEADLINE.max(3 * mean) + 1),
            ];
            for c in candidates {
                let at = c.max(now + 1);
                if self.classify(rack, at) != cur {
                    next = Some(next.map_or(at, |n: u64| n.min(at)));
                    break;
                }
            }
        }
        next
    }
}

/// Persistent cross-round failover state of the fabric: the failure
/// detector, the authoritative per-rack epochs, each shim's view of its
/// own epoch, and the current manager of every rack. `default()` is the
/// state before any round.
///
/// Epochs only ever move forward ([`RegionFailover::take_over`] is the
/// sole writer and it increments): fault-injector restore paths cannot
/// resurrect a shim into an old epoch, they merely let the shim start
/// talking again — and its first 2PC message is fenced until it adopts
/// the current epoch.
#[derive(Debug, Clone, Default)]
pub struct RegionFailover {
    /// The heartbeat-emission failure detector.
    pub detector: FailureDetector,
    epochs: BTreeMap<RackId, u64>,
    views: BTreeMap<RackId, u64>,
    managers: BTreeMap<RackId, RackId>,
    /// Accumulated virtual time across rounds (each round's ticks are
    /// added at round end), so heartbeat silence spans round boundaries.
    pub clock: u64,
}

impl RegionFailover {
    /// The authoritative epoch of `rack` (0 until its first takeover).
    pub fn epoch_of(&self, rack: RackId) -> u64 {
        self.epochs.get(&rack).copied().unwrap_or(0)
    }

    /// The full authoritative epoch table (racks never taken over are
    /// absent and implicitly at epoch 0), in the shape journal recovery
    /// wants for its fenced sweep.
    pub fn epochs(&self) -> &BTreeMap<RackId, u64> {
        &self.epochs
    }

    /// `rack`'s shim's view of its own epoch — what its messages carry.
    pub fn view_of(&self, rack: RackId) -> u64 {
        self.views.get(&rack).copied().unwrap_or(0)
    }

    /// The rack currently managing `rack`'s region (itself by default).
    pub fn manager_of(&self, rack: RackId) -> RackId {
        self.managers.get(&rack).copied().unwrap_or(rack)
    }

    /// Whether `rack` is managed by someone else right now.
    pub fn taken_over(&self, rack: RackId) -> bool {
        self.manager_of(rack) != rack
    }

    /// Hand `rack`'s region to `by`. The epoch bumps only on an actual
    /// manager change (repeating the same takeover is idempotent), and
    /// the new manager's view is already current — only the deposed
    /// shim's view goes stale. Returns the rack's epoch after the call.
    pub fn take_over(&mut self, rack: RackId, by: RackId) -> u64 {
        if self.manager_of(rack) != by {
            self.managers.insert(rack, by);
            let e = self.epochs.entry(rack).or_insert(0);
            *e += 1;
        }
        self.epoch_of(rack)
    }

    /// A Dead shim came back: management reverts to it, but its view
    /// stays stale — it gets fenced once, adopts, and only then rejoins
    /// the 2PC plane at the current epoch.
    pub fn reinstate(&mut self, rack: RackId) {
        self.managers.insert(rack, rack);
    }

    /// `rack`'s shim learned (from a `Stale` reject) that its rack
    /// is at `epoch`; views only move forward.
    pub fn adopt(&mut self, rack: RackId, epoch: u64) {
        let v = self.views.entry(rack).or_insert(0);
        if epoch > *v {
            *v = epoch;
        }
    }

    /// Fence check for a 2PC message from `from` carrying `msg_epoch`:
    /// `Some(current)` when the message must be rejected as stale.
    pub fn fence(&self, from: RackId, msg_epoch: u64) -> Option<u64> {
        let current = self.epoch_of(from);
        (msg_epoch < current).then_some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_walks_alive_suspect_dead() {
        let mut d = FailureDetector::default();
        d.observe_emission(RackId(0), 0);
        d.observe_emission(RackId(0), 8);
        d.observe_emission(RackId(0), 16);
        assert!(d.tick(17).is_empty(), "in-deadline silence is quiet");
        assert_eq!(d.classify(RackId(0), 32), ShimHealth::Alive, "16 = 2m");
        let changed = d.tick(33);
        assert_eq!(
            changed,
            vec![(RackId(0), ShimHealth::Alive, ShimHealth::Suspect)]
        );
        // dead threshold is max(floor 24, 3m = 24): strictly past 40
        assert_eq!(d.classify(RackId(0), 40), ShimHealth::Suspect);
        let changed = d.tick(41);
        assert_eq!(
            changed,
            vec![(RackId(0), ShimHealth::Suspect, ShimHealth::Dead)]
        );
        assert_eq!(d.health(RackId(0)), ShimHealth::Dead);
        // re-emission reintegrates, and the caller sees the old health
        assert_eq!(d.observe_emission(RackId(0), 50), ShimHealth::Dead);
        assert_eq!(d.health(RackId(0)), ShimHealth::Alive);
    }

    #[test]
    fn detector_adapts_to_slow_heartbeaters() {
        let mut d = FailureDetector::default();
        for t in [0u64, 20, 40, 60] {
            d.observe_emission(RackId(1), t);
        }
        // mean interval 20: a fast detector would have killed it at 25
        assert_eq!(d.classify(RackId(1), 99), ShimHealth::Alive);
        assert_eq!(d.classify(RackId(1), 101), ShimHealth::Suspect);
        assert_eq!(d.classify(RackId(1), 121), ShimHealth::Dead);
    }

    #[test]
    fn expected_but_never_heard_shim_accrues_silence() {
        let mut d = FailureDetector::default();
        d.track(RackId(2), 0);
        assert_eq!(d.classify(RackId(2), 10), ShimHealth::Alive);
        assert_eq!(d.classify(RackId(2), 25), ShimHealth::Dead);
        // track() never resets an existing clock
        d.track(RackId(2), 100);
        assert_eq!(d.classify(RackId(2), 25), ShimHealth::Dead);
    }

    #[test]
    fn next_transition_predicts_tick_exactly() {
        let mut d = FailureDetector::default();
        d.observe_emission(RackId(0), 0);
        d.observe_emission(RackId(0), 8);
        d.observe_emission(RackId(0), 16);
        // mean 8 → Suspect strictly past 16 + 16 = 32, i.e. at 33
        assert_eq!(d.next_transition_after(16), Some(33));
        // the predicted tick is exactly when tick() first reports change
        assert!(d.tick(32).is_empty());
        assert!(!d.tick(33).is_empty());
        // next up: Dead strictly past 16 + max(24, 24) = 40, i.e. at 41
        assert_eq!(d.next_transition_after(33), Some(41));
        assert!(d.tick(40).is_empty());
        assert!(!d.tick(41).is_empty());
        // a Dead shim has no further silence-driven transition
        assert_eq!(d.next_transition_after(41), None);
    }

    #[test]
    fn epochs_are_monotonic_and_bump_only_on_manager_change() {
        let mut f = RegionFailover::default();
        assert_eq!(f.epoch_of(RackId(0)), 0);
        assert!(!f.taken_over(RackId(0)));
        assert_eq!(f.take_over(RackId(0), RackId(1)), 1);
        assert_eq!(f.manager_of(RackId(0)), RackId(1));
        // repeating the same takeover does not bump again
        assert_eq!(f.take_over(RackId(0), RackId(1)), 1);
        // a different successor does
        assert_eq!(f.take_over(RackId(0), RackId(2)), 2);
        // reinstatement reverts management without touching the epoch
        f.reinstate(RackId(0));
        assert_eq!(f.manager_of(RackId(0)), RackId(0));
        assert_eq!(f.epoch_of(RackId(0)), 2);
    }

    #[test]
    fn fencing_and_adoption_round_trip() {
        let mut f = RegionFailover::default();
        f.take_over(RackId(3), RackId(1));
        // the zombie's view is still 0: fenced
        assert_eq!(f.view_of(RackId(3)), 0);
        assert_eq!(f.fence(RackId(3), f.view_of(RackId(3))), Some(1));
        // it adopts the epoch from the reject and passes the fence
        f.adopt(RackId(3), 1);
        assert_eq!(f.fence(RackId(3), f.view_of(RackId(3))), None);
        // adoption never regresses
        f.adopt(RackId(3), 0);
        assert_eq!(f.view_of(RackId(3)), 1);
        // other racks were never fenced
        assert_eq!(f.fence(RackId(1), 0), None);
    }
}
