//! A simulated, deliberately unreliable control channel for shim
//! messages: seeded fault injection (drop, duplication, reordering,
//! variable delay) over a virtual-time delivery queue, plus blackholing
//! for crashed endpoints.
//!
//! Determinism: every message's fate is its own. It is drawn from a
//! generator seeded by a SplitMix64 mix of the channel seed and the
//! message's identity: its hop, its absolute send tick, its kind, and
//! the request it carries (a beacon's rack). So sending or not sending
//! one message never shifts the fate of another, and the same message
//! sent in a later round draws afresh. Two copies alike in all of these,
//! on one hop at one tick, share a fate. The zero-fault configuration
//! ([`ChannelFaults::reliable`]) draws nothing at all — the channel then
//! delivers strictly in send order with unit delay, which is what lets
//! the message-passing runtime reproduce the shared-lock runtime
//! exactly. (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
//! 3", SC'11, describe such counter-based generators.)

use crate::protocol::ShimMsg;
use dcn_sim::{mix64, ChannelFaults, SheriffError, GOLDEN_GAMMA, REORDER_HOLD_BACK};
use dcn_topology::RackId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Channel-level counters for one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NetStats {
    /// Messages sent.
    pub sent: usize,
    /// Messages delivered (duplicates count individually).
    pub delivered: usize,
    /// Messages lost to the configured drop probability.
    pub dropped: usize,
    /// Extra copies injected by the duplication fault.
    pub duplicated: usize,
    /// Messages held back by the reorder fault.
    pub reordered: usize,
    /// Messages swallowed because an endpoint was crashed.
    pub blackholed: usize,
    /// Messages cut by an active network partition.
    pub partitioned: usize,
}

/// One message in flight. Ordered by `(deliver_at, seq)` so ties on
/// delivery tick break in send order — FIFO when the channel is reliable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    from: RackId,
    to: RackId,
    msg: ShimMsg,
}

/// `ShimMsg` doesn't implement `Ord`; compare in-flight entries by their
/// schedule key only.
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// A delivered message: `(from, to, msg)`.
pub type Delivery = (RackId, RackId, ShimMsg);

/// One rack's crash schedule in virtual time: the shim goes down at
/// `crash_at` and — unless `recover_at` is `None` — comes back, replays
/// its journal and rejoins heartbeating at `recover_at`. A window with
/// `crash_at == 0` and no recovery reproduces the old whole-round
/// `crashed` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Rack whose shim crashes.
    pub rack: RackId,
    /// Virtual time of the crash (inclusive: down from this tick on).
    pub crash_at: u64,
    /// Virtual time of recovery, or `None` to stay down for the round.
    pub recover_at: Option<u64>,
}

impl CrashWindow {
    /// A shim dead for the whole round (the pre-schedule behaviour).
    pub fn whole_round(rack: RackId) -> Self {
        Self {
            rack,
            crash_at: 0,
            recover_at: None,
        }
    }

    /// A shim down during `[crash_at, recover_at)`.
    pub fn during(rack: RackId, crash_at: u64, recover_at: u64) -> Self {
        Self {
            rack,
            crash_at,
            recover_at: Some(recover_at),
        }
    }
}

/// One link-fault window in virtual time: the data-plane link `link`
/// goes down at `fail_at` and — unless `restore_at` is `None` — comes
/// back at `restore_at`. Link faults touch the transfer plane only:
/// control messages keep flowing (the control channel is assumed to be
/// routed independently), but any migration transfer whose route crosses
/// the link stalls or re-routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaultWindow {
    /// Edge index of the failing link in the fabric graph.
    pub link: usize,
    /// Virtual time of the failure (inclusive: down from this tick on).
    pub fail_at: u64,
    /// Virtual time of restoration, or `None` to stay down for the round.
    pub restore_at: Option<u64>,
}

impl LinkFaultWindow {
    /// A link dead for the whole round.
    pub fn whole_round(link: usize) -> Self {
        Self {
            link,
            fail_at: 0,
            restore_at: None,
        }
    }

    /// A link down during `[fail_at, restore_at)`.
    pub fn during(link: usize, fail_at: u64, restore_at: u64) -> Self {
        Self {
            link,
            fail_at,
            restore_at: Some(restore_at),
        }
    }
}

/// One named network partition in virtual time: from `start_at` until
/// `heal_at` (exclusive, or forever when `None`) the racks in `members`
/// can only talk to each other, and everyone else can only talk among
/// themselves. Any message crossing the cut is swallowed — silently, like
/// a real partition: neither side learns the other is unreachable except
/// through silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Racks on the inside of the cut.
    pub members: BTreeSet<RackId>,
    /// Virtual time the cut appears (inclusive).
    pub start_at: u64,
    /// Virtual time the cut heals, or `None` to last the whole round.
    pub heal_at: Option<u64>,
}

impl PartitionWindow {
    /// A partition isolating `members` during `[start_at, heal_at)`.
    pub fn new<I: IntoIterator<Item = RackId>>(
        members: I,
        start_at: u64,
        heal_at: Option<u64>,
    ) -> Self {
        Self {
            members: members.into_iter().collect(),
            start_at,
            heal_at,
        }
    }

    /// Whether the cut is in effect at virtual time `t`.
    pub fn active(&self, t: u64) -> bool {
        t >= self.start_at && self.heal_at.is_none_or(|h| t < h)
    }

    /// Whether a message from `a` to `b` crosses the cut at time `t`.
    pub fn cuts(&self, t: u64, a: RackId, b: RackId) -> bool {
        self.active(t) && (self.members.contains(&a) != self.members.contains(&b))
    }
}

/// The simulated network fabric connecting shims.
#[derive(Debug, Clone)]
pub(crate) struct SimNet {
    faults: ChannelFaults,
    /// Seed of every message's fate, mixed with the message's identity.
    seed: u64,
    /// Absolute tick of the round's tick 0, so a fate is keyed by the
    /// absolute send tick and a later round never replays it.
    clock: u64,
    queue: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    down: BTreeSet<RackId>,
    partitions: Vec<PartitionWindow>,
    /// Counters accumulated since construction.
    pub stats: NetStats,
}

impl SimNet {
    /// New channel with the given fault model and seed, for a round
    /// whose tick 0 is absolute tick `clock`.
    ///
    /// Panics on an invalid fault model; use [`SimNet::try_new`] for a
    /// typed error instead.
    pub fn new(faults: ChannelFaults, seed: u64, clock: u64) -> Self {
        Self::try_new(faults, seed, clock).expect("invalid channel fault model")
    }

    /// Fallible [`SimNet::new`]: validates the fault model
    /// (probabilities in `[0, 1]`, delay window ordered) and returns a
    /// [`SheriffError`] on violation.
    pub fn try_new(faults: ChannelFaults, seed: u64, clock: u64) -> Result<Self, SheriffError> {
        faults.validate()?;
        Ok(Self {
            faults,
            seed,
            clock,
            queue: BinaryHeap::new(),
            seq: 0,
            down: BTreeSet::new(),
            partitions: Vec::new(),
            stats: NetStats::default(),
        })
    }

    /// Install the round's partition schedule. Replaces any previous one.
    pub fn set_partitions(&mut self, partitions: Vec<PartitionWindow>) {
        self.partitions = partitions;
    }

    /// Whether a message from `a` to `b` crosses any active cut at `t`.
    pub fn cut(&self, t: u64, a: RackId, b: RackId) -> bool {
        self.partitions.iter().any(|p| p.cuts(t, a, b))
    }

    /// Crash an endpoint: messages to or from it vanish silently.
    pub fn set_down(&mut self, rack: RackId) {
        self.down.insert(rack);
    }

    /// Recover a crashed endpoint.
    pub fn set_up(&mut self, rack: RackId) {
        self.down.remove(&rack);
    }

    /// Submit a message at virtual time `now`. It is dropped, delayed,
    /// duplicated, or blackholed according to the fault model.
    pub fn send(&mut self, now: u64, from: RackId, to: RackId, msg: ShimMsg) {
        let Some((at, duplicate_at)) = self.fate(now, from, to, &msg) else {
            return;
        };
        self.enqueue(at, from, to, msg.clone());
        if let Some(at) = duplicate_at {
            self.enqueue(at, from, to, msg);
        }
    }

    /// Count `msg` and draw its fate: `None` when it is blackholed, cut
    /// or dropped, else the delivery tick of its copy and of its
    /// duplicate, if one is made. The draws, in order — drop, base delay,
    /// reorder hold-back, duplicate, the duplicate's delay — come from a
    /// generator of the message's own, so no other message moves them.
    fn fate(
        &mut self,
        now: u64,
        from: RackId,
        to: RackId,
        msg: &ShimMsg,
    ) -> Option<(u64, Option<u64>)> {
        self.stats.sent += 1;
        if self.down.contains(&from) || self.down.contains(&to) {
            self.stats.blackholed += 1;
            return None;
        }
        if self.cut(now, from, to) {
            self.stats.partitioned += 1;
            return None;
        }
        let (kind, id) = identity(msg);
        let key = [
            from.index() as u64,
            to.index() as u64,
            self.clock + now,
            kind,
            id,
        ]
        .into_iter()
        .fold(self.seed, |h, field| {
            mix64((h ^ field).wrapping_add(GOLDEN_GAMMA))
        });
        let rng = &mut StdRng::seed_from_u64(key);
        if self.faults.drop > 0.0 && rng.gen_bool(self.faults.drop) {
            self.stats.dropped += 1;
            return None;
        }
        let at = now + self.draw_delay(rng);
        if !(self.faults.duplicate > 0.0 && rng.gen_bool(self.faults.duplicate)) {
            return Some((at, None));
        }
        self.stats.duplicated += 1;
        Some((at, Some(now + self.draw_delay(rng))))
    }

    fn draw_delay(&mut self, rng: &mut StdRng) -> u64 {
        let base = if self.faults.delay_min == self.faults.delay_max {
            self.faults.delay_min
        } else {
            rng.gen_range(self.faults.delay_min..=self.faults.delay_max)
        };
        let extra = if self.faults.reorder > 0.0 && rng.gen_bool(self.faults.reorder) {
            self.stats.reordered += 1;
            rng.gen_range(1..=REORDER_HOLD_BACK)
        } else {
            0
        };
        (base + extra).max(1)
    }

    fn enqueue(&mut self, deliver_at: u64, from: RackId, to: RackId, msg: ShimMsg) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(InFlight {
            deliver_at,
            seq,
            from,
            to,
            msg,
        }));
    }

    /// Pop every message due at or before `now`, in `(deliver_at, seq)`
    /// order. Messages addressed to an endpoint that crashed after the
    /// send, or crossing a cut that opened in flight, are discarded and
    /// counted here.
    pub fn poll(&mut self, now: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.deliver_at > now {
                break;
            }
            let Reverse(m) = self.queue.pop().expect("peeked");
            if self.down.contains(&m.to) {
                self.stats.blackholed += 1;
                continue;
            }
            // a cut that appeared while the message was in flight
            // swallows it at delivery time
            if self.cut(m.deliver_at, m.from, m.to) {
                self.stats.partitioned += 1;
                continue;
            }
            self.stats.delivered += 1;
            out.push((m.from, m.to, m.msg));
        }
        out
    }

    /// Virtual time of the next pending delivery, if any.
    pub fn next_delivery(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(m)| m.deliver_at)
    }
}

/// A message's kind and the id it carries: its request, or for a beacon
/// the beaconing rack.
fn identity(msg: &ShimMsg) -> (u64, u64) {
    match *msg {
        ShimMsg::Beacon { rack, .. } => (0, rack.index() as u64),
        ShimMsg::Ack { req_id, .. } => (1, req_id.0),
        ShimMsg::Reject { req_id, .. } => (2, req_id.0),
        ShimMsg::Prepare { req_id, .. } => (3, req_id.0),
        ShimMsg::PrepareOk { req_id, .. } => (4, req_id.0),
        ShimMsg::Commit { req_id, .. } => (5, req_id.0),
        ShimMsg::Abort { req_id, .. } => (6, req_id.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ReqId;

    fn req(seq: u32) -> ShimMsg {
        ShimMsg::Commit {
            req_id: ReqId::new(RackId(0), seq),
            epoch: 0,
        }
    }

    #[test]
    fn reliable_channel_is_fifo_unit_delay() {
        let mut net = SimNet::new(ChannelFaults::reliable(), 1, 0);
        for s in 0..5 {
            net.send(0, RackId(0), RackId(1), req(s));
        }
        assert!(
            net.poll(0).is_empty(),
            "unit delay: nothing due at send tick"
        );
        let got = net.poll(1);
        assert_eq!(got.len(), 5);
        for (s, (_, _, msg)) in got.into_iter().enumerate() {
            assert_eq!(msg, req(s as u32), "FIFO order preserved");
        }
        assert_eq!(net.next_delivery(), None);
        assert_eq!(net.stats.sent, 5);
        assert_eq!(net.stats.delivered, 5);
        assert_eq!(
            net.stats.dropped + net.stats.duplicated + net.stats.blackholed,
            0
        );
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut net = SimNet::new(
            ChannelFaults {
                drop: 0.5,
                ..ChannelFaults::reliable()
            },
            7,
            0,
        );
        for s in 0..200 {
            net.send(0, RackId(0), RackId(1), req(s));
        }
        let got = net.poll(10);
        assert_eq!(got.len() + net.stats.dropped, 200);
        assert!(
            net.stats.dropped > 50,
            "~100 expected, got {}",
            net.stats.dropped
        );
        assert!(got.len() > 50);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut net = SimNet::new(
            ChannelFaults {
                duplicate: 1.0,
                ..ChannelFaults::reliable()
            },
            3,
            0,
        );
        net.send(0, RackId(0), RackId(1), req(0));
        let got = net.poll(10);
        assert_eq!(got.len(), 2);
        assert_eq!(net.stats.duplicated, 1);
    }

    #[test]
    fn reordering_overtakes_earlier_traffic() {
        // with reorder certain on the first message and off after, later
        // sends overtake it
        let mut net = SimNet::new(
            ChannelFaults {
                reorder: 0.3,
                ..ChannelFaults::reliable()
            },
            11,
            0,
        );
        for round in 0..50u32 {
            for s in 0..4 {
                net.send(round as u64 * 10, RackId(0), RackId(1), req(round * 4 + s));
            }
        }
        assert!(net.stats.reordered > 0, "reorder fault never fired");
        // drain: deliveries within a burst are not always in send order
        let got = net.poll(u64::MAX - 4);
        let order: Vec<u32> = got
            .iter()
            .map(|(_, _, m)| match m {
                ShimMsg::Commit { req_id, .. } => req_id.0 as u32,
                _ => unreachable!(),
            })
            .collect();
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "no overtaking observed"
        );
    }

    #[test]
    fn crashed_endpoint_blackholes_both_directions() {
        let mut net = SimNet::new(ChannelFaults::reliable(), 1, 0);
        net.set_down(RackId(1));
        net.send(0, RackId(0), RackId(1), req(0));
        net.send(0, RackId(1), RackId(0), req(1));
        assert!(net.poll(5).is_empty());
        assert_eq!(net.stats.blackholed, 2);
        net.set_up(RackId(1));
        net.send(5, RackId(0), RackId(1), req(2));
        assert_eq!(net.poll(6).len(), 1);
    }

    #[test]
    fn crash_after_send_discards_at_delivery() {
        let mut net = SimNet::new(ChannelFaults::reliable(), 1, 0);
        net.send(0, RackId(0), RackId(1), req(0));
        net.set_down(RackId(1));
        assert!(net.poll(2).is_empty());
        assert_eq!(net.stats.blackholed, 1);
    }

    #[test]
    fn partition_cuts_crossing_traffic_both_ways() {
        let mut net = SimNet::new(ChannelFaults::reliable(), 1, 0);
        net.set_partitions(vec![PartitionWindow::new([RackId(0)], 2, Some(6))]);
        // before the cut: crossing traffic flows
        net.send(0, RackId(0), RackId(1), req(0));
        assert_eq!(net.poll(1).len(), 1);
        // during the cut: both directions across it are swallowed,
        // intra-side traffic is not
        net.send(3, RackId(0), RackId(1), req(1));
        net.send(3, RackId(1), RackId(0), req(2));
        net.send(3, RackId(1), RackId(2), req(3));
        assert_eq!(net.poll(4).len(), 1, "only the intra-side message");
        assert_eq!(net.stats.partitioned, 2);
        // after the heal: traffic flows again
        net.send(6, RackId(0), RackId(1), req(4));
        assert_eq!(net.poll(7).len(), 1);
        assert_eq!(net.stats.partitioned, 2);
    }

    #[test]
    fn partition_appearing_mid_flight_swallows_at_delivery() {
        // delay 3 puts the delivery inside the cut even though the send
        // happened before it started
        let mut net = SimNet::new(
            ChannelFaults {
                delay_min: 3,
                delay_max: 3,
                ..ChannelFaults::reliable()
            },
            1,
            0,
        );
        net.set_partitions(vec![PartitionWindow::new([RackId(0)], 2, None)]);
        net.send(0, RackId(0), RackId(1), req(0));
        assert!(net.poll(10).is_empty());
        assert_eq!(net.stats.partitioned, 1);
    }

    #[test]
    fn try_new_rejects_bad_fault_models() {
        let bad = ChannelFaults {
            drop: 1.5,
            ..ChannelFaults::reliable()
        };
        assert!(SimNet::try_new(bad, 1, 0).is_err());
        let bad = ChannelFaults {
            delay_min: 4,
            delay_max: 2,
            ..ChannelFaults::reliable()
        };
        assert!(SimNet::try_new(bad, 1, 0).is_err());
        assert!(SimNet::try_new(ChannelFaults::lossy(0.2), 1, 0).is_ok());
    }

    #[test]
    fn seeded_fault_sequences_are_reproducible() {
        let faults = ChannelFaults::lossy(0.3);
        let run = |seed: u64| {
            let mut net = SimNet::new(faults.clone(), seed, 0);
            for s in 0..100 {
                net.send(s as u64, RackId(0), RackId(1), req(s));
            }
            let msgs: Vec<Delivery> = net.poll(u64::MAX - 4);
            (net.stats, msgs)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds, different faults");
    }

    /// A message's fate is its own: other traffic sent first — on other
    /// hops at its tick, or on its own hop at other ticks — never changes
    /// when, or whether, it lands. Its absolute send tick is part of its
    /// identity, so a later round, whose tick 20 is another absolute
    /// tick, does not replay it.
    #[test]
    fn a_message_fate_does_not_depend_on_other_traffic() {
        let faults = ChannelFaults::lossy(0.3);
        // the delivery ticks of probe `p`, sent at tick 20 of a round
        // whose tick 0 is absolute tick `clock`: none if it was lost, two
        // if it was duplicated
        let landings = |p: u32, clock: u64, traffic: bool| {
            let mut net = SimNet::new(faults.clone(), 9, clock);
            if traffic {
                for s in 0..40 {
                    net.send(20, RackId(2 + s % 3), RackId(1), req(1000 + s));
                    let other_tick = u64::from(s) + u64::from(s >= 20);
                    net.send(other_tick, RackId(0), RackId(1), req(2000 + s));
                }
            }
            net.send(20, RackId(0), RackId(1), req(p));
            let mut ticks = Vec::new();
            while let Some(t) = net.next_delivery() {
                let probes = net.poll(t).into_iter().filter(|d| d.2 == req(p)).count();
                ticks.extend(std::iter::repeat_n(t, probes));
            }
            ticks
        };
        let quiet: Vec<Vec<u64>> = (0..200).map(|p| landings(p, 0, false)).collect();
        for (p, alone) in (0..200).zip(&quiet) {
            assert_eq!(&landings(p, 0, true), alone, "probe {p}");
        }
        // the probes exercise loss, duplication and more than one delay
        assert!(quiet.iter().any(Vec::is_empty));
        assert!(quiet.iter().any(|t| t.len() == 2));
        assert!(quiet.iter().flatten().collect::<BTreeSet<_>>().len() > 2);
        let lost = |clock: u64| -> Vec<bool> {
            (0..200)
                .map(|p| landings(p, clock, false).is_empty())
                .collect()
        };
        assert_eq!(lost(0), lost(0));
        assert_ne!(lost(0), lost(100), "a later round replayed the drops");
    }
}
