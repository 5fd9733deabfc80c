//! The message-passing fabric runtime, one round at a time in virtual
//! time.
//!
//! [`FabricRuntime::step`](crate::runtime::FabricRuntime) runs one
//! management round as a discrete-event simulation on a private
//! per-tick agenda: liveness beacons, failure-detector sweeps,
//! REQUEST/2PC timeouts and backoff, lease expiry, crash/recover
//! windows, link faults and partition heals are all *scheduled* — as
//! events, or as wakes of the ticks they fall due on — instead of
//! per-tick drains of the channel and fault queues. The round (a private
//! `FabricRound`) has one handler per scheduled event, one per delivered
//! [`ShimMsg`] variant and one per per-tick phase. It advances from
//! activation to activation; at every activated virtual tick it runs the
//! same phases in the same order as the historical per-tick loop, so the
//! agenda reproduces the per-tick fabric byte for byte (DESIGN.md §10
//! maps each event and phase to its handler and delay source).
//!
//! The correctness argument is *activation-time superset*: the agenda
//! is seeded and maintained so that every tick at which any phase could
//! change state — a delivery, a deadline, a lease, a detector
//! transition, a beacon, a schedule window — is activated. A missed
//! activation is a bug the byte-identical equivalence tests pin. An
//! added one is not free either: with the transfer model on, each
//! activation's transfer poll re-routes hot streams and samples every
//! used link's congestion point, so on the transfer plane the set of
//! activated ticks is part of the model. Off the transfer plane a phase
//! with no due work does nothing.
//!
//! Every rack beacons at one cadence, [`HEARTBEAT_PERIOD`], so each
//! period is one self-rearming `Beacon` event whose handler walks the
//! racks in index order — the order the per-tick loop beaconed in. A
//! beacon goes only to the shims whose region contains its sender, the
//! only shims that read it. The protocol's other timings are constants
//! too: [`LIVENESS_DEADLINE`],
//! [`PREPARE_LEASE`], the tick cap [`MAX_TICKS`] and the retransmission
//! backoff in [`crate::protocol`].

use crate::alert_mgmt::{alert_lookup, select_victims};
use crate::audit::{
    audit_journals, audit_managers, audit_moves, audit_placement, AuditReport, AuditViolation,
};
use crate::channel::{CrashWindow, LinkFaultWindow, PartitionWindow, SimNet};
use crate::failure::{RegionFailover, ShimHealth};
use crate::journal::TxnState;
use crate::protocol::{
    backoff_delay, Liveness, ReqId, ShimEndpoint, ShimMsg, TwoPhaseReply, MAX_ATTEMPTS,
};
use crate::runtime::{RoundOutcome, RunCtx};
use crate::vmmigration::{match_victims, MigrationPlan, Move};
use dcn_sim::engine::Cluster;
use dcn_sim::{Alert, ChannelFaults, RackMetric};
use dcn_topology::{HostId, RackId, VmId};
use sheriff_obs::{emit, Event, EventSink, RejectKind};
use sheriff_transfer::{Admission, Resumed, Started, TransferScheduler, TransferSpec};
use std::collections::{BTreeMap, BTreeSet};

/// Ticks between liveness beacons: every live rack beacons at the
/// round's start and once per period after.
pub const HEARTBEAT_PERIOD: u64 = 8;

/// Silence, in ticks, after which a source shim presumes a rack dead;
/// also the failure detector's floor for declaring a shim Dead.
pub const LIVENESS_DEADLINE: u64 = 24;

/// Hard cap on a round's virtual time — a deadlock backstop; requests
/// unresolved at the cap are abandoned and their VMs reported unplaced.
pub const MAX_TICKS: u64 = 4096;

/// Ticks a journalled PREPARE stays valid without a COMMIT before the
/// destination unilaterally aborts it; comfortably exceeds one prepare
/// → commit round trip, so healthy transactions never expire.
pub const PREPARE_LEASE: u64 = 64;

/// Configuration of the message-passing fabric runtime.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Channel fault model (drop/duplicate/reorder/delay). Each round
    /// derives its hello window and request patience from its longest
    /// delivery delay.
    pub faults: ChannelFaults,
    /// Seed of the channel's per-message fates.
    pub seed: u64,
    /// Replan rounds per shim after the first (Alg. 3's negotiation
    /// retries).
    pub max_retry: usize,
    /// Shim crash schedule in virtual time. A window with `crash_at == 0`
    /// and no `recover_at` reproduces the old whole-round semantics (the
    /// shim answers no requests, sends no beacons and serves none of its
    /// own alerts); any other window crashes the shim mid-round and
    /// optionally recovers it, at which point it replays its intent
    /// journal and rejoins beaconing.
    pub crashed: Vec<CrashWindow>,
    /// Named network-partition schedule in virtual time: while a window
    /// is active, traffic crossing its cut is silently swallowed. Both
    /// sides keep working — the minority side in degraded local mode —
    /// and reconcile when the window heals.
    pub partitions: Vec<PartitionWindow>,
    /// Data-plane link-fault schedule in virtual time: while a window is
    /// open the link is dead for the transfer plane — any pre-copy whose
    /// route crosses it stalls at its checkpoint or re-routes onto a
    /// surviving candidate. Only meaningful with the transfer model
    /// enabled; control messages are unaffected (the control channel has
    /// its own fault model). Empty (the default) keeps the transfer
    /// plane fault-free and byte-identical to the pre-recovery fabric.
    pub link_faults: Vec<LinkFaultWindow>,
    /// Network-aware transfer model. `None` (the default) settles every
    /// committed migration instantaneously — byte-identical to the
    /// pre-transfer fabric. `Some` runs each committed migration's
    /// pre-copy as a scheduled transfer in virtual time: routed over
    /// the topology's k-shortest paths, sharing link bandwidth max-min
    /// fairly with concurrent transfers, admission-capped and rerouted
    /// under QCN congestion; placement-affecting ACKs only flow once
    /// the transfer completes.
    pub transfer: Option<sheriff_transfer::TransferConfig>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            faults: ChannelFaults::reliable(),
            seed: 0x5EED,
            max_retry: 3,
            crashed: Vec::new(),
            partitions: Vec::new(),
            link_faults: Vec::new(),
            transfer: None,
        }
    }
}

impl FabricConfig {
    /// A fabric configuration for the given channel fault model and
    /// seed, every other field at its default.
    pub fn for_channel(faults: ChannelFaults, seed: u64) -> Self {
        Self {
            faults,
            seed,
            ..Self::default()
        }
    }

    /// Enable the network-aware transfer model: committed migrations
    /// stream their pre-copy over routed, bandwidth-shared transfers
    /// instead of settling instantaneously.
    pub fn with_transfer(mut self, transfer: sheriff_transfer::TransferConfig) -> Self {
        self.transfer = Some(transfer);
        self
    }
}

/// Which phase of the two-phase commit a transaction is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    /// PREPARE sent; waiting for the destination's vote.
    Preparing,
    /// PREPARE-OK received and COMMIT sent; waiting for the final ACK.
    Committing,
}

/// A transaction awaiting its next reply at the source shim.
struct Outstanding {
    vm: VmId,
    from: HostId,
    dest: HostId,
    cost: f64,
    attempt: u32,
    deadline: u64,
    phase: TxnPhase,
    /// Absolute lease carried by the PREPARE (stable across resends).
    lease: u64,
}

/// 2PC context of a migration whose pre-copy the transfer scheduler is
/// streaming: everything the destination needs to finalize the commit
/// and ACK the source once the last byte lands.
struct TransferMeta {
    /// The migrating VM.
    vm: VmId,
    /// Rack that sent the COMMIT (where the ACK goes).
    src_rack: RackId,
    /// Destination rack (whose endpoint journal finalizes).
    dst_rack: RackId,
    /// Epoch the COMMIT carried, replayed into `handle_commit` at
    /// completion so fencing still applies.
    epoch: u64,
}

/// Source-shim actor state for the fabric runtime.
struct FabricShim {
    rack: RackId,
    /// Victims still waiting for a destination.
    pending: Vec<VmId>,
    /// `(vm, host)` pairings refused or given up on; the matching never
    /// proposes them again.
    excluded: Vec<(VmId, HostId)>,
    /// Committed moves plus the search-space and rejection tallies.
    plan: MigrationPlan,
    /// Sequence number of the next request id.
    seq: u32,
    liveness: Liveness,
    region: Vec<RackId>,
    /// `BTreeMap`, not `HashMap`: these maps are drained/iterated when
    /// settling fates, so their order feeds report ordering (DET02).
    outstanding: BTreeMap<ReqId, Outstanding>,
    /// Given-up requests whose fate is unknown: a stale copy may still
    /// commit at the destination, so the VM must not be replanned. The
    /// entry's `deadline` becomes the patience cutoff for late verdicts.
    zombies: BTreeMap<ReqId, Outstanding>,
    /// Zombies whose patience expired with no verdict; resolved against
    /// ground truth when the round closes.
    unresolved: Vec<Outstanding>,
    /// Planning rounds still allowed (first plan included).
    rounds_left: usize,
    started: bool,
    done: bool,
    /// ACKs received for the current batch.
    progressed: bool,
    /// A timeout give-up resolved to a late REJECT since the last plan:
    /// allows one replan even without progress (the degradation ladder's
    /// recovery step).
    gave_up: bool,
    degraded: bool,
    /// Planned at least once while an active partition cut part of the
    /// region off (degraded local handling).
    part_degraded: bool,
    /// Currently crashed (its schedule window is open).
    down: bool,
    /// Earliest tick at which a recovered shim may plan again — one
    /// beacon period after recovery, so its liveness view is fresh.
    resume_at: u64,
}

impl FabricShim {
    fn new(rack: RackId, pending: Vec<VmId>, region: Vec<RackId>, cfg: &FabricConfig) -> Self {
        Self {
            rack,
            // a shim with nothing to do is done from the start
            done: pending.is_empty(),
            pending,
            excluded: Vec::new(),
            plan: MigrationPlan::default(),
            seq: 0,
            liveness: Liveness::default(),
            region,
            outstanding: BTreeMap::new(),
            zombies: BTreeMap::new(),
            unresolved: Vec::new(),
            rounds_left: cfg.max_retry + 1,
            started: false,
            progressed: false,
            gave_up: false,
            degraded: false,
            part_degraded: false,
            down: false,
            resume_at: 0,
        }
    }

    /// Every VM this shim manages: pending, in flight, or of unknown fate.
    fn managed(&self) -> impl Iterator<Item = VmId> + '_ {
        self.pending
            .iter()
            .copied()
            .chain(self.outstanding.values().map(|o| o.vm))
            .chain(self.zombies.values().map(|o| o.vm))
            .chain(self.unresolved.iter().map(|o| o.vm))
    }

    /// Wake a parked shim for at least one more plan.
    fn wake(&mut self) {
        self.done = false;
        self.gave_up = true;
        self.rounds_left = self.rounds_left.max(1);
    }

    /// Part of the region is out of reach: report it once.
    fn degrade(&mut self, sink: &mut dyn EventSink) {
        if !self.degraded {
            emit(sink, || Event::ShimDegraded {
                rack: self.rack.index() as u64,
            });
        }
        self.degraded = true;
    }

    /// Record `o` as a committed move.
    fn commit_move(&mut self, o: &Outstanding, sink: &mut dyn EventSink) {
        emit(sink, || Event::MigrationCommitted {
            vm: o.vm.index() as u64,
            from_host: o.from.index() as u64,
            to_host: o.dest.index() as u64,
            cost: o.cost,
        });
        self.plan.moves.push(Move {
            vm: o.vm,
            from: o.from,
            to: o.dest,
            cost: o.cost,
        });
        self.plan.total_cost += o.cost;
    }
}

/// The fabric round's event vocabulary (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FabricEvent {
    /// Crash window `schedule[i]` opens.
    Crash(usize),
    /// Crash window `schedule[i]` closes: journal replay and rejoin.
    Recover(usize),
    /// Partition window `cfg.partitions[i]` heals.
    Heal(usize),
    /// Link-fault window `cfg.link_faults[i]` opens: the transfer plane
    /// loses the link, stalling or re-routing the pre-copies on it.
    LinkFail(usize),
    /// Link-fault window `cfg.link_faults[i]` closes: stalled pre-copies
    /// resume from their checkpoints.
    LinkRestore(usize),
    /// Every live rack's liveness beacon, at tick 0 and then once per
    /// [`HEARTBEAT_PERIOD`], self-rescheduling. Each beacon goes to the
    /// shims whose region contains the rack, and to no one else.
    Beacon,
}

impl FabricEvent {
    /// Rank of the phase that handles this event within an activation.
    /// Handlers run in phase order, and in schedule order within a
    /// phase — never in plain schedule order, which differs whenever
    /// events of different phases share a tick.
    fn phase(self) -> u8 {
        match self {
            FabricEvent::Crash(_) | FabricEvent::Recover(_) => 0,
            FabricEvent::LinkFail(_) => 1,
            FabricEvent::LinkRestore(_) => 2,
            FabricEvent::Heal(_) => 3,
            FabricEvent::Beacon => 4,
        }
    }
}

/// The round's agenda: the ticks to activate and the events each runs.
#[derive(Default)]
struct Agenda {
    /// Every tick to activate, with its events in schedule order. An
    /// empty list is a derived wake: a delivery, lease, detector
    /// transition, planning gate or transfer event is due, and an
    /// activation runs *every* phase, so a wake needs no payload.
    ticks: BTreeMap<u64, Vec<FabricEvent>>,
    /// The earliest request or zombie deadline, unless a tick in `ticks`
    /// already covers it: the one activation that can be withdrawn,
    /// re-aimed whenever a nearer deadline appears.
    timeout: Option<u64>,
}

impl Agenda {
    /// Schedule `event` at tick `at`.
    fn at(&mut self, at: u64, event: FabricEvent) {
        self.ticks.entry(at).or_default().push(event);
    }

    /// Activate tick `at`, whatever the timeout does later.
    fn wake(&mut self, at: u64) {
        self.ticks.entry(at).or_default();
    }

    /// Aim the timeout at deadline `at`: deadlines move with every
    /// resend, so one activation tracks the earliest. A farther deadline
    /// never displaces a nearer one, and a tick that already activates
    /// needs no timeout.
    fn timeout_at(&mut self, at: u64) {
        if self.timeout.is_some_and(|cur| at >= cur) {
            return;
        }
        self.timeout = (!self.ticks.contains_key(&at)).then_some(at);
    }

    /// The next tick to activate: the first scheduled tick or the
    /// timeout, whichever is earlier.
    fn next(&self) -> Option<u64> {
        let first = self.ticks.keys().next().copied();
        first.into_iter().chain(self.timeout).min()
    }

    /// Take tick `now` off the agenda, clearing a timeout aimed at it:
    /// its events in phase order, and in schedule order within a phase.
    fn take(&mut self, now: u64) -> Vec<FabricEvent> {
        if self.timeout == Some(now) {
            self.timeout = None;
        }
        let mut due = self.ticks.remove(&now).unwrap_or_default();
        due.sort_by_key(|ev| ev.phase());
        due
    }
}

/// Nearest-rank p95 over a set of transfer durations, 0.0 when empty.
fn p95_ticks(durations: &[u64]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64) * 0.95).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted.len() - 1);
    sorted.get(idx).copied().unwrap_or(0) as f64
}

/// Run one fabric round over `ctx` with persistent failover state: the
/// body of [`FabricRuntime::step`](crate::runtime::FabricRuntime).
pub(crate) fn run_round(
    ctx: &mut RunCtx<'_>,
    cfg: &FabricConfig,
    failover: &mut RegionFailover,
) -> RoundOutcome {
    FabricRound::new(ctx, cfg, failover).run()
}

/// One fabric round in flight: REQUEST/2PC negotiation with deadlines,
/// backoff, idempotent retransmission and heartbeat liveness; regional
/// takeover and epoch fencing through the cross-round failover state;
/// partition cuts with degraded local planning and reconciliation on
/// heal; and, when enabled, the routed pre-copy transfers behind each
/// COMMIT. Every message exchange, timeout, degradation step and
/// transfer transition reaches the sink as a structured event, which
/// bumps its declared counter; `out` keeps the plan, the audit and the
/// counts listed on [`RoundOutcome`]. The round is single-threaded in
/// virtual time, so the event stream is deterministic for a fixed seed.
struct FabricRound<'r> {
    cluster: &'r mut Cluster,
    metric: &'r RackMetric,
    alerts: &'r [Alert],
    alert_values: &'r [f64],
    sink: &'r mut dyn EventSink,
    cfg: &'r FabricConfig,
    failover: &'r mut RegionFailover,
    /// The round's report, filled in as it runs.
    out: RoundOutcome,
    /// The activated virtual tick.
    now: u64,
    /// Live alerted racks, ascending; `shims[i]` serves `racks[i]`.
    racks: Vec<RackId>,
    shims: Vec<FabricShim>,
    /// `readers[r]`: ascending indices of the shims whose region contains
    /// rack `r` — the only shims that read `r`'s beacons.
    readers: Vec<Vec<usize>>,
    /// Mid-round crash windows (whole-round crashes are handled up front).
    schedule: Vec<CrashWindow>,
    /// Racks currently down.
    down: BTreeSet<RackId>,
    net: SimNet,
    endpoints: Vec<ShimEndpoint>,
    /// Ticks to collect beacons before the first planning round: past
    /// the channel's longest delivery delay (with the reorder hold-back
    /// when that fault is on), so a healthy but slow or reordering
    /// channel is not mistaken for dead shims.
    hello: u64,
    /// How long a given-up request waits for a late verdict: the longest
    /// request + reply round trip (the channel's longest delivery delay
    /// each way), with slack.
    patience: u64,
    /// The pre-copy scheduler; `None` settles every commit at once.
    transfers: Option<TransferScheduler>,
    /// 2PC context of each streaming pre-copy: who to ACK and under
    /// which epoch to finalize the journal entry.
    transfer_meta: BTreeMap<ReqId, TransferMeta>,
    /// Completion time of every finished pre-copy.
    transfer_durations: Vec<u64>,
    /// In-round transfer-plane audit; each breach is flagged once.
    transfer_audit: AuditReport,
    flagged_on_failed: BTreeSet<(u64, usize)>,
    flagged_no_prepare: BTreeSet<u64>,
    agenda: Agenda,
}

impl<'r> FabricRound<'r> {
    fn new(
        ctx: &'r mut RunCtx<'_>,
        cfg: &'r FabricConfig,
        failover: &'r mut RegionFailover,
    ) -> Self {
        let mut racks: Vec<RackId> = ctx.alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        // a window with crash_at == 0 and no recovery is the old
        // whole-round crash: the rack is down from the start and left
        // out of the round. Every other window is a mid-round transition
        // handled as Crash/Recover events.
        let whole_round = |w: &CrashWindow| w.crash_at == 0 && w.recover_at.is_none();
        let down: BTreeSet<RackId> = cfg
            .crashed
            .iter()
            .filter(|w| whole_round(w))
            .map(|w| w.rack)
            .collect();
        let mut net = SimNet::new(cfg.faults.clone(), cfg.seed, failover.clock);
        net.set_partitions(cfg.partitions.clone());
        for &r in &down {
            net.set_down(r);
        }
        let rack_count = ctx.cluster.dcn.rack_count();
        Self {
            cluster: &mut *ctx.cluster,
            metric: ctx.metric,
            alerts: ctx.alerts,
            alert_values: ctx.alert_values,
            sink: &mut *ctx.sink,
            cfg,
            failover,
            out: RoundOutcome::default(),
            now: 0,
            racks,
            shims: Vec::new(),
            readers: Vec::new(),
            schedule: cfg
                .crashed
                .iter()
                .copied()
                .filter(|w| !whole_round(w))
                .collect(),
            down,
            net,
            endpoints: (0..rack_count)
                .map(|r| ShimEndpoint::new(RackId::from_index(r)))
                .collect(),
            hello: 2.max(cfg.faults.max_delay() + 1),
            patience: 2 * cfg.faults.max_delay() + 2,
            transfers: cfg.transfer.map(TransferScheduler::new),
            transfer_meta: BTreeMap::new(),
            transfer_durations: Vec::new(),
            transfer_audit: AuditReport::default(),
            flagged_on_failed: BTreeSet::new(),
            flagged_no_prepare: BTreeSet::new(),
            agenda: Agenda::default(),
        }
    }

    /// Open the round, hop from activation to activation until every
    /// shim has settled (or the tick cap), then close it.
    fn run(mut self) -> RoundOutcome {
        let adopted = self.open();
        if self.racks.is_empty() {
            return self.out;
        }
        self.spawn_shims(&adopted);
        self.seed_agenda();
        loop {
            self.activate();
            if self.settled() {
                break;
            }
            self.schedule_wakes();
            // past the tick cap the round is abandoned exactly as the
            // per-tick loop abandoned it
            match self.agenda.next() {
                Some(t) if t <= MAX_TICKS => self.now = t,
                _ => {
                    self.now = MAX_TICKS + 1;
                    break;
                }
            }
        }
        self.close()
    }

    /// The source shim index of `rack`, if it is a live alerted rack.
    fn source(&self, rack: RackId) -> Option<usize> {
        self.racks.binary_search(&rack).ok()
    }

    /// Alg. 1/2 victims of `rack`'s alerts on the current placement, with
    /// the size of the candidate pool PRIORITY examined.
    fn victims(&self, rack: RackId) -> (Vec<VmId>, usize) {
        let c = &*self.cluster;
        select_victims(
            &c.placement,
            &c.dcn.inventory,
            &c.sim,
            rack,
            self.alerts,
            alert_lookup(self.alert_values),
        )
    }

    // ---- round start and end -------------------------------------------

    /// Round start: report the alerted shims crashed for the whole round,
    /// start every rack's detector clock, and hand the alerts of those
    /// already declared Dead to a successor — the lowest-index live
    /// alerted rack in the region, else anywhere. Returns the racks each
    /// successor adopted.
    fn open(&mut self) -> BTreeMap<RackId, Vec<RackId>> {
        let crashed: Vec<RackId> = self
            .racks
            .iter()
            .copied()
            .filter(|r| self.down.contains(r))
            .collect();
        for &r in &crashed {
            emit(self.sink, || Event::ShimCrashed {
                rack: r.index() as u64,
            });
        }
        self.racks.retain(|r| !self.down.contains(r));
        self.out.crashed_shims = crashed.len();
        // detector baseline: every rack is expected to beacon from the
        // round's start, so a shim that is down from tick 0 accrues silence
        for i in 0..self.cluster.dcn.rack_count() {
            let clock = self.failover.clock;
            self.failover.detector.track(RackId::from_index(i), clock);
        }
        let mut adopted: BTreeMap<RackId, Vec<RackId>> = BTreeMap::new();
        for &r in &crashed {
            if self.failover.detector.health(r) != ShimHealth::Dead {
                continue;
            }
            let region = self
                .cluster
                .dcn
                .neighbor_racks(r, self.cluster.sim.region_hops);
            let succ = region
                .iter()
                .copied()
                .filter(|s| self.racks.contains(s))
                .min()
                .or_else(|| self.racks.first().copied());
            if let Some(s) = succ {
                self.take_over(r, s);
                adopted.entry(s).or_default().push(r);
            }
        }
        adopted
    }

    /// Hand `rack`'s region to `succ`. A change of manager bumps the
    /// rack's epoch, so the deposed shim's 2PC traffic can be fenced when
    /// it returns.
    fn take_over(&mut self, rack: RackId, succ: RackId) {
        let continued = self.failover.taken_over(rack) && self.failover.manager_of(rack) == succ;
        let epoch = self.failover.take_over(rack, succ);
        if !continued {
            emit(self.sink, || Event::RegionTakenOver {
                rack: rack.index() as u64,
                by: succ.index() as u64,
                epoch,
            });
        }
    }

    /// Alg. 1 victim selection on the initial placement, one source shim
    /// per live alerted rack. A takeover successor also serves the alerts
    /// of the racks it adopted. Each rack's beacon readers follow from
    /// the regions.
    fn spawn_shims(&mut self, adopted: &BTreeMap<RackId, Vec<RackId>>) {
        self.out.shims = self.racks.len();
        let mut shims = Vec::with_capacity(self.racks.len());
        for &rack in &self.racks {
            let (mut pending, mut candidates) = self.victims(rack);
            for &r in adopted.get(&rack).map(Vec::as_slice).unwrap_or_default() {
                let (more, more_candidates) = self.victims(r);
                pending.extend(more);
                candidates += more_candidates;
            }
            emit(self.sink, || Event::VictimsSelected {
                rack: rack.index() as u64,
                candidates: candidates as u64,
                selected: pending.len() as u64,
            });
            let region = self
                .cluster
                .dcn
                .neighbor_racks(rack, self.cluster.sim.region_hops);
            shims.push(FabricShim::new(rack, pending, region, self.cfg));
        }
        let mut readers = vec![Vec::new(); self.cluster.dcn.rack_count()];
        for (i, shim) in shims.iter().enumerate() {
            for r in &shim.region {
                if let Some(list) = readers.get_mut(r.index()) {
                    list.push(i);
                }
            }
        }
        self.readers = readers;
        self.shims = shims;
    }

    /// Seed the agenda with every schedule window and heal, the first
    /// beacon, and the first planning gate.
    fn seed_agenda(&mut self) {
        let cfg = self.cfg;
        for (i, w) in self.schedule.iter().enumerate() {
            self.agenda.at(w.crash_at, FabricEvent::Crash(i));
            if let Some(r) = w.recover_at {
                self.agenda.at(r, FabricEvent::Recover(i));
            }
        }
        for (i, p) in cfg.partitions.iter().enumerate() {
            if let Some(h) = p.heal_at {
                self.agenda.at(h, FabricEvent::Heal(i));
            }
        }
        // link faults only touch the transfer plane: with the model
        // disabled they are not seeded at all, so the agenda (and the
        // round) stays byte-identical to the fault-free fabric
        if self.transfers.is_some() {
            for (i, w) in cfg.link_faults.iter().enumerate() {
                self.agenda.at(w.fail_at, FabricEvent::LinkFail(i));
                if let Some(r) = w.restore_at {
                    self.agenda.at(r, FabricEvent::LinkRestore(i));
                }
            }
        }
        // every rack beacons from tick 0, then the event re-arms itself
        // once per period
        self.agenda.at(0, FabricEvent::Beacon);
        self.agenda.wake(self.hello);
    }

    /// Whether the round is over: every source shim settled. A crashed
    /// shim only holds the round open while a recovery is still
    /// scheduled, a scheduled heal holds it open while a parked shim
    /// still has work the heal would wake it for, and a streaming or
    /// queued pre-copy holds it open until its commit, ACK and move land.
    /// Every flip of this predicate lands on an activated tick (Recover
    /// and Heal are events; a partition *start* only delays settlement),
    /// so checking at activations only is exact.
    fn settled(&self) -> bool {
        let now = self.now;
        let recovering = |s: &FabricShim| {
            self.schedule
                .iter()
                .any(|w| w.rack == s.rack && w.recover_at.is_some_and(|r| r > now))
        };
        let heal_pending = self
            .cfg
            .partitions
            .iter()
            .any(|p| p.start_at <= now && p.heal_at.is_some_and(|h| h > now));
        self.shims
            .iter()
            .all(|s| s.done || (s.down && !recovering(s)))
            && !(heal_pending
                && self
                    .shims
                    .iter()
                    .any(|s| s.done && !s.down && !s.pending.is_empty()))
            && self.transfers.as_ref().is_none_or(|ts| ts.is_idle())
    }

    /// Round end: abort every still-prepared transaction, audit that no
    /// VM is managed twice, settle unknown fates against ground truth,
    /// and assemble the report.
    fn close(mut self) -> RoundOutcome {
        // no transaction outlives the round (sources that walked away,
        // schedules that never recovered, the tick cap); this must come
        // before settlement so a half-done prepare can't be mistaken for
        // a committed move
        for r in 0..self.endpoints.len() {
            self.abort_expired(r, u64::MAX);
        }
        // across takeovers, partitions and heals the managed sets of
        // different shims must stay disjoint (audited before settlement
        // collapses them against ground truth)
        let manager_audit = audit_managers(self.shims.iter().map(|s| (s.rack, s.managed())));
        self.settle();

        let out = &mut self.out;
        out.ticks = self.now.min(MAX_TICKS);
        // the detector's clock spans rounds: silence keeps accruing across
        // round boundaries, so a crashed shim is eventually declared Dead
        // even when every individual round is short
        self.failover.clock += out.ticks + 1;
        out.transfer_p95_completion = p95_ticks(&self.transfer_durations);
        if let Some(ts) = &self.transfers {
            out.bottleneck_serialized = ts.peak_link_sharing() >= 2;
        }
        let stats = &self.net.stats;
        let dedup_hits: usize = self.endpoints.iter().map(ShimEndpoint::dedup_hits).sum();
        for (name, n) in [
            ("net.sent", stats.sent),
            ("net.delivered", stats.delivered),
            ("net.dropped", stats.dropped),
            ("net.duplicated", stats.duplicated),
            ("net.reordered", stats.reordered),
            ("net.blackholed", stats.blackholed),
            ("net.partitioned", stats.partitioned),
            ("net.dedup_hits", dedup_hits),
        ] {
            self.sink.counter(name, n as u64);
        }
        for shim in std::mem::take(&mut self.shims) {
            let mut plan = shim.plan;
            let mut pending = shim.pending;
            pending.sort_unstable();
            pending.dedup();
            plan.unplaced.extend(pending);
            out.plan.absorb(plan);
        }
        let c = &*self.cluster;
        out.audit = audit_placement(&c.placement, &c.deps);
        out.audit.merge(manager_audit);
        out.audit.merge(std::mem::take(&mut self.transfer_audit));
        out.audit.merge(audit_moves(
            &c.placement,
            out.plan.moves.iter().map(|m| (m.vm, m.to)),
        ));
        out.audit.merge(audit_journals(
            &c.placement,
            self.endpoints.iter().map(ShimEndpoint::journal),
        ));
        self.out
    }

    /// Settle unknown fates against ground truth: the simulator, unlike
    /// the shims, can see whether an unacknowledged request committed at
    /// its destination. Requests cut off by the tick cap settle the same
    /// way.
    fn settle(&mut self) {
        let placement = &self.cluster.placement;
        for shim in &mut self.shims {
            let leftovers: Vec<Outstanding> = shim
                .unresolved
                .drain(..)
                .chain(std::mem::take(&mut shim.outstanding).into_values())
                .chain(std::mem::take(&mut shim.zombies).into_values())
                .collect();
            for o in leftovers {
                if placement.host_of(o.vm) == o.dest {
                    shim.commit_move(&o, self.sink);
                } else {
                    emit(self.sink, || Event::MigrationFailed {
                        vm: o.vm.index() as u64,
                        rack: shim.rack.index() as u64,
                    });
                    shim.pending.push(o.vm);
                }
            }
        }
    }

    // ---- one activation ------------------------------------------------

    /// One activation: this tick's scheduled events in phase order, then
    /// every per-tick phase. The order is fixed; it is what keeps the
    /// round byte-identical to the historical per-tick loop.
    fn activate(&mut self) {
        self.sink.counter("fabric.activations", 1);
        for ev in self.agenda.take(self.now) {
            match ev {
                FabricEvent::Crash(i) => self.on_crash(i),
                FabricEvent::Recover(i) => self.on_recover(i),
                FabricEvent::LinkFail(i) => self.on_link_fail(i),
                FabricEvent::LinkRestore(i) => self.on_link_restore(i),
                FabricEvent::Heal(i) => self.on_heal(i),
                FabricEvent::Beacon => self.on_beacon(),
            }
        }
        self.detect();
        self.deliver();
        self.poll_transfers();
        self.probe_transfers();
        self.expire_leases();
        self.act();
    }

    /// Make sure every tick at which some phase has due work is on the
    /// agenda (the activation-time superset invariant). All of these
    /// recompute at each activation; the agenda dedupes repeats.
    fn schedule_wakes(&mut self) {
        let next = self.now + 1;
        if let Some(d) = self.net.next_delivery() {
            self.agenda.wake(d.max(next));
        }
        let clock = self.failover.clock;
        if let Some(at) = self
            .failover
            .detector
            .next_transition_after(clock + self.now)
        {
            self.agenda.wake(at.saturating_sub(clock).max(next));
        }
        let next_lease = self
            .endpoints
            .iter()
            .filter(|e| !self.down.contains(&e.rack))
            .filter_map(ShimEndpoint::next_lease)
            .min();
        if let Some(l) = next_lease {
            self.agenda.wake(l.max(next));
        }
        if let Some(ts) = &self.transfers {
            match ts.next_event_time() {
                Some(at) => self.agenda.wake(at.max(next)),
                // nothing running but transfers are queued (e.g. the
                // running set was just cancelled): poll next tick so
                // admission can promote them
                None if !ts.is_idle() => self.agenda.wake(next),
                None => {}
            }
        }
        let hello = self.hello;
        for s in self.shims.iter().filter(|s| !(s.done || s.down)) {
            if !s.started {
                self.agenda.wake(hello.max(s.resume_at).max(next));
            } else if s.outstanding.is_empty() && s.zombies.is_empty() {
                // its plan proposed nothing: no reply will wake it, so it
                // replans or finishes at the next tick
                self.agenda.wake(next);
            }
        }
        let next_deadline = self
            .shims
            .iter()
            .filter(|s| !s.done && !s.down)
            .flat_map(|s| s.outstanding.values().chain(s.zombies.values()))
            .map(|o| o.deadline)
            .min();
        if let Some(d) = next_deadline {
            self.agenda.timeout_at(d.max(next));
        }
    }

    // ---- scheduled events ------------------------------------------------

    /// A crash window opens. The source shim loses its volatile
    /// negotiation state (outstanding requests become unresolved, settled
    /// against ground truth at round end); its durable intent journal
    /// survives and is replayed on recovery.
    fn on_crash(&mut self, window: usize) {
        let Some(&w) = self.schedule.get(window) else {
            return;
        };
        self.net.set_down(w.rack);
        self.down.insert(w.rack);
        emit(self.sink, || Event::ShimCrashed {
            rack: w.rack.index() as u64,
        });
        // pre-copies streaming *into* the crashed rack die with it. With
        // a recovery scheduled their journal prepares survive under the
        // extended lease, so a retransmitted COMMIT after recovery simply
        // restarts the transfer. Without one the 2PC context is dead for
        // good: fail the transfer and abort its prepare now — symmetric
        // with the lease-abort path — instead of leaving a silent zombie
        // for the end-of-round sweep.
        let cancelled = match self.transfers.as_mut() {
            Some(ts) => ts.cancel_rack(w.rack.index(), self.now),
            None => Vec::new(),
        };
        for id in cancelled {
            let req = ReqId(id);
            let meta = self.transfer_meta.remove(&req);
            self.sink.counter("transfer.cancelled", 1);
            let Some(meta) = meta.filter(|_| w.recover_at.is_none()) else {
                continue;
            };
            self.fail_transfer(req, meta.vm.index() as u64, 0, Some(meta.dst_rack));
        }
        if let Some(shim) = self.source(w.rack).and_then(|i| self.shims.get_mut(i)) {
            shim.down = true;
            shim.started = false;
            let lost = std::mem::take(&mut shim.outstanding)
                .into_values()
                .chain(std::mem::take(&mut shim.zombies).into_values());
            shim.unresolved.extend(lost);
        }
    }

    /// A crash window closes. Journal replay re-ACKs committed transfers
    /// and aborts orphaned prepares whose lease lapsed while down, plus
    /// prepares journalled under a since-superseded epoch — the restore
    /// path can never resurrect old-epoch intents. The shim beacons again
    /// from the next period and plans again once its liveness view has
    /// had a full beacon period to repopulate.
    fn on_recover(&mut self, window: usize) {
        let Some(&w) = self.schedule.get(window) else {
            return;
        };
        let now = self.now;
        self.net.set_up(w.rack);
        self.down.remove(&w.rack);
        emit(self.sink, || Event::ShimRecovered {
            rack: w.rack.index() as u64,
        });
        self.out.recoveries += 1;
        let Some(ep) = self.endpoints.get_mut(w.rack.index()) else {
            return;
        };
        let rep = ep.recover_fenced(
            &mut self.cluster.placement,
            &self.cluster.deps,
            now,
            self.failover.epochs(),
        );
        self.sink.counter("journal.replayed", rep.replayed as u64);
        self.sink
            .counter("journal.reacked", rep.reacks.len() as u64);
        self.sink.counter("journal.forwarded", rep.forwarded as u64);
        let epoch = self.failover.view_of(w.rack);
        for &req_id in &rep.reacks {
            self.net
                .send(now, w.rack, req_id.source(), ShimMsg::Ack { req_id, epoch });
        }
        for &(req, vm) in rep.lease_aborts.iter().chain(&rep.epoch_aborts) {
            self.txn_aborted(req, vm);
        }
        let resume_at = now + HEARTBEAT_PERIOD + 1;
        if let Some(shim) = self.source(w.rack).and_then(|i| self.shims.get_mut(i)) {
            shim.down = false;
            shim.resume_at = resume_at;
        }
    }

    /// A link-fault window opens: every pre-copy crossing the link stalls
    /// at its checkpoint or re-routes onto a surviving candidate (max-min
    /// shares are recomputed for the survivors).
    fn on_link_fail(&mut self, window: usize) {
        let cfg = self.cfg;
        let (Some(w), Some(ts)) = (cfg.link_faults.get(window), self.transfers.as_mut()) else {
            return;
        };
        let hit = ts.fail_link(self.now, w.link);
        for s in &hit.stalled {
            self.transfer_stalled(s.id, s.vm, s.link);
        }
        for r in &hit.rerouted {
            self.transfer_rerouted(r.id, r.vm, r.hops);
        }
    }

    /// A link-fault window closes: stalled pre-copies resume from their
    /// checkpoints. (Within a tick all fails run before all restores, so
    /// a zero-width window nets out to a restore.)
    fn on_link_restore(&mut self, window: usize) {
        let cfg = self.cfg;
        let (Some(w), Some(ts)) = (cfg.link_faults.get(window), self.transfers.as_mut()) else {
            return;
        };
        for r in ts.restore_link(self.now, w.link) {
            self.transfer_resumed(&r);
        }
    }

    /// A partition heals: reconcile parked work. A pending VM whose rack
    /// another shim now manages was (or will be) handled by that manager
    /// — replanning it here would double-manage, so it is dropped and
    /// counted as a reconciliation conflict. Shims the cut starved into
    /// parking with work left wake for a post-heal replan.
    fn on_heal(&mut self, partition: usize) {
        let cfg = self.cfg;
        let Some(p) = cfg.partitions.get(partition) else {
            return;
        };
        emit(self.sink, || Event::PartitionHealed {
            partition: partition as u64,
            racks: p.members.len() as u64,
        });
        let (failover, placement) = (&*self.failover, &self.cluster.placement);
        for shim in &mut self.shims {
            let (rack, before) = (shim.rack, shim.pending.len());
            shim.pending
                .retain(|&vm| failover.manager_of(placement.rack_of(vm)) == rack);
            self.out.reconciliations += before - shim.pending.len();
            if shim.done && !shim.down && !shim.pending.is_empty() {
                shim.wake();
            }
        }
    }

    /// A beacon period: every live rack, in index order, sends its beacon
    /// to the source shims whose region contains it — the only readers of
    /// its liveness (`plan` consults its own region only) — and to no one
    /// else. The failure detector watches the *emission* (simulator
    /// ground truth), so a partitioned-but-alive shim keeps emitting, a
    /// cut never looks like a crash, and takeover stays crash-only. The
    /// next period is armed first, so the cadence survives crash windows.
    fn on_beacon(&mut self) {
        let now = self.now;
        self.agenda.at(now + HEARTBEAT_PERIOD, FabricEvent::Beacon);
        let clock = self.failover.clock;
        for (r, readers) in self.readers.iter().enumerate() {
            let rack = RackId::from_index(r);
            if self.down.contains(&rack) {
                continue;
            }
            if self.failover.detector.observe_emission(rack, clock + now) == ShimHealth::Dead {
                // a shim the detector wrote off is beaconing again:
                // management reverts to it, while its stale epoch view
                // keeps its old 2PC traffic fenced until it adopts the bump
                self.failover.reinstate(rack);
            }
            let msg = ShimMsg::Beacon {
                rack,
                epoch: self.failover.view_of(rack),
            };
            for &s in readers.iter().filter_map(|&i| self.racks.get(i)) {
                self.net.send(now, rack, s, msg.clone());
            }
        }
    }

    // ---- per-tick phases -------------------------------------------------

    /// Adaptive failure detection: silence beyond the thresholds walks a
    /// shim Alive → Suspect → Dead.
    fn detect(&mut self) {
        let clock = self.failover.clock;
        for (rack, _, health) in self.failover.detector.tick(clock + self.now) {
            match health {
                ShimHealth::Suspect => {
                    emit(self.sink, || Event::ShimSuspected {
                        rack: rack.index() as u64,
                    });
                }
                ShimHealth::Dead => {
                    emit(self.sink, || Event::ShimDeclaredDead {
                        rack: rack.index() as u64,
                    });
                    self.reassign(rack);
                }
                ShimHealth::Alive => {}
            }
        }
    }

    /// A source shim declared Dead while it still holds unplanned work
    /// hands that work to the lowest-index live shim under a bumped
    /// epoch. Its in-flight 2PC stays with the zombie/lease machinery,
    /// which already settles it safely.
    fn reassign(&mut self, rack: RackId) {
        let Some(i) = self.source(rack) else {
            return;
        };
        if !self
            .shims
            .get(i)
            .is_some_and(|s| s.down && !s.pending.is_empty())
        {
            return;
        }
        // shims are in rack order, so the first live one is the lowest
        let Some(j) = self
            .shims
            .iter()
            .enumerate()
            .position(|(j, s)| j != i && !s.down)
        else {
            return;
        };
        let Some(&succ) = self.racks.get(j) else {
            return;
        };
        self.take_over(rack, succ);
        let moved = self
            .shims
            .get_mut(i)
            .map(|s| std::mem::take(&mut s.pending))
            .unwrap_or_default();
        if let Some(s) = self.shims.get_mut(j) {
            s.pending.extend(moved);
            s.wake();
        }
    }

    /// Deliveries: endpoints answer requests, sources absorb replies.
    /// Every pending `deliver_at` has a wake, so the poll happens exactly
    /// at each message's delivery tick.
    fn deliver(&mut self) {
        for (from, to, msg) in self.net.poll(self.now) {
            let hop = (from, to);
            match msg {
                ShimMsg::Beacon { rack, .. } => self.on_liveness(to, rack),
                ShimMsg::Prepare {
                    req_id,
                    vm,
                    dest,
                    lease,
                    epoch,
                } => self.on_prepare(hop, req_id, vm, dest, lease, epoch),
                ShimMsg::PrepareOk { req_id, .. } => self.on_prepare_ok(to, req_id),
                ShimMsg::Commit { req_id, epoch } => self.on_commit(hop, req_id, epoch),
                ShimMsg::Abort { req_id, epoch } => self.on_abort(hop, req_id, epoch),
                ShimMsg::Ack { req_id, .. } => self.on_ack(to, req_id),
                ShimMsg::Reject {
                    req_id,
                    reason,
                    epoch,
                } => self.on_reject(to, req_id, reason, epoch),
            }
        }
    }

    /// Transfer progress: admit queued pre-copies into freed slots,
    /// escalate exhausted retries to a clean 2PC abort, and harvest
    /// pre-copies that streamed their last byte (finalize the deferred
    /// COMMIT and ACK the source). Runs after deliveries, so a COMMIT
    /// landing this tick is already submitted, and before lease expiry,
    /// so a commit completing at the cap tick beats the sweep.
    fn poll_transfers(&mut self) {
        let Some(ts) = self.transfers.as_mut() else {
            return;
        };
        let now = self.now;
        let tick = ts.poll(now);
        for s in &tick.started {
            self.transfer_started(s);
        }
        for r in &tick.rerouted {
            self.transfer_rerouted(r.id, r.vm, r.hops);
        }
        for r in &tick.retried {
            self.out.transfer_retries += 1;
            emit(self.sink, || Event::TransferRetried {
                req: r.id,
                vm: r.vm,
                attempt: r.attempt as u64,
            });
        }
        for r in &tick.resumed {
            self.transfer_resumed(r);
        }
        for f in &tick.failed {
            // retry budget exhausted: roll the prepare back and tell the
            // source the migration expired, so it can replan the VM
            let req_id = ReqId(f.id);
            let meta = self.transfer_meta.remove(&req_id);
            self.fail_transfer(req_id, f.vm, f.attempts, meta.as_ref().map(|m| m.dst_rack));
            if let Some(m) = meta {
                let epoch = self.failover.view_of(m.dst_rack);
                let reason = RejectKind::Expired;
                let msg = ShimMsg::Reject {
                    req_id,
                    reason,
                    epoch,
                };
                self.net.send(now, m.dst_rack, m.src_rack, msg);
            }
        }
        for c in &tick.completions {
            let req_id = ReqId(c.id);
            let Some(m) = self.transfer_meta.remove(&req_id) else {
                continue;
            };
            // finalize under the epoch the COMMIT carried: fencing still
            // applies if the destination's term moved on mid-transfer
            self.commit((m.src_rack, m.dst_rack), req_id, m.epoch);
            emit(self.sink, || Event::TransferCompleted {
                req: c.id,
                vm: c.vm,
                ticks: c.duration,
                bandwidth: c.achieved_bw,
            });
            self.out.transfers_completed += 1;
            self.transfer_durations.push(c.duration);
        }
    }

    /// Transfer-plane invariants, probed at every activation: no
    /// streaming pre-copy may cross a failed link, and every active
    /// transfer must still hold its Prepared journal entry at the
    /// destination. Each breach is flagged once.
    fn probe_transfers(&mut self) {
        let Some(ts) = self.transfers.as_ref() else {
            return;
        };
        for (id, link) in ts.streaming_on_failed_links() {
            if self.flagged_on_failed.insert((id, link)) {
                let v = AuditViolation::TransferOnFailedLink { req: id, link };
                self.transfer_audit.violations.push(v);
            }
        }
        for id in ts.active_ids() {
            let req = ReqId(id);
            let prepared = self.transfer_meta.get(&req).is_some_and(|m| {
                self.endpoints
                    .get(m.dst_rack.index())
                    .is_some_and(|ep| ep.journal().state(req) == Some(TxnState::Prepared))
            });
            if !prepared && self.flagged_no_prepare.insert(id) {
                let v = AuditViolation::TransferWithoutPrepare { req: id };
                self.transfer_audit.violations.push(v);
            }
        }
    }

    /// Lease expiry: a live destination unilaterally aborts prepares whose
    /// COMMIT never arrived (a COMMIT delivered this same tick wins —
    /// deliveries ran first). Crashed endpoints expire theirs during
    /// journal replay on recovery instead.
    fn expire_leases(&mut self) {
        for r in 0..self.endpoints.len() {
            if !self.down.contains(&RackId::from_index(r)) {
                self.abort_expired(r, self.now);
            }
        }
    }

    /// Source-shim actions, in rack order: pass the planning gate, or
    /// retransmit or give up on expired requests, release expired
    /// zombies, and replan or finish. Hosts absorbing an in-flight
    /// pre-copy (PREPARE reserved the VM there, so `host_of` points at
    /// the destination while the stream runs) take no additional arrivals
    /// this window: Eqn. 1 prices moves independently, which only holds
    /// across distinct moves.
    fn act(&mut self) {
        let hot_hosts: BTreeSet<HostId> = match &self.transfers {
            Some(ts) => {
                let placement = &self.cluster.placement;
                ts.in_flight_vms()
                    .into_iter()
                    .map(|v| VmId::from_index(v as usize))
                    .filter(|vm| vm.index() < placement.vm_count())
                    .map(|vm| placement.host_of(vm))
                    .collect()
            }
            None => BTreeSet::new(),
        };
        for i in 0..self.shims.len() {
            let Some(s) = self.shims.get(i) else {
                continue;
            };
            if s.done || s.down {
                continue;
            }
            if !s.started {
                self.start(i, &hot_hosts);
                continue;
            }
            self.expire_requests(i);
            self.expire_zombies(i);
            self.replan_or_finish(i, &hot_hosts);
        }
    }

    // ---- shim actions ----------------------------------------------------

    /// Shim `i` passes its planning gate — the hello window, and one
    /// beacon period after a recovery — and plans; out of planning rounds
    /// it only waits for the verdicts it is still owed.
    fn start(&mut self, i: usize, hot_hosts: &BTreeSet<HostId>) {
        let (now, hello) = (self.now, self.hello);
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        if now < hello || now < shim.resume_at {
            return;
        }
        if shim.rounds_left > 0 {
            shim.started = true;
            self.plan(i, hot_hosts);
        } else if shim.zombies.is_empty() {
            shim.done = true;
        } else {
            shim.started = true;
        }
    }

    /// Expired request deadlines: retransmit with backoff, or give up and
    /// presume the destination dead. A stale copy of a given-up request
    /// may still commit there, so the VM's fate is unknown: it is parked
    /// as a zombie, never replanned, and a late verdict within the
    /// patience window still resolves it.
    fn expire_requests(&mut self, i: usize) {
        let now = self.now;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        let expired: Vec<ReqId> = shim
            .outstanding
            .iter()
            .filter(|(_, o)| o.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for req_id in expired {
            self.out.timeouts += 1;
            let Some(o) = shim.outstanding.get_mut(&req_id) else {
                continue;
            };
            emit(self.sink, || Event::RequestTimeout {
                req: req_id.0,
                attempt: o.attempt as u64 + 1,
            });
            let dest_rack = self.cluster.placement.rack_of_host(o.dest);
            if o.attempt + 1 < MAX_ATTEMPTS {
                o.attempt += 1;
                o.deadline = now + backoff_delay(o.attempt, req_id);
                self.out.resends += 1;
                emit(self.sink, || Event::RequestResent {
                    req: req_id.0,
                    attempt: o.attempt as u64 + 1,
                });
                let epoch = self.failover.view_of(shim.rack);
                let msg = match o.phase {
                    TxnPhase::Preparing => ShimMsg::Prepare {
                        req_id,
                        vm: o.vm,
                        dest: o.dest,
                        lease: o.lease,
                        epoch,
                    },
                    TxnPhase::Committing => ShimMsg::Commit { req_id, epoch },
                };
                self.net.send(now, shim.rack, dest_rack, msg);
            } else if let Some(mut o) = shim.outstanding.remove(&req_id) {
                shim.liveness.presume_dead(dest_rack);
                shim.degrade(self.sink);
                shim.excluded.push((o.vm, o.dest));
                o.deadline = now + self.patience;
                shim.zombies.insert(req_id, o);
            }
        }
    }

    /// Zombies past their patience stay unresolved until round end
    /// settles them against ground truth. A best-effort ABORT lets the
    /// destination release the prepare before its lease runs out.
    fn expire_zombies(&mut self, i: usize) {
        let now = self.now;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        let expired: Vec<ReqId> = shim
            .zombies
            .iter()
            .filter(|(_, o)| o.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        let epoch = self.failover.view_of(shim.rack);
        for req_id in expired {
            let Some(o) = shim.zombies.remove(&req_id) else {
                continue;
            };
            let dest_rack = self.cluster.placement.rack_of_host(o.dest);
            self.net
                .send(now, shim.rack, dest_rack, ShimMsg::Abort { req_id, epoch });
            shim.unresolved.push(o);
        }
    }

    /// Once every PREPARE of the batch has its vote: replan while the
    /// commits drain (their placement effect is already visible), or
    /// finish when truly idle.
    fn replan_or_finish(&mut self, i: usize, hot_hosts: &BTreeSet<HostId>) {
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        if shim
            .outstanding
            .values()
            .any(|o| o.phase == TxnPhase::Preparing)
        {
            return;
        }
        if !shim.pending.is_empty() && shim.rounds_left > 0 && (shim.progressed || shim.gave_up) {
            self.plan(i, hot_hosts);
        } else if shim.outstanding.is_empty() && shim.zombies.is_empty() {
            shim.done = true;
        }
    }

    /// One planning round of shim `i`: rebuild its destination slots
    /// from the live, reachable racks of its region (degradation ladder
    /// step 1; its own rack is always kept — step 2), run Alg. 3's
    /// matching, and PREPARE every assignment.
    fn plan(&mut self, i: usize, hot_hosts: &BTreeSet<HostId>) {
        let now = self.now;
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        shim.rounds_left -= 1;
        shim.progressed = false;
        shim.gave_up = false;
        // an active partition cuts part of the region off *right now*:
        // plan around it immediately instead of waiting for the liveness
        // deadline to notice
        let net = &self.net;
        let mut reachable: Vec<RackId> = shim
            .region
            .iter()
            .copied()
            .filter(|&r| shim.liveness.alive(r, now) && !net.cut(now, shim.rack, r))
            .collect();
        // degraded-mode accounting keys off the ground-truth cut over the
        // whole region: liveness may have aged the far side out already
        // (its beacons stopped arriving the moment the cut opened), but
        // the shim is still planning around a partition, not a crash
        if !shim.part_degraded && shim.region.iter().any(|&r| net.cut(now, shim.rack, r)) {
            shim.part_degraded = true;
            self.out.partition_degraded += 1;
            self.sink.counter("region.partition_degraded", 1);
        }
        if reachable.len() < shim.region.len() {
            shim.degrade(self.sink);
        }
        // destination slots: every host of the reachable racks, plus the
        // shim's own rack
        reachable.push(shim.rack);
        let c = &*self.cluster;
        let mut slots: Vec<HostId> = Vec::new();
        for &r in &reachable {
            slots.extend_from_slice(c.dcn.inventory.hosts_in(r));
        }
        let pending = std::mem::take(&mut shim.pending);
        let (matched, space) = match_victims(
            &c.placement,
            &c.deps,
            self.metric,
            &c.sim,
            &pending,
            &slots,
            &shim.excluded,
            hot_hosts,
        );
        let mut proposals = Vec::new();
        for (vm, assigned) in pending.into_iter().zip(matched) {
            match assigned {
                Some((dest, cost)) => proposals.push((vm, dest, cost)),
                None => shim.pending.push(vm),
            }
        }
        shim.plan.search_space += space;
        emit(self.sink, || Event::PlanComputed {
            rack: shim.rack.index() as u64,
            proposals: proposals.len() as u64,
            unassigned: shim.pending.len() as u64,
            search_space: space as u64,
        });
        let epoch = self.failover.view_of(shim.rack);
        for (vm, dest, cost) in proposals {
            let req_id = ReqId::new(shim.rack, shim.seq);
            shim.seq += 1;
            emit(self.sink, || Event::RequestSent {
                req: req_id.0,
                vm: vm.index() as u64,
                dest_host: dest.index() as u64,
                attempt: 1,
            });
            let lease = now + PREPARE_LEASE;
            let o = Outstanding {
                vm,
                from: c.placement.host_of(vm),
                dest,
                cost,
                attempt: 0,
                deadline: now + backoff_delay(0, req_id),
                phase: TxnPhase::Preparing,
                lease,
            };
            shim.outstanding.insert(req_id, o);
            let msg = ShimMsg::Prepare {
                req_id,
                vm,
                dest,
                lease,
                epoch,
            };
            let dest_rack = c.placement.rack_of_host(dest);
            self.net.send(now, shim.rack, dest_rack, msg);
        }
    }

    // ---- delivered messages: source side ---------------------------------

    /// A beacon from `rack` reaches source shim `to`.
    fn on_liveness(&mut self, to: RackId, rack: RackId) {
        let now = self.now;
        if let Some(shim) = self.source(to).and_then(|i| self.shims.get_mut(i)) {
            shim.liveness.observe(rack, now);
        }
    }

    /// The destination voted yes: send the COMMIT. A late vote for a
    /// zombie resolves it too — the destination is alive and holds the
    /// prepare, so the commit is driven home instead of left for the
    /// lease to strand. A duplicate vote for a committing transaction is
    /// ignored.
    fn on_prepare_ok(&mut self, to: RackId, req_id: ReqId) {
        let now = self.now;
        let placement = &self.cluster.placement;
        let Some(shim) = self.source(to).and_then(|i| self.shims.get_mut(i)) else {
            return;
        };
        match shim.outstanding.get(&req_id).map(|o| o.phase) {
            Some(TxnPhase::Committing) => return,
            Some(TxnPhase::Preparing) => {}
            None => {
                let Some(o) = shim.zombies.remove(&req_id) else {
                    return;
                };
                shim.liveness.observe(placement.rack_of_host(o.dest), now);
                shim.outstanding.insert(req_id, o);
            }
        }
        let Some(o) = shim.outstanding.get_mut(&req_id) else {
            return;
        };
        o.phase = TxnPhase::Committing;
        o.attempt = 0;
        o.deadline = now + backoff_delay(0, req_id);
        // the vote is in: the transaction will commit, so the batch made
        // progress
        shim.progressed = true;
        let dest_rack = placement.rack_of_host(o.dest);
        let epoch = self.failover.view_of(shim.rack);
        self.net
            .send(now, shim.rack, dest_rack, ShimMsg::Commit { req_id, epoch });
    }

    /// The destination committed: record the move. A late ACK for a
    /// given-up request still means the move happened; only that zombie
    /// case counts as batch progress — for a live transaction the
    /// PREPARE-OK already did. A duplicate ACK is ignored.
    fn on_ack(&mut self, to: RackId, req_id: ReqId) {
        let Some(shim) = self.source(to).and_then(|i| self.shims.get_mut(i)) else {
            return;
        };
        let was_zombie = shim.zombies.contains_key(&req_id);
        let Some(o) = shim
            .outstanding
            .remove(&req_id)
            .or_else(|| shim.zombies.remove(&req_id))
        else {
            return;
        };
        emit(self.sink, || Event::AckReceived {
            req: req_id.0,
            vm: o.vm.index() as u64,
        });
        shim.commit_move(&o, self.sink);
        shim.progressed |= was_zombie;
    }

    /// The destination refused: the VM goes back to pending for a replan.
    /// A `Stale` refusal teaches the shim the current term, and the
    /// pairing itself was fine, so it is not excluded. A late REJECT for
    /// a zombie resolves it: the VM definitively did not move.
    fn on_reject(&mut self, to: RackId, req_id: ReqId, reason: RejectKind, epoch: u64) {
        let Some(i) = self.source(to) else {
            return;
        };
        let stale = reason == RejectKind::Stale;
        if stale {
            // a neighbor took over while we were away: adopt its epoch so
            // the replan goes out under the current term
            self.failover.adopt(to, epoch);
        }
        let Some(shim) = self.shims.get_mut(i) else {
            return;
        };
        let (o, zombie) = match shim.outstanding.remove(&req_id) {
            Some(o) => (o, false),
            None => match shim.zombies.remove(&req_id) {
                Some(o) => (o, true),
                None => return,
            },
        };
        emit(self.sink, || Event::RejectReceived {
            req: req_id.0,
            vm: o.vm.index() as u64,
            reason,
        });
        shim.plan.rejected += 1;
        if zombie || stale {
            shim.gave_up = true;
        } else {
            shim.excluded.push((o.vm, o.dest));
        }
        shim.pending.push(o.vm);
    }

    // ---- delivered messages: destination side ----------------------------

    /// Epoch fence: a 2PC message from a deposed manager's term mutates
    /// nothing. The sender gets a `Stale` reject carrying the current
    /// epoch, which it must adopt before replanning. Returns whether the
    /// message was fenced.
    fn fenced(&mut self, (from, to): (RackId, RackId), req_id: ReqId, epoch: u64) -> bool {
        let Some(current) = self.failover.fence(from, epoch) else {
            return false;
        };
        emit(self.sink, || Event::StaleEpochRejected {
            req: req_id.0,
            rack: to.index() as u64,
            stale: epoch,
            current,
        });
        let msg = ShimMsg::Reject {
            req_id,
            reason: RejectKind::Stale,
            epoch: current,
        };
        self.net.send(self.now, to, from, msg);
        true
    }

    /// Phase 1 (Alg. 4's REQUEST): reserve the move, journal the intent,
    /// and vote.
    fn on_prepare(
        &mut self,
        hop: (RackId, RackId),
        req_id: ReqId,
        vm: VmId,
        dest: HostId,
        lease: u64,
        epoch: u64,
    ) {
        if self.fenced(hop, req_id, epoch) {
            return;
        }
        let (from, to) = hop;
        let Some(ep) = self.endpoints.get_mut(to.index()) else {
            return;
        };
        let (hits_before, journalled_before) = (ep.dedup_hits(), ep.journal().len());
        let c = &mut *self.cluster;
        let reply = ep.handle_prepare(&mut c.placement, &c.deps, req_id, vm, dest, lease, epoch);
        if ep.journal().len() > journalled_before {
            emit(self.sink, || Event::TxnPrepared {
                req: req_id.0,
                vm: vm.index() as u64,
                dest_host: dest.index() as u64,
            });
        }
        if ep.dedup_hits() > hits_before {
            emit(self.sink, || Event::DuplicateAbsorbed { req: req_id.0 });
        }
        let msg = ShimEndpoint::reply_2pc_msg(req_id, reply, self.failover.view_of(to));
        self.net.send(self.now, to, from, msg);
    }

    /// Phase 2: finalize — or, with the transfer model on, start the
    /// pre-copy and defer the commit to its completion.
    fn on_commit(&mut self, hop: (RackId, RackId), req_id: ReqId, epoch: u64) {
        if !self.fenced(hop, req_id, epoch) && !self.stream(hop, req_id, epoch) {
            self.commit(hop, req_id, epoch);
        }
    }

    /// The source walked away: undo its prepare (fire-and-forget). A
    /// stale-epoch ABORT is fenced like any other 2PC mutation; the
    /// prepare it targeted drains via its lease instead.
    fn on_abort(&mut self, hop: (RackId, RackId), req_id: ReqId, epoch: u64) {
        if self.fenced(hop, req_id, epoch) {
            return;
        }
        // a pre-copy in flight means the COMMIT was already accepted here:
        // the transaction's fate is sealed, and this is only the source's
        // best-effort give-up ABORT racing the slow transfer. 2PC forbids
        // rolling back past COMMIT — let the stream finish; ground truth
        // settles the move at the source.
        if self.transfer_meta.contains_key(&req_id) {
            self.sink.counter("transfer.abort_ignored", 1);
            return;
        }
        let (_, to) = hop;
        self.abort_prepared(to, req_id);
    }

    /// Finalize the prepared transaction `req_id` at `to` and answer
    /// `from`: the one COMMIT path, for a delivered COMMIT and for a
    /// completed pre-copy alike.
    fn commit(&mut self, (from, to): (RackId, RackId), req_id: ReqId, epoch: u64) {
        let Some(ep) = self.endpoints.get_mut(to.index()) else {
            return;
        };
        let was_prepared = ep.journal().state(req_id) == Some(TxnState::Prepared);
        let reply = ep.handle_commit(req_id, epoch);
        if was_prepared && reply == TwoPhaseReply::Ack {
            if let Some(vm) = ep.journal().get(req_id).map(|r| r.vm) {
                emit(self.sink, || Event::TxnCommitted {
                    req: req_id.0,
                    vm: vm.index() as u64,
                });
            }
        }
        let msg = ShimEndpoint::reply_2pc_msg(req_id, reply, self.failover.view_of(to));
        self.net.send(self.now, to, from, msg);
    }

    /// With the transfer model on, a COMMIT for a prepared, current-epoch
    /// transaction hands the migration to the transfer scheduler instead
    /// of committing: the journal entry stays Prepared under an extended
    /// lease until the last byte lands, so the lease sweep cannot abort
    /// it, and the ACK flows at completion. A duplicate COMMIT while the
    /// pre-copy streams is absorbed. Returns whether the COMMIT was
    /// consumed; a stale one falls through to the normal reject path.
    fn stream(&mut self, (from, to): (RackId, RackId), req_id: ReqId, epoch: u64) -> bool {
        let (Some(ts), Some(ep)) = (self.transfers.as_mut(), self.endpoints.get_mut(to.index()))
        else {
            return false;
        };
        let Some(rec) = ep
            .journal()
            .get(req_id)
            .filter(|r| r.state == TxnState::Prepared && epoch >= r.epoch)
        else {
            return false;
        };
        if self.transfer_meta.contains_key(&req_id) {
            return true;
        }
        let (vm, src_host, dst_host) = (rec.vm, rec.src, rec.dst);
        ep.extend_lease(req_id, u64::MAX);
        let c = &*self.cluster;
        let src_rack = c.placement.rack_of_host(src_host);
        let dst_rack = c.placement.rack_of_host(dst_host);
        let candidates = if src_rack == dst_rack {
            Vec::new()
        } else {
            sheriff_transfer::route_candidates(
                &c.dcn.graph,
                c.dcn.rack_node(src_rack),
                c.dcn.rack_node(dst_rack),
                ts.config().k_paths,
            )
        };
        let spec = TransferSpec {
            id: req_id.0,
            vm: vm.index() as u64,
            dst_rack: to.index(),
            bytes: c.placement.spec(vm).capacity * ts.config().bytes_per_capacity,
        };
        let meta = TransferMeta {
            vm,
            src_rack: from,
            dst_rack: to,
            epoch,
        };
        self.transfer_meta.insert(req_id, meta);
        match ts.submit(self.now, spec, candidates) {
            Admission::Started(s) => self.transfer_started(&s),
            Admission::Queued => self.sink.counter("transfer.queued", 1),
        }
        true
    }

    // ---- shared accounting -------------------------------------------------

    /// Roll back `req_id`'s journalled prepare at `at`'s endpoint.
    fn abort_prepared(&mut self, at: RackId, req_id: ReqId) {
        let Some(ep) = self.endpoints.get_mut(at.index()) else {
            return;
        };
        let c = &mut *self.cluster;
        if let Some((vm, _)) = ep.handle_abort(&mut c.placement, &c.deps, req_id) {
            self.txn_aborted(req_id, vm);
        }
    }

    /// Abort endpoint `r`'s prepares whose lease is `<= until`.
    fn abort_expired(&mut self, r: usize, until: u64) {
        let Some(ep) = self.endpoints.get_mut(r) else {
            return;
        };
        let c = &mut *self.cluster;
        for (req, vm) in ep.expire_leases(&mut c.placement, &c.deps, until) {
            self.txn_aborted(req, vm);
        }
    }

    /// A journalled transaction ended aborted.
    fn txn_aborted(&mut self, req: ReqId, vm: VmId) {
        emit(self.sink, || Event::TxnAborted {
            req: req.0,
            vm: vm.index() as u64,
        });
    }

    /// A pre-copy was admitted: streaming, or stalled from the start when
    /// every candidate route crosses a failed link.
    fn transfer_started(&mut self, s: &Started) {
        self.out.transfers_started += 1;
        emit(self.sink, || Event::TransferStarted {
            req: s.id,
            vm: s.vm,
            bytes: s.bytes,
            hops: s.hops as u64,
            rate: s.rate,
            waited: s.waited,
        });
        if s.rerouted {
            self.transfer_rerouted(s.id, s.vm, s.hops);
        }
        if let Some(link) = s.stalled_on {
            self.transfer_stalled(s.id, s.vm, link);
        }
    }

    /// A pre-copy moved off its primary route (congestion or a failed
    /// link).
    fn transfer_rerouted(&mut self, req: u64, vm: u64, hops: usize) {
        self.out.transfer_reroutes += 1;
        emit(self.sink, || Event::TransferRerouted {
            req,
            vm,
            hops: hops as u64,
        });
    }

    /// A pre-copy lost every route to the failed `link`.
    fn transfer_stalled(&mut self, req: u64, vm: u64, link: usize) {
        self.out.transfer_stalls += 1;
        emit(self.sink, || Event::TransferStalled {
            req,
            vm,
            link: link as u64,
        });
    }

    /// A stalled pre-copy found a route again and resumed from its
    /// checkpoint.
    fn transfer_resumed(&mut self, r: &Resumed) {
        self.out.resumed_bytes_saved += r.saved;
        emit(self.sink, || Event::TransferResumed {
            req: r.id,
            vm: r.vm,
            saved: r.saved,
        });
        // a resume at the tick of the stall still counts one tick
        self.sink
            .counter("transfer.stalled_ticks", r.stalled_ticks.max(1));
    }

    /// A pre-copy failed for good: report it and, if its 2PC context
    /// survives, roll its prepare back at the destination `dst`.
    fn fail_transfer(&mut self, req_id: ReqId, vm: u64, attempts: u32, dst: Option<RackId>) {
        self.out.transfer_failures += 1;
        emit(self.sink, || Event::TransferFailed {
            req: req_id.0,
            vm,
            attempts: attempts as u64,
        });
        if let Some(dst) = dst {
            self.abort_prepared(dst, req_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{FabricRuntime, Runtime};
    use dcn_sim::engine::ClusterConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::{NullSink, RingRecorder};

    fn cluster_k(pods: usize, seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(pods));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 3.0,
                seed,
                ..ClusterConfig::default()
            },
            dcn_sim::SimConfig::paper(),
        )
    }

    fn cluster(seed: u64) -> Cluster {
        cluster_k(8, seed)
    }

    /// One round of `rt` on `c` for `alerts`, observed by `sink`; each
    /// VM's ALERT value is its host's utilisation.
    fn round(
        rt: &mut FabricRuntime,
        c: &mut Cluster,
        alerts: &[Alert],
        sink: &mut dyn EventSink,
    ) -> RoundOutcome {
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let vals: Vec<f64> = c
            .placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect();
        rt.step(&mut RunCtx {
            cluster: c,
            metric: &metric,
            alerts,
            alert_values: &vals,
            sink,
        })
    }

    fn assert_capacity_ok(c: &Cluster) {
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            assert!(
                c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9,
                "host {h} over capacity"
            );
        }
    }

    fn assert_deps_ok(c: &Cluster) {
        for vm in c.placement.vm_ids() {
            let host = c.placement.host_of(vm);
            for &other in c.placement.vms_on(host) {
                if other != vm {
                    assert!(
                        !c.deps.dependent(vm, other),
                        "dependent VMs {vm} and {other} co-located on {host}"
                    );
                }
            }
        }
    }

    /// Replaying `moves` from `initial` lands exactly on `c`'s placement:
    /// every committed move applied once.
    fn assert_moves_replay(initial: &dcn_topology::Placement, moves: &[Move], c: &Cluster) {
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in moves {
            assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }

    /// FNV-1a over a round's plan — every move's (vm, from, to, cost
    /// bits), the rejected count and the unplaced VMs — followed by the
    /// final host of every VM.
    fn plan_digest(plan: &MigrationPlan, c: &Cluster) -> u64 {
        let mut buf = String::new();
        for m in &plan.moves {
            buf.push_str(&format!(
                "mv {:?} {:?} {:?} {:x};",
                m.vm,
                m.from,
                m.to,
                m.cost.to_bits()
            ));
        }
        buf.push_str(&format!(
            "rej {}; unplaced {:?};",
            plan.rejected, plan.unplaced
        ));
        for vm in c.placement.vm_ids() {
            buf.push_str(&format!("{:?};", c.placement.host_of(vm)));
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in buf.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `(cluster seed, alert percent, moves, plan_digest)` of the retired
    /// threaded runtime — one planner thread per alerted shim, commits
    /// FCFS through the destination endpoints in rack order — with
    /// `max_retry = 3` on the k=8 Fat-Tree of [`cluster`].
    const THREADED_DIGESTS: [(u64, u32, usize, u64); 24] = [
        (21, 5, 16, 0x2ca9_c99a_4f4b_2c71),
        (21, 10, 32, 0x86b0_ebd4_0818_ad88),
        (21, 25, 79, 0xa000_d4b9_ae7d_a81e),
        (22, 5, 16, 0x8566_2cb9_b30d_4768),
        (22, 10, 32, 0x23ab_3706_3baa_61b5),
        (22, 25, 79, 0xbe4c_780f_b13d_3910),
        (23, 5, 16, 0x9870_a22b_6e60_a653),
        (23, 10, 32, 0xbc7c_0b07_bcbb_f0bb),
        (23, 25, 80, 0x9e54_f3f4_9158_f1e9),
        (24, 5, 16, 0xb21c_65d6_1bf0_cd1b),
        (24, 10, 32, 0xad73_5df0_687f_8561),
        (24, 25, 80, 0xfe87_4fcc_68f3_4a31),
        (25, 5, 16, 0x0b29_49b5_d7ab_6a45),
        (25, 10, 32, 0x5edc_feed_2dba_14c7),
        (25, 25, 79, 0x87e8_8945_c71a_d853),
        (26, 5, 16, 0x554c_5d0d_6f7a_af04),
        (26, 10, 32, 0xd7ff_a1b8_1272_3933),
        (26, 25, 79, 0xbc07_2d16_61ae_7307),
        (91, 5, 16, 0xa403_3edd_cc87_b37a),
        (91, 10, 32, 0x4b08_a23c_49cd_ab73),
        (91, 25, 78, 0xcb3e_c15d_09d4_c953),
        (92, 5, 16, 0x912e_8626_fe9f_2fb2),
        (92, 10, 32, 0x62bd_4f01_c7ae_bfe6),
        (92, 25, 80, 0xb45a_e2e3_1a16_913c),
    ];

    #[test]
    fn reliable_fabric_reproduces_threaded_plan_exactly() {
        let cfg = FabricConfig::default();
        assert!(cfg.faults.is_reliable());
        assert_eq!(cfg.max_retry, 3);
        for (seed, pct, moves, digest) in THREADED_DIGESTS {
            let mut c = cluster(seed);
            let alerts = c.fraction_alerts(pct as f64 / 100.0, 0);
            let mut rt = FabricRuntime::with_config(cfg.clone());
            let mut rec = RingRecorder::new(1 << 16);
            let rf = round(&mut rt, &mut c, &alerts, &mut rec);
            let count = |name: &str| rec.counters().get(name);

            assert_eq!(rf.plan.moves.len(), moves, "seed {seed} at {pct}%");
            assert_eq!(
                plan_digest(&rf.plan, &c),
                digest,
                "seed {seed} at {pct}%: plan drifted from the threaded runtime's"
            );
            // a perfect channel exercises none of the robustness machinery
            assert_eq!(count("net.dropped"), 0);
            assert_eq!(rf.timeouts, 0);
            assert_eq!(rf.resends, 0);
            assert_eq!(count("net.dedup_hits"), 0);
            assert_eq!(rec.count_kind("shim_degraded"), 0);
            // every move travelled the full PREPARE -> COMMIT -> ACK path
            // and nothing was left half-done
            assert_eq!(count("txn.committed"), rf.plan.moves.len() as u64);
            assert_eq!(count("txn.aborted"), 0);
            assert_eq!(rf.recoveries, 0);
            assert!(rf.audit.is_clean(), "{}", rf.audit);
        }
    }

    #[test]
    fn lossy_fabric_with_crash_completes_and_degrades_gracefully() {
        let mut c = cluster(27);
        let alerts = c.fraction_alerts(0.10, 0);
        // crash the shim of the first alerted rack: its own alert goes
        // unserved and every other shim must route around it
        let crashed = alerts[0].rack;
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop: 0.10,
                ..ChannelFaults::lossy(0.10)
            },
            seed: 99,
            crashed: vec![CrashWindow::whole_round(crashed)],
            ..FabricConfig::default()
        };
        let mut rt = FabricRuntime::with_config(cfg);
        let mut rec = RingRecorder::new(1 << 16);
        let report = round(&mut rt, &mut c, &alerts, &mut rec);

        assert!(report.ticks < MAX_TICKS, "round wedged until the tick cap");
        assert!(
            !report.plan.moves.is_empty(),
            "lossy fabric still made progress"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        assert_eq!(report.crashed_shims, 1);
        assert!(
            rec.counters().get("net.dropped") > 0,
            "10% loss must drop something"
        );
        assert!(report.timeouts > 0, "drops must surface as timeouts");
        assert!(report.resends > 0, "timeouts must trigger retransmissions");
        assert!(
            rec.count_kind("shim_degraded") > 0,
            "crash must degrade someone's region"
        );
    }

    #[test]
    fn duplicated_requests_never_double_apply() {
        let duplicating = FabricConfig {
            faults: ChannelFaults {
                duplicate: 0.5,
                ..ChannelFaults::reliable()
            },
            seed: 5,
            ..FabricConfig::default()
        };
        // the reliable case pins the plain bookkeeping: recorded moves and
        // costs match the final placement with no duplicates in play
        for (seed, pct, cfg) in [(28, 0.10, duplicating), (24, 0.05, FabricConfig::default())] {
            let mut c = cluster(seed);
            let initial = c.placement.clone();
            let alerts = c.fraction_alerts(pct, 0);
            let reliable = cfg.faults.is_reliable();
            let mut rec = RingRecorder::new(1);
            let report = round(
                &mut FabricRuntime::with_config(cfg),
                &mut c,
                &alerts,
                &mut rec,
            );
            assert!(!report.plan.moves.is_empty());
            let dedup_hits = rec.counters().get("net.dedup_hits");
            if reliable {
                assert_eq!(dedup_hits, 0);
            } else {
                assert!(dedup_hits > 0, "50% duplication must hit the dedup log");
            }
            assert_moves_replay(&initial, &report.plan.moves, &c);
            let sum: f64 = report.plan.moves.iter().map(|m| m.cost).sum();
            assert!((report.plan.total_cost - sum).abs() < 1e-9);
            assert_capacity_ok(&c);
        }
    }

    #[test]
    fn fabric_with_all_shims_crashed_is_a_noop() {
        let mut c = cluster(29);
        let alerts = c.fraction_alerts(0.05, 0);
        let before = c.utilization_stddev();
        let crashed: Vec<RackId> = {
            let mut r: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
            r.sort_unstable();
            r.dedup();
            r
        };
        let cfg = FabricConfig {
            crashed: crashed
                .iter()
                .copied()
                .map(CrashWindow::whole_round)
                .collect(),
            ..FabricConfig::default()
        };
        let mut rt = FabricRuntime::with_config(cfg);
        let report = round(&mut rt, &mut c, &alerts, &mut NullSink);
        assert_eq!(report.shims, 0);
        assert_eq!(report.crashed_shims, crashed.len());
        assert!(report.plan.moves.is_empty());
        assert_eq!(c.utilization_stddev(), before);

        // a round without alerts is a no-op on a healthy fabric too
        let mut rt = FabricRuntime::default();
        let report = round(&mut rt, &mut c, &[], &mut NullSink);
        assert_eq!(report.shims, 0);
        assert!(report.plan.moves.is_empty());
        assert_eq!(c.utilization_stddev(), before);
    }

    #[test]
    fn mid_round_source_crash_recovers_and_audits_clean() {
        let mut c = cluster(31);
        let initial = c.placement.clone();
        let alerts = c.fraction_alerts(0.10, 0);
        // kill an alerted source shim between its PREPARE burst (applied
        // at t = 3 on the destinations) and the COMMIT phase, then
        // recover it: the orphaned prepares must lease-abort cleanly and
        // the recovered shim rejoins planning
        let victim = alerts[0].rack;
        let cfg = FabricConfig {
            crashed: vec![CrashWindow::during(victim, 4, 12)],
            ..FabricConfig::default()
        };
        let mut rt = FabricRuntime::with_config(cfg);
        let report = round(&mut rt, &mut c, &alerts, &mut NullSink);

        assert!(report.ticks < MAX_TICKS, "round wedged");
        assert_eq!(report.recoveries, 1);
        assert_eq!(
            report.crashed_shims, 0,
            "a recovering shim is not written off"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        // exactly-once despite the crash
        assert_moves_replay(&initial, &report.plan.moves, &c);
    }

    #[test]
    fn mid_round_source_crash_settles_without_zombie_txns() {
        let mut c = cluster(32);
        let alerts = c.fraction_alerts(0.10, 0);
        // kill an alerted source shim right after its PREPAREs land and
        // never bring it back: its prepares must lease-abort or settle,
        // never stay half-done
        let victim = alerts[0].rack;
        let cfg = FabricConfig {
            crashed: vec![CrashWindow {
                rack: victim,
                crash_at: 4,
                recover_at: None,
            }],
            ..FabricConfig::default()
        };
        let mut rt = FabricRuntime::with_config(cfg);
        let report = round(&mut rt, &mut c, &alerts, &mut NullSink);
        assert!(report.ticks < MAX_TICKS, "round wedged");
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn sustained_crash_takeover_then_zombie_is_fenced() {
        let mut c = cluster(33);
        let alerts = c.fraction_alerts(0.10, 0);
        let victim = alerts[0].rack;
        let mut rt = FabricRuntime {
            cfg: FabricConfig {
                crashed: vec![CrashWindow::whole_round(victim)],
                ..FabricConfig::default()
            },
            failover: RegionFailover::default(),
        };
        // the victim stays dark across rounds: the detector walks it to
        // Dead and exactly one takeover (epoch bump) follows, however
        // many further rounds it stays dead
        let mut rec = RingRecorder::new(1);
        for _ in 0..6 {
            let r = round(&mut rt, &mut c, &alerts, &mut rec);
            assert!(r.audit.is_clean(), "{}", r.audit);
        }
        assert_eq!(
            rec.counters().get("region.takeovers"),
            1,
            "one manager change, one epoch bump"
        );
        assert_eq!(rt.failover.epoch_of(victim), 1);
        assert!(rt.failover.taken_over(victim));
        assert_eq!(
            rt.failover.view_of(victim),
            0,
            "the deposed shim never heard the bump"
        );

        // the shim returns: its first PREPARE burst still carries epoch
        // 0, gets fenced, and the reject teaches it the current epoch
        rt.cfg = FabricConfig::default();
        let mut rec = RingRecorder::new(1);
        let r = round(&mut rt, &mut c, &alerts, &mut rec);
        assert!(
            rec.counters().get("txn.fenced") > 0,
            "zombie PREPAREs must be fenced"
        );
        assert_eq!(rt.failover.view_of(victim), 1, "reject taught the epoch");
        assert!(
            !rt.failover.taken_over(victim),
            "beaconing again reinstates management"
        );
        assert!(r.audit.is_clean(), "{}", r.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn crash_recover_with_concurrent_takeover_never_double_manages() {
        let mut c = cluster(36);
        let initial = c.placement.clone();
        let alerts = c.fraction_alerts(0.10, 0);
        let victim = alerts[0].rack;
        // a crash that outlasts the detector's dead threshold (Dead at
        // t = 25) is declared mid-round; its unplanned work moves to a
        // successor under a bumped epoch, and the shim then recovers into
        // the takeover — the regression this guards is two shims both
        // claiming the victim's VMs
        let mut rt = FabricRuntime::with_config(FabricConfig {
            crashed: vec![CrashWindow::during(victim, 1, 40)],
            ..FabricConfig::default()
        });
        let mut rec = RingRecorder::new(1);
        let report = round(&mut rt, &mut c, &alerts, &mut rec);
        assert!(report.ticks < MAX_TICKS, "round wedged");
        assert_eq!(
            rec.counters().get("region.takeovers"),
            1,
            "mid-round takeover must fire"
        );
        assert_eq!(rt.failover.epoch_of(victim), 1);
        assert_eq!(report.recoveries, 1);
        // the manager audit (merged into report.audit) proves no VM was
        // pending/outstanding at two shims at once
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        // exactly-once despite crash + takeover
        assert_moves_replay(&initial, &report.plan.moves, &c);
    }

    #[test]
    fn partition_degrades_minority_without_takeover_or_fencing() {
        let mut c = cluster(34);
        let alerts = c.fraction_alerts(0.10, 0);
        let isolated = alerts[0].rack;
        let mut rt = FabricRuntime {
            cfg: FabricConfig {
                partitions: vec![PartitionWindow::new(vec![isolated], 0, Some(24))],
                ..FabricConfig::default()
            },
            failover: RegionFailover::default(),
        };
        let mut rec = RingRecorder::new(1);
        let report = round(&mut rt, &mut c, &alerts, &mut rec);
        assert!(
            report.partition_degraded > 0,
            "the cut shim must notice its shrunken region"
        );
        // emission-based detection: a partitioned-but-alive shim keeps
        // beaconing, so the cut never looks like a crash
        let count = |name: &str| rec.counters().get(name);
        assert_eq!(count("region.takeovers"), 0, "a partition is not a crash");
        assert_eq!(count("txn.fenced"), 0, "no epoch bumped, nothing to fence");
        assert_eq!(report.crashed_shims, 0);
        for r in 0..c.dcn.rack_count() {
            assert_eq!(rt.failover.epoch_of(RackId::from_index(r)), 0);
        }
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn partitioned_lossy_fabric_is_deterministic() {
        let run = || {
            let mut c = cluster(35);
            let alerts = c.fraction_alerts(0.10, 0);
            let mut rt = FabricRuntime {
                cfg: FabricConfig {
                    faults: ChannelFaults::lossy(0.05),
                    seed: 41,
                    partitions: vec![PartitionWindow::new(vec![alerts[0].rack], 2, Some(20))],
                    ..FabricConfig::default()
                },
                failover: RegionFailover::default(),
            };
            let report = round(&mut rt, &mut c, &alerts, &mut NullSink);
            let placement: Vec<HostId> = c
                .placement
                .vm_ids()
                .map(|vm| c.placement.host_of(vm))
                .collect();
            (report, placement)
        };
        let (r1, p1) = run();
        let (r2, p2) = run();
        assert_eq!(p1, p2, "same seed, same placement");
        assert!(!p1.is_empty());
        assert_eq!(r1, r2, "same seed, same outcome");
    }

    #[test]
    fn a_shim_whose_plan_proposes_nothing_finishes_on_the_next_tick() {
        // The only alerted shim crashes at t = 3 with its PREPAREs in
        // flight, which go to `unresolved`, and recovers at t = 20. Its
        // planning gate opens at t = 29 and that plan sends no PREPARE.
        // With nothing in flight it must finish at t = 30 instead of
        // idling until the beacon at t = 32 wakes it.
        let mut c = cluster(31);
        let mut alerts = c.fraction_alerts(0.10, 0);
        let rack = alerts[0].rack;
        alerts.retain(|a| a.rack == rack);
        let cfg = FabricConfig {
            crashed: vec![CrashWindow::during(rack, 3, 20)],
            ..FabricConfig::default()
        };
        let mut rt = FabricRuntime::with_config(cfg);
        let report = round(&mut rt, &mut c, &alerts, &mut NullSink);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.ticks, 30, "the round waited past the empty plan");
        assert!(report.audit.is_clean(), "{}", report.audit);
    }

    #[test]
    fn crash_outlasting_the_dead_threshold_is_declared_before_recovery() {
        // Regression for heartbeat emission timing: every rack beacons at
        // t = 0 and then once per HEARTBEAT_PERIOD, so the adaptive
        // detector declares a silent shim Dead at an exact tick.
        //
        // The victim crashes mid-negotiation at t = 5. Only its t = 0
        // beacon lands before the crash, the mean interval stays at the
        // 8-tick hint, and Dead needs max(LIVENESS_DEADLINE, 3·8) + 1 =
        // 25 ticks of silence (t = 25).
        // Back at t = 24, the victim beacons on that period tick and
        // resets the clock first, so no death is ever declared; back at
        // t = 26, it is declared Dead at t = 25, before it recovers.
        let run = |recover_at: u64| {
            let mut c = cluster(26);
            let alerts = c.fraction_alerts(0.10, 0);
            let victim = alerts[0].rack;
            let mut rt = FabricRuntime::with_config(FabricConfig {
                crashed: vec![CrashWindow::during(victim, 5, recover_at)],
                ..FabricConfig::default()
            });
            let mut rec = RingRecorder::new(65536);
            let report = round(&mut rt, &mut c, &alerts, &mut rec);
            assert!(report.audit.is_clean(), "{}", report.audit);
            assert_eq!(report.recoveries, 1, "the victim must come back");
            assert_capacity_ok(&c);
            assert_deps_ok(&c);
            rec.count_kind("shim_declared_dead")
        };
        assert_eq!(run(24), 0, "a crash over by t = 24 is never declared");
        assert!(
            run(26) >= 1,
            "a crash still silent at t = 25 must be declared before recovery"
        );
    }

    #[test]
    fn reordering_alone_degrades_no_shim() {
        // a channel that reorders or delays but loses nothing must not
        // make a live shim plan around a missing neighbour: the hello
        // window must cover the longest delivery delay, reorder hold-back
        // included, or the first plan runs before every beacon has
        // landed. A config written as a struct literal gets the same
        // window as one built with `for_channel`.
        let reorder = ChannelFaults {
            reorder: 0.3,
            ..ChannelFaults::reliable()
        };
        let slow = ChannelFaults {
            delay_min: 1,
            delay_max: 4,
            ..ChannelFaults::reliable()
        };
        let literal = |faults| FabricConfig {
            faults,
            seed: 7,
            ..FabricConfig::default()
        };
        let configs = [
            FabricConfig::for_channel(reorder.clone(), 7),
            literal(reorder),
            literal(slow),
        ];
        for cfg in configs {
            let faults = cfg.faults.clone();
            let mut c = cluster(26);
            let alerts = c.fraction_alerts(0.10, 0);
            let mut rec = RingRecorder::new(1 << 16);
            let report = round(
                &mut FabricRuntime::with_config(cfg),
                &mut c,
                &alerts,
                &mut rec,
            );
            assert!(report.shims > 0 && !report.plan.moves.is_empty());
            assert_eq!(
                rec.count_kind("shim_degraded"),
                0,
                "{faults:?}: of {} shims",
                report.shims
            );
            assert!(report.audit.is_clean(), "{}", report.audit);
        }
    }

    #[test]
    fn uncommitted_leftovers_settle_as_failed_migrations() {
        // regression for the EVT01 dead-variant finding: a request cut
        // off by loss + crash whose move never reached ground truth must
        // surface as MigrationFailed (event and counter agree), not
        // vanish silently back into the pending queue. Seed 12 is the
        // first channel seed, counting from 0, whose round settles
        // exactly one unknown fate as failed.
        let mut c = cluster(27);
        let alerts = c.fraction_alerts(0.10, 0);
        let crashed = alerts[0].rack;
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop: 0.10,
                ..ChannelFaults::lossy(0.10)
            },
            seed: 12,
            crashed: vec![CrashWindow::whole_round(crashed)],
            ..FabricConfig::default()
        };
        let mut rec = RingRecorder::new(65536);
        let report = round(
            &mut FabricRuntime::with_config(cfg),
            &mut c,
            &alerts,
            &mut rec,
        );
        let failed: Vec<u64> = rec
            .to_vec()
            .into_iter()
            .filter_map(|e| match e {
                Event::MigrationFailed { vm, .. } => Some(vm),
                _ => None,
            })
            .collect();
        assert_eq!(
            failed.len(),
            1,
            "seed 12 settles exactly one unknown fate as failed"
        );
        assert_eq!(rec.counters().get("migrations.failed"), 1);
        assert!(
            !report
                .plan
                .moves
                .iter()
                .any(|m| m.vm.index() as u64 == failed[0]),
            "a failed migration must not also appear in the committed plan"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    /// Every `RoundOutcome` counter beside the sink's count of the same
    /// fact: `(sink counter, outcome value, sink value)`.
    fn counter_pairs(out: &RoundOutcome, rec: &RingRecorder) -> Vec<(&'static str, usize, u64)> {
        let c = rec.counters();
        let pair = |name: &'static str, n: usize| (name, n, c.get(name));
        let recovered = rec.count_kind("shim_recovered") as u64;
        vec![
            pair("net.timeouts", out.timeouts),
            pair("net.resends", out.resends),
            pair("region.partition_degraded", out.partition_degraded),
            pair("transfer.started", out.transfers_started),
            pair("transfer.completed", out.transfers_completed),
            pair("transfer.rerouted", out.transfer_reroutes),
            pair("transfer.stalled", out.transfer_stalls),
            pair("transfer.retried", out.transfer_retries),
            pair("transfer.failed", out.transfer_failures),
            ("shim_recovered", out.recoveries, recovered),
            pair("migrations.committed", out.plan.moves.len()),
            pair("migrations.rejected", out.plan.rejected),
        ]
    }

    #[test]
    fn every_outcome_counter_agrees_with_its_sink_counter() {
        let mut exercised: BTreeSet<&str> = BTreeSet::new();
        let mut check = |rt: &mut FabricRuntime, c: &mut Cluster, alerts: &[Alert]| {
            let mut rec = RingRecorder::new(1 << 16);
            let out = round(rt, c, alerts, &mut rec);
            for (name, outcome, sink) in counter_pairs(&out, &rec) {
                assert_eq!(outcome as u64, sink, "{name}");
                if outcome > 0 {
                    exercised.insert(name);
                }
            }
        };

        // a lossy channel and a mid-round crash that recovers
        let mut c = cluster(27);
        let alerts = c.fraction_alerts(0.10, 0);
        let cfg = FabricConfig {
            faults: ChannelFaults::lossy(0.10),
            seed: 99,
            crashed: vec![CrashWindow::during(alerts[0].rack, 4, 12)],
            ..FabricConfig::default()
        };
        check(&mut FabricRuntime::with_config(cfg), &mut c, &alerts);

        // a takeover, then the returning zombie is fenced
        let mut c = cluster(33);
        let alerts = c.fraction_alerts(0.10, 0);
        let mut rt = FabricRuntime {
            cfg: FabricConfig {
                crashed: vec![CrashWindow::whole_round(alerts[0].rack)],
                ..FabricConfig::default()
            },
            failover: RegionFailover::default(),
        };
        for _ in 0..6 {
            check(&mut rt, &mut c, &alerts);
        }
        rt.cfg = FabricConfig::default();
        check(&mut rt, &mut c, &alerts);

        // a partition cutting an alerted rack off
        let mut c = cluster(34);
        let alerts = c.fraction_alerts(0.10, 0);
        let cfg = FabricConfig {
            partitions: vec![PartitionWindow::new(vec![alerts[0].rack], 0, Some(24))],
            ..FabricConfig::default()
        };
        check(&mut FabricRuntime::with_config(cfg), &mut c, &alerts);

        // pre-copies admitted while every route is cut stall at once:
        // every third link fails from tick 10 to 40, and rack 1 dies for
        // good at tick 12
        let mut c = cluster_k(4, 26);
        let alerts = c.fraction_alerts(0.15, 0);
        let cfg = FabricConfig {
            link_faults: (0..c.dcn.graph.edge_count())
                .step_by(3)
                .map(|e| LinkFaultWindow::during(e, 10, 40))
                .collect(),
            crashed: vec![CrashWindow {
                rack: RackId::from_index(1),
                crash_at: 12,
                recover_at: None,
            }],
            ..FabricConfig::default()
        }
        .with_transfer(sheriff_transfer::TransferConfig {
            link_bandwidth: 1.0,
            stall_budget: 3,
            max_attempts: 2,
            ..sheriff_transfer::TransferConfig::default()
        });
        check(&mut FabricRuntime::with_config(cfg), &mut c, &alerts);

        let all: BTreeSet<&str> = counter_pairs(&RoundOutcome::default(), &RingRecorder::new(1))
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        assert_eq!(exercised, all, "every pair must be exercised somewhere");
    }

    /// Every tick `agenda` activates from here on, in order.
    fn activations(agenda: &mut Agenda) -> Vec<u64> {
        let mut ticks = Vec::new();
        while let Some(t) = agenda.next() {
            agenda.take(t);
            ticks.push(t);
        }
        ticks
    }

    #[test]
    fn a_wake_survives_the_timeout_moving_off_its_tick() {
        let mut agenda = Agenda::default();
        agenda.timeout_at(9);
        agenda.wake(9);
        agenda.timeout_at(5);
        assert_eq!(activations(&mut agenda), [5, 9]);
    }

    #[test]
    fn a_timeout_on_an_activated_tick_adds_no_activation() {
        let mut agenda = Agenda::default();
        agenda.at(7, FabricEvent::Beacon);
        agenda.wake(12);
        agenda.timeout_at(7);
        assert_eq!(agenda.timeout, None, "an event already activates 7");
        agenda.timeout_at(12);
        assert_eq!(agenda.timeout, None, "a wake already activates 12");
        assert_eq!(activations(&mut agenda), [7, 12]);
    }

    #[test]
    fn a_farther_deadline_never_displaces_a_nearer_one() {
        let mut agenda = Agenda::default();
        agenda.timeout_at(6);
        agenda.timeout_at(10);
        assert_eq!(agenda.timeout, Some(6));
        assert_eq!(activations(&mut agenda), [6]);
    }

    #[test]
    fn a_tick_runs_its_events_in_phase_then_schedule_order() {
        use FabricEvent::{Beacon, Crash, Heal, LinkFail, LinkRestore};
        let mut agenda = Agenda::default();
        for ev in [
            LinkRestore(0),
            Heal(0),
            LinkFail(1),
            Beacon,
            Crash(2),
            LinkFail(0),
        ] {
            agenda.at(3, ev);
        }
        assert_eq!(
            agenda.take(3),
            [
                Crash(2),
                LinkFail(1),
                LinkFail(0),
                LinkRestore(0),
                Heal(0),
                Beacon
            ]
        );
        assert_eq!(agenda.next(), None);
    }

    #[test]
    fn the_next_activation_is_the_earlier_of_first_tick_and_timeout() {
        let mut agenda = Agenda::default();
        agenda.wake(8);
        agenda.timeout_at(5);
        assert_eq!(agenda.next(), Some(5), "the timeout comes first");
        assert!(agenda.take(5).is_empty());
        assert_eq!(agenda.timeout, None, "taking tick 5 fires its timeout");
        assert_eq!(agenda.next(), Some(8));
        agenda.timeout_at(11);
        assert_eq!(agenda.next(), Some(8), "the first tick comes first");
        assert!(agenda.take(8).is_empty());
        assert_eq!(agenda.next(), Some(11));
    }
}
