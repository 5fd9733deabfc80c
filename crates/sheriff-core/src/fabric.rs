//! The message-passing fabric runtime on the deterministic event core.
//!
//! [`fabric_round_failover_obs`] runs one management round as a
//! discrete-event simulation over [`sheriff_sim`]: heartbeat emissions,
//! failure-detector sweeps, REQUEST/2PC timeouts and backoff, lease
//! expiry, crash/recover windows and partition heals are all *scheduled
//! events* on a [`Simulation`] agenda instead of per-tick drains of the
//! channel and fault queues. The round advances from activation to
//! activation; at every activated virtual tick it runs the same phases
//! in the same order as the historical per-tick loop, so the event core
//! reproduces the per-tick fabric byte for byte (DESIGN.md §10 maps
//! each phase to its event type and delay source).
//!
//! The correctness argument is *activation-time superset*: the agenda
//! is seeded and maintained so that every tick at which any phase could
//! change state — a delivery, a deadline, a lease, a detector
//! transition, a beacon, a schedule window — is activated, and ticks in
//! between are provably no-ops (the per-tick loop ran every phase every
//! tick; a phase with no due work does nothing). Extra activations are
//! therefore harmless and missed ones are the only bug class, which is
//! what the byte-identical equivalence tests pin.
//!
//! Because time is now continuous inside the round, behavior rounds
//! alone cannot express becomes available: per-rack liveness-beacon
//! intervals ([`FabricConfig::with_beacon_interval`]) and per-rack
//! alert-check intervals ([`FabricConfig::with_alert_check`]) that fire
//! at their own virtual times within one round.

use crate::audit::{
    audit_journals, audit_managers, audit_moves, audit_placement, AuditReport, AuditViolation,
};
use crate::channel::{CrashWindow, LinkFaultWindow, PartitionWindow, SimNet};
use crate::distributed::{
    plan_proposals, region_slots, reject_kind, select_victims, DistributedReport, ShimState,
};
use crate::failure::{RegionFailover, ShimHealth};
use crate::journal::TxnState;
use crate::protocol::{
    BackoffPolicy, Liveness, RejectReason, ReqId, ShimEndpoint, ShimMsg, TwoPhaseReply,
};
use dcn_sim::engine::Cluster;
use dcn_sim::{Alert, ChannelFaults, RackMetric, SimConfig};
use dcn_topology::{HostId, RackId, VmId};
use sheriff_obs::{emit, Event, EventSink};
use sheriff_sim::{EventId, Simulation, VirtualTime};
use std::collections::{BTreeMap, BTreeSet};

use crate::vmmigration::Move;

/// Configuration of the message-passing fabric runtime.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Channel fault model (drop/duplicate/reorder/delay).
    pub faults: ChannelFaults,
    /// Seed for the channel's fault RNG.
    pub seed: u64,
    /// Replan rounds per shim after the first (Alg. 3's negotiation
    /// retries).
    pub max_retry: usize,
    /// Timeout/retransmission policy per request.
    pub backoff: BackoffPolicy,
    /// Ticks to collect `Hello`s before the first planning round; must
    /// exceed the channel's maximum delay or live racks look dead.
    pub hello_window: u64,
    /// Interval between liveness beacons.
    pub heartbeat_period: u64,
    /// Silence (in ticks) after which a rack is presumed dead.
    pub liveness_deadline: u64,
    /// Hard cap on virtual time — a deadlock backstop; unresolved
    /// requests at the cap are abandoned and their VMs reported unplaced.
    pub max_ticks: u64,
    /// Shim crash schedule in virtual time. A window with `crash_at == 0`
    /// and no `recover_at` reproduces the old whole-round semantics (the
    /// shim answers no requests, sends no heartbeats and serves none of
    /// its own alerts); any other window crashes the shim mid-round and
    /// optionally recovers it, at which point it replays its intent
    /// journal and rejoins heartbeating.
    pub crashed: Vec<CrashWindow>,
    /// Named network-partition schedule in virtual time: while a window
    /// is active, traffic crossing its cut is silently swallowed. Both
    /// sides keep working — the minority side in degraded local mode —
    /// and reconcile when the window heals.
    pub partitions: Vec<PartitionWindow>,
    /// Ticks a journalled PREPARE stays valid without a COMMIT before the
    /// destination unilaterally aborts it. Must comfortably exceed one
    /// prepare → commit round trip or healthy transactions expire.
    pub prepare_lease: u64,
    /// Per-rack liveness-beacon interval overrides: `(rack, every)`
    /// pairs. A listed rack beacons every `every` ticks instead of the
    /// global heartbeat interval, letting a critical rack be watched at
    /// a tighter cadence. Empty (the default) keeps every rack on the
    /// global interval and reproduces the historical per-tick fabric
    /// exactly.
    pub beacon_intervals: Vec<(RackId, u64)>,
    /// Per-rack alert-check intervals: `(rack, every)` pairs. A listed
    /// source rack rescans itself for fresh pre-alerts every `every`
    /// ticks of virtual time *within* the round — the paper's regional
    /// pre-alert checks decoupled from round boundaries. Empty (the
    /// default) disables mid-round checks.
    pub alert_checks: Vec<(RackId, u64)>,
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
    /// pre-copy as a scheduled transfer on the event core: routed over
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
            backoff: BackoffPolicy::default(),
            hello_window: 2,
            heartbeat_period: 8,
            liveness_deadline: 24,
            max_ticks: 4096,
            crashed: Vec::new(),
            partitions: Vec::new(),
            prepare_lease: 64,
            beacon_intervals: Vec::new(),
            alert_checks: Vec::new(),
            link_faults: Vec::new(),
            transfer: None,
        }
    }
}

impl FabricConfig {
    /// A fabric configuration for the given channel fault model, with
    /// the hello window widened past the channel's worst base delay so a
    /// healthy, slow channel is not mistaken for dead shims.
    pub fn for_channel(faults: ChannelFaults, seed: u64) -> Self {
        let hello = 2u64.max(faults.delay_max + 1);
        Self {
            faults,
            seed,
            hello_window: hello,
            ..Self::default()
        }
    }

    /// Override the pre-planning hello window.
    pub fn with_hello_window(mut self, ticks: u64) -> Self {
        self.hello_window = ticks;
        self
    }

    /// Override the global liveness-beacon interval.
    pub fn with_heartbeat_every(mut self, ticks: u64) -> Self {
        self.heartbeat_period = ticks;
        self
    }

    /// Override the liveness silence deadline.
    pub fn with_liveness_deadline(mut self, ticks: u64) -> Self {
        self.liveness_deadline = ticks;
        self
    }

    /// Beacon `rack` every `every` ticks instead of the global interval.
    pub fn with_beacon_interval(mut self, rack: RackId, every: u64) -> Self {
        self.beacon_intervals.retain(|(r, _)| *r != rack);
        self.beacon_intervals.push((rack, every));
        self
    }

    /// Rescan `rack` for fresh pre-alerts every `every` ticks of virtual
    /// time within the round.
    pub fn with_alert_check(mut self, rack: RackId, every: u64) -> Self {
        self.alert_checks.retain(|(r, _)| *r != rack);
        self.alert_checks.push((rack, every));
        self
    }

    /// Enable the network-aware transfer model: committed migrations
    /// stream their pre-copy over routed, bandwidth-shared transfers
    /// instead of settling instantaneously.
    pub fn with_transfer(mut self, transfer: sheriff_transfer::TransferConfig) -> Self {
        self.transfer = Some(transfer);
        self
    }

    /// Schedule a data-plane link fault window for the transfer plane.
    pub fn with_link_fault(mut self, window: LinkFaultWindow) -> Self {
        self.link_faults.push(window);
        self
    }

    /// The global liveness-beacon interval.
    pub fn heartbeat_every(&self) -> u64 {
        self.heartbeat_period
    }

    /// The beacon interval of `rack`: its override if listed, else the
    /// global interval.
    pub fn beacon_every(&self, rack: RackId) -> u64 {
        self.beacon_intervals
            .iter()
            .find(|(r, _)| *r == rack)
            .map(|&(_, every)| every)
            .unwrap_or_else(|| self.heartbeat_every())
    }

    /// The alert-check interval of `rack` (0 = no mid-round checks).
    pub fn alert_check_every(&self, rack: RackId) -> u64 {
        self.alert_checks
            .iter()
            .find(|(r, _)| *r == rack)
            .map(|&(_, every)| every)
            .unwrap_or(0)
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
    st: ShimState,
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
    /// ground truth when the simulator assembles the report.
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

/// Why a derived [`FabricEvent::Wake`] activation was scheduled — the
/// delay-source column of the DESIGN.md §10 phase table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeReason {
    /// The channel's next pending `deliver_at`.
    Delivery,
    /// The earliest request/zombie deadline (backoff policy).
    Timeout,
    /// The earliest journalled PREPARE lease.
    Lease,
    /// The failure detector's next silence-threshold crossing.
    Detector,
    /// A shim's `max(hello_window, resume_at)` planning gate.
    ShimStart,
    /// The transfer scheduler's next completion (or a queued transfer
    /// waiting for an admission slot).
    Transfer,
}

/// The fabric round's event vocabulary. Round phases map onto these
/// one-to-one; `Wake` events carry no payload because an activation
/// runs *all* phases for its tick (activation-time superset).
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
    /// A liveness beacon from a rack (Hello at tick 0, Heartbeat after),
    /// self-rescheduling at the rack's beacon interval.
    Beacon(RackId),
    /// A per-rack alert-check interval fires.
    AlertCheck(RackId),
    /// A derived activation with no payload of its own.
    Wake(WakeReason),
}

/// Actor id for derived wakes (no rack owns them).
const WAKE_ACTOR: u64 = u64::MAX;

/// Schedule a derived activation at `at`, deduplicated on time: if any
/// never-cancelled event is already on the agenda for that tick, the
/// tick is activated regardless and no extra wake is needed.
fn schedule_wake(
    agenda: &mut Simulation<FabricEvent>,
    seen: &mut BTreeSet<u64>,
    at: u64,
    reason: WakeReason,
) {
    if seen.insert(at) {
        agenda.schedule_at(VirtualTime::new(at), WAKE_ACTOR, FabricEvent::Wake(reason));
    }
}

/// Run one management round entirely over the simulated shim channel:
/// REQUEST/ACK/REJECT with deadlines, backoff, idempotent retransmission,
/// heartbeat liveness, and graceful degradation around crashed shims,
/// with an [`EventSink`] observing the message exchange:
/// every REQUEST/ACK/REJECT, timeout, retransmission, absorbed duplicate,
/// degradation step, and crashed shim becomes a structured event, and the
/// channel's [`NetStats`](crate::channel::NetStats) land in counters
/// (`net.sent`, `net.dropped`, ...). The runtime is single-threaded in
/// virtual time, so the event stream is deterministic for a fixed seed.
pub fn fabric_round_obs<S: EventSink + ?Sized>(
    cluster: &mut Cluster,
    metric: &RackMetric,
    alerts: &[Alert],
    alert_values: &[f64],
    cfg: &FabricConfig,
    sink: &mut S,
) -> DistributedReport {
    // single-shot compatibility path: fresh failover state has no
    // heartbeat history, so no takeover or fencing can fire and the
    // round reproduces the pre-failover fabric byte for byte
    let mut failover = RegionFailover::new(cfg.heartbeat_every().max(1), cfg.liveness_deadline);
    fabric_round_failover_obs(
        cluster,
        metric,
        alerts,
        alert_values,
        cfg,
        &mut failover,
        sink,
    )
}

/// The fabric round with persistent partition-tolerance state threaded
/// through: the adaptive failure detector accrues heartbeat silence
/// across rounds, a shim it declares Dead has its racks handed to a
/// deterministic successor under a bumped epoch, and 2PC messages
/// carrying a superseded epoch are fenced with a `StaleEpoch` reject
/// that teaches the zombie the current term. Partition windows from
/// `cfg.partitions` cut the simulated network; shims plan around active
/// cuts in degraded local mode and reconcile parked work when a window
/// heals. [`fabric_round_obs`] is this with throwaway state.
///
/// Internally the round is a discrete-event simulation: the agenda is
/// seeded with every schedule window, heal, and beacon, and the loop
/// hops from activation to activation, running the historical per-tick
/// phases at each one. Deliveries, deadlines, leases, detector
/// transitions, and planning gates schedule their own derived wakes, so
/// no state-changing tick is ever skipped.
#[allow(clippy::too_many_arguments)]
pub fn fabric_round_failover_obs<S: EventSink + ?Sized>(
    cluster: &mut Cluster,
    metric: &RackMetric,
    alerts: &[Alert],
    alert_values: &[f64],
    cfg: &FabricConfig,
    failover: &mut RegionFailover,
    sink: &mut S,
) -> DistributedReport {
    let hello_window = cfg.hello_window;
    let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
    racks.sort_unstable();
    racks.dedup();
    // a window with crash_at == 0 and no recovery is the old whole-round
    // crash: the rack is excluded from the round entirely. Every other
    // window is a mid-round transition handled as Crash/Recover events.
    let whole_round: BTreeSet<RackId> = cfg
        .crashed
        .iter()
        .filter(|w| w.crash_at == 0 && w.recover_at.is_none())
        .map(|w| w.rack)
        .collect();
    let schedule: Vec<CrashWindow> = cfg
        .crashed
        .iter()
        .copied()
        .filter(|w| !(w.crash_at == 0 && w.recover_at.is_none()))
        .collect();
    let crashed_alerted_racks: Vec<RackId> = racks
        .iter()
        .copied()
        .filter(|r| whole_round.contains(r))
        .collect();
    for &r in &crashed_alerted_racks {
        emit(sink, || Event::ShimCrashed {
            rack: r.index() as u64,
        });
    }
    racks.retain(|r| !whole_round.contains(r));
    let mut report = DistributedReport {
        crashed_shims: crashed_alerted_racks.len(),
        ..DistributedReport::default()
    };
    // detector baseline: every rack is expected to beacon from the
    // round's start, so a shim that is down from tick 0 accrues silence
    for i in 0..cluster.dcn.rack_count() {
        failover
            .detector
            .track(RackId::from_index(i), failover.clock);
    }
    // regional takeover: an alerted rack whose shim the detector has
    // already declared Dead hands its alerts to a deterministic
    // successor — the lowest-index live alerted rack in its region,
    // else the lowest-index live alerted rack anywhere. The first
    // handover bumps the rack's epoch so the deposed shim's 2PC traffic
    // can be fenced when it returns.
    let mut adopted: BTreeMap<RackId, Vec<RackId>> = BTreeMap::new();
    for &r in &crashed_alerted_racks {
        if failover.detector.health(r) != ShimHealth::Dead {
            continue;
        }
        let region = cluster.dcn.neighbor_racks(r, cluster.sim.region_hops);
        let succ = region
            .iter()
            .copied()
            .filter(|s| racks.contains(s))
            .min()
            .or_else(|| racks.first().copied());
        if let Some(s) = succ {
            let continued = failover.taken_over(r) && failover.manager_of(r) == s;
            let epoch = failover.take_over(r, s);
            if !continued {
                emit(sink, || Event::RegionTakenOver {
                    rack: r.index() as u64,
                    by: s.index() as u64,
                    epoch,
                });
                sink.counter("region.takeovers", 1);
                report.takeovers += 1;
            }
            adopted.entry(s).or_default().push(r);
        }
    }
    if racks.is_empty() {
        return report;
    }
    report.shims = racks.len();

    let rack_count = cluster.dcn.rack_count();
    let sim = cluster.sim.clone();
    let mut net = SimNet::new(cfg.faults.clone(), cfg.seed);
    net.set_partitions(cfg.partitions.clone());
    // racks currently down, maintained by the Crash/Recover events — the
    // membership test the beacon handler uses
    let mut down: BTreeSet<RackId> = whole_round.clone();
    for &r in &whole_round {
        net.set_down(r);
    }
    let mut endpoints: Vec<ShimEndpoint> = (0..rack_count)
        .map(|r| ShimEndpoint::new(RackId::from_index(r)))
        .collect();

    // victim selection on the initial placement (Alg. 1)
    let mut shims: Vec<FabricShim> = racks
        .iter()
        .map(|&rack| {
            let (mut pending, mut candidates) = select_victims(
                &cluster.placement,
                &cluster.dcn.inventory,
                &sim,
                rack,
                alerts,
                alert_values,
            );
            // a takeover successor also serves the alerts of the racks
            // it adopted, with victims selected the same way
            for &ar in adopted.get(&rack).map(Vec::as_slice).unwrap_or_default() {
                let (more, more_cand) = select_victims(
                    &cluster.placement,
                    &cluster.dcn.inventory,
                    &sim,
                    ar,
                    alerts,
                    alert_values,
                );
                pending.extend(more);
                candidates += more_cand;
            }
            emit(sink, || Event::VictimsSelected {
                rack: rack.index() as u64,
                candidates: candidates as u64,
                selected: pending.len() as u64,
            });
            let region = cluster.dcn.neighbor_racks(rack, sim.region_hops);
            FabricShim {
                st: ShimState {
                    rack,
                    active: !pending.is_empty(),
                    pending,
                    slots: Vec::new(),
                    excluded: Vec::new(),
                    plan: Default::default(),
                    retries: 0,
                    seq: 0,
                },
                liveness: Liveness::new(cfg.liveness_deadline),
                region,
                outstanding: BTreeMap::new(),
                zombies: BTreeMap::new(),
                unresolved: Vec::new(),
                rounds_left: cfg.max_retry + 1,
                started: false,
                done: false,
                progressed: false,
                gave_up: false,
                degraded: false,
                part_degraded: false,
                down: false,
                resume_at: 0,
            }
        })
        .collect();
    // shims with nothing to do are immediately done
    for s in &mut shims {
        if !s.st.active {
            s.done = true;
        }
    }

    let source_index: BTreeMap<RackId, usize> = shims
        .iter()
        .enumerate()
        .map(|(i, s)| (s.st.rack, i))
        .collect();
    let all_racks: Vec<RackId> = (0..rack_count).map(RackId::from_index).collect();
    // longest possible request + reply round trip: base delay plus the
    // reorder fault's extra hold-back (up to 3 ticks) each way, with slack
    let patience = 2 * (cfg.faults.delay_max + 3) + 2;

    // ---- transfer scheduler ---------------------------------------------
    // With `cfg.transfer` unset this stays `None` and every path below
    // that touches it is dead — the round is byte-identical to the
    // instantaneous-settlement fabric. When set, a COMMIT hands the
    // migration to the scheduler instead of ACKing immediately; the ACK
    // (and the txn_committed bookkeeping) flows at TransferCompleted.
    let mut transfers = cfg
        .transfer
        .as_ref()
        .map(|tc| sheriff_transfer::TransferScheduler::new(tc.clone()));
    // per-transfer 2PC context, keyed by request id: who to ACK and
    // under which epoch to finalize the journal entry
    let mut transfer_meta: BTreeMap<ReqId, TransferMeta> = BTreeMap::new();
    // in-round transfer-plane audit: a transfer streaming across a
    // failed link, or active without a Prepared journal entry, is an
    // invariant breach — flagged once per (transfer, fact) and merged
    // into the round's audit report
    let mut transfer_audit = AuditReport::default();
    let mut flagged_on_failed: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut flagged_no_prepare: BTreeSet<u64> = BTreeSet::new();
    // terminal rack-crash cancellations (no recovery scheduled): counted
    // into `transfer_failures` on top of the scheduler's retry-budget
    // exhaustions, which are tracked inside `ts`
    let mut rack_failed_transfers: usize = 0;

    // ---- agenda setup ---------------------------------------------------
    // `seen` holds every tick that already has a never-cancelled event,
    // so derived wakes dedupe on time. Timeout wakes are the exception:
    // they are cancellable, so they live in `timeout_wake` instead and
    // never enter `seen`.
    let mut agenda: Simulation<FabricEvent> = Simulation::new();
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut timeout_wake: Option<(u64, EventId)> = None;
    for (i, w) in schedule.iter().enumerate() {
        seen.insert(w.crash_at);
        agenda.schedule_at(
            VirtualTime::new(w.crash_at),
            w.rack.index() as u64,
            FabricEvent::Crash(i),
        );
        if let Some(r) = w.recover_at {
            seen.insert(r);
            agenda.schedule_at(
                VirtualTime::new(r),
                w.rack.index() as u64,
                FabricEvent::Recover(i),
            );
        }
    }
    for (i, p) in cfg.partitions.iter().enumerate() {
        if let Some(h) = p.heal_at {
            seen.insert(h);
            agenda.schedule_at(VirtualTime::new(h), i as u64, FabricEvent::Heal(i));
        }
    }
    // link faults only touch the transfer plane: with the model disabled
    // they are not seeded at all, so the agenda (and the round) stays
    // byte-identical to the fault-free fabric
    if transfers.is_some() {
        for (i, w) in cfg.link_faults.iter().enumerate() {
            seen.insert(w.fail_at);
            agenda.schedule_at(
                VirtualTime::new(w.fail_at),
                w.link as u64,
                FabricEvent::LinkFail(i),
            );
            if let Some(r) = w.restore_at {
                seen.insert(r);
                agenda.schedule_at(
                    VirtualTime::new(r),
                    w.link as u64,
                    FabricEvent::LinkRestore(i),
                );
            }
        }
    }
    // every rack beacons from tick 0 (Hello), then self-reschedules at
    // its own interval — the emit_self idiom, flattened: the recurrence
    // is re-armed by the Beacon handler so a down rack keeps cadence
    for &r in &all_racks {
        seen.insert(0);
        agenda.schedule_at(VirtualTime::ZERO, r.index() as u64, FabricEvent::Beacon(r));
    }
    for &(r, every) in &cfg.alert_checks {
        if every > 0 {
            seen.insert(every);
            agenda.schedule_at(
                VirtualTime::new(every),
                r.index() as u64,
                FabricEvent::AlertCheck(r),
            );
        }
    }
    schedule_wake(&mut agenda, &mut seen, hello_window, WakeReason::ShimStart);

    // ---- the event loop -------------------------------------------------
    let mut t: u64 = 0;
    loop {
        // drain this activation's events and bucket them by phase; pop
        // order within a bucket is schedule order, which reproduces the
        // historical iteration orders (schedule order for windows,
        // partition-index order for heals, rack order for beacons)
        let mut crash_recover: Vec<(usize, bool)> = Vec::new();
        let mut heals: Vec<usize> = Vec::new();
        let mut link_fails: Vec<usize> = Vec::new();
        let mut link_restores: Vec<usize> = Vec::new();
        let mut checks: Vec<RackId> = Vec::new();
        let mut beacons: Vec<RackId> = Vec::new();
        for ev in agenda.take_due(VirtualTime::new(t)) {
            match ev.event {
                FabricEvent::Crash(i) => crash_recover.push((i, false)),
                FabricEvent::Recover(i) => crash_recover.push((i, true)),
                FabricEvent::Heal(i) => heals.push(i),
                FabricEvent::LinkFail(i) => link_fails.push(i),
                FabricEvent::LinkRestore(i) => link_restores.push(i),
                FabricEvent::AlertCheck(r) => checks.push(r),
                FabricEvent::Beacon(r) => beacons.push(r),
                FabricEvent::Wake(WakeReason::Timeout) => timeout_wake = None,
                FabricEvent::Wake(_) => {}
            }
        }

        // phase 1 — crash/recover transitions scheduled for this tick. A
        // crashing source shim loses its volatile negotiation state
        // (outstanding requests become unresolved — their fate settles
        // against ground truth); its durable intent journal survives and
        // is replayed on recovery.
        for &(wi, is_recover) in &crash_recover {
            let Some(w) = schedule.get(wi) else { continue };
            if !is_recover {
                net.set_down(w.rack);
                down.insert(w.rack);
                emit(sink, || Event::ShimCrashed {
                    rack: w.rack.index() as u64,
                });
                // pre-copies streaming *into* the crashed rack die with
                // it. With a recovery scheduled their journal prepares
                // survive under the extended lease, so a retransmitted
                // COMMIT after recovery simply restarts the transfer.
                // Without one the 2PC context is dead for good: emit the
                // failure and abort the journalled prepare now —
                // symmetric with the lease-abort path — instead of
                // leaving a silent zombie for the end-of-round sweep.
                if let Some(ts) = transfers.as_mut() {
                    let recovers = w.recover_at.is_some();
                    for id in ts.cancel_rack(w.rack.index(), t) {
                        let req_id = ReqId(id);
                        let meta = transfer_meta.remove(&req_id);
                        sink.counter("transfer.cancelled", 1);
                        let Some(meta) = meta else { continue };
                        if recovers {
                            continue;
                        }
                        rack_failed_transfers += 1;
                        emit(sink, || Event::TransferFailed {
                            req: id,
                            vm: meta.vm.index() as u64,
                            attempts: 0,
                        });
                        sink.counter("transfer.failed", 1);
                        let Some(ep) = endpoints.get_mut(meta.dst_rack.index()) else {
                            continue;
                        };
                        if let Some((vm, _)) =
                            ep.handle_abort(&mut cluster.placement, &cluster.deps, req_id)
                        {
                            report.txn_aborted += 1;
                            emit(sink, || Event::TxnAborted {
                                req: id,
                                vm: vm.index() as u64,
                            });
                            sink.counter("txn.aborted", 1);
                        }
                    }
                }
                if let Some(&i) = source_index.get(&w.rack) {
                    let Some(shim) = shims.get_mut(i) else {
                        continue;
                    };
                    shim.down = true;
                    shim.started = false;
                    let lost: Vec<Outstanding> = std::mem::take(&mut shim.outstanding)
                        .into_values()
                        .chain(std::mem::take(&mut shim.zombies).into_values())
                        .collect();
                    shim.unresolved.extend(lost);
                }
            } else {
                net.set_up(w.rack);
                down.remove(&w.rack);
                emit(sink, || Event::ShimRecovered {
                    rack: w.rack.index() as u64,
                });
                report.recoveries += 1;
                // journal replay: re-ACK committed transfers, abort
                // orphaned prepares whose lease lapsed while down and
                // prepares journalled under a since-superseded epoch —
                // the restore path can never resurrect old-epoch intents
                let Some(ep) = endpoints.get_mut(w.rack.index()) else {
                    continue;
                };
                let rep =
                    ep.recover_fenced(&mut cluster.placement, &cluster.deps, t, failover.epochs());
                sink.counter("journal.replayed", rep.replayed as u64);
                sink.counter("journal.reacked", rep.reacks.len() as u64);
                sink.counter("journal.forwarded", rep.forwarded as u64);
                for req_id in rep.reacks {
                    let epoch = failover.view_of(w.rack);
                    net.send(t, w.rack, req_id.source(), ShimMsg::Ack { req_id, epoch });
                }
                for (req, vm) in rep.lease_aborts.iter().chain(rep.epoch_aborts.iter()) {
                    let (req, vm) = (*req, *vm);
                    report.txn_aborted += 1;
                    emit(sink, || Event::TxnAborted {
                        req: req.0,
                        vm: vm.index() as u64,
                    });
                    sink.counter("txn.aborted", 1);
                }
                if let Some(&i) = source_index.get(&w.rack) {
                    if let Some(shim) = shims.get_mut(i) {
                        shim.down = false;
                        // rejoin heartbeating first; plan once the
                        // liveness view has had a full beacon period to
                        // repopulate
                        shim.resume_at = t + cfg.beacon_every(w.rack) + 1;
                    }
                }
            }
        }

        // phase 1b — link-fault windows scheduled for this tick,
        // propagated into the transfer plane: a failing link stalls or
        // re-routes every pre-copy crossing it (checkpoint retained,
        // max-min shares recomputed for the survivors); a restoring link
        // resumes stalled pre-copies from their checkpoints. Fails run
        // before restores so a zero-width window nets out to a restore.
        if let Some(ts) = transfers.as_mut() {
            for &idx in &link_fails {
                let Some(w) = cfg.link_faults.get(idx) else {
                    continue;
                };
                let out = ts.fail_link(t, w.link);
                for s in &out.stalled {
                    emit(sink, || Event::TransferStalled {
                        req: s.id,
                        vm: s.vm,
                        link: s.link as u64,
                    });
                    sink.counter("transfer.stalled", 1);
                }
                for r in &out.rerouted {
                    emit(sink, || Event::TransferRerouted {
                        req: r.id,
                        vm: r.vm,
                        hops: r.hops as u64,
                    });
                    sink.counter("transfer.rerouted", 1);
                }
            }
            for &idx in &link_restores {
                let Some(w) = cfg.link_faults.get(idx) else {
                    continue;
                };
                for r in ts.restore_link(t, w.link) {
                    emit(sink, || Event::TransferResumed {
                        req: r.id,
                        vm: r.vm,
                        saved: r.saved,
                    });
                    sink.counter("transfer.resumed", 1);
                }
            }
        }

        // phase 2 — partition heals scheduled for this tick: reconcile
        // parked work. A pending VM whose rack is managed by another
        // shim was (or will be) handled by that manager — replanning it
        // here would double-manage, so it is dropped and counted as a
        // reconciliation conflict. Shims the cut starved into parking
        // with work left are woken for a post-heal replan.
        for &idx in &heals {
            let Some(p) = cfg.partitions.get(idx) else {
                continue;
            };
            emit(sink, || Event::PartitionHealed {
                partition: idx as u64,
                racks: p.members.len() as u64,
            });
            sink.counter("net.healed", 1);
            for shim in &mut shims {
                if !shim.st.pending.is_empty() {
                    let before = shim.st.pending.len();
                    let rack = shim.st.rack;
                    shim.st
                        .pending
                        .retain(|&vm| failover.manager_of(cluster.placement.rack_of(vm)) == rack);
                    report.reconciliations += before - shim.st.pending.len();
                }
                if shim.done && !shim.down && !shim.st.pending.is_empty() {
                    shim.done = false;
                    shim.gave_up = true;
                    shim.rounds_left = shim.rounds_left.max(1);
                }
            }
        }

        // phase 2b — per-rack alert checks: rescan the rack for fresh
        // pre-alerts at its own virtual-time interval, independent of
        // round boundaries. VMs already managed (pending, in-flight,
        // unknown-fate, or moved) are never re-adopted.
        for &r in &checks {
            let every = cfg.alert_check_every(r);
            if every > 0 {
                seen.insert(t + every);
                agenda.schedule_at(
                    VirtualTime::new(t + every),
                    r.index() as u64,
                    FabricEvent::AlertCheck(r),
                );
            }
            let Some(&i) = source_index.get(&r) else {
                continue;
            };
            let (victims, _) = select_victims(
                &cluster.placement,
                &cluster.dcn.inventory,
                &sim,
                r,
                alerts,
                alert_values,
            );
            let Some(shim) = shims.get_mut(i) else {
                continue;
            };
            if shim.down {
                continue;
            }
            let mut busy: BTreeSet<VmId> = shim
                .st
                .pending
                .iter()
                .copied()
                .chain(shim.outstanding.values().map(|o| o.vm))
                .chain(shim.zombies.values().map(|o| o.vm))
                .chain(shim.unresolved.iter().map(|o| o.vm))
                .chain(shim.st.plan.moves.iter().map(|m| m.vm))
                .collect();
            // a VM whose pre-copy is mid-stream is already managed:
            // re-adopting it here would double-plan the same move
            if let Some(ts) = transfers.as_ref() {
                busy.extend(
                    ts.in_flight_vms()
                        .into_iter()
                        .map(|v| VmId::from_index(v as usize)),
                );
            }
            let fresh: Vec<VmId> = victims
                .into_iter()
                .filter(|vm| !busy.contains(vm))
                .collect();
            emit(sink, || Event::AlertCheckFired {
                rack: r.index() as u64,
                tick: t,
                fresh: fresh.len() as u64,
            });
            sink.counter("alerts.checks", 1);
            if !fresh.is_empty() {
                shim.st.pending.extend(fresh);
                shim.done = false;
                shim.gave_up = true;
                shim.rounds_left = shim.rounds_left.max(1);
            }
        }

        // phase 3 — liveness beacons: every live rack announces itself to
        // every source shim at t = 0 (Hello) and at its beacon interval
        // after (Heartbeat). The failure detector watches the *emission*
        // (simulator ground truth): a partitioned-but-alive shim keeps
        // emitting, so a cut never looks like a crash and takeover stays
        // crash-only. The recurrence re-arms first — even for a down
        // rack — so the cadence is preserved across crash windows.
        for &r in &beacons {
            let every = cfg.beacon_every(r);
            if every > 0 {
                seen.insert(t + every);
                agenda.schedule_at(
                    VirtualTime::new(t + every),
                    r.index() as u64,
                    FabricEvent::Beacon(r),
                );
            }
            if down.contains(&r) {
                continue;
            }
            if failover.detector.observe_emission(r, failover.clock + t) == ShimHealth::Dead {
                // a shim the detector wrote off is beaconing again:
                // management reverts to it, while its stale epoch view
                // keeps its old 2PC traffic fenced until it adopts the
                // bump
                failover.reinstate(r);
            }
            let epoch = failover.view_of(r);
            for &s in &racks {
                let msg = if t == 0 {
                    ShimMsg::Hello { rack: r, epoch }
                } else {
                    ShimMsg::Heartbeat {
                        rack: r,
                        tick: t,
                        epoch,
                    }
                };
                net.send(t, r, s, msg);
            }
        }

        // phase 4 — adaptive failure detection: silence beyond the
        // thresholds walks a shim Alive → Suspect → Dead. A Dead shim
        // that still holds unplanned work mid-round hands it to the
        // lowest-index live shim under a bumped epoch; its in-flight 2PC
        // stays with the zombie/lease machinery, which already settles
        // it safely.
        for (rack, _old, new) in failover.detector.tick(failover.clock + t) {
            match new {
                ShimHealth::Suspect => {
                    emit(sink, || Event::ShimSuspected {
                        rack: rack.index() as u64,
                    });
                    sink.counter("detector.suspected", 1);
                }
                ShimHealth::Dead => {
                    emit(sink, || Event::ShimDeclaredDead {
                        rack: rack.index() as u64,
                    });
                    sink.counter("detector.declared_dead", 1);
                    let Some(&i) = source_index.get(&rack) else {
                        continue;
                    };
                    if !shims
                        .get(i)
                        .is_some_and(|s| s.down && !s.st.pending.is_empty())
                    {
                        continue;
                    }
                    let succ = shims
                        .iter()
                        .enumerate()
                        .filter(|&(j, s)| j != i && !s.down)
                        .map(|(j, s)| (s.st.rack, j))
                        .min();
                    let Some((succ_rack, j)) = succ else {
                        continue;
                    };
                    let continued =
                        failover.taken_over(rack) && failover.manager_of(rack) == succ_rack;
                    let epoch = failover.take_over(rack, succ_rack);
                    if !continued {
                        emit(sink, || Event::RegionTakenOver {
                            rack: rack.index() as u64,
                            by: succ_rack.index() as u64,
                            epoch,
                        });
                        sink.counter("region.takeovers", 1);
                        report.takeovers += 1;
                    }
                    let moved = match shims.get_mut(i) {
                        Some(s) => std::mem::take(&mut s.st.pending),
                        None => Vec::new(),
                    };
                    if let Some(s) = shims.get_mut(j) {
                        s.st.pending.extend(moved);
                        s.done = false;
                        s.gave_up = true;
                        s.rounds_left = s.rounds_left.max(1);
                    }
                }
                ShimHealth::Alive => {}
            }
        }

        // phase 5 — deliveries: endpoints answer requests, sources absorb
        // replies. Every pending `deliver_at` has a Delivery wake, so the
        // poll happens exactly at each message's delivery tick.
        for (from, to, msg) in net.poll(t) {
            match msg {
                ShimMsg::Hello { rack, .. } | ShimMsg::Heartbeat { rack, .. } => {
                    if let Some(&i) = source_index.get(&to) {
                        if let Some(shim) = shims.get_mut(i) {
                            shim.liveness.observe(rack, t);
                        }
                    }
                }
                ShimMsg::Request {
                    req_id, vm, dest, ..
                } => {
                    let Some(ep) = endpoints.get_mut(to.index()) else {
                        continue;
                    };
                    let hits_before = ep.dedup_hits();
                    let verdict =
                        ep.handle_request(&mut cluster.placement, &cluster.deps, req_id, vm, dest);
                    if ep.dedup_hits() > hits_before {
                        emit(sink, || Event::DuplicateAbsorbed { req: req_id.0 });
                    }
                    let my_epoch = failover.view_of(to);
                    net.send(
                        t,
                        to,
                        from,
                        ShimEndpoint::reply_msg(req_id, verdict, my_epoch),
                    );
                }
                ShimMsg::Prepare {
                    req_id,
                    vm,
                    dest,
                    lease,
                    epoch,
                } => {
                    // epoch fence: a PREPARE from a deposed manager's
                    // term mutates nothing — the sender learns the
                    // current epoch from the reject and must replan
                    if let Some(current) = failover.fence(from, epoch) {
                        report.fenced += 1;
                        emit(sink, || Event::StaleEpochRejected {
                            req: req_id.0,
                            rack: to.index() as u64,
                            stale: epoch,
                            current,
                        });
                        sink.counter("txn.fenced", 1);
                        net.send(
                            t,
                            to,
                            from,
                            ShimMsg::Reject {
                                req_id,
                                reason: RejectReason::StaleEpoch,
                                epoch: current,
                            },
                        );
                        continue;
                    }
                    let Some(ep) = endpoints.get_mut(to.index()) else {
                        continue;
                    };
                    let hits_before = ep.dedup_hits();
                    let journalled_before = ep.journal().len();
                    let reply = ep.handle_prepare(
                        &mut cluster.placement,
                        &cluster.deps,
                        req_id,
                        vm,
                        dest,
                        lease,
                        epoch,
                    );
                    if ep.journal().len() > journalled_before {
                        report.txn_prepared += 1;
                        emit(sink, || Event::TxnPrepared {
                            req: req_id.0,
                            vm: vm.index() as u64,
                            dest_host: dest.index() as u64,
                        });
                        sink.counter("txn.prepared", 1);
                    }
                    if ep.dedup_hits() > hits_before {
                        emit(sink, || Event::DuplicateAbsorbed { req: req_id.0 });
                    }
                    let my_epoch = failover.view_of(to);
                    net.send(
                        t,
                        to,
                        from,
                        ShimEndpoint::reply_2pc_msg(req_id, reply, my_epoch),
                    );
                }
                ShimMsg::PrepareOk { req_id, .. } => {
                    if let Some(&i) = source_index.get(&to) {
                        let Some(shim) = shims.get_mut(i) else {
                            continue;
                        };
                        if let Some(o) = shim.outstanding.get_mut(&req_id) {
                            if o.phase == TxnPhase::Preparing {
                                // vote is in: the transaction will commit,
                                // so the batch made progress
                                o.phase = TxnPhase::Committing;
                                o.attempt = 0;
                                o.deadline = t + cfg.backoff.delay(0, req_id);
                                shim.progressed = true;
                                let dest_rack = cluster.placement.rack_of_host(o.dest);
                                let epoch = failover.view_of(shim.st.rack);
                                net.send(
                                    t,
                                    shim.st.rack,
                                    dest_rack,
                                    ShimMsg::Commit { req_id, epoch },
                                );
                            }
                            // duplicate vote for a committing txn: ignore
                        } else if let Some(mut o) = shim.zombies.remove(&req_id) {
                            // late vote resolves the zombie: the
                            // destination is alive and holds the prepare,
                            // so drive the commit home instead of letting
                            // the lease strand it
                            let dest_rack = cluster.placement.rack_of_host(o.dest);
                            shim.liveness.observe(dest_rack, t);
                            o.phase = TxnPhase::Committing;
                            o.attempt = 0;
                            o.deadline = t + cfg.backoff.delay(0, req_id);
                            shim.outstanding.insert(req_id, o);
                            shim.progressed = true;
                            let epoch = failover.view_of(shim.st.rack);
                            net.send(
                                t,
                                shim.st.rack,
                                dest_rack,
                                ShimMsg::Commit { req_id, epoch },
                            );
                        }
                    }
                }
                ShimMsg::Commit { req_id, epoch } => {
                    if let Some(current) = failover.fence(from, epoch) {
                        report.fenced += 1;
                        emit(sink, || Event::StaleEpochRejected {
                            req: req_id.0,
                            rack: to.index() as u64,
                            stale: epoch,
                            current,
                        });
                        sink.counter("txn.fenced", 1);
                        net.send(
                            t,
                            to,
                            from,
                            ShimMsg::Reject {
                                req_id,
                                reason: RejectReason::StaleEpoch,
                                epoch: current,
                            },
                        );
                        continue;
                    }
                    let Some(ep) = endpoints.get_mut(to.index()) else {
                        continue;
                    };
                    let was_prepared = ep.journal().state(req_id) == Some(TxnState::Prepared);
                    if was_prepared && transfers.is_some() {
                        // journal-level epoch fence first, mirroring
                        // handle_commit: a stale COMMIT falls through to
                        // the normal reject path below
                        let stale = ep.journal().get(req_id).is_some_and(|r| epoch < r.epoch);
                        if !stale {
                            if transfer_meta.contains_key(&req_id) {
                                // duplicate COMMIT while the pre-copy
                                // streams: the ACK flows at completion
                                continue;
                            }
                            let Some(ts) = transfers.as_mut() else {
                                continue;
                            };
                            // hand the migration to the scheduler: the
                            // journal entry stays Prepared under an
                            // extended lease until the last byte lands,
                            // so the periodic sweep cannot abort it
                            let (vm, src_host, dst_host) = match ep.journal().get(req_id) {
                                Some(r) => (r.vm, r.src, r.dst),
                                None => continue,
                            };
                            ep.extend_lease(req_id, u64::MAX);
                            let bytes = cluster.placement.spec(vm).capacity
                                * ts.config().bytes_per_capacity;
                            let src_rack = cluster.placement.rack_of_host(src_host);
                            let dst_rack = cluster.placement.rack_of_host(dst_host);
                            let candidates = if src_rack == dst_rack {
                                Vec::new()
                            } else {
                                sheriff_transfer::route_candidates(
                                    &cluster.dcn.graph,
                                    cluster.dcn.rack_node(src_rack),
                                    cluster.dcn.rack_node(dst_rack),
                                    ts.config().k_paths,
                                )
                            };
                            let spec = sheriff_transfer::TransferSpec {
                                id: req_id.0,
                                vm: vm.index() as u64,
                                dst_rack: to.index(),
                                bytes,
                            };
                            transfer_meta.insert(
                                req_id,
                                TransferMeta {
                                    vm,
                                    src_rack: from,
                                    dst_rack: to,
                                    epoch,
                                },
                            );
                            match ts.submit(t, spec, candidates) {
                                sheriff_transfer::Admission::Started(s) => {
                                    report.transfers_started += 1;
                                    emit(sink, || Event::TransferStarted {
                                        req: s.id,
                                        vm: s.vm,
                                        bytes: s.bytes,
                                        hops: s.hops as u64,
                                        rate: s.rate,
                                        waited: s.waited,
                                    });
                                    sink.counter("transfer.started", 1);
                                    if s.rerouted {
                                        emit(sink, || Event::TransferRerouted {
                                            req: s.id,
                                            vm: s.vm,
                                            hops: s.hops as u64,
                                        });
                                        sink.counter("transfer.rerouted", 1);
                                    }
                                }
                                sheriff_transfer::Admission::Queued => {
                                    sink.counter("transfer.queued", 1);
                                }
                            }
                            continue;
                        }
                    }
                    let reply = ep.handle_commit(req_id, epoch);
                    if was_prepared && reply == TwoPhaseReply::Ack {
                        report.txn_committed += 1;
                        if let Some(rec) = ep.journal().get(req_id) {
                            let vm = rec.vm;
                            emit(sink, || Event::TxnCommitted {
                                req: req_id.0,
                                vm: vm.index() as u64,
                            });
                        }
                        sink.counter("txn.committed", 1);
                    }
                    let my_epoch = failover.view_of(to);
                    net.send(
                        t,
                        to,
                        from,
                        ShimEndpoint::reply_2pc_msg(req_id, reply, my_epoch),
                    );
                }
                ShimMsg::Abort { req_id, epoch } => {
                    // a stale-epoch ABORT is fenced like any other 2PC
                    // mutation; the prepare it targeted drains via its
                    // lease instead
                    if let Some(current) = failover.fence(from, epoch) {
                        report.fenced += 1;
                        emit(sink, || Event::StaleEpochRejected {
                            req: req_id.0,
                            rack: to.index() as u64,
                            stale: epoch,
                            current,
                        });
                        sink.counter("txn.fenced", 1);
                        net.send(
                            t,
                            to,
                            from,
                            ShimMsg::Reject {
                                req_id,
                                reason: RejectReason::StaleEpoch,
                                epoch: current,
                            },
                        );
                        continue;
                    }
                    // a pre-copy in flight means the COMMIT was already
                    // accepted here: the transaction's fate is sealed,
                    // and this is only the source's best-effort give-up
                    // ABORT racing the slow transfer. 2PC forbids
                    // rolling back past COMMIT — let the stream finish;
                    // ground truth settles the move at the source.
                    if transfer_meta.contains_key(&req_id) {
                        sink.counter("transfer.abort_ignored", 1);
                        continue;
                    }
                    let Some(ep) = endpoints.get_mut(to.index()) else {
                        continue;
                    };
                    if let Some((vm, _)) =
                        ep.handle_abort(&mut cluster.placement, &cluster.deps, req_id)
                    {
                        report.txn_aborted += 1;
                        emit(sink, || Event::TxnAborted {
                            req: req_id.0,
                            vm: vm.index() as u64,
                        });
                        sink.counter("txn.aborted", 1);
                    }
                    // fire-and-forget: the source already walked away
                }
                ShimMsg::Ack { req_id, .. } => {
                    if let Some(&i) = source_index.get(&to) {
                        let Some(shim) = shims.get_mut(i) else {
                            continue;
                        };
                        // a late ACK for a given-up request still means
                        // the destination committed: record it. Only the
                        // zombie case counts as batch progress — for a
                        // live transaction the PREPARE-OK already did.
                        let was_zombie = shim.zombies.contains_key(&req_id);
                        if let Some(o) = shim
                            .outstanding
                            .remove(&req_id)
                            .or_else(|| shim.zombies.remove(&req_id))
                        {
                            emit(sink, || Event::AckReceived {
                                req: req_id.0,
                                vm: o.vm.index() as u64,
                            });
                            emit(sink, || Event::MigrationCommitted {
                                vm: o.vm.index() as u64,
                                from_host: o.from.index() as u64,
                                to_host: o.dest.index() as u64,
                                cost: o.cost,
                            });
                            sink.counter("migrations.committed", 1);
                            shim.st.plan.moves.push(Move {
                                vm: o.vm,
                                from: o.from,
                                to: o.dest,
                                cost: o.cost,
                            });
                            shim.st.plan.total_cost += o.cost;
                            if was_zombie {
                                shim.progressed = true;
                            }
                        }
                        // duplicate ACK: already resolved, ignore
                    }
                }
                ShimMsg::Reject {
                    req_id,
                    reason,
                    epoch,
                } => {
                    if let Some(&i) = source_index.get(&to) {
                        if reason == RejectReason::StaleEpoch {
                            // the fencing rack told us our term moved on
                            // (a neighbor took over while we were away):
                            // adopt it so the replan goes out under the
                            // current epoch
                            failover.adopt(to, epoch);
                        }
                        let Some(shim) = shims.get_mut(i) else {
                            continue;
                        };
                        if let Some(o) = shim.outstanding.remove(&req_id) {
                            emit(sink, || Event::RejectReceived {
                                req: req_id.0,
                                vm: o.vm.index() as u64,
                                reason: reject_kind(reason),
                            });
                            sink.counter("migrations.rejected", 1);
                            shim.st.plan.rejected += 1;
                            shim.st.retries += 1;
                            if reason == RejectReason::StaleEpoch {
                                // the pairing was fine — only the term
                                // was stale; replan without excluding it
                                shim.gave_up = true;
                            } else {
                                shim.st.excluded.push((o.vm, o.dest));
                            }
                            shim.st.pending.push(o.vm);
                        } else if let Some(o) = shim.zombies.remove(&req_id) {
                            // late REJECT resolves the zombie: the VM
                            // definitively did not move, so it is safe to
                            // replan it elsewhere
                            emit(sink, || Event::RejectReceived {
                                req: req_id.0,
                                vm: o.vm.index() as u64,
                                reason: reject_kind(reason),
                            });
                            sink.counter("migrations.rejected", 1);
                            shim.st.plan.rejected += 1;
                            shim.st.retries += 1;
                            shim.st.pending.push(o.vm);
                            shim.gave_up = true;
                        }
                    }
                }
            }
        }

        // phase 5b — transfer progress: harvest pre-copies that streamed
        // their last byte (finalize the deferred 2PC commit and ACK the
        // source) and admit queued transfers into freed slots. Runs
        // after deliveries so a COMMIT landing this tick is already
        // submitted, and before lease expiry so a completing commit at
        // the cap tick beats the sweep, mirroring the delivery rule.
        if let Some(ts) = transfers.as_mut() {
            let tick = ts.poll(t);
            for s in &tick.started {
                report.transfers_started += 1;
                emit(sink, || Event::TransferStarted {
                    req: s.id,
                    vm: s.vm,
                    bytes: s.bytes,
                    hops: s.hops as u64,
                    rate: s.rate,
                    waited: s.waited,
                });
                sink.counter("transfer.started", 1);
                if s.rerouted {
                    emit(sink, || Event::TransferRerouted {
                        req: s.id,
                        vm: s.vm,
                        hops: s.hops as u64,
                    });
                    sink.counter("transfer.rerouted", 1);
                }
            }
            for r in &tick.rerouted {
                emit(sink, || Event::TransferRerouted {
                    req: r.id,
                    vm: r.vm,
                    hops: r.hops as u64,
                });
                sink.counter("transfer.rerouted", 1);
            }
            for r in &tick.retried {
                emit(sink, || Event::TransferRetried {
                    req: r.id,
                    vm: r.vm,
                    attempt: r.attempt as u64,
                });
                sink.counter("transfer.retried", 1);
            }
            for r in &tick.resumed {
                emit(sink, || Event::TransferResumed {
                    req: r.id,
                    vm: r.vm,
                    saved: r.saved,
                });
                sink.counter("transfer.resumed", 1);
            }
            for f in &tick.failed {
                // retry budget exhausted: escalate to a clean 2PC abort
                // through the journal — the prepare is rolled back (lease
                // released, source placement restored) and the source is
                // told the migration expired so it can replan the VM
                emit(sink, || Event::TransferFailed {
                    req: f.id,
                    vm: f.vm,
                    attempts: f.attempts as u64,
                });
                sink.counter("transfer.failed", 1);
                let req_id = ReqId(f.id);
                let Some(meta) = transfer_meta.remove(&req_id) else {
                    continue;
                };
                let Some(ep) = endpoints.get_mut(meta.dst_rack.index()) else {
                    continue;
                };
                if let Some((vm, _)) =
                    ep.handle_abort(&mut cluster.placement, &cluster.deps, req_id)
                {
                    report.txn_aborted += 1;
                    emit(sink, || Event::TxnAborted {
                        req: req_id.0,
                        vm: vm.index() as u64,
                    });
                    sink.counter("txn.aborted", 1);
                }
                let my_epoch = failover.view_of(meta.dst_rack);
                net.send(
                    t,
                    meta.dst_rack,
                    meta.src_rack,
                    ShimMsg::Reject {
                        req_id,
                        reason: RejectReason::Expired,
                        epoch: my_epoch,
                    },
                );
            }
            for c in &tick.completions {
                let req_id = ReqId(c.id);
                let Some(meta) = transfer_meta.remove(&req_id) else {
                    continue;
                };
                let Some(ep) = endpoints.get_mut(meta.dst_rack.index()) else {
                    continue;
                };
                // finalize the deferred commit under the epoch the
                // COMMIT originally carried — fencing still applies if
                // the destination's term moved on mid-transfer
                let was_prepared = ep.journal().state(req_id) == Some(TxnState::Prepared);
                let reply = ep.handle_commit(req_id, meta.epoch);
                if was_prepared && reply == TwoPhaseReply::Ack {
                    report.txn_committed += 1;
                    emit(sink, || Event::TxnCommitted {
                        req: req_id.0,
                        vm: meta.vm.index() as u64,
                    });
                    sink.counter("txn.committed", 1);
                }
                emit(sink, || Event::TransferCompleted {
                    req: c.id,
                    vm: c.vm,
                    ticks: c.duration,
                    bandwidth: c.achieved_bw,
                });
                sink.counter("transfer.completed", 1);
                report.transfers_completed += 1;
                report.transfer_durations.push(c.duration);
                let my_epoch = failover.view_of(meta.dst_rack);
                net.send(
                    t,
                    meta.dst_rack,
                    meta.src_rack,
                    ShimEndpoint::reply_2pc_msg(req_id, reply, my_epoch),
                );
            }
        }

        // phase 5c — transfer-plane invariants, probed at every
        // activation: no streaming pre-copy may traverse a failed link,
        // and every active transfer must still hold its Prepared journal
        // entry at the destination. Each breach is flagged once.
        if let Some(ts) = transfers.as_ref() {
            for (id, link) in ts.streaming_on_failed_links() {
                if flagged_on_failed.insert((id, link)) {
                    transfer_audit
                        .violations
                        .push(AuditViolation::TransferOnFailedLink { req: id, link });
                }
            }
            for id in ts.active_ids() {
                let req_id = ReqId(id);
                let prepared = transfer_meta.get(&req_id).is_some_and(|m| {
                    endpoints
                        .get(m.dst_rack.index())
                        .is_some_and(|ep| ep.journal().state(req_id) == Some(TxnState::Prepared))
                });
                if !prepared && flagged_no_prepare.insert(id) {
                    transfer_audit
                        .violations
                        .push(AuditViolation::TransferWithoutPrepare { req: id });
                }
            }
        }

        // phase 6 — lease expiry: a live destination unilaterally aborts
        // prepares whose COMMIT never arrived (a commit delivered this
        // same tick wins — deliveries were processed above). Crashed
        // endpoints expire theirs during journal replay on recovery
        // instead. The earliest pending lease always has a Lease wake.
        for (r, endpoint) in endpoints.iter_mut().enumerate() {
            let rack = RackId::from_index(r);
            if down.contains(&rack) {
                continue;
            }
            for (req, vm) in endpoint.expire_leases(&mut cluster.placement, &cluster.deps, t) {
                report.txn_aborted += 1;
                emit(sink, || Event::TxnAborted {
                    req: req.0,
                    vm: vm.index() as u64,
                });
                sink.counter("txn.aborted", 1);
            }
        }

        // phase 7 — source-shim actions, in rack order for determinism.
        // Hosts absorbing an in-flight pre-copy (PREPARE reserved the VM
        // there, so `host_of` points at the destination while the stream
        // runs) take no additional arrivals this window: Eqn. 1 prices
        // moves independently, which only holds across distinct moves.
        let hot_hosts: BTreeSet<HostId> = transfers
            .as_ref()
            .map(|ts| {
                ts.in_flight_vms()
                    .into_iter()
                    .map(|v| VmId::from_index(v as usize))
                    .filter(|vm| vm.index() < cluster.placement.vm_count())
                    .map(|vm| cluster.placement.host_of(vm))
                    .collect()
            })
            .unwrap_or_default();
        for shim in &mut shims {
            if shim.done || shim.down {
                continue;
            }
            if !shim.started {
                if t >= hello_window && t >= shim.resume_at {
                    if shim.rounds_left > 0 {
                        shim.started = true;
                        fabric_plan_and_send(
                            shim,
                            cluster,
                            metric,
                            &sim,
                            &mut net,
                            t,
                            cfg,
                            failover,
                            &hot_hosts,
                            &mut report,
                            sink,
                        );
                    } else if shim.zombies.is_empty() {
                        shim.done = true;
                    } else {
                        // out of planning rounds but still owed verdicts
                        shim.started = true;
                    }
                }
                continue;
            }

            // expire deadlines: retransmit with backoff, then give up and
            // presume the destination dead
            let expired: Vec<ReqId> = shim
                .outstanding
                .iter()
                .filter(|(_, o)| o.deadline <= t)
                .map(|(&id, _)| id)
                .collect();
            for req_id in expired {
                report.timeouts += 1;
                let attempts_left = match shim.outstanding.get_mut(&req_id) {
                    Some(o) => {
                        emit(sink, || Event::RequestTimeout {
                            req: req_id.0,
                            attempt: o.attempt as u64 + 1,
                        });
                        sink.counter("net.timeouts", 1);
                        o.attempt + 1 < cfg.backoff.max_attempts
                    }
                    None => continue,
                };
                if attempts_left {
                    let Some(o) = shim.outstanding.get_mut(&req_id) else {
                        continue;
                    };
                    o.attempt += 1;
                    o.deadline = t + cfg.backoff.delay(o.attempt, req_id);
                    report.resends += 1;
                    emit(sink, || Event::RequestResent {
                        req: req_id.0,
                        attempt: o.attempt as u64 + 1,
                    });
                    sink.counter("net.resends", 1);
                    let my_epoch = failover.view_of(shim.st.rack);
                    let msg = match o.phase {
                        TxnPhase::Preparing => ShimMsg::Prepare {
                            req_id,
                            vm: o.vm,
                            dest: o.dest,
                            lease: o.lease,
                            epoch: my_epoch,
                        },
                        TxnPhase::Committing => ShimMsg::Commit {
                            req_id,
                            epoch: my_epoch,
                        },
                    };
                    let dest_rack = cluster.placement.rack_of_host(o.dest);
                    net.send(t, shim.st.rack, dest_rack, msg);
                } else {
                    // give up: presume the destination dead — but a stale
                    // copy of the request may still commit there, so the
                    // VM's fate is unknown. Park it as a zombie and keep
                    // listening for a late verdict within the patience
                    // window; never replan a VM of unknown fate.
                    let Some(mut o) = shim.outstanding.remove(&req_id) else {
                        continue;
                    };
                    let dest_rack = cluster.placement.rack_of_host(o.dest);
                    shim.liveness.presume_dead(dest_rack);
                    if !shim.degraded {
                        emit(sink, || Event::ShimDegraded {
                            rack: shim.st.rack.index() as u64,
                        });
                    }
                    shim.degraded = true;
                    shim.st.excluded.push((o.vm, o.dest));
                    o.deadline = t + patience;
                    shim.zombies.insert(req_id, o);
                }
            }

            // zombies past their patience window stay unresolved; the
            // report assembly settles them against ground truth. A
            // best-effort ABORT lets the destination release a prepare
            // early instead of waiting out its lease.
            let expired: Vec<ReqId> = shim
                .zombies
                .iter()
                .filter(|(_, o)| o.deadline <= t)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                let Some(o) = shim.zombies.remove(&id) else {
                    continue;
                };
                let dest_rack = cluster.placement.rack_of_host(o.dest);
                let epoch = failover.view_of(shim.st.rack);
                net.send(
                    t,
                    shim.st.rack,
                    dest_rack,
                    ShimMsg::Abort { req_id: id, epoch },
                );
                shim.unresolved.push(o);
            }

            // batch resolved once every PREPARE has its vote: replan while
            // the commits drain (their placement effect is already
            // visible), or finish when truly idle
            let preparing = shim
                .outstanding
                .values()
                .any(|o| o.phase == TxnPhase::Preparing);
            if !preparing {
                let replan = !shim.st.pending.is_empty()
                    && shim.rounds_left > 0
                    && (shim.progressed || shim.gave_up);
                if replan {
                    fabric_plan_and_send(
                        shim,
                        cluster,
                        metric,
                        &sim,
                        &mut net,
                        t,
                        cfg,
                        failover,
                        &hot_hosts,
                        &mut report,
                        sink,
                    );
                } else if shim.outstanding.is_empty() && shim.zombies.is_empty() {
                    shim.done = true;
                }
            }
        }

        // termination — the round ends when every source shim settled; a
        // crashed shim only holds the round open while a recovery is
        // still scheduled, and a scheduled heal holds it open while any
        // parked shim still has work the heal would wake it for. Every
        // predicate flip here lands on an activated tick (Recover and
        // Heal are events; a partition *start* only delays settlement),
        // so checking at activations only is exact.
        let heal_pending = cfg
            .partitions
            .iter()
            .any(|p| p.start_at <= t && p.heal_at.is_some_and(|h| h > t));
        let all_settled = shims.iter().all(|s| {
            s.done
                || (s.down
                    && !schedule
                        .iter()
                        .any(|w| w.rack == s.st.rack && w.recover_at.is_some_and(|r| r > t)))
        }) && !(heal_pending
            && shims
                .iter()
                .any(|s| s.done && !s.down && !s.st.pending.is_empty()))
            // a streaming or queued pre-copy holds the round open: its
            // completion still has a commit, an ACK and a Move to land
            && transfers.as_ref().is_none_or(|ts| ts.is_idle());
        if all_settled {
            break;
        }

        // derived activations: make sure every tick at which any phase
        // has due work is on the agenda (the activation-time superset
        // invariant). All of these recompute each activation; `seen`
        // dedupes repeats.
        if let Some(d) = net.next_delivery() {
            schedule_wake(&mut agenda, &mut seen, d.max(t + 1), WakeReason::Delivery);
        }
        if let Some(abs) = failover.detector.next_transition_after(failover.clock + t) {
            let local = abs.saturating_sub(failover.clock);
            schedule_wake(
                &mut agenda,
                &mut seen,
                local.max(t + 1),
                WakeReason::Detector,
            );
        }
        let next_lease = endpoints
            .iter()
            .enumerate()
            .filter(|(r, _)| !down.contains(&RackId::from_index(*r)))
            .filter_map(|(_, e)| e.next_lease())
            .min();
        if let Some(l) = next_lease {
            schedule_wake(&mut agenda, &mut seen, l.max(t + 1), WakeReason::Lease);
        }
        if let Some(ts) = transfers.as_ref() {
            if let Some(done_at) = ts.next_event_time() {
                schedule_wake(
                    &mut agenda,
                    &mut seen,
                    done_at.max(t + 1),
                    WakeReason::Transfer,
                );
            } else if !ts.is_idle() {
                // nothing running but transfers are queued (e.g. the
                // running set was just cancelled): poll next tick so
                // admission can promote them
                schedule_wake(&mut agenda, &mut seen, t + 1, WakeReason::Transfer);
            }
        }
        for shim in &shims {
            if shim.done || shim.down || shim.started {
                continue;
            }
            let gate = hello_window.max(shim.resume_at).max(t + 1);
            schedule_wake(&mut agenda, &mut seen, gate, WakeReason::ShimStart);
        }
        // the timeout wake is the one cancellable event: deadlines move
        // every resend, so a single wake tracks the earliest one and is
        // cancelled (a no-op if it already fired) whenever a nearer
        // deadline appears
        let next_deadline = shims
            .iter()
            .filter(|s| !s.done && !s.down)
            .flat_map(|s| {
                s.outstanding
                    .values()
                    .chain(s.zombies.values())
                    .map(|o| o.deadline)
            })
            .min();
        if let Some(d) = next_deadline {
            let d = d.max(t + 1);
            match timeout_wake {
                Some((cur, _)) if d >= cur => {}
                prev => {
                    if let Some((_, id)) = prev {
                        agenda.cancel(id);
                    }
                    timeout_wake = if seen.contains(&d) {
                        None
                    } else {
                        Some((
                            d,
                            agenda.schedule_at(
                                VirtualTime::new(d),
                                WAKE_ACTOR,
                                FabricEvent::Wake(WakeReason::Timeout),
                            ),
                        ))
                    };
                }
            }
        }

        // hop to the next activation; past the tick cap the round is
        // abandoned exactly as the per-tick loop abandoned it
        match agenda.next_time() {
            Some(nt) if nt.get() <= cfg.max_ticks => t = nt.get(),
            _ => {
                t = cfg.max_ticks.saturating_add(1);
                break;
            }
        }
    }

    // no transaction outlives the round: sweep every journal and abort
    // whatever is still `Prepared` (sources that walked away, schedules
    // that never recovered, the tick cap). Must happen before the
    // ground-truth settlement below so a half-done prepare can't be
    // mistaken for a committed move.
    for ep in &mut endpoints {
        for (req, vm) in ep.expire_leases(&mut cluster.placement, &cluster.deps, u64::MAX) {
            report.txn_aborted += 1;
            emit(sink, || Event::TxnAborted {
                req: req.0,
                vm: vm.index() as u64,
            });
            sink.counter("txn.aborted", 1);
        }
    }

    // no VM may be managed by two shims at once: across takeovers,
    // partitions, and heals the pending / in-flight / unknown-fate sets
    // of different shims must stay disjoint (audited before settlement
    // collapses them against ground truth)
    let manager_audit = audit_managers(shims.iter().map(|s| {
        (
            s.st.rack,
            s.st.pending
                .iter()
                .copied()
                .chain(s.outstanding.values().map(|o| o.vm))
                .chain(s.zombies.values().map(|o| o.vm))
                .chain(s.unresolved.iter().map(|o| o.vm))
                .collect::<Vec<_>>(),
        )
    }));

    // settle unknown fates against ground truth: the simulator (unlike
    // the shims) can see whether an unacknowledged request actually
    // committed at its destination. Requests cut off by the tick cap are
    // settled the same way.
    for shim in &mut shims {
        let leftovers: Vec<Outstanding> = shim
            .unresolved
            .drain(..)
            .chain(std::mem::take(&mut shim.outstanding).into_values())
            .chain(std::mem::take(&mut shim.zombies).into_values())
            .collect();
        for o in leftovers {
            if cluster.placement.host_of(o.vm) == o.dest {
                emit(sink, || Event::MigrationCommitted {
                    vm: o.vm.index() as u64,
                    from_host: o.from.index() as u64,
                    to_host: o.dest.index() as u64,
                    cost: o.cost,
                });
                sink.counter("migrations.committed", 1);
                shim.st.plan.moves.push(Move {
                    vm: o.vm,
                    from: o.from,
                    to: o.dest,
                    cost: o.cost,
                });
                shim.st.plan.total_cost += o.cost;
            } else {
                emit(sink, || Event::MigrationFailed {
                    vm: o.vm.index() as u64,
                    rack: shim.st.rack.index() as u64,
                });
                sink.counter("migrations.failed", 1);
                shim.st.pending.push(o.vm);
            }
        }
    }

    report.ticks = t.min(cfg.max_ticks);
    // the detector's clock spans rounds: silence keeps accruing across
    // round boundaries, so a crashed shim is eventually declared Dead
    // even when every individual round is short
    failover.clock += report.ticks + 1;
    report.drops = net.stats.dropped;
    report.dedup_hits = endpoints.iter().map(|e| e.dedup_hits()).sum();
    if let Some(ts) = &transfers {
        report.transfer_reroutes = ts.reroutes();
        report.transfer_queue_delays = ts.queue_delays();
        report.transfer_peak_sharing = ts.peak_link_sharing();
        report.transfer_stalls = ts.stalls();
        report.transfer_retries = ts.retries();
        report.transfer_failures = ts.failures() + rack_failed_transfers;
        report.resumed_bytes_saved = ts.resumed_bytes_saved();
        // stall-duration distribution: total ticks spent stalled (the
        // per-bucket shape stays queryable on the scheduler's histogram)
        let hist = ts.stall_histogram();
        if hist.count() > 0 {
            sink.counter("transfer.stalled_ticks", hist.sum() as u64);
        }
    }
    sink.counter("net.sent", net.stats.sent as u64);
    sink.counter("net.delivered", net.stats.delivered as u64);
    sink.counter("net.dropped", net.stats.dropped as u64);
    sink.counter("net.duplicated", net.stats.duplicated as u64);
    sink.counter("net.reordered", net.stats.reordered as u64);
    sink.counter("net.blackholed", net.stats.blackholed as u64);
    sink.counter("net.partitioned", net.stats.partitioned as u64);
    sink.counter("net.dedup_hits", report.dedup_hits as u64);
    for shim in shims {
        let mut plan = shim.st.plan;
        let mut pending = shim.st.pending;
        pending.sort_unstable();
        pending.dedup();
        plan.unplaced.extend(pending);
        report.plan.absorb(plan);
        report.retries += shim.st.retries;
        if shim.degraded {
            report.degraded_shims += 1;
        }
    }
    report.audit = audit_placement(&cluster.placement, &cluster.deps);
    report.audit.merge(manager_audit);
    report.audit.merge(transfer_audit);
    report.audit.merge(audit_moves(
        &cluster.placement,
        report.plan.moves.iter().map(|m| (m.vm, m.to)),
    ));
    report.audit.merge(audit_journals(
        &cluster.placement,
        endpoints.iter().map(|e| e.journal()),
    ));
    report
}

/// One fabric planning round: rebuild the slot list from live racks
/// (degradation ladder step 1; the own rack is always kept — step 2),
/// run the matching, and send a REQUEST per assignment.
#[allow(clippy::too_many_arguments)]
fn fabric_plan_and_send<S: EventSink + ?Sized>(
    shim: &mut FabricShim,
    cluster: &Cluster,
    metric: &RackMetric,
    sim: &SimConfig,
    net: &mut SimNet,
    now: u64,
    cfg: &FabricConfig,
    failover: &RegionFailover,
    hot_hosts: &BTreeSet<HostId>,
    report: &mut DistributedReport,
    sink: &mut S,
) {
    shim.rounds_left -= 1;
    shim.progressed = false;
    shim.gave_up = false;

    let live_region: Vec<RackId> = shim
        .region
        .iter()
        .copied()
        .filter(|&r| shim.liveness.alive(r, now))
        .collect();
    // an active partition cuts part of the region off *right now*: plan
    // around it immediately (degraded local handling, own rack always
    // kept) instead of waiting for the liveness deadline to notice
    let reachable: Vec<RackId> = live_region
        .iter()
        .copied()
        .filter(|&r| !net.cut(now, shim.st.rack, r))
        .collect();
    // degraded-mode accounting keys off the ground-truth cut over the
    // whole region: liveness may have aged the far side out already (its
    // beacons stopped arriving the moment the cut opened), but the shim
    // is still planning around a partition, not a crash
    let cut_off = shim.region.iter().any(|&r| net.cut(now, shim.st.rack, r));
    if cut_off && !shim.part_degraded {
        shim.part_degraded = true;
        report.partition_degraded += 1;
        sink.counter("region.partition_degraded", 1);
    }
    if reachable.len() < shim.region.len() {
        if !shim.degraded {
            emit(sink, || Event::ShimDegraded {
                rack: shim.st.rack.index() as u64,
            });
        }
        shim.degraded = true;
    }
    shim.st.slots = region_slots(&cluster.dcn.inventory, &reachable, shim.st.rack);

    let pending = std::mem::take(&mut shim.st.pending);
    let (proposals, unassigned, space) = plan_proposals(
        &cluster.placement,
        &cluster.deps,
        metric,
        sim,
        &pending,
        &shim.st.slots,
        &shim.st.excluded,
        hot_hosts,
    );
    shim.st.plan.search_space += space;
    shim.st.pending = unassigned;
    emit(sink, || Event::PlanComputed {
        rack: shim.st.rack.index() as u64,
        proposals: proposals.len() as u64,
        unassigned: shim.st.pending.len() as u64,
        search_space: space as u64,
    });

    for p in proposals {
        let req_id = ReqId::new(shim.st.rack, shim.st.seq);
        shim.st.seq += 1;
        emit(sink, || Event::RequestSent {
            req: req_id.0,
            vm: p.vm.index() as u64,
            dest_host: p.dest.index() as u64,
            attempt: 1,
        });
        let from = cluster.placement.host_of(p.vm);
        let dest_rack = cluster.placement.rack_of_host(p.dest);
        let lease = now + cfg.prepare_lease;
        shim.outstanding.insert(
            req_id,
            Outstanding {
                vm: p.vm,
                from,
                dest: p.dest,
                cost: p.cost,
                attempt: 0,
                deadline: now + cfg.backoff.delay(0, req_id),
                phase: TxnPhase::Preparing,
                lease,
            },
        );
        net.send(
            now,
            shim.st.rack,
            dest_rack,
            ShimMsg::Prepare {
                req_id,
                vm: p.vm,
                dest: p.dest,
                lease,
                epoch: failover.view_of(shim.st.rack),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::ClusterConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::{NullSink, RingRecorder};

    fn cluster(seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(8));
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

    fn alert_values(c: &Cluster) -> Vec<f64> {
        c.placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect()
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

    /// FNV-1a over a round's plan — every move's (vm, from, to, cost
    /// bits), the rejected count and the unplaced VMs — followed by the
    /// final host of every VM.
    fn plan_digest(plan: &crate::vmmigration::MigrationPlan, c: &Cluster) -> u64 {
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
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(pct as f64 / 100.0, 0);
            let vals = alert_values(&c);
            let rf = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);

            assert_eq!(rf.plan.moves.len(), moves, "seed {seed} at {pct}%");
            assert_eq!(
                plan_digest(&rf.plan, &c),
                digest,
                "seed {seed} at {pct}%: plan drifted from the threaded runtime's"
            );
            // a perfect channel exercises none of the robustness machinery
            assert_eq!(rf.drops, 0);
            assert_eq!(rf.timeouts, 0);
            assert_eq!(rf.resends, 0);
            assert_eq!(rf.dedup_hits, 0);
            assert_eq!(rf.degraded_shims, 0);
            // every move travelled the full PREPARE -> COMMIT -> ACK path
            // and nothing was left half-done
            assert_eq!(rf.txn_committed, rf.plan.moves.len());
            assert_eq!(rf.txn_aborted, 0);
            assert_eq!(rf.recoveries, 0);
            assert!(rf.audit.is_clean(), "{}", rf.audit);
        }
    }

    #[test]
    fn lossy_fabric_with_crash_completes_and_degrades_gracefully() {
        let mut c = cluster(27);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
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
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);

        assert!(
            report.ticks < cfg.max_ticks,
            "round wedged until the tick cap"
        );
        assert!(
            !report.plan.moves.is_empty(),
            "lossy fabric still made progress"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        assert_eq!(report.crashed_shims, 1);
        assert!(report.drops > 0, "10% loss must drop something");
        assert!(report.timeouts > 0, "drops must surface as timeouts");
        assert!(report.resends > 0, "timeouts must trigger retransmissions");
        assert!(
            report.degraded_shims > 0,
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
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(pct, 0);
            let vals = alert_values(&c);
            let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);
            assert!(!report.plan.moves.is_empty());
            if cfg.faults.is_reliable() {
                assert_eq!(report.dedup_hits, 0);
            } else {
                assert!(
                    report.dedup_hits > 0,
                    "50% duplication must hit the dedup log"
                );
            }
            // chaining the recorded moves from the initial placement lands
            // exactly on the final placement: every ACKed move applied once
            let mut loc: std::collections::HashMap<VmId, HostId> = c
                .placement
                .vm_ids()
                .map(|vm| (vm, initial.host_of(vm)))
                .collect();
            for m in &report.plan.moves {
                assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
                loc.insert(m.vm, m.to);
            }
            for vm in c.placement.vm_ids() {
                assert_eq!(loc[&vm], c.placement.host_of(vm));
            }
            let sum: f64 = report.plan.moves.iter().map(|m| m.cost).sum();
            assert!((report.plan.total_cost - sum).abs() < 1e-9);
            assert_capacity_ok(&c);
        }
    }

    #[test]
    fn fabric_with_all_shims_crashed_is_a_noop() {
        let mut c = cluster(29);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.05, 0);
        let vals = alert_values(&c);
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
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);
        assert_eq!(report.shims, 0);
        assert_eq!(report.crashed_shims, crashed.len());
        assert!(report.plan.moves.is_empty());
        assert_eq!(c.utilization_stddev(), before);

        // a round without alerts is a no-op on a healthy fabric too
        let cfg = FabricConfig::default();
        let report = fabric_round_obs(&mut c, &metric, &[], &[], &cfg, &mut NullSink);
        assert_eq!(report.shims, 0);
        assert!(report.plan.moves.is_empty());
        assert_eq!(c.utilization_stddev(), before);
    }

    #[test]
    fn mid_round_source_crash_recovers_and_audits_clean() {
        let mut c = cluster(31);
        let initial = c.placement.clone();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        // kill an alerted source shim between its PREPARE burst (applied
        // at t = 3 on the destinations) and the COMMIT phase, then
        // recover it: the orphaned prepares must lease-abort cleanly and
        // the recovered shim rejoins planning
        let victim = alerts[0].rack;
        let cfg = FabricConfig {
            crashed: vec![CrashWindow::during(victim, 4, 12)],
            ..FabricConfig::default()
        };
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);

        assert!(report.ticks < cfg.max_ticks, "round wedged");
        assert_eq!(report.recoveries, 1);
        assert_eq!(
            report.crashed_shims, 0,
            "a recovering shim is not written off"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        // exactly-once despite the crash: replaying the recorded moves
        // from the initial placement reproduces the final one
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }

    #[test]
    fn mid_round_source_crash_settles_without_zombie_txns() {
        let mut c = cluster(32);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
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
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut NullSink);
        assert!(report.ticks < cfg.max_ticks, "round wedged");
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn sustained_crash_takeover_then_zombie_is_fenced() {
        let mut c = cluster(33);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let victim = alerts[0].rack;
        let mut failover = RegionFailover::default();
        let crash_cfg = FabricConfig {
            crashed: vec![CrashWindow::whole_round(victim)],
            ..FabricConfig::default()
        };
        // the victim stays dark across rounds: the detector walks it to
        // Dead and exactly one takeover (epoch bump) follows, however
        // many further rounds it stays dead
        let mut takeovers = 0;
        for _ in 0..6 {
            let vals = alert_values(&c);
            let r = fabric_round_failover_obs(
                &mut c,
                &metric,
                &alerts,
                &vals,
                &crash_cfg,
                &mut failover,
                &mut NullSink,
            );
            assert!(r.audit.is_clean(), "{}", r.audit);
            takeovers += r.takeovers;
        }
        assert_eq!(takeovers, 1, "one manager change, one epoch bump");
        assert_eq!(failover.epoch_of(victim), 1);
        assert!(failover.taken_over(victim));
        assert_eq!(
            failover.view_of(victim),
            0,
            "the deposed shim never heard the bump"
        );

        // the shim returns: its first PREPARE burst still carries epoch
        // 0, gets fenced, and the reject teaches it the current epoch
        let cfg = FabricConfig::default();
        let vals = alert_values(&c);
        let r = fabric_round_failover_obs(
            &mut c,
            &metric,
            &alerts,
            &vals,
            &cfg,
            &mut failover,
            &mut NullSink,
        );
        assert!(r.fenced > 0, "zombie PREPAREs must be fenced");
        assert_eq!(failover.view_of(victim), 1, "reject taught the epoch");
        assert!(
            !failover.taken_over(victim),
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
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let victim = alerts[0].rack;
        // an aggressive detector (dead after ~6 ticks of silence)
        // declares the crashed shim Dead mid-round; its unplanned work
        // moves to a successor under a bumped epoch, and the shim then
        // recovers into the takeover — the regression this guards is two
        // shims both claiming the victim's VMs
        let mut failover = RegionFailover::new(2, 4);
        let cfg = FabricConfig {
            crashed: vec![CrashWindow::during(victim, 1, 20)],
            ..FabricConfig::default()
        };
        let report = fabric_round_failover_obs(
            &mut c,
            &metric,
            &alerts,
            &vals,
            &cfg,
            &mut failover,
            &mut NullSink,
        );
        assert!(report.ticks < cfg.max_ticks, "round wedged");
        assert_eq!(report.takeovers, 1, "mid-round takeover must fire");
        assert_eq!(failover.epoch_of(victim), 1);
        assert_eq!(report.recoveries, 1);
        // the manager audit (merged into report.audit) proves no VM was
        // pending/outstanding at two shims at once
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
        // exactly-once despite crash + takeover: replaying the recorded
        // moves from the initial placement reproduces the final one
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }

    #[test]
    fn partition_degrades_minority_without_takeover_or_fencing() {
        let mut c = cluster(34);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let isolated = alerts[0].rack;
        let cfg = FabricConfig {
            partitions: vec![PartitionWindow::new(vec![isolated], 0, Some(24))],
            ..FabricConfig::default()
        };
        let mut failover = RegionFailover::default();
        let report = fabric_round_failover_obs(
            &mut c,
            &metric,
            &alerts,
            &vals,
            &cfg,
            &mut failover,
            &mut NullSink,
        );
        assert!(
            report.partition_degraded > 0,
            "the cut shim must notice its shrunken region"
        );
        // emission-based detection: a partitioned-but-alive shim keeps
        // beaconing, so the cut never looks like a crash
        assert_eq!(report.takeovers, 0, "a partition is not a crash");
        assert_eq!(report.fenced, 0, "no epoch bumped, nothing to fence");
        assert_eq!(report.crashed_shims, 0);
        for r in 0..c.dcn.rack_count() {
            assert_eq!(failover.epoch_of(RackId::from_index(r)), 0);
        }
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn partitioned_lossy_fabric_is_deterministic() {
        let run = || {
            let mut c = cluster(35);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(0.10, 0);
            let vals = alert_values(&c);
            let cfg = FabricConfig {
                faults: ChannelFaults::lossy(0.05),
                seed: 41,
                partitions: vec![PartitionWindow::new(vec![alerts[0].rack], 2, Some(20))],
                ..FabricConfig::default()
            };
            let mut failover = RegionFailover::default();
            let report = fabric_round_failover_obs(
                &mut c,
                &metric,
                &alerts,
                &vals,
                &cfg,
                &mut failover,
                &mut NullSink,
            );
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
        assert_eq!(r1.plan.moves.len(), r2.plan.moves.len());
        for (a, b) in r1.plan.moves.iter().zip(&r2.plan.moves) {
            assert_eq!((a.vm, a.from, a.to), (b.vm, b.from, b.to));
        }
        assert_eq!(
            (r1.drops, r1.resends, r1.ticks, r1.partition_degraded),
            (r2.drops, r2.resends, r2.ticks, r2.partition_degraded)
        );
        assert_eq!(r1.reconciliations, r2.reconciliations);
    }

    #[test]
    fn tighter_beacon_interval_detects_crash_before_recovery() {
        // Regression for heartbeat emission timing: beacons are scheduled
        // events at each rack's own interval, so watching one rack at a
        // tighter cadence shortens the adaptive detector's silence
        // thresholds for that rack alone and a mid-round crash is
        // declared before the shim recovers.
        //
        // The victim crashes mid-negotiation at t = 5 and recovers at
        // t = 20 under a detector with a dead floor of 6 ticks. On the
        // default 8-tick cadence only the t = 0 Hello lands before the
        // crash, the mean interval stays at the 8-tick hint, and Dead
        // needs max(6, 3·8) + 1 = 25 ticks of silence (t = 25) — the
        // post-recovery beacon at t = 24 resets the clock first, so no
        // death is ever declared. Beaconing the victim every 2 ticks
        // lands emissions at t = 0, 2, 4, driving the mean to 2: Dead
        // fires max(6, 3·2) + 1 = 7 ticks after the t = 4 emission,
        // i.e. t = 11, comfortably before recovery.
        let run = |tight: bool| {
            let mut c = cluster(26);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(0.10, 0);
            let vals = alert_values(&c);
            let victim = alerts[0].rack;
            let mut cfg = FabricConfig {
                crashed: vec![CrashWindow::during(victim, 5, 20)],
                ..FabricConfig::default()
            };
            if tight {
                cfg = cfg.with_beacon_interval(victim, 2);
            }
            let mut failover = RegionFailover::new(8, 6);
            let mut rec = RingRecorder::new(65536);
            let report = fabric_round_failover_obs(
                &mut c,
                &metric,
                &alerts,
                &vals,
                &cfg,
                &mut failover,
                &mut rec,
            );
            assert!(report.audit.is_clean(), "{}", report.audit);
            assert_eq!(report.recoveries, 1, "the victim must come back");
            (rec.count_kind("shim_declared_dead"), c)
        };
        let (slow_deaths, _) = run(false);
        assert_eq!(
            slow_deaths, 0,
            "default cadence cannot notice a 15-tick crash"
        );
        let (fast_deaths, c) = run(true);
        assert!(
            fast_deaths >= 1,
            "a 2-tick beacon interval must surface the crash before recovery"
        );
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn per_rack_alert_checks_fire_at_distinct_virtual_times() {
        // two alerted racks rescan for fresh pre-alerts at their own
        // intervals: within a single round their AlertCheckFired events
        // land at different virtual times — behavior a per-round phase
        // cannot express
        let mut c = cluster(37);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        assert!(racks.len() >= 2, "need two alerted racks");
        let (a, b) = (racks[0], racks[1]);
        let cfg = FabricConfig::default()
            .with_alert_check(a, 3)
            .with_alert_check(b, 5);
        let mut rec = RingRecorder::new(65536);
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut rec);
        let mut ticks_a: Vec<u64> = Vec::new();
        let mut ticks_b: Vec<u64> = Vec::new();
        for e in rec.to_vec() {
            if let Event::AlertCheckFired { rack, tick, .. } = e {
                if rack == a.index() as u64 {
                    ticks_a.push(tick);
                } else if rack == b.index() as u64 {
                    ticks_b.push(tick);
                }
            }
        }
        assert!(
            !ticks_a.is_empty() && !ticks_b.is_empty(),
            "both intervals must fire within the round (ticks={})",
            report.ticks
        );
        assert!(ticks_a.iter().all(|t| t % 3 == 0 && *t <= report.ticks));
        assert!(ticks_b.iter().all(|t| t % 5 == 0 && *t <= report.ticks));
        assert!(
            ticks_a.iter().any(|t| !ticks_b.contains(t)),
            "the two racks' checks must fire at distinct virtual times"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
    }

    #[test]
    fn alert_checks_adopt_fresh_victims_mid_round() {
        // a single rack re-scanning at a tight interval keeps adopting
        // whatever PRIORITY surfaces on the evolving placement; the
        // checks never double-adopt a VM the shim already manages, the
        // round still terminates, and every invariant audit stays clean
        let mut c = cluster(38);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let cfg = FabricConfig::default().with_alert_check(alerts[0].rack, 2);
        let mut rec = RingRecorder::new(65536);
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut rec);
        assert!(rec.count_kind("alert_check_fired") > 0);
        assert!(
            report.ticks < cfg.max_ticks,
            "checks must not wedge the round"
        );
        assert!(report.audit.is_clean(), "{}", report.audit);
        assert_capacity_ok(&c);
        assert_deps_ok(&c);
    }

    #[test]
    fn uncommitted_leftovers_settle_as_failed_migrations() {
        // regression for the EVT01 dead-variant finding: a request cut
        // off by loss + crash whose move never reached ground truth must
        // surface as MigrationFailed (event and counter agree), not
        // vanish silently back into the pending queue
        let mut c = cluster(27);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.10, 0);
        let vals = alert_values(&c);
        let crashed = alerts[0].rack;
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop: 0.10,
                ..ChannelFaults::lossy(0.10)
            },
            seed: 3,
            crashed: vec![CrashWindow::whole_round(crashed)],
            ..FabricConfig::default()
        };
        let mut rec = RingRecorder::new(65536);
        let report = fabric_round_obs(&mut c, &metric, &alerts, &vals, &cfg, &mut rec);
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
            "seed 3 settles exactly one unknown fate as failed"
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
}
