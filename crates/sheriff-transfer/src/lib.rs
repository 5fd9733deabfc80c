//! Network-aware migration transfer scheduling in virtual time.
//!
//! Sheriff's cost model (Eqn. 1) prices each pre-copy independently, and
//! the fabric runtime historically settled every committed migration
//! instantaneously. In a real Fat-Tree the pre-copies of concurrent
//! migrations *share links*: two transfers crossing the same core link
//! each get half its bandwidth, and completion times stretch accordingly
//! (Wang et al., "Virtual Machine Migration Planning in SDN"). This crate
//! models exactly that contention, deterministically:
//!
//! * every committed 2PC migration becomes a [`TransferSpec`] with a byte
//!   size derived from the VM's capacity;
//! * a route is chosen from the k-shortest candidate paths
//!   ([`route_candidates`], built on `dcn-topology`'s Yen machinery) with
//!   a deterministic lexicographic tie-break;
//! * concurrent transfers share per-link capacity under
//!   progressive-filling **max-min fairness**, and every admission or
//!   completion recomputes all rates and re-schedules each transfer's
//!   completion time;
//! * each shared link runs a QCN congestion point (`dcn-sim`); when the
//!   primary route's worst-link severity crosses
//!   [`TransferConfig::reroute_threshold`] a new transfer is steered onto
//!   the least-congested alternate (a *reroute*), and a full admission
//!   window ([`TransferConfig::max_concurrent`]) queues it instead.
//!
//! The scheduler is pure virtual-time state: no clocks, no randomness,
//! `BTreeMap` everywhere — same inputs, byte-identical schedules.
//!
//! # Fault tolerance
//!
//! Transfers survive network faults with a deterministic recovery state
//! machine (`Streaming → Stalled → Resumed/Retried → Completed/Failed`):
//!
//! * [`fail_link`](TransferScheduler::fail_link) — a stream whose route
//!   loses a link is steered onto the first surviving candidate path
//!   (max-min shares recompute fleet-wide), or enters **Stalled** when no
//!   viable path exists;
//! * progress is **checkpointed**: bytes copied before the fault are
//!   retained, and a resumed or re-routed stream continues from its
//!   checkpoint plus a [`TransferConfig::dirty_rate`] re-copy penalty
//!   (iterative pre-copy semantics) instead of restarting from zero;
//! * a stalled stream retries on exponential backoff with deterministic
//!   jitter (the same discipline as the fabric's retransmission policy);
//!   exhausting [`TransferConfig::max_attempts`] yields a
//!   [`Failed`] record the caller escalates to a clean 2PC abort.
//!
//! With no failed links every recovery path is inert: the schedule is
//! byte-identical to the fault-oblivious scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcn_sim::qcn::CongestionPoint;
use dcn_sim::{mix64, GOLDEN_GAMMA};
use dcn_topology::graph::{EdgeIdx, NetGraph, NodeIdx};
use dcn_topology::ksp::{k_shortest_paths, Path};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Residual-byte tolerance: below this a transfer counts as finished.
const EPS: f64 = 1e-9;
/// Floor on a computed rate so completion times stay finite.
const MIN_RATE: f64 = 1e-6;

/// Knobs for the transfer scheduler. `None` on
/// `FabricConfig::transfer` disables the model entirely (instantaneous
/// settlement, byte-identical to the pre-transfer fabric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferConfig {
    /// Migration-lane capacity of every link, in bytes per virtual tick.
    pub link_bandwidth: f64,
    /// Bytes of pre-copy traffic per unit of VM capacity (Eqn. 1's
    /// `m.capacity` scaled into transferable bytes).
    pub bytes_per_capacity: f64,
    /// Admission cap on concurrently running transfers; `0` = unlimited.
    pub max_concurrent: usize,
    /// Number of k-shortest-path route candidates computed per transfer.
    pub k_paths: usize,
    /// QCN severity in `[0, 1]` above which the primary route is
    /// abandoned for an alternate (a `TransferRerouted` event).
    pub reroute_threshold: f64,
    /// Fraction of already-copied bytes re-dirtied by a fault: a stream
    /// re-routed or resumed after a link failure re-copies
    /// `dirty_rate × copied` bytes on top of its checkpoint (iterative
    /// pre-copy semantics). `0.0` = perfect checkpoint, `1.0` = restart.
    pub dirty_rate: f64,
    /// Base of the stalled-stream retry backoff in ticks: retry `n`
    /// fires after `stall_budget · 2ⁿ` ticks (capped at 8× the budget)
    /// plus a deterministic jitter in `[0, stall_budget)`.
    pub stall_budget: u64,
    /// Retry attempts a stalled stream gets before it fails for good
    /// and the caller must abort its transaction.
    pub max_attempts: u32,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self {
            link_bandwidth: 4.0,
            bytes_per_capacity: 8.0,
            max_concurrent: 0,
            k_paths: 4,
            reroute_threshold: 0.25,
            dirty_rate: 0.25,
            stall_budget: 16,
            max_attempts: 4,
        }
    }
}

/// Compute up to `k` candidate routes between two topology nodes,
/// shortest first, with a deterministic tie-break: equal-cost paths are
/// ordered lexicographically by node sequence, so the same topology
/// always yields the same candidate list regardless of internal search
/// order.
pub fn route_candidates(g: &NetGraph, src: NodeIdx, dst: NodeIdx, k: usize) -> Vec<Path> {
    let mut paths = k_shortest_paths(g, src, dst, k.max(1), |_| 1.0);
    paths.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.nodes.cmp(&b.nodes))
    });
    paths
}

/// What the caller submits: one committed migration's pre-copy.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferSpec {
    /// Caller-chosen identifier (the fabric uses the 2PC request id).
    pub id: u64,
    /// The VM being moved, as a plain index.
    pub vm: u64,
    /// Destination rack index; a rack crash cancels transfers bound for
    /// it via [`TransferScheduler::cancel_rack`].
    pub dst_rack: usize,
    /// Total pre-copy volume in bytes.
    pub bytes: f64,
}

/// Outcome of [`TransferScheduler::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// The transfer is running; rates were recomputed fleet-wide.
    Started(Started),
    /// The concurrency cap is reached; the transfer waits in FIFO order
    /// and starts from a later [`TransferScheduler::poll`].
    Queued,
}

/// A transfer that just began streaming.
#[derive(Debug, Clone, PartialEq)]
pub struct Started {
    /// Caller identifier.
    pub id: u64,
    /// The VM being moved.
    pub vm: u64,
    /// Pre-copy volume in bytes.
    pub bytes: f64,
    /// Hop count of the chosen route (0 for an intra-rack move).
    pub hops: usize,
    /// Max-min fair rate granted at admission, bytes per tick.
    pub rate: f64,
    /// Whether congestion steered it off the primary candidate.
    pub rerouted: bool,
    /// Ticks spent waiting in the admission queue.
    pub waited: u64,
    /// `Some(link)` when admitted straight into `Stalled` because every
    /// candidate route crosses a failed link: the first failed link on
    /// the first candidate. It streams nothing until a restore or retry
    /// finds a path.
    pub stalled_on: Option<EdgeIdx>,
}

/// A transfer that finished streaming its last byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Caller identifier.
    pub id: u64,
    /// The VM that finished moving.
    pub vm: u64,
    /// Pre-copy volume in bytes.
    pub bytes: f64,
    /// Wall ticks from admission to completion (≥ 1).
    pub duration: u64,
    /// Achieved bandwidth `bytes / duration`.
    pub achieved_bw: f64,
}

/// A streaming transfer steered onto an alternate route by QCN
/// congestion feedback mid-flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Rerouted {
    /// Caller identifier.
    pub id: u64,
    /// The VM being moved.
    pub vm: u64,
    /// Hop count of the new route.
    pub hops: usize,
}

/// A stream that lost its route to a link failure and found no surviving
/// candidate: it holds its checkpoint and waits on the retry backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct Stalled {
    /// Caller identifier.
    pub id: u64,
    /// The VM being moved.
    pub vm: u64,
    /// The failed link that severed its route.
    pub link: EdgeIdx,
}

/// A stalled stream that found a viable route again and resumed from its
/// checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Resumed {
    /// Caller identifier.
    pub id: u64,
    /// The VM being moved.
    pub vm: u64,
    /// Bytes the checkpoint spared it from re-copying (copied before the
    /// fault, minus the dirty re-copy penalty).
    pub saved: f64,
    /// Ticks spent stalled before the resume.
    pub stalled_ticks: u64,
}

/// A stalled stream's retry timer fired; it probed for a surviving route.
#[derive(Debug, Clone, PartialEq)]
pub struct Retried {
    /// Caller identifier.
    pub id: u64,
    /// The VM being moved.
    pub vm: u64,
    /// Retry attempts used so far (1-based).
    pub attempt: u32,
}

/// A stalled stream that exhausted its retry budget: the transfer is
/// gone and the caller must abort its 2PC transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Failed {
    /// Caller identifier.
    pub id: u64,
    /// The VM that failed to move.
    pub vm: u64,
    /// Retry attempts consumed before giving up.
    pub attempts: u32,
}

/// Everything one [`TransferScheduler::fail_link`] call did to the
/// in-flight fleet.
#[derive(Debug, Clone, Default)]
pub struct LinkOutcome {
    /// Streams that lost their route and found no surviving candidate.
    pub stalled: Vec<Stalled>,
    /// Streams steered onto a surviving candidate path (checkpoint kept,
    /// dirty penalty applied).
    pub rerouted: Vec<Rerouted>,
}

/// Everything that happened at one [`TransferScheduler::poll`].
#[derive(Debug, Clone, Default)]
pub struct TransferTick {
    /// Transfers that finished at this tick.
    pub completions: Vec<Completion>,
    /// Queued transfers admitted now that capacity freed up.
    pub started: Vec<Started>,
    /// Streams QCN pressure moved onto an alternate route this tick.
    pub rerouted: Vec<Rerouted>,
    /// Stalled streams whose retry timer fired this tick.
    pub retried: Vec<Retried>,
    /// Stalled streams that found a route on retry and resumed.
    pub resumed: Vec<Resumed>,
    /// Stalled streams that exhausted their retry budget this tick.
    pub failed: Vec<Failed>,
}

impl TransferTick {
    /// True when the poll neither completed, admitted, rerouted,
    /// retried, resumed, nor failed anything.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
            && self.started.is_empty()
            && self.rerouted.is_empty()
            && self.retried.is_empty()
            && self.resumed.is_empty()
            && self.failed.is_empty()
    }
}

/// An in-flight transfer.
#[derive(Debug, Clone)]
struct Active {
    vm: u64,
    dst_rack: usize,
    bytes: f64,
    remaining: f64,
    links: Vec<EdgeIdx>,
    hops: usize,
    rate: f64,
    rate_since: u64,
    started_at: u64,
    rerouted: bool,
    /// Remaining route alternatives, kept so QCN pressure can steer the
    /// stream mid-flight.
    candidates: Vec<Path>,
    /// `Some(tick)` while stalled on a link failure: streaming no bytes,
    /// waiting for a restore or the retry timer.
    stalled_since: Option<u64>,
    /// When the stalled retry timer fires (meaningless while streaming).
    retry_at: u64,
    /// Retry attempts consumed over the transfer's lifetime.
    attempt: u32,
}

/// A transfer parked behind the admission cap.
#[derive(Debug, Clone)]
struct Queued {
    spec: TransferSpec,
    candidates: Vec<Path>,
    since: u64,
}

/// Deterministic bandwidth-sharing transfer scheduler.
///
/// Drive it from an event loop: [`submit`](Self::submit) at each 2PC
/// COMMIT, [`poll`](Self::poll) at every activated tick, and schedule a
/// wake at [`next_event_time`](Self::next_event_time). All state is
/// ordered (`BTreeMap`) and advanced only by the virtual times passed
/// in, so identical call sequences produce identical schedules.
#[derive(Debug, Clone)]
pub struct TransferScheduler {
    cfg: TransferConfig,
    active: BTreeMap<u64, Active>,
    queue: VecDeque<Queued>,
    /// Per-link QCN congestion points, keyed by edge index.
    cps: BTreeMap<EdgeIdx, CongestionPoint>,
    /// Concurrent users per link as of the last recompute.
    link_users: BTreeMap<EdgeIdx, usize>,
    completes_at: BTreeMap<u64, u64>,
    /// Virtual time of the last QCN sampling interval.
    sampled_at: u64,
    peak_sharing: usize,
    /// Links currently failed; routes crossing any of these are not
    /// viable. Empty ⇒ every recovery path below is inert.
    failed_links: BTreeSet<EdgeIdx>,
}

impl TransferScheduler {
    /// A scheduler with no transfers in flight.
    pub fn new(cfg: TransferConfig) -> Self {
        Self {
            cfg,
            active: BTreeMap::new(),
            queue: VecDeque::new(),
            cps: BTreeMap::new(),
            link_users: BTreeMap::new(),
            completes_at: BTreeMap::new(),
            sampled_at: 0,
            peak_sharing: 0,
            failed_links: BTreeSet::new(),
        }
    }

    /// The knobs this scheduler was built with.
    pub fn config(&self) -> &TransferConfig {
        &self.cfg
    }

    fn capacity(&self) -> f64 {
        if self.cfg.link_bandwidth > 0.0 {
            self.cfg.link_bandwidth
        } else {
            1.0
        }
    }

    /// No transfers running and none queued.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.queue.is_empty()
    }

    /// VM indices with a pre-copy running or queued; the planner must
    /// not re-plan these as source or destination mid-transfer.
    pub fn in_flight_vms(&self) -> BTreeSet<u64> {
        self.active
            .values()
            .map(|a| a.vm)
            .chain(self.queue.iter().map(|q| q.spec.vm))
            .collect()
    }

    /// Peak number of transfers that ever shared one link.
    pub fn peak_link_sharing(&self) -> usize {
        self.peak_sharing
    }

    /// Ids of every active transfer (streaming or stalled), in order.
    /// The fabric's auditor checks each against the intent journal.
    pub fn active_ids(&self) -> Vec<u64> {
        self.active.keys().copied().collect()
    }

    /// Invariant probe: streams still *streaming* (not stalled) whose
    /// route crosses a failed link. Always empty unless the recovery
    /// machinery has a bug; each entry is `(id, offending link)`.
    pub fn streaming_on_failed_links(&self) -> Vec<(u64, EdgeIdx)> {
        let mut hits = Vec::new();
        for (&id, a) in &self.active {
            if a.stalled_since.is_some() {
                continue;
            }
            if let Some(&l) = a.links.iter().find(|l| self.failed_links.contains(l)) {
                hits.push((id, l));
            }
        }
        hits
    }

    /// Earliest tick at which a running transfer completes or a stalled
    /// one retries, under current rates. `None` when nothing is running
    /// (a non-empty queue still needs a wake: poll again next tick to
    /// admit it).
    pub fn next_event_time(&self) -> Option<u64> {
        let next_retry = self
            .active
            .values()
            .filter(|a| a.stalled_since.is_some())
            .map(|a| a.retry_at)
            .min();
        match (self.completes_at.values().min().copied(), next_retry) {
            (Some(c), Some(r)) => Some(c.min(r)),
            (c, r) => c.or(r),
        }
    }

    /// A route is viable when none of its links are currently failed.
    fn viable(&self, links: &[EdgeIdx]) -> bool {
        self.failed_links.is_empty() || !links.iter().any(|l| self.failed_links.contains(l))
    }

    /// Exponential backoff with deterministic jitter for a stalled
    /// stream's retry `attempt` (0-based) — the same discipline as the
    /// fabric's retransmission policy, hashed over `(id, attempt)` with
    /// SplitMix64 so concurrent stalls don't retry in lockstep.
    fn retry_delay(&self, attempt: u32, id: u64) -> u64 {
        let base = self.cfg.stall_budget.max(1);
        let exp = base
            .saturating_mul(1u64 << attempt.min(16))
            .min(base.saturating_mul(8));
        let jitter = if base > 1 {
            mix64(id ^ (attempt as u64 + 1).wrapping_mul(GOLDEN_GAMMA)) % base
        } else {
            0
        };
        exp + jitter
    }

    /// Submit a pre-copy at COMMIT time. `candidates` come from
    /// [`route_candidates`]; an empty list means an intra-rack move that
    /// crosses no shared links. Duplicate ids are rejected as `Queued`
    /// never — the caller deduplicates by request id.
    pub fn submit(&mut self, now: u64, spec: TransferSpec, candidates: Vec<Path>) -> Admission {
        self.settle(now);
        if self.cfg.max_concurrent > 0 && self.active.len() >= self.cfg.max_concurrent {
            self.queue.push_back(Queued {
                spec,
                candidates,
                since: now,
            });
            return Admission::Queued;
        }
        let id = spec.id;
        self.admit(now, spec, &candidates);
        self.recompute(now);
        Admission::Started(self.started_info(id, 0))
    }

    /// Insert an Active entry with its route chosen; rates are stale
    /// until the caller recomputes. When every candidate crosses a
    /// failed link the transfer is admitted straight into `Stalled`.
    fn admit(&mut self, now: u64, spec: TransferSpec, candidates: &[Path]) {
        match self.choose_route(candidates) {
            Some((links, hops, rerouted)) => {
                self.active.insert(
                    spec.id,
                    Active {
                        vm: spec.vm,
                        dst_rack: spec.dst_rack,
                        bytes: spec.bytes,
                        remaining: spec.bytes.max(0.0),
                        links,
                        hops,
                        rate: self.capacity(),
                        rate_since: now,
                        started_at: now,
                        rerouted,
                        candidates: candidates.to_vec(),
                        stalled_since: None,
                        retry_at: 0,
                        attempt: 0,
                    },
                );
            }
            None => {
                let retry_at = now + self.retry_delay(0, spec.id);
                self.active.insert(
                    spec.id,
                    Active {
                        vm: spec.vm,
                        dst_rack: spec.dst_rack,
                        bytes: spec.bytes,
                        remaining: spec.bytes.max(0.0),
                        links: Vec::new(),
                        hops: 0,
                        rate: 0.0,
                        rate_since: now,
                        started_at: now,
                        rerouted: false,
                        candidates: candidates.to_vec(),
                        stalled_since: Some(now),
                        retry_at,
                        attempt: 0,
                    },
                );
            }
        }
    }

    /// Worst QCN severity along a set of links.
    fn severity_of_links(&self, links: &[EdgeIdx]) -> f64 {
        links
            .iter()
            .map(|l| self.cps.get(l).map_or(0.0, CongestionPoint::severity))
            .fold(0.0, f64::max)
    }

    /// Worst QCN severity along a candidate.
    fn severity_of(&self, c: &Path) -> f64 {
        self.severity_of_links(&c.edges)
    }

    /// Pick a route among the candidates that avoid every failed link:
    /// the shortest unless QCN severity on it exceeds the reroute
    /// threshold, then the first under-threshold alternate, or the
    /// least-severe candidate when all are hot. Returns `(links, hops,
    /// rerouted)`, or `None` when candidates exist but all cross a failed
    /// link (the caller stalls the transfer). An empty candidate list is
    /// an intra-rack move that crosses no shared links.
    fn choose_route(&self, candidates: &[Path]) -> Option<(Vec<EdgeIdx>, usize, bool)> {
        if candidates.is_empty() {
            return Some((Vec::new(), 0, false));
        }
        let idxs: Vec<usize> = (0..candidates.len())
            .filter(|&i| candidates.get(i).is_some_and(|c| self.viable(&c.edges)))
            .collect();
        let (&first, rest) = idxs.split_first()?;
        let primary = candidates.get(first)?;
        let pick = |i: usize| {
            candidates
                .get(i)
                .map(|c| (c.edges.clone(), c.edges.len(), i != 0))
                .unwrap_or_else(|| (primary.edges.clone(), primary.edges.len(), first != 0))
        };
        let thr = self.cfg.reroute_threshold;
        if self.severity_of(primary) <= thr {
            return Some(pick(first));
        }
        // primary is hot: first alternate under threshold, else the
        // least-severe candidate overall
        for &i in rest {
            if candidates
                .get(i)
                .is_some_and(|c| self.severity_of(c) <= thr)
            {
                return Some(pick(i));
            }
        }
        let mut best = first;
        let mut best_sev = self.severity_of(primary);
        for &i in rest {
            let Some(c) = candidates.get(i) else { continue };
            let s = self.severity_of(c);
            if s < best_sev - EPS {
                best = i;
                best_sev = s;
            }
        }
        Some(pick(best))
    }

    fn started_info(&self, id: u64, waited: u64) -> Started {
        match self.active.get(&id) {
            Some(a) => Started {
                id,
                vm: a.vm,
                bytes: a.bytes,
                hops: a.hops,
                rate: a.rate,
                rerouted: a.rerouted,
                waited,
                stalled_on: a.stalled_since.and(a.candidates.first()).and_then(|c| {
                    c.edges
                        .iter()
                        .copied()
                        .find(|l| self.failed_links.contains(l))
                }),
            },
            // unreachable: callers only ask about ids they just admitted
            None => Started {
                id,
                vm: 0,
                bytes: 0.0,
                hops: 0,
                rate: 0.0,
                rerouted: false,
                waited,
                stalled_on: None,
            },
        }
    }

    /// Advance every running transfer's residual bytes to `now`.
    fn settle(&mut self, now: u64) {
        for a in self.active.values_mut() {
            let dt = now.saturating_sub(a.rate_since);
            if dt > 0 {
                a.remaining = (a.remaining - a.rate * dt as f64).max(0.0);
                a.rate_since = now;
            }
        }
    }

    /// Progressive-filling max-min fairness: repeatedly grant every
    /// unfrozen transfer the smallest per-link fair share, freeze the
    /// transfers crossing the saturated link(s), subtract their share,
    /// and continue until all transfers are frozen. Also advances each
    /// used link's QCN congestion point by one sampling interval
    /// (demand = users × capacity in, capacity out) and re-schedules
    /// every completion time.
    fn recompute(&mut self, now: u64) {
        let cap = self.capacity();
        let mut users: BTreeMap<EdgeIdx, Vec<u64>> = BTreeMap::new();
        for (&id, a) in &self.active {
            if a.stalled_since.is_some() {
                continue;
            }
            for &l in &a.links {
                users.entry(l).or_default().push(id);
            }
        }
        let mut avail: BTreeMap<EdgeIdx, f64> = users.keys().map(|&l| (l, cap)).collect();
        let mut unfrozen: BTreeSet<u64> = self
            .active
            .iter()
            .filter(|(_, a)| !a.links.is_empty())
            .map(|(&id, _)| id)
            .collect();
        let mut rates: BTreeMap<u64, f64> = BTreeMap::new();
        while !unfrozen.is_empty() {
            let mut share = f64::INFINITY;
            for (l, us) in &users {
                let n = us.iter().filter(|id| unfrozen.contains(id)).count();
                if n > 0 {
                    share = share.min(avail.get(l).copied().unwrap_or(0.0) / n as f64);
                }
            }
            if !share.is_finite() {
                break;
            }
            let mut frozen_now: BTreeSet<u64> = BTreeSet::new();
            for (l, us) in &users {
                let n = us.iter().filter(|id| unfrozen.contains(id)).count();
                if n > 0 && avail.get(l).copied().unwrap_or(0.0) / n as f64 <= share + EPS {
                    frozen_now.extend(us.iter().filter(|id| unfrozen.contains(id)));
                }
            }
            if frozen_now.is_empty() {
                break;
            }
            for &id in &frozen_now {
                rates.insert(id, share);
                if let Some(a) = self.active.get(&id) {
                    for &l in &a.links {
                        if let Some(v) = avail.get_mut(&l) {
                            *v = (*v - share).max(0.0);
                        }
                    }
                }
                unfrozen.remove(&id);
            }
        }
        let peak = users.values().map(Vec::len).max().unwrap_or(0);
        self.peak_sharing = self.peak_sharing.max(peak);
        self.link_users = users.iter().map(|(&l, us)| (l, us.len())).collect();
        // one QCN sampling interval per recompute, scaled by the
        // virtual time elapsed since the last one so queues integrate
        // demand over long streaming stretches (clamped to >= 1 so
        // same-tick admission bursts still build pressure): used links
        // see their aggregate demand, idle links drain
        let dt = now.saturating_sub(self.sampled_at).max(1) as f64;
        self.sampled_at = now;
        let sampled: BTreeSet<EdgeIdx> = users
            .keys()
            .copied()
            .chain(self.cps.keys().copied())
            .collect();
        for l in sampled {
            let n = self.link_users.get(&l).copied().unwrap_or(0);
            let cp = self.cps.entry(l).or_default();
            let _ = cp.sample(n as f64 * cap * dt, cap * dt);
        }
        self.completes_at.clear();
        for (&id, a) in self.active.iter_mut() {
            if a.stalled_since.is_some() {
                // stalled: streams nothing, completes never; its wake is
                // the retry timer, not a completion time
                a.rate = 0.0;
                a.rate_since = now;
                continue;
            }
            a.rate = if a.links.is_empty() {
                cap
            } else {
                rates.get(&id).copied().unwrap_or(cap).max(MIN_RATE)
            };
            a.rate_since = now;
            let ticks = if a.remaining <= EPS {
                1
            } else {
                let t = (a.remaining / a.rate).ceil();
                if t >= 1.0 {
                    t as u64
                } else {
                    1
                }
            };
            self.completes_at.insert(id, now + ticks);
        }
    }

    /// Advance to `now`: harvest completions, admit queued transfers
    /// into freed slots, and recompute the bandwidth shares. Call at
    /// every activated tick; the scheduler never completes a transfer
    /// in the same tick it was admitted.
    pub fn poll(&mut self, now: u64) -> TransferTick {
        self.settle(now);
        let (retried, resumed, failed) = self.fire_retries(now);
        let done: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, a)| a.stalled_since.is_none() && a.remaining <= EPS && a.started_at < now)
            .map(|(&id, _)| id)
            .collect();
        let mut completions = Vec::new();
        for id in done {
            if let Some(a) = self.active.remove(&id) {
                self.completes_at.remove(&id);
                let duration = (now - a.started_at).max(1);
                completions.push(Completion {
                    id,
                    vm: a.vm,
                    bytes: a.bytes,
                    duration,
                    achieved_bw: a.bytes / duration as f64,
                });
            }
        }
        let mut admitted: Vec<(u64, u64)> = Vec::new();
        while (self.cfg.max_concurrent == 0 || self.active.len() < self.cfg.max_concurrent)
            && !self.queue.is_empty()
        {
            if let Some(q) = self.queue.pop_front() {
                let id = q.spec.id;
                let waited = now.saturating_sub(q.since);
                self.admit(now, q.spec, &q.candidates);
                admitted.push((id, waited));
            }
        }
        let rerouted = self.reroute_hot_streams();
        self.recompute(now);
        let started = admitted
            .into_iter()
            .map(|(id, waited)| self.started_info(id, waited))
            .collect();
        TransferTick {
            completions,
            started,
            rerouted,
            retried,
            resumed,
            failed,
        }
    }

    /// Fire every stalled stream's due retry timer: each one probes for
    /// a surviving route (resuming from its checkpoint on success),
    /// backs off again, or — out of attempts — fails for good.
    #[allow(clippy::type_complexity)]
    fn fire_retries(&mut self, now: u64) -> (Vec<Retried>, Vec<Resumed>, Vec<Failed>) {
        let mut retried = Vec::new();
        let mut resumed = Vec::new();
        let mut failed = Vec::new();
        let due: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, a)| a.stalled_since.is_some() && a.retry_at <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let Some((vm, attempt)) = self.active.get_mut(&id).map(|a| {
                a.attempt += 1;
                (a.vm, a.attempt)
            }) else {
                continue;
            };
            retried.push(Retried { id, vm, attempt });
            if let Some(r) = self.try_resume(now, id) {
                resumed.push(r);
            } else if attempt >= self.cfg.max_attempts.max(1) {
                self.active.remove(&id);
                self.completes_at.remove(&id);
                failed.push(Failed {
                    id,
                    vm,
                    attempts: attempt,
                });
            } else {
                let delay = self.retry_delay(attempt, id);
                if let Some(a) = self.active.get_mut(&id) {
                    a.retry_at = now + delay;
                }
            }
        }
        (retried, resumed, failed)
    }

    /// Resume one stalled stream if any of its candidates avoids every
    /// failed link. Rates stay stale until the caller recomputes.
    fn try_resume(&mut self, now: u64, id: u64) -> Option<Resumed> {
        let (links, hops) = {
            let a = self.active.get(&id)?;
            a.stalled_since?;
            a.candidates
                .iter()
                .find(|c| self.viable(&c.edges))
                .map(|c| (c.edges.clone(), c.edges.len()))?
        };
        let a = self.active.get_mut(&id)?;
        let since = a.stalled_since.take().unwrap_or(now);
        a.links = links;
        a.hops = hops;
        let stalled_ticks = now.saturating_sub(since);
        let saved = (a.bytes - a.remaining).max(0.0);
        let vm = a.vm;
        Some(Resumed {
            id,
            vm,
            saved,
            stalled_ticks,
        })
    }

    /// A link failed: every stream routed over it takes the dirty
    /// re-copy penalty against its checkpoint, then is steered onto the
    /// first surviving candidate path — or enters `Stalled` (rate zero,
    /// retry backoff armed) when no candidate avoids the failed links.
    pub fn fail_link(&mut self, now: u64, link: EdgeIdx) -> LinkOutcome {
        self.settle(now);
        let mut out = LinkOutcome::default();
        if !self.failed_links.insert(link) {
            return out; // already failed: nothing newly severed
        }
        let hit: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, a)| a.stalled_since.is_none() && a.links.contains(&link))
            .map(|(&id, _)| id)
            .collect();
        if hit.is_empty() {
            return out;
        }
        let dirty = self.cfg.dirty_rate.clamp(0.0, 1.0);
        for id in hit {
            // iterative pre-copy: the fault re-dirties a fraction of the
            // copied bytes; the rest of the checkpoint survives
            if let Some(a) = self.active.get_mut(&id) {
                let copied = (a.bytes - a.remaining).max(0.0);
                a.remaining = (a.remaining + dirty * copied).min(a.bytes.max(0.0));
            }
            let choice = self.active.get(&id).and_then(|a| {
                a.candidates
                    .iter()
                    .find(|c| self.viable(&c.edges))
                    .map(|c| (c.edges.clone(), c.edges.len()))
            });
            match choice {
                Some((links, hops)) => {
                    if let Some(a) = self.active.get_mut(&id) {
                        a.links = links;
                        a.hops = hops;
                        out.rerouted.push(Rerouted { id, vm: a.vm, hops });
                    }
                }
                None => {
                    let delay = self.retry_delay(self.active.get(&id).map_or(0, |a| a.attempt), id);
                    if let Some(a) = self.active.get_mut(&id) {
                        a.stalled_since = Some(now);
                        a.links = Vec::new();
                        a.hops = 0;
                        a.rate = 0.0;
                        a.retry_at = now + delay;
                        self.completes_at.remove(&id);
                        out.stalled.push(Stalled { id, vm: a.vm, link });
                    }
                }
            }
        }
        self.recompute(now);
        out
    }

    /// A failed link came back: every stalled stream that now has a
    /// viable candidate resumes from its checkpoint.
    pub fn restore_link(&mut self, now: u64, link: EdgeIdx) -> Vec<Resumed> {
        self.settle(now);
        if !self.failed_links.remove(&link) {
            return Vec::new();
        }
        let stalled: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, a)| a.stalled_since.is_some())
            .map(|(&id, _)| id)
            .collect();
        let mut resumed = Vec::new();
        for id in stalled {
            if let Some(r) = self.try_resume(now, id) {
                resumed.push(r);
            }
        }
        if !resumed.is_empty() {
            self.recompute(now);
        }
        resumed
    }

    /// The QCN reaction path for streams already in flight: when a
    /// transfer's current route has gone hot, steer it onto the
    /// coldest strictly-better alternate. Each transfer moves at most
    /// once in its lifetime, so two streams sharing a hot pair of
    /// links settle on disjoint (or jointly chosen) alternates instead
    /// of ping-ponging.
    fn reroute_hot_streams(&mut self) -> Vec<Rerouted> {
        let thr = self.cfg.reroute_threshold;
        let mut moved = Vec::new();
        let ids: Vec<u64> = self.active.keys().copied().collect();
        for id in ids {
            let Some(a) = self.active.get(&id) else {
                continue;
            };
            if a.rerouted || a.links.is_empty() || a.candidates.len() < 2 {
                continue;
            }
            let current = self.severity_of_links(&a.links);
            if current <= thr {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in a.candidates.iter().enumerate() {
                if c.edges == a.links || !self.viable(&c.edges) {
                    continue;
                }
                let s = self.severity_of(c);
                if s < current - EPS && best.is_none_or(|(_, bs)| s < bs - EPS) {
                    best = Some((i, s));
                }
            }
            let Some((i, _)) = best else {
                continue;
            };
            let Some((links, hops)) = self
                .active
                .get(&id)
                .and_then(|a| a.candidates.get(i))
                .map(|c| (c.edges.clone(), c.edges.len()))
            else {
                continue;
            };
            if let Some(a) = self.active.get_mut(&id) {
                a.links = links;
                a.hops = hops;
                a.rerouted = true;
                moved.push(Rerouted { id, vm: a.vm, hops });
            }
        }
        moved
    }

    /// Cancel every transfer bound for a crashed destination rack;
    /// returns the cancelled ids (running and queued).
    pub fn cancel_rack(&mut self, rack: usize, now: u64) -> Vec<u64> {
        self.settle(now);
        let ids: Vec<u64> = self
            .active
            .iter()
            .filter(|(_, a)| a.dst_rack == rack)
            .map(|(&id, _)| id)
            .collect();
        let mut cancelled = ids;
        for id in &cancelled {
            self.active.remove(id);
            self.completes_at.remove(id);
        }
        let queued: Vec<u64> = self
            .queue
            .iter()
            .filter(|q| q.spec.dst_rack == rack)
            .map(|q| q.spec.id)
            .collect();
        self.queue.retain(|q| q.spec.dst_rack != rack);
        cancelled.extend(queued);
        if !cancelled.is_empty() {
            // not a `Failed` record: whether a cancellation is a real
            // failure (no recovery coming) or a restartable blip (the
            // rack replays its journal and the COMMIT retransmits) is
            // the caller's call, not the scheduler's
            self.recompute(now);
        }
        cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::Dcn;

    fn spec(id: u64, bytes: f64) -> TransferSpec {
        TransferSpec {
            id,
            vm: id,
            dst_rack: 0,
            bytes,
        }
    }

    fn route(nodes: Vec<NodeIdx>, edges: Vec<EdgeIdx>) -> Path {
        let cost = edges.len() as f64;
        Path { nodes, edges, cost }
    }

    fn shared_link() -> Vec<Path> {
        vec![route(vec![0, 1], vec![7])]
    }

    #[test]
    fn solo_transfer_gets_full_bandwidth() {
        let mut ts = TransferScheduler::new(TransferConfig::default());
        let adm = ts.submit(0, spec(1, 8.0), shared_link());
        let Admission::Started(s) = adm else {
            panic!("should start");
        };
        assert!((s.rate - 4.0).abs() < 1e-12);
        assert_eq!(ts.next_event_time(), Some(2));
        let tick = ts.poll(2);
        assert_eq!(tick.completions.len(), 1);
        assert_eq!(tick.completions[0].duration, 2);
        assert!((tick.completions[0].achieved_bw - 4.0).abs() < 1e-12);
        assert!(ts.is_idle());
    }

    #[test]
    fn two_transfers_on_one_link_halve_and_stretch() {
        let mut ts = TransferScheduler::new(TransferConfig::default());
        ts.submit(0, spec(1, 8.0), shared_link());
        ts.submit(0, spec(2, 8.0), shared_link());
        // both now run at 2.0 on the shared link: 4 ticks each
        assert_eq!(ts.next_event_time(), Some(4));
        assert_eq!(ts.peak_link_sharing(), 2);
        let tick = ts.poll(4);
        assert_eq!(tick.completions.len(), 2);
        for c in &tick.completions {
            assert_eq!(c.duration, 4);
            assert!((c.achieved_bw - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn finishing_transfer_speeds_up_the_survivor() {
        let mut ts = TransferScheduler::new(TransferConfig::default());
        ts.submit(0, spec(1, 4.0), shared_link());
        ts.submit(0, spec(2, 8.0), shared_link());
        // shared at 2.0: #1 finishes at t=2 with 0 left, #2 has 4 left
        assert_eq!(ts.next_event_time(), Some(2));
        let tick = ts.poll(2);
        assert_eq!(tick.completions.len(), 1);
        assert_eq!(tick.completions[0].id, 1);
        // survivor back to full rate: 4 bytes / 4.0 = 1 tick
        assert_eq!(ts.next_event_time(), Some(3));
        let tick = ts.poll(3);
        assert_eq!(tick.completions.len(), 1);
        assert_eq!(tick.completions[0].id, 2);
        assert_eq!(tick.completions[0].duration, 3);
    }

    #[test]
    fn disjoint_links_do_not_share() {
        let mut ts = TransferScheduler::new(TransferConfig::default());
        ts.submit(0, spec(1, 8.0), vec![route(vec![0, 1], vec![3])]);
        ts.submit(0, spec(2, 8.0), vec![route(vec![2, 3], vec![9])]);
        assert_eq!(ts.next_event_time(), Some(2));
        assert_eq!(ts.peak_link_sharing(), 1);
    }

    #[test]
    fn max_min_respects_multi_link_bottlenecks() {
        // A crosses links {1}, B crosses {1, 2}, C crosses {2}.
        // Max-min: share on link1 = 2.0 freezes A and B; C then gets the
        // leftover 2.0 + ... on link2: avail 4 - 2 (B) = 2.0.
        let mut ts = TransferScheduler::new(TransferConfig::default());
        ts.submit(0, spec(1, 8.0), vec![route(vec![0, 1], vec![1])]);
        ts.submit(0, spec(2, 8.0), vec![route(vec![0, 2], vec![1, 2])]);
        ts.submit(0, spec(3, 8.0), vec![route(vec![1, 2], vec![2])]);
        // every transfer should land at 2.0: 8 bytes → 4 ticks
        assert_eq!(ts.next_event_time(), Some(4));
        let tick = ts.poll(4);
        assert_eq!(tick.completions.len(), 3);
    }

    #[test]
    fn admission_cap_queues_and_promotes_fifo() {
        let cfg = TransferConfig {
            max_concurrent: 1,
            ..TransferConfig::default()
        };
        let mut ts = TransferScheduler::new(cfg);
        assert!(matches!(
            ts.submit(0, spec(1, 4.0), shared_link()),
            Admission::Started(_)
        ));
        assert!(matches!(
            ts.submit(0, spec(2, 4.0), shared_link()),
            Admission::Queued
        ));
        // 4 bytes at rate 4.0: #1 completes at t=1 and frees the slot
        let tick = ts.poll(1);
        assert_eq!(tick.completions.len(), 1);
        assert_eq!(tick.completions[0].id, 1);
        assert_eq!(tick.started.len(), 1);
        assert_eq!(tick.started[0].id, 2);
        assert_eq!(tick.started[0].waited, 1);
        assert!(!ts.is_idle());
        let tick = ts.poll(2);
        assert_eq!(tick.completions.len(), 1);
        assert!(ts.is_idle());
    }

    #[test]
    fn sustained_sharing_trips_qcn_and_reroutes() {
        let two_routes = || {
            vec![
                route(vec![0, 1, 2], vec![10, 11]),
                route(vec![0, 3, 2], vec![20, 21]),
            ]
        };
        let mut ts = TransferScheduler::new(TransferConfig {
            reroute_threshold: 0.2,
            ..TransferConfig::default()
        });
        // hammer the primary: each submit recomputes and samples the
        // QCN points, so severity on links 10/11 climbs
        let mut rerouted = 0;
        for i in 0..8 {
            if let Admission::Started(s) = ts.submit(0, spec(i, 64.0), two_routes()) {
                rerouted += usize::from(s.rerouted);
            }
        }
        assert!(rerouted > 0, "QCN pressure must steer someone away");
        // at least one rerouted transfer runs on the alternate links
        assert!(ts
            .active
            .values()
            .any(|a| a.rerouted && a.links == vec![20, 21]));
    }

    #[test]
    fn hot_streams_reroute_mid_flight_at_most_once() {
        let two_routes = || {
            vec![
                route(vec![0, 1, 2], vec![10, 11]),
                route(vec![0, 3, 2], vec![20, 21]),
            ]
        };
        let mut ts = TransferScheduler::new(TransferConfig {
            link_bandwidth: 1.0,
            reroute_threshold: 0.1,
            ..TransferConfig::default()
        });
        // two long streams share the primary; severity lags their
        // admission, so both start on links 10/11
        for id in [1, 2] {
            let adm = ts.submit(0, spec(id, 200.0), two_routes());
            assert!(
                matches!(
                    adm,
                    Admission::Started(Started {
                        rerouted: false,
                        ..
                    })
                ),
                "admission cannot see its own sharing"
            );
        }
        // sustained 2-way sharing integrates queue over elapsed time;
        // the next polls steer the streams onto the colder alternate
        let mut moved = Vec::new();
        for t in [20u64, 40, 60] {
            moved.extend(ts.poll(t).rerouted);
        }
        assert!(!moved.is_empty(), "QCN pressure must reroute a stream");
        assert!(ts
            .active
            .values()
            .any(|a| a.rerouted && a.links == vec![20, 21]));
        // each stream moves at most once — no ping-pong
        for t in [80u64, 100, 120] {
            assert!(
                ts.poll(t).rerouted.is_empty(),
                "reroutes are once per transfer"
            );
        }
    }

    #[test]
    fn cancel_rack_drops_running_and_queued() {
        let cfg = TransferConfig {
            max_concurrent: 1,
            ..TransferConfig::default()
        };
        let mut ts = TransferScheduler::new(cfg);
        let mut s1 = spec(1, 4.0);
        s1.dst_rack = 3;
        let mut s2 = spec(2, 4.0);
        s2.dst_rack = 3;
        ts.submit(0, s1, shared_link());
        ts.submit(0, s2, shared_link());
        let cancelled = ts.cancel_rack(3, 1);
        assert_eq!(cancelled, vec![1, 2]);
        assert!(ts.is_idle());
    }

    #[test]
    fn route_candidates_are_deterministically_ordered() {
        let dcn: Dcn = fattree::build(&FatTreeConfig::paper(4));
        let src = dcn.rack_node(dcn_topology::RackId::from_index(0));
        let dst = dcn.rack_node(dcn_topology::RackId::from_index(5));
        let a = route_candidates(&dcn.graph, src, dst, 4);
        let b = route_candidates(&dcn.graph, src, dst, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // shortest first, and equal-cost candidates in lexicographic
        // node order
        for w in a.windows(2) {
            assert!(
                w[0].edges.len() < w[1].edges.len()
                    || (w[0].edges.len() == w[1].edges.len() && w[0].nodes < w[1].nodes)
            );
        }
    }

    #[test]
    fn same_inputs_same_schedule() {
        let run = || {
            let mut ts = TransferScheduler::new(TransferConfig::default());
            let mut log = String::new();
            for i in 0..6 {
                ts.submit(i, spec(i, 8.0 + i as f64), shared_link());
            }
            let mut t = 1;
            while !ts.is_idle() && t < 200 {
                let tick = ts.poll(t);
                for c in &tick.completions {
                    log.push_str(&format!("{}@{}:{:.6};", c.id, t, c.achieved_bw));
                }
                t += 1;
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn link_failure_stalls_and_resume_keeps_the_checkpoint() {
        let cfg = TransferConfig {
            stall_budget: 4,
            ..TransferConfig::default()
        };
        let mut ts = TransferScheduler::new(cfg);
        ts.submit(0, spec(1, 8.0), shared_link());
        // one tick at rate 4.0: 4 bytes copied, 4 remain
        let out = ts.fail_link(1, 7);
        assert_eq!(out.stalled.len(), 1, "no alternate route exists");
        assert!(out.rerouted.is_empty());
        assert!(ts.streaming_on_failed_links().is_empty());
        // dirty penalty: 25% of the 4 copied bytes re-dirtied → 5 remain
        // and the stream holds at rate zero until a restore or retry
        assert_eq!(ts.next_event_time().map(|t| t >= 5), Some(true));
        let resumed = ts.restore_link(2, 7);
        assert_eq!(resumed.len(), 1);
        let r = &resumed[0];
        assert!((r.saved - 3.0).abs() < 1e-9, "checkpoint saved {}", r.saved);
        assert_eq!(r.stalled_ticks, 1);
        // 5 bytes at 4.0 from t=2: completes at 4 — strictly earlier
        // than a restart-from-zero (8 bytes → t=4 only if restarted at
        // t=2 with ceil(8/4)=2... restart completes at 4 too; assert on
        // bytes, the acceptance criterion) — total re-copied is 5, not 8
        let tick = ts.poll(4);
        assert_eq!(tick.completions.len(), 1);
        assert!(ts.is_idle());
    }

    #[test]
    fn link_failure_reroutes_onto_surviving_candidate() {
        let two_routes = vec![
            route(vec![0, 1, 2], vec![10, 11]),
            route(vec![0, 3, 2], vec![20, 21]),
        ];
        let mut ts = TransferScheduler::new(TransferConfig::default());
        ts.submit(0, spec(1, 8.0), two_routes);
        let out = ts.fail_link(1, 10);
        assert!(out.stalled.is_empty(), "the alternate survives");
        assert_eq!(out.rerouted.len(), 1);
        assert_eq!(out.rerouted[0].hops, 2);
        assert!(ts.streaming_on_failed_links().is_empty());
        // checkpoint kept minus the dirty penalty: 4 copied, 1 re-dirtied,
        // 5 remain at rate 4.0 → completes at ceil(5/4)=2 ticks from t=1
        assert_eq!(ts.next_event_time(), Some(3));
        let tick = ts.poll(3);
        assert_eq!(tick.completions.len(), 1);
    }

    #[test]
    fn retry_exhaustion_fails_the_transfer() {
        let cfg = TransferConfig {
            stall_budget: 1,
            max_attempts: 2,
            ..TransferConfig::default()
        };
        let mut ts = TransferScheduler::new(cfg);
        ts.submit(0, spec(1, 8.0), shared_link());
        let out = ts.fail_link(0, 7);
        assert_eq!(out.stalled.len(), 1);
        // stall_budget 1 ⇒ no jitter: retry 1 fires at t=1, backs off
        // to t=3; retry 2 at t=3 exhausts the budget
        let tick = ts.poll(1);
        assert_eq!(tick.retried.len(), 1);
        assert_eq!(tick.retried[0].attempt, 1);
        assert!(tick.failed.is_empty());
        let tick = ts.poll(3);
        assert_eq!(tick.retried.len(), 1);
        assert_eq!(tick.failed.len(), 1);
        assert_eq!(tick.failed[0].attempts, 2);
        assert!(ts.is_idle());
    }

    #[test]
    fn retry_resumes_when_route_comes_back_between_polls() {
        let cfg = TransferConfig {
            stall_budget: 1,
            max_attempts: 4,
            ..TransferConfig::default()
        };
        let mut ts = TransferScheduler::new(cfg);
        ts.submit(0, spec(1, 8.0), shared_link());
        ts.fail_link(0, 7);
        // clear the fault without triggering the restore-path resume
        // (restore of a link that was never failed is a no-op)
        assert!(ts.restore_link(1, 99).is_empty());
        ts.failed_links.clear();
        let tick = ts.poll(1);
        assert_eq!(tick.retried.len(), 1);
        assert_eq!(tick.resumed.len(), 1, "retry probe must find the route");
        assert!(ts.poll(3).completions.len() == 1);
    }

    #[test]
    fn all_routes_dead_admits_straight_into_stalled() {
        let mut ts = TransferScheduler::new(TransferConfig::default());
        ts.fail_link(0, 7);
        let adm = ts.submit(0, spec(1, 8.0), shared_link());
        let Admission::Started(s) = adm else {
            panic!("should admit");
        };
        assert_eq!(s.stalled_on, Some(7), "every route crosses the failed link");
        assert_eq!(s.rate, 0.0);
        assert!(!ts.is_idle());
        // restore resumes it from byte zero (nothing copied, nothing saved)
        let resumed = ts.restore_link(2, 7);
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].saved, 0.0);
        let tick = ts.poll(4);
        assert_eq!(tick.completions.len(), 1);
    }

    #[test]
    fn full_dirty_rate_restarts_from_zero() {
        let cfg = TransferConfig {
            dirty_rate: 1.0,
            ..TransferConfig::default()
        };
        let mut ts = TransferScheduler::new(cfg);
        ts.submit(0, spec(1, 8.0), shared_link());
        ts.fail_link(1, 7); // 4 copied, all re-dirtied
        let resumed = ts.restore_link(2, 7);
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].saved, 0.0, "dirty_rate 1.0 saves nothing");
    }

    #[test]
    fn failed_links_steer_qcn_reroutes_away() {
        // the QCN mid-flight reroute must never pick a dead alternate
        let two_routes = || {
            vec![
                route(vec![0, 1, 2], vec![10, 11]),
                route(vec![0, 3, 2], vec![20, 21]),
            ]
        };
        let mut ts = TransferScheduler::new(TransferConfig {
            link_bandwidth: 1.0,
            reroute_threshold: 0.1,
            ..TransferConfig::default()
        });
        ts.submit(0, spec(1, 200.0), two_routes());
        ts.submit(0, spec(2, 200.0), two_routes());
        ts.fail_link(1, 20); // alternate is dead before QCN heats up
        for t in [20u64, 40, 60] {
            ts.poll(t);
        }
        assert!(
            ts.active.values().all(|a| a.links != vec![20, 21]),
            "no stream may sit on the failed alternate"
        );
        assert!(ts.streaming_on_failed_links().is_empty());
    }
}
