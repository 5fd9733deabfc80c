//! Failure injection: dead links, failed hosts, and crashed shims.
//! Sec. III-A assumes a backup system resolves crashes; these helpers
//! create the crash scenarios that `sheriff-core`'s evacuation, the
//! `B_t`-aware metric, and the shim fabric's degradation ladder must
//! survive, and the tests in several crates drive them.

use dcn_topology::graph::EdgeIdx;
use dcn_topology::placement::Placement;
use dcn_topology::{Dcn, HostId, RackId, VmId};
use rand::Rng;
use sheriff_obs::{emit, Event, EventSink, FaultKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Kill one link: its available bandwidth drops to zero, putting it
/// below every positive `B_t` threshold so the metric routes around it.
///
/// Returns the bandwidth that flows had actually consumed on the link at
/// failure time; pass it back to [`restore_link`] so recovery reinstates
/// the pre-failure utilisation instead of a magically empty link.
pub fn fail_link(dcn: &mut Dcn, e: EdgeIdx) -> f64 {
    let link = dcn.graph.link(e);
    let consumed = link.capacity - link.available_bw;
    let cap = link.capacity;
    dcn.graph.link_mut(e).consume(cap);
    consumed
}

/// Restore a previously failed link, re-applying the utilisation it
/// carried when it failed (`consumed`, as returned by [`fail_link`]).
///
/// The old implementation released the full capacity, so a link that was
/// 40% utilised before the failure came back with 100% headroom —
/// inflating `B_t` and letting the metric oversubscribe it.
pub fn restore_link(dcn: &mut Dcn, e: EdgeIdx, consumed: f64) {
    let cap = dcn.graph.link(e).capacity;
    let link = dcn.graph.link_mut(e);
    link.release(cap);
    link.consume(consumed);
}

/// Fail a host: its capacity becomes unavailable, so no planner will pick
/// it as a destination, and every resident VM must be evacuated. Returns
/// the stranded VMs (the evacuation work-list), hottest-first is not
/// guaranteed — callers order them as their policy requires.
pub fn fail_host(placement: &mut Placement, host: HostId) -> Vec<VmId> {
    placement.set_host_online(host, false);
    placement.vms_on(host).to_vec()
}

/// Bring a failed host back: it resumes accepting placements with
/// whatever capacity its remaining residents leave free.
pub fn restore_host(placement: &mut Placement, host: HostId) {
    placement.set_host_online(host, true);
}

/// Fail a random `fraction` of all links. Returns the failed edge ids.
pub fn fail_random_links<R: Rng>(dcn: &mut Dcn, rng: &mut R, fraction: f64) -> Vec<EdgeIdx> {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
    let m = dcn.graph.edge_count();
    let want = (m as f64 * fraction).round() as usize;
    let mut ids: Vec<EdgeIdx> = (0..m).collect();
    for i in (1..m).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids.truncate(want);
    for &e in &ids {
        fail_link(dcn, e);
    }
    ids
}

/// Whether every rack can still reach every other rack over links with
/// available bandwidth above `threshold` (BFS on the live subgraph).
pub fn racks_connected(dcn: &Dcn, threshold: f64) -> bool {
    let g = &dcn.graph;
    if dcn.rack_nodes.is_empty() {
        return true;
    }
    let mut seen = vec![false; g.node_count()];
    let start = dcn.rack_nodes[0];
    seen[start] = true;
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &(v, e) in g.neighbors(u) {
            if !seen[v] && g.link(e).usable(threshold) {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    dcn.rack_nodes.iter().all(|&n| seen[n])
}

/// Stateful fault injector: remembers what it broke so recovery is exact.
///
/// - failed links record the bandwidth consumed at failure time and
///   restore exactly that;
/// - failed hosts are tracked so double-fail / double-restore are no-ops;
/// - crashed shims (one per rack, Sec. III-A) are a pure bookkeeping set
///   that the shim fabric consults for its liveness / degradation ladder.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    link_consumed: HashMap<EdgeIdx, f64>,
    down_hosts: BTreeSet<HostId>,
    down_shims: BTreeSet<RackId>,
    timed_crashes: Vec<(RackId, u64, Option<u64>)>,
    timed_links: Vec<(EdgeIdx, u64, Option<u64>)>,
    /// Named partitions standing at round boundaries (scheduled with no
    /// heal): they re-enter every round's schedule until healed by name.
    standing_partitions: BTreeMap<String, Vec<RackId>>,
    timed_partitions: Vec<(String, Vec<RackId>, u64, Option<u64>)>,
}

impl FaultInjector {
    /// Fresh injector with nothing failed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fail a link, remembering its pre-failure utilisation. No-op if the
    /// link is already down.
    pub fn fail_link(&mut self, dcn: &mut Dcn, e: EdgeIdx) {
        if self.link_consumed.contains_key(&e) {
            return;
        }
        let consumed = fail_link(dcn, e);
        self.link_consumed.insert(e, consumed);
    }

    /// Restore a link to its exact pre-failure utilisation. No-op if the
    /// link is not currently down.
    pub fn restore_link(&mut self, dcn: &mut Dcn, e: EdgeIdx) {
        if let Some(consumed) = self.link_consumed.remove(&e) {
            restore_link(dcn, e, consumed);
        }
    }

    /// Whether a link is currently failed by this injector.
    pub fn link_down(&self, e: EdgeIdx) -> bool {
        self.link_consumed.contains_key(&e)
    }

    /// Fail a host, returning its stranded VMs (empty if already down).
    pub fn fail_host(&mut self, placement: &mut Placement, host: HostId) -> Vec<VmId> {
        if !self.down_hosts.insert(host) {
            return Vec::new();
        }
        fail_host(placement, host)
    }

    /// Restore a failed host. No-op if the host is not down.
    pub fn restore_host(&mut self, placement: &mut Placement, host: HostId) {
        if self.down_hosts.remove(&host) {
            restore_host(placement, host);
        }
    }

    /// Whether a host is currently failed by this injector.
    pub fn host_down(&self, host: HostId) -> bool {
        self.down_hosts.contains(&host)
    }

    /// Crash a rack's shim process: it stops sending heartbeats and
    /// answering REQUESTs until [`FaultInjector::recover_shim`].
    pub fn crash_shim(&mut self, rack: RackId) {
        self.down_shims.insert(rack);
    }

    /// Recover a crashed shim.
    pub fn recover_shim(&mut self, rack: RackId) {
        self.down_shims.remove(&rack);
    }

    /// Whether a rack's shim is currently crashed.
    pub fn shim_down(&self, rack: RackId) -> bool {
        self.down_shims.contains(&rack)
    }

    /// The set of currently crashed shims, in rack order.
    pub fn crashed_shims(&self) -> impl Iterator<Item = RackId> + '_ {
        self.down_shims.iter().copied()
    }

    /// Schedule a *mid-round* shim crash in virtual time: the shim dies
    /// at tick `crash_at` of the next fabric round and — when
    /// `recover_at` is `Some` — replays its intent journal and rejoins at
    /// that tick. A `recover_at` of `None` leaves the shim down, exactly
    /// like [`FaultInjector::crash_shim`] but starting mid-round.
    ///
    /// The schedule accumulates until [`FaultInjector::drain_crash_schedule`]
    /// hands it to a runtime; the injector's end-of-round `shim_down`
    /// bookkeeping is updated then, not now.
    pub fn crash_shim_at(&mut self, rack: RackId, crash_at: u64, recover_at: Option<u64>) {
        self.timed_crashes.push((rack, crash_at, recover_at));
    }

    /// Take the pending crash schedule for the next fabric round:
    /// whole-round windows `(rack, 0, None)` for every shim already down
    /// via [`FaultInjector::crash_shim`] (unless a timed window for that
    /// rack supersedes it), followed by the timed windows in insertion
    /// order. Updates the `shim_down` end-state: a rack whose window has
    /// no `recover_at` is down after the round; one that recovers is up.
    pub fn drain_crash_schedule(&mut self) -> Vec<(RackId, u64, Option<u64>)> {
        let timed = std::mem::take(&mut self.timed_crashes);
        let mut schedule: Vec<(RackId, u64, Option<u64>)> = self
            .down_shims
            .iter()
            .filter(|r| timed.iter().all(|&(tr, _, _)| tr != **r))
            .map(|&r| (r, 0, None))
            .collect();
        for &(rack, _, recover_at) in &timed {
            if recover_at.is_some() {
                self.down_shims.remove(&rack);
            } else {
                self.down_shims.insert(rack);
            }
        }
        schedule.extend(timed);
        schedule
    }

    /// Schedule a *mid-round* link failure in virtual time: the link
    /// dies at tick `fail_at` of the next fabric round and — when
    /// `restore_at` is `Some` — comes back at that tick with its
    /// pre-failure utilisation. A `restore_at` of `None` leaves the link
    /// down across round boundaries, exactly like
    /// [`FaultInjector::fail_link`] but starting mid-round.
    ///
    /// The schedule accumulates until [`FaultInjector::drain_link_schedule`]
    /// hands it to a runtime; the injector's `link_down` bookkeeping (and
    /// the graph itself) is updated then, not now.
    pub fn fail_link_at(&mut self, e: EdgeIdx, fail_at: u64, restore_at: Option<u64>) {
        self.timed_links.push((e, fail_at, restore_at));
    }

    /// Take the pending link-fault schedule for the next fabric round:
    /// whole-round windows `(e, 0, None)` for every link already down via
    /// [`FaultInjector::fail_link`] (unless a timed window for that edge
    /// supersedes it, sorted by edge id), followed by the timed windows
    /// in insertion order. Updates the graph end-state: a link whose
    /// window has no `restore_at` is down after the round; one that
    /// restores carries its pre-failure utilisation again.
    pub fn drain_link_schedule(&mut self, dcn: &mut Dcn) -> Vec<(EdgeIdx, u64, Option<u64>)> {
        let timed = std::mem::take(&mut self.timed_links);
        let mut standing: Vec<EdgeIdx> = self
            .link_consumed
            .keys()
            .copied()
            .filter(|e| timed.iter().all(|&(te, _, _)| te != *e))
            .collect();
        standing.sort_unstable();
        let mut schedule: Vec<(EdgeIdx, u64, Option<u64>)> =
            standing.into_iter().map(|e| (e, 0, None)).collect();
        for &(e, _, restore_at) in &timed {
            if restore_at.is_some() {
                self.restore_link(dcn, e);
            } else {
                self.fail_link(dcn, e);
            }
        }
        schedule.extend(timed);
        schedule
    }

    /// Schedule a *named* network partition in the next fabric round's
    /// virtual time: from tick `start_at`, traffic between `racks` and
    /// the rest of the cluster is silently swallowed. With `heal_at` of
    /// `Some(t)` the cut heals at tick `t` of the same round; with
    /// `None` the partition stands across round boundaries until a
    /// [`FaultInjector::heal_partition_at`] names it.
    ///
    /// Partitions are pure connectivity faults: they touch no shim,
    /// host, or epoch state, so (unlike a crash) a partitioned shim is
    /// never declared dead by an emission-based failure detector.
    pub fn partition_at(
        &mut self,
        name: &str,
        racks: Vec<RackId>,
        start_at: u64,
        heal_at: Option<u64>,
    ) {
        self.timed_partitions
            .push((name.to_owned(), racks, start_at, heal_at));
    }

    /// Schedule the heal of a standing partition at tick `heal_at` of
    /// the next fabric round. No-op at drain time if no partition with
    /// that name is standing.
    pub fn heal_partition_at(&mut self, name: &str, heal_at: u64) {
        self.timed_partitions
            .push((name.to_owned(), Vec::new(), 0, Some(heal_at)));
    }

    /// Whether a partition with this name is standing (scheduled without
    /// a heal and not yet healed).
    pub fn partitioned(&self, name: &str) -> bool {
        self.standing_partitions.contains_key(name)
    }

    /// Take the pending partition schedule for the next fabric round as
    /// `(members, start_at, heal_at)` windows: every standing partition
    /// re-enters as a whole-round window `(members, 0, None)` unless a
    /// timed entry for that name supersedes it, followed by the timed
    /// windows in insertion order (a heal entry resolves its members
    /// from the standing set). Updates the standing end-state: a window
    /// without a heal stands after the round, a healed one is gone.
    pub fn drain_partition_schedule(&mut self) -> Vec<(Vec<RackId>, u64, Option<u64>)> {
        let timed = std::mem::take(&mut self.timed_partitions);
        let mut schedule: Vec<(Vec<RackId>, u64, Option<u64>)> = self
            .standing_partitions
            .iter()
            .filter(|(n, _)| timed.iter().all(|(tn, ..)| tn != *n))
            .map(|(_, racks)| (racks.clone(), 0, None))
            .collect();
        for (name, racks, start_at, heal_at) in timed {
            let members = if racks.is_empty() {
                self.standing_partitions
                    .get(&name)
                    .cloned()
                    .unwrap_or_default()
            } else {
                racks
            };
            if members.is_empty() {
                continue;
            }
            if heal_at.is_some() {
                self.standing_partitions.remove(&name);
            } else {
                self.standing_partitions.insert(name, members.clone());
            }
            schedule.push((members, start_at, heal_at));
        }
        schedule
    }

    /// Borrow the injector together with an [`EventSink`]: every fault
    /// applied through the returned handle also emits a
    /// [`Event::FaultInjected`], so
    /// failure scenarios show up in the same trace as the control loop
    /// reacting to them.
    pub fn observed<'a, S: EventSink + ?Sized>(
        &'a mut self,
        sink: &'a mut S,
    ) -> ObservedFaults<'a, S> {
        ObservedFaults {
            injector: self,
            sink,
        }
    }
}

/// A [`FaultInjector`] paired with an [`EventSink`]; see
/// [`FaultInjector::observed`]. Only state-changing operations emit an
/// event (a double-fail no-op stays silent).
pub struct ObservedFaults<'a, S: EventSink + ?Sized> {
    injector: &'a mut FaultInjector,
    sink: &'a mut S,
}

impl<S: EventSink + ?Sized> ObservedFaults<'_, S> {
    /// [`FaultInjector::fail_link`], emitting `FaultInjected(LinkDown)`.
    pub fn fail_link(&mut self, dcn: &mut Dcn, e: EdgeIdx) {
        if !self.injector.link_down(e) {
            self.injector.fail_link(dcn, e);
            emit(self.sink, || Event::FaultInjected {
                kind: FaultKind::LinkDown,
                id: e as u64,
            });
        }
    }

    /// [`FaultInjector::restore_link`], emitting `FaultInjected(LinkUp)`.
    pub fn restore_link(&mut self, dcn: &mut Dcn, e: EdgeIdx) {
        if self.injector.link_down(e) {
            self.injector.restore_link(dcn, e);
            emit(self.sink, || Event::FaultInjected {
                kind: FaultKind::LinkUp,
                id: e as u64,
            });
        }
    }

    /// [`FaultInjector::fail_link_at`], emitting `FaultInjected(LinkDown)`
    /// when the schedule entry is recorded (the mid-round timing itself
    /// shows up as `TransferStalled`/`TransferResumed` in the fabric's
    /// trace).
    pub fn fail_link_at(&mut self, e: EdgeIdx, fail_at: u64, restore_at: Option<u64>) {
        self.injector.fail_link_at(e, fail_at, restore_at);
        emit(self.sink, || Event::FaultInjected {
            kind: FaultKind::LinkDown,
            id: e as u64,
        });
    }

    /// [`FaultInjector::fail_host`], emitting `FaultInjected(HostDown)`.
    pub fn fail_host(&mut self, placement: &mut Placement, host: HostId) -> Vec<VmId> {
        if self.injector.host_down(host) {
            return Vec::new();
        }
        let stranded = self.injector.fail_host(placement, host);
        emit(self.sink, || Event::FaultInjected {
            kind: FaultKind::HostDown,
            id: host.index() as u64,
        });
        stranded
    }

    /// [`FaultInjector::restore_host`], emitting `FaultInjected(HostUp)`.
    pub fn restore_host(&mut self, placement: &mut Placement, host: HostId) {
        if self.injector.host_down(host) {
            self.injector.restore_host(placement, host);
            emit(self.sink, || Event::FaultInjected {
                kind: FaultKind::HostUp,
                id: host.index() as u64,
            });
        }
    }

    /// [`FaultInjector::crash_shim`], emitting `FaultInjected(ShimDown)`.
    pub fn crash_shim(&mut self, rack: RackId) {
        if !self.injector.shim_down(rack) {
            self.injector.crash_shim(rack);
            emit(self.sink, || Event::FaultInjected {
                kind: FaultKind::ShimDown,
                id: rack.index() as u64,
            });
        }
    }

    /// [`FaultInjector::crash_shim_at`], emitting `FaultInjected(ShimDown)`
    /// when the schedule entry is recorded (the mid-round timing itself
    /// shows up as `ShimCrashed`/`ShimRecovered` in the fabric's trace).
    pub fn crash_shim_at(&mut self, rack: RackId, crash_at: u64, recover_at: Option<u64>) {
        self.injector.crash_shim_at(rack, crash_at, recover_at);
        emit(self.sink, || Event::FaultInjected {
            kind: FaultKind::ShimDown,
            id: rack.index() as u64,
        });
    }

    /// [`FaultInjector::recover_shim`], emitting `FaultInjected(ShimUp)`.
    pub fn recover_shim(&mut self, rack: RackId) {
        if self.injector.shim_down(rack) {
            self.injector.recover_shim(rack);
            emit(self.sink, || Event::FaultInjected {
                kind: FaultKind::ShimUp,
                id: rack.index() as u64,
            });
        }
    }

    /// [`FaultInjector::partition_at`], emitting `FaultInjected(Partition)`
    /// with the member count as its id (the in-round cut and heal show up
    /// as `PartitionHealed` in the fabric's own trace).
    pub fn partition_at(
        &mut self,
        name: &str,
        racks: Vec<RackId>,
        start_at: u64,
        heal_at: Option<u64>,
    ) {
        let members = racks.len() as u64;
        self.injector.partition_at(name, racks, start_at, heal_at);
        emit(self.sink, || Event::FaultInjected {
            kind: FaultKind::Partition,
            id: members,
        });
    }

    /// [`FaultInjector::heal_partition_at`], emitting `FaultInjected(Heal)`.
    pub fn heal_partition_at(&mut self, name: &str, heal_at: u64) {
        self.injector.heal_partition_at(name, heal_at);
        emit(self.sink, || Event::FaultInjected {
            kind: FaultKind::Heal,
            id: heal_at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fail_and_restore_roundtrip() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let consumed = fail_link(&mut dcn, 0);
        assert_eq!(consumed, 0.0, "pristine link carries no traffic");
        assert_eq!(dcn.graph.link(0).available_bw, 0.0);
        assert!(!dcn.graph.link(0).usable(0.01));
        restore_link(&mut dcn, 0, consumed);
        assert_eq!(dcn.graph.link(0).available_bw, dcn.graph.link(0).capacity);
    }

    #[test]
    fn restore_preserves_prior_utilization() {
        // the regression this fixes: a partially-utilised link must come
        // back with its old utilisation, not with full headroom
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let cap = dcn.graph.link(0).capacity;
        dcn.graph.link_mut(0).consume(cap * 0.4);
        let before = dcn.graph.link(0).available_bw;
        let consumed = fail_link(&mut dcn, 0);
        assert!((consumed - cap * 0.4).abs() < 1e-9);
        restore_link(&mut dcn, 0, consumed);
        assert!((dcn.graph.link(0).available_bw - before).abs() < 1e-9);
    }

    #[test]
    fn fattree_survives_single_link_failure() {
        // fat-trees are multipath: one dead link never partitions racks
        let base = fattree::build(&FatTreeConfig::paper(4));
        for e in 0..base.graph.edge_count() {
            let mut dcn = base.clone();
            fail_link(&mut dcn, e);
            assert!(
                racks_connected(&dcn, 0.01),
                "edge {e} partitioned the fabric"
            );
        }
    }

    #[test]
    fn random_failures_eventually_partition() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut rng = StdRng::seed_from_u64(5);
        let failed = fail_random_links(&mut dcn, &mut rng, 0.9);
        assert_eq!(
            failed.len(),
            (dcn.graph.edge_count() as f64 * 0.9).round() as usize
        );
        assert!(
            !racks_connected(&dcn, 0.01),
            "90% failures should partition"
        );
    }

    #[test]
    fn zero_fraction_fails_nothing() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(fail_random_links(&mut dcn, &mut rng, 0.0).is_empty());
        assert!(racks_connected(&dcn, 0.01));
    }

    #[test]
    fn metric_routes_around_failed_links() {
        use crate::migration::RackMetric;
        use crate::SimConfig;
        use dcn_topology::RackId;
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let sim = SimConfig::paper();
        let before = RackMetric::build(&dcn, &sim);
        // kill one of rack 0's two uplinks
        let node = dcn.rack_node(RackId(0));
        let (_, e) = dcn.graph.neighbors(node)[0];
        fail_link(&mut dcn, e);
        let after = RackMetric::build(&dcn, &sim);
        // still reachable through the second uplink
        assert!(after.reachable(RackId(0), RackId(1)));
        // and never cheaper than the healthy fabric
        let b = before.transmission_cost(&sim, 10.0, RackId(0), RackId(1));
        let a = after.transmission_cost(&sim, 10.0, RackId(0), RackId(1));
        assert!(a >= b - 1e-9);
    }

    #[test]
    fn injector_link_roundtrip_is_exact_and_idempotent() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let cap = dcn.graph.link(3).capacity;
        dcn.graph.link_mut(3).consume(cap * 0.25);
        let before = dcn.graph.link(3).available_bw;
        let mut inj = FaultInjector::new();
        inj.fail_link(&mut dcn, 3);
        inj.fail_link(&mut dcn, 3); // double-fail is a no-op
        assert!(inj.link_down(3));
        assert_eq!(dcn.graph.link(3).available_bw, 0.0);
        inj.restore_link(&mut dcn, 3);
        inj.restore_link(&mut dcn, 3); // double-restore is a no-op
        assert!(!inj.link_down(3));
        assert!((dcn.graph.link(3).available_bw - before).abs() < 1e-9);
    }

    #[test]
    fn injector_host_failure_strands_vms() {
        use crate::engine::{Cluster, ClusterConfig};
        use crate::SimConfig;
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut cluster = Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.0,
                seed: 3,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        );
        let host = HostId(0);
        let resident_before = cluster.placement.vms_on(host).len();
        let mut inj = FaultInjector::new();
        let stranded = inj.fail_host(&mut cluster.placement, host);
        assert_eq!(stranded.len(), resident_before);
        assert!(inj.host_down(host));
        assert_eq!(cluster.placement.free_capacity(host), 0.0);
        assert!(inj.fail_host(&mut cluster.placement, host).is_empty());
        inj.restore_host(&mut cluster.placement, host);
        assert!(!inj.host_down(host));
        assert!(cluster.placement.is_host_online(host));
    }

    #[test]
    fn observed_injector_emits_fault_events() {
        use sheriff_obs::RingRecorder;
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut inj = FaultInjector::new();
        let mut rec = RingRecorder::new(16);
        let mut obs = inj.observed(&mut rec);
        obs.fail_link(&mut dcn, 2);
        obs.fail_link(&mut dcn, 2); // no-op: no second event
        obs.crash_shim(RackId(1));
        obs.restore_link(&mut dcn, 2);
        assert_eq!(
            rec.to_vec(),
            vec![
                Event::FaultInjected {
                    kind: FaultKind::LinkDown,
                    id: 2
                },
                Event::FaultInjected {
                    kind: FaultKind::ShimDown,
                    id: 1
                },
                Event::FaultInjected {
                    kind: FaultKind::LinkUp,
                    id: 2
                },
            ]
        );
        assert!(inj.shim_down(RackId(1)));
        assert!(!inj.link_down(2));
    }

    #[test]
    fn timed_crash_schedule_drains_with_whole_round_prefix() {
        let mut inj = FaultInjector::new();
        inj.crash_shim(RackId(0));
        inj.crash_shim_at(RackId(1), 4, Some(12));
        inj.crash_shim_at(RackId(2), 6, None);
        let sched = inj.drain_crash_schedule();
        assert_eq!(
            sched,
            vec![
                (RackId(0), 0, None),
                (RackId(1), 4, Some(12)),
                (RackId(2), 6, None),
            ]
        );
        // end-state after the round: rack 1 recovered, racks 0 and 2 down
        assert!(inj.shim_down(RackId(0)));
        assert!(!inj.shim_down(RackId(1)));
        assert!(inj.shim_down(RackId(2)));
        // the timed entries drained; still-down shims persist whole-round
        assert_eq!(
            inj.drain_crash_schedule(),
            vec![(RackId(0), 0, None), (RackId(2), 0, None)]
        );
    }

    #[test]
    fn timed_link_schedule_drains_with_whole_round_prefix() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let cap = dcn.graph.link(7).capacity;
        dcn.graph.link_mut(7).consume(cap * 0.5);
        let before = dcn.graph.link(7).available_bw;
        let mut inj = FaultInjector::new();
        inj.fail_link(&mut dcn, 2); // standing down, whole-round prefix
        inj.fail_link_at(7, 3, Some(9)); // mid-round blip, restored at drain
        inj.fail_link_at(5, 4, None); // stays down after the round
        let sched = inj.drain_link_schedule(&mut dcn);
        assert_eq!(sched, vec![(2, 0, None), (7, 3, Some(9)), (5, 4, None)]);
        // end-state after the round: 7 back at its old utilisation, 2 and
        // 5 dead on the graph and tracked by the injector
        assert!((dcn.graph.link(7).available_bw - before).abs() < 1e-9);
        assert!(!inj.link_down(7));
        assert!(inj.link_down(2) && inj.link_down(5));
        assert_eq!(dcn.graph.link(5).available_bw, 0.0);
        // the timed entries drained; still-down links persist whole-round
        assert_eq!(
            inj.drain_link_schedule(&mut dcn),
            vec![(2, 0, None), (5, 0, None)]
        );
    }

    #[test]
    fn injector_tracks_shim_crashes() {
        let mut inj = FaultInjector::new();
        inj.crash_shim(RackId(2));
        inj.crash_shim(RackId(0));
        assert!(inj.shim_down(RackId(2)));
        assert!(!inj.shim_down(RackId(1)));
        let crashed: Vec<RackId> = inj.crashed_shims().collect();
        assert_eq!(crashed, vec![RackId(0), RackId(2)]);
        inj.recover_shim(RackId(2));
        assert!(!inj.shim_down(RackId(2)));
    }

    #[test]
    fn partition_schedule_stands_until_healed_by_name() {
        let mut inj = FaultInjector::new();
        // in-round window heals itself and never stands
        inj.partition_at("blip", vec![RackId(3)], 2, Some(9));
        // named cut with no heal stands across rounds
        inj.partition_at("west", vec![RackId(0), RackId(1)], 4, None);
        assert_eq!(
            inj.drain_partition_schedule(),
            vec![
                (vec![RackId(3)], 2, Some(9)),
                (vec![RackId(0), RackId(1)], 4, None),
            ]
        );
        assert!(inj.partitioned("west"));
        assert!(!inj.partitioned("blip"));
        // the standing partition re-enters whole-round until healed
        assert_eq!(
            inj.drain_partition_schedule(),
            vec![(vec![RackId(0), RackId(1)], 0, None)]
        );
        inj.heal_partition_at("west", 6);
        assert_eq!(
            inj.drain_partition_schedule(),
            vec![(vec![RackId(0), RackId(1)], 0, Some(6))]
        );
        assert!(!inj.partitioned("west"));
        assert!(inj.drain_partition_schedule().is_empty());
        // healing an unknown name is a drain-time no-op
        inj.heal_partition_at("east", 3);
        assert!(inj.drain_partition_schedule().is_empty());
    }

    #[test]
    fn restore_paths_touch_no_shim_or_partition_state() {
        // the epoch-safety audit for the injector: host/link restore must
        // not resurrect a shim (or tear a partition down) as a side
        // effect — epochs live solely with the failover state, whose only
        // writer is monotonic, so a restored fault can never roll a shim
        // back into an old epoch
        use crate::engine::{Cluster, ClusterConfig};
        use crate::SimConfig;
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut cluster = Cluster::build(
            dcn.clone(),
            &ClusterConfig {
                seed: 5,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        );
        let mut inj = FaultInjector::new();
        inj.crash_shim(RackId(1));
        inj.partition_at("west", vec![RackId(0)], 0, None);
        let _ = inj.drain_partition_schedule();
        inj.fail_link(&mut dcn, 2);
        let _ = inj.fail_host(&mut cluster.placement, HostId(0));
        inj.restore_link(&mut dcn, 2);
        inj.restore_host(&mut cluster.placement, HostId(0));
        assert!(inj.shim_down(RackId(1)), "restore must not revive shims");
        assert!(inj.partitioned("west"), "restore must not heal partitions");
        // and the crash schedule still reports the shim down whole-round
        assert_eq!(inj.drain_crash_schedule(), vec![(RackId(1), 0, None)]);
    }
}
