//! The fault layer of a scenario run: every `[[fault]]` action is
//! applied here, once, and becomes the fabric's own fault windows.
//!
//! The paper leaves crash errors to a backup system (Sec. III-A); a
//! scenario models them as fault actions fired at the start of a round.
//! [`Faults::apply`] performs one action: it changes the topology graph
//! or the placement, emits [`Event::FaultInjected`], and records the VMs
//! the backup system must evacuate. [`Faults::windows`] then hands the
//! round's [`CrashWindow`], [`LinkFaultWindow`] and [`PartitionWindow`]
//! lists to the runner, which moves them into the `FabricConfig`.
//!
//! Untimed link, host and shim faults stand across round boundaries
//! until restored, and re-enter every round as whole-round windows. A
//! timed fault (`fail_at`/`restore_at`, `crash_at`/`recover_at`, or a
//! partition) is a window of the next round only; its end-state (down,
//! or back up) is settled when the round's windows are taken.

use crate::spec::FaultAction;
use dcn_sim::engine::Cluster;
use dcn_sim::faults::{fail_host, fail_link, restore_host, restore_link};
use dcn_topology::graph::EdgeIdx;
use dcn_topology::placement::Placement;
use dcn_topology::{Dcn, HostId, RackId};
use sheriff_core::{CrashWindow, LinkFaultWindow, PartitionWindow};
use sheriff_obs::{emit, Event, EventSink, FaultKind};
use std::collections::{BTreeMap, BTreeSet};

/// Fault state that outlives a round, plus the next round's timed
/// windows.
#[derive(Debug, Default)]
pub(crate) struct Faults {
    /// Failed links, with the bandwidth each carried when it failed so
    /// a restore reinstates exactly that utilisation.
    down_links: BTreeMap<EdgeIdx, f64>,
    down_hosts: BTreeSet<HostId>,
    down_shims: BTreeSet<RackId>,
    /// Named partitions standing at round boundaries (cut with no heal):
    /// they re-enter every round until a heal names them.
    partitions: BTreeMap<String, BTreeSet<RackId>>,
    crashes: Vec<CrashWindow>,
    link_faults: Vec<LinkFaultWindow>,
    /// Named cuts and heals, in action order; a heal has no members
    /// until [`Faults::windows`] looks its partition up.
    cuts: Vec<(String, PartitionWindow)>,
    /// Hosts failed this round that stranded VMs, for the backup system.
    pub(crate) stranded: Vec<HostId>,
    /// Racks failed this round that stranded VMs, for the backup system.
    pub(crate) drained: Vec<RackId>,
    /// Whether a link action or window changed the graph since the
    /// runner last took this flag (the metric is then rebuilt).
    pub(crate) links_changed: bool,
}

impl Faults {
    /// Perform one fault action. An untimed action changes state and
    /// emits only when it is not already in effect (failing a dead host
    /// is silent); a timed, partition or heal entry always emits.
    pub(crate) fn apply(
        &mut self,
        action: &FaultAction,
        cluster: &mut Cluster,
        sink: &mut dyn EventSink,
    ) {
        match action {
            FaultAction::FailLink {
                link,
                fail_at: None,
                restore_at: None,
            } => {
                if self.fail_link(&mut cluster.dcn, *link) {
                    fault_injected(sink, FaultKind::LinkDown, *link as u64);
                }
            }
            FaultAction::FailLink {
                link,
                fail_at,
                restore_at,
            } => {
                self.link_faults.push(LinkFaultWindow {
                    link: *link,
                    fail_at: fail_at.unwrap_or(0),
                    restore_at: *restore_at,
                });
                fault_injected(sink, FaultKind::LinkDown, *link as u64);
            }
            FaultAction::RestoreLink { link } => {
                if self.restore_link(&mut cluster.dcn, *link) {
                    fault_injected(sink, FaultKind::LinkUp, *link as u64);
                }
            }
            FaultAction::FailHost { host } => {
                let host = HostId::from_index(*host);
                if self.fail_host(&mut cluster.placement, host, sink) {
                    self.stranded.push(host);
                }
            }
            FaultAction::RestoreHost { host } => {
                self.restore_host(&mut cluster.placement, HostId::from_index(*host), sink);
            }
            FaultAction::FailRack { rack } => {
                let rack = RackId::from_index(*rack);
                let mut any = false;
                for &host in cluster.dcn.inventory.hosts_in(rack) {
                    any |= self.fail_host(&mut cluster.placement, host, sink);
                }
                self.crash_shim(rack, sink);
                if any {
                    self.drained.push(rack);
                }
            }
            FaultAction::RestoreRack { rack } => {
                let rack = RackId::from_index(*rack);
                for &host in cluster.dcn.inventory.hosts_in(rack) {
                    self.restore_host(&mut cluster.placement, host, sink);
                }
                self.recover_shim(rack, sink);
            }
            FaultAction::CrashShim {
                rack,
                crash_at: None,
                recover_at: None,
            } => self.crash_shim(RackId::from_index(*rack), sink),
            FaultAction::CrashShim {
                rack,
                crash_at,
                recover_at,
            } => {
                self.crashes.push(CrashWindow {
                    rack: RackId::from_index(*rack),
                    crash_at: crash_at.unwrap_or(0),
                    recover_at: *recover_at,
                });
                fault_injected(sink, FaultKind::ShimDown, *rack as u64);
            }
            FaultAction::RecoverShim { rack } => self.recover_shim(RackId::from_index(*rack), sink),
            FaultAction::Partition {
                name,
                racks,
                start_at,
                heal_at,
            } => {
                let members = racks.iter().map(|&r| RackId::from_index(r));
                let window = PartitionWindow::new(members, *start_at, *heal_at);
                self.cuts.push((name.clone(), window));
                fault_injected(sink, FaultKind::Partition, racks.len() as u64);
            }
            FaultAction::HealPartition { name, heal_at } => {
                let window = PartitionWindow::new([], 0, Some(*heal_at));
                self.cuts.push((name.clone(), window));
                fault_injected(sink, FaultKind::Heal, *heal_at);
            }
        }
    }

    /// Take the round's crash, link-fault and partition windows, and
    /// settle the state they leave behind; this also clears the round's
    /// evacuation work-lists.
    ///
    /// Each list starts with a whole-round window for every standing
    /// fault that no timed entry of the round names (links in edge
    /// order, shims in rack order, partitions by name), followed by the
    /// timed entries in action order. A timed entry without an end
    /// (`restore_at`, `recover_at`, `heal_at`) stands after the round;
    /// one with an end does not. A link's end-state is applied to `dcn`.
    /// A heal takes its members from the standing partition it names and
    /// is dropped when none stands.
    pub(crate) fn windows(
        &mut self,
        dcn: &mut Dcn,
    ) -> (Vec<CrashWindow>, Vec<LinkFaultWindow>, Vec<PartitionWindow>) {
        self.stranded.clear();
        self.drained.clear();

        let timed = std::mem::take(&mut self.crashes);
        let mut crashed: Vec<CrashWindow> = self
            .down_shims
            .iter()
            .filter(|&&r| timed.iter().all(|w| w.rack != r))
            .map(|&r| CrashWindow::whole_round(r))
            .collect();
        for w in &timed {
            if w.recover_at.is_some() {
                self.down_shims.remove(&w.rack);
            } else {
                self.down_shims.insert(w.rack);
            }
        }
        crashed.extend(timed);

        let timed = std::mem::take(&mut self.link_faults);
        let mut link_faults: Vec<LinkFaultWindow> = self
            .down_links
            .keys()
            .filter(|&&e| timed.iter().all(|w| w.link != e))
            .map(|&e| LinkFaultWindow::whole_round(e))
            .collect();
        for w in &timed {
            if w.restore_at.is_some() {
                self.restore_link(dcn, w.link);
            } else {
                self.fail_link(dcn, w.link);
            }
        }
        link_faults.extend(timed);

        let timed = std::mem::take(&mut self.cuts);
        let mut partitions: Vec<PartitionWindow> = self
            .partitions
            .iter()
            .filter(|(n, _)| timed.iter().all(|(t, _)| t != *n))
            .map(|(_, members)| PartitionWindow::new(members.iter().copied(), 0, None))
            .collect();
        for (name, mut w) in timed {
            if w.members.is_empty() {
                w.members = self.partitions.get(&name).cloned().unwrap_or_default();
            }
            if w.members.is_empty() {
                continue;
            }
            if w.heal_at.is_some() {
                self.partitions.remove(&name);
            } else {
                self.partitions.insert(name, w.members.clone());
            }
            partitions.push(w);
        }
        (crashed, link_faults, partitions)
    }

    /// Fail a live link, remembering the bandwidth it carried; whether
    /// it was up.
    fn fail_link(&mut self, dcn: &mut Dcn, e: EdgeIdx) -> bool {
        if self.down_links.contains_key(&e) {
            return false;
        }
        self.down_links.insert(e, fail_link(dcn, e));
        self.links_changed = true;
        true
    }

    /// Restore a failed link to its pre-failure utilisation; whether it
    /// was down.
    fn restore_link(&mut self, dcn: &mut Dcn, e: EdgeIdx) -> bool {
        let consumed = self.down_links.remove(&e);
        if let Some(consumed) = consumed {
            restore_link(dcn, e, consumed);
            self.links_changed = true;
        }
        consumed.is_some()
    }

    /// Fail a live host; whether it stranded VMs.
    fn fail_host(
        &mut self,
        placement: &mut Placement,
        host: HostId,
        sink: &mut dyn EventSink,
    ) -> bool {
        if !self.down_hosts.insert(host) {
            return false;
        }
        let stranded = fail_host(placement, host);
        fault_injected(sink, FaultKind::HostDown, host.index() as u64);
        !stranded.is_empty()
    }

    fn restore_host(&mut self, placement: &mut Placement, host: HostId, sink: &mut dyn EventSink) {
        if self.down_hosts.remove(&host) {
            restore_host(placement, host);
            fault_injected(sink, FaultKind::HostUp, host.index() as u64);
        }
    }

    fn crash_shim(&mut self, rack: RackId, sink: &mut dyn EventSink) {
        if self.down_shims.insert(rack) {
            fault_injected(sink, FaultKind::ShimDown, rack.index() as u64);
        }
    }

    fn recover_shim(&mut self, rack: RackId, sink: &mut dyn EventSink) {
        if self.down_shims.remove(&rack) {
            fault_injected(sink, FaultKind::ShimUp, rack.index() as u64);
        }
    }
}

fn fault_injected(sink: &mut dyn EventSink, kind: FaultKind, id: u64) {
    emit(sink, || Event::FaultInjected { kind, id });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::ClusterConfig;
    use dcn_sim::SimConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use sheriff_obs::RingRecorder;

    fn cluster(seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let ccfg = ClusterConfig {
            vms_per_host: 2.0,
            seed,
            ..ClusterConfig::default()
        };
        Cluster::build(dcn, &ccfg, SimConfig::paper())
    }

    /// Apply `actions` in order; the events they emitted.
    fn apply(faults: &mut Faults, cluster: &mut Cluster, actions: &[FaultAction]) -> Vec<Event> {
        let mut rec = RingRecorder::new(64);
        for action in actions {
            faults.apply(action, cluster, &mut rec);
        }
        rec.to_vec()
    }

    fn fail_link(link: usize) -> FaultAction {
        FaultAction::FailLink {
            link,
            fail_at: None,
            restore_at: None,
        }
    }

    fn crash(rack: usize, crash_at: Option<u64>, recover_at: Option<u64>) -> FaultAction {
        FaultAction::CrashShim {
            rack,
            crash_at,
            recover_at,
        }
    }

    fn partition(
        name: &str,
        racks: Vec<usize>,
        start_at: u64,
        heal_at: Option<u64>,
    ) -> FaultAction {
        FaultAction::Partition {
            name: name.to_owned(),
            racks,
            start_at,
            heal_at,
        }
    }

    fn injected(kind: FaultKind, id: u64) -> Event {
        Event::FaultInjected { kind, id }
    }

    #[test]
    fn link_roundtrip_is_exact_and_idempotent() {
        let mut c = cluster(3);
        let cap = c.dcn.graph.link(3).capacity;
        c.dcn.graph.link_mut(3).consume(cap * 0.25);
        let before = c.dcn.graph.link(3).available_bw;
        let mut faults = Faults::default();
        // the repeated fail is a silent no-op
        let events = apply(&mut faults, &mut c, &[fail_link(3), fail_link(3)]);
        assert_eq!(events, vec![injected(FaultKind::LinkDown, 3)]);
        assert_eq!(c.dcn.graph.link(3).available_bw, 0.0);
        let (_, links, _) = faults.windows(&mut c.dcn);
        assert_eq!(links, vec![LinkFaultWindow::whole_round(3)]);
        // so is the repeated restore
        let restore = FaultAction::RestoreLink { link: 3 };
        let events = apply(&mut faults, &mut c, &[restore.clone(), restore]);
        assert_eq!(events, vec![injected(FaultKind::LinkUp, 3)]);
        assert!((c.dcn.graph.link(3).available_bw - before).abs() < 1e-9);
        let (_, links, _) = faults.windows(&mut c.dcn);
        assert!(links.is_empty());
    }

    #[test]
    fn host_failure_strands_vms_once() {
        let mut c = cluster(3);
        let host = HostId(0);
        assert!(!c.placement.vms_on(host).is_empty());
        let mut faults = Faults::default();
        let fail = FaultAction::FailHost { host: 0 };
        let events = apply(&mut faults, &mut c, &[fail.clone(), fail]);
        assert_eq!(events, vec![injected(FaultKind::HostDown, 0)]);
        assert_eq!(faults.stranded, vec![host]);
        assert_eq!(c.placement.free_capacity(host), 0.0);
        let events = apply(&mut faults, &mut c, &[FaultAction::RestoreHost { host: 0 }]);
        assert_eq!(events, vec![injected(FaultKind::HostUp, 0)]);
        assert!(c.placement.is_host_online(host));
        // taking the windows starts the next round's work-lists
        let _ = faults.windows(&mut c.dcn);
        assert!(faults.stranded.is_empty());
    }

    #[test]
    fn untimed_actions_emit_only_when_they_change_state() {
        let mut c = cluster(3);
        let mut faults = Faults::default();
        let events = apply(
            &mut faults,
            &mut c,
            &[
                fail_link(2),
                fail_link(2),
                crash(1, None, None),
                FaultAction::RestoreLink { link: 2 },
            ],
        );
        assert_eq!(
            events,
            vec![
                injected(FaultKind::LinkDown, 2),
                injected(FaultKind::ShimDown, 1),
                injected(FaultKind::LinkUp, 2),
            ]
        );
        let (crashed, links, _) = faults.windows(&mut c.dcn);
        assert_eq!(crashed, vec![CrashWindow::whole_round(RackId(1))]);
        assert!(links.is_empty());
    }

    #[test]
    fn crash_windows_put_whole_round_downs_first() {
        let mut c = cluster(3);
        let mut faults = Faults::default();
        let events = apply(
            &mut faults,
            &mut c,
            &[
                crash(0, None, None),
                crash(1, Some(4), Some(12)),
                crash(2, Some(6), None),
            ],
        );
        assert_eq!(events.len(), 3, "timed crashes always emit");
        let (crashed, _, _) = faults.windows(&mut c.dcn);
        assert_eq!(
            crashed,
            vec![
                CrashWindow::whole_round(RackId(0)),
                CrashWindow::during(RackId(1), 4, 12),
                CrashWindow {
                    rack: RackId(2),
                    crash_at: 6,
                    recover_at: None,
                },
            ]
        );
        // after the round rack 1 is back; racks 0 and 2 stay down
        let (crashed, _, _) = faults.windows(&mut c.dcn);
        assert_eq!(
            crashed,
            vec![
                CrashWindow::whole_round(RackId(0)),
                CrashWindow::whole_round(RackId(2)),
            ]
        );
    }

    #[test]
    fn link_windows_put_whole_round_downs_first() {
        let mut c = cluster(3);
        let cap = c.dcn.graph.link(7).capacity;
        c.dcn.graph.link_mut(7).consume(cap * 0.5);
        let before = c.dcn.graph.link(7).available_bw;
        let mut faults = Faults::default();
        let timed = |link, fail_at, restore_at| FaultAction::FailLink {
            link,
            fail_at: Some(fail_at),
            restore_at,
        };
        apply(
            &mut faults,
            &mut c,
            &[fail_link(2), timed(7, 3, Some(9)), timed(5, 4, None)],
        );
        // a timed window touches the graph only when the round is taken
        assert_eq!(c.dcn.graph.link(5).available_bw, cap);
        let (_, links, _) = faults.windows(&mut c.dcn);
        assert_eq!(
            links,
            vec![
                LinkFaultWindow::whole_round(2),
                LinkFaultWindow::during(7, 3, 9),
                LinkFaultWindow {
                    link: 5,
                    fail_at: 4,
                    restore_at: None,
                },
            ]
        );
        // after the round 7 carries its old load again; 2 and 5 are dead
        assert!((c.dcn.graph.link(7).available_bw - before).abs() < 1e-9);
        assert_eq!(c.dcn.graph.link(5).available_bw, 0.0);
        let (_, links, _) = faults.windows(&mut c.dcn);
        assert_eq!(
            links,
            vec![
                LinkFaultWindow::whole_round(2),
                LinkFaultWindow::whole_round(5),
            ]
        );
    }

    #[test]
    fn shim_crashes_stand_until_recovered() {
        let mut c = cluster(3);
        let mut faults = Faults::default();
        apply(
            &mut faults,
            &mut c,
            &[crash(2, None, None), crash(0, None, None)],
        );
        let (crashed, _, _) = faults.windows(&mut c.dcn);
        assert_eq!(
            crashed,
            vec![
                CrashWindow::whole_round(RackId(0)),
                CrashWindow::whole_round(RackId(2)),
            ]
        );
        let events = apply(&mut faults, &mut c, &[FaultAction::RecoverShim { rack: 2 }]);
        assert_eq!(events, vec![injected(FaultKind::ShimUp, 2)]);
        let (crashed, _, _) = faults.windows(&mut c.dcn);
        assert_eq!(crashed, vec![CrashWindow::whole_round(RackId(0))]);
    }

    #[test]
    fn partitions_stand_until_healed_by_name() {
        let mut c = cluster(3);
        let mut faults = Faults::default();
        let heal = |name: &str, heal_at| FaultAction::HealPartition {
            name: name.to_owned(),
            heal_at,
        };
        // an in-round window heals itself; a cut with no heal stands
        let events = apply(
            &mut faults,
            &mut c,
            &[
                partition("blip", vec![3], 2, Some(9)),
                partition("west", vec![0, 1], 4, None),
            ],
        );
        assert_eq!(
            events,
            vec![
                injected(FaultKind::Partition, 1),
                injected(FaultKind::Partition, 2),
            ]
        );
        let west = [RackId(0), RackId(1)];
        let (_, _, cuts) = faults.windows(&mut c.dcn);
        assert_eq!(
            cuts,
            vec![
                PartitionWindow::new([RackId(3)], 2, Some(9)),
                PartitionWindow::new(west, 4, None),
            ]
        );
        // the standing partition re-enters whole-round until healed
        let (_, _, cuts) = faults.windows(&mut c.dcn);
        assert_eq!(cuts, vec![PartitionWindow::new(west, 0, None)]);
        let events = apply(&mut faults, &mut c, &[heal("west", 6)]);
        assert_eq!(events, vec![injected(FaultKind::Heal, 6)]);
        let (_, _, cuts) = faults.windows(&mut c.dcn);
        assert_eq!(cuts, vec![PartitionWindow::new(west, 0, Some(6))]);
        assert!(faults.windows(&mut c.dcn).2.is_empty());
        // healing an unknown name emits, then yields no window
        let events = apply(&mut faults, &mut c, &[heal("east", 3)]);
        assert_eq!(events, vec![injected(FaultKind::Heal, 3)]);
        assert!(faults.windows(&mut c.dcn).2.is_empty());
    }

    #[test]
    fn restore_paths_touch_no_shim_or_partition_state() {
        // host and link restores must not resurrect a shim (or tear a
        // partition down) as a side effect: epochs live solely with the
        // failover state, whose only writer is monotonic, so a restored
        // fault can never roll a shim back into an old epoch
        let mut c = cluster(5);
        let mut faults = Faults::default();
        apply(
            &mut faults,
            &mut c,
            &[crash(1, None, None), partition("west", vec![0], 0, None)],
        );
        let _ = faults.windows(&mut c.dcn);
        apply(
            &mut faults,
            &mut c,
            &[
                fail_link(2),
                FaultAction::FailHost { host: 0 },
                FaultAction::RestoreLink { link: 2 },
                FaultAction::RestoreHost { host: 0 },
            ],
        );
        let (crashed, links, cuts) = faults.windows(&mut c.dcn);
        assert_eq!(crashed, vec![CrashWindow::whole_round(RackId(1))]);
        assert!(links.is_empty());
        assert_eq!(cuts, vec![PartitionWindow::new([RackId(0)], 0, None)]);
    }
}
