//! Alg. 1 — the Pre-Alert Management Procedure run by each shim every `T`
//! seconds.
//!
//! The shim walks its alert set: outer-switch alerts gather reroute
//! victims via `PRIORITY(F, α)`; host alerts gather migration victims via
//! `PRIORITY(F, 1)`; local-ToR alerts are batched and, if any, a
//! `PRIORITY(F, β)` pass over the whole rack adds more migration victims.
//! Finally VMMIGRATION places the victims and FLOWREROUTE moves the
//! conflicted flows.
//!
//! Each arm lives here once: [`reroute_switch_alerts`] is the
//! outer-switch arm, which the assembled [`System`](crate::System) runs
//! before its fabric round, and `select_victims` is the host/local-ToR
//! arm, which every runtime's shims run. [`pre_alert_management`] chains
//! both with a sequential VMMIGRATION for one shim.

use crate::priority::{priority, Budget};
use crate::reroute::{flow_reroute, RerouteReport};
use crate::vmmigration::{vmmigration, MigrationContext, MigrationPlan};
use dcn_sim::flows::FlowNetwork;
use dcn_sim::{Alert, AlertSource, SimConfig};
use dcn_topology::rack::TOR_CAPACITY;
use dcn_topology::{Dcn, Inventory, NodeId, Placement, RackId, VmId};
use sheriff_obs::{emit, Event, EventSink, NullSink};

/// Everything one shim did in one management round.
#[derive(Debug, Clone, Default)]
pub struct ShimOutcome {
    /// The migration plan executed (empty when no migration victims).
    pub plan: MigrationPlan,
    /// Flow-reroute accounting across all outer-switch alerts.
    pub reroutes: RerouteReport,
    /// Victims selected for migration (before placement attempts).
    pub migration_candidates: usize,
}

/// Run Alg. 1 for the shim of `rack` over the alerts addressed to it:
/// reroute around its outer-switch alerts, then place its host and
/// local-ToR victims with VMMIGRATION.
///
/// * `region` — the racks of this shim's dominating region (destination
///   candidates for VMMIGRATION).
/// * `flows` — the flow network, when flow-level state is simulated;
///   outer-switch alerts are ignored without it.
/// * `alert_of` — per-VM ALERT values (Sec. IV-C) used by the `w = 1`
///   branch of PRIORITY.
/// * `max_rounds` — retry bound for the VMMIGRATION negotiation.
#[allow(clippy::too_many_arguments)] // the paper's Alg. 1 signature: state + alerts + knobs
pub fn pre_alert_management(
    ctx: &mut MigrationContext<'_>,
    dcn: &Dcn,
    flows: Option<&mut FlowNetwork>,
    rack: RackId,
    region: &[RackId],
    alerts: &[Alert],
    alert_of: &dyn Fn(VmId) -> f64,
    max_rounds: usize,
) -> ShimOutcome {
    let mut outcome = ShimOutcome::default();
    if let Some(flows) = flows {
        outcome.reroutes = reroute_switch_alerts(
            dcn,
            ctx.placement,
            ctx.sim,
            flows,
            rack,
            alerts,
            &mut NullSink,
        );
    }
    let (migration_set, _) = select_victims(
        ctx.placement,
        ctx.inventory,
        ctx.sim,
        rack,
        alerts,
        alert_of,
    );
    outcome.migration_candidates = migration_set.len();
    if !migration_set.is_empty() {
        outcome.plan = vmmigration(ctx, &migration_set, region, max_rounds);
    }
    outcome
}

/// Alg. 1's outer-switch arm for the shim of `rack`: for each of its
/// outer-switch alerts, FLOWREROUTE moves the conflicted flows of the
/// rack's own VMs off the hot switch. Each alert emits `flows_rerouted`
/// and bumps the `reroutes.flows` counter. Host and local-ToR alerts
/// select migration victims instead and are skipped here.
pub fn reroute_switch_alerts<S: EventSink + ?Sized>(
    dcn: &Dcn,
    placement: &Placement,
    sim: &SimConfig,
    flows: &mut FlowNetwork,
    rack: RackId,
    alerts: &[Alert],
    sink: &mut S,
) -> RerouteReport {
    let mut total = RerouteReport::default();
    for alert in alerts.iter().filter(|a| a.rack == rack) {
        let AlertSource::OuterSwitch(sw) = alert.source else {
            continue;
        };
        // conflict flows from local VMs passing through s_j
        let local_flow_ids: Vec<usize> = flows
            .flows_through_switch(dcn, sw)
            .into_iter()
            .filter(|&f| placement.rack_of(flows.flows()[f].src) == rack)
            .collect();
        // Alg. 2's α branch in *flow-rate* units. Rerouting every flow
        // off the switch just moves the herd to the next path (and
        // oscillates); instead, relieve exactly enough: pull the largest
        // offenders until the switch's worst incident link drops an
        // α-portion below capacity. Delay-sensitive VMs stay exempt.
        // rerouting moves packets, not the VM, so only the *flow's*
        // delay-sensitivity matters here (a DS VM's bulk flows may
        // detour; its latency-critical flows may not)
        let mut rate_of: std::collections::HashMap<VmId, f64> = Default::default();
        for &f in &local_flow_ids {
            let flow = &flows.flows()[f];
            if !flow.delay_sensitive {
                *rate_of.entry(flow.src).or_insert(0.0) += flow.rate;
            }
        }
        let mut ranked: Vec<(VmId, f64)> = rate_of.into_iter().collect();
        ranked.sort_by(|a, b| {
            // total_cmp: a NaN rate/value (corrupt input) must not abort
            // the whole management round — it gets a fixed place in the
            // order instead
            b.1.total_cmp(&a.1)
                .then_with(|| {
                    placement
                        .spec(a.0)
                        .value
                        .total_cmp(&placement.spec(b.0).value)
                })
                .then(a.0.cmp(&b.0))
        });
        // overshoot of the worst incident link above the
        // (1 − α)·capacity target
        let overshoot = match dcn.graph.node_idx(NodeId::Switch(sw)) {
            Some(node) => dcn
                .graph
                .neighbors(node)
                .iter()
                .map(|&(_, e)| flows.load(e) - (1.0 - sim.alpha) * dcn.graph.link(e).capacity)
                .fold(0.0f64, f64::max),
            None => 0.0,
        };
        let mut chosen: Vec<VmId> = Vec::new();
        let mut to_remove = overshoot;
        for (vm, rate) in ranked {
            if to_remove <= 0.0 {
                break;
            }
            to_remove -= rate;
            chosen.push(vm);
        }
        let chosen_flow_ids: Vec<usize> = local_flow_ids
            .into_iter()
            .filter(|&f| chosen.contains(&flows.flows()[f].src))
            .collect();
        let r = flow_reroute(dcn, placement, flows, sw, &chosen_flow_ids);
        emit(sink, || Event::FlowsRerouted {
            rack: rack.index() as u64,
            rerouted: r.rerouted as u64,
            stuck: r.stuck as u64,
        });
        sink.counter("reroutes.flows", r.rerouted as u64);
        total.rerouted += r.rerouted;
        total.stuck += r.stuck;
        total.skipped_delay_sensitive += r.skipped_delay_sensitive;
    }
    total
}

/// Alg. 1/2 victim selection for `rack`'s host and local-ToR alerts:
/// `PRIORITY(F, 1)` over each alerted host's VMs, and — when any
/// local-ToR alert is present — one `PRIORITY(F, β)` pass over the whole
/// rack. Returns the selected VMs (sorted, deduplicated) with the size of
/// the candidate pool PRIORITY examined. Outer-switch alerts reroute
/// flows instead and select nothing here.
pub(crate) fn select_victims(
    placement: &Placement,
    inventory: &Inventory,
    sim: &SimConfig,
    rack: RackId,
    alerts: &[Alert],
    alert_of: impl Fn(VmId) -> f64,
) -> (Vec<VmId>, usize) {
    let mut set: Vec<VmId> = Vec::new();
    let mut candidates = 0usize;
    let mut tor_alert = false;
    for alert in alerts.iter().filter(|a| a.rack == rack) {
        match alert.source {
            AlertSource::Host(h) => {
                let f = placement.vms_on(h);
                candidates += f.len();
                set.extend(priority(f, placement, &alert_of, Budget::SingleMaxAlert));
            }
            AlertSource::LocalTor(_) => tor_alert = true,
            AlertSource::OuterSwitch(_) => {}
        }
    }
    if tor_alert {
        // every VM in the rack is a candidate; release a β-portion of the
        // ToR capacity
        let mut f: Vec<VmId> = Vec::new();
        for &host in inventory.hosts_in(rack) {
            f.extend_from_slice(placement.vms_on(host));
        }
        candidates += f.len();
        let budget = sim.beta * TOR_CAPACITY;
        set.extend(priority(&f, placement, &alert_of, Budget::Capacity(budget)));
    }
    set.sort_unstable();
    set.dedup();
    (set, candidates)
}

/// PRIORITY's ALERT ranking read from a per-VM table
/// ([`RunCtx::alert_values`](crate::RunCtx::alert_values)); a VM the
/// table does not cover carries no alert.
pub(crate) fn alert_lookup(values: &[f64]) -> impl Fn(VmId) -> f64 + '_ {
    move |vm| values.get(vm.index()).copied().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::{Cluster, ClusterConfig};
    use dcn_sim::flows::Flow;
    use dcn_sim::{RackMetric, SimConfig};
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::HostId;

    fn cluster() -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 3.0,
                seed: 11,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    }

    fn alert_of_capacity(c: &Cluster) -> impl Fn(VmId) -> f64 + '_ {
        |vm| c.placement.utilization(c.placement.host_of(vm))
    }

    #[test]
    fn host_alert_migrates_one_vm() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        // most loaded host
        let host = (0..c.placement.host_count())
            .map(HostId::from_index)
            .max_by(|&a, &b| {
                c.placement
                    .utilization(a)
                    .partial_cmp(&c.placement.utilization(b))
                    .unwrap()
            })
            .unwrap();
        let rack = c.placement.rack_of_host(host);
        let region = c.dcn.neighbor_racks(rack, 4);
        let alerts = vec![Alert {
            rack,
            source: AlertSource::Host(host),
            severity: 0.95,
            time: 0,
        }];
        let alert_vals: Vec<f64> = c
            .placement
            .vm_ids()
            .map(|vm| c.placement.spec(vm).capacity / 20.0)
            .collect();
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let out = pre_alert_management(
            &mut ctx,
            &c.dcn,
            None,
            rack,
            &region,
            &alerts,
            &|vm| alert_vals[vm.index()],
            5,
        );
        assert_eq!(
            out.migration_candidates, 1,
            "w = 1 must pick exactly one VM"
        );
        assert_eq!(out.plan.moves.len(), 1);
        assert_ne!(c.placement.host_of(out.plan.moves[0].vm), host);
    }

    #[test]
    fn tor_alert_selects_beta_portion() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let rack = dcn_topology::RackId(0);
        let region = c.dcn.neighbor_racks(rack, 4);
        let alerts = vec![Alert {
            rack,
            source: AlertSource::LocalTor(rack),
            severity: 0.95,
            time: 0,
        }];
        let beta_budget = c.sim.beta * TOR_CAPACITY;
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let out =
            pre_alert_management(&mut ctx, &c.dcn, None, rack, &region, &alerts, &|_| 0.95, 5);
        // selected victims' total capacity must respect the β budget
        let total: f64 = out
            .plan
            .moves
            .iter()
            .map(|m| c.placement.spec(m.vm).capacity)
            .sum();
        assert!(
            total <= beta_budget + 1e-9,
            "moved {total} > β budget {beta_budget}"
        );
    }

    #[test]
    fn outer_switch_alert_triggers_reroute_not_migration() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        // build a hot flow from rack 0 to rack 1
        let src_vm = c
            .placement
            .vm_ids()
            .find(|&vm| {
                c.placement.rack_of(vm) == dcn_topology::RackId(0)
                    && !c.placement.spec(vm).delay_sensitive
            })
            .expect("rack 0 has migratable VMs");
        let dst_vm = c
            .placement
            .vm_ids()
            .find(|&vm| c.placement.rack_of(vm) == dcn_topology::RackId(1))
            .expect("rack 1 has VMs");
        let mut flows = FlowNetwork::route(
            &c.dcn,
            &c.placement,
            vec![Flow {
                src: src_vm,
                dst: dst_vm,
                rate: 0.95,
                delay_sensitive: false,
            }],
        );
        let hot = flows.congested_switches(&c.dcn, 0.9);
        let (sw, _) = hot[0];
        let rack = dcn_topology::RackId(0);
        let region = c.dcn.neighbor_racks(rack, 4);
        let alerts = vec![Alert {
            rack,
            source: AlertSource::OuterSwitch(sw),
            severity: 0.95,
            time: 0,
        }];
        let f = alert_of_capacity(&c);
        let alert_vals: Vec<f64> = c.placement.vm_ids().map(&f).collect();
        drop(f);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let out = pre_alert_management(
            &mut ctx,
            &c.dcn,
            Some(&mut flows),
            rack,
            &region,
            &alerts,
            &|vm| alert_vals[vm.index()],
            5,
        );
        assert_eq!(out.plan.moves.len(), 0, "switch alerts must not migrate");
        assert_eq!(out.reroutes.rerouted, 1);
        assert!(flows.flows_through_switch(&c.dcn, sw).is_empty());
    }

    #[test]
    fn alerts_for_other_racks_ignored() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let rack = dcn_topology::RackId(0);
        let other = dcn_topology::RackId(3);
        let region = c.dcn.neighbor_racks(rack, 4);
        let alerts = vec![Alert {
            rack: other,
            source: AlertSource::LocalTor(other),
            severity: 0.99,
            time: 0,
        }];
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let out =
            pre_alert_management(&mut ctx, &c.dcn, None, rack, &region, &alerts, &|_| 0.95, 5);
        assert_eq!(out.migration_candidates, 0);
        assert!(out.plan.moves.is_empty());
    }
}
