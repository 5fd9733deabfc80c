//! The Sheriff controller: one shim per rack, each dominating its local
//! region (Sec. II-B). This module provides the deterministic sequential
//! runtime used by the experiment harness; [`fabric`](crate::fabric)
//! provides the shim runtime with real message passing.

use crate::alert_mgmt::{pre_alert_management, ShimOutcome};
use crate::vmmigration::{MigrationContext, MigrationPlan};
use dcn_sim::engine::Cluster;
use dcn_sim::flows::FlowNetwork;
use dcn_sim::{Alert, RackMetric};
use dcn_topology::{RackId, VmId};
use serde::{Deserialize, Serialize};

/// Aggregated result of one full management round across all shims.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoundReport {
    /// Merged migration plan of every shim.
    pub plan: MigrationPlan,
    /// Host-utilisation std-dev before the round (Fig. 9/10 metric).
    pub stddev_before: f64,
    /// Std-dev after the round.
    pub stddev_after: f64,
    /// Shims that had at least one alert to process.
    pub shims_active: usize,
    /// Flows rerouted across all shims.
    pub flows_rerouted: usize,
}

/// The regional Sheriff manager: precomputed dominating regions, one per
/// rack.
#[derive(Debug, Clone)]
pub struct Sheriff {
    regions: Vec<Vec<RackId>>,
    /// VMMIGRATION negotiation retry bound.
    pub max_rounds: usize,
}

impl Sheriff {
    /// Build a Sheriff over the cluster's topology: each shim's region is
    /// the racks within `sim.region_hops` of it.
    pub fn new(cluster: &Cluster) -> Self {
        let regions = (0..cluster.dcn.rack_count())
            .map(|r| {
                cluster
                    .dcn
                    .neighbor_racks(RackId::from_index(r), cluster.sim.region_hops)
            })
            .collect();
        Self {
            regions,
            max_rounds: 5,
        }
    }

    /// The dominating region of a rack.
    pub fn region(&self, rack: RackId) -> &[RackId] {
        &self.regions[rack.index()]
    }

    /// Run one management round: every shim with alerts runs Alg. 1 over
    /// its own alert subset, in rack order (deterministic). `alert_of`
    /// supplies per-VM ALERT values for the PRIORITY function.
    pub fn round(
        &self,
        cluster: &mut Cluster,
        metric: &RackMetric,
        mut flows: Option<&mut FlowNetwork>,
        alerts: &[Alert],
        alert_of: &dyn Fn(VmId) -> f64,
    ) -> RoundReport {
        let mut report = RoundReport {
            stddev_before: cluster.utilization_stddev(),
            ..RoundReport::default()
        };
        // group alert indices by receiving shim
        let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        report.shims_active = racks.len();

        for rack in racks {
            let outcome: ShimOutcome = {
                let mut ctx = MigrationContext {
                    placement: &mut cluster.placement,
                    inventory: &cluster.dcn.inventory,
                    deps: &cluster.deps,
                    metric,
                    sim: &cluster.sim,
                };
                pre_alert_management(
                    &mut ctx,
                    &cluster.dcn,
                    flows.as_deref_mut(),
                    rack,
                    &self.regions[rack.index()],
                    alerts,
                    alert_of,
                    self.max_rounds,
                )
            };
            report.flows_rerouted += outcome.reroutes.rerouted;
            report.plan.absorb(outcome.plan);
        }
        report.stddev_after = cluster.utilization_stddev();
        report
    }

    /// Run `rounds` successive rounds with the Fig. 9/10 protocol
    /// (a fixed fraction of VMs alerting per round), returning the std-dev
    /// trajectory including the initial point.
    pub fn balance_trajectory(
        &self,
        cluster: &mut Cluster,
        metric: &RackMetric,
        alert_fraction: f64,
        rounds: usize,
    ) -> (Vec<f64>, MigrationPlan) {
        let mut stddevs = vec![cluster.utilization_stddev()];
        let mut plan = MigrationPlan::default();
        for t in 0..rounds {
            let alerts = cluster.fraction_alerts(alert_fraction, t);
            let utils: Vec<f64> = cluster
                .placement
                .vm_ids()
                .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
                .collect();
            let r = self.round(cluster, metric, None, &alerts, &|vm| utils[vm.index()]);
            plan.absorb(r.plan);
            stddevs.push(cluster.utilization_stddev());
        }
        (stddevs, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::ClusterConfig;
    use dcn_sim::SimConfig;
    use dcn_topology::bcube::{self, BCubeConfig};
    use dcn_topology::fattree::{self, FatTreeConfig};

    fn fattree_cluster(seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(8));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 4.0,
                seed,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    }

    #[test]
    fn balancing_reduces_stddev_on_fattree() {
        let mut c = fattree_cluster(1);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let sheriff = Sheriff::new(&c);
        let (traj, plan) = sheriff.balance_trajectory(&mut c, &metric, 0.05, 24);
        assert_eq!(traj.len(), 25);
        assert!(!plan.moves.is_empty());
        let first = traj[0];
        let last = *traj.last().unwrap();
        assert!(
            last < first * 0.6,
            "std-dev should roughly halve over 24 rounds: {first} -> {last}"
        );
    }

    #[test]
    fn balancing_reduces_stddev_on_bcube() {
        let dcn = bcube::build(&BCubeConfig::paper(8));
        let mut c = Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 4.0,
                seed: 2,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        );
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let sheriff = Sheriff::new(&c);
        let (traj, _) = sheriff.balance_trajectory(&mut c, &metric, 0.05, 24);
        assert!(*traj.last().unwrap() < traj[0] * 0.7, "{traj:?}");
    }

    #[test]
    fn round_report_accounts_stddev_change() {
        let mut c = fattree_cluster(3);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let sheriff = Sheriff::new(&c);
        let alerts = c.fraction_alerts(0.05, 0);
        let utils: Vec<f64> = c
            .placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect();
        let r = sheriff.round(&mut c, &metric, None, &alerts, &|vm| utils[vm.index()]);
        assert!(r.shims_active > 0);
        assert!(r.stddev_after <= r.stddev_before);
        assert_eq!(r.stddev_after, c.utilization_stddev());
    }

    #[test]
    fn regions_are_local() {
        let c = fattree_cluster(4);
        let sheriff = Sheriff::new(&c);
        // default region (2 hops) in an 8-pod fat-tree = pod peers only
        let region = sheriff.region(RackId(0));
        assert_eq!(region.len(), 3, "8-pod fat-tree pod has 4 racks");
        assert!(region.len() < c.dcn.rack_count() - 1);
    }

    #[test]
    fn rounds_are_deterministic() {
        let run = |seed| {
            let mut c = fattree_cluster(seed);
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let sheriff = Sheriff::new(&c);
            let (traj, plan) = sheriff.balance_trajectory(&mut c, &metric, 0.05, 5);
            (traj, plan.total_cost)
        };
        assert_eq!(run(9), run(9));
    }
}
