//! Pre-alert vs contingency management (Sec. I, "Contingency vs
//! Pre-Control").
//!
//! The paper's motivating claim: a *contingency* manager reacts only
//! after overload is detected, while Sheriff *predicts* the overload and
//! acts a period early, so devices spend less time in the damaging
//! regime. This module runs both strategies over the same time-varying
//! workloads and measures overload exposure — the experiment the paper
//! motivates but never quantifies.

use crate::priority::{priority, Budget};
use crate::vmmigration::{vmmigration, MigrationContext, MigrationPlan};
use dcn_sim::engine::{Cluster, ProfilePredictor};
use dcn_sim::RackMetric;
use dcn_topology::{HostId, RackId, VmId};

/// When does a host raise its alert?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertPolicy {
    /// Contingency: alert when the *current* load exceeds the threshold
    /// (the classical react-after-detection scheme, refs \[17\]–\[23\]).
    Reactive,
    /// Sheriff: alert when the *predicted* load at migration-completion
    /// time exceeds the threshold.
    PreAlert,
    /// Perfect foresight: alert on the *actual* future load at
    /// migration-completion time. Upper-bounds what any predictor can
    /// buy; the Reactive→Oracle gap is the value of pre-control itself.
    Oracle,
}

/// Outcome of running one policy over a workload timeline.
#[derive(Debug, Clone, Default)]
pub struct StrategyOutcome {
    /// Host-steps spent above the overload threshold (lower is better).
    pub overload_steps: usize,
    /// Integral of (load − threshold) over all overloaded host-steps.
    pub overload_integral: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// Total Eqn. 1 migration cost.
    pub migration_cost: f64,
    /// Alerts raised.
    pub alerts: usize,
}

/// Effective (time-varying) load fraction of a host at step `t`: each
/// VM contributes its capacity scaled by its current CPU demand.
pub fn effective_load(cluster: &Cluster, host: HostId, t: usize) -> f64 {
    let used: f64 = cluster
        .placement
        .vms_on(host)
        .iter()
        .map(|&vm| cluster.placement.spec(vm).capacity * cluster.workloads[vm.index()].at(t).cpu)
        .sum();
    used / cluster.placement.host_capacity(host)
}

/// Predicted effective load of a host `h` steps past the history before
/// `t`, using the per-VM profile predictor (k-step-ahead, Sec. IV-B).
pub fn predicted_load<P: ProfilePredictor>(
    cluster: &Cluster,
    predictor: &P,
    host: HostId,
    t: usize,
    horizon: usize,
) -> f64 {
    let used: f64 = cluster
        .placement
        .vms_on(host)
        .iter()
        .map(|&vm| {
            cluster.placement.spec(vm).capacity
                * predictor
                    .predict_ahead(&cluster.workloads[vm.index()], t, horizon)
                    .cpu
        })
        .sum();
    used / cluster.placement.host_capacity(host)
}

/// Run a policy from step `start` to `end` over the cluster's workload
/// timeline, mutating the placement as migrations complete.
///
/// `migration_delay` models the six-stage pre-copy duration (Fig. 2): a
/// migration decided at step `t` only relieves the source host at
/// `t + migration_delay`. The pre-alert policy therefore looks
/// `1 + migration_delay` steps ahead with the k-step forecast of
/// Sec. IV-B — it starts the (slow) migration early enough to finish
/// before the overload materialises, which is exactly the paper's
/// "pre-control" argument. The reactive policy only learns about the
/// overload once it is already paying for it.
///
/// Per step: (1) complete in-flight migrations due now, (2) account
/// overload exposure at the current loads, (3) raise alerts per the
/// policy (hosts with an in-flight migration stay silent), (4) pick one
/// victim per alerted host (Alg. 1's host-alert arm) and schedule its
/// migration.
pub fn run_policy<P: ProfilePredictor>(
    cluster: &mut Cluster,
    metric: &RackMetric,
    predictor: &P,
    policy: AlertPolicy,
    start: usize,
    end: usize,
    migration_delay: usize,
) -> StrategyOutcome {
    assert!(start < end, "empty timeline");
    let threshold = cluster.sim.alert_threshold;
    let mut out = StrategyOutcome::default();
    let host_count = cluster.placement.host_count();
    // (complete_at, victims, source host)
    let mut in_flight: Vec<(usize, Vec<VmId>, HostId)> = Vec::new();

    for t in start..end {
        // (1) complete migrations whose pre-copy finished
        let (due, still): (Vec<_>, Vec<_>) = in_flight.into_iter().partition(|m| m.0 <= t);
        in_flight = still;
        for (_, victims, host) in due {
            let rack = cluster.placement.rack_of_host(host);
            let region: Vec<RackId> = cluster.dcn.neighbor_racks(rack, cluster.sim.region_hops);
            let plan: MigrationPlan = {
                let mut ctx = MigrationContext {
                    placement: &mut cluster.placement,
                    inventory: &cluster.dcn.inventory,
                    deps: &cluster.deps,
                    metric,
                    sim: &cluster.sim,
                };
                vmmigration(&mut ctx, &victims, &region, 3)
            };
            out.migrations += plan.moves.len();
            out.migration_cost += plan.total_cost;
        }

        // (2) overload exposure at the *actual* loads of this step
        for h in 0..host_count {
            let host = HostId::from_index(h);
            let load = effective_load(cluster, host, t);
            if load > threshold {
                out.overload_steps += 1;
                out.overload_integral += load - threshold;
            }
        }

        // (3) alerts per policy; silent while a migration is in flight
        let busy: Vec<HostId> = in_flight.iter().map(|m| m.2).collect();
        let mut alerted: Vec<HostId> = Vec::new();
        for h in 0..host_count {
            let host = HostId::from_index(h);
            if cluster.placement.vms_on(host).is_empty() || busy.contains(&host) {
                continue;
            }
            let trigger = match policy {
                AlertPolicy::Reactive => effective_load(cluster, host, t) > threshold,
                AlertPolicy::PreAlert => {
                    predicted_load(cluster, predictor, host, t, 1 + migration_delay) > threshold
                }
                AlertPolicy::Oracle => {
                    effective_load(cluster, host, t + 1 + migration_delay) > threshold
                }
            };
            if trigger {
                alerted.push(host);
            }
        }
        out.alerts += alerted.len();

        // (4) pick victims now; relief arrives after the pre-copy delay.
        // Each policy ranks victims by its own view of demand at
        // completion time: reactive only knows the present, pre-alert
        // uses the forecast, the oracle the actual future.
        for host in alerted {
            let candidates: Vec<VmId> = cluster.placement.vms_on(host).to_vec();
            let demand = |vm: VmId| -> f64 {
                let w = &cluster.workloads[vm.index()];
                match policy {
                    AlertPolicy::Reactive => w.at(t).cpu,
                    AlertPolicy::PreAlert => predictor.predict_ahead(w, t, 1 + migration_delay).cpu,
                    AlertPolicy::Oracle => w.at(t + 1 + migration_delay).cpu,
                }
            };
            let victims = priority(
                &candidates,
                &cluster.placement,
                demand,
                Budget::SingleMaxAlert,
            );
            if !victims.is_empty() {
                in_flight.push((t + migration_delay, victims, host));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::{ClusterConfig, HoltPredictor};
    use dcn_sim::SimConfig;
    use dcn_topology::fattree::{self, FatTreeConfig};

    fn cluster(seed: u64) -> Cluster {
        // hosts sized so diurnal peaks actually cross the threshold
        let dcn = fattree::build(&FatTreeConfig {
            host_capacity: 30.0,
            ..FatTreeConfig::paper(4)
        });
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 1.5,
                vm_capacity_range: (8.0, 16.0),
                skew: 1.0,
                workload_len: 300,
                seed,
                ..ClusterConfig::default()
            },
            SimConfig {
                alert_threshold: 0.55,
                ..SimConfig::paper()
            },
        )
    }

    #[test]
    fn effective_load_tracks_workloads() {
        let c = cluster(1);
        let host = HostId(0);
        if c.placement.vms_on(host).is_empty() {
            return;
        }
        let l0 = effective_load(&c, host, 10);
        assert!(l0 >= 0.0);
        // load must vary over time for a non-empty host
        let series: Vec<f64> = (0..100).map(|t| effective_load(&c, host, t)).collect();
        let spread = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - series.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0);
    }

    #[test]
    fn predicted_load_close_to_actual_on_smooth_series() {
        let c = cluster(2);
        let p = HoltPredictor::default();
        let host = HostId(0);
        if c.placement.vms_on(host).is_empty() {
            return;
        }
        let t = 200;
        let predicted = predicted_load(&c, &p, host, t, 1);
        let actual = effective_load(&c, host, t);
        assert!((predicted - actual).abs() < 0.4, "{predicted} vs {actual}");
    }

    #[test]
    fn oracle_prealert_bounds_reactive_exposure() {
        // identical clusters, identical workloads: only the alert timing
        // differs. Per-seed results are noisy (one migration changes the
        // whole trajectory), so aggregate over several seeds; perfect
        // foresight must come out ahead of react-after-detection.
        let mut reactive_total = 0.0;
        let mut oracle_total = 0.0;
        let mut alerts_seen = 0;
        for seed in [3u64, 4, 5, 6] {
            let mut reactive = cluster(seed);
            let mut oracle = cluster(seed);
            let metric = RackMetric::build(&reactive.dcn, &reactive.sim);
            let p = HoltPredictor::default();
            let r = run_policy(
                &mut reactive,
                &metric,
                &p,
                AlertPolicy::Reactive,
                50,
                250,
                3,
            );
            let o = run_policy(&mut oracle, &metric, &p, AlertPolicy::Oracle, 50, 250, 3);
            reactive_total += r.overload_integral;
            oracle_total += o.overload_integral;
            alerts_seen += r.alerts + o.alerts;
        }
        assert!(alerts_seen > 0, "workloads never crossed the threshold");
        assert!(
            oracle_total < reactive_total,
            "oracle exposure {oracle_total} should beat reactive {reactive_total}"
        );
    }

    #[test]
    fn prealert_policy_runs_and_accounts() {
        let mut c = cluster(9);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let p = HoltPredictor::default();
        let out = run_policy(&mut c, &metric, &p, AlertPolicy::PreAlert, 50, 200, 3);
        // cost only accrues with migrations, alerts imply either overload
        // or prediction of one
        if out.migrations == 0 {
            assert_eq!(out.migration_cost, 0.0);
        } else {
            assert!(out.migration_cost > 0.0);
        }
        assert!(out.alerts >= out.migrations);
    }

    #[test]
    fn no_workloads_panics_cleanly() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let c = Cluster::build(
            dcn,
            &ClusterConfig {
                workload_len: 0,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        );
        // effective_load on a workload-less cluster is a programming
        // error; verify it panics rather than silently returning nonsense
        let result = std::panic::catch_unwind(|| effective_load(&c, HostId(0), 0));
        if !c.placement.vms_on(HostId(0)).is_empty() {
            assert!(result.is_err());
        }
    }
}
