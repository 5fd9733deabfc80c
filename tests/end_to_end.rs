//! Integration tests spanning every crate: the full Sheriff pipeline from
//! synthetic workloads through prediction, alerting, and regional
//! management, on both topology families.

use sheriff_dcn::prelude::*;
use sheriff_dcn::sim::flows::{Flow, FlowNetwork};

fn cluster_on(dcn: Dcn, seed: u64, workload_len: usize) -> Cluster {
    Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 4.0,
            workload_len,
            seed,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    )
}

#[test]
fn full_pipeline_prediction_to_migration() {
    // 1. build a populated Fat-Tree with real per-VM workload traces
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let mut cluster = cluster_on(dcn, 8, 200);
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);

    // 2. predict each VM's next profile and raise pre-alerts
    let t = 150;
    let alerts = cluster.predicted_alerts(&HoltPredictor::default(), t);
    // synthetic CPU traces exceed 90% regularly: some host must pre-alert
    assert!(!alerts.is_empty(), "expected pre-alerts from hot workloads");
    for a in &alerts {
        assert!(a.severity > cluster.sim.alert_threshold);
    }

    // 3. the shims act on the alerts
    let utils: Vec<f64> = cluster
        .placement
        .vm_ids()
        .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
        .collect();
    let out = FabricRuntime::default().step(&mut RunCtx {
        cluster: &mut cluster,
        metric: &metric,
        alerts: &alerts,
        alert_values: &utils,
        sink: &mut NullSink,
    });
    assert!(out.shims > 0);

    // 4. invariants hold afterwards
    for h in 0..cluster.placement.host_count() {
        let h = HostId::from_index(h);
        assert!(cluster.placement.used_capacity(h) <= cluster.placement.host_capacity(h) + 1e-9);
    }
}

#[test]
fn balance_improves_on_both_topologies() {
    for (name, dcn) in [
        ("fattree", fattree::build(&FatTreeConfig::paper(8))),
        ("bcube", bcube::build(&BCubeConfig::paper(8))),
    ] {
        let mut cluster = cluster_on(dcn, 3, 0);
        let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
        let (traj, plan) = balance_trajectory(
            &mut FabricRuntime::default(),
            &mut cluster,
            &metric,
            0.05,
            24,
        );
        assert!(*traj.last().unwrap() < traj[0] * 0.7, "{name}: {:?}", traj);
        assert!(!plan.moves.is_empty(), "{name}: no moves");
        // no dependency conflicts were created
        for vm in cluster.placement.vm_ids() {
            let host = cluster.placement.host_of(vm);
            for &other in cluster.placement.vms_on(host) {
                assert!(
                    other == vm || !cluster.deps.dependent(vm, other),
                    "{name}: conflict between {vm} and {other}"
                );
            }
        }
    }
}

#[test]
fn reroute_then_migrate_ordering() {
    // "shim will implement flow reroute first and then deal with VM
    // migration" — an outer-switch alert must never cause migration
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let mut cluster = cluster_on(dcn, 9, 0);
    let src = cluster
        .placement
        .vm_ids()
        .find(|&vm| {
            cluster.placement.rack_of(vm) == RackId(0)
                && !cluster.placement.spec(vm).delay_sensitive
        })
        .expect("migratable VM in rack 0");
    let dst = cluster
        .placement
        .vm_ids()
        .find(|&vm| cluster.placement.rack_of(vm) == RackId(2))
        .expect("VM in rack 2");
    let mut flows = FlowNetwork::route(
        &cluster.dcn,
        &cluster.placement,
        vec![Flow {
            src,
            dst,
            rate: 0.95,
            delay_sensitive: false,
        }],
    );
    let hot = flows.congested_switches(&cluster.dcn, 0.9);
    assert!(!hot.is_empty());
    let (sw, sev) = hot[0];
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let region = cluster.region_of(RackId(0));
    let mut ctx = MigrationContext {
        placement: &mut cluster.placement,
        inventory: &cluster.dcn.inventory,
        deps: &cluster.deps,
        metric: &metric,
        sim: &cluster.sim,
    };
    let out = sheriff_dcn::sheriff::pre_alert_management(
        &mut ctx,
        &cluster.dcn,
        Some(&mut flows),
        RackId(0),
        &region,
        &[Alert {
            rack: RackId(0),
            source: AlertSource::OuterSwitch(sw),
            severity: sev.min(1.0),
            time: 0,
        }],
        &|_| 0.95,
        3,
    );
    assert_eq!(out.plan.moves.len(), 0, "switch alert must not migrate");
    assert_eq!(out.reroutes.rerouted, 1);
    assert!(flows.flows_through_switch(&cluster.dcn, sw).is_empty());
}

#[test]
fn forecasting_feeds_alert_rule_end_to_end() {
    // ARIMA forecast of a rising series must cross the alert threshold
    // before the actual value does — the "pre" in pre-alert
    use sheriff_dcn::forecast::generator::{weekly_traffic_trace, TraceConfig};
    let cfg = TraceConfig {
        len: 400,
        samples_per_day: 72,
        seed: 4,
    };
    let y = weekly_traffic_trace(&cfg);
    let model = ArimaModel::fit(&y[..300], ArimaSpec::new(1, 1, 1)).expect("fits");
    let fc = model.forecast(&y[..300], 10);
    assert_eq!(fc.len(), 10);
    // forecasts stay within a sane envelope of the observed range
    let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for f in fc {
        assert!(
            f > lo - (hi - lo) && f < hi + (hi - lo),
            "runaway forecast {f}"
        );
    }
}

#[test]
fn cross_topology_metric_consistency() {
    // the Eqn. 1 metric must satisfy basic sanity on every topology
    for dcn in [
        fattree::build(&FatTreeConfig::paper(4)),
        bcube::build(&BCubeConfig::paper(4)),
    ] {
        let sim = SimConfig::paper();
        let metric = RackMetric::build(&dcn, &sim);
        let n = dcn.rack_count();
        for i in 0..n.min(6) {
            for j in 0..n.min(6) {
                let (a, b) = (RackId::from_index(i), RackId::from_index(j));
                let c = metric.migration_cost(&sim, 10.0, a, b, 1.0);
                assert!(c >= sim.c_r, "cost below C_r");
                if i != j {
                    let back = metric.migration_cost(&sim, 10.0, b, a, 1.0);
                    assert!((c - back).abs() < 1e-9, "asymmetric cost {c} vs {back}");
                }
            }
        }
    }
}

use sheriff_dcn::sheriff::MigrationContext;
