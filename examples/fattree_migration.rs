//! The Fig. 9/11/12 scenario: regional Sheriff vs the centralized global
//! manager on a Fat-Tree — balance trajectory, migration cost, and search
//! space side by side.
//!
//! ```text
//! cargo run --release --example fattree_migration [pods]
//! ```

use sheriff_dcn::prelude::*;
use sheriff_dcn::sheriff::centralized_migration_chunked;
use sheriff_dcn::sheriff::vmmigration::MigrationContext;
use sheriff_dcn::sim::AlertSource;

fn main() {
    let pods: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    let build = || {
        let dcn = fattree::build(&FatTreeConfig {
            hosts_per_rack: 2,
            ..FatTreeConfig::paper(pods)
        });
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.0,
                skew: 4.0,
                seed: 42,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    };

    let mut regional = build();
    let mut central = build();
    println!(
        "{pods}-pod Fat-Tree: {} racks, {} hosts, {} VMs",
        regional.dcn.rack_count(),
        regional.placement.host_count(),
        regional.placement.vm_count()
    );
    let metric = RackMetric::build(&regional.dcn, &regional.sim);

    // shared candidate set: the max-ALERT VM on each of the 5% hottest hosts
    let alert_values: Vec<f64> = regional
        .placement
        .vm_ids()
        .map(|vm| {
            regional
                .placement
                .utilization(regional.placement.host_of(vm))
        })
        .collect();
    let alerts = regional.fraction_alerts(0.05, 0);
    let candidates: Vec<VmId> = alerts
        .iter()
        .filter_map(|a| match a.source {
            AlertSource::Host(h) => priority(
                regional.placement.vms_on(h),
                &regional.placement,
                |vm| alert_values[vm.index()],
                Budget::SingleMaxAlert,
            )
            .first()
            .copied(),
            _ => None,
        })
        .collect();
    println!(
        "{} alerting hosts, {} candidate VMs\n",
        alerts.len(),
        candidates.len()
    );

    // --- regional Sheriff: one round of the per-rack shims -----------------
    let (stddev, sheriff) = balance_trajectory(
        &mut FabricRuntime::default(),
        &mut regional,
        &metric,
        0.05,
        1,
    );
    println!(
        "Sheriff (regional): {:>4} moves, cost {:>9.0}, search space {:>8}, std-dev {:.1}% -> {:.1}%",
        sheriff.moves.len(),
        sheriff.total_cost,
        sheriff.search_space,
        stddev[0],
        stddev[1]
    );

    // --- centralized global manager ---------------------------------------
    let before = central.utilization_stddev();
    let plan = {
        let mut ctx = MigrationContext {
            placement: &mut central.placement,
            inventory: &central.dcn.inventory,
            deps: &central.deps,
            metric: &metric,
            sim: &central.sim,
        };
        centralized_migration_chunked(&mut ctx, &candidates, 64, 3)
    };
    println!(
        "Centralized manager: {:>3} moves, cost {:>9.0}, search space {:>8}, std-dev {:.1}% -> {:.1}%",
        plan.moves.len(),
        plan.total_cost,
        plan.search_space,
        before,
        central.utilization_stddev()
    );

    let ratio = plan.search_space as f64 / sheriff.search_space.max(1) as f64;
    println!(
        "\nSheriff examined {ratio:.0}x fewer candidate pairs for {:+.1}% cost difference",
        (sheriff.total_cost / plan.total_cost.max(1e-9) - 1.0) * 100.0
    );
}
