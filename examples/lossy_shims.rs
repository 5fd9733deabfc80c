//! A full pre-alert round over an unreliable shim channel: 5% message
//! loss plus one crashed shim. The fabric runtime negotiates every
//! migration with REQUEST/ACK/REJECT messages subject to drops,
//! duplication, reordering and variable delay; timeouts trigger
//! exponential-backoff retransmission, and shims that stay silent are
//! presumed dead and routed around (Sec. III-A's backup behaviour).
//!
//! ```text
//! cargo run --release --example lossy_shims
//! ```

use sheriff_dcn::prelude::*;

fn main() {
    let dcn = fattree::build(&FatTreeConfig::paper(8));
    let mut cluster = Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 4.0,
            seed: 99,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    );
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    println!(
        "{} racks, {} VMs, initial std-dev {:.1}%",
        cluster.dcn.rack_count(),
        cluster.placement.vm_count(),
        cluster.utilization_stddev()
    );

    let alerts = cluster.fraction_alerts(0.10, 0);
    let crashed = alerts[0].rack;
    println!(
        "{} pre-alerts; channel at 5% loss; shim of rack {crashed} crashed\n",
        alerts.len()
    );

    let alert_values: Vec<f64> = cluster
        .placement
        .vm_ids()
        .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
        .collect();
    let cfg = FabricConfig {
        faults: ChannelFaults::lossy(0.05),
        seed: 7,
        crashed: vec![CrashWindow::whole_round(crashed)],
        ..FabricConfig::default()
    };
    let mut rec = RingRecorder::new(1 << 14);
    let report = FabricRuntime::with_config(cfg).step(&mut RunCtx {
        cluster: &mut cluster,
        metric: &metric,
        alerts: &alerts,
        alert_values: &alert_values,
        sink: &mut rec,
    });
    let count = |name: &str| rec.counters().get(name);

    println!("fabric round finished in {} virtual ticks:", report.ticks);
    println!("  shims participating   {:>5}", report.shims);
    println!("  shims crashed         {:>5}", report.crashed_shims);
    println!(
        "  shims degraded        {:>5}",
        rec.count_kind("shim_degraded")
    );
    println!("  migrations committed  {:>5}", report.plan.moves.len());
    println!("  REQUESTs rejected     {:>5}", report.plan.rejected);
    println!("  VMs left unplaced     {:>5}", report.plan.unplaced.len());
    println!("  messages dropped      {:>5}", count("net.dropped"));
    println!("  reply timeouts        {:>5}", report.timeouts);
    println!("  retransmissions       {:>5}", report.resends);
    println!(
        "  duplicate commits absorbed {:>2} (req-id dedup)",
        count("net.dedup_hits")
    );
    println!(
        "\nstd-dev after the round {:.1}%, total migration cost {:.1}",
        cluster.utilization_stddev(),
        report.plan.total_cost
    );

    // the channel may lie, the placement may not: verify the invariants
    let mut capacity_ok = true;
    for h in 0..cluster.placement.host_count() {
        let h = HostId::from_index(h);
        capacity_ok &=
            cluster.placement.used_capacity(h) <= cluster.placement.host_capacity(h) + 1e-9;
    }
    let mut conflicts = 0;
    for vm in cluster.placement.vm_ids() {
        let host = cluster.placement.host_of(vm);
        for &other in cluster.placement.vms_on(host) {
            if other != vm && cluster.deps.dependent(vm, other) {
                conflicts += 1;
            }
        }
    }
    println!(
        "invariants under faults: capacity {} | dependency conflicts {}",
        if capacity_ok { "OK" } else { "VIOLATED" },
        conflicts / 2
    );
}
