//! Failure injection and recovery: links die, the cost metric routes
//! migrations around them, and a failing host is evacuated by the backup
//! system (Sec. III-A) using the same matching machinery as VMMIGRATION.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_dcn::prelude::*;
use sheriff_dcn::sheriff::{drain_rack, evacuate_host};
use sheriff_dcn::sim::faults::{fail_random_links, racks_connected};

fn main() {
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let mut cluster = Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.0,
            skew: 2.0,
            seed: 17,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    );
    println!(
        "{} racks, {} hosts, {} VMs placed",
        cluster.dcn.rack_count(),
        cluster.placement.host_count(),
        cluster.placement.vm_count()
    );

    // --- 1. link failures -------------------------------------------------
    let mut rng = StdRng::seed_from_u64(3);
    let failed = fail_random_links(&mut cluster.dcn, &mut rng, 0.15);
    println!(
        "\nkilled {} of {} links; racks still connected: {}",
        failed.len(),
        cluster.dcn.graph.edge_count(),
        racks_connected(&cluster.dcn, cluster.sim.bandwidth_threshold)
    );
    // the metric is rebuilt over the degraded fabric: dead links are
    // excluded, migrations route around them
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let reachable_pairs = (0..cluster.dcn.rack_count())
        .flat_map(|a| (0..cluster.dcn.rack_count()).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b)
        .filter(|&(a, b)| metric.reachable(RackId::from_index(a), RackId::from_index(b)))
        .count();
    println!(
        "reachable rack pairs on the degraded fabric: {reachable_pairs}/{}",
        cluster.dcn.rack_count() * (cluster.dcn.rack_count() - 1)
    );

    // --- 2. host failure: evacuate ---------------------------------------
    let host = (0..cluster.placement.host_count())
        .map(HostId::from_index)
        .max_by_key(|&h| cluster.placement.vms_on(h).len())
        .expect("hosts exist");
    let vms = cluster.placement.vms_on(host).len();
    let rack = cluster.placement.rack_of_host(host);
    let region = cluster.dcn.neighbor_racks(rack, 2);
    println!("\nhost {host} (rack {rack}) fails with {vms} VMs aboard");
    let plan = {
        let mut ctx = MigrationContext {
            placement: &mut cluster.placement,
            inventory: &cluster.dcn.inventory,
            deps: &cluster.deps,
            metric: &metric,
            sim: &cluster.sim,
        };
        evacuate_host(&mut ctx, host, &region, 5).expect("host and region come from the cluster")
    };
    println!(
        "evacuated {} VMs at cost {:.0}; host now holds {} VMs",
        plan.moves.len(),
        plan.total_cost,
        cluster.placement.vms_on(host).len()
    );

    // --- 3. rack maintenance: drain --------------------------------------
    let drain = RackId(1);
    let rack_vms: usize = cluster
        .dcn
        .inventory
        .hosts_in(drain)
        .iter()
        .map(|&h| cluster.placement.vms_on(h).len())
        .sum();
    let region = cluster.dcn.neighbor_racks(drain, 4);
    println!("\ndraining rack {drain} ({rack_vms} VMs) for maintenance");
    let plan = {
        let mut ctx = MigrationContext {
            placement: &mut cluster.placement,
            inventory: &cluster.dcn.inventory,
            deps: &cluster.deps,
            metric: &metric,
            sim: &cluster.sim,
        };
        drain_rack(&mut ctx, drain, &region, 5).expect("rack and region come from the cluster")
    };
    let landed_home = plan
        .moves
        .iter()
        .filter(|m| cluster.placement.rack_of_host(m.to) == drain)
        .count();
    println!(
        "drained {} VMs ({} unplaced, {} landed back home — must be 0)",
        plan.moves.len(),
        plan.unplaced.len(),
        landed_home
    );
}
