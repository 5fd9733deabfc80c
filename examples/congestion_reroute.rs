//! The FLOWREROUTE path (Sec. III-B): flows between dependent VMs
//! saturate a link, the switch's QCN congestion point signals, the shim
//! raises an outer-switch alert, and Sheriff reroutes the conflicting
//! flows around the hot switch — cheaper and faster than migration.
//!
//! ```text
//! cargo run --release --example congestion_reroute
//! ```

use sheriff_dcn::prelude::*;
use sheriff_dcn::sheriff::{flow_reroute, pre_alert_management, MigrationContext};
use sheriff_dcn::sim::flows::{Flow, FlowNetwork};
use sheriff_dcn::sim::qcn::{CongestionPoint, ReactionPoint};

fn main() {
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let mut cluster = Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.0,
            skew: 1.0,
            seed: 5,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    );

    // pick two VMs in different pods and drive heavy traffic between them
    let src = cluster
        .placement
        .vm_ids()
        .find(|&vm| cluster.placement.rack_of(vm) == RackId(0))
        .expect("rack 0 populated");
    let dst = cluster
        .placement
        .vm_ids()
        .find(|&vm| cluster.placement.rack_of(vm) == RackId(3))
        .expect("rack 3 populated");
    let mut flows = FlowNetwork::route(
        &cluster.dcn,
        &cluster.placement,
        vec![
            Flow {
                src,
                dst,
                rate: 0.95,
                delay_sensitive: false,
            },
            Flow {
                src: dst,
                dst: src,
                rate: 0.30,
                delay_sensitive: true,
            },
        ],
    );
    println!("flow {src}->{dst} at 0.95 over edge links of capacity 1.0");

    // --- QCN at the congested switch --------------------------------------
    let mut cp = CongestionPoint::default();
    let mut rp = ReactionPoint::new(0.95);
    for step in 0..8 {
        // arrivals above service rate build the queue
        if let Some(fb) = cp.sample(rp.rate() * 40.0, 30.0) {
            rp.on_feedback(fb);
            println!(
                "  step {step}: queue {:>5.1}, feedback {:>6.1} -> sender rate {:.3}",
                cp.queue_len(),
                fb.fb,
                rp.rate()
            );
        } else {
            rp.on_quiet_cycle();
            println!(
                "  step {step}: queue {:>5.1}, no congestion -> recovery to {:.3}",
                cp.queue_len(),
                rp.rate()
            );
        }
    }

    // --- the shim's reaction: FLOWREROUTE ---------------------------------
    let hot = flows.congested_switches(&cluster.dcn, 0.9);
    println!("\ncongested switches above 90% utilisation: {:?}", hot);
    let (sw, worst) = hot[0];
    println!("hot switch {sw} at {:.0}% — rerouting", worst * 100.0);

    let ids = flows.flows_through_switch(&cluster.dcn, sw);
    let report = flow_reroute(&cluster.dcn, &cluster.placement, &mut flows, sw, &ids);
    println!(
        "rerouted {} flow(s), {} stuck, {} delay-sensitive left untouched",
        report.rerouted, report.stuck, report.skipped_delay_sensitive
    );
    println!(
        "flows still through {sw}: {}",
        flows.flows_through_switch(&cluster.dcn, sw).len()
    );

    // --- or drive the whole thing through Alg. 1 --------------------------
    let alert = Alert {
        rack: RackId(0),
        source: AlertSource::OuterSwitch(sw),
        severity: worst.min(1.0),
        time: 0,
    };
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let region = cluster.region_of(RackId(0));
    let mut ctx = MigrationContext {
        placement: &mut cluster.placement,
        inventory: &cluster.dcn.inventory,
        deps: &cluster.deps,
        metric: &metric,
        sim: &cluster.sim,
    };
    let outcome = pre_alert_management(
        &mut ctx,
        &cluster.dcn,
        Some(&mut flows),
        RackId(0),
        &region,
        &[alert],
        &|_| 0.95,
        3,
    );
    println!(
        "\nAlg. 1 outcome: {} rerouted, {} migrations (switch alerts reroute, they do not migrate)",
        outcome.reroutes.rerouted,
        outcome.plan.moves.len()
    );
}
