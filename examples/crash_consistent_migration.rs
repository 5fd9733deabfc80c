//! Crash-consistent migration commits: a shim is killed *between* its
//! PREPARE burst and the COMMIT phase, stays dark while its transfers
//! hang half-done, then recovers and replays its write-ahead intent
//! journal — re-ACKing committed transfers and lease-aborting orphaned
//! prepares — before rejoining the round. The always-on invariant
//! auditor verifies that no VM was lost, duplicated or left in a
//! half-committed state.
//!
//! ```text
//! cargo run --release --example crash_consistent_migration
//! ```

use sheriff_dcn::prelude::*;

fn build_cluster() -> Cluster {
    let dcn = fattree::build(&FatTreeConfig::paper(8));
    Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 4.0,
            seed: 31,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    )
}

fn main() {
    // dry-run the identical round on a healthy fabric to discover which
    // rack absorbs the most migrations — that destination shim holds the
    // largest intent journal, making it the worst possible crash victim
    let victim = {
        let mut probe = build_cluster();
        let metric = RackMetric::build(&probe.dcn, &probe.sim);
        let alerts = probe.fraction_alerts(0.10, 0);
        let vals: Vec<f64> = probe
            .placement
            .vm_ids()
            .map(|vm| probe.placement.utilization(probe.placement.host_of(vm)))
            .collect();
        let cfg = FabricConfig {
            faults: ChannelFaults::lossy(0.02),
            seed: 7,
            ..FabricConfig::default()
        };
        let out = FabricRuntime::with_config(cfg).step(&mut RunCtx {
            cluster: &mut probe,
            metric: &metric,
            alerts: &alerts,
            alert_values: &vals,
            sink: &mut NullSink,
        });
        let mut per_rack = vec![0usize; probe.dcn.rack_count()];
        for m in &out.plan.moves {
            per_rack[probe.placement.rack_of_host(m.to).index()] += 1;
        }
        let busiest = (0..per_rack.len()).max_by_key(|&r| per_rack[r]).unwrap();
        println!(
            "dry run: rack {busiest} is the busiest destination ({} transfers land there)",
            per_rack[busiest]
        );
        RackId::from_index(busiest)
    };

    let mut cluster = build_cluster();
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let alerts = cluster.fraction_alerts(0.10, 0);
    let alert_values: Vec<f64> = cluster
        .placement
        .vm_ids()
        .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
        .collect();

    // the fabric's timeline on this channel: beacons at t=0, and no shim
    // plans before t=7, one tick past the channel's longest delivery
    // delay (3 ticks plus the 3-tick reorder hold-back). PREPAREs sent at
    // t=7 are journalled at the destinations from t=8, PREPARE-OKs come
    // back from t=9 and COMMITs land from t=10. Killing the busiest
    // destination at t=14 catches its journal holding a committed
    // transfer (whose ACK may still be in flight) plus prepared ones
    // still waiting for their COMMIT; at t=22 it replays that journal
    // and rejoins.
    println!(
        "shim of rack {} dies at tick 14 (mid-2PC), replays its journal at tick 22\n",
        victim.index()
    );

    let cfg = FabricConfig {
        faults: ChannelFaults::lossy(0.02),
        seed: 7,
        crashed: vec![CrashWindow::during(victim, 14, 22)],
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
    println!("  transactions PREPAREd   {:>5}", count("txn.prepared"));
    println!("  transactions COMMITted  {:>5}", count("txn.committed"));
    println!("  transactions ABORTed    {:>5}", count("txn.aborted"));
    println!("  shims recovered         {:>5}", report.recoveries);
    println!("  migrations recorded     {:>5}", report.plan.moves.len());
    println!("  messages dropped        {:>5}", count("net.dropped"));
    println!("  retransmissions         {:>5}", report.resends);

    println!("\ncrash/recovery trace (from the event stream):");
    println!("  shim_crashed    {:>5}", rec.count_kind("shim_crashed"));
    println!("  shim_recovered  {:>5}", rec.count_kind("shim_recovered"));
    println!("  txn_prepared    {:>5}", rec.count_kind("txn_prepared"));
    println!("  txn_committed   {:>5}", rec.count_kind("txn_committed"));
    println!("  txn_aborted     {:>5}", rec.count_kind("txn_aborted"));
    println!(
        "  journal entries replayed on recovery: {} (re-ACKs {}, commit-forwards {})",
        count("journal.replayed"),
        count("journal.reacked"),
        count("journal.forwarded"),
    );

    // the verdict: every invariant held despite the mid-2PC crash
    println!("\n{}", report.audit);
    println!(
        "std-dev after the round {:.1}%, total migration cost {:.1}",
        cluster.utilization_stddev(),
        report.plan.total_cost
    );
    assert!(report.audit.is_clean(), "auditor found violations");
    assert!(
        count("journal.replayed") > 0,
        "the crash caught no journalled transaction"
    );
}
