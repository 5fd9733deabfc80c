//! The work ratchet: exact, deterministic work counts of k=8 versions of
//! the four `benchmark/` workloads, plus one lossy partition case,
//! checked against `tests/work_budget.json`.
//!
//! Wall time on a shared host drifts between identical runs; message and
//! commit counts do not. Each workload runs 3 rounds (cluster and channel
//! seed 1, `vms_per_host` 2.5, `skew` 4.0) and its counters, summed over
//! the rounds, must equal the committed budget. A count that grows fails.
//! A count that drops fails too, until the budget file is lowered to the
//! new value in the same change, so a saving stays locked in.
//!
//! The alert fractions, channels, fault schedules and transfer model are
//! copies of `benchmark/src/workload.rs`, not imports: the benchmark is a
//! workspace of its own, and a budget must not move when it does.
//!
//! `net.blackholed` and `net.partitioned` pin the loss accounting of the
//! messages that shims read. At k=8 a shim's region is its pod's four
//! racks, so the partition case cuts racks 0–1 off from racks 2–3 of
//! the same pod, whose racks 0 and 2 are alerted in every round: their
//! beacons and 2PC traffic to each other cross the cut. A cut along pod
//! boundaries would cross no region, and no message would cross it.

use dcn_sim::{ChannelFaults, Cluster, ClusterConfig, RackMetric, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::RackId;
use sheriff_core::{
    CrashWindow, FabricConfig, FabricRuntime, LinkFaultWindow, PartitionWindow, RunCtx, Runtime,
    TransferConfig,
};
use sheriff_scenario::{TallySink, Value};
use std::collections::BTreeMap;

/// Fat-Tree `k` of every budgeted workload.
const PODS: usize = 8;
/// Rounds per workload, run on one kept runtime.
const ROUNDS: usize = 3;
/// Cluster seed and channel seed.
const SEED: u64 = 1;

/// The sink counters a budget entry may name, besides `fabric.ticks`.
const COUNTERS: [&str; 7] = [
    "fabric.activations",
    "net.sent",
    "net.delivered",
    "net.dropped",
    "net.blackholed",
    "net.partitioned",
    "migrations.committed",
];

/// Mid-round faults written into each round's fabric config.
#[derive(Clone, Copy)]
enum Faults {
    None,
    /// Two shims crash at tick 10 and recover at tick 60; the pair
    /// rotates with the round.
    ShimCrashes,
    /// On odd rounds every 8th graph edge fails for the transfer plane
    /// from tick 50 to tick 150.
    LinkFlaps,
    /// Racks 0–1, half of pod 0, are cut off from tick 10 to tick 60.
    Partition,
}

struct Workload {
    name: &'static str,
    alert_fraction: f64,
    channel: ChannelFaults,
    transfer: Option<TransferConfig>,
    faults: Faults,
}

/// The four benchmark workloads at k=8, then the partition case.
fn workloads() -> Vec<Workload> {
    let reliable = ChannelFaults::reliable;
    let lossy = || ChannelFaults {
        drop: 0.2,
        duplicate: 0.1,
        reorder: 0.0,
        delay_min: 1,
        delay_max: 4,
    };
    vec![
        Workload {
            name: "paper_k8",
            alert_fraction: 0.05,
            channel: reliable(),
            transfer: None,
            faults: Faults::None,
        },
        Workload {
            name: "hotspot_k8",
            alert_fraction: 0.30,
            channel: reliable(),
            transfer: None,
            faults: Faults::None,
        },
        Workload {
            name: "lossy_failover_k8",
            alert_fraction: 0.05,
            channel: lossy(),
            transfer: None,
            faults: Faults::ShimCrashes,
        },
        Workload {
            name: "transfer_k8",
            alert_fraction: 0.05,
            channel: reliable(),
            transfer: Some(TransferConfig {
                link_bandwidth: 1.0,
                bytes_per_capacity: 16.0,
                max_concurrent: 64,
                k_paths: 4,
                reroute_threshold: 0.02,
                ..TransferConfig::default()
            }),
            faults: Faults::LinkFlaps,
        },
        Workload {
            name: "lossy_partition_k8",
            alert_fraction: 0.05,
            channel: lossy(),
            transfer: None,
            faults: Faults::Partition,
        },
    ]
}

/// Run `w` for [`ROUNDS`] rounds and sum its work counts: the sink
/// counters in [`COUNTERS`] and the rounds' virtual ticks.
fn measure(w: &Workload) -> BTreeMap<&'static str, u64> {
    let dcn = fattree::build(&FatTreeConfig::paper(PODS));
    let ccfg = ClusterConfig {
        vms_per_host: 2.5,
        skew: 4.0,
        seed: SEED,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::try_build(dcn, &ccfg, SimConfig::paper()).expect("valid cluster");
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let mut cfg = FabricConfig::for_channel(w.channel.clone(), SEED);
    cfg.transfer = w.transfer;
    let mut runtime = FabricRuntime::with_config(cfg);
    let mut sink = TallySink::default();
    let mut ticks = 0;
    for t in 0..ROUNDS {
        match w.faults {
            Faults::None => {}
            Faults::Partition => {
                let cut = (0..2).map(RackId::from_index);
                runtime.cfg.partitions = vec![PartitionWindow::new(cut, 10, Some(60))];
            }
            Faults::ShimCrashes => {
                let racks = cluster.dcn.rack_count();
                let first = (t * 37) % racks;
                runtime.cfg.crashed = [first, (first + racks / 2) % racks]
                    .into_iter()
                    .map(|r| CrashWindow::during(RackId::from_index(r), 10, 60))
                    .collect();
            }
            Faults::LinkFlaps => {
                let edges = cluster.dcn.graph.edge_count();
                runtime.cfg.link_faults = if t % 2 == 1 {
                    (0..edges)
                        .step_by(8)
                        .map(|link| LinkFaultWindow::during(link, 50, 150))
                        .collect()
                } else {
                    Vec::new()
                };
            }
        }
        let alerts = cluster.fraction_alerts(w.alert_fraction, t);
        let values: Vec<f64> = cluster
            .placement
            .vm_ids()
            .map(|vm| cluster.placement.utilization(cluster.placement.host_of(vm)))
            .collect();
        let out = runtime.step(&mut RunCtx {
            cluster: &mut cluster,
            metric: &metric,
            alerts: &alerts,
            alert_values: &values,
            sink: &mut sink,
        });
        assert!(out.audit.is_clean(), "{} round {t}: unclean audit", w.name);
        ticks += out.ticks;
    }
    let mut counts: BTreeMap<&'static str, u64> = COUNTERS
        .iter()
        .map(|&name| (name, sink.counters.get(name)))
        .collect();
    counts.insert("fabric.ticks", ticks);
    counts
}

#[test]
fn work_stays_within_the_committed_budget() {
    let budget = Value::from_json(include_str!("work_budget.json")).expect("budget parses");
    let budget = budget.as_table().expect("budget is a table of workloads");
    let workloads = workloads();
    let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
    let mut failures = Vec::new();
    for name in budget.keys().filter(|k| !names.contains(&k.as_str())) {
        failures.push(format!("{name}: budgeted, but no such workload runs"));
    }
    for w in &workloads {
        let counts = measure(w);
        let Some(entries) = budget.get(w.name).and_then(Value::as_table) else {
            failures.push(format!("{}: no budget entry; measured {counts:?}", w.name));
            continue;
        };
        for key in entries.keys().filter(|k| !counts.contains_key(k.as_str())) {
            failures.push(format!("{}: {key} is budgeted but not measured", w.name));
        }
        for (&counter, &actual) in &counts {
            let Some(baseline) = entries.get(counter).and_then(Value::as_i64) else {
                failures.push(format!(
                    "{}: {counter} has no budget; measured {actual}",
                    w.name
                ));
                continue;
            };
            let baseline = baseline as u64;
            if actual > baseline {
                failures.push(format!(
                    "{}: {counter} grew: budget {baseline}, actual {actual}",
                    w.name
                ));
            } else if actual < baseline {
                failures.push(format!(
                    "{}: {counter} dropped: budget {baseline}, actual {actual}; \
                     lower tests/work_budget.json to {actual} in the same change",
                    w.name
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
