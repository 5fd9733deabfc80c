//! Failure-injection integration tests: dead links, failing hosts, rack
//! drains, degraded-fabric balancing — the crash scenarios Sec. III-A
//! delegates to the "backup system" — and crash-consistency of the 2PC
//! migration fabric under randomized mid-round shim crash/recover
//! schedules on lossy channels.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_dcn::prelude::*;
use sheriff_dcn::sheriff::fabric::MAX_TICKS;
use sheriff_dcn::sheriff::{drain_rack, evacuate_host, MigrationContext};
use sheriff_dcn::sim::faults::{fail_link, fail_random_links, racks_connected};

fn cluster(seed: u64) -> Cluster {
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
fn balancing_still_works_on_degraded_fabric() {
    let mut c = cluster(51);
    let mut rng = StdRng::seed_from_u64(7);
    // kill 10% of links; an 8-pod fat-tree stays connected
    fail_random_links(&mut c.dcn, &mut rng, 0.10);
    assert!(racks_connected(&c.dcn, c.sim.bandwidth_threshold));
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let (traj, plan) = balance_trajectory(&mut FabricRuntime::default(), &mut c, &metric, 0.05, 16);
    assert!(!plan.moves.is_empty(), "no migrations on degraded fabric");
    assert!(
        *traj.last().unwrap() < traj[0],
        "balancing regressed: {traj:?}"
    );
    // capacity invariants survive
    for h in 0..c.placement.host_count() {
        let h = HostId::from_index(h);
        assert!(c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9);
    }
}

#[test]
fn migrations_avoid_dead_links() {
    let mut c = cluster(52);
    // cut every uplink of rack 0 except one: migrations out of rack 0
    // must still succeed through the survivor
    let node = c.dcn.rack_node(RackId(0));
    let edges: Vec<_> = c
        .dcn
        .graph
        .neighbors(node)
        .iter()
        .map(|&(_, e)| e)
        .collect();
    for &e in &edges[1..] {
        fail_link(&mut c.dcn, e);
    }
    let metric = RackMetric::build(&c.dcn, &c.sim);
    assert!(metric.reachable(RackId(0), RackId(1)));
    let host = *c.dcn.inventory.hosts_in(RackId(0)).first().unwrap();
    if c.placement.vms_on(host).is_empty() {
        return;
    }
    let region = c.dcn.neighbor_racks(RackId(0), 2);
    let mut ctx = MigrationContext {
        placement: &mut c.placement,
        inventory: &c.dcn.inventory,
        deps: &c.deps,
        metric: &metric,
        sim: &c.sim,
    };
    let plan = evacuate_host(&mut ctx, host, &region, 5);
    assert!(c.placement.vms_on(host).is_empty());
    assert!(plan.unplaced.is_empty());
}

#[test]
fn cascading_host_failures_are_absorbed() {
    let mut c = cluster(53);
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let vm_total = c.placement.vm_count();
    // fail the three busiest hosts in sequence
    for _ in 0..3 {
        let host = (0..c.placement.host_count())
            .map(HostId::from_index)
            .max_by_key(|&h| c.placement.vms_on(h).len())
            .unwrap();
        let rack = c.placement.rack_of_host(host);
        let region = c.dcn.neighbor_racks(rack, 2);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = evacuate_host(&mut ctx, host, &region, 5);
        assert!(plan.unplaced.is_empty(), "evacuation left VMs stranded");
        assert!(c.placement.vms_on(host).is_empty());
    }
    // nothing was lost
    assert_eq!(c.placement.vm_count(), vm_total);
    // and no dependency conflicts were created
    for vm in c.placement.vm_ids() {
        let host = c.placement.host_of(vm);
        for &other in c.placement.vms_on(host) {
            assert!(other == vm || !c.deps.dependent(vm, other));
        }
    }
}

#[test]
fn rack_drain_then_balance_round_trip() {
    let mut c = cluster(54);
    let metric = RackMetric::build(&c.dcn, &c.sim);
    let rack = RackId(2);
    let region = c.dcn.neighbor_racks(rack, 4);
    {
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = drain_rack(&mut ctx, rack, &region, 5);
        assert!(plan.unplaced.is_empty());
    }
    for &h in c.dcn.inventory.hosts_in(rack) {
        assert!(c.placement.vms_on(h).is_empty());
    }
    // the drain concentrated load elsewhere; a few Sheriff rounds spread
    // it back out
    let before = c.utilization_stddev();
    let (traj, _) = balance_trajectory(&mut FabricRuntime::default(), &mut c, &metric, 0.05, 10);
    assert!(*traj.last().unwrap() <= before, "{traj:?}");
}

#[test]
fn partitioned_rack_reports_unplaced_instead_of_panicking() {
    let mut c = cluster(55);
    // isolate rack 0 completely
    let node = c.dcn.rack_node(RackId(0));
    let edges: Vec<_> = c
        .dcn
        .graph
        .neighbors(node)
        .iter()
        .map(|&(_, e)| e)
        .collect();
    for e in edges {
        fail_link(&mut c.dcn, e);
    }
    let metric = RackMetric::build(&c.dcn, &c.sim);
    assert!(!metric.reachable(RackId(0), RackId(1)));
    // fill rack 0's hosts so an intra-rack reshuffle cannot absorb the
    // evacuation, then try to evacuate one host
    let hosts = c.dcn.inventory.hosts_in(RackId(0)).to_vec();
    let host = hosts[0];
    let vms: Vec<VmId> = c.placement.vms_on(host).to_vec();
    if vms.is_empty() {
        return;
    }
    // consume the sibling hosts' free capacity
    for &h in &hosts[1..] {
        while c.placement.free_capacity(h) >= 5.0 {
            let spec = VmSpec {
                id: c.placement.next_vm_id(),
                capacity: 5.0,
                value: 1.0,
                delay_sensitive: false,
            };
            if c.placement.add_vm(spec, h).is_err() {
                break;
            }
        }
    }
    let region = c.dcn.neighbor_racks(RackId(0), 4);
    let mut ctx = MigrationContext {
        placement: &mut c.placement,
        inventory: &c.dcn.inventory,
        deps: &c.deps,
        metric: &metric,
        sim: &c.sim,
    };
    let plan = evacuate_host(&mut ctx, host, &region, 3);
    // VMs that cannot cross the partition are reported, not lost
    for vm in &plan.unplaced {
        assert_eq!(c.placement.host_of(*vm), host);
    }
    let accounted = plan.moves.len() + plan.unplaced.len();
    assert_eq!(accounted, vms.len());
}

fn fabric_cluster(seed: u64) -> Cluster {
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 3.0,
            seed,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Crash-consistency of the 2PC migration fabric: under any lossy
    /// channel and any schedule of mid-round shim crashes — with and
    /// without recovery, hitting sources and destinations alike — the
    /// invariant auditor finds nothing (no VM lost, duplicated, over
    /// capacity, co-located with a dependent, or landed offline; journals
    /// agree with the placement) and every prepared transaction resolves
    /// to COMMIT or ABORT before the round settles: no permanent zombies.
    #[test]
    fn fabric_is_crash_consistent_under_random_schedules(
        cluster_seed in 0u64..8,
        net_seed in 0u64..10_000,
        drop in 0.0f64..0.30,
        duplicate in 0.0f64..0.25,
        reorder in 0.0f64..0.25,
        delay_spread in 0u64..3,
        windows in proptest::collection::vec((0usize..16, 0u64..24, 0u64..20), 1..4),
    ) {
        let mut c = fabric_cluster(cluster_seed);
        let initial = c.placement.clone();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.15, 0);
        prop_assume!(!alerts.is_empty());
        let vals: Vec<f64> = c
            .placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect();

        // one crash window per distinct rack; rack indices are drawn over
        // the whole fat-tree so the schedule hits alerted sources and
        // innocent destinations alike, and recover_delay 0 = stays down
        let racks = c.dcn.rack_count();
        let mut crashed: Vec<CrashWindow> = Vec::new();
        for &(rack, crash_at, recover_delay) in &windows {
            let rack = RackId::from_index(rack % racks);
            if crashed.iter().any(|w| w.rack == rack) {
                continue;
            }
            crashed.push(CrashWindow {
                rack,
                crash_at,
                recover_at: (recover_delay > 0).then(|| crash_at + recover_delay),
            });
        }

        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop,
                duplicate,
                reorder,
                delay_min: 1,
                delay_max: 1 + delay_spread,
            },
            seed: net_seed,
            crashed,
            ..FabricConfig::default()
        };
        let mut rec = RingRecorder::new(1);
        let report = FabricRuntime::with_config(cfg).step(&mut RunCtx {
            cluster: &mut c,
            metric: &metric,
            alerts: &alerts,
            alert_values: &vals,
            sink: &mut rec,
        });
        let count = |name: &str| rec.counters().get(name);

        prop_assert!(report.ticks <= MAX_TICKS, "round wedged");
        prop_assert!(report.audit.is_clean(), "{}", report.audit);
        prop_assert_eq!(
            count("txn.committed") + count("txn.aborted"),
            count("txn.prepared"),
            "a prepared transaction neither committed nor aborted"
        );

        // exactly-once despite crashes: replaying the recorded moves from
        // the initial placement reproduces the final placement
        let mut loc: std::collections::HashMap<VmId, HostId> = c
            .placement
            .vm_ids()
            .map(|vm| (vm, initial.host_of(vm)))
            .collect();
        for m in &report.plan.moves {
            prop_assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            prop_assert_eq!(loc[&vm], c.placement.host_of(vm));
        }
    }

    /// Partition tolerance: under any schedule of named partition cuts
    /// and heals — minority cuts, overlapping sets, cuts that never heal
    /// — the fabric's audit stays clean, every prepared transaction
    /// resolves, a partition alone never triggers a takeover or an epoch
    /// bump (the detector watches heartbeat *emission*, and a cut shim
    /// keeps emitting), and five repeat runs are byte-identical.
    #[test]
    fn fabric_survives_random_partition_heal_schedules(
        cluster_seed in 0u64..8,
        net_seed in 0u64..10_000,
        drop in 0.0f64..0.15,
        parts in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..16, 1..4),
                0u64..16,
                0u64..24,
            ),
            1..3,
        ),
    ) {
        let racks = fabric_cluster(cluster_seed).dcn.rack_count();
        let partitions: Vec<PartitionWindow> = parts
            .iter()
            .map(|(members, start_at, heal_delay)| {
                let members: Vec<RackId> =
                    members.iter().map(|&r| RackId::from_index(r % racks)).collect();
                PartitionWindow::new(
                    members,
                    *start_at,
                    (*heal_delay > 0).then(|| start_at + heal_delay),
                )
            })
            .collect();
        let cfg = FabricConfig {
            faults: ChannelFaults {
                drop,
                delay_min: 1,
                delay_max: 2,
                ..ChannelFaults::reliable()
            },
            seed: net_seed,
            partitions,
            ..FabricConfig::default()
        };

        let mut reference: Option<String> = None;
        for attempt in 0..5 {
            let mut c = fabric_cluster(cluster_seed);
            let initial = c.placement.clone();
            let metric = RackMetric::build(&c.dcn, &c.sim);
            let alerts = c.fraction_alerts(0.15, 0);
            prop_assume!(!alerts.is_empty());
            let vals: Vec<f64> = c
                .placement
                .vm_ids()
                .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
                .collect();
            let mut rec = RingRecorder::new(1);
            let report = FabricRuntime::with_config(cfg.clone()).step(&mut RunCtx {
                cluster: &mut c,
                metric: &metric,
                alerts: &alerts,
                alert_values: &vals,
                sink: &mut rec,
            });
            let count = |name: &str| rec.counters().get(name);

            prop_assert!(report.ticks <= MAX_TICKS, "round wedged");
            prop_assert!(report.audit.is_clean(), "{}", report.audit);
            prop_assert_eq!(
                count("txn.committed") + count("txn.aborted"),
                count("txn.prepared"),
                "a prepared transaction neither committed nor aborted"
            );
            prop_assert_eq!(count("region.takeovers"), 0, "a partition is not a crash");
            prop_assert_eq!(count("txn.fenced"), 0, "no epoch bumped, nothing to fence");

            // exactly-once under the cut: the recorded moves replayed
            // from the initial placement land on the final one
            let mut loc: std::collections::HashMap<VmId, HostId> = c
                .placement
                .vm_ids()
                .map(|vm| (vm, initial.host_of(vm)))
                .collect();
            for m in &report.plan.moves {
                prop_assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
                loc.insert(m.vm, m.to);
            }
            for vm in c.placement.vm_ids() {
                prop_assert_eq!(loc[&vm], c.placement.host_of(vm));
            }

            let digest = format!(
                "{:?}|{:?}|{}|{}|{}|{}|{}",
                report
                    .plan
                    .moves
                    .iter()
                    .map(|m| (m.vm, m.from, m.to))
                    .collect::<Vec<_>>(),
                c.placement
                    .vm_ids()
                    .map(|vm| c.placement.host_of(vm))
                    .collect::<Vec<_>>(),
                report.ticks,
                count("net.dropped"),
                report.partition_degraded,
                report.reconciliations,
                count("txn.committed"),
            );
            match &reference {
                None => reference = Some(digest),
                Some(r) => prop_assert_eq!(
                    r,
                    &digest,
                    "run {} diverged under the same partition schedule",
                    attempt
                ),
            }
        }
    }
}
