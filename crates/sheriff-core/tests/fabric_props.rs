//! Property-based tests for the message-passing shim fabric: under *any*
//! seeded combination of channel faults (loss, duplication, reordering,
//! delay) and shim crashes, a fabric round must terminate, never exceed
//! host capacity (Eqn. 8), never co-locate dependent VMs (Eqn. 7), and
//! apply every ACKed migration exactly once.

use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::{ChannelFaults, RackMetric, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::HostId;
use proptest::prelude::*;
use sheriff_core::fabric::MAX_TICKS;
use sheriff_core::{CrashWindow, FabricConfig, FabricRuntime, RunCtx, Runtime};
use sheriff_obs::RingRecorder;

fn small_cluster(seed: u64) -> Cluster {
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Safety under arbitrary fault mixes: capacity and dependency
    /// invariants hold, the round terminates, and replaying the ACKed
    /// moves from the initial placement reproduces the final placement —
    /// i.e. each ACK was applied exactly once, despite duplicates,
    /// retransmissions and losses.
    #[test]
    fn fabric_round_is_safe_under_any_faults(
        cluster_seed in 0u64..6,
        net_seed in 0u64..1000,
        drop in 0.0f64..0.35,
        duplicate in 0.0f64..0.35,
        reorder in 0.0f64..0.35,
        delay_spread in 0u64..3,
        crash_first in any::<bool>(),
        crash_at in 0u64..24,
        recover_delay in 0u64..32,
    ) {
        let mut c = small_cluster(cluster_seed);
        let initial = c.placement.clone();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let alerts = c.fraction_alerts(0.15, 0);
        prop_assume!(!alerts.is_empty());
        let vals: Vec<f64> = c
            .placement
            .vm_ids()
            .map(|vm| c.placement.utilization(c.placement.host_of(vm)))
            .collect();

        // crash_first now exercises mid-round crashes too: crash_at == 0
        // with no recovery is the old whole-round semantics, anything else
        // is a timed window; recover_delay == 0 means the shim stays down
        let crashed = if crash_first {
            vec![CrashWindow {
                rack: alerts[0].rack,
                crash_at,
                recover_at: (recover_delay > 0).then(|| crash_at + recover_delay),
            }]
        } else {
            Vec::new()
        };
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

        // termination: bounded rounds x bounded retries x bounded backoff
        prop_assert!(report.ticks <= MAX_TICKS);

        // Eqn. 8: no host over capacity, ever
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            prop_assert!(
                c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9,
                "host {h} over capacity"
            );
        }

        // Eqn. 7: no dependent pair co-located
        for vm in c.placement.vm_ids() {
            let host = c.placement.host_of(vm);
            for &other in c.placement.vms_on(host) {
                prop_assert!(
                    other == vm || !c.deps.dependent(vm, other),
                    "dependent VMs {vm}/{other} share {host}"
                );
            }
        }

        // exactly-once: chaining the recorded moves from the initial
        // placement lands exactly on the final one (order-insensitive:
        // each VM migrates at most once per round)
        let mut loc: std::collections::HashMap<_, _> =
            c.placement.vm_ids().map(|vm| (vm, initial.host_of(vm))).collect();
        for m in &report.plan.moves {
            prop_assert_eq!(loc[&m.vm], m.from, "stale or doubled move for {}", m.vm);
            loc.insert(m.vm, m.to);
        }
        for vm in c.placement.vm_ids() {
            prop_assert_eq!(loc[&vm], c.placement.host_of(vm));
        }

        // accounting sanity
        let sum: f64 = report.plan.moves.iter().map(|m| m.cost).sum();
        prop_assert!((report.plan.total_cost - sum).abs() < 1e-9);
        prop_assert!(report.resends <= report.timeouts);

        // the always-on auditor agrees: nothing lost, duplicated, over
        // capacity, co-located, landed offline, or left half-committed
        prop_assert!(report.audit.is_clean(), "{}", report.audit);
        let count = |name: &str| rec.counters().get(name);
        prop_assert_eq!(count("txn.committed") + count("txn.aborted"), count("txn.prepared"),
            "a prepared transaction neither committed nor aborted");
    }
}
