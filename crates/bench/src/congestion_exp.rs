//! Extension experiment `qcn`: the closed congestion-control loop —
//! elephant flows saturate edge links, switch queues build, QCN feedback
//! raises outer-switch alerts, the shims' FLOWREROUTE (Alg. 1 case 1)
//! drains the queues. Regenerates the timeline the paper's Sec. III-B
//! narrates.

use crate::report::Table;
use dcn_sim::congestion::CongestionSim;
use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::flows::{Flow, FlowNetwork};
use dcn_sim::{Alert, AlertSource, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::{RackId, VmId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sheriff_core::reroute_switch_alerts;
use sheriff_obs::NullSink;

/// Run the congestion loop for `steps` steps: heavy cross-pod flows, QCN
/// queues, and shims reacting through Alg. 1's outer-switch arm at each
/// alert. Reports the worst queue per step and the cumulative reroutes.
pub fn qcn_experiment(steps: usize, seed: u64) -> Table {
    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let cluster = Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.0,
            skew: 1.0,
            seed,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    );

    // Congestion from *overlap*: pairs of medium flows between the same
    // rack pair initially share the one distance-shortest path (combined
    // 1.1 > the 0.85 service rate); rerouting separates them onto the
    // fabric's parallel paths, after which each link runs at 0.55 and
    // queues drain. A flow bigger than any single link could never be
    // healed by rerouting.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF10);
    let vms: Vec<VmId> = cluster.placement.vm_ids().collect();
    let vms_in_rack = |rack: RackId| -> Vec<VmId> {
        vms.iter()
            .copied()
            .filter(|&vm| cluster.placement.rack_of(vm) == rack)
            .collect()
    };
    // racks populous enough to source/sink two parallel flows
    let fat_racks: Vec<RackId> = (0..cluster.dcn.rack_count())
        .map(RackId::from_index)
        .filter(|&r| vms_in_rack(r).len() >= 2)
        .collect();
    let mut flow_list = Vec::new();
    for pair in fat_racks.chunks(2).take(2) {
        let [a, b] = pair else { continue };
        let srcs = vms_in_rack(*a);
        let dsts = vms_in_rack(*b);
        for i in 0..2 {
            flow_list.push(Flow {
                src: srcs[i],
                dst: dsts[i],
                rate: 0.55,
                delay_sensitive: false,
            });
        }
    }
    assert!(
        !flow_list.is_empty(),
        "cluster too sparse for the congestion scenario"
    );
    for _ in 0..4 {
        let src = vms[rng.gen_range(0..vms.len())];
        let dst = vms[rng.gen_range(0..vms.len())];
        if cluster.placement.rack_of(src) != cluster.placement.rack_of(dst) {
            flow_list.push(Flow {
                src,
                dst,
                rate: rng.gen_range(0.05..0.15),
                delay_sensitive: rng.gen_bool(0.2),
            });
        }
    }
    let mut flows = FlowNetwork::route(&cluster.dcn, &cluster.placement, flow_list);
    let mut qcn = CongestionSim::new(&cluster.dcn);

    let mut t = Table::new(
        "qcn",
        "Closed loop: QCN queues vs FLOWREROUTE reactions (extension)",
        &["step", "worst_queue", "alerts", "rerouted_cumulative"],
    );
    let mut rerouted_total = 0usize;
    let mut peak: f64 = 0.0;
    for step in 0..steps {
        let feedbacks = qcn.step(&cluster.dcn, &flows);
        peak = peak.max(qcn.worst_queue());
        // each feedback becomes an outer-switch alert delivered to the
        // shims whose racks source flows through the hot switch
        let mut alerts: Vec<Alert> = Vec::new();
        for (sw, _) in &feedbacks {
            let racks: std::collections::BTreeSet<RackId> = flows
                .flows_through_switch(&cluster.dcn, *sw)
                .into_iter()
                .map(|f| cluster.placement.rack_of(flows.flows()[f].src))
                .collect();
            for rack in racks {
                alerts.push(Alert {
                    rack,
                    source: AlertSource::OuterSwitch(*sw),
                    severity: qcn.severity(*sw).max(0.91),
                    time: step,
                });
            }
        }
        let alert_count = alerts.len();
        // every alert is an outer-switch alert: racks reroute in order
        let mut racks: Vec<RackId> = alerts.iter().map(|a| a.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        for rack in racks {
            let out = reroute_switch_alerts(
                &cluster.dcn,
                &cluster.placement,
                &cluster.sim,
                &mut flows,
                rack,
                &alerts,
                &mut NullSink,
            );
            rerouted_total += out.rerouted;
        }
        t.push(vec![
            step as f64,
            qcn.worst_queue(),
            alert_count as f64,
            rerouted_total as f64,
        ]);
    }
    let final_queue = qcn.worst_queue();
    t.note(format!(
        "peak queue {peak:.1} -> final {final_queue:.1} after {rerouted_total} reroutes"
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_reroutes_and_drains() {
        let t = qcn_experiment(60, 5);
        assert_eq!(t.rows.len(), 60);
        let rerouted = t.rows.last().unwrap()[3];
        assert!(rerouted > 0.0, "no reroutes happened");
        // the final worst queue must sit below the peak
        let peak = t.rows.iter().map(|r| r[1]).fold(0.0, f64::max);
        let final_q = t.rows.last().unwrap()[1];
        assert!(final_q <= peak, "queue should not end at its peak");
    }

    #[test]
    fn reroute_counter_is_monotone() {
        let t = qcn_experiment(40, 9);
        for w in t.rows.windows(2) {
            assert!(w[1][3] >= w[0][3]);
        }
    }
}
