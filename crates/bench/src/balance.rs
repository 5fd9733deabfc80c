//! Fig. 9/10: workload-percentage standard deviation across all servers
//! over 24 migration rounds, on Fat-Tree and BCube, with 5 % of VMs
//! raising alerts per round (Sec. VI-B). Sheriff's shims run on the
//! fabric runtime over a reliable channel.

use crate::report::Table;
use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::{RackMetric, SimConfig};
use dcn_topology::bcube::{self, BCubeConfig};
use dcn_topology::dcell::{self, DCellConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::vl2::{self, Vl2Config};
use sheriff_core::{balance_trajectory, FabricRuntime};

/// The cluster population used by the balance experiments: scattered
/// hotspots (skew 4) so round 0 shows the paper's ~45 % imbalance scale.
pub fn balance_cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        vms_per_host: 2.5,
        skew: 4.0,
        seed,
        ..ClusterConfig::default()
    }
}

fn run_balance(id: &str, title: &str, cluster: &mut Cluster, rounds: usize) -> Table {
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);
    let (traj, plan) = balance_trajectory(
        &mut FabricRuntime::default(),
        cluster,
        &metric,
        0.05,
        rounds,
    );
    let mut t = Table::new(id, title, &["round", "stddev_pct"]);
    for (i, v) in traj.iter().enumerate() {
        t.push(vec![i as f64, *v]);
    }
    let drop = (traj[0] - traj[rounds]) / traj[0] * 100.0;
    t.note(format!(
        "std-dev {:.1}% -> {:.1}% over {rounds} rounds ({drop:.0}% drop); {} migrations, total cost {:.0}",
        traj[0],
        traj[rounds],
        plan.moves.len(),
        plan.total_cost
    ));
    t
}

/// Fig. 9 — Sheriff on an 8-pod Fat-Tree, 24 migration rounds.
pub fn fig9(seed: u64) -> Table {
    let dcn = fattree::build(&FatTreeConfig::paper(8));
    let mut cluster = Cluster::build(dcn, &balance_cluster_config(seed), SimConfig::paper());
    run_balance(
        "fig9",
        "Sheriff on Fat-Tree: workload std-dev vs migration round",
        &mut cluster,
        24,
    )
}

/// Fig. 10 — Sheriff on BCube(8, 1), 24 migration rounds.
pub fn fig10(seed: u64) -> Table {
    let dcn = bcube::build(&BCubeConfig::paper(8));
    let mut cluster = Cluster::build(dcn, &balance_cluster_config(seed), SimConfig::paper());
    run_balance(
        "fig10",
        "Sheriff on BCube: workload std-dev vs migration round",
        &mut cluster,
        24,
    )
}

/// Extension: Sheriff on DCell(4, 1) — the paper claims the design
/// "can be easily implemented in other DCN topologies" (Sec. II-A); this
/// regenerates the Fig. 9/10 protocol on a third, recursively-defined
/// topology.
pub fn dcell_balance(seed: u64) -> Table {
    let dcn = dcell::build(&DCellConfig {
        hosts_per_rack: 2,
        ..DCellConfig::paper(4, 1)
    });
    let mut cluster = Cluster::build(dcn, &balance_cluster_config(seed), SimConfig::paper());
    run_balance(
        "dcell",
        "Sheriff on DCell(4,1): workload std-dev vs migration round (extension)",
        &mut cluster,
        24,
    )
}

/// Extension: Sheriff on VL2(D_A=8, D_I=8) — the Clos fabric of the
/// paper's ref. \[3\], fourth topology family.
pub fn vl2_balance(seed: u64) -> Table {
    let dcn = vl2::build(&Vl2Config::paper(8, 8));
    let mut cluster = Cluster::build(dcn, &balance_cluster_config(seed), SimConfig::paper());
    run_balance(
        "vl2",
        "Sheriff on VL2: workload std-dev vs migration round (extension)",
        &mut cluster,
        24,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_core::Series;

    #[test]
    fn fig9_stddev_declines_substantially() {
        let t = fig9(1);
        assert_eq!(t.rows.len(), 25);
        let y: Vec<f64> = t.rows.iter().map(|r| r[1]).collect();
        let s = Series {
            label: "fig9".into(),
            x: vec![],
            y,
        };
        assert!(s.total_drop() > 0.35, "drop = {}", s.total_drop());
        assert!(s.is_decreasing(1.0), "should be near-monotone");
    }

    #[test]
    fn dcell_extension_balances_too() {
        let t = dcell_balance(1);
        let y: Vec<f64> = t.rows.iter().map(|r| r[1]).collect();
        assert!(
            *y.last().unwrap() < y[0] * 0.8,
            "DCell should balance: {y:?}"
        );
    }

    #[test]
    fn vl2_extension_balances_too() {
        let t = vl2_balance(1);
        let y: Vec<f64> = t.rows.iter().map(|r| r[1]).collect();
        assert!(*y.last().unwrap() < y[0] * 0.8, "VL2 should balance: {y:?}");
    }

    #[test]
    fn fig10_stddev_declines_substantially() {
        let t = fig10(1);
        let y: Vec<f64> = t.rows.iter().map(|r| r[1]).collect();
        let first = y[0];
        let last = *y.last().unwrap();
        assert!(last < first * 0.7, "{first} -> {last}");
    }
}
