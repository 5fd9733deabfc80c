//! Fig. 11–14: Sheriff (APP) vs the centralized global manager (OPT) as
//! the topology scales — total migration cost (Fig. 11/13) and matching
//! search space (Fig. 12/14), on Fat-Tree (pods 8..48) and BCube
//! (switches per level 8..48), with 5 % of VMs alerting (Sec. VI-B).
//! Sheriff's shims run one fabric round over a reliable channel.

use crate::report::Table;
use dcn_sim::engine::{Cluster, ClusterConfig};
use dcn_sim::{AlertSource, RackMetric, SimConfig};
use dcn_topology::bcube::{self, BCubeConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::{Dcn, VmId};
use sheriff_core::vmmigration::MigrationContext;
use sheriff_core::{
    balance_trajectory, centralized_migration_chunked, priority, Budget, FabricRuntime,
};

/// Which topology family a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// Fat-Tree, parameter = pods.
    FatTree,
    /// BCube(n, 1), parameter = switches per level (n).
    BCube,
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Size parameter (pods or switches/level).
    pub k: usize,
    /// Candidate VMs raised for migration.
    pub candidates: usize,
    /// Sheriff's total Eqn. 1 cost.
    pub sheriff_cost: f64,
    /// Centralized manager's total Eqn. 1 cost.
    pub central_cost: f64,
    /// Sheriff's summed search space (Σ per-shim |F_i| × |region hosts|).
    pub sheriff_space: usize,
    /// Centralized search space (|F| × |all hosts|).
    pub central_space: usize,
    /// Moves committed by Sheriff.
    pub sheriff_moves: usize,
    /// Moves committed by the centralized manager.
    pub central_moves: usize,
}

fn build_dcn(topo: Topo, k: usize) -> Dcn {
    match topo {
        Topo::FatTree => fattree::build(&FatTreeConfig {
            hosts_per_rack: 2,
            ..FatTreeConfig::paper(k)
        }),
        Topo::BCube => bcube::build(&BCubeConfig::paper(k)),
    }
}

fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        vms_per_host: 2.0,
        skew: 4.0,
        seed,
        ..ClusterConfig::default()
    }
}

/// The shared candidate set both managers must place: for each alerted
/// host (5 % of VMs protocol), the single highest-ALERT migratable VM —
/// exactly what Alg. 1's host-alert arm selects.
fn candidate_set(cluster: &Cluster, alert_values: &[f64]) -> Vec<VmId> {
    let alerts = cluster.fraction_alerts(0.05, 0);
    let mut out = Vec::new();
    for a in &alerts {
        if let AlertSource::Host(h) = a.source {
            out.extend(priority(
                cluster.placement.vms_on(h),
                &cluster.placement,
                |vm| alert_values[vm.index()],
                Budget::SingleMaxAlert,
            ));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Run one sweep point: identical clusters for both managers, identical
/// candidates.
pub fn run_point(topo: Topo, k: usize, seed: u64) -> ScalePoint {
    let sim = SimConfig::paper();
    let mut c_sheriff = Cluster::build(build_dcn(topo, k), &cluster_config(seed), sim.clone());
    let mut c_central = Cluster::build(build_dcn(topo, k), &cluster_config(seed), sim);
    let metric = RackMetric::build(&c_sheriff.dcn, &c_sheriff.sim);

    let alert_values: Vec<f64> = c_sheriff
        .placement
        .vm_ids()
        .map(|vm| {
            c_sheriff
                .placement
                .utilization(c_sheriff.placement.host_of(vm))
        })
        .collect();
    let candidates = candidate_set(&c_sheriff, &alert_values);

    // Sheriff: one management round over the same 5 % of VMs alerting
    let (_, sheriff) = balance_trajectory(
        &mut FabricRuntime::default(),
        &mut c_sheriff,
        &metric,
        0.05,
        1,
    );

    // Centralized: the same candidates against every host
    let central = {
        let mut ctx = MigrationContext {
            placement: &mut c_central.placement,
            inventory: &c_central.dcn.inventory,
            deps: &c_central.deps,
            metric: &metric,
            sim: &c_central.sim,
        };
        centralized_migration_chunked(&mut ctx, &candidates, 64, 3)
    };

    ScalePoint {
        k,
        candidates: candidates.len(),
        sheriff_cost: sheriff.total_cost,
        central_cost: central.total_cost,
        sheriff_space: sheriff.search_space,
        central_space: central.search_space,
        sheriff_moves: sheriff.moves.len(),
        central_moves: central.moves.len(),
    }
}

/// Run the full sweep and emit the cost figure and the search-space
/// figure for the given topology.
pub fn sweep(topo: Topo, sizes: &[usize], seed: u64) -> (Table, Table) {
    let (cost_id, cost_title, space_id, space_title, xlabel) = match topo {
        Topo::FatTree => (
            "fig11",
            "Migration cost: Sheriff (APP) vs centralized optimal (OPT), Fat-Tree",
            "fig12",
            "Search space: Sheriff vs centralized manager, Fat-Tree",
            "pods",
        ),
        Topo::BCube => (
            "fig13",
            "Migration cost: Sheriff (APP) vs centralized optimal (OPT), BCube",
            "fig14",
            "Search space: Sheriff vs centralized manager, BCube",
            "n",
        ),
    };
    let mut cost = Table::new(
        cost_id,
        cost_title,
        &[
            xlabel,
            "candidates",
            "sheriff_cost",
            "central_cost",
            "sheriff_moves",
            "central_moves",
        ],
    );
    let mut space = Table::new(
        space_id,
        space_title,
        &[xlabel, "sheriff_space", "central_space", "ratio"],
    );
    for &k in sizes {
        let p = run_point(topo, k, seed);
        cost.push(vec![
            k as f64,
            p.candidates as f64,
            p.sheriff_cost,
            p.central_cost,
            p.sheriff_moves as f64,
            p.central_moves as f64,
        ]);
        space.push(vec![
            k as f64,
            p.sheriff_space as f64,
            p.central_space as f64,
            p.central_space as f64 / (p.sheriff_space.max(1)) as f64,
        ]);
    }
    // headline shape checks
    if let (Some(first), Some(last)) = (cost.rows.first(), cost.rows.last()) {
        cost.note(format!(
            "cost grows with scale: sheriff {:.0} -> {:.0}, central {:.0} -> {:.0}",
            first[2], last[2], first[3], last[3]
        ));
        let gap = cost
            .rows
            .iter()
            .map(|r| if r[3] > 0.0 { r[2] / r[3] } else { 1.0 })
            .fold(0.0, f64::max);
        cost.note(format!(
            "worst APP/OPT cost ratio across the sweep = {gap:.3} (paper: Sheriff close to optimal)"
        ));
    }
    if let Some(last) = space.rows.last() {
        space.note(format!(
            "at the largest size the centralized search space is {:.0}x Sheriff's",
            last[3]
        ));
    }
    (cost, space)
}

/// Paper sweep sizes (pods / switches-per-level 8..48).
pub const PAPER_SIZES: [usize; 6] = [8, 16, 24, 32, 40, 48];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fattree_point_has_sane_shape() {
        let p = run_point(Topo::FatTree, 4, 3);
        assert!(p.candidates > 0);
        assert!(p.central_space > p.sheriff_space);
        assert!(p.sheriff_moves > 0);
        assert!(p.central_moves >= p.sheriff_moves);
        assert!(p.sheriff_cost > 0.0);
    }

    #[test]
    fn bcube_point_has_sane_shape() {
        let p = run_point(Topo::BCube, 4, 3);
        assert!(p.candidates > 0);
        assert!(p.central_space > p.sheriff_space);
        assert!(p.central_moves > 0);
    }

    #[test]
    fn sweep_grows_with_size() {
        let (cost, space) = sweep(Topo::FatTree, &[4, 8], 1);
        assert_eq!(cost.rows.len(), 2);
        // more pods -> more candidates -> more cost and space
        assert!(cost.rows[1][2] > cost.rows[0][2], "{:?}", cost.rows);
        assert!(space.rows[1][2] > space.rows[0][2]);
        // centralized space gap widens with scale
        assert!(space.rows[1][3] >= space.rows[0][3] * 0.8);
    }
}
