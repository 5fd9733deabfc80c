//! The Fig. 10/13/14 scenario on a server-centric BCube topology:
//! Sheriff's 24-round balance trajectory plus live-migration timeline
//! estimates for the committed moves (six-stage pre-copy, Fig. 2).
//!
//! ```text
//! cargo run --release --example bcube_migration [n]
//! ```

use sheriff_dcn::prelude::*;
use sheriff_dcn::sim::precopy_timeline;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    let dcn = bcube::build(&BCubeConfig::paper(n));
    println!(
        "BCube({n},1): {} server-racks, {} switches, {} hosts",
        dcn.rack_count(),
        dcn.graph.node_count() - dcn.rack_count(),
        dcn.inventory.host_count()
    );

    let mut cluster = Cluster::build(
        dcn,
        &ClusterConfig {
            vms_per_host: 2.5,
            skew: 4.0,
            seed: 21,
            ..ClusterConfig::default()
        },
        SimConfig::paper(),
    );
    let metric = RackMetric::build(&cluster.dcn, &cluster.sim);

    let (trajectory, plan) = balance_trajectory(
        &mut FabricRuntime::default(),
        &mut cluster,
        &metric,
        0.05,
        24,
    );
    println!("\nworkload std-dev per round:");
    for (round, v) in trajectory.iter().enumerate() {
        if round % 4 == 0 || round == trajectory.len() - 1 {
            println!(
                "  round {round:>2}: {v:5.1}%  {}",
                "#".repeat((*v) as usize)
            );
        }
    }
    println!(
        "\n{} migrations, total Eqn.1 cost {:.0}, search space {}",
        plan.moves.len(),
        plan.total_cost,
        plan.search_space
    );

    // six-stage pre-copy timeline for the three largest committed moves
    println!("\nsix-stage pre-copy timelines (largest VMs):");
    let mut moves = plan.moves.clone();
    moves.sort_by(|a, b| {
        cluster
            .placement
            .spec(b.vm)
            .capacity
            .partial_cmp(&cluster.placement.spec(a.vm).capacity)
            .expect("capacities are never NaN")
    });
    for m in moves.iter().take(3) {
        let cap = cluster.placement.spec(m.vm).capacity;
        // RAM proportional to VM capacity; dirty rate 10% of bandwidth
        let ram_mb = cap * 100.0;
        let timeline = precopy_timeline(ram_mb, 100.0, 1000.0, 1.0, 30);
        println!(
            "  {} ({}→{}, cap {cap:.0}): {} pre-copy rounds, total {:.2}s, downtime {:.0}ms",
            m.vm,
            m.from,
            m.to,
            timeline.rounds,
            timeline.total(),
            timeline.downtime() * 1000.0
        );
    }
}
