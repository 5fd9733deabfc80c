//! The centralized (global) manager baseline of Sec. VI-B.
//!
//! Fig. 11/13 compare Sheriff's regional migration cost against a "global
//! optimal centralized manager"; Fig. 12/14 compare search spaces. The
//! centralized manager sees every alerting VM in the network at once and
//! considers *every* host as a destination — one global minimum-weight
//! matching over the same Eqn. 1 costs. Its search space is |F| × |all
//! hosts|, against Sheriff's |F_i| × |region_i hosts| per shim.
//!
//! It also exposes the Sec. V-A k-median pipeline: choose `k` destination
//! ToRs for the alerting source ToRs by local search (Alg. 5) over the
//! collapsed metric `Cost(v_i, v_p)`.

use crate::kmedian::{greedy_init, local_search_from, KMedianInstance, KMedianSolution};
use crate::vmmigration::{vmmigration_scoped, MigrationContext, MigrationPlan};
use dcn_topology::{RackId, VmId};
use sheriff_obs::{EventSink, NullSink};

/// Run the centralized manager over all alerting candidates: one global
/// VMMIGRATION whose target region is the entire rack set, with an
/// [`EventSink`] observing every REQUEST/verdict and the final plan
/// summary.
pub fn centralized_migration<S: EventSink + ?Sized>(
    ctx: &mut MigrationContext<'_>,
    candidates: &[VmId],
    max_rounds: usize,
    sink: &mut S,
) -> MigrationPlan {
    let all_racks: Vec<RackId> = (0..ctx.inventory.rack_count())
        .map(RackId::from_index)
        .collect();
    vmmigration_scoped(ctx, candidates, &all_racks, max_rounds, true, sink)
}

/// Like [`centralized_migration`] (with a [`NullSink`]) but
/// processes candidates in chunks of
/// `chunk` rows per matching call. The Hungarian algorithm is
/// O(rows² · cols); at data-center scale (thousands of candidates ×
/// tens of thousands of hosts) one global matrix is intractable, and with
/// destination slots plentiful the chunked assignment's cost is within
/// noise of the monolithic one. Search-space accounting is identical
/// (Σ |chunk| × |hosts| = |F| × |hosts|).
pub fn centralized_migration_chunked(
    ctx: &mut MigrationContext<'_>,
    candidates: &[VmId],
    chunk: usize,
    max_rounds: usize,
) -> MigrationPlan {
    assert!(chunk >= 1, "chunk must be positive");
    let mut plan = MigrationPlan::default();
    for part in candidates.chunks(chunk) {
        plan.absorb(centralized_migration(ctx, part, max_rounds, &mut NullSink));
    }
    plan
}

/// The Sec. V-A transformation: given alerting source racks and the full
/// rack-to-rack cost matrix, pick `k` destination ToRs minimising total
/// connection cost with the `p`-swap local search. `sink` observes the
/// Alg. 5 descent: each accepted swap emits a `swap_accepted` event.
///
/// `rack_cost[i][j]` must be `Cost(v_i, v_j)` per Eqn. 18 (e.g. from
/// [`dcn_sim::RackMetric::migration_cost`] with a reference VM size).
pub fn destination_tors<S: EventSink + ?Sized>(
    rack_cost: &[Vec<f64>],
    sources: &[RackId],
    k: usize,
    p: usize,
    sink: &mut S,
) -> KMedianSolution {
    assert!(!sources.is_empty(), "need at least one alerting rack");
    let cost: Vec<Vec<f64>> = sources
        .iter()
        .map(|s| rack_cost[s.index()].clone())
        .collect();
    let inst = KMedianInstance::new(cost, k);
    local_search_from(&inst, greedy_init(&inst), p, 10_000, sink)
}

/// The full Sec. V-A pipeline: collapse rack-to-rack costs (done once in
/// the [`dcn_sim::RackMetric`]), choose `k` destination ToRs for the
/// alerting source racks with the p-swap local search (Alg. 5), then run
/// VMMIGRATION restricted to those racks. Compared to matching against
/// every rack, this caps the candidate-slot set at `k` racks — the
/// centralized manager's scalable variant. `sink` observes both stages:
/// the Alg. 5 swap descent and the scoped VMMIGRATION's request traffic.
pub fn kmedian_migration<S: EventSink + ?Sized>(
    ctx: &mut MigrationContext<'_>,
    candidates: &[VmId],
    k: usize,
    p: usize,
    max_rounds: usize,
    sink: &mut S,
) -> (MigrationPlan, KMedianSolution) {
    assert!(!candidates.is_empty(), "need candidates");
    let n = ctx.inventory.rack_count();
    assert!(k >= 1 && k <= n, "k in 1..=racks");

    // source racks of the alerting VMs
    let mut sources: Vec<RackId> = candidates
        .iter()
        .map(|&vm| ctx.placement.rack_of(vm))
        .collect();
    sources.sort_unstable();
    sources.dedup();

    // rack-to-rack Cost(v_i, v_j) at the reference VM size (Eqn. 18)
    let ref_cap = ctx.sim.vm_capacity_max;
    let rack_cost: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let (a, b) = (RackId::from_index(i), RackId::from_index(j));
                    if ctx.metric.reachable(a, b) {
                        ctx.metric.migration_cost(ctx.sim, ref_cap, a, b, 1.0)
                    } else {
                        1e12
                    }
                })
                .collect()
        })
        .collect();

    let solution = destination_tors(&rack_cost, &sources, k, p, sink);
    let dest_racks: Vec<RackId> = solution
        .open
        .iter()
        .map(|&f| RackId::from_index(f))
        .collect();
    let plan = vmmigration_scoped(ctx, candidates, &dest_racks, max_rounds, false, sink);
    (plan, solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::{Cluster, ClusterConfig};
    use dcn_sim::{RackMetric, SimConfig};
    use dcn_topology::fattree::{self, FatTreeConfig};

    fn cluster(seed: u64) -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        // weight 0: optimise the literal Eqn. 1 objective so the
        // centralized manager's superset of destinations can only help
        let sim = SimConfig {
            load_balance_weight: 0.0,
            ..SimConfig::paper()
        };
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 3.0,
                seed,
                ..ClusterConfig::default()
            },
            sim,
        )
    }

    fn alerting_vms(c: &Cluster, fraction: f64) -> Vec<VmId> {
        c.fraction_alerts(fraction, 0)
            .into_iter()
            .filter_map(|a| match a.source {
                dcn_sim::AlertSource::Host(h) => c
                    .placement
                    .vms_on(h)
                    .iter()
                    .copied()
                    .find(|&vm| !c.placement.spec(vm).delay_sensitive),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn centralized_cost_at_most_regional() {
        // the centralized manager optimises over a superset of Sheriff's
        // destinations, so with identical candidates its matching cost per
        // committed move cannot be worse
        let mut c1 = cluster(5);
        let mut c2 = cluster(5);
        let metric = RackMetric::build(&c1.dcn, &c1.sim);
        let cands = alerting_vms(&c1, 0.1);
        assert!(!cands.is_empty());

        let central = {
            let mut ctx = MigrationContext {
                placement: &mut c1.placement,
                inventory: &c1.dcn.inventory,
                deps: &c1.deps,
                metric: &metric,
                sim: &c1.sim,
            };
            centralized_migration(&mut ctx, &cands, 5, &mut NullSink)
        };
        let regional = {
            let region = c2.dcn.neighbor_racks(c2.placement.rack_of(cands[0]), 2);
            let mut ctx = MigrationContext {
                placement: &mut c2.placement,
                inventory: &c2.dcn.inventory,
                deps: &c2.deps,
                metric: &metric,
                sim: &c2.sim,
            };
            crate::vmmigration::vmmigration(&mut ctx, &cands, &region, 5)
        };
        assert!(central.moves.len() >= regional.moves.len());
        if central.moves.len() == regional.moves.len() && !central.moves.is_empty() {
            assert!(central.total_cost <= regional.total_cost + 1e-9);
        }
    }

    #[test]
    fn centralized_search_space_larger() {
        let mut c1 = cluster(6);
        let mut c2 = cluster(6);
        let metric = RackMetric::build(&c1.dcn, &c1.sim);
        let cands = alerting_vms(&c1, 0.1);
        let central = {
            let mut ctx = MigrationContext {
                placement: &mut c1.placement,
                inventory: &c1.dcn.inventory,
                deps: &c1.deps,
                metric: &metric,
                sim: &c1.sim,
            };
            centralized_migration(&mut ctx, &cands, 1, &mut NullSink)
        };
        let regional = {
            let region = c2.dcn.neighbor_racks(c2.placement.rack_of(cands[0]), 2);
            let mut ctx = MigrationContext {
                placement: &mut c2.placement,
                inventory: &c2.dcn.inventory,
                deps: &c2.deps,
                metric: &metric,
                sim: &c2.sim,
            };
            crate::vmmigration::vmmigration(&mut ctx, &cands, &region, 1)
        };
        assert!(
            central.search_space > regional.search_space,
            "central {} !> regional {}",
            central.search_space,
            regional.search_space
        );
    }

    #[test]
    fn kmedian_pipeline_places_candidates_in_k_racks() {
        let mut c = cluster(8);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let cands = alerting_vms(&c, 0.15);
        assert!(!cands.is_empty());
        let k = 3;
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let (plan, solution) = kmedian_migration(&mut ctx, &cands, k, 2, 5, &mut NullSink);
        assert_eq!(solution.open.len(), k);
        // every committed move landed in one of the k chosen racks
        let dest: std::collections::HashSet<RackId> = solution
            .open
            .iter()
            .map(|&f| RackId::from_index(f))
            .collect();
        for m in &plan.moves {
            assert!(dest.contains(&c.placement.rack_of_host(m.to)));
        }
        assert!(!plan.moves.is_empty());
    }

    #[test]
    fn kmedian_pipeline_search_space_below_full_central() {
        let mut c1 = cluster(9);
        let mut c2 = cluster(9);
        let metric = RackMetric::build(&c1.dcn, &c1.sim);
        let cands = alerting_vms(&c1, 0.15);
        let (km_plan, _) = {
            let mut ctx = MigrationContext {
                placement: &mut c1.placement,
                inventory: &c1.dcn.inventory,
                deps: &c1.deps,
                metric: &metric,
                sim: &c1.sim,
            };
            kmedian_migration(&mut ctx, &cands, 2, 2, 1, &mut NullSink)
        };
        let full = {
            let mut ctx = MigrationContext {
                placement: &mut c2.placement,
                inventory: &c2.dcn.inventory,
                deps: &c2.deps,
                metric: &metric,
                sim: &c2.sim,
            };
            centralized_migration(&mut ctx, &cands, 1, &mut NullSink)
        };
        assert!(
            km_plan.search_space < full.search_space,
            "k-median restriction must shrink the matching: {} !< {}",
            km_plan.search_space,
            full.search_space
        );
    }

    #[test]
    fn destination_tors_picks_k_cheap_racks() {
        let c = cluster(7);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let n = c.dcn.rack_count();
        let ref_cap = c.sim.vm_capacity_max;
        let rack_cost: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        metric.migration_cost(
                            &c.sim,
                            ref_cap,
                            RackId::from_index(i),
                            RackId::from_index(j),
                            1.0,
                        )
                    })
                    .collect()
            })
            .collect();
        let sources = vec![RackId(0), RackId(1)];
        let sol = destination_tors(&rack_cost, &sources, 2, 2, &mut NullSink);
        assert_eq!(sol.open.len(), 2);
        assert!(sol.cost.is_finite());
        // with k = sources and same-pod racks available, the chosen ToRs
        // should be pod-local (cheap)
        let max_cost_per_source = sol.cost / sources.len() as f64;
        let cross_pod = rack_cost[0][4];
        assert!(max_cost_per_source <= cross_pod);
    }
}
