//! The centralized (global) manager baseline of Sec. VI-B.
//!
//! Fig. 11/13 compare Sheriff's regional migration cost against a "global
//! optimal centralized manager"; Fig. 12/14 compare search spaces. The
//! centralized manager sees every alerting VM in the network at once and
//! considers *every* host as a destination — one global minimum-weight
//! matching over the same Eqn. 1 costs. Its search space is |F| × |all
//! hosts|, against Sheriff's |F_i| × |region_i hosts| per shim.

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
}
