//! Host and rack evacuation — the "backup system" the paper assumes
//! resolves crash errors (Sec. III-A: "we do not take crash errors into
//! consideration since we assume that they could be resolved by backup
//! system"). This is that system: when a host fails or is drained for
//! maintenance, *every* VM on it (delay-sensitive ones included — staying
//! on a dead host is worse than a migration pause) is placed elsewhere by
//! the same matching machinery as VMMIGRATION.

use crate::vmmigration::{vmmigration, vmmigration_scoped, MigrationContext, MigrationPlan};
use dcn_sim::SheriffError;
use dcn_topology::{HostId, RackId, VmId};
use sheriff_obs::NullSink;

fn check_region(ctx: &MigrationContext<'_>, region: &[RackId]) -> Result<(), SheriffError> {
    let rack_count = ctx.inventory.rack_count();
    for &r in region {
        if r.index() >= rack_count {
            return Err(SheriffError::Invalid {
                reason: format!(
                    "region rack {} out of range (rack count {rack_count})",
                    r.index()
                ),
            });
        }
    }
    Ok(())
}

/// Fallible [`evacuate_host`]: validates the host and region rack ids
/// against the inventory and returns a typed [`SheriffError`] instead of
/// panicking on an out-of-range index. An *empty* host is not an error —
/// the evacuation is simply a no-op plan, as before.
pub fn try_evacuate_host(
    ctx: &mut MigrationContext<'_>,
    host: HostId,
    region: &[RackId],
    max_rounds: usize,
) -> Result<MigrationPlan, SheriffError> {
    if host.index() >= ctx.inventory.host_count() {
        return Err(SheriffError::Invalid {
            reason: format!(
                "host {} out of range (host count {})",
                host.index(),
                ctx.inventory.host_count()
            ),
        });
    }
    check_region(ctx, region)?;
    Ok(evacuate_host(ctx, host, region, max_rounds))
}

/// Fallible [`drain_rack`]; see [`try_evacuate_host`].
pub fn try_drain_rack(
    ctx: &mut MigrationContext<'_>,
    rack: RackId,
    region: &[RackId],
    max_rounds: usize,
) -> Result<MigrationPlan, SheriffError> {
    if rack.index() >= ctx.inventory.rack_count() {
        return Err(SheriffError::Invalid {
            reason: format!(
                "rack {} out of range (rack count {})",
                rack.index(),
                ctx.inventory.rack_count()
            ),
        });
    }
    check_region(ctx, region)?;
    Ok(drain_rack(ctx, rack, region, max_rounds))
}

/// Evacuate every VM from `host`, preferring the shim's own region and
/// widening to the whole network when the region lacks capacity.
///
/// Unlike Alg. 3's alert path, an evacuation must not leave VMs behind:
/// when `plan.unplaced` is non-empty after the regional pass, a global
/// pass retries against all racks.
pub fn evacuate_host(
    ctx: &mut MigrationContext<'_>,
    host: HostId,
    region: &[RackId],
    max_rounds: usize,
) -> MigrationPlan {
    let victims: Vec<VmId> = ctx.placement.vms_on(host).to_vec();
    if victims.is_empty() {
        return MigrationPlan::default();
    }
    let mut plan = vmmigration(ctx, &victims, region, max_rounds);
    if !plan.unplaced.is_empty() {
        let leftover = std::mem::take(&mut plan.unplaced);
        let all_racks: Vec<RackId> = (0..ctx.inventory.rack_count())
            .map(RackId::from_index)
            .collect();
        let global = vmmigration(ctx, &leftover, &all_racks, max_rounds);
        plan.absorb(global);
    }
    plan
}

/// Drain an entire rack (ToR failure, rack maintenance): evacuate each of
/// its hosts. Destination racks exclude the draining rack itself.
pub fn drain_rack(
    ctx: &mut MigrationContext<'_>,
    rack: RackId,
    region: &[RackId],
    max_rounds: usize,
) -> MigrationPlan {
    let mut plan = MigrationPlan::default();
    let region_without: Vec<RackId> = region.iter().copied().filter(|&r| r != rack).collect();
    let hosts: Vec<HostId> = ctx.inventory.hosts_in(rack).to_vec();
    let sink = &mut NullSink;
    for host in hosts {
        // a drained rack cannot host evacuees from its own other hosts:
        // temporarily treat the rack's hosts as unavailable by listing
        // only external racks as targets
        let victims: Vec<VmId> = ctx.placement.vms_on(host).to_vec();
        if victims.is_empty() {
            continue;
        }
        let mut p = vmmigration_scoped(ctx, &victims, &region_without, max_rounds, false, sink);
        // retry leftovers globally, still excluding the draining rack
        if !p.unplaced.is_empty() {
            let leftover = std::mem::take(&mut p.unplaced);
            let others: Vec<RackId> = (0..ctx.inventory.rack_count())
                .map(RackId::from_index)
                .filter(|&r| r != rack)
                .collect();
            p.absorb(vmmigration_scoped(
                ctx, &leftover, &others, max_rounds, false, sink,
            ));
        }
        plan.absorb(p);
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
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.0,
                skew: 2.0,
                seed,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    }

    fn busiest_host(c: &Cluster) -> HostId {
        (0..c.placement.host_count())
            .map(HostId::from_index)
            .max_by_key(|&h| c.placement.vms_on(h).len())
            .unwrap()
    }

    #[test]
    fn evacuation_empties_the_host() {
        let mut c = cluster(31);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let host = busiest_host(&c);
        let vm_count = c.placement.vms_on(host).len();
        assert!(vm_count > 0);
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
        assert!(c.placement.vms_on(host).is_empty(), "host not emptied");
        assert_eq!(plan.moves.len(), vm_count);
        assert!(plan.unplaced.is_empty());
    }

    #[test]
    fn evacuation_moves_delay_sensitive_vms_too() {
        let mut c = cluster(32);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        // find a host with a delay-sensitive VM
        let target = (0..c.placement.host_count())
            .map(HostId::from_index)
            .find(|&h| {
                c.placement
                    .vms_on(h)
                    .iter()
                    .any(|&vm| c.placement.spec(vm).delay_sensitive)
            });
        let Some(host) = target else {
            return; // seed produced none; other seeds cover this
        };
        let rack = c.placement.rack_of_host(host);
        let region = c.dcn.neighbor_racks(rack, 4);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        evacuate_host(&mut ctx, host, &region, 5);
        assert!(c.placement.vms_on(host).is_empty());
    }

    #[test]
    fn drain_rack_clears_every_host_and_avoids_itself() {
        let mut c = cluster(33);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let rack = RackId(0);
        let total_vms: usize = c
            .dcn
            .inventory
            .hosts_in(rack)
            .iter()
            .map(|&h| c.placement.vms_on(h).len())
            .sum();
        assert!(total_vms > 0);
        let region = c.dcn.neighbor_racks(rack, 4);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = drain_rack(&mut ctx, rack, &region, 5);
        assert_eq!(plan.moves.len(), total_vms);
        for &h in c.dcn.inventory.hosts_in(rack) {
            assert!(c.placement.vms_on(h).is_empty(), "host {h} not drained");
        }
        // nothing landed back on the drained rack
        for m in &plan.moves {
            assert_ne!(c.placement.rack_of_host(m.to), rack);
        }
    }

    #[test]
    fn try_variants_reject_out_of_range_ids() {
        let mut c = cluster(35);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let host_count = c.placement.host_count();
        let rack_count = c.dcn.inventory.rack_count();
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let err = try_evacuate_host(&mut ctx, HostId::from_index(host_count), &[RackId(0)], 3)
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err =
            try_drain_rack(&mut ctx, RackId::from_index(rack_count), &[RackId(0)], 3).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let err = try_evacuate_host(&mut ctx, HostId(0), &[RackId::from_index(rack_count)], 3)
            .unwrap_err();
        assert!(err.to_string().contains("region rack"), "{err}");
        // in-range ids behave exactly like the panicking entry point
        let plan = try_evacuate_host(&mut ctx, HostId(0), &[RackId(1)], 3).unwrap();
        assert!(plan.unplaced.is_empty());
    }

    #[test]
    fn evacuating_empty_host_is_noop() {
        let mut c = cluster(34);
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let empty = (0..c.placement.host_count())
            .map(HostId::from_index)
            .find(|&h| c.placement.vms_on(h).is_empty());
        let Some(host) = empty else { return };
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = evacuate_host(&mut ctx, host, &[RackId(1)], 5);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.search_space, 0);
    }
}
