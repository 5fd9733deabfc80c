//! Alg. 3 — VMMIGRATION: pair candidate VMs with destination hosts by
//! minimum-weight matching, then negotiate each move with the destination
//! shim (Alg. 4), recalculating for rejected VMs.

use crate::matching::{min_cost_assignment, FORBIDDEN};
use crate::request::request_migration;
use dcn_sim::{RackMetric, SimConfig};
use dcn_topology::{DependencyGraph, HostId, Placement, RackId, VmId};
use sheriff_obs::{emit, Event, EventSink, NullSink};
use std::collections::{BTreeSet, HashSet};

/// One committed migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// The migrated VM.
    pub vm: VmId,
    /// Where it came from.
    pub from: HostId,
    /// Where it landed.
    pub to: HostId,
    /// The Eqn. 1 cost of this move.
    pub cost: f64,
}

/// Outcome of a VMMIGRATION invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationPlan {
    /// Committed moves, in commit order.
    pub moves: Vec<Move>,
    /// Total Eqn. 1 cost of the committed moves.
    pub total_cost: f64,
    /// Candidate (VM × destination-slot) pairs examined — the paper's
    /// "searching space" metric of Fig. 12/14.
    pub search_space: usize,
    /// REQUESTs rejected by destination shims.
    pub rejected: usize,
    /// Candidates that could not be placed anywhere.
    pub unplaced: Vec<VmId>,
}

impl MigrationPlan {
    /// Merge another plan into this one (used when aggregating shims).
    pub fn absorb(&mut self, other: MigrationPlan) {
        self.total_cost += other.total_cost;
        self.search_space += other.search_space;
        self.rejected += other.rejected;
        self.moves.extend(other.moves);
        self.unplaced.extend(other.unplaced);
    }
}

/// The cluster state VMMIGRATION reads and mutates.
pub struct MigrationContext<'a> {
    /// The authoritative placement.
    pub placement: &'a mut Placement,
    /// Rack/host inventory (rack → host index).
    pub inventory: &'a dcn_topology::Inventory,
    /// Dependency/conflict graph.
    pub deps: &'a DependencyGraph,
    /// Precomputed rack-to-rack cost metric.
    pub metric: &'a RackMetric,
    /// Simulation parameters.
    pub sim: &'a SimConfig,
}

/// Alg. 3. `candidates` are the VMs selected by PRIORITY; `target_racks`
/// is the shim's dominating region (destination hosts are drawn from
/// these racks *and* the VMs' own racks, since an overloaded host may
/// shed load onto a rack-local peer at cost `C_r` only).
///
/// Each round builds the VM × slot cost matrix under Eqn. 1 (FORBIDDEN
/// for slots lacking capacity, conflicting under χ, or unreachable under
/// `B_t`), solves minimum-weight matching, then issues REQUESTs in
/// matching order; rejected VMs are retried in the next round with the
/// rejecting host excluded. Terminates when every candidate is placed,
/// no slot remains, or `max_rounds` is hit.
pub fn vmmigration(
    ctx: &mut MigrationContext<'_>,
    candidates: &[VmId],
    target_racks: &[RackId],
    max_rounds: usize,
) -> MigrationPlan {
    vmmigration_scoped(
        ctx,
        candidates,
        target_racks,
        max_rounds,
        true,
        &mut NullSink,
    )
}

/// [`vmmigration`] with explicit control over whether the candidates' own
/// racks join the destination set, and with an [`EventSink`]. Rack
/// draining and ToR-failure evacuation must keep evacuees *out* of the
/// failing rack (`include_own_racks = false`); the ordinary alert path
/// allows rack-local reshuffles at cost `C_r`.
///
/// Each REQUEST issued to a destination shim and its verdict is emitted
/// to `sink` (`request_sent`, `ack_received`/`reject_received`,
/// `migration_committed`), plus one `plan_computed` summary per
/// invocation. Request ids follow the wire format `rack << 32 | seq`
/// with a per-invocation sequence, so a trace interleaves cleanly with
/// fabric traffic.
pub fn vmmigration_scoped<S: EventSink + ?Sized>(
    ctx: &mut MigrationContext<'_>,
    candidates: &[VmId],
    target_racks: &[RackId],
    max_rounds: usize,
    include_own_racks: bool,
    sink: &mut S,
) -> MigrationPlan {
    let mut pending = candidates.to_vec();
    let home_rack = pending
        .first()
        .map(|&vm| ctx.placement.rack_of(vm).index() as u64);
    let mut req_seq = 0u64;
    let mut plan = MigrationPlan::default();
    // per-VM hosts that rejected or are otherwise excluded
    let mut excluded: Vec<(VmId, HostId)> = Vec::new();

    for _round in 0..max_rounds {
        if pending.is_empty() {
            break;
        }
        // destination slots: hosts of the target racks plus (optionally)
        // the pending VMs' own racks, minus each VM's current host
        // (per-pair check)
        let mut slot_hosts: Vec<HostId> = Vec::new();
        let mut seen = HashSet::new();
        let mut rack_list: Vec<RackId> = target_racks.to_vec();
        if include_own_racks {
            for &vm in &pending {
                rack_list.push(ctx.placement.rack_of(vm));
            }
        }
        for &rack in &rack_list {
            if seen.insert(rack) {
                slot_hosts.extend_from_slice(ctx.inventory.hosts_in(rack));
            }
        }
        if slot_hosts.is_empty() {
            break;
        }

        let (matched, space) = match_victims(
            ctx.placement,
            ctx.deps,
            ctx.metric,
            ctx.sim,
            &pending,
            &slot_hosts,
            &excluded,
            &BTreeSet::new(),
        );
        plan.search_space += space;

        let mut next_pending = Vec::new();
        let mut any_progress = false;
        for (vm, assigned) in pending.into_iter().zip(matched) {
            let Some((host, move_cost)) = assigned else {
                next_pending.push(vm);
                continue;
            };
            let from = ctx.placement.host_of(vm);
            req_seq += 1;
            let req = (ctx.placement.rack_of(vm).index() as u64) << 32 | req_seq;
            emit(sink, || Event::RequestSent {
                req,
                vm: vm.index() as u64,
                dest_host: host.index() as u64,
                attempt: 1,
            });
            match request_migration(ctx.placement, ctx.deps, vm, host) {
                Ok(()) => {
                    emit(sink, || Event::AckReceived {
                        req,
                        vm: vm.index() as u64,
                    });
                    emit(sink, || Event::MigrationCommitted {
                        vm: vm.index() as u64,
                        from_host: from.index() as u64,
                        to_host: host.index() as u64,
                        cost: move_cost,
                    });
                    plan.moves.push(Move {
                        vm,
                        from,
                        to: host,
                        cost: move_cost,
                    });
                    plan.total_cost += move_cost;
                    any_progress = true;
                }
                Err(reason) => {
                    emit(sink, || Event::RejectReceived {
                        req,
                        vm: vm.index() as u64,
                        reason,
                    });
                    plan.rejected += 1;
                    excluded.push((vm, host));
                    next_pending.push(vm);
                }
            }
        }
        pending = next_pending;
        if !any_progress {
            break;
        }
    }
    plan.unplaced.extend(pending);
    if let Some(rack) = home_rack {
        emit(sink, || Event::PlanComputed {
            rack,
            proposals: plan.moves.len() as u64,
            unassigned: plan.unplaced.len() as u64,
            search_space: plan.search_space as u64,
        });
    }
    plan
}

/// Alg. 3's matching step on the current placement. Prices every
/// (victim, slot) pair under Eqn. 1 — FORBIDDEN where the slot is the
/// VM's own host, is `banned`, was `excluded` for that VM, lacks Eqn. 8
/// capacity, conflicts under χ, or is unreachable under `B_t` — adds the
/// load-aware tie-break that steers the matching toward under-utilised
/// hosts (the balancing objective behind constraint (10)), and solves
/// minimum-weight matching. Returns each victim's `(host, Eqn. 1 cost)`
/// in input order (`None` where it got no slot), and the search space
/// explored — every (victim, slot) pair, forbidden ones included (the
/// paper's "searching space" of Fig. 12/14). It counts every priced
/// pair even when the matching solves on fewer columns.
///
/// Eqn. 1 and χ depend on the destination rack, not the host (every host
/// of a rack costs `C_r + G`), so a victim's price is kept for the last
/// rack priced; callers list `slots` rack by rack, so it is computed once
/// per rack. The per-host checks and the tie-break stay per host.
///
/// `banned` hosts are absorbing an in-flight pre-copy: they take no
/// additional arrivals this window, or the independent-cost assumption
/// of Eqn. 1 would double-count them.
#[allow(clippy::too_many_arguments)] // the cluster state + the round's constraints
pub(crate) fn match_victims(
    placement: &Placement,
    deps: &DependencyGraph,
    metric: &RackMetric,
    sim: &SimConfig,
    pending: &[VmId],
    slots: &[HostId],
    excluded: &[(VmId, HostId)],
    banned: &BTreeSet<HostId>,
) -> (Vec<Option<(HostId, f64)>>, usize) {
    let space = pending.len() * slots.len();
    if slots.is_empty() {
        return (vec![None; pending.len()], space);
    }
    // Eqn. 1's literal cost of moving `vm` to `to_rack` (what a plan
    // reports); the matching minimises it plus the tie-break
    let eqn1 = |vm: VmId, to_rack: RackId| {
        let chi = deps.chi(vm, to_rack, placement);
        let capacity = placement.spec(vm).capacity;
        metric.migration_cost(sim, capacity, placement.rack_of(vm), to_rack, chi)
    };
    let mut adjusted = vec![FORBIDDEN; space];
    for (&vm, row) in pending.iter().zip(adjusted.chunks_exact_mut(slots.len())) {
        let capacity = placement.spec(vm).capacity;
        let from_host = placement.host_of(vm);
        let from_rack = placement.rack_of(vm);
        // the last destination rack and its price (`None`: unreachable)
        let mut last: Option<(RackId, Option<f64>)> = None;
        for (cell, &host) in row.iter_mut().zip(slots) {
            if host == from_host
                || banned.contains(&host)
                || excluded.contains(&(vm, host))
                || placement.free_capacity(host) < capacity
                || deps.conflicts_on_host(vm, host, placement)
            {
                continue;
            }
            let to_rack = placement.rack_of_host(host);
            let price = match last {
                Some((rack, price)) if rack == to_rack => price,
                _ => {
                    let price = metric
                        .reachable(from_rack, to_rack)
                        .then(|| eqn1(vm, to_rack));
                    last = Some((to_rack, price));
                    price
                }
            };
            let Some(c) = price else { continue };
            let post_util =
                (placement.used_capacity(host) + capacity) / placement.host_capacity(host);
            *cell = c + sim.load_balance_weight * post_util;
        }
    }
    let (assignment, _) = min_cost_assignment(&adjusted, slots.len());
    // Eqn. 1 is pure: recomputing it for the matched pairs gives the
    // priced bits
    let matched = pending
        .iter()
        .zip(assignment)
        .map(|(&vm, assigned)| {
            let host = *slots.get(assigned?)?;
            Some((host, eqn1(vm, placement.rack_of_host(host))))
        })
        .collect();
    (matched, space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::engine::{Cluster, ClusterConfig};
    use dcn_topology::fattree::{self, FatTreeConfig};
    use dcn_topology::VmSpec;

    fn cluster() -> Cluster {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        Cluster::build(
            dcn,
            &ClusterConfig {
                vms_per_host: 2.5,
                skew: 3.0,
                seed: 7,
                ..ClusterConfig::default()
            },
            SimConfig::paper(),
        )
    }

    #[test]
    fn migration_reduces_source_load_and_respects_capacity() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        // pick the most loaded host's VMs as candidates
        let host = (0..c.placement.host_count())
            .map(HostId::from_index)
            .max_by(|&a, &b| {
                c.placement
                    .utilization(a)
                    .partial_cmp(&c.placement.utilization(b))
                    .unwrap()
            })
            .unwrap();
        let candidates: Vec<VmId> = c
            .placement
            .vms_on(host)
            .iter()
            .copied()
            .filter(|&vm| !c.placement.spec(vm).delay_sensitive)
            .take(2)
            .collect();
        assert!(!candidates.is_empty());
        let before = c.placement.used_capacity(host);
        let rack = c.placement.rack_of_host(host);
        let region = c.dcn.neighbor_racks(rack, 4);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = vmmigration(&mut ctx, &candidates, &region, 5);
        assert!(!plan.moves.is_empty(), "nothing migrated");
        assert!(c.placement.used_capacity(host) < before);
        for h in 0..c.placement.host_count() {
            let h = HostId::from_index(h);
            assert!(c.placement.used_capacity(h) <= c.placement.host_capacity(h) + 1e-9);
        }
    }

    #[test]
    fn plan_cost_matches_sum_of_moves() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let candidates: Vec<VmId> = c.placement.vm_ids().take(3).collect();
        let rack = c.placement.rack_of(candidates[0]);
        let region = c.dcn.neighbor_racks(rack, 4);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = vmmigration(&mut ctx, &candidates, &region, 5);
        let sum: f64 = plan.moves.iter().map(|m| m.cost).sum();
        assert!((plan.total_cost - sum).abs() < 1e-9);
        // every committed move is reflected in the placement
        for m in &plan.moves {
            assert_eq!(c.placement.host_of(m.vm), m.to);
        }
    }

    #[test]
    fn conflicting_destinations_are_avoided() {
        // two dependent VMs: they must never land on the same host
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut placement = Placement::new(&dcn.inventory);
        let mut ids = Vec::new();
        for _ in 0..2 {
            let s = VmSpec {
                id: placement.next_vm_id(),
                capacity: 20.0,
                value: 1.0,
                delay_sensitive: false,
            };
            ids.push(placement.add_vm(s, HostId(0)).unwrap());
        }
        let mut deps = DependencyGraph::new(2);
        deps.add_dependency(ids[0], ids[1]);
        let sim = SimConfig::paper();
        let metric = RackMetric::build(&dcn, &sim);
        let region = dcn.neighbor_racks(RackId(0), 4);
        let mut ctx = MigrationContext {
            placement: &mut placement,
            inventory: &dcn.inventory,
            deps: &deps,
            metric: &metric,
            sim: &sim,
        };
        let plan = vmmigration(&mut ctx, &ids, &region, 5);
        assert_eq!(plan.moves.len(), 2);
        assert_ne!(
            placement.host_of(ids[0]),
            placement.host_of(ids[1]),
            "dependent VMs co-located"
        );
    }

    #[test]
    fn search_space_grows_with_region_size() {
        let mut c1 = cluster();
        let mut c2 = cluster();
        let metric1 = RackMetric::build(&c1.dcn, &c1.sim);
        let metric2 = RackMetric::build(&c2.dcn, &c2.sim);
        let candidates: Vec<VmId> = c1.placement.vm_ids().take(2).collect();
        let rack = c1.placement.rack_of(candidates[0]);
        let small = c1.dcn.neighbor_racks(rack, 2);
        let large = c1.dcn.neighbor_racks(rack, 4);
        assert!(large.len() > small.len());
        let p1 = {
            let mut ctx = MigrationContext {
                placement: &mut c1.placement,
                inventory: &c1.dcn.inventory,
                deps: &c1.deps,
                metric: &metric1,
                sim: &c1.sim,
            };
            vmmigration(&mut ctx, &candidates, &small, 1)
        };
        let p2 = {
            let mut ctx = MigrationContext {
                placement: &mut c2.placement,
                inventory: &c2.dcn.inventory,
                deps: &c2.deps,
                metric: &metric2,
                sim: &c2.sim,
            };
            vmmigration(&mut ctx, &candidates, &large, 1)
        };
        assert!(p2.search_space > p1.search_space);
    }

    #[test]
    fn empty_candidates_yield_empty_plan() {
        let mut c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let mut ctx = MigrationContext {
            placement: &mut c.placement,
            inventory: &c.dcn.inventory,
            deps: &c.deps,
            metric: &metric,
            sim: &c.sim,
        };
        let plan = vmmigration(&mut ctx, &[], &[RackId(1)], 5);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.search_space, 0);
        assert!(plan.unplaced.is_empty());
    }

    #[test]
    fn banned_hosts_take_no_victims_and_keep_the_search_space() {
        let c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let pending: Vec<VmId> = c.placement.vm_ids().take(4).collect();
        let rack = c.placement.rack_of(pending[0]);
        let mut racks = c.dcn.neighbor_racks(rack, 4);
        racks.push(rack);
        let slots: Vec<HostId> = racks
            .iter()
            .flat_map(|&r| c.dcn.inventory.hosts_in(r).iter().copied())
            .collect();
        let run = |banned: &BTreeSet<HostId>| {
            match_victims(
                &c.placement,
                &c.deps,
                &metric,
                &c.sim,
                &pending,
                &slots,
                &[],
                banned,
            )
        };
        let (free, space) = run(&BTreeSet::new());
        // ban every host the unconstrained matching picked
        let banned: BTreeSet<HostId> = free.iter().flatten().map(|&(h, _)| h).collect();
        assert!(!banned.is_empty(), "nothing matched without a ban");
        let (guarded, guarded_space) = run(&banned);
        assert_eq!(guarded.len(), pending.len(), "one entry per victim");
        assert!(
            guarded.iter().flatten().all(|(h, _)| !banned.contains(h)),
            "a victim landed on a banned host: {guarded:?}"
        );
        assert!(
            guarded.iter().any(Option::is_some),
            "the rest of the region still takes victims"
        );
        assert_eq!(guarded_space, space, "banned slots are still explored");
        assert_eq!(space, pending.len() * slots.len());
    }

    /// One (victim, host) pair priced alone, straight from the
    /// definitions: `None` where a constraint forbids it, else Eqn. 1's
    /// cost and the adjusted cost the matching minimises. Constraint (7)
    /// is checked from the host's side, over the VMs on `host`.
    fn reference_price(
        c: &Cluster,
        metric: &RackMetric,
        vm: VmId,
        host: HostId,
        excluded: &[(VmId, HostId)],
        banned: &BTreeSet<HostId>,
    ) -> Option<(f64, f64)> {
        let p = &c.placement;
        let capacity = p.spec(vm).capacity;
        let (from, to) = (p.rack_of(vm), p.rack_of_host(host));
        let conflict = p
            .vms_on(host)
            .iter()
            .any(|&other| other != vm && c.deps.dependent(vm, other));
        if host == p.host_of(vm)
            || banned.contains(&host)
            || excluded.contains(&(vm, host))
            || p.free_capacity(host) < capacity
            || conflict
            || !metric.reachable(from, to)
        {
            return None;
        }
        let eqn1 = metric.migration_cost(&c.sim, capacity, from, to, c.deps.chi(vm, to, p));
        let util = (p.used_capacity(host) + capacity) / p.host_capacity(host);
        Some((eqn1, eqn1 + c.sim.load_balance_weight * util))
    }

    /// The best (pairs matched, adjusted total) over every injective
    /// victim → slot map.
    fn brute_force(prices: &[Vec<Option<(f64, f64)>>]) -> (usize, f64) {
        fn rec(
            prices: &[Vec<Option<(f64, f64)>>],
            taken: &mut Vec<usize>,
            (count, total): (usize, f64),
            best: &mut (usize, f64),
        ) {
            let Some(row) = prices.get(taken.len()) else {
                if count > best.0 || (count == best.0 && total < best.1) {
                    *best = (count, total);
                }
                return;
            };
            for (j, price) in row.iter().enumerate() {
                if taken.contains(&j) {
                    continue;
                }
                let next = match price {
                    Some((_, adjusted)) => (count + 1, total + adjusted),
                    None => (count, total),
                };
                taken.push(j);
                rec(prices, taken, next, best);
                taken.pop();
            }
        }
        let mut best = (0, f64::INFINITY);
        rec(prices, &mut Vec::new(), (0, 0.0), &mut best);
        best
    }

    #[test]
    fn matching_oracle_through_match_victims() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        for trial in 0..300 {
            let dcn = fattree::build(&FatTreeConfig::paper(4));
            let cfg = ClusterConfig {
                vms_per_host: rng.gen_range(2.5..6.5),
                skew: 3.0,
                seed: rng.gen(),
                ..ClusterConfig::default()
            };
            let c = Cluster::build(dcn, &cfg, SimConfig::paper());
            let metric = RackMetric::build(&c.dcn, &c.sim);
            // every host is a slot: m = 16 > n², so the matching prunes
            let slots: Vec<HostId> = (0..c.placement.host_count())
                .map(HostId::from_index)
                .collect();
            let n = rng.gen_range(1..=3);
            let mut pending: Vec<VmId> = Vec::new();
            while pending.len() < n {
                let vm = VmId::from_index(rng.gen_range(0..c.placement.vm_count()));
                if !pending.contains(&vm) {
                    pending.push(vm);
                }
            }
            let excluded: Vec<(VmId, HostId)> = (0..rng.gen_range(0..6))
                .map(|_| {
                    (
                        pending[rng.gen_range(0..n)],
                        slots[rng.gen_range(0..slots.len())],
                    )
                })
                .collect();
            // on odd trials a large ban leaves victims competing for a few
            // slots
            let bans = if trial % 2 == 0 { 0..4 } else { 12..24 };
            let banned: BTreeSet<HostId> = (0..rng.gen_range(bans))
                .map(|_| slots[rng.gen_range(0..slots.len())])
                .collect();
            let (matched, space) = match_victims(
                &c.placement,
                &c.deps,
                &metric,
                &c.sim,
                &pending,
                &slots,
                &excluded,
                &banned,
            );
            assert_eq!(space, n * slots.len(), "trial {trial}");
            assert_eq!(matched.len(), n, "trial {trial}: one entry per victim");
            let prices: Vec<Vec<Option<(f64, f64)>>> = pending
                .iter()
                .map(|&vm| {
                    slots
                        .iter()
                        .map(|&h| reference_price(&c, &metric, vm, h, &excluded, &banned))
                        .collect()
                })
                .collect();
            let (mut count, mut total) = (0, 0.0);
            let mut hosts = BTreeSet::new();
            for (i, m) in matched.iter().enumerate() {
                let Some((host, cost)) = *m else { continue };
                let Some((eqn1, adjusted)) = prices[i][host.index()] else {
                    panic!("trial {trial}: victim {i} on forbidden host {host}");
                };
                assert_eq!(cost.to_bits(), eqn1.to_bits(), "trial {trial}: Eqn. 1 cost");
                assert!(hosts.insert(host), "trial {trial}: {host} taken twice");
                count += 1;
                total += adjusted;
            }
            let (best_count, best_total) = brute_force(&prices);
            assert_eq!(count, best_count, "trial {trial}: matched pairs");
            assert!(
                (total - best_total).abs() < 1e-9,
                "trial {trial}: adjusted total {total}, optimum {best_total}"
            );
        }
    }

    #[test]
    fn no_slots_leave_every_victim_unmatched() {
        let c = cluster();
        let metric = RackMetric::build(&c.dcn, &c.sim);
        let pending: Vec<VmId> = c.placement.vm_ids().take(3).collect();
        let (matched, space) = match_victims(
            &c.placement,
            &c.deps,
            &metric,
            &c.sim,
            &pending,
            &[],
            &[],
            &BTreeSet::new(),
        );
        assert_eq!(matched, vec![None; 3]);
        assert_eq!(space, 0);
    }

    #[test]
    fn oversized_vm_reported_unplaced() {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut placement = Placement::new(&dcn.inventory);
        // fill every host of racks 0 and 1 to the brim except host 0
        let s = VmSpec {
            id: placement.next_vm_id(),
            capacity: 90.0,
            value: 1.0,
            delay_sensitive: false,
        };
        let vm = placement.add_vm(s, HostId(0)).unwrap();
        for h in 1..placement.host_count() {
            let s = VmSpec {
                id: placement.next_vm_id(),
                capacity: 95.0,
                value: 1.0,
                delay_sensitive: false,
            };
            placement.add_vm(s, HostId::from_index(h)).unwrap();
        }
        let deps = DependencyGraph::new(placement.vm_count());
        let sim = SimConfig::paper();
        let metric = RackMetric::build(&dcn, &sim);
        let region = dcn.neighbor_racks(RackId(0), 4);
        let mut ctx = MigrationContext {
            placement: &mut placement,
            inventory: &dcn.inventory,
            deps: &deps,
            metric: &metric,
            sim: &sim,
        };
        let plan = vmmigration(&mut ctx, &[vm], &region, 3);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.unplaced, vec![vm]);
    }
}
