//! Failure injection: dead links and failed hosts.
//! Sec. III-A assumes a backup system resolves crashes; these stateless
//! helpers create the crash scenarios that `sheriff-core`'s evacuation
//! and the `B_t`-aware metric must survive. The scenario runner keeps
//! the state across rounds (what is down, and what it carried) and
//! turns shim crashes and partitions into the fabric's fault windows.

use dcn_topology::graph::EdgeIdx;
use dcn_topology::placement::Placement;
use dcn_topology::{Dcn, HostId, VmId};
use rand::Rng;

/// Kill one link: its available bandwidth drops to zero, putting it
/// below every positive `B_t` threshold so the metric routes around it.
///
/// Returns the bandwidth that flows had actually consumed on the link at
/// failure time; pass it back to [`restore_link`] so recovery reinstates
/// the pre-failure utilisation instead of a magically empty link.
pub fn fail_link(dcn: &mut Dcn, e: EdgeIdx) -> f64 {
    let link = dcn.graph.link(e);
    let consumed = link.capacity - link.available_bw;
    let cap = link.capacity;
    dcn.graph.link_mut(e).consume(cap);
    consumed
}

/// Restore a previously failed link, re-applying the utilisation it
/// carried when it failed (`consumed`, as returned by [`fail_link`]).
///
/// The old implementation released the full capacity, so a link that was
/// 40% utilised before the failure came back with 100% headroom —
/// inflating `B_t` and letting the metric oversubscribe it.
pub fn restore_link(dcn: &mut Dcn, e: EdgeIdx, consumed: f64) {
    let cap = dcn.graph.link(e).capacity;
    let link = dcn.graph.link_mut(e);
    link.release(cap);
    link.consume(consumed);
}

/// Fail a host: its capacity becomes unavailable, so no planner will pick
/// it as a destination, and every resident VM must be evacuated. Returns
/// the stranded VMs (the evacuation work-list), hottest-first is not
/// guaranteed — callers order them as their policy requires.
pub fn fail_host(placement: &mut Placement, host: HostId) -> Vec<VmId> {
    placement.set_host_online(host, false);
    placement.vms_on(host).to_vec()
}

/// Bring a failed host back: it resumes accepting placements with
/// whatever capacity its remaining residents leave free.
pub fn restore_host(placement: &mut Placement, host: HostId) {
    placement.set_host_online(host, true);
}

/// Fail a random `fraction` of all links. Returns the failed edge ids.
pub fn fail_random_links<R: Rng>(dcn: &mut Dcn, rng: &mut R, fraction: f64) -> Vec<EdgeIdx> {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
    let m = dcn.graph.edge_count();
    let want = (m as f64 * fraction).round() as usize;
    let mut ids: Vec<EdgeIdx> = (0..m).collect();
    for i in (1..m).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    ids.truncate(want);
    for &e in &ids {
        fail_link(dcn, e);
    }
    ids
}

/// Whether every rack can still reach every other rack over links with
/// available bandwidth above `threshold` (BFS on the live subgraph).
pub fn racks_connected(dcn: &Dcn, threshold: f64) -> bool {
    let g = &dcn.graph;
    if dcn.rack_nodes.is_empty() {
        return true;
    }
    let mut seen = vec![false; g.node_count()];
    let start = dcn.rack_nodes[0];
    seen[start] = true;
    let mut stack = vec![start];
    while let Some(u) = stack.pop() {
        for &(v, e) in g.neighbors(u) {
            if !seen[v] && g.link(e).usable(threshold) {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    dcn.rack_nodes.iter().all(|&n| seen[n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::{self, FatTreeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fail_and_restore_roundtrip() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let consumed = fail_link(&mut dcn, 0);
        assert_eq!(consumed, 0.0, "pristine link carries no traffic");
        assert_eq!(dcn.graph.link(0).available_bw, 0.0);
        assert!(!dcn.graph.link(0).usable(0.01));
        restore_link(&mut dcn, 0, consumed);
        assert_eq!(dcn.graph.link(0).available_bw, dcn.graph.link(0).capacity);
    }

    #[test]
    fn restore_preserves_prior_utilization() {
        // the regression this fixes: a partially-utilised link must come
        // back with its old utilisation, not with full headroom
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let cap = dcn.graph.link(0).capacity;
        dcn.graph.link_mut(0).consume(cap * 0.4);
        let before = dcn.graph.link(0).available_bw;
        let consumed = fail_link(&mut dcn, 0);
        assert!((consumed - cap * 0.4).abs() < 1e-9);
        restore_link(&mut dcn, 0, consumed);
        assert!((dcn.graph.link(0).available_bw - before).abs() < 1e-9);
    }

    #[test]
    fn fattree_survives_single_link_failure() {
        // fat-trees are multipath: one dead link never partitions racks
        let base = fattree::build(&FatTreeConfig::paper(4));
        for e in 0..base.graph.edge_count() {
            let mut dcn = base.clone();
            fail_link(&mut dcn, e);
            assert!(
                racks_connected(&dcn, 0.01),
                "edge {e} partitioned the fabric"
            );
        }
    }

    #[test]
    fn random_failures_eventually_partition() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut rng = StdRng::seed_from_u64(5);
        let failed = fail_random_links(&mut dcn, &mut rng, 0.9);
        assert_eq!(
            failed.len(),
            (dcn.graph.edge_count() as f64 * 0.9).round() as usize
        );
        assert!(
            !racks_connected(&dcn, 0.01),
            "90% failures should partition"
        );
    }

    #[test]
    fn zero_fraction_fails_nothing() {
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(fail_random_links(&mut dcn, &mut rng, 0.0).is_empty());
        assert!(racks_connected(&dcn, 0.01));
    }

    #[test]
    fn metric_routes_around_failed_links() {
        use crate::migration::RackMetric;
        use crate::SimConfig;
        use dcn_topology::RackId;
        let mut dcn = fattree::build(&FatTreeConfig::paper(4));
        let sim = SimConfig::paper();
        let before = RackMetric::build(&dcn, &sim);
        // kill one of rack 0's two uplinks
        let node = dcn.rack_node(RackId(0));
        let (_, e) = dcn.graph.neighbors(node)[0];
        fail_link(&mut dcn, e);
        let after = RackMetric::build(&dcn, &sim);
        // still reachable through the second uplink
        assert!(after.reachable(RackId(0), RackId(1)));
        // and never cheaper than the healthy fabric
        let b = before.transmission_cost(&sim, 10.0, RackId(0), RackId(1));
        let a = after.transmission_cost(&sim, 10.0, RackId(0), RackId(1));
        assert!(a >= b - 1e-9);
    }
}
