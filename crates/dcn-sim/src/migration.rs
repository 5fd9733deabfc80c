//! The VM-migration cost model (Sec. III-C, Eqn. 1) and the six-stage
//! pre-copy live-migration timeline (Fig. 2; Clark et al. \[17\]).
//!
//! `Cost(v_i, v_p) = C_r + C_d·D(e)·χ^p_i + Σ_{e∈P(v_i,v_p)} (δ·T(e) + η·P(e))`
//!
//! with `T(e) = m.capacity / B(e)` and `P(e) = B(e)/C(e)`. Sec. V-A shows
//! the transmission term can be collapsed to a function `G(v_i, v_p)` of
//! the endpoints by choosing the cheapest rack-to-rack path once
//! (Floyd–Warshall); [`RackMetric`] precomputes exactly that.

use crate::config::SimConfig;
use dcn_topology::path::{dijkstra, walk_back};
use dcn_topology::{Dcn, RackId};

/// Precomputed rack-to-rack metric: for every ordered rack pair, the
/// physical distance and the two path-sum terms of Eqn. 1 along the
/// minimum-transmission-cost path.
///
/// `T(e) = cap / B(e)` is linear in the VM capacity, so storing
/// `Σ 1/B(e)` and `Σ B(e)/C(e)` lets one precomputation serve every VM
/// size: `G(v_i, v_p) = δ·cap·inv_bw + η·util`.
#[derive(Debug, Clone)]
pub struct RackMetric {
    n: usize,
    /// Physical shortest-path distance `D(v_i, v_p)` between racks.
    distance: Vec<f64>,
    /// `Σ 1/B(e)` along the chosen path.
    inv_bw: Vec<f64>,
    /// `Σ B(e)/C(e)` along the chosen path.
    util: Vec<f64>,
}

impl RackMetric {
    /// Build the metric from the current link state of `dcn`. Paths are
    /// chosen to minimise the per-edge transmission cost
    /// `δ/B(e) + η·B(e)/C(e)` (the paper's reference-VM collapse); links
    /// below the bandwidth threshold `B_t` are unusable (Sec. III-C).
    pub fn build(dcn: &Dcn, cfg: &SimConfig) -> Self {
        let g = &dcn.graph;
        let n_racks = dcn.rack_count();
        let mut distance = vec![f64::INFINITY; n_racks * n_racks];
        let mut inv_bw = vec![f64::INFINITY; n_racks * n_racks];
        let mut util = vec![0.0; n_racks * n_racks];

        let bt = cfg.bandwidth_threshold;
        let edge_cost = |_, l: &dcn_topology::Link| {
            Some(if l.usable(bt) {
                cfg.delta / l.available_bw + cfg.eta * l.utility_rate()
            } else {
                // unusable link: effectively removed from the path search
                1e15
            })
        };

        for src_rack in 0..n_racks {
            let src_node = dcn.rack_nodes[src_rack];
            let (dist, prev) = dijkstra(g, src_node, None, edge_cost);
            for (dst_rack, &dst_node) in dcn.rack_nodes.iter().enumerate() {
                let idx = src_rack * n_racks + dst_rack;
                if src_rack == dst_rack {
                    distance[idx] = 0.0;
                    inv_bw[idx] = 0.0;
                    continue;
                }
                if !dist[dst_node].is_finite() || dist[dst_node] >= 1e14 {
                    continue; // unreachable under B_t
                }
                // walk the predecessor chain accumulating link terms
                let mut d = 0.0;
                let mut ib = 0.0;
                let mut ut = 0.0;
                for (e, _) in walk_back(g, &prev, dst_node) {
                    let l = g.link(e);
                    d += l.distance;
                    ib += 1.0 / l.available_bw;
                    ut += l.utility_rate();
                }
                distance[idx] = d;
                inv_bw[idx] = ib;
                util[idx] = ut;
            }
        }
        Self {
            n: n_racks,
            distance,
            inv_bw,
            util,
        }
    }

    /// Physical distance `D(v_i, v_p)` along the chosen path.
    #[inline]
    pub fn distance(&self, from: RackId, to: RackId) -> f64 {
        self.distance[from.index() * self.n + to.index()]
    }

    /// The transmission term `G(v_i, v_p) = Σ (δ·T(e) + η·P(e))` for a VM
    /// of size `vm_capacity`.
    #[inline]
    pub fn transmission_cost(
        &self,
        cfg: &SimConfig,
        vm_capacity: f64,
        from: RackId,
        to: RackId,
    ) -> f64 {
        let idx = from.index() * self.n + to.index();
        cfg.delta * vm_capacity * self.inv_bw[idx] + cfg.eta * self.util[idx]
    }

    /// Full migration cost of Eqn. 1. `chi` is the dependency-change
    /// indicator χ (0 or 1, from `DependencyGraph::chi`).
    pub fn migration_cost(
        &self,
        cfg: &SimConfig,
        vm_capacity: f64,
        from: RackId,
        to: RackId,
        chi: f64,
    ) -> f64 {
        if from == to {
            // intra-rack reshuffle: only the fixed VM-copy cost applies
            return cfg.c_r;
        }
        cfg.c_r
            + cfg.c_d * self.distance(from, to) * chi
            + self.transmission_cost(cfg, vm_capacity, from, to)
    }

    /// Whether a destination rack is reachable under the bandwidth
    /// threshold.
    #[inline]
    pub fn reachable(&self, from: RackId, to: RackId) -> bool {
        self.distance[from.index() * self.n + to.index()].is_finite()
    }
}

/// Durations of the six stages of pre-copy live migration (Fig. 2):
/// t₁ initialization+reservation, t₂ iterative pre-copy, t₃ stop-and-copy,
/// t₄ commitment+activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationTimeline {
    /// Initialization + reservation time.
    pub t1: f64,
    /// Iterative pre-copy time.
    pub t2: f64,
    /// Stop-and-copy downtime (the paper cites ~60 ms and sets its cost to
    /// zero).
    pub t3: f64,
    /// Commitment + activation time.
    pub t4: f64,
    /// Pre-copy rounds executed.
    pub rounds: u32,
}

impl MigrationTimeline {
    /// Total wall-clock duration.
    pub fn total(&self) -> f64 {
        self.t1 + self.t2 + self.t3 + self.t4
    }

    /// Service downtime (only the stop-and-copy stage).
    pub fn downtime(&self) -> f64 {
        self.t3
    }
}

/// Model the iterative pre-copy process: each round retransmits the pages
/// dirtied during the previous round. With dirty rate `r` (MB/s) and
/// bandwidth `bw` (MB/s), round `i` transfers `ram·(r/bw)^i`; iteration
/// stops when the residual fits under `stop_threshold` or `max_rounds` is
/// hit, and the residual is moved during stop-and-copy.
pub fn precopy_timeline(
    ram_mb: f64,
    dirty_rate: f64,
    bandwidth: f64,
    stop_threshold_mb: f64,
    max_rounds: u32,
) -> MigrationTimeline {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    assert!(ram_mb >= 0.0 && dirty_rate >= 0.0);
    const T1: f64 = 0.5; // init + reservation (s)
    const T4: f64 = 0.2; // commitment + activation (s)

    let ratio = dirty_rate / bandwidth;
    let mut residual = ram_mb;
    let mut t2 = 0.0;
    let mut rounds = 0u32;
    // first round always sends all of RAM (stage 3 of Sec. III-C)
    loop {
        t2 += residual / bandwidth;
        rounds += 1;
        residual *= ratio;
        if residual <= stop_threshold_mb || rounds >= max_rounds || ratio >= 1.0 {
            break;
        }
    }
    MigrationTimeline {
        t1: T1,
        t2,
        t3: residual / bandwidth,
        t4: T4,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::{self, FatTreeConfig};

    fn setup() -> (Dcn, SimConfig, RackMetric) {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let cfg = SimConfig::paper();
        let metric = RackMetric::build(&dcn, &cfg);
        (dcn, cfg, metric)
    }

    #[test]
    fn self_distance_zero_and_symmetric() {
        let (dcn, _, m) = setup();
        for r in 0..dcn.rack_count() {
            let r = RackId::from_index(r);
            assert_eq!(m.distance(r, r), 0.0);
        }
        let a = RackId(0);
        let b = RackId(5);
        assert!((m.distance(a, b) - m.distance(b, a)).abs() < 1e-9);
    }

    #[test]
    fn same_pod_cheaper_than_cross_pod() {
        let (_, cfg, m) = setup();
        // racks 0,1 share a pod; rack 2 is in the next pod
        let same = m.migration_cost(&cfg, 10.0, RackId(0), RackId(1), 1.0);
        let cross = m.migration_cost(&cfg, 10.0, RackId(0), RackId(2), 1.0);
        assert!(same < cross, "{same} !< {cross}");
    }

    #[test]
    fn cost_includes_cr_and_scales_with_chi() {
        let (_, cfg, m) = setup();
        let no_dep = m.migration_cost(&cfg, 10.0, RackId(0), RackId(1), 0.0);
        let dep = m.migration_cost(&cfg, 10.0, RackId(0), RackId(1), 1.0);
        assert!(no_dep >= cfg.c_r);
        assert!((dep - no_dep - cfg.c_d * m.distance(RackId(0), RackId(1))).abs() < 1e-9);
    }

    #[test]
    fn intra_rack_cost_is_cr_only() {
        let (_, cfg, m) = setup();
        assert_eq!(
            m.migration_cost(&cfg, 10.0, RackId(3), RackId(3), 1.0),
            cfg.c_r
        );
    }

    #[test]
    fn transmission_cost_linear_in_vm_size() {
        let (_, cfg, m) = setup();
        let g10 = m.transmission_cost(&cfg, 10.0, RackId(0), RackId(1));
        let g20 = m.transmission_cost(&cfg, 20.0, RackId(0), RackId(1));
        let g30 = m.transmission_cost(&cfg, 30.0, RackId(0), RackId(1));
        assert!(g20 > g10);
        // affine in capacity: equal increments
        assert!((g30 - g20 - (g20 - g10)).abs() < 1e-9);
        // the capacity-independent η-term is non-negative
        let util_term = g10 - (g20 - g10);
        assert!(util_term >= -1e-12);
    }

    #[test]
    fn saturated_links_make_racks_unreachable() {
        let (mut dcn, cfg, _) = setup();
        // saturate every edge link of rack 0
        let node = dcn.rack_node(RackId(0));
        let edges: Vec<_> = dcn.graph.neighbors(node).iter().map(|&(_, e)| e).collect();
        for e in edges {
            let cap = dcn.graph.link(e).capacity;
            dcn.graph.link_mut(e).consume(cap);
        }
        let m = RackMetric::build(&dcn, &cfg);
        assert!(!m.reachable(RackId(0), RackId(1)));
        assert!(m.reachable(RackId(1), RackId(2)));
    }

    #[test]
    fn hop_counts_match_fattree_structure() {
        let (_, _, m) = setup();
        // same pod: rack -> agg -> rack = 2 edge links of distance 1
        assert_eq!(m.distance(RackId(0), RackId(1)), 2.0);
        // cross pod: rack -> agg -> core -> agg -> rack = 2 edge links
        // of distance 1 and 2 core links of distance 2
        assert_eq!(m.distance(RackId(0), RackId(2)), 6.0);
    }

    #[test]
    fn precopy_converges_when_dirty_rate_below_bw() {
        let t = precopy_timeline(1024.0, 100.0, 1000.0, 1.0, 30);
        assert!(t.rounds >= 2);
        assert!(t.downtime() * 1000.0 < 20.0, "downtime {}s", t.t3);
        // total transfer ≥ one full RAM copy
        assert!(t.t2 >= 1024.0 / 1000.0);
    }

    #[test]
    fn precopy_bails_out_when_dirty_rate_exceeds_bw() {
        let t = precopy_timeline(1024.0, 2000.0, 1000.0, 1.0, 30);
        assert_eq!(t.rounds, 1, "ratio >= 1 must stop after the first copy");
        // everything dirtied again: stop-and-copy moves a full RAM's worth
        assert!(t.t3 >= 1024.0 * (2.0) / 1000.0 - 1e-9);
    }

    #[test]
    fn timeline_total_sums_stages() {
        let t = precopy_timeline(512.0, 50.0, 500.0, 1.0, 10);
        assert!((t.total() - (t.t1 + t.t2 + t.t3 + t.t4)).abs() < 1e-12);
    }
}
