//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use sheriff_dcn::forecast::series::{difference, undifference};
use sheriff_dcn::forecast::MinMaxScaler;
use sheriff_dcn::prelude::*;
use sheriff_dcn::sheriff::matching::{min_cost_assignment, FORBIDDEN};
use sheriff_dcn::sheriff::{priority, request_migration, Budget};
use sheriff_dcn::topology::Inventory;

proptest! {
    /// ∇ followed by integration reproduces the original tail for any d.
    #[test]
    fn difference_roundtrip(
        y in prop::collection::vec(-1e6f64..1e6, 5..60),
        d in 1usize..3,
    ) {
        prop_assume!(y.len() > d + 1);
        let (dy, _) = difference(&y, d);
        // rebuild the last point step by step: seeds from the prefix
        let prefix = &y[..y.len() - 1];
        let (pdy, pseeds) = difference(prefix, d);
        prop_assume!(!pdy.is_empty());
        let rebuilt = undifference(&dy[dy.len() - 1..], &pseeds);
        prop_assert!((rebuilt[0] - y[y.len() - 1]).abs() < 1e-6 * y[y.len()-1].abs().max(1.0));
    }

    /// Min-max scaling is a clamped bijection on the fitted range.
    #[test]
    fn scaler_roundtrip(y in prop::collection::vec(-1e5f64..1e5, 2..50), probe in -1e5f64..1e5) {
        let s = MinMaxScaler::fit(&y);
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let t = s.transform(probe);
        prop_assert!((0.0..=1.0).contains(&t));
        if (hi - lo) > 1e-9 && probe >= lo && probe <= hi {
            prop_assert!((s.inverse(t) - probe).abs() < 1e-6 * (hi - lo));
        }
    }

    /// The Hungarian assignment is always a valid matching and never
    /// assigns a forbidden pair.
    #[test]
    fn matching_validity(
        rows in 1usize..7,
        cols in 1usize..7,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cost: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| {
                if rng.gen_bool(0.2) { FORBIDDEN } else { rng.gen_range(0.0..100.0) }
            }).collect())
            .collect();
        let (assign, total) = min_cost_assignment(&cost.concat(), cols);
        let mut used = std::collections::HashSet::new();
        let mut expect_total = 0.0;
        for (i, a) in assign.iter().enumerate() {
            if let Some(j) = a {
                prop_assert!(used.insert(*j), "column used twice");
                prop_assert!(cost[i][*j] < FORBIDDEN / 2.0, "forbidden pair assigned");
                expect_total += cost[i][*j];
            }
        }
        prop_assert!((total - expect_total).abs() < 1e-6);
    }

    /// PRIORITY respects its budget and never selects delay-sensitive VMs.
    #[test]
    fn priority_budget_respected(
        caps in prop::collection::vec((1.0f64..25.0, 0.5f64..10.0, any::<bool>()), 1..15),
        budget in 1.0f64..120.0,
    ) {
        let mut inv = Inventory::new();
        inv.add_rack(1, 1e6, 1e6);
        let mut p = Placement::new(&inv);
        let mut ids = Vec::new();
        for (cap, value, ds) in &caps {
            let spec = VmSpec {
                id: p.next_vm_id(),
                capacity: cap.round().max(1.0),
                value: *value,
                delay_sensitive: *ds,
            };
            ids.push(p.add_vm(spec, HostId(0)).unwrap());
        }
        let chosen = priority(&ids, &p, |_| 0.5, Budget::Capacity(budget));
        let total: f64 = chosen.iter().map(|&vm| p.spec(vm).capacity).sum();
        prop_assert!(total <= budget + 1e-9, "selected {total} > budget {budget}");
        for vm in &chosen {
            prop_assert!(!p.spec(*vm).delay_sensitive);
        }
        // no duplicates
        let set: std::collections::HashSet<_> = chosen.iter().collect();
        prop_assert_eq!(set.len(), chosen.len());
    }

    /// Migration sequences preserve total VM capacity and never
    /// overcommit a host.
    #[test]
    fn migration_conserves_capacity(
        seed in 0u64..500,
        moves in 1usize..30,
    ) {
        use rand::{Rng, SeedableRng};
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let mut cluster = Cluster::build(
            dcn,
            &ClusterConfig { vms_per_host: 2.0, skew: 2.0, seed, ..ClusterConfig::default() },
            SimConfig::paper(),
        );
        let before: f64 = (0..cluster.placement.host_count())
            .map(|h| cluster.placement.used_capacity(HostId::from_index(h)))
            .sum();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let n = cluster.placement.vm_count();
        prop_assume!(n > 0);
        for _ in 0..moves {
            let vm = VmId::from_index(rng.gen_range(0..n));
            let host = HostId::from_index(rng.gen_range(0..cluster.placement.host_count()));
            // outcome may be Ack or any Reject; invariants must hold regardless
            let _ = request_migration(&mut cluster.placement, &cluster.deps, vm, host);
        }
        let after: f64 = (0..cluster.placement.host_count())
            .map(|h| cluster.placement.used_capacity(HostId::from_index(h)))
            .sum();
        prop_assert!((before - after).abs() < 1e-6, "capacity not conserved");
        for h in 0..cluster.placement.host_count() {
            let h = HostId::from_index(h);
            prop_assert!(cluster.placement.used_capacity(h) <= cluster.placement.host_capacity(h) + 1e-9);
        }
        // per-VM host bookkeeping is consistent with per-host lists
        for vm in cluster.placement.vm_ids() {
            let host = cluster.placement.host_of(vm);
            prop_assert!(cluster.placement.vms_on(host).contains(&vm));
        }
    }

    /// Fat-Tree structural invariants hold for every even pod count.
    #[test]
    fn fattree_structure(k in (1usize..9).prop_map(|v| v * 2)) {
        let cfg = FatTreeConfig::paper(k);
        let dcn = fattree::build(&cfg);
        prop_assert_eq!(dcn.rack_count(), k * k / 2);
        prop_assert!(dcn.graph.is_connected());
        // every rack has k/2 uplinks
        for &node in &dcn.rack_nodes {
            prop_assert_eq!(dcn.graph.degree(node), k / 2);
        }
    }

    /// BCube structural invariants hold for any (n, k) in range.
    #[test]
    fn bcube_structure(n in 2usize..7, k in 0usize..3) {
        let cfg = BCubeConfig { k, ..BCubeConfig::paper(n) };
        let dcn = bcube::build(&cfg);
        prop_assert_eq!(dcn.rack_count(), n.pow(k as u32 + 1));
        prop_assert!(dcn.graph.is_connected());
        for &node in &dcn.rack_nodes {
            prop_assert_eq!(dcn.graph.degree(node), k + 1);
        }
        for sw in dcn.graph.switch_indices() {
            prop_assert_eq!(dcn.graph.degree(sw), n);
        }
    }

    /// The rack metric is symmetric, zero on the diagonal, and respects
    /// the triangle inequality within numerical slack (it is built from
    /// shortest paths).
    #[test]
    fn rack_metric_is_metric_like(seed in 0u64..50) {
        let dcn = fattree::build(&FatTreeConfig::paper(4));
        let sim = SimConfig::paper();
        let metric = RackMetric::build(&dcn, &sim);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = dcn.rack_count();
        let a = RackId::from_index(rng.gen_range(0..n));
        let b = RackId::from_index(rng.gen_range(0..n));
        let c = RackId::from_index(rng.gen_range(0..n));
        prop_assert_eq!(metric.distance(a, a), 0.0);
        prop_assert!((metric.distance(a, b) - metric.distance(b, a)).abs() < 1e-9);
        prop_assert!(metric.distance(a, c) <= metric.distance(a, b) + metric.distance(b, c) + 1e-9);
    }
}
