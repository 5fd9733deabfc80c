//! Property-based tests over the management algorithms.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sheriff_core::kmedian::{exact_optimal, local_search, local_search_from, KMedianInstance};
use sheriff_core::matching::{min_cost_assignment, FORBIDDEN};
use sheriff_obs::NullSink;

fn metric_instance(seed: u64, clients: usize, facilities: usize, k: usize) -> KMedianInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let cx: Vec<(f64, f64)> = (0..clients)
        .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
        .collect();
    let fx: Vec<(f64, f64)> = (0..facilities)
        .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
        .collect();
    let cost = cx
        .iter()
        .map(|c| {
            fx.iter()
                .map(|f| ((c.0 - f.0).powi(2) + (c.1 - f.1).powi(2)).sqrt())
                .collect()
        })
        .collect();
    KMedianInstance::new(cost, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Local search never beats the exact optimum and always respects the
    /// 3 + 2/p bound, from any random start.
    #[test]
    fn local_search_bounded_by_theory(
        seed in 0u64..300,
        clients in 4usize..10,
        facilities in 4usize..8,
        p in 1usize..3,
    ) {
        let k = facilities / 2;
        prop_assume!(k >= 1);
        let inst = metric_instance(seed, clients, facilities, k);
        let opt = exact_optimal(&inst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00);
        let mut init: Vec<usize> = (0..facilities).collect();
        for i in (1..facilities).rev() {
            init.swap(i, rng.gen_range(0..=i));
        }
        init.truncate(k);
        let ls = local_search_from(&inst, init, p, 10_000, &mut NullSink);
        prop_assert!(ls.cost >= opt.cost - 1e-9, "beat the optimum?!");
        let bound = 3.0 + 2.0 / p as f64;
        prop_assert!(
            ls.cost <= bound * opt.cost + 1e-9,
            "ratio {} over bound {bound}",
            ls.cost / opt.cost.max(1e-12)
        );
        // a local optimum has no improving 1-swap: re-running from it is a fixpoint
        let again = local_search_from(&inst, ls.open.clone(), 1, 10_000, &mut NullSink);
        prop_assert!(again.cost <= ls.cost + 1e-9);
    }

    /// The greedy-started local search is deterministic and no worse than
    /// its own greedy initialisation.
    #[test]
    fn local_search_improves_on_greedy(seed in 0u64..200) {
        let inst = metric_instance(seed, 10, 7, 3);
        let greedy = sheriff_core::kmedian::greedy_init(&inst);
        let greedy_cost = inst.solution_cost(&greedy);
        let ls = local_search(&inst, 2, 1000);
        prop_assert!(ls.cost <= greedy_cost + 1e-9);
        let ls2 = local_search(&inst, 2, 1000);
        prop_assert_eq!(ls.open, ls2.open);
    }

    /// Matching, tall shapes included: every row assigned at most once, columns unique,
    /// and the assignment cost is minimal versus 200 random permutations
    /// (a cheap lower-confidence optimality check on top of the exact
    /// brute-force test in the unit suite).
    #[test]
    fn matching_beats_random_assignments(
        seed in 0u64..300,
        rows in 1usize..6,
        cols in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cost: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..cols).map(|_| {
                if rng.gen_bool(0.15) { FORBIDDEN } else { rng.gen_range(0.0..50.0) }
            }).collect())
            .collect();
        let (assign, total) = min_cost_assignment(&cost.concat(), cols);
        // validity
        let mut used = std::collections::HashSet::new();
        for (i, a) in assign.iter().enumerate() {
            if let Some(j) = a {
                prop_assert!(used.insert(*j));
                prop_assert!(cost[i][*j] < FORBIDDEN / 2.0);
            }
        }
        // sampled optimality: no random valid assignment does better
        for _ in 0..200 {
            let mut colperm: Vec<usize> = (0..cols).collect();
            for i in (1..cols).rev() {
                colperm.swap(i, rng.gen_range(0..=i));
            }
            let mut t = 0.0;
            let mut assigned = 0usize;
            for (i, &j) in colperm.iter().take(rows).enumerate() {
                if cost[i][j] < FORBIDDEN / 2.0 {
                    t += cost[i][j];
                    assigned += 1;
                }
            }
            let matched = assign.iter().filter(|a| a.is_some()).count();
            // only compare samples that match at least as many pairs
            if assigned >= matched {
                prop_assert!(total <= t + 1e-9, "random beat hungarian: {t} < {total}");
            }
        }
    }
}
