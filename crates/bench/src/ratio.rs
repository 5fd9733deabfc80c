//! Sec. VI-C: empirical approximation ratio of the Local Search k-median
//! algorithm (Alg. 5) against exhaustive optima, checked against the
//! `3 + 2/p` guarantee.

use crate::report::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sheriff_core::kmedian::{exact_optimal, local_search_from, KMedianInstance};
use sheriff_core::RatioPoint;
use sheriff_obs::NullSink;

/// Random metric k-median instance: clients and facilities are points in
/// the unit square, costs are Euclidean distances (a metric, as required
/// by the Arya et al. guarantee).
pub fn random_instance(
    rng: &mut StdRng,
    clients: usize,
    facilities: usize,
    k: usize,
) -> KMedianInstance {
    let pt =
        |rng: &mut StdRng| -> (f64, f64) { (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)) };
    let cs: Vec<_> = (0..clients).map(|_| pt(rng)).collect();
    let fs: Vec<_> = (0..facilities).map(|_| pt(rng)).collect();
    let cost = cs
        .iter()
        .map(|c| {
            fs.iter()
                .map(|f| ((c.0 - f.0).powi(2) + (c.1 - f.1).powi(2)).sqrt())
                .collect()
        })
        .collect();
    KMedianInstance::new(cost, k)
}

/// Run `trials` random instances per swap size `p ∈ 1..=max_p`; record the
/// worst and mean empirical ratio per `p`.
pub fn ratio_experiment(trials: usize, max_p: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(
        "ratio",
        "Local-search k-median: empirical ratio vs 3 + 2/p bound",
        &["p", "mean_ratio", "worst_ratio", "bound", "within_bound"],
    );
    // instance shapes small enough for exhaustive optima
    let shapes = [(12usize, 8usize, 3usize), (15, 9, 4), (10, 10, 5)];
    for p in 1..=max_p {
        let mut worst: f64 = 1.0;
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut all_within = true;
        for trial in 0..trials {
            let (c, f, k) = shapes[trial % shapes.len()];
            let inst = random_instance(&mut rng, c, f, k);
            let opt = exact_optimal(&inst);
            // Alg. 5 starts from "an arbitrary feasible solution"; probe
            // the worst local optimum reachable from random starts, which
            // is what the 3 + 2/p guarantee actually bounds
            for _start in 0..5 {
                let mut init: Vec<usize> = (0..f).collect();
                for i in (1..f).rev() {
                    init.swap(i, rng.gen_range(0..=i));
                }
                init.truncate(k);
                let ls = local_search_from(&inst, init, p, 10_000, &mut NullSink);
                let point = RatioPoint::new(p, ls.cost, opt.cost);
                worst = worst.max(point.ratio);
                sum += point.ratio;
                n += 1;
                all_within &= point.within_bound();
            }
        }
        let bound = 3.0 + 2.0 / p as f64;
        t.push(vec![
            p as f64,
            sum / n as f64,
            worst,
            bound,
            if all_within { 1.0 } else { 0.0 },
        ]);
    }
    t.note("within_bound = 1 means every trial respected the 3 + 2/p guarantee".to_string());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_respect_theoretical_bound() {
        let t = ratio_experiment(6, 3, 42);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[4], 1.0, "p = {} exceeded its bound", row[0]);
            assert!(row[1] <= row[2] + 1e-12, "mean must not exceed worst");
            assert!(row[2] <= row[3], "worst {} > bound {}", row[2], row[3]);
        }
    }

    #[test]
    fn larger_p_not_worse_on_average() {
        let t = ratio_experiment(9, 2, 7);
        let mean_p1 = t.rows[0][1];
        let mean_p2 = t.rows[1][1];
        assert!(mean_p2 <= mean_p1 + 0.05, "p=2 {mean_p2} vs p=1 {mean_p1}");
    }
}
