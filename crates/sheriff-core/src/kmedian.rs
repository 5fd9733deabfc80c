//! Alg. 5 — the Local Search k-median algorithm, and the VMMIGRATION →
//! k-median transformation of Sec. V-A.
//!
//! The transformation: after Floyd–Warshall collapses rack-to-rack routing
//! into a complete metric, `Cost(v_i, v_p) = C_r + f(v_i, v_p) + G(v_i, v_p)`
//! depends only on the endpoints, so choosing destination ToRs for the
//! alerting source ToRs is a k-median instance (clients = source ToRs `C`,
//! facilities = all ToRs `F`). The Arya et al. \[29\] local search with
//! `p`-swaps achieves ratio `3 + 2/p` (Sec. VI-C); an exact enumerator
//! validates the ratio empirically.

use dcn_sim::SheriffError;
use sheriff_obs::{emit, Event, EventSink, NullSink};

/// A k-median instance: `cost[c][f]` is the connection cost of client `c`
/// to facility `f`; exactly `k` facilities may open.
#[derive(Debug, Clone)]
pub struct KMedianInstance {
    /// Client × facility connection costs.
    pub cost: Vec<Vec<f64>>,
    /// Number of facilities to open.
    pub k: usize,
}

impl KMedianInstance {
    /// Validated constructor. Panics on structural defects; see
    /// [`KMedianInstance::try_new`] for the fallible form.
    pub fn new(cost: Vec<Vec<f64>>, k: usize) -> Self {
        assert!(!cost.is_empty(), "need at least one client");
        let m = cost[0].len();
        assert!(
            cost.iter().all(|r| r.len() == m),
            "matrix must be rectangular"
        );
        assert!(k >= 1 && k <= m, "k must be in 1..=facilities");
        Self { cost, k }
    }

    /// Fallible [`KMedianInstance::new`]: returns a typed error instead
    /// of panicking on an empty or ragged matrix or `k` out of range.
    pub fn try_new(cost: Vec<Vec<f64>>, k: usize) -> Result<Self, SheriffError> {
        if cost.is_empty() {
            return Err(SheriffError::InvalidKMedian {
                reason: "need at least one client".into(),
            });
        }
        let m = cost[0].len();
        if !cost.iter().all(|r| r.len() == m) {
            return Err(SheriffError::InvalidKMedian {
                reason: "matrix must be rectangular".into(),
            });
        }
        if k < 1 || k > m {
            return Err(SheriffError::InvalidKMedian {
                reason: format!("k = {k} must be in 1..={m}"),
            });
        }
        Ok(Self { cost, k })
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.cost.len()
    }

    /// Number of facilities.
    pub fn facilities(&self) -> usize {
        self.cost[0].len()
    }

    /// Total cost of serving every client from its cheapest open facility.
    pub fn solution_cost(&self, open: &[usize]) -> f64 {
        debug_assert!(!open.is_empty());
        self.cost
            .iter()
            .map(|row| open.iter().map(|&f| row[f]).fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// Result of a k-median solve.
#[derive(Debug, Clone)]
pub struct KMedianSolution {
    /// The open facilities.
    pub open: Vec<usize>,
    /// Total connection cost.
    pub cost: f64,
    /// Local-search iterations performed (0 for exact).
    pub iterations: usize,
}

/// Greedy initialisation: repeatedly open the facility that most reduces
/// total cost (standard warm start for local search).
pub fn greedy_init(inst: &KMedianInstance) -> Vec<usize> {
    let m = inst.facilities();
    let mut open: Vec<usize> = Vec::with_capacity(inst.k);
    let mut best_dist = vec![f64::INFINITY; inst.clients()];
    for _ in 0..inst.k {
        let mut best_f = usize::MAX;
        let mut best_gain = f64::NEG_INFINITY;
        for f in 0..m {
            if open.contains(&f) {
                continue;
            }
            let gain: f64 = inst
                .cost
                .iter()
                .enumerate()
                .map(|(c, row)| (best_dist[c] - row[f]).max(0.0))
                .sum();
            if gain > best_gain {
                best_gain = gain;
                best_f = f;
            }
        }
        open.push(best_f);
        for (c, row) in inst.cost.iter().enumerate() {
            best_dist[c] = best_dist[c].min(row[best_f]);
        }
    }
    open.sort_unstable();
    open
}

/// Alg. 5: local search with swaps of up to `p` facilities.
///
/// Starting from a feasible solution, repeatedly applies the best
/// improving swap `(A ⊂ S, B ⊄ S, |A| = |B| = s ≤ p)` until no swap
/// improves the cost (or `max_iterations` is reached) — the Arya et al.
/// scheme whose local optima are within `3 + 2/p` of optimal. Swap sizes
/// whose candidate count `C(k, s)·C(m−k, s)` exceeds an internal budget
/// are skipped (the guarantee of the largest affordable `s` still holds).
pub fn local_search(inst: &KMedianInstance, p: usize, max_iterations: usize) -> KMedianSolution {
    local_search_from(inst, greedy_init(inst), p, max_iterations, &mut NullSink)
}

/// [`local_search`] from an explicit initial solution ("S ← an arbitrary
/// feasible solution", Alg. 5 line 1), with an [`EventSink`]. Exposed so
/// the ratio experiment can probe local optima reachable from poor
/// starting points. Every accepted improving p-swap is emitted as a
/// `swap_accepted` event carrying the objective value after the swap, so
/// a trace shows the Alg. 5 descent curve.
pub fn local_search_from<S: EventSink + ?Sized>(
    inst: &KMedianInstance,
    initial: Vec<usize>,
    p: usize,
    max_iterations: usize,
    sink: &mut S,
) -> KMedianSolution {
    assert!(p >= 1, "swap size must be at least 1");
    assert_eq!(
        initial.len(),
        inst.k,
        "initial solution must open k facilities"
    );
    let mut open = initial;
    let mut cost = inst.solution_cost(&open);
    let mut iterations = 0;

    loop {
        if iterations >= max_iterations {
            break;
        }
        iterations += 1;
        let improved = best_swap(inst, &mut open, &mut cost, p);
        if !improved {
            break;
        }
        emit(sink, || Event::SwapAccepted {
            iteration: iterations as u64,
            cost,
        });
    }
    open.sort_unstable();
    KMedianSolution {
        open,
        cost,
        iterations,
    }
}

/// Candidate-swap budget per swap size: above this many (A, B) pairs the
/// size is skipped to stay polynomial on large instances.
const SWAP_BUDGET: u64 = 2_000_000;

fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut out: u64 = 1;
    for i in 0..k.min(n - k) {
        out = out.saturating_mul((n - i) as u64) / (i as u64 + 1);
    }
    out
}

/// Enumerate every subset of `items` of size `s`, calling `f` with each.
fn for_each_combination(n: usize, s: usize, f: &mut impl FnMut(&[usize])) {
    let mut idx: Vec<usize> = (0..s).collect();
    if s == 0 || s > n {
        return;
    }
    loop {
        f(&idx);
        // advance lexicographically
        let mut i = s;
        while i > 0 {
            i -= 1;
            if idx[i] != i + n - s {
                idx[i] += 1;
                for j in (i + 1)..s {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
            if i == 0 {
                return;
            }
        }
    }
}

/// Try every swap of size `1..=p` (subject to the budget); apply the best
/// strictly-improving one. Returns whether an improvement was made.
fn best_swap(inst: &KMedianInstance, open: &mut Vec<usize>, cost: &mut f64, p: usize) -> bool {
    let m = inst.facilities();
    let k = open.len();
    let closed: Vec<usize> = (0..m).filter(|f| !open.contains(f)).collect();

    let mut best: Option<(Vec<usize>, f64)> = None;
    for s in 1..=p.min(k).min(closed.len()) {
        if binomial(k, s).saturating_mul(binomial(closed.len(), s)) > SWAP_BUDGET {
            continue;
        }
        for_each_combination(k, s, &mut |a_idx| {
            for_each_combination(closed.len(), s, &mut |b_idx| {
                let mut cand = open.clone();
                for (ai, bi) in a_idx.iter().zip(b_idx) {
                    cand[*ai] = closed[*bi];
                }
                let c = inst.solution_cost(&cand);
                if c < *cost - 1e-12 && best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                    best = Some((cand, c));
                }
            });
        });
    }
    if let Some((cand, c)) = best {
        *open = cand;
        *cost = c;
        true
    } else {
        false
    }
}

/// Exact optimum by enumerating every k-subset of facilities. Exponential;
/// intended for the ratio experiment's small instances (`C(m, k)` must be
/// modest).
pub fn exact_optimal(inst: &KMedianInstance) -> KMedianSolution {
    let m = inst.facilities();
    let mut subset: Vec<usize> = (0..inst.k).collect();
    let mut best_cost = inst.solution_cost(&subset);
    let mut best = subset.clone();
    // iterate k-combinations in lexicographic order
    loop {
        // advance
        let mut i = inst.k;
        loop {
            if i == 0 {
                let sol = KMedianSolution {
                    open: best,
                    cost: best_cost,
                    iterations: 0,
                };
                return sol;
            }
            i -= 1;
            if subset[i] != i + m - inst.k {
                break;
            }
        }
        if subset[i] == i + m - inst.k {
            let sol = KMedianSolution {
                open: best,
                cost: best_cost,
                iterations: 0,
            };
            return sol;
        }
        subset[i] += 1;
        for j in (i + 1)..inst.k {
            subset[j] = subset[j - 1] + 1;
        }
        let c = inst.solution_cost(&subset);
        if c < best_cost {
            best_cost = c;
            best = subset.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Metric instance from random points on a line (|x_c − x_f|).
    fn line_instance(
        rng: &mut StdRng,
        clients: usize,
        facilities: usize,
        k: usize,
    ) -> KMedianInstance {
        let cx: Vec<f64> = (0..clients).map(|_| rng.gen_range(0.0..100.0)).collect();
        let fx: Vec<f64> = (0..facilities).map(|_| rng.gen_range(0.0..100.0)).collect();
        let cost = cx
            .iter()
            .map(|&c| fx.iter().map(|&f| (c - f).abs()).collect())
            .collect();
        KMedianInstance::new(cost, k)
    }

    #[test]
    fn solution_cost_uses_cheapest_open_facility() {
        let inst = KMedianInstance::new(vec![vec![1.0, 5.0, 9.0], vec![7.0, 2.0, 9.0]], 2);
        assert_eq!(inst.solution_cost(&[0, 1]), 3.0);
        assert_eq!(inst.solution_cost(&[2, 1]), 7.0);
    }

    #[test]
    fn greedy_init_opens_k_distinct_facilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = line_instance(&mut rng, 20, 10, 4);
        let open = greedy_init(&inst);
        assert_eq!(open.len(), 4);
        let set: std::collections::HashSet<_> = open.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn local_search_matches_exact_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..15 {
            let inst = line_instance(&mut rng, 12, 8, 3);
            let ls = local_search(&inst, 2, 1000);
            let opt = exact_optimal(&inst);
            assert!(
                ls.cost <= opt.cost * 1.2 + 1e-9,
                "trial {trial}: LS {} vs OPT {}",
                ls.cost,
                opt.cost
            );
            assert!(ls.cost >= opt.cost - 1e-9, "LS beat the optimum?!");
        }
    }

    #[test]
    fn ratio_within_theoretical_bound() {
        // 3 + 2/p with p = 1 → 5; p = 2 → 4. Empirical ratios must respect it.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let inst = line_instance(&mut rng, 15, 9, 3);
            let opt = exact_optimal(&inst);
            for p in [1usize, 2] {
                let ls = local_search(&inst, p, 1000);
                let bound = 3.0 + 2.0 / p as f64;
                assert!(
                    ls.cost <= bound * opt.cost + 1e-9,
                    "p={p}: ratio {} exceeds {bound}",
                    ls.cost / opt.cost
                );
            }
        }
    }

    #[test]
    fn p2_never_worse_than_p1() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let inst = line_instance(&mut rng, 20, 12, 4);
            let c1 = local_search(&inst, 1, 1000).cost;
            let c2 = local_search(&inst, 2, 1000).cost;
            assert!(c2 <= c1 + 1e-9, "2-swap {c2} worse than 1-swap {c1}");
        }
    }

    #[test]
    fn k_equals_facilities_is_trivially_optimal() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = line_instance(&mut rng, 10, 5, 5);
        let ls = local_search(&inst, 1, 100);
        let opt = exact_optimal(&inst);
        assert!((ls.cost - opt.cost).abs() < 1e-9);
        assert_eq!(ls.open, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exact_enumerates_combinations_correctly() {
        // trivial instance where facility 2 is free for everyone
        let inst = KMedianInstance::new(vec![vec![5.0, 5.0, 0.0], vec![5.0, 5.0, 0.0]], 1);
        let opt = exact_optimal(&inst);
        assert_eq!(opt.open, vec![2]);
        assert_eq!(opt.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn invalid_k_rejected() {
        KMedianInstance::new(vec![vec![1.0]], 2);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert!(KMedianInstance::try_new(vec![], 1).is_err());
        assert!(KMedianInstance::try_new(vec![vec![1.0], vec![1.0, 2.0]], 1).is_err());
        assert!(KMedianInstance::try_new(vec![vec![1.0]], 2).is_err());
        assert!(KMedianInstance::try_new(vec![vec![1.0, 2.0]], 2).is_ok());
    }

    #[test]
    fn instrumented_search_traces_the_descent() {
        use sheriff_obs::RingRecorder;
        let mut rng = StdRng::seed_from_u64(7);
        let inst = line_instance(&mut rng, 12, 8, 3);
        // a poor start guarantees at least one improving swap
        let start: Vec<usize> = (0..3).collect();
        let base = local_search_from(&inst, start.clone(), 2, 1000, &mut NullSink);
        let mut rec = RingRecorder::new(64);
        let traced = local_search_from(&inst, start, 2, 1000, &mut rec);
        assert_eq!(traced.cost, base.cost, "instrumentation changed the result");
        let swaps: Vec<f64> = rec
            .events()
            .filter_map(|e| match e {
                Event::SwapAccepted { cost, .. } => Some(*cost),
                _ => None,
            })
            .collect();
        assert!(
            swaps.windows(2).all(|w| w[1] < w[0]),
            "descent not monotone"
        );
        assert_eq!(rec.counters().get("kmedian.swaps"), swaps.len() as u64);
        if let Some(&last) = swaps.last() {
            assert!((last - traced.cost).abs() < 1e-9);
        }
    }
}
