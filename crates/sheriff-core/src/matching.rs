//! Minimum-weight bipartite matching for Alg. 3 (VMMIGRATION pairs
//! candidate VMs with destination slots). The paper prescribes
//! "Minimal Weighted Matching with time complexity O(n³) … such as
//! Kuhn–Munkres with relaxation \[31\]"; this is the potentials form of the
//! Hungarian algorithm (Edmonds–Karp / Tomizawa), O(n²·m).

/// Cost value treated as "this pair is forbidden". Kept small enough that
/// sums of many forbidden entries retain f64 resolution against real costs
/// (at 1e18 the potentials arithmetic loses the low-order cost digits and
/// the matching can return a non-optimal row).
pub const FORBIDDEN: f64 = 1e9;

/// Solve the rectangular assignment problem: `cost[i][j]` is the cost of
/// assigning row `i` (a VM) to column `j` (a destination slot). Requires
/// `rows ≤ cols`. Returns, per row, the matched column (`None` when the
/// only available columns were [`FORBIDDEN`]), plus the total cost of the
/// real assignments.
pub fn min_cost_assignment(cost: &[Vec<f64>]) -> (Vec<Option<usize>>, f64) {
    let n = cost.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let m = cost[0].len();
    assert!(
        cost.iter().all(|r| r.len() == m),
        "cost matrix must be rectangular"
    );
    assert!(
        n <= m,
        "need at least as many columns as rows (pad if necessary)"
    );

    const INF: f64 = f64::INFINITY;
    // 1-indexed potentials; p[j] = row assigned to column j (0 = none)
    let mut u = vec![0.0; n + 1];
    let mut v = vec![0.0; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta.is_finite(), "augmenting path must exist");
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // augment along the alternating path
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![None; n];
    let mut total = 0.0;
    for j in 1..=m {
        if p[j] != 0 {
            let i = p[j] - 1;
            let c = cost[i][j - 1];
            if c < FORBIDDEN / 2.0 {
                assignment[i] = Some(j - 1);
                total += c;
            }
        }
    }
    (assignment, total)
}

/// Convenience: pad a possibly-tall matrix (more rows than columns) with
/// forbidden dummy columns so [`min_cost_assignment`] applies; rows that
/// land on dummies return `None`.
pub fn min_cost_assignment_padded(cost: &[Vec<f64>]) -> (Vec<Option<usize>>, f64) {
    let n = cost.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let m = cost[0].len();
    if m == 0 {
        return (vec![None; n], 0.0);
    }
    if n <= m {
        return min_cost_assignment(cost);
    }
    let padded: Vec<Vec<f64>> = cost
        .iter()
        .map(|row| {
            let mut r = row.clone();
            r.resize(n, FORBIDDEN);
            r
        })
        .collect();
    let (mut assign, total) = min_cost_assignment(&padded);
    for a in assign.iter_mut() {
        if let Some(j) = *a {
            if j >= m {
                *a = None;
            }
        }
    }
    (assign, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimum for validation (n ≤ 8): the most
    /// non-[`FORBIDDEN`] pairs, then the least total cost over them.
    fn brute(cost: &[Vec<f64>]) -> (usize, f64) {
        let n = cost.len();
        let m = cost[0].len();
        let mut cols: Vec<usize> = (0..m).collect();
        let mut best = (0, f64::INFINITY);
        permute(&mut cols, n, &mut |perm| {
            let (mut count, mut total) = (0, 0.0);
            for (i, &j) in perm.iter().take(n).enumerate() {
                if cost[i][j] < FORBIDDEN / 2.0 {
                    count += 1;
                    total += cost[i][j];
                }
            }
            if count > best.0 || (count == best.0 && total < best.1) {
                best = (count, total);
            }
        });
        best
    }

    fn permute(cols: &mut Vec<usize>, take: usize, f: &mut impl FnMut(&[usize])) {
        fn rec(cols: &mut Vec<usize>, k: usize, take: usize, f: &mut impl FnMut(&[usize])) {
            if k == take {
                f(cols);
                return;
            }
            for i in k..cols.len() {
                cols.swap(k, i);
                rec(cols, k + 1, take, f);
                cols.swap(k, i);
            }
        }
        rec(cols, 0, take, f);
    }

    #[test]
    fn square_known_instance() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let (assign, total) = min_cost_assignment(&cost);
        assert_eq!(total, 5.0); // 1 + 2 + 2
        assert_eq!(assign, vec![Some(1), Some(0), Some(2)]);
    }

    #[test]
    fn rectangular_more_columns() {
        let cost = vec![vec![10.0, 2.0, 8.0, 5.0], vec![7.0, 9.0, 1.0, 4.0]];
        let (assign, total) = min_cost_assignment(&cost);
        assert_eq!(total, 3.0);
        assert_eq!(assign, vec![Some(1), Some(2)]);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..500 {
            let n = rng.gen_range(1..=7);
            let m = rng.gen_range(n..=8);
            let forbidden = rng.gen_range(0.0..0.8);
            // integer costs on even trials give exact ties
            let ties = trial % 2 == 0;
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..m)
                        .map(|_| {
                            if rng.gen_bool(forbidden) {
                                FORBIDDEN
                            } else if ties {
                                f64::from(rng.gen_range(0..4u8))
                            } else {
                                rng.gen_range(0.0..20.0)
                            }
                        })
                        .collect()
                })
                .collect();
            let (assign, total) = min_cost_assignment(&cost);
            let mut seen = std::collections::HashSet::new();
            let mut sum = 0.0;
            for (i, &j) in assign.iter().enumerate() {
                let Some(j) = j else { continue };
                assert!(seen.insert(j), "trial {trial}: column {j} used twice");
                assert!(
                    cost[i][j] < FORBIDDEN / 2.0,
                    "trial {trial}: ({i}, {j}) forbidden"
                );
                sum += cost[i][j];
            }
            let (count, expect) = brute(&cost);
            assert_eq!(seen.len(), count, "trial {trial}: matched pairs");
            assert!(
                (total - expect).abs() < 1e-9 && (sum - total).abs() < 1e-9,
                "trial {trial}: got {total} (pairs sum to {sum}), optimum {expect}"
            );
        }
    }

    #[test]
    fn forbidden_pairs_yield_none() {
        let cost = vec![vec![FORBIDDEN, FORBIDDEN], vec![1.0, FORBIDDEN]];
        let (assign, total) = min_cost_assignment(&cost);
        assert_eq!(assign[0], None);
        assert_eq!(assign[1], Some(0));
        assert_eq!(total, 1.0);
    }

    #[test]
    fn padded_handles_more_rows_than_columns() {
        let cost = vec![vec![5.0], vec![1.0], vec![3.0]];
        let (assign, total) = min_cost_assignment_padded(&cost);
        // only the cheapest row gets the single column
        assert_eq!(total, 1.0);
        assert_eq!(assign.iter().filter(|a| a.is_some()).count(), 1);
        assert_eq!(assign[1], Some(0));
    }

    #[test]
    fn empty_inputs() {
        let (a, t) = min_cost_assignment(&[]);
        assert!(a.is_empty());
        assert_eq!(t, 0.0);
        let (a, t) = min_cost_assignment_padded(&[vec![], vec![]]);
        assert_eq!(a, vec![None, None]);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn assignment_is_a_matching() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let cost: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..12).map(|_| rng.gen_range(0.0..9.0)).collect())
            .collect();
        let (assign, _) = min_cost_assignment(&cost);
        let mut seen = std::collections::HashSet::new();
        for a in assign.into_iter().flatten() {
            assert!(seen.insert(a), "column {a} used twice");
        }
    }
}
