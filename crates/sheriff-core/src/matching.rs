//! Minimum-weight bipartite matching for Alg. 3 (VMMIGRATION pairs
//! candidate VMs with destination slots). The paper prescribes
//! "Minimal Weighted Matching with time complexity O(n³) … such as
//! Kuhn–Munkres with relaxation \[31\]"; this is the potentials form of the
//! Hungarian algorithm (Edmonds–Karp / Tomizawa), O(n²·m) for n rows and
//! m columns.
//!
//! Alg. 3 matches a few victims against every host of a region, so m is
//! usually far larger than n. When n² < m, [`min_cost_assignment`] first
//! drops every column that no row ranks among its n cheapest (ties kept)
//! and solves on the columns left, at most n² plus ties, in their
//! original order. No optimum uses a dropped column, and the
//! shortest-augmenting-path search never settles one, so the result is
//! the full solve's, assignment and total alike (DESIGN.md §5b).

/// Cost value treated as "this pair is forbidden". Kept small enough that
/// sums of many forbidden entries retain f64 resolution against real costs
/// (at 1e18 the potentials arithmetic loses the low-order cost digits and
/// the matching can return a non-optimal row).
pub const FORBIDDEN: f64 = 1e9;

/// Solve the rectangular assignment problem over a row-major matrix of
/// `cols` columns: `cost[i * cols + j]` is the cost of assigning row `i`
/// (a VM) to column `j` (a destination slot). Returns, per row, the
/// matched column (`None` when the only columns left to it were
/// [`FORBIDDEN`], which is every column past the last when there are more
/// rows than columns), plus the total cost of the real assignments,
/// summed in column order. With `cols == 0` the matrix has no rows.
///
/// When rows² < `cols`, the solve runs only on the columns some row ranks
/// among its `rows` cheapest; the result is the same.
pub fn min_cost_assignment(cost: &[f64], cols: usize) -> (Vec<Option<usize>>, f64) {
    let rows = cost.len().checked_div(cols).unwrap_or(0);
    assert_eq!(rows * cols, cost.len(), "cost matrix must be rectangular");
    if rows > 0 && rows * rows < cols {
        let kept = useful_columns(cost, rows, cols);
        if kept.len() < cols {
            let mut narrow = Vec::with_capacity(rows * kept.len());
            for row in cost.chunks_exact(cols) {
                narrow.extend(kept.iter().filter_map(|&j| row.get(j)));
            }
            let (assignment, total) = solve(&narrow, kept.len());
            let assignment = assignment
                .into_iter()
                .map(|a| a.and_then(|j| kept.get(j).copied()))
                .collect();
            return (assignment, total);
        }
    }
    solve(cost, cols)
}

/// The columns, ascending, that [`solve`] can match on `rows` rows:
/// column `j` is kept when some row `i` has `cost ≤ t_i`, where `t_i` is
/// row `i`'s `rows`-th smallest entry ([`FORBIDDEN`] counts as a value).
/// Needs `rows ≤ cols`.
///
/// Why nothing else is ever matched. After row r, the solver holds a
/// min-cost matching of rows 1..r. No row of such a matching sits on a
/// column dearer than its r-th cheapest: at most r − 1 of those cheaper
/// columns are taken, so the row could move to a free one and lower the
/// cost. As `t_i` bounds every r ≤ `rows`, a dropped column is in no
/// intermediate matching. Nor does the shortest-augmenting-path search
/// ever pop one: a dropped column is free, popping a free column ends the
/// search and matches it, and the strict `<` tie rule never prefers it.
/// So every pop, delta and potential update on the kept columns is the
/// same as on the whole matrix, and in exact arithmetic so are the
/// assignment and the total.
fn useful_columns(cost: &[f64], rows: usize, cols: usize) -> Vec<usize> {
    let mut keep = vec![false; cols];
    // the row's `rows` smallest entries so far, ascending
    let mut smallest: Vec<f64> = Vec::with_capacity(rows);
    for row in cost.chunks_exact(cols) {
        // scanned from the end: Alg. 3 lists the victims' own rack last,
        // and its hosts are the cheapest, so few later entries get in
        let (rest, last) = row.split_at(cols.saturating_sub(rows));
        smallest.clear();
        smallest.extend_from_slice(last);
        smallest.sort_unstable_by(f64::total_cmp);
        let Some(mut t) = smallest.last().copied() else {
            continue;
        };
        for &c in rest.iter().rev() {
            if c < t {
                smallest.pop();
                let at = smallest.partition_point(|&s| s <= c);
                smallest.insert(at, c);
                t = smallest.last().copied().unwrap_or(c);
            }
        }
        for (k, &c) in keep.iter_mut().zip(row) {
            *k |= c <= t;
        }
    }
    keep.iter()
        .enumerate()
        .filter_map(|(j, &k)| k.then_some(j))
        .collect()
}

/// One column's state in [`solve`].
#[derive(Clone, Copy)]
struct Column {
    /// Column potential.
    v: f64,
    /// Row matched to this column.
    row: Option<usize>,
    /// Reduced distance from the current search's root row.
    dist: f64,
    /// The column before this one on its shortest alternating path
    /// (`None`: reached straight from the root row).
    via: Option<usize>,
    /// Settled in the current search.
    done: bool,
}

/// Kuhn–Munkres on every column of a row-major matrix of `cols` columns,
/// one shortest augmenting path per row, in row order. A tall matrix is
/// solved against virtual [`FORBIDDEN`] columns past the last, which no
/// row keeps. The result is [`min_cost_assignment`]'s.
fn solve(cost: &[f64], cols: usize) -> (Vec<Option<usize>>, f64) {
    const INF: f64 = f64::INFINITY;
    let rows = cost.len().checked_div(cols).unwrap_or(0);
    let fresh = Column {
        v: 0.0,
        row: None,
        dist: INF,
        via: None,
        done: false,
    };
    let mut columns = vec![fresh; rows.max(cols)];
    let mut u = vec![0.0; rows];

    for root in 0..rows {
        for col in columns.iter_mut() {
            col.dist = INF;
            col.done = false;
        }
        // the row whose edges are relaxed next, and the column it sits on
        let (mut scan, mut via) = (root, None);
        let end = loop {
            let base = u.get(scan).copied().unwrap_or(0.0);
            let row = cost.get(scan * cols..scan * cols + cols).unwrap_or(&[]);
            let (mut delta, mut next) = (INF, None);
            let mut relax = |j: usize, col: &mut Column, c: f64| {
                if col.done {
                    return;
                }
                let cur = c - base - col.v;
                if cur < col.dist {
                    col.dist = cur;
                    col.via = via;
                }
                if col.dist < delta {
                    delta = col.dist;
                    next = Some(j);
                }
            };
            let (real, virtual_cols) = columns.split_at_mut(cols);
            for (j, (col, &c)) in real.iter_mut().zip(row).enumerate() {
                relax(j, col, c);
            }
            for (j, col) in virtual_cols.iter_mut().enumerate() {
                relax(cols + j, col, FORBIDDEN);
            }
            debug_assert!(delta.is_finite(), "augmenting path must exist");
            let Some(next) = next else {
                break None;
            };
            if let Some(r) = u.get_mut(root) {
                *r += delta;
            }
            for col in columns.iter_mut() {
                if col.done {
                    if let Some(r) = col.row.and_then(|i| u.get_mut(i)) {
                        *r += delta;
                    }
                    col.v -= delta;
                } else {
                    col.dist -= delta;
                }
            }
            let Some(popped) = columns.get_mut(next) else {
                break None;
            };
            popped.done = true;
            match popped.row {
                None => break Some(next),
                Some(r) => (scan, via) = (r, Some(next)),
            }
        };
        // augment along the alternating path back to the root
        let mut at = end;
        while let Some(j) = at {
            let Some(prev) = columns.get(j).map(|col| col.via) else {
                break;
            };
            let row = match prev {
                Some(p) => columns.get(p).and_then(|col| col.row),
                None => Some(root),
            };
            if let Some(col) = columns.get_mut(j) {
                col.row = row;
            }
            at = prev;
        }
    }

    let mut assignment = vec![None; rows];
    let mut total = 0.0;
    for (j, col) in columns.iter().enumerate().take(cols) {
        let Some(i) = col.row else { continue };
        let Some(&c) = cost.get(i * cols + j) else {
            continue;
        };
        if c < FORBIDDEN / 2.0 {
            if let Some(a) = assignment.get_mut(i) {
                *a = Some(j);
            }
            total += c;
        }
    }
    (assignment, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// [`min_cost_assignment`] on a matrix given as rows.
    fn assign(cost: &[Vec<f64>]) -> (Vec<Option<usize>>, f64) {
        min_cost_assignment(&cost.concat(), cost.first().map_or(0, Vec::len))
    }

    #[test]
    fn square_known_instance() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let (assign, total) = assign(&cost);
        assert_eq!(total, 5.0); // 1 + 2 + 2
        assert_eq!(assign, vec![Some(1), Some(0), Some(2)]);
    }

    #[test]
    fn rectangular_more_columns() {
        let cost = vec![vec![10.0, 2.0, 8.0, 5.0], vec![7.0, 9.0, 1.0, 4.0]];
        let (assign, total) = assign(&cost);
        assert_eq!(total, 3.0);
        assert_eq!(assign, vec![Some(1), Some(2)]);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        // square-ish shapes, then wide ones where n² < m prunes columns
        for (trial, (max_n, max_m)) in [(7, 8), (4, 24)]
            .into_iter()
            .flat_map(|shape| std::iter::repeat_n(shape, 500))
            .enumerate()
        {
            let n = rng.gen_range(1..=max_n);
            let m = rng.gen_range(n..=max_m);
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
            let (assign, total) = assign(&cost);
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
    fn column_reduction_returns_the_full_solve() {
        let mut rng = StdRng::seed_from_u64(28);
        let mut pruned = 0;
        for trial in 0..1_000 {
            let n = rng.gen_range(0..=5);
            let m = rng.gen_range(0..=40);
            // small integer costs: exact arithmetic, and many ties
            let top = rng.gen_range(1..=6u8);
            let mut cost: Vec<f64> = (0..n * m)
                .map(|_| f64::from(rng.gen_range(0..top)))
                .collect();
            // forbid most of some rows, leaving them under n finite entries
            let density = [0.0, 0.3, 0.9][trial % 3];
            for c in cost.iter_mut() {
                if rng.gen_bool(density) {
                    *c = FORBIDDEN;
                }
            }
            let reduced = min_cost_assignment(&cost, m);
            let full = solve(&cost, m);
            assert_eq!(reduced.0, full.0, "trial {trial}: {n}×{m} assignment");
            assert_eq!(
                reduced.1.to_bits(),
                full.1.to_bits(),
                "trial {trial}: {n}×{m} total"
            );
            if n > 0 && n * n < m && useful_columns(&cost, n, m).len() < m {
                pruned += 1;
            }
        }
        assert!(pruned > 300, "only {pruned} instances dropped a column");
    }

    #[test]
    fn forbidden_pairs_yield_none() {
        let cost = vec![vec![FORBIDDEN, FORBIDDEN], vec![1.0, FORBIDDEN]];
        let (assign, total) = assign(&cost);
        assert_eq!(assign[0], None);
        assert_eq!(assign[1], Some(0));
        assert_eq!(total, 1.0);
    }

    #[test]
    fn tall_matrices_leave_rows_unmatched() {
        let cost = vec![vec![5.0], vec![1.0], vec![3.0]];
        let (assign, total) = assign(&cost);
        // only the cheapest row gets the single column
        assert_eq!(total, 1.0);
        assert_eq!(assign.iter().filter(|a| a.is_some()).count(), 1);
        assert_eq!(assign[1], Some(0));
    }

    #[test]
    fn empty_inputs() {
        for cols in [0, 3] {
            let (a, t) = min_cost_assignment(&[], cols);
            assert!(a.is_empty());
            assert_eq!(t, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_input_is_rejected() {
        min_cost_assignment(&[1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn assignment_is_a_matching() {
        let mut rng = StdRng::seed_from_u64(5);
        let cost: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..12).map(|_| rng.gen_range(0.0..9.0)).collect())
            .collect();
        let (assign, _) = assign(&cost);
        let mut seen = std::collections::HashSet::new();
        for a in assign.into_iter().flatten() {
            assert!(seen.insert(a), "column {a} used twice");
        }
    }
}
