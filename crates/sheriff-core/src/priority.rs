//! Alg. 2 — the PRIORITY victim-selection function.
//!
//! "The standard of selection is: firstly remove delay-sensitive flows,
//! and then select the VM's with lowest value but largest size. We mimic a
//! dynamic Knapsack algorithm by taking allowed capacity as knapsack size
//! and picking up as many VM's with lowest value as possible. … Mbps is
//! the minimum capacity unit. Specifically, if the priority parameter is
//! one, we only pick one VM with the highest ALERT."

use dcn_topology::{Placement, VmId};

/// How much may be selected (the `w` switch of Alg. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// `w = α` or `w = β`: release up to this much capacity
    /// (α·s.capacity or β·ToR.capacity, computed by the caller).
    Capacity(f64),
    /// `w = 1`: pick exactly the single VM with the highest ALERT.
    SingleMaxAlert,
}

/// Select migration victims from `candidates` under `budget`.
///
/// * Delay-sensitive VMs are removed first (Alg. 2 line 1).
/// * Under [`Budget::Capacity`], a dynamic-programming knapsack over
///   integer capacity units chooses the subset that releases the most
///   capacity within the budget, breaking ties toward the lowest total
///   value (migrating cheap VMs first).
/// * Under [`Budget::SingleMaxAlert`], the single candidate with the
///   highest `alert_of` value is returned.
pub fn priority(
    candidates: &[VmId],
    placement: &Placement,
    alert_of: impl Fn(VmId) -> f64,
    budget: Budget,
) -> Vec<VmId> {
    let eligible: Vec<VmId> = candidates
        .iter()
        .copied()
        .filter(|&vm| !placement.spec(vm).delay_sensitive)
        .collect();
    if eligible.is_empty() {
        return Vec::new();
    }
    match budget {
        Budget::SingleMaxAlert => {
            let best = eligible
                .into_iter()
                .max_by(|&a, &b| {
                    alert_of(a)
                        .partial_cmp(&alert_of(b))
                        .expect("alert values are never NaN")
                        .then(b.cmp(&a)) // deterministic tie-break: lowest id
                })
                .expect("non-empty by check above");
            vec![best]
        }
        Budget::Capacity(cap) => knapsack_lowest_value(&eligible, placement, cap),
    }
}

/// Dynamic knapsack (Alg. 2's `d[0..C]` table): capacity in integer Mbps
/// units; `d[j]` = minimum total value of a subset with total capacity
/// exactly `j`, with parent pointers for reconstruction. The result is the
/// subset at the largest reachable `j ≤ C` (most capacity released),
/// lowest `d[j]` among ties.
fn knapsack_lowest_value(vms: &[VmId], placement: &Placement, budget: f64) -> Vec<VmId> {
    let c = budget.floor() as usize;
    if c == 0 {
        return Vec::new();
    }
    const LARGE: f64 = f64::INFINITY;
    let mut d = vec![LARGE; c + 1];
    d[0] = 0.0;
    // keep[i][j]: item i was taken on the optimal path to capacity j at
    // the time item i was processed. A per-cell parent pointer is NOT
    // enough: a later item can improve d[from] and silently reroute the
    // stored path, double-counting items. The full table makes the
    // reverse reconstruction exact.
    let mut keep = vec![false; vms.len() * (c + 1)];
    let weights: Vec<usize> = vms
        .iter()
        .map(|&vm| placement.spec(vm).capacity.round().max(1.0) as usize)
        .collect();
    for (i, &vm) in vms.iter().enumerate() {
        let value = placement.spec(vm).value;
        let w = weights[i];
        if w > c {
            continue;
        }
        // 0/1 knapsack: iterate capacity downward
        for j in (w..=c).rev() {
            let from = j - w;
            if d[from].is_finite() && d[from] + value < d[j] {
                d[j] = d[from] + value;
                keep[i * (c + 1) + j] = true;
            }
        }
    }
    // largest reachable capacity (the paper "pick up as many … as possible")
    let Some(best_j) = (1..=c).rev().find(|&j| d[j].is_finite()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut j = best_j;
    for i in (0..vms.len()).rev() {
        if j == 0 {
            break;
        }
        if keep[i * (c + 1) + j] {
            out.push(vms[i]);
            j -= weights[i];
        }
    }
    debug_assert_eq!(j, 0, "knapsack reconstruction must land on zero");
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::{HostId, Inventory, VmSpec};

    /// Build a placement holding VMs with the given (capacity, value,
    /// delay_sensitive) specs, all on one big host.
    fn placement_with(specs: &[(f64, f64, bool)]) -> (Placement, Vec<VmId>) {
        let mut inv = Inventory::new();
        inv.add_rack(1, 10_000.0);
        let mut p = Placement::new(&inv);
        let mut ids = Vec::new();
        for &(cap, value, ds) in specs {
            let s = VmSpec {
                id: p.next_vm_id(),
                capacity: cap,
                value,
                delay_sensitive: ds,
            };
            ids.push(p.add_vm(s, HostId(0)).expect("fits"));
        }
        (p, ids)
    }

    #[test]
    fn removes_delay_sensitive_first() {
        let (p, ids) = placement_with(&[(5.0, 1.0, true), (5.0, 9.0, false)]);
        let out = priority(&ids, &p, |_| 0.5, Budget::Capacity(10.0));
        assert_eq!(out, vec![ids[1]], "delay-sensitive VM must not be picked");
    }

    #[test]
    fn single_max_alert_picks_highest() {
        let (p, ids) = placement_with(&[(5.0, 1.0, false), (5.0, 1.0, false), (5.0, 1.0, false)]);
        let alerts = [0.91, 0.99, 0.95];
        let out = priority(&ids, &p, |vm| alerts[vm.index()], Budget::SingleMaxAlert);
        assert_eq!(out, vec![ids[1]]);
    }

    #[test]
    fn knapsack_fills_budget_with_lowest_value() {
        // budget 10: {A(6,v2), B(4,v1)} releases 10 at value 3;
        // {C(10, v9)} also releases 10 but at value 9 — must prefer A+B.
        let (p, ids) = placement_with(&[(6.0, 2.0, false), (4.0, 1.0, false), (10.0, 9.0, false)]);
        let out = priority(&ids, &p, |_| 0.0, Budget::Capacity(10.0));
        let mut got = out.clone();
        got.sort();
        assert_eq!(got, vec![ids[0], ids[1]]);
    }

    #[test]
    fn knapsack_respects_budget() {
        let (p, ids) = placement_with(&[(8.0, 1.0, false), (7.0, 1.0, false), (6.0, 1.0, false)]);
        let out = priority(&ids, &p, |_| 0.0, Budget::Capacity(9.0));
        let total: f64 = out.iter().map(|&vm| p.spec(vm).capacity).sum();
        assert!(total <= 9.0, "selected {total} > budget");
        assert_eq!(out.len(), 1, "only one VM fits under 9");
    }

    #[test]
    fn knapsack_prefers_max_released_capacity() {
        // budget 12: single 12-cap VM releases more than the 5+5 pair
        let (p, ids) = placement_with(&[(5.0, 1.0, false), (5.0, 1.0, false), (12.0, 5.0, false)]);
        let out = priority(&ids, &p, |_| 0.0, Budget::Capacity(12.0));
        assert_eq!(out, vec![ids[2]]);
    }

    #[test]
    fn zero_budget_or_oversized_vms_select_nothing() {
        let (p, ids) = placement_with(&[(50.0, 1.0, false)]);
        assert!(priority(&ids, &p, |_| 0.0, Budget::Capacity(0.4)).is_empty());
        assert!(priority(&ids, &p, |_| 0.0, Budget::Capacity(10.0)).is_empty());
    }

    #[test]
    fn empty_candidates_ok() {
        let (p, _) = placement_with(&[(5.0, 1.0, false)]);
        assert!(priority(&[], &p, |_| 0.0, Budget::Capacity(10.0)).is_empty());
        assert!(priority(&[], &p, |_| 0.0, Budget::SingleMaxAlert).is_empty());
    }

    #[test]
    fn all_delay_sensitive_selects_nothing_even_single() {
        let (p, ids) = placement_with(&[(5.0, 1.0, true), (5.0, 1.0, true)]);
        assert!(priority(&ids, &p, |_| 0.9, Budget::SingleMaxAlert).is_empty());
    }
}
