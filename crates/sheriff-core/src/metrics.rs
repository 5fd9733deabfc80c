//! The empirical approximation-ratio record of the experiment harness
//! (Sec. VI-C).

/// One data point of the approximation-ratio experiment (Sec. VI-C).
#[derive(Debug, Clone, Copy)]
pub struct RatioPoint {
    /// Swap size `p`.
    pub p: usize,
    /// Empirical cost(local search) / cost(optimal).
    pub ratio: f64,
    /// The theoretical bound `3 + 2/p`.
    pub bound: f64,
}

impl RatioPoint {
    /// Build a point, computing the bound from `p`.
    pub fn new(p: usize, ls_cost: f64, opt_cost: f64) -> Self {
        Self {
            p,
            ratio: if opt_cost > 0.0 {
                ls_cost / opt_cost
            } else {
                1.0
            },
            bound: 3.0 + 2.0 / p as f64,
        }
    }

    /// Does the empirical ratio respect the theoretical guarantee?
    pub fn within_bound(&self) -> bool {
        self.ratio <= self.bound + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_point_bounds() {
        let good = RatioPoint::new(2, 4.0, 1.5);
        assert!((good.bound - 4.0).abs() < 1e-12);
        assert!(good.within_bound());
        let bad = RatioPoint::new(1, 6.0, 1.0);
        assert!(!bad.within_bound());
        // zero optimum degenerates to ratio 1
        assert_eq!(RatioPoint::new(1, 5.0, 0.0).ratio, 1.0);
    }
}
