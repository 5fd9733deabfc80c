//! Aggregate evaluation metrics used by the experiment harness
//! (Fig. 9–14): balance trajectories and the empirical
//! approximation-ratio record.

/// A labelled experiment series: (x, y) points with axis names, exactly
/// what each paper figure plots.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (e.g. "Sheriff", "Centralized Manager").
    pub label: String,
    /// X-axis values.
    pub x: Vec<f64>,
    /// Y-axis values.
    pub y: Vec<f64>,
}

impl Series {
    /// Build a series from integer x values.
    pub fn from_points(label: impl Into<String>, points: &[(f64, f64)]) -> Self {
        Self {
            label: label.into(),
            x: points.iter().map(|p| p.0).collect(),
            y: points.iter().map(|p| p.1).collect(),
        }
    }

    /// True when the series is (weakly) decreasing within tolerance `tol`
    /// — used to verify the Fig. 9/10 "keeps going down" claim.
    pub fn is_decreasing(&self, tol: f64) -> bool {
        self.y.windows(2).all(|w| w[1] <= w[0] + tol)
    }

    /// Relative drop from first to last point.
    pub fn total_drop(&self) -> f64 {
        match (self.y.first(), self.y.last()) {
            (Some(&a), Some(&b)) if a != 0.0 => (a - b) / a,
            _ => 0.0,
        }
    }
}

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
    fn series_decrease_detection() {
        let s = Series::from_points("t", &[(0.0, 45.0), (1.0, 30.0), (2.0, 20.0)]);
        assert!(s.is_decreasing(0.0));
        assert!((s.total_drop() - 25.0 / 45.0).abs() < 1e-12);
        let bumpy = Series::from_points("t", &[(0.0, 10.0), (1.0, 12.0)]);
        assert!(!bumpy.is_decreasing(0.0));
        assert!(bumpy.is_decreasing(3.0));
    }

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

    #[test]
    fn empty_series_has_zero_drop() {
        let s = Series::from_points("e", &[]);
        assert_eq!(s.total_drop(), 0.0);
        assert!(s.is_decreasing(0.0));
    }
}
