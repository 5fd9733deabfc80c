//! Normalisation helpers. Sec. IV-A requires "each element of the
//! workload profile should be normalized to [0, 1]".

/// A fitted min-max scaler mapping the training range onto [0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxScaler {
    lo: f64,
    hi: f64,
}

impl MinMaxScaler {
    /// Fit to the observed range of `y`. A constant series maps to 0.5.
    pub fn fit(y: &[f64]) -> Self {
        assert!(!y.is_empty(), "cannot fit a scaler on an empty series");
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Self { lo, hi }
    }

    /// Fixed range scaler (e.g. CPU percent: 0..100).
    pub fn with_range(lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "range must be non-degenerate");
        Self { lo, hi }
    }

    /// Scale a value into [0, 1] (clamped).
    pub fn transform(&self, v: f64) -> f64 {
        if (self.hi - self.lo).abs() < 1e-12 {
            return 0.5;
        }
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    /// Map a normalised value back to the original scale.
    pub fn inverse(&self, v: f64) -> f64 {
        self.lo + v * (self.hi - self.lo)
    }

    /// Scale a whole slice.
    pub fn transform_all(&self, y: &[f64]) -> Vec<f64> {
        y.iter().map(|&v| self.transform(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_transform() {
        let s = MinMaxScaler::fit(&[2.0, 4.0, 6.0]);
        assert_eq!(s.transform(2.0), 0.0);
        assert_eq!(s.transform(6.0), 1.0);
        assert_eq!(s.transform(4.0), 0.5);
    }

    #[test]
    fn transform_clamps_out_of_range() {
        let s = MinMaxScaler::with_range(0.0, 100.0);
        assert_eq!(s.transform(150.0), 1.0);
        assert_eq!(s.transform(-5.0), 0.0);
    }

    #[test]
    fn inverse_roundtrip() {
        let s = MinMaxScaler::with_range(10.0, 20.0);
        for v in [10.0, 13.0, 17.5, 20.0] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_series_maps_to_half() {
        let s = MinMaxScaler::fit(&[3.0, 3.0, 3.0]);
        assert_eq!(s.transform(3.0), 0.5);
    }

    #[test]
    fn transform_all_matches_pointwise() {
        let s = MinMaxScaler::with_range(0.0, 10.0);
        assert_eq!(s.transform_all(&[0.0, 5.0, 10.0]), vec![0.0, 0.5, 1.0]);
    }
}
