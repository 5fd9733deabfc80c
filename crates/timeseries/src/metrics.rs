//! Forecast-accuracy metrics (the paper evaluates with prediction error /
//! minimum square error, Fig. 6–8).

/// Mean squared error between predictions and actuals.
pub fn mse(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).powi(2))
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean absolute error.
pub fn mae(pred: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(pred.len(), actual.len(), "length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(actual)
        .map(|(p, a)| (p - a).abs())
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known() {
        let p = [1.0, 2.0, 3.0];
        let a = [1.0, 4.0, 3.0];
        assert!((mse(&p, &a) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mae_known() {
        let p = [2.0, 2.0];
        let a = [1.0, 3.0];
        assert_eq!(mae(&p, &a), 1.0);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mse(&[], &[]), 0.0);
        assert_eq!(mae(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_prediction_is_zero_error() {
        let y = [3.0, 1.0, 4.0];
        assert_eq!(mse(&y, &y), 0.0);
    }
}
