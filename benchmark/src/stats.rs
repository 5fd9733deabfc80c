//! Order statistics over the benchmark's samples.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` samples is
//! the sample at 1-based rank `⌈p/100 · n⌉` of the sorted list. A tail
//! percentile is reported only when at least [`MIN_BEYOND`] samples rank
//! above it, so a p90 always rests on a tail of observations and never
//! on one outlier.

/// Samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    sorted(samples).get(rank - 1).copied()
}

/// Middle value of `samples` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let mid = s.len() / 2;
    match s.len() {
        0 => None,
        n if n % 2 == 1 => s.get(mid).copied(),
        _ => Some((s[mid - 1] + s[mid]) / 2.0),
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(samples, n=4)`), the definition the benchmark's
/// spread bounds are stated in; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // reversed, so every function must sort for itself
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = one_to(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        // rank ⌈0.9 · 101⌉ = 91, eleven samples beyond
        assert_eq!(percentile(&one_to(101), 90.0), Some(91.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 99 samples leave only nine beyond the p90 at rank 90
        assert_eq!(percentile(&one_to(99), 90.0), None);
        assert_eq!(percentile(&one_to(100), 95.0), None);
        assert_eq!(percentile(&one_to(200), 95.0), Some(190.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&one_to(5)), Some(3.0));
        assert_eq!(median(&one_to(4)), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&one_to(4)), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of a short list
        assert_eq!(quartiles(&one_to(2)), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), None);
    }
}
