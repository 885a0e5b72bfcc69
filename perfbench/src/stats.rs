//! Order statistics over latency samples.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `p`% of the samples are at or below it, i.e. the
/// sample at 1-based rank `ceil(p/100 · N)`. `p = 0` gives the minimum.
/// `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sort a sample set ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    v
}

/// Median by nearest rank (the lower middle for an even count).
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 50.0).unwrap_or(f64::NAN)
}

/// How many samples lie strictly above the nearest-rank `p`-th
/// percentile: the evidence a tail figure rests on.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    match nearest_rank(sorted, p) {
        Some(v) => sorted.iter().filter(|&&x| x > v).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 10.0), Some(1.0));
        assert_eq!(nearest_rank(&v, 11.0), Some(2.0));
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn p99_of_a_thousand_leaves_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), Some(990.0));
        assert_eq!(beyond(&v, 99.0), 10);
        assert_eq!(beyond(&v, 90.0), 100);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
