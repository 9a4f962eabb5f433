//! Order statistics the benchmark reports.

/// Sorts a copy of `v` ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..100] of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a latency tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile on the ladder that leaves at least ten of `n`
/// samples beyond it, so the tail is backed by more than one outlier.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
