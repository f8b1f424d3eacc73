//! Order statistics of measured samples.

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

/// Median of `xs` (0 for no samples); the mean of the middle pair for an
/// even count.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..100) of sorted `v`.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail latency may fall back to, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0];

/// The tail latency at percentile `want` if at least ten samples lie
/// beyond it, else at the highest percentile of [`TAIL_LADDER`] below
/// `want` that has ten beyond it: `(percentile, value)`. With fewer than
/// twenty samples no percentile qualifies, and the median is given.
pub fn tail(xs: &[f64], want: f64) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let candidates = std::iter::once(want).chain(TAIL_LADDER.into_iter().filter(|&p| p < want));
    match candidates
        .into_iter()
        .find(|&p| n * (1.0 - p / 100.0) >= 10.0)
    {
        Some(p) if p > 50.0 => (p, percentile_sorted(&v, p)),
        _ => (50.0, median(&v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), (99.0, 990.0));
        assert_eq!(tail(&xs, 99.9), (99.0, 990.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs, 60.0), (60.0, 24.0));
        assert_eq!(tail(&xs, 99.0), (75.0, 30.0));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 60.0), (50.0, 5.5));
    }
}
