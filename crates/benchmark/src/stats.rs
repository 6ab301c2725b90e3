//! Order statistics over latency samples, and the rule that decides which
//! tail percentile a sample count supports.

/// Nearest-rank percentile (`p` in `0.0..=1.0`) of `samples`. Returns 0
/// for an empty slice so that a class a workload never runs reports 0
/// instead of panicking.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[u64]) -> u64 {
    percentile(samples, 0.5)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still has at least
/// ten samples beyond it (choosing-metrics §1), or `None` when even p75
/// does not. `round_p95_ms` is always printed with its sample count; this
/// says whether the count supports it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.75].into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

pub fn sum(samples: &[u64]) -> u64 {
    samples.iter().sum()
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload never
/// entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(median(&v), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[7]), 7);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(0.75));
    }
}
