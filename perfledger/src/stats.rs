//! Order statistics over latency samples.

use std::time::Duration;

/// Percentile `p` (0..=100) of `samples` (sorted in place): the sample at
/// 0-based rank `floor(p/100 · n)`, i.e. nearest rank taking the higher of
/// the two candidates when `p · n` is whole. A workload that mixes query
/// types in fixed proportions puts `p · n` exactly on a boundary between two
/// types; this rule then reads the fastest sample of the slower type rather
/// than the slowest sample of the faster one, and interference can only
/// slow samples down, so the fastest sample of a type is the steadier of the
/// two. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).floor() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Median of durations, in seconds.
pub fn median_secs(samples: &[Duration]) -> f64 {
    let mut s: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    median(&mut s)
}

/// Samples a run needs so that percentile `p` (1..=99) has at least ten
/// samples beyond it.
pub fn samples_for_tail(p: usize) -> usize {
    1000usize.div_ceil(100 - p) + 1
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 51.0);
        assert_eq!(percentile(&mut v, 90.0), 91.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        // Two types in equal shares: the median is the slower type's fastest.
        assert_eq!(median(&mut [10.0, 14.0, 11.0, 30.0, 31.0, 38.0]), 30.0);
    }

    #[test]
    fn tail_sample_counts_leave_ten_beyond() {
        for p in [75, 90, 95] {
            let n = samples_for_tail(p);
            let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&mut v, p as f64);
            assert!(v.iter().filter(|x| **x > at).count() >= 10, "p{p} n{n}");
        }
    }
}
