//! Order statistics over latency samples.

/// Percentiles tried for the tail metric, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
/// The product is nudged down so rounding error (0.999 · 10 000 reads
/// 9 990.000…02) cannot push an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 * (1.0 - 1e-12)).ceil() as usize).clamp(1, n.max(1))
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `values` (mean of the two middle values for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail latency of a run: the highest ladder percentile that still
/// has [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile chosen from [`TAIL_LADDER`].
    pub percentile: f64,
    /// Sample value at that percentile.
    pub value: f64,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Picks the tail percentile of `samples`, or `None` when even the median
/// would have fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, rank(p, n)))
        .find(|&(_, k)| n >= k + TAIL_MIN_BEYOND)
        .map(|(p, k)| Tail {
            percentile: p,
            value: s[k - 1],
            beyond: n - k,
            samples: n,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_refuses_percentiles_with_fewer_than_ten_samples_beyond() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
        // p90 of 99 samples leaves 9 beyond it, so p75 is the tail.
        assert_eq!(tail(&ramp(99)).unwrap().percentile, 75.0);
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        assert_eq!(tail(&ramp(199)).unwrap().percentile, 90.0);
        assert_eq!(tail(&ramp(200)).unwrap().percentile, 95.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().percentile, 99.9);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut v = ramp(300);
        v.reverse();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95.0, 285.0, 300));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
