//! Order statistics for the report rows: median, nearest-rank
//! percentiles with the "ten samples beyond" rule, and the quartiles
//! Python's `statistics.quantiles(values, n=4)` gives (the driver that
//! accepts this benchmark computes run-to-run spread with exactly that
//! call, so `--compare` must agree with it to the last digit).

/// `values`, sorted ascending. Timings are finite, so `total_cmp` is the
/// plain numeric order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an ascending slice (mean of the middle two when the count
/// is even); 0 for an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `pct`-th percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// How many of `n` samples lie beyond the `pct`-th percentile. A tail
/// percentile is only worth reporting with at least ten
/// ([`TAIL_MIN_BEYOND`]).
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct).min(n)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. One sample is its
/// own quartiles; none gives zeros.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of a set of samples — one report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let (q1, q3) = quartiles(&s);
        Summary {
            median: median(&s),
            q1,
            q3,
            samples: s.len(),
        }
    }

    /// Inter-quartile range as a share of the median (0 for a zero
    /// median: nothing to be a share of).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(120, 90.0), 12);
        // The picked value really has that many samples above it.
        let s = seq(100);
        let p90 = percentile(&s, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&seq(10), 0.0), 1.0);
        assert_eq!(percentile(&seq(10), 100.0), 10.0);
        assert_eq!(percentile(&seq(10), 50.0), 5.0);
    }

    #[test]
    fn median_on_even_and_odd_counts() {
        assert_eq!(median(&seq(5)), 3.0);
        assert_eq!(median(&seq(6)), 3.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), (2.75, 8.25));
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        assert_eq!(quartiles(&seq(9)), (2.5, 7.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&seq(3)), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&seq(2)), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s.samples, 10);
        assert_eq!(s.median, 5.5);
        assert_eq!(s.spread(), (8.25 - 2.75) / 5.5);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
