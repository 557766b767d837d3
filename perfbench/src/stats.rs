//! Exact sample statistics.
//!
//! Latencies are kept as raw samples and sorted, so every quantile is an
//! exact order statistic rather than a bucket estimate.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q × n` samples at or below it.
/// Zero when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    sorted[rank(q, n).clamp(1, n) - 1]
}

/// The nearest rank `⌈q × n⌉`, tolerant of the rounding in `q × n` (so
/// `0.9999 × 100_000` ranks 99_990, not 99_991).
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Sorts `v` in place (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `v` (upper median for even lengths, as [`quantile`]).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; zero when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile among 50, 90, 99, 99.9 and 99.99 that still
/// has at least ten samples above its rank in a sample of `n`, or `None`
/// when even the median has fewer than ten samples beyond it.
pub fn highest_resolved_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n.saturating_sub(rank(p / 100.0, n)) >= 10)
}

/// Exact summary of one latency sample set.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub resolved_pct: Option<f64>,
    /// The value at `resolved_pct`.
    pub resolved_value: f64,
}

impl Summary {
    /// Summarizes `samples` exactly.
    pub fn of(samples: Vec<f64>) -> Self {
        let s = sorted(samples);
        let resolved_pct = highest_resolved_percentile(s.len());
        Self {
            count: s.len(),
            p50: quantile(&s, 0.5),
            p99: quantile(&s, 0.99),
            max: s.last().copied().unwrap_or(0.0),
            resolved_value: resolved_pct.map_or(0.0, |p| quantile(&s, p / 100.0)),
            resolved_pct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Ranks round up: p50 of four samples is the second.
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.51), 3.0);
    }

    #[test]
    fn summary_sorts_and_is_exact() {
        let s = Summary::of(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn resolved_percentile_needs_ten_beyond() {
        assert_eq!(highest_resolved_percentile(5), None);
        assert_eq!(highest_resolved_percentile(20), Some(50.0));
        assert_eq!(highest_resolved_percentile(100), Some(90.0));
        assert_eq!(highest_resolved_percentile(1_000), Some(99.0));
        assert_eq!(highest_resolved_percentile(10_000), Some(99.9));
        assert_eq!(highest_resolved_percentile(100_000), Some(99.99));
    }
}
