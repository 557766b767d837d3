//! Metric primitives: counters, gauges, and an atomic log₂-bucketed
//! histogram.
//!
//! All handles are `Arc`-backed clones of the registry's cells: recording
//! through one is a handful of relaxed atomic operations with no allocation
//! and no lock, which is what lets the driver and hook paths carry them
//! without budget impact.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: value `v` lands in bucket
/// `floor(log2(v + 1))`, so 64 buckets cover the entire `u64` range.
pub(crate) const BUCKETS: usize = 64;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; all clones observe the same value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (not owned by any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one and returns the value *before* the increment.
    pub fn inc_and_fetch_prev(&self) -> u64 {
        self.cell.fetch_add(1, Ordering::Relaxed)
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed gauge that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a detached gauge (not owned by any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples.
///
/// Percentiles answer with the upper bound of the containing bucket,
/// clamped to the observed `[min, max]`, so they are accurate to within a
/// factor of two. Safe to record into from many threads concurrently.
///
/// # Examples
///
/// ```
/// let h = wdog_telemetry::AtomicHistogram::new();
/// for v in [10u64, 20, 30, 1000] {
///     h.record(v);
/// }
/// let s = h.summarize();
/// assert_eq!(s.count, 4);
/// assert!(s.p50 >= 20);
/// ```
#[derive(Clone, Default)]
pub struct AtomicHistogram {
    inner: Arc<HistInner>,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(v: u64) -> usize {
        (64 - v.saturating_add(1).leading_zeros() as usize)
            .saturating_sub(1)
            .min(BUCKETS - 1)
    }

    /// Returns the bucket index a value of `v` lands in; shared with the
    /// epoch fire buffers so lane-bucketed samples merge loss-free.
    #[inline]
    pub(crate) fn bucket_of(v: u64) -> usize {
        Self::bucket(v)
    }

    /// Merges pre-bucketed samples: `deltas[i]` samples in bucket `i`,
    /// contributing `sum_delta` to the running sum, with candidate extremes
    /// `min`/`max` (idempotent under `fetch_min`/`fetch_max`, so all-time
    /// extremes may be re-offered on every merge). Used by the epoch flush.
    pub(crate) fn merge_buckets(
        &self,
        deltas: &[u64; BUCKETS],
        sum_delta: u64,
        min: u64,
        max: u64,
    ) {
        let mut n = 0u64;
        for (bucket, delta) in self.inner.buckets.iter().zip(deltas.iter()) {
            if *delta > 0 {
                bucket.fetch_add(*delta, Ordering::Relaxed);
                n += *delta;
            }
        }
        if n == 0 {
            return;
        }
        self.inner.count.fetch_add(n, Ordering::Relaxed);
        let mut cur = self.inner.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(sum_delta);
            match self.inner.sum.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.inner.min.fetch_min(min, Ordering::Relaxed);
        self.inner.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Records one sample. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        let i = Self::bucket(v);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum so a u64::MAX outlier cannot wrap the mean negative.
        let mut cur = self.inner.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self.inner.sum.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.inner.min.fetch_min(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time summary with p50/p95/p99.
    ///
    /// Concurrent recorders may land between the bucket reads; the summary is
    /// consistent enough for reporting (counts never go backwards).
    pub fn summarize(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum = self.inner.sum.load(Ordering::Relaxed);
        let min_raw = self.inner.min.load(Ordering::Relaxed);
        let max = self.inner.max.load(Ordering::Relaxed);
        let mean = sum.checked_div(count).unwrap_or(0);
        let min = if count == 0 { 0 } else { min_raw };
        let pct = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    let upper = if i + 1 >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 2
                    };
                    return upper.min(max).max(min);
                }
            }
            max
        };
        HistogramSummary {
            count,
            mean,
            min,
            max,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summarize();
        f.debug_struct("AtomicHistogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .finish()
    }
}

/// Point-in-time percentile summary of an [`AtomicHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean (saturating; 0 if empty).
    pub mean: u64,
    /// Smallest recorded sample (0 if empty).
    pub min: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 95th percentile upper bound.
    pub p95: u64,
    /// 99th percentile upper bound.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn empty_histogram_summarizes_zeros() {
        let s = AtomicHistogram::new().summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn records_zero_sample() {
        let h = AtomicHistogram::new();
        h.record(0);
        let s = h.summarize();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn records_u64_max_without_wrap() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.summarize();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // Saturating sum: mean stays at the ceiling instead of wrapping.
        assert!(s.mean >= u64::MAX / 2);
        assert_eq!(s.p99, u64::MAX);
    }

    #[test]
    fn percentiles_are_clamped_bucket_upper_bounds() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summarize();
        // The 500th sample lands in bucket 8 ([255, 510]), the 950th and
        // 990th in bucket 9 ([511, 1022]), whose bound clamps to max.
        assert_eq!(s.p50, 510);
        assert_eq!(s.p95, 1000);
        assert_eq!(s.p99, 1000);
        assert_eq!(s.mean, 500);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn concurrent_record_loses_nothing() {
        let h = AtomicHistogram::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.summarize();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 79_999);
    }
}
