//! Metric primitives: counters, gauges, and log-bucketed histograms.
//!
//! Every handle is a cheap `Arc` clone around atomic cells; recording is
//! lock-free and wait-free, so these can sit on put/get hot paths.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a value that goes up and down (queue depth, VMs
/// running, bytes resident on the disk tier).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (negative to decrement).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i - 1]`.
const BUCKETS: usize = 65;

/// Bucket index for a recorded value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the quantile estimate returned
/// for ranks landing in that bucket).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        u64::MAX >> (64 - i)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log2-bucketed histogram for latencies (nanoseconds) and sizes
/// (bytes). Recording is lock-free: one `fetch_add` per atomic cell.
///
/// Quantiles are nearest-rank over the bucket counts and return the
/// bucket's upper bound (clamped to the observed maximum), so for any
/// value `v >= 1` the estimate `e` satisfies `v <= e < 2v` — a bounded
/// relative error of at most 2x, which is the property the proptest
/// suite pins down.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    ///
    /// `min` only falls and `max` only rises, so a value that does not
    /// pass the loaded bound cannot pass the current one either: the
    /// read-modify-write is skipped, exactly.
    pub fn record(&self, v: u64) {
        let inner = &self.inner;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        if v < inner.min.load(Ordering::Relaxed) {
            inner.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > inner.max.load(Ordering::Relaxed) {
            inner.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records every value in `values`: equal to calling
    /// [`Histogram::record`] on each, for a caller that observes a batch
    /// at once. The values fold locally first, then land as one
    /// `fetch_add` per touched bucket plus one each for `count` and
    /// `sum`, and a `min`/`max` read-modify-write only where the batch
    /// moves them. An empty batch changes nothing, and a batch of one
    /// is one `record`.
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>) {
        let mut values = values.into_iter();
        let Some(first) = values.next() else { return };
        let Some(second) = values.next() else { return self.record(first) };
        let mut buckets = [0u64; BUCKETS];
        let (mut count, mut sum, mut lo, mut hi) = (0u64, 0u64, u64::MAX, 0u64);
        for v in [first, second].into_iter().chain(values) {
            buckets[bucket_of(v)] += 1;
            count += 1;
            sum = sum.wrapping_add(v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let inner = &self.inner;
        // Buckets are ordered by value: only those from `lo`'s to `hi`'s
        // can have been hit.
        let hit = bucket_of(lo)..=bucket_of(hi);
        for (cell, &n) in inner.buckets[hit.clone()].iter().zip(&buckets[hit]) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        inner.count.fetch_add(count, Ordering::Relaxed);
        inner.sum.fetch_add(sum, Ordering::Relaxed);
        if lo < inner.min.load(Ordering::Relaxed) {
            inner.min.fetch_min(lo, Ordering::Relaxed);
        }
        if hi > inner.max.load(Ordering::Relaxed) {
            inner.max.fetch_max(hi, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        let m = self.inner.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`; 0 when empty.
    ///
    /// The estimate is the upper bound of the bucket containing the
    /// rank, clamped to the observed maximum: it is always `>=` the true
    /// quantile and `< 2x` the true quantile for true values `>= 1`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.try_quantile(q).unwrap_or(0)
    }

    /// Nearest-rank quantile estimate, or `None` for an empty histogram.
    ///
    /// The edge cases are pinned down explicitly: an empty histogram has
    /// no quantiles (`None`, which [`Histogram::quantile`] renders as 0),
    /// and a single-sample histogram answers every quantile with that
    /// sample's bucket estimate clamped to the sample itself — never a
    /// stray bucket bound above it.
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return Some(bucket_upper(i).min(self.max()));
            }
        }
        Some(self.max())
    }

    /// A point-in-time copy of the summary statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p95", &s.p95)
            .field("p99", &s.p99)
            .finish()
    }
}

/// Summary statistics for a [`Histogram`] at one instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Mean observation (0.0 when empty).
    pub mean: f64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        for i in 1..=64usize {
            // Each bucket's upper bound maps back into that bucket.
            assert_eq!(bucket_of(bucket_upper(i)), i);
        }
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.add(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_summary() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // True p50 is 3; estimate must be in [3, 6).
        let p50 = h.quantile(0.5);
        assert!((3..6).contains(&p50), "p50 was {p50}");
        // p99 rank is 5 -> value 1000; clamped to max.
        assert_eq!(h.quantile(0.99), 1000);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.try_quantile(q), None, "q={q}");
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p95, s.p99, s.min, s.max), (0, 0, 0, 0, 0, 0));
    }

    #[test]
    fn single_sample_histogram_answers_every_quantile_with_the_sample() {
        for v in [0u64, 1, 7, 1000, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                // One sample: every rank lands in its bucket, and the
                // max-clamp collapses the bucket bound to the sample.
                assert_eq!(h.try_quantile(q), Some(v), "v={v} q={q}");
                assert_eq!(h.quantile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn handles_share_state() {
        let h = Histogram::new();
        let h2 = h.clone();
        h.record(10);
        assert_eq!(h2.count(), 1);
    }

    /// Every cell of a histogram, and its estimate at each rank and at
    /// the quantiles a snapshot reports.
    fn cells(h: &Histogram) -> (Vec<u64>, [u64; 4], Vec<u64>) {
        let buckets = h.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let n = h.count();
        let ranks = (0..=n).map(|r| r as f64 / n.max(1) as f64);
        let qs = [0.0, 0.5, 0.95, 0.99, 1.0];
        let quantiles = ranks.chain(qs).map(|q| h.quantile(q)).collect();
        (buckets, [n, h.sum(), h.min(), h.max()], quantiles)
    }

    proptest! {
        #[test]
        fn record_all_equals_one_record_per_value(
            values in prop::collection::vec(
                prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX), 0u64..5_000, any::<u64>()],
                0..48,
            ),
            split in 0usize..48,
        ) {
            // Both twins share a history, so the batch meets a `min` and
            // `max` it may or may not move.
            let (head, batch) = values.split_at(split.min(values.len()));
            let (one, all) = (Histogram::new(), Histogram::new());
            for &v in head {
                one.record(v);
                all.record(v);
            }
            for &v in batch {
                one.record(v);
            }
            all.record_all(batch.iter().copied());
            prop_assert_eq!(cells(&one), cells(&all));
            all.record_all(std::iter::empty());
            prop_assert_eq!(cells(&one), cells(&all));
        }
    }
}
