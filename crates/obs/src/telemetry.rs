//! The telemetry store: a deterministic in-process TSDB over the
//! registry.
//!
//! The paper's facility is *watched*, not just measured: operators ask
//! "what did tenant X's p99 do over the last 10k virtual seconds" and
//! "when did the error rate start climbing", questions a single
//! point-in-time snapshot cannot answer. [`TelemetryStore`] closes that
//! gap by scraping the [`Registry`] on the registry clock at a fixed
//! interval and retaining bounded history per metric:
//!
//! * **counters** are delta-encoded: each scrape appends the increase
//!   since the previous scrape (zero deltas are skipped — they carry no
//!   mass), and eviction *folds* evicted deltas into a per-series base
//!   so the invariant `base + Σ retained deltas == counter value at the
//!   last scrape` holds exactly, forever, at any ring size;
//! * **gauges** sample the current value every scrape;
//! * **histograms** keep the registry's [`HistogramSnapshot`] every
//!   scrape, which is what rolling-quantile alerting and the operator
//!   sparklines consume.
//!
//! Memory is bounded by a per-series point capacity, enforced at scrape
//! time. The store observes itself — `telemetry_scrapes_total`,
//! `telemetry_samples_total`, `telemetry_evictions_total`, and the
//! points high-water gauge land in the registry *after* the fold over
//! it, so scrape N records scrape N−1's self-accounting and the whole
//! pipeline stays a pure function of the virtual clock (bit-identical
//! at any worker count).
//!
//! Lock order: the store's ring state ranks *outside* the registry
//! tables (`OBS_TELEMETRY` 830 < `OBS_COUNTERS` 900), so a scrape may
//! read the registry while folding. Query methods return owned data and
//! never hold the ring lock across caller code.

use std::collections::{BTreeMap, VecDeque};

use lsdf_sync::{ranks, OrderedMutex};

use crate::json::{escape, join};
use crate::metric::HistogramSnapshot;
use crate::names;
use crate::registry::{MetricId, Reading, Registry};
use crate::slo::Quantile;

/// Scrape cadence and retention bounds for a [`TelemetryStore`].
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Minimum virtual-time distance between scrapes.
    pub interval_ns: u64,
    /// Maximum points retained per series (ring capacity); older
    /// points are evicted (counters fold into the series base).
    pub capacity: usize,
}

impl Default for TelemetryConfig {
    /// 1 virtual millisecond between scrapes, 512 points per series.
    fn default() -> Self {
        TelemetryConfig {
            interval_ns: 1_000_000,
            capacity: 512,
        }
    }
}

impl TelemetryConfig {
    /// Sets the scrape interval.
    pub fn interval_ns(mut self, ns: u64) -> Self {
        self.interval_ns = ns;
        self
    }

    /// Sets the per-series ring capacity.
    pub fn capacity(mut self, points: usize) -> Self {
        self.capacity = points.max(1);
        self
    }
}

enum Series {
    /// `base` carries every evicted delta; `last` is the counter value
    /// at the most recent scrape (== base + Σ point deltas).
    Counter {
        base: u64,
        last: u64,
        points: VecDeque<(u64, u64)>,
    },
    Gauge(VecDeque<(u64, i64)>),
    Hist(VecDeque<(u64, HistogramSnapshot)>),
}

impl Series {
    /// An empty series of the reading's kind.
    fn of(reading: &Reading) -> Series {
        match reading {
            Reading::Counter(_) => Series::Counter {
                base: 0,
                last: 0,
                points: VecDeque::new(),
            },
            Reading::Gauge(_) => Series::Gauge(VecDeque::new()),
            Reading::Hist(_) => Series::Hist(VecDeque::new()),
        }
    }

    /// Appends the reading taken at `now`: a counter's increase since
    /// the last scrape (nothing when it did not grow), a gauge's value,
    /// a histogram's summary. Returns how many points were appended.
    fn push(&mut self, now: u64, reading: Reading) -> u64 {
        match (self, reading) {
            (Series::Counter { last, points, .. }, Reading::Counter(value)) => {
                let delta = value.saturating_sub(*last);
                *last = value;
                if delta == 0 {
                    return 0;
                }
                points.push_back((now, delta));
            }
            (Series::Gauge(points), Reading::Gauge(value)) => points.push_back((now, value)),
            (Series::Hist(points), Reading::Hist(h)) => points.push_back((now, h)),
            // One id is one kind for the registry's whole life.
            _ => return 0,
        }
        1
    }

    fn len(&self) -> usize {
        match self {
            Series::Counter { points, .. } => points.len(),
            Series::Gauge(points) => points.len(),
            Series::Hist(points) => points.len(),
        }
    }

    /// Evicts the oldest points beyond `capacity`, folding counter
    /// deltas into the base. Returns how many points were evicted.
    fn evict(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        match self {
            Series::Counter { base, points, .. } => {
                while points.len() > capacity {
                    let (_, delta) = points.pop_front().expect("loop guard ensures front");
                    *base += delta;
                    evicted += 1;
                }
            }
            Series::Gauge(points) => {
                while points.len() > capacity {
                    points.pop_front();
                    evicted += 1;
                }
            }
            Series::Hist(points) => {
                while points.len() > capacity {
                    points.pop_front();
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

struct Inner {
    last_scrape_ns: Option<u64>,
    series: BTreeMap<MetricId, Series>,
    points: u64,
    high_water: u64,
}

/// A ring-buffer time-series store scraping one [`Registry`] on the
/// virtual clock. See the module docs for the retention model.
pub struct TelemetryStore {
    config: TelemetryConfig,
    inner: OrderedMutex<Inner>,
}

impl TelemetryStore {
    /// A fresh store; no history until the first scrape.
    pub fn new(config: TelemetryConfig) -> Self {
        TelemetryStore {
            config,
            inner: OrderedMutex::new(
                ranks::OBS_TELEMETRY,
                Inner {
                    last_scrape_ns: None,
                    series: BTreeMap::new(),
                    points: 0,
                    high_water: 0,
                },
            ),
        }
    }

    /// The configured scrape interval.
    pub fn interval_ns(&self) -> u64 {
        self.config.interval_ns
    }

    /// When the store last scraped, per the registry clock.
    pub fn last_scrape_ns(&self) -> Option<u64> {
        self.inner.lock().last_scrape_ns
    }

    /// Scrapes if at least one interval has elapsed since the previous
    /// scrape (always scrapes the first time). Returns whether a scrape
    /// ran — hot paths call this once per batch and pay one clock read
    /// when the answer is no.
    pub fn maybe_scrape(&self, registry: &Registry) -> bool {
        let now = registry.now_ns();
        let due = {
            let inner = self.inner.lock();
            match inner.last_scrape_ns {
                None => true,
                Some(last) => now >= last.saturating_add(self.config.interval_ns),
            }
        };
        if due {
            self.scrape(registry);
        }
        due
    }

    /// Scrapes the registry now: appends one sample per live metric,
    /// evicts by capacity, then records the store's own accounting
    /// metrics into the registry.
    ///
    /// The registry is folded where it lies ([`Registry::visit`], under
    /// the ring lock, which ranks outside the registry's maps): no
    /// snapshot, no copy of the event ring, and an id is cloned only
    /// when its series is new.
    pub fn scrape(&self, registry: &Registry) {
        let now = registry.now_ns();
        let mut appended = 0u64;
        let mut evicted = 0u64;
        let (high_water, series_count) = {
            let mut inner = self.inner.lock();
            inner.last_scrape_ns = Some(now);
            let series = &mut inner.series;
            registry.visit(|id, reading| {
                appended += if let Some(s) = series.get_mut(id) {
                    s.push(now, reading)
                } else {
                    let mut s = Series::of(&reading);
                    let n = s.push(now, reading);
                    series.insert(id.clone(), s);
                    n
                };
            });
            for s in inner.series.values_mut() {
                evicted += s.evict(self.config.capacity);
            }
            inner.points = inner.series.values().map(|s| s.len() as u64).sum();
            inner.high_water = inner.high_water.max(inner.points);
            (inner.high_water, inner.series.len())
        };

        // Self-accounting lands after the fold: scrape N observes
        // scrape N−1's telemetry_* values, keeping the fold a pure
        // function of the registry it read.
        registry.counter(names::TELEMETRY_SCRAPES_TOTAL, &[]).inc();
        registry
            .counter(names::TELEMETRY_SAMPLES_TOTAL, &[])
            .add(appended);
        registry
            .counter(names::TELEMETRY_EVICTIONS_TOTAL, &[])
            .add(evicted);
        registry
            .gauge(names::TELEMETRY_POINTS_HIGH_WATER, &[])
            .set(high_water as i64);
        registry
            .gauge(names::TELEMETRY_SERIES, &[])
            .set(series_count as i64);
    }

    /// The delta points retained for one counter series, oldest first.
    pub fn counter_series(&self, name: &str, labels: &[(&str, &str)]) -> Vec<(u64, u64)> {
        let id = MetricId::new(name, labels);
        let inner = self.inner.lock();
        match inner.series.get(&id) {
            Some(Series::Counter { points, .. }) => points.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// `base + Σ retained deltas` for one counter series — exactly the
    /// registry's value at the last scrape, regardless of how much the
    /// ring has evicted. This is the reconciliation invariant the
    /// telemetry soak asserts.
    pub fn counter_sum(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = MetricId::new(name, labels);
        let inner = self.inner.lock();
        match inner.series.get(&id) {
            Some(Series::Counter { base, points, .. }) => {
                base + points.iter().map(|(_, d)| d).sum::<u64>()
            }
            _ => 0,
        }
    }

    /// Σ of a counter's deltas with timestamps strictly after
    /// `since_ns` — the windowed mass behind windowed `rate` and `burn`
    /// rules. An `id` with labels reads that one series; an `id`
    /// without labels sums every label set of its name.
    pub fn counter_window_sum(&self, id: &MetricId, since_ns: u64) -> u64 {
        let inner = self.inner.lock();
        inner
            .series
            .iter()
            .filter(|(s, _)| s.name == id.name && (id.labels.is_empty() || s.labels == id.labels))
            .map(|(_, s)| match s {
                Series::Counter { points, .. } => points
                    .iter()
                    .filter(|(t, _)| *t > since_ns)
                    .map(|(_, d)| d)
                    .sum::<u64>(),
                _ => 0,
            })
            .sum()
    }

    /// Delta points merged (by timestamp) across every series of
    /// `name` whose labels contain `label` — the per-tenant sparkline
    /// source, where one project fans out over `backend`/`op` label
    /// sets.
    pub fn counter_series_filtered(&self, name: &str, label: (&str, &str)) -> Vec<(u64, u64)> {
        let want = (label.0.to_string(), label.1.to_string());
        let inner = self.inner.lock();
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for (id, s) in &inner.series {
            if id.name != name || !id.labels.contains(&want) {
                continue;
            }
            if let Series::Counter { points, .. } = s {
                for (t, d) in points {
                    *merged.entry(*t).or_insert(0) += d;
                }
            }
        }
        merged.into_iter().collect()
    }

    /// The sampled values of one gauge series, oldest first.
    pub fn gauge_series(&self, name: &str, labels: &[(&str, &str)]) -> Vec<(u64, i64)> {
        let id = MetricId::new(name, labels);
        let inner = self.inner.lock();
        match inner.series.get(&id) {
            Some(Series::Gauge(points)) => points.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// The sampled summaries of one histogram series, oldest first.
    pub fn hist_series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Vec<(u64, HistogramSnapshot)> {
        let id = MetricId::new(name, labels);
        let inner = self.inner.lock();
        match inner.series.get(&id) {
            Some(Series::Hist(points)) => points.iter().copied().collect(),
            _ => Vec::new(),
        }
    }

    /// Largest `q` sample of a histogram series with timestamps
    /// strictly after `since_ns`, or `None` when the window holds no
    /// samples — the rolling quantile behind `window(N) p99(...)` rules.
    pub(crate) fn hist_window_quantile(
        &self,
        id: &MetricId,
        q: Quantile,
        since_ns: u64,
    ) -> Option<u64> {
        let inner = self.inner.lock();
        match inner.series.get(id) {
            Some(Series::Hist(points)) => points
                .iter()
                .filter(|(t, _)| *t > since_ns)
                .map(|(_, h)| q.of(h))
                .max(),
            _ => None,
        }
    }

    /// Number of series currently tracked.
    pub fn series_count(&self) -> usize {
        self.inner.lock().series.len()
    }

    /// Points retained across all series right now.
    pub fn points_retained(&self) -> u64 {
        self.inner.lock().points
    }

    /// High-water mark of [`TelemetryStore::points_retained`].
    pub fn points_high_water(&self) -> u64 {
        self.inner.lock().high_water
    }

    /// Renders the full store as a deterministic JSON document (same
    /// hand-rolled style as the registry exporter): series sorted by
    /// id, counters as `base` + delta points, histograms as
    /// `[t, count, sum, p50, p95, p99, max]` tuples.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"interval_ns\": {},\n  \"last_scrape_ns\": {},\n  \"series\": [",
            self.config.interval_ns,
            inner
                .last_scrape_ns
                .map_or("null".to_string(), |t| t.to_string())
        ));
        join(&mut out, &inner.series, |out, (id, s)| {
            out.push_str("{\"id\": ");
            out.push_str(&escape(&id.to_string()));
            let points: Vec<String> = match s {
                Series::Counter { base, points, .. } => {
                    out.push_str(&format!(
                        ", \"kind\": \"counter\", \"base\": {base}, \"points\": ["
                    ));
                    points.iter().map(|(t, d)| format!("[{t},{d}]")).collect()
                }
                Series::Gauge(points) => {
                    out.push_str(", \"kind\": \"gauge\", \"points\": [");
                    points.iter().map(|(t, v)| format!("[{t},{v}]")).collect()
                }
                Series::Hist(points) => {
                    out.push_str(", \"kind\": \"histogram\", \"points\": [");
                    points
                        .iter()
                        .map(|(t, h)| {
                            format!(
                                "[{t},{},{},{},{},{},{}]",
                                h.count, h.sum, h.p50, h.p95, h.p99, h.max
                            )
                        })
                        .collect()
                }
            };
            out.push_str(&points.join(","));
            out.push_str("]}");
        });
        out.push_str("]\n}\n");
        out
    }
}

impl std::fmt::Debug for TelemetryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("TelemetryStore")
            .field("interval_ns", &self.config.interval_ns)
            .field("series", &inner.series.len())
            .field("points", &inner.points)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn store(capacity: usize) -> TelemetryStore {
        TelemetryStore::new(
            TelemetryConfig::default()
                .interval_ns(MS)
                .capacity(capacity),
        )
    }

    #[test]
    fn counters_delta_encode_and_reconcile() {
        let r = Registry::new();
        let ts = store(512);
        let c = r.counter(names::ADAL_OPS_TOTAL, &[("op", "put")]);
        c.add(10);
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        c.add(5);
        r.set_virtual_time_ns(2 * MS);
        ts.scrape(&r);
        r.set_virtual_time_ns(3 * MS);
        ts.scrape(&r); // idle scrape: zero delta, no point
        let series = ts.counter_series(names::ADAL_OPS_TOTAL, &[("op", "put")]);
        assert_eq!(series, vec![(MS, 10), (2 * MS, 5)]);
        assert_eq!(ts.counter_sum(names::ADAL_OPS_TOTAL, &[("op", "put")]), 15);
        assert_eq!(
            ts.counter_sum(names::ADAL_OPS_TOTAL, &[("op", "put")]),
            r.counter_value(names::ADAL_OPS_TOTAL, &[("op", "put")])
        );
    }

    #[test]
    fn maybe_scrape_respects_the_interval() {
        let r = Registry::new();
        let ts = store(512);
        r.set_virtual_time_ns(1);
        assert!(ts.maybe_scrape(&r), "first scrape always runs");
        assert!(!ts.maybe_scrape(&r), "same instant: not due");
        r.set_virtual_time_ns(1 + MS - 1);
        assert!(!ts.maybe_scrape(&r), "one ns short of the interval");
        r.set_virtual_time_ns(1 + MS);
        assert!(ts.maybe_scrape(&r), "exactly one interval later");
        assert_eq!(r.counter_value(names::TELEMETRY_SCRAPES_TOTAL, &[]), 2);
    }

    #[test]
    fn capacity_eviction_folds_counter_mass_into_the_base() {
        let r = Registry::new();
        let ts = store(4);
        let c = r.counter(names::DFS_OPS_TOTAL, &[("op", "write")]);
        for k in 1..=20u64 {
            c.add(k);
            r.set_virtual_time_ns(k * MS);
            ts.scrape(&r);
        }
        let series = ts.counter_series(names::DFS_OPS_TOTAL, &[("op", "write")]);
        assert_eq!(series.len(), 4, "ring holds exactly `capacity` points");
        assert_eq!(series.last(), Some(&(20 * MS, 20)));
        // Mass is conserved through eviction: 1+2+..+20 == 210.
        assert_eq!(ts.counter_sum(names::DFS_OPS_TOTAL, &[("op", "write")]), 210);
        assert_eq!(
            ts.counter_sum(names::DFS_OPS_TOTAL, &[("op", "write")]),
            r.counter_value(names::DFS_OPS_TOTAL, &[("op", "write")])
        );
        assert!(r.counter_value(names::TELEMETRY_EVICTIONS_TOTAL, &[]) > 0);
    }

    #[test]
    fn window_sums_cover_exactly_full_partial_and_evicted_windows() {
        let r = Registry::new();
        let ts = store(4);
        let c = r.counter(names::HSM_PUTS_TOTAL, &[("store", "s")]);
        let id = MetricId::new(names::HSM_PUTS_TOTAL, &[("store", "s")]);
        // Partial window at startup: only two scrapes exist, a window
        // of 8 intervals covers them all.
        c.add(3);
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        c.add(4);
        r.set_virtual_time_ns(2 * MS);
        ts.scrape(&r);
        let since = (2 * MS).saturating_sub(8 * MS);
        assert_eq!(ts.counter_window_sum(&id, since), 7);
        // Exactly-full window: 4 more scrapes; a window of 4 intervals
        // ending at t=6ms covers t in (2ms, 6ms] — exactly 4 points.
        for k in 3..=6u64 {
            c.add(10);
            r.set_virtual_time_ns(k * MS);
            ts.scrape(&r);
        }
        assert_eq!(ts.counter_window_sum(&id, 6 * MS - 4 * MS), 40);
        // Eviction across the window edge: capacity 4 has evicted the
        // first two points; a window reaching past them sees only what
        // is retained, while counter_sum still reconciles exactly.
        assert_eq!(ts.counter_window_sum(&id, 0), 40);
        assert_eq!(ts.counter_sum(names::HSM_PUTS_TOTAL, &[("store", "s")]), 47);
        // An id without labels sums every label set of its name.
        r.counter(names::HSM_PUTS_TOTAL, &[("store", "t")]).add(2);
        r.set_virtual_time_ns(7 * MS);
        ts.scrape(&r);
        let every = MetricId::new(names::HSM_PUTS_TOTAL, &[]);
        assert_eq!(ts.counter_window_sum(&id, 0), 40);
        assert_eq!(ts.counter_window_sum(&every, 0), 42);
        assert_eq!(ts.counter_window_sum(&every, 6 * MS), 2);
    }

    #[test]
    fn rolling_p99_takes_the_window_max() {
        let r = Registry::new();
        let ts = store(512);
        let h = r.histogram(names::ADAL_OP_LATENCY_NS, &[("op", "get")]);
        h.record(100);
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        h.record(100_000);
        r.set_virtual_time_ns(2 * MS);
        ts.scrape(&r);
        let id = MetricId::new(names::ADAL_OP_LATENCY_NS, &[("op", "get")]);
        let spike = ts.hist_window_quantile(&id, Quantile::P99, 0).unwrap();
        assert!(spike >= 100_000, "rolling p99 keeps the spike: {spike}");
        assert_eq!(
            ts.hist_window_quantile(&id, Quantile::P99, 2 * MS),
            None,
            "empty window has no quantile"
        );
    }

    #[test]
    fn exports_are_deterministic_and_balanced() {
        let r = Registry::new();
        let ts = store(512);
        r.counter(names::ADAL_OPS_TOTAL, &[("op", "put")]).add(2);
        r.gauge(names::TRACE_RETAINED, &[]).set(1);
        r.histogram(names::DFS_OP_LATENCY_NS, &[("op", "read")]).record(9);
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        let json = ts.to_json();
        assert_eq!(json, ts.to_json());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"kind\": \"counter\""), "{json}");
    }

    /// The store's series, kept the way the scrape kept them before it
    /// folded in place: every scrape folds a full `Registry::snapshot()`.
    /// No eviction; the tests below size the ring so none happens.
    #[derive(Default)]
    struct SnapshotFold {
        counters: BTreeMap<MetricId, (u64, Vec<(u64, u64)>)>,
        gauges: BTreeMap<MetricId, Vec<(u64, i64)>>,
        hists: BTreeMap<MetricId, Vec<(u64, HistogramSnapshot)>>,
    }

    impl SnapshotFold {
        fn scrape(&mut self, r: &Registry) {
            let snap = r.snapshot();
            let now = r.now_ns();
            for (id, value) in snap.counters {
                let (last, points) = self.counters.entry(id).or_default();
                if value > *last {
                    points.push((now, value - *last));
                }
                *last = value;
            }
            for (id, value) in snap.gauges {
                self.gauges.entry(id).or_default().push((now, value));
            }
            for (id, h) in snap.histograms {
                self.hists.entry(id).or_default().push((now, h));
            }
        }

        fn series_count(&self) -> usize {
            self.counters.len() + self.gauges.len() + self.hists.len()
        }
    }

    fn labels(id: &MetricId) -> Vec<(&str, &str)> {
        id.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    proptest::proptest! {
        /// Random counter, gauge and histogram updates interleaved with
        /// scrapes: every series the in-place fold keeps equals the one
        /// a fold over `snapshot()` keeps, telemetry's own self-accounting
        /// series included, and `counter_sum` is the value the scrape read
        /// (`== counter_value` for every counter the test drives).
        #[test]
        fn the_in_place_fold_equals_a_fold_over_snapshots(
            ops in proptest::collection::vec((0u8..4, 0usize..3, 0u64..5_000), 1..120),
        ) {
            let r = Registry::new();
            let ts = store(4096);
            let mut reference = SnapshotFold::default();
            let counters = [
                (names::ADAL_OPS_TOTAL, [("op", "put")]),
                (names::ADAL_OPS_TOTAL, [("op", "get")]),
                (names::DFS_OPS_TOTAL, [("op", "write")]),
            ];
            let gauges = [
                (names::ADMISSION_QUEUE_DEPTH, [("lane", "bulk")]),
                (names::ADMISSION_QUEUE_DEPTH, [("lane", "interactive")]),
                (names::TRACE_RETAINED, [("store", "main")]),
            ];
            let hists = [
                (names::ADAL_OP_LATENCY_NS, [("op", "get")]),
                (names::ADAL_OP_LATENCY_NS, [("op", "put")]),
                (names::DFS_OP_LATENCY_NS, [("op", "read")]),
            ];
            let mut t = 0u64;
            for (kind, which, value) in ops {
                match kind {
                    0 => r.counter(counters[which].0, &counters[which].1).add(value),
                    1 => r.gauge(gauges[which].0, &gauges[which].1).set(value as i64 - 2_500),
                    2 => r.histogram(hists[which].0, &hists[which].1).record(value),
                    _ => {
                        t += MS;
                        r.set_virtual_time_ns(t);
                        reference.scrape(&r);
                        ts.scrape(&r);
                        for (id, (last, points)) in &reference.counters {
                            let l = labels(id);
                            proptest::prop_assert_eq!(&ts.counter_series(&id.name, &l), points);
                            proptest::prop_assert_eq!(ts.counter_sum(&id.name, &l), *last);
                        }
                        // The self-accounting counters have moved since;
                        // the ones this test drives have not.
                        for (name, l) in &counters {
                            proptest::prop_assert_eq!(ts.counter_sum(name, l), r.counter_value(name, l));
                        }
                        for (id, points) in &reference.gauges {
                            proptest::prop_assert_eq!(&ts.gauge_series(&id.name, &labels(id)), points);
                        }
                        for (id, points) in &reference.hists {
                            proptest::prop_assert_eq!(&ts.hist_series(&id.name, &labels(id)), points);
                        }
                        proptest::prop_assert_eq!(ts.series_count(), reference.series_count());
                    }
                }
            }
        }
    }

    #[test]
    fn the_observer_is_observable() {
        let r = Registry::new();
        let ts = store(512);
        r.counter(names::ADAL_OPS_TOTAL, &[]).add(1);
        r.set_virtual_time_ns(MS);
        ts.scrape(&r);
        r.set_virtual_time_ns(2 * MS);
        ts.scrape(&r);
        assert_eq!(r.counter_value(names::TELEMETRY_SCRAPES_TOTAL, &[]), 2);
        assert!(r.counter_value(names::TELEMETRY_SAMPLES_TOTAL, &[]) > 0);
        assert!(r.gauge_value(names::TELEMETRY_POINTS_HIGH_WATER, &[]) > 0);
        assert!(r.gauge_value(names::TELEMETRY_SERIES, &[]) > 0);
        assert_eq!(
            r.gauge_value(names::TELEMETRY_POINTS_HIGH_WATER, &[]) as u64,
            ts.points_high_water()
        );
        // Scrape 2 folded scrape 1's self-metrics into history.
        assert!(ts.counter_sum(names::TELEMETRY_SCRAPES_TOTAL, &[]) >= 1);
    }
}
