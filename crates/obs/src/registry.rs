//! The metrics registry: named, labelled metric handles plus spans and
//! a bounded event log.

use std::collections::{BTreeMap, VecDeque};

use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};

use crate::clock::Clock;
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Maximum number of events retained; older events are dropped first.
const EVENT_CAPACITY: usize = 1024;

/// A metric's identity: its name plus a sorted set of labels.
///
/// Label order does not matter at the call site — labels are sorted by
/// key on construction, so `[("op","put"),("project","alice")]` and the
/// reverse order name the same metric.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric name, e.g. `adal_ops_total`.
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id, sorting the labels by key.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

impl std::fmt::Display for MetricId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A timestamped, structured occurrence (tape mount, VM boot, host
/// failure). Kept in a bounded ring; exported with the snapshot.
#[derive(Clone, Debug)]
pub struct Event {
    /// Timestamp in nanoseconds from the registry clock (wall or
    /// virtual, whichever mode the clock was in).
    pub t_ns: u64,
    /// Event name, e.g. `tape_mount`.
    pub name: String,
    /// Structured fields.
    pub fields: Vec<(String, String)>,
}

/// The facility-wide metrics registry.
///
/// Handles returned by [`Registry::counter`] / [`Registry::gauge`] /
/// [`Registry::histogram`] are get-or-create: the first call for an id
/// creates the metric, later calls return a handle to the same cells.
/// The registry lock is only held during lookup — cache the handle and
/// the hot path is purely atomic.
pub struct Registry {
    clock: Clock,
    counters: OrderedRwLock<BTreeMap<MetricId, Counter>>,
    gauges: OrderedRwLock<BTreeMap<MetricId, Gauge>>,
    histograms: OrderedRwLock<BTreeMap<MetricId, Histogram>>,
    events: OrderedMutex<VecDeque<Event>>,
}

impl Registry {
    /// An empty registry with a wall-mode clock.
    pub fn new() -> Self {
        Registry {
            clock: Clock::new(),
            counters: OrderedRwLock::new(ranks::OBS_COUNTERS, BTreeMap::new()),
            gauges: OrderedRwLock::new(ranks::OBS_GAUGES, BTreeMap::new()),
            histograms: OrderedRwLock::new(ranks::OBS_HISTOGRAMS, BTreeMap::new()),
            events: OrderedMutex::new(ranks::OBS_EVENTS, VecDeque::new()),
        }
    }

    /// The registry's clock (shared by spans and events).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Switches the clock to virtual time and advances it to `ns`
    /// (typically `SimTime::as_nanos()` from `lsdf-sim`).
    pub fn set_virtual_time_ns(&self, ns: u64) {
        self.clock.set_virtual_ns(ns);
    }

    /// Current clock reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Get-or-create the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        if let Some(c) = self.counters.read().get(&id) {
            return c.clone();
        }
        self.counters.write().entry(id).or_default().clone()
    }

    /// Get-or-create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        if let Some(g) = self.gauges.read().get(&id) {
            return g.clone();
        }
        self.gauges.write().entry(id).or_default().clone()
    }

    /// Get-or-create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        if let Some(h) = self.histograms.read().get(&id) {
            return h.clone();
        }
        self.histograms.write().entry(id).or_default().clone()
    }

    /// Current value of a counter, or 0 when it does not exist.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let id = MetricId::new(name, labels);
        self.counters.read().get(&id).map(Counter::get).unwrap_or(0)
    }

    /// Current value of a gauge, or 0 when it does not exist.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        let id = MetricId::new(name, labels);
        self.gauges.read().get(&id).map(Gauge::get).unwrap_or(0)
    }

    /// Sum of a counter across all label sets sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.read()
            .iter()
            .filter(|(id, _)| id.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Starts a span that records its elapsed time (per the registry
    /// clock) into `hist` when dropped or [`Span::finish`]ed.
    pub fn span(&self, hist: &Histogram) -> Span {
        Span {
            clock: self.clock.clone(),
            hist: hist.clone(),
            start_ns: self.clock.now_ns(),
            armed: true,
        }
    }

    /// Records an event timestamped with the registry clock.
    pub fn event(&self, name: &str, fields: &[(&str, &str)]) {
        self.event_at(self.clock.now_ns(), name, fields);
    }

    /// Records an event with an explicit timestamp — for subsystems on
    /// their own virtual timeline (e.g. a DES run) that should not flip
    /// the shared clock into virtual mode.
    pub fn event_at(&self, t_ns: u64, name: &str, fields: &[(&str, &str)]) {
        let mut ring = self.events.lock();
        if ring.len() == EVENT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(Event {
            t_ns,
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().iter().cloned().collect()
    }

    /// Visits every metric where it lies — counters, then gauges, then
    /// histograms, each kind in id order under its map's read guard —
    /// without copying an id or touching the event ring. The telemetry
    /// scrape folds the registry this way once per batch.
    pub(crate) fn visit(&self, mut f: impl FnMut(&MetricId, Reading)) {
        for (id, c) in self.counters.read().iter() {
            f(id, Reading::Counter(c.get()));
        }
        for (id, g) in self.gauges.read().iter() {
            f(id, Reading::Gauge(g.get()));
        }
        for (id, h) in self.histograms.read().iter() {
            f(id, Reading::Hist(h.snapshot()));
        }
    }

    /// A point-in-time copy of every metric and event.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.read()
                .iter()
                .map(|(id, c)| (id.clone(), c.get()))
                .collect(),
            gauges: self.gauges.read()
                .iter()
                .map(|(id, g)| (id.clone(), g.get()))
                .collect(),
            histograms: self.histograms.read()
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
            events: self.events(),
        }
    }

    /// Renders [`Registry::snapshot`] as a JSON document. Metrics appear
    /// in sorted id order, so the output is deterministic for a given
    /// set of recorded values.
    pub fn to_json(&self) -> String {
        crate::json::render(&self.snapshot())
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .field("histograms", &self.histograms.read().len())
            .field("events", &self.events.lock().len())
            .finish()
    }
}

/// One metric's value as [`Registry::visit`] reads it.
pub(crate) enum Reading {
    Counter(u64),
    Gauge(i64),
    Hist(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], sorted by metric id.
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values.
    pub gauges: Vec<(MetricId, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
}

/// An in-flight timing: created by [`Registry::span`], records the
/// elapsed nanoseconds into its histogram when dropped (or explicitly
/// via [`Span::finish`]). Error paths that bail early therefore still
/// record their latency.
#[must_use = "a span records on drop; bind it to a variable for the scope being timed"]
pub struct Span {
    clock: Clock,
    hist: Histogram,
    start_ns: u64,
    armed: bool,
}

impl Span {
    /// Elapsed nanoseconds so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }

    /// Records now and returns the elapsed nanoseconds.
    pub fn finish(mut self) -> u64 {
        let dt = self.elapsed_ns();
        self.hist.record(dt);
        self.armed = false;
        dt
    }

    /// Drops the span without recording anything.
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record(self.elapsed_ns());
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("start_ns", &self.start_ns)
            .field("elapsed_ns", &self.elapsed_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("ops", &[("op", "put")]);
        let b = r.counter("ops", &[("op", "put")]);
        a.inc();
        b.inc();
        assert_eq!(r.counter_value("ops", &[("op", "put")]), 2);
        // Different labels -> different metric.
        r.counter("ops", &[("op", "get")]).add(5);
        assert_eq!(r.counter_total("ops"), 7);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let r = Registry::new();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.counter_value("x", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn span_records_on_drop_and_finish() {
        let r = Registry::new();
        let h = r.histogram("lat", &[]);
        {
            let _s = r.span(&h);
        }
        assert_eq!(h.count(), 1);
        let s = r.span(&h);
        s.finish();
        assert_eq!(h.count(), 2);
        let s = r.span(&h);
        s.cancel();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn span_on_virtual_time() {
        let r = Registry::new();
        r.set_virtual_time_ns(1_000);
        let h = r.histogram("vlat", &[]);
        let s = r.span(&h);
        r.set_virtual_time_ns(5_000);
        assert_eq!(s.finish(), 4_000);
        assert_eq!(h.max(), 4_000);
    }

    #[test]
    fn event_ring_is_bounded() {
        let r = Registry::new();
        for i in 0..(EVENT_CAPACITY + 10) {
            r.event_at(i as u64, "tick", &[]);
        }
        let evs = r.events();
        assert_eq!(evs.len(), EVENT_CAPACITY);
        assert_eq!(evs[0].t_ns, 10);
    }

    #[test]
    fn gauge_roundtrip() {
        let r = Registry::new();
        let g = r.gauge("depth", &[]);
        g.add(4);
        g.add(-1);
        assert_eq!(r.gauge_value("depth", &[]), 3);
    }
}
