//! The lock-free metrics registry: counters, gauges, log2 histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::events::{EventKind, EventRing, TelemetryEvent};

/// Number of log2 buckets in a [`LogHistogram`]: bucket `i` counts samples
/// with `2^i ≤ value < 2^(i+1)` (bucket 0 also absorbs 0), covering the
/// whole `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// Folds one label into a Prometheus-style series name:
/// `labeled_name("cvk_fleet_mallocs_total", "tenant", "17")` →
/// `cvk_fleet_mallocs_total{tenant="17"}`. The registry keys metrics by
/// this full series name, so each label value gets its own cell while
/// the exporters render it as a conventionally-labelled series.
pub fn labeled_name(name: &str, label: &str, value: &str) -> String {
    format!("{name}{{{label}=\"{value}\"}}")
}

/// A monotonically increasing counter. Cheap to clone; clones share the
/// same cell. A default-constructed (or disabled-registry) handle is a
/// no-op whose `add` is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An enabled counter not attached to any registry.
    pub fn standalone() -> Counter {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A permanently disabled handle (same as `Counter::default()`).
    pub fn disabled() -> Counter {
        Counter(None)
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// An instantaneous quantity. Updates are *deltas* (`add`/`sub`), so
/// several instrumented components — e.g. every shard of a sharded heap —
/// can share one gauge and the reading aggregates correctly.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// An enabled gauge not attached to any registry.
    pub fn standalone() -> Gauge {
        Gauge(Some(Arc::new(AtomicU64::new(0))))
    }

    /// A permanently disabled handle (same as `Gauge::default()`).
    pub fn disabled() -> Gauge {
        Gauge(None)
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Raises the gauge by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Lowers the gauge by `n`. Balanced add/sub sequences keep the value
    /// exact under concurrency (wrapping two's-complement arithmetic, no
    /// lost updates).
    #[inline]
    pub fn sub(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Applies a signed delta.
    #[inline]
    pub fn offset(&self, delta: i64) {
        if delta >= 0 {
            self.add(delta as u64);
        } else {
            self.sub(delta.unsigned_abs());
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A lock-free log2-bucketed histogram: recording is two relaxed atomic
/// adds (bucket + sum). Values are unit-agnostic; the revocation runtime
/// records pause/sweep durations in nanoseconds and sizes in bytes.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram(Option<Arc<HistCells>>);

impl LogHistogram {
    /// An enabled histogram not attached to any registry.
    pub fn standalone() -> LogHistogram {
        LogHistogram(Some(Arc::new(HistCells::default())))
    }

    /// A permanently disabled handle (same as `LogHistogram::default()`).
    pub fn disabled() -> LogHistogram {
        LogHistogram(None)
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cells) = &self.0 {
            let bucket = 63 - value.max(1).leading_zeros() as usize;
            cells.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        if let Some(cells) = &self.0 {
            for (c, b) in snap.counts.iter_mut().zip(&cells.buckets) {
                *c = b.load(Ordering::Relaxed);
            }
            snap.sum = cells.sum.load(Ordering::Relaxed);
        }
        snap
    }
}

/// An immutable copy of a [`LogHistogram`]'s buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `counts[i]` samples fell in `[2^i, 2^(i+1))`.
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all recorded values (exact, unlike the bucket ceilings).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean recorded value (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// An upper bound (bucket ceiling) on the `p`-th percentile sample.
    /// `p` in `[0, 100]`. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceiling(i);
            }
        }
        u64::MAX
    }

    /// Ceiling of the largest recorded sample.
    pub fn max_value(&self) -> u64 {
        self.percentile(100.0)
    }

    /// The samples recorded *since* `earlier` (per-bucket and sum
    /// saturating subtraction).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (o, e) in out.counts.iter_mut().zip(&earlier.counts) {
            *o = o.saturating_sub(*e);
        }
        out.sum = out.sum.saturating_sub(earlier.sum);
        out
    }
}

/// The inclusive upper bound of histogram bucket `i`.
pub(crate) fn bucket_ceiling(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, LogHistogram>,
}

#[derive(Debug)]
struct RegistryInner {
    metrics: Mutex<Metrics>,
    events: EventRing,
    started: Instant,
}

/// The metrics registry. Cheap to clone (an `Arc`); a
/// default-constructed registry is **disabled**: every handle it returns
/// is a no-op and [`Registry::snapshot`] is empty, so instrumented
/// components carry their telemetry unconditionally and pay one branch
/// per record when nobody is watching.
///
/// Metric registration is idempotent: asking twice for the same name
/// returns handles sharing one cell — which is how the service's shards
/// aggregate into service-wide metrics without coordination.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// An enabled registry whose event ring keeps the most recent
    /// `event_capacity` events.
    pub fn new(event_capacity: usize) -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                metrics: Mutex::new(Metrics::default()),
                events: EventRing::new(event_capacity),
                started: Instant::now(),
            })),
        }
    }

    /// A disabled registry (same as `Registry::default()`).
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn metrics(&self) -> Option<MutexGuard<'_, Metrics>> {
        let inner = self.inner.as_ref()?;
        Some(match inner.metrics.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        })
    }

    /// The counter for the labelled series `name{label="value"}`,
    /// registering it on first use. Labelled registration is the same
    /// idempotent named registration — the label is folded into the
    /// series name ([`labeled_name`]), so two handles for the same
    /// `(name, label, value)` share one cell and snapshots/exports key
    /// each label value separately (the fleet's per-tenant metrics).
    pub fn counter_labeled(&self, name: &str, label: &str, value: &str) -> Counter {
        self.counter(&labeled_name(name, label, value))
    }

    /// The gauge for the labelled series `name{label="value"}` (see
    /// [`Registry::counter_labeled`] for the label semantics).
    pub fn gauge_labeled(&self, name: &str, label: &str, value: &str) -> Gauge {
        self.gauge(&labeled_name(name, label, value))
    }

    /// The histogram for the labelled series `name{label="value"}` (see
    /// [`Registry::counter_labeled`] for the label semantics).
    pub fn histogram_labeled(&self, name: &str, label: &str, value: &str) -> LogHistogram {
        self.histogram(&labeled_name(name, label, value))
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        match self.metrics() {
            None => Counter::disabled(),
            Some(mut m) => m
                .counters
                .entry(name.to_string())
                .or_insert_with(Counter::standalone)
                .clone(),
        }
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.metrics() {
            None => Gauge::disabled(),
            Some(mut m) => m
                .gauges
                .entry(name.to_string())
                .or_insert_with(Gauge::standalone)
                .clone(),
        }
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> LogHistogram {
        match self.metrics() {
            None => LogHistogram::disabled(),
            Some(mut m) => m
                .histograms
                .entry(name.to_string())
                .or_insert_with(LogHistogram::standalone)
                .clone(),
        }
    }

    /// Records a structured event (dropped when disabled; the ring drops
    /// its oldest event when full).
    pub fn event(&self, kind: EventKind) {
        if let Some(inner) = &self.inner {
            let at_ns = inner.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            inner.events.record(at_ns, kind);
        }
    }

    /// The most recent `n` events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<TelemetryEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.events.recent(n))
    }

    /// Events with sequence number `> seq`, oldest first (tailing API:
    /// pass the last sequence number you saw).
    pub fn events_since(&self, seq: u64) -> Vec<TelemetryEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.events.since(seq))
    }

    /// Events dropped because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.events.dropped())
    }

    /// A point-in-time copy of every registered metric (empty when
    /// disabled). Deterministic: metrics are keyed by name in sorted
    /// order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(m) = self.metrics() {
            for (name, c) in &m.counters {
                snap.counters.insert(name.clone(), c.get());
            }
            for (name, g) in &m.gauges {
                snap.gauges.insert(name.clone(), g.get());
            }
            for (name, h) in &m.histograms {
                snap.histograms.insert(name.clone(), h.snapshot());
            }
        }
        snap
    }
}

/// A point-in-time copy of a [`Registry`]'s metrics, keyed by name in
/// sorted order (snapshots of the same state render identically).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram buckets.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// What happened *between* `earlier` and `self`: counters and
    /// histograms subtract (saturating; a metric absent from `earlier`
    /// keeps its full value), gauges keep their latest reading.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in &mut out.counters {
            if let Some(e) = earlier.counters.get(name) {
                *v = v.saturating_sub(*e);
            }
        }
        for (name, h) in &mut out.histograms {
            if let Some(e) = earlier.histograms.get(name) {
                *h = h.delta(e);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = Registry::new(8);
        let c = r.counter("c");
        let g = r.gauge("g");
        c.inc();
        c.add(4);
        g.add(100);
        g.sub(30);
        g.offset(-20);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 50);
        let snap = r.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 50);
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new(8);
        r.counter("x").inc();
        r.counter("x").inc();
        assert_eq!(r.counter("x").get(), 2);
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let r = Registry::disabled();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.inc();
        h.record(42);
        r.event(EventKind::OomRevocation { shard: 0 });
        assert!(!c.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(r.snapshot().counters.is_empty());
        assert!(r.recent_events(10).is_empty());
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = LogHistogram::standalone();
        h.record(0); // bucket 0 (absorbs 0)
        h.record(1); // bucket 0
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        h.record(u64::MAX); // bucket 63
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[10], 1);
        assert_eq!(s.counts[63], 1);
        assert_eq!(s.sum, 1028u64.wrapping_add(u64::MAX)); // sum wraps at u64
    }

    #[test]
    fn percentiles_are_bucket_ceilings() {
        let h = LogHistogram::standalone();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(100_000); // bucket 16
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 128);
        assert_eq!(s.percentile(99.0), 128);
        assert_eq!(s.percentile(100.0), 1 << 17);
        assert_eq!(s.max_value(), 1 << 17);
        // Top bucket's ceiling saturates instead of overflowing.
        let top = LogHistogram::standalone();
        top.record(u64::MAX);
        assert_eq!(top.snapshot().max_value(), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = LogHistogram::standalone().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(99.0), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_delta_subtracts_monotonics_keeps_gauges() {
        let r = Registry::new(8);
        let c = r.counter("ops");
        let g = r.gauge("live");
        let h = r.histogram("lat");
        c.add(10);
        g.add(100);
        h.record(5);
        let t0 = r.snapshot();
        c.add(7);
        g.sub(40);
        h.record(5);
        h.record(900);
        let d = r.snapshot().delta(&t0);
        assert_eq!(d.counters["ops"], 7);
        assert_eq!(d.gauges["live"], 60);
        assert_eq!(d.histograms["lat"].count(), 2);
    }

    #[test]
    fn handles_share_cells_across_clones_and_threads() {
        let r = Registry::new(8);
        let c = r.counter("shared");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("shared").get(), 4000);
    }
}
