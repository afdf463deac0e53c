//! The metrics registry: named instrument families with labeled series.
//!
//! Registration (the [`MetricsRegistry::counter`]-family methods) takes a
//! write lock once per *series*, returns a cheap `Clone` handle, and is
//! idempotent — registering the same `(name, labels)` twice returns a
//! handle to the same cells, so construction-order coupling between the
//! code paths that share an instrument is never needed.  Recording through
//! a handle is a relaxed atomic operation and takes no lock.
//!
//! [`MetricsRegistry::snapshot`] walks every family once under the read
//! lock and loads each atomic exactly once, producing a
//! [`MetricsSnapshot`] whose derived quantities (ratios, histogram counts)
//! are computed from the values it reports.  It is not a consistent cut:
//! writers add with relaxed `fetch_add` and take no lock, so the read lock
//! orders nothing against them, and a relation between counters (such as
//! `cache_hits + cache_misses == queries`) holds exactly once the writers
//! are quiet.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A monotone counter handle.  Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (mostly useful in tests; registered
    /// counters come from [`MetricsRegistry::counter`]).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that goes up and down (queue depths, pool
/// occupancy).  Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// Monotone [`Counter`].
    Counter,
    /// Up-and-down [`Gauge`].
    Gauge,
    /// Log₂-bucket [`Histogram`].
    Histogram,
}

impl InstrumentKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn type_name(self) -> &'static str {
        match self {
            InstrumentKind::Counter => "counter",
            InstrumentKind::Gauge => "gauge",
            InstrumentKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum SeriesCell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: InstrumentKind,
    /// Keyed by the rendered label set (e.g. `shard="0"`, empty for none).
    series: BTreeMap<String, SeriesCell>,
}

/// A process- or server-scoped collection of named instruments.
///
/// Create per-server registries with [`MetricsRegistry::new`]; use
/// [`global`] for process-wide facts (build phases, snapshot I/O).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

/// Render a label slice to its canonical exposition text: `k1="v1",k2="v2"`.
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Family>> {
        // A poisoned lock only means some thread panicked mid-registration;
        // the map itself is always structurally sound, so recover.
        self.families.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Family>> {
        self.families.write().unwrap_or_else(|e| e.into_inner())
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: InstrumentKind,
        labels: &[(&str, &str)],
    ) -> SeriesCell {
        let key = render_labels(labels);
        {
            // Fast path: the series already exists.
            let map = self.read();
            if let Some(family) = map.get(name) {
                assert_eq!(
                    family.kind,
                    kind,
                    "instrument `{name}` registered as {} and {}",
                    family.kind.type_name(),
                    kind.type_name()
                );
                if let Some(cell) = family.series.get(&key) {
                    return cell.clone();
                }
            }
        }
        let mut map = self.write();
        let family = map.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "instrument `{name}` registered as {} and {}",
            family.kind.type_name(),
            kind.type_name()
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                InstrumentKind::Counter => SeriesCell::Counter(Counter::new()),
                InstrumentKind::Gauge => SeriesCell::Gauge(Gauge::new()),
                InstrumentKind::Histogram => SeriesCell::Histogram(Histogram::new()),
            })
            .clone()
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, InstrumentKind::Counter, labels) {
            SeriesCell::Counter(c) => c,
            // register() asserts the kind matches before returning.
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, InstrumentKind::Gauge, &[]) {
            SeriesCell::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a labeled histogram series.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, InstrumentKind::Histogram, labels) {
            SeriesCell::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// One pass over every registered instrument: each atomic is loaded
    /// exactly once, under a single read lock that keeps registration out
    /// but orders nothing against recording (see the module doc).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.read();
        MetricsSnapshot {
            families: map
                .iter()
                .map(|(name, family)| FamilySnapshot {
                    name: name.clone(),
                    help: family.help.clone(),
                    kind: family.kind,
                    series: family
                        .series
                        .iter()
                        .map(|(labels, cell)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match cell {
                                SeriesCell::Counter(c) => SeriesValue::Counter(c.value()),
                                SeriesCell::Gauge(g) => SeriesValue::Gauge(g.value()),
                                SeriesCell::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// The process-global registry: build phases, graph generation, snapshot
/// I/O — facts that belong to the process, not to one server.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A view of one registry: every family, every series, each atomic read
/// once in one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Families in name order.
    pub families: Vec<FamilySnapshot>,
}

/// One instrument family in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Family name (e.g. `dsketch_serve_queries_total`).
    pub name: String,
    /// Help text shown in the exposition.
    pub help: String,
    /// Instrument kind.
    pub kind: InstrumentKind,
    /// Labeled series, in label order.
    pub series: Vec<SeriesSnapshot>,
}

/// One labeled series in a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Rendered label set (e.g. `shard="0"`; empty for an unlabeled series).
    pub labels: String,
    /// The value read at snapshot time.
    pub value: SeriesValue,
}

/// The value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(i64),
    /// A histogram's cells.
    Histogram(HistogramSnapshot),
}

impl MetricsSnapshot {
    fn find(&self, name: &str, labels: &str) -> Option<&SeriesValue> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| s.labels == labels)
            .map(|s| &s.value)
    }

    /// The counter series `name{labels}`, if present (`labels` rendered as
    /// `k="v"`; empty string for an unlabeled series).
    pub fn counter(&self, name: &str, labels: &str) -> Option<u64> {
        match self.find(name, labels)? {
            SeriesValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge series `name{labels}`, if present.
    pub fn gauge(&self, name: &str, labels: &str) -> Option<i64> {
        match self.find(name, labels)? {
            SeriesValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram series `name{labels}`, if present.
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&HistogramSnapshot> {
        match self.find(name, labels)? {
            SeriesValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of a counter family over all its series (0 when absent).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.series)
            .map(|s| match &s.value {
                SeriesValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// A histogram family absorbed over all its series (empty when absent).
    pub fn histogram_total(&self, name: &str) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for family in self.families.iter().filter(|f| f.name == name) {
            for series in &family.series {
                if let SeriesValue::Histogram(h) = &series.value {
                    total.absorb(h);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shares_cells() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("dsketch_test_a_total", "help");
        let b = registry.counter("dsketch_test_a_total", "ignored on re-register");
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);
        assert_eq!(
            registry.snapshot().counter("dsketch_test_a_total", ""),
            Some(3)
        );
    }

    #[test]
    fn labeled_series_are_independent() {
        let registry = MetricsRegistry::new();
        for shard in 0..3u32 {
            let c = registry.counter_with(
                "dsketch_test_queries_total",
                "per-shard",
                &[("shard", &shard.to_string())],
            );
            c.add(u64::from(shard) + 1);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("dsketch_test_queries_total", "shard=\"0\""),
            Some(1)
        );
        assert_eq!(
            snap.counter("dsketch_test_queries_total", "shard=\"2\""),
            Some(3)
        );
        assert_eq!(snap.counter_sum("dsketch_test_queries_total"), 6);
    }

    #[test]
    fn gauges_go_up_and_down() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("dsketch_test_queue_entries", "depth");
        g.add(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
        g.set(-1);
        assert_eq!(
            registry.snapshot().gauge("dsketch_test_queue_entries", ""),
            Some(-1)
        );
    }

    #[test]
    fn histograms_aggregate_across_series() {
        let registry = MetricsRegistry::new();
        registry
            .histogram_with("dsketch_test_latency_nanos", "h", &[("shard", "0")])
            .record(10);
        registry
            .histogram_with("dsketch_test_latency_nanos", "h", &[("shard", "1")])
            .record(100);
        let snap = registry.snapshot();
        assert_eq!(
            snap.histogram("dsketch_test_latency_nanos", "shard=\"0\"")
                .map(|h| h.count()),
            Some(1)
        );
        let total = snap.histogram_total("dsketch_test_latency_nanos");
        assert_eq!(total.count(), 2);
        assert_eq!(total.sum, 110);
        assert_eq!(total.max, 100);
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_mismatch_panics_at_registration() {
        let registry = MetricsRegistry::new();
        registry.counter("dsketch_test_kind_total", "a");
        registry.gauge("dsketch_test_kind_total", "b");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(render_labels(&[("k", "a\"b\\c")]), "k=\"a\\\"b\\\\c\"");
        assert_eq!(render_labels(&[]), "");
        assert_eq!(render_labels(&[("a", "1"), ("b", "2")]), "a=\"1\",b=\"2\"");
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("dsketch_test_global_total", "singleton");
        let before = c.value();
        global()
            .counter("dsketch_test_global_total", "singleton")
            .inc();
        assert_eq!(c.value(), before + 1);
    }

    #[test]
    fn missing_series_read_as_none_or_zero() {
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(snap.counter("dsketch_test_none_total", ""), None);
        assert_eq!(snap.gauge("dsketch_test_none_total", ""), None);
        assert!(snap.histogram("dsketch_test_none_total", "").is_none());
        assert_eq!(snap.counter_sum("dsketch_test_none_total"), 0);
        assert_eq!(snap.histogram_total("dsketch_test_none_total").count(), 0);
    }
}
