//! The metrics registry: named, lock-free counter and gauge handles.
//!
//! Components register a handle once (at construction, never on the hot
//! path) and then update it with a single relaxed atomic operation.
//! Registration is idempotent: asking for the same name returns a handle
//! to the same cell, so periodic re-publishing (`store` of a cumulative
//! snapshot) and incremental updates (`add`) compose on one registry.
//!
//! Naming scheme: lowercase dotted hierarchies matching `[a-z0-9_.]+`,
//! `<crate>.<subsystem>.<quantity>[_<unit>]` — e.g. `qindb.gc.runs`,
//! `ssd.gc_write_bytes`, `bifrost.link.2.backlog_bytes`. Counters are
//! monotone totals; gauges are instantaneous levels stored as `f64`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing metric. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrites with an absolute cumulative value. This is the bridge
    /// for components that keep their own counters and re-publish a
    /// snapshot: storing the latest total keeps the cell monotone as long
    /// as the source is.
    pub fn store(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level, stored as `f64` bits. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A detached gauge (not registered anywhere), reading 0.0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
}

/// A process-wide registry of named metrics. Cheap to clone — clones share
/// the same table, like [`simclock::SimClock`] shares its instant.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    cells: Arc<Mutex<BTreeMap<String, Cell>>>,
}

/// Validates the dotted-name scheme: nonempty, `[a-z0-9_.]` only, and no
/// empty path segment. Bad names are a programming error, not input.
fn validate_name(name: &str) {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        && name.split('.').all(|seg| !seg.is_empty());
    assert!(ok, "bad metric name {name:?}: want dotted [a-z0-9_.]+");
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide default registry, for components with no registry
    /// threaded in. The pipeline wires an explicit instance instead so
    /// tests stay isolated.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The cell registered under `name`, registering `new()` on first
    /// use. The lock is released before the caller inspects the cell, so
    /// a kind clash panics without poisoning the registry.
    fn cell(&self, name: &str, new: fn() -> Cell) -> Cell {
        validate_name(name);
        let mut cells = crate::lock(&self.cells);
        cells.entry(name.to_string()).or_insert_with(new).clone()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Panics if `name` is malformed or already names a gauge.
    pub fn counter(&self, name: &str) -> Counter {
        match self.cell(name, || Cell::Counter(Counter::new())) {
            Cell::Counter(c) => c,
            Cell::Gauge(_) => panic!("metric {name:?} is registered as a gauge"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use. Panics if `name` is malformed or already names a counter.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.cell(name, || Cell::Gauge(Gauge::new())) {
            Cell::Gauge(g) => g,
            Cell::Counter(_) => panic!("metric {name:?} is registered as a counter"),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        crate::lock(&self.cells).len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every metric, **sorted by metric name**
    /// (byte-wise ascending).
    ///
    /// The ordering is a documented invariant, not an accident of the
    /// backing map: serialized snapshots (`to_prometheus`, the telemetry
    /// JSON frames) must be byte-stable across runs so the perf gate can
    /// compare them with plain equality. Registration order never leaks
    /// into a snapshot.
    pub fn snapshot(&self) -> MetricsReport {
        let cells = crate::lock(&self.cells);
        MetricsReport {
            samples: cells
                .iter()
                .map(|(name, cell)| MetricSample {
                    name: name.clone(),
                    value: match cell {
                        Cell::Counter(c) => MetricValue::Counter(c.get()),
                        Cell::Gauge(g) => MetricValue::Gauge(g.get()),
                    },
                })
                .collect(),
        }
    }
}

/// One metric's value in a [`MetricsReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotone total.
    Counter(u64),
    /// An instantaneous level.
    Gauge(f64),
}

impl MetricValue {
    /// The value as a float, whatever the kind.
    pub fn as_f64(&self) -> f64 {
        match *self {
            MetricValue::Counter(v) => v as f64,
            MetricValue::Gauge(v) => v,
        }
    }
}

/// A named sample in a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Dotted metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// A sorted point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// All samples, sorted by name.
    pub samples: Vec<MetricSample>,
}

impl MetricsReport {
    /// Looks up one metric by exact name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| self.samples[i].value)
    }

    /// A counter's value, or `None` if absent or a gauge.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(v),
            MetricValue::Gauge(_) => None,
        }
    }

    /// Samples whose name starts with `prefix` (used to slice a report by
    /// crate: `report.with_prefix("qindb.")`).
    pub fn with_prefix(&self, prefix: &str) -> Vec<&MetricSample> {
        self.samples
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    /// Prometheus-style text exposition: one `name value` pair per line,
    /// sorted by name. Counters render as integers, gauges as floats.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match s.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{} {}\n", s.name, v));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{} {}\n", s.name, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("qindb.gc.runs");
        let b = reg.counter("qindb.gc.runs");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.snapshot().counter("qindb.gc.runs"), Some(4));
    }

    #[test]
    fn gauges_hold_levels() {
        let reg = Registry::new();
        let g = reg.gauge("bifrost.link.0.backlog_bytes");
        g.set(1.5e6);
        assert_eq!(
            reg.snapshot().get("bifrost.link.0.backlog_bytes"),
            Some(MetricValue::Gauge(1.5e6))
        );
    }

    #[test]
    fn store_bridges_external_totals() {
        let reg = Registry::new();
        let c = reg.counter("ssd.gc_runs");
        c.store(7);
        c.store(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn snapshot_is_sorted_and_prefix_filterable() {
        let reg = Registry::new();
        reg.counter("serve.shed_total").add(1);
        reg.counter("qindb.puts").add(2);
        reg.counter("qindb.gets").add(3);
        let report = reg.snapshot();
        let names: Vec<_> = report.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["qindb.gets", "qindb.puts", "serve.shed_total"]);
        assert_eq!(report.with_prefix("qindb.").len(), 2);
    }

    #[test]
    fn exposition_is_one_pair_per_line() {
        let reg = Registry::new();
        reg.counter("a.b").add(2);
        reg.gauge("a.c").set(0.5);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text, "a.b 2\na.c 0.5\n");
        for line in text.lines() {
            let (name, value) = line.split_once(' ').expect("name value pair");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.'));
            assert!(value.parse::<f64>().is_ok());
        }
    }

    #[test]
    fn snapshot_serialization_is_byte_stable_across_registration_order() {
        // Two registries with the same metrics registered in opposite
        // orders must serialize identically — the perf gate diffs these
        // strings byte-for-byte.
        let a = Registry::new();
        a.counter("serve.offered").add(10);
        a.gauge("net.conns").set(3.0);
        a.counter("qindb.gets").add(7);
        let b = Registry::new();
        b.counter("qindb.gets").add(7);
        b.gauge("net.conns").set(3.0);
        b.counter("serve.offered").add(10);
        assert_eq!(a.snapshot().to_prometheus(), b.snapshot().to_prometheus());
        let names: Vec<_> = a
            .snapshot()
            .samples
            .iter()
            .map(|s| s.name.clone())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn uppercase_names_rejected() {
        Registry::new().counter("Qindb.puts");
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn empty_segments_rejected() {
        Registry::new().counter("qindb..puts");
    }

    #[test]
    #[should_panic(expected = "registered as a gauge")]
    fn kind_clash_rejected() {
        let reg = Registry::new();
        reg.gauge("x.level");
        reg.counter("x.level");
    }

    #[test]
    fn a_kind_clash_leaves_the_registry_usable() {
        let reg = Registry::new();
        reg.gauge("x.level");
        let clash = std::panic::catch_unwind(|| reg.counter("x.level"));
        assert!(clash.is_err());
        reg.counter("x.total").add(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x.total"), Some(3));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn global_registry_is_shared() {
        Registry::global().counter("obs.test.global").inc();
        assert!(Registry::global()
            .snapshot()
            .counter("obs.test.global")
            .is_some());
    }
}
