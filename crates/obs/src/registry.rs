//! The metrics registry: named counters, gauges, and power-of-two
//! histograms collected from every layer of the simulator.
//!
//! Components *export into* a registry — the hot paths keep their own
//! cheap accumulators (plain `u64` adds) and copy them out once per run
//! via an `export_metrics(&self, &mut MetricsRegistry)` method, so
//! metric collection never touches the simulation inner loops.
//!
//! # Examples
//!
//! ```
//! use obs::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter("engine.events_fired", 1234);
//! reg.gauge("net.link.utilization.max", 0.83);
//! reg.observe("exec.msg.bytes", 4096);
//! let snap = reg.snapshot();
//! assert_eq!(snap.get("engine.events_fired").unwrap().as_f64(), Some(1234.0));
//! ```

use std::collections::BTreeMap;

use crate::json::Json;

/// A power-of-two histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 holds zeros and ones). It lives here, in
/// the dependency-free crate, so every layer can record into snapshots
/// without a dependency cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
}

impl Default for Pow2Histogram {
    fn default() -> Self {
        Pow2Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl Pow2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket_floor, count)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
            .collect()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Approximate quantile: the midpoint of the bucket containing the
    /// `q`-th sample (bucket floors would bias p50/p99 low by up to 2x
    /// for small counts). Bucket 0 spans `[0, 2)` and reports 1; bucket
    /// `i >= 1` spans `[2^i, 2^(i+1))` and reports `1.5 * 2^i`. `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 { 1 } else { 3u64 << (i - 1) });
            }
        }
        None
    }
}

/// One exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic count of discrete occurrences.
    Counter(u64),
    /// Point-in-time scalar (utilization, high-water mark, ...).
    Gauge(f64),
    /// Distribution of unsigned samples in power-of-two buckets (boxed:
    /// the bucket array dwarfs the scalar variants).
    Histogram(Box<Pow2Histogram>),
}

impl Metric {
    /// Scalar view of the metric: counter/gauge value, histogram mean.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Metric::Counter(c) => Some(*c as f64),
            Metric::Gauge(g) => Some(*g),
            Metric::Histogram(h) => Some(h.mean()),
        }
    }
}

/// A named collection of metrics with deterministic iteration order.
///
/// Names are dot-separated paths (`"net.link.bytes.max"`); per-entity
/// series append an index (`"exec.rank.3.sw_us"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` (creating it at zero). The name
    /// is copied only when the metric is new.
    pub fn counter(&mut self, name: impl AsRef<str> + Into<String>, n: u64) {
        match self.metrics.get_mut(name.as_ref()) {
            Some(Metric::Counter(c)) => *c = c.saturating_add(n),
            Some(other) => *other = Metric::Counter(n),
            None => {
                self.metrics.insert(name.into(), Metric::Counter(n));
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), Metric::Gauge(value));
    }

    /// Records `value` into the histogram `name` (creating it empty).
    /// The name is copied only when the metric is new.
    pub fn observe(&mut self, name: impl AsRef<str> + Into<String>, value: u64) {
        if let Some(Metric::Histogram(h)) = self.metrics.get_mut(name.as_ref()) {
            h.record(value);
            return;
        }
        let mut h = Box::new(Pow2Histogram::new());
        h.record(value);
        self.metrics.insert(name.into(), Metric::Histogram(h));
    }

    /// Records every one of `values` into the histogram `name`, as many
    /// [`MetricsRegistry::observe`] calls would, with one lookup.
    pub fn observe_all(
        &mut self,
        name: impl AsRef<str> + Into<String>,
        values: impl IntoIterator<Item = u64>,
    ) {
        let mut values = values.into_iter();
        let Some(first) = values.next() else {
            return;
        };
        self.observe(name.as_ref(), first);
        if let Some(Metric::Histogram(h)) = self.metrics.get_mut(name.as_ref()) {
            values.for_each(|v| h.record(v));
        }
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been exported yet.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Iterates `(name, metric)` in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All metrics whose name starts with `prefix`, in name order.
    pub fn with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Metric)> {
        self.metrics
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v))
    }

    /// A point-in-time snapshot as a JSON object keyed by metric name.
    ///
    /// Counters become integers, gauges floats, histograms objects with
    /// `count`/`mean`/`p50`/`p99`/`buckets`.
    pub fn snapshot(&self) -> Json {
        Json::Object(
            self.metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => Json::UInt(*c),
                        Metric::Gauge(g) => Json::Float(*g),
                        Metric::Histogram(h) => Json::object([
                            ("count", Json::UInt(h.count())),
                            ("mean", Json::Float(h.mean())),
                            ("p50", h.quantile(0.5).map(Json::UInt).unwrap_or(Json::Null)),
                            (
                                "p99",
                                h.quantile(0.99).map(Json::UInt).unwrap_or(Json::Null),
                            ),
                            (
                                "buckets",
                                Json::Array(
                                    h.nonzero_buckets()
                                        .into_iter()
                                        .map(|(floor, count)| {
                                            Json::Array(vec![Json::UInt(floor), Json::UInt(count)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    };
                    (name.clone(), value)
                })
                .collect(),
        )
    }

    /// Text-renderer rows: `(name, kind, value)` per metric, for the
    /// report crate's table renderer.
    pub fn rows(&self) -> Vec<[String; 3]> {
        self.metrics
            .iter()
            .map(|(name, metric)| {
                let (kind, value) = match metric {
                    Metric::Counter(c) => ("counter", format!("{c}")),
                    Metric::Gauge(g) => ("gauge", format!("{g:.3}")),
                    Metric::Histogram(h) => (
                        "histogram",
                        format!(
                            "n={} mean={:.1} p50={} p99={}",
                            h.count(),
                            h.mean(),
                            h.quantile(0.5).unwrap_or(0),
                            h.quantile(0.99).unwrap_or(0),
                        ),
                    ),
                };
                [name.clone(), kind.to_string(), value]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn counters_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter("a.b", 3);
        r.counter("a.b", 4);
        assert_eq!(r.get("a.b"), Some(&Metric::Counter(7)));
    }

    #[test]
    fn a_metric_changes_kind_on_the_other_kinds_write() {
        let mut r = MetricsRegistry::new();
        r.gauge("m", 2.5);
        r.counter("m", 3);
        r.counter(String::from("m"), 4);
        assert_eq!(r.get("m"), Some(&Metric::Counter(7)));
        r.observe("m", 8);
        r.observe(String::from("m"), 8);
        match r.get("m") {
            Some(Metric::Histogram(h)) => assert_eq!((h.count(), h.sum()), (2, 16)),
            other => panic!("expected a histogram, got {other:?}"),
        }
        r.counter("m", 1);
        assert_eq!(r.get("m"), Some(&Metric::Counter(1)));
    }

    #[test]
    fn observe_all_equals_one_observe_per_value() {
        let mut one = MetricsRegistry::new();
        let mut all = MetricsRegistry::new();
        for r in [&mut one, &mut all] {
            r.gauge("h", 1.0);
        }
        for v in [0, 5, 1 << 40] {
            one.observe("h", v);
        }
        all.observe_all("h", [0, 5, 1 << 40]);
        all.observe_all("empty", []);
        assert_eq!(one, all);
        assert!(all.get("empty").is_none(), "no samples, no metric");
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.gauge("x", 1.0);
        r.gauge("x", 2.5);
        assert_eq!(r.get("x").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Pow2Histogram::new();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        // Quantiles report bucket midpoints: bucket 0 ([0,2)) reads 1,
        // the 1024 bucket ([1024,2048)) reads 1536.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(1536));
        assert_eq!(h.sum(), 1030);
        assert!((h.mean() - 206.0).abs() < 1.0);
        let buckets = h.nonzero_buckets();
        assert!(buckets.contains(&(0, 2))); // 0 and 1
        assert!(buckets.contains(&(2, 2))); // 2 and 3
        assert!(buckets.contains(&(1024, 1)));
    }

    #[test]
    fn snapshot_is_valid_json() {
        let mut r = MetricsRegistry::new();
        r.counter("engine.events", 10);
        r.gauge("net.util", 0.5);
        r.observe("lat", 100);
        r.observe("lat", 200);
        let text = r.snapshot().to_string_pretty();
        let parsed = validate(&text).expect("snapshot parses");
        assert_eq!(parsed.get("engine.events").unwrap().as_f64(), Some(10.0));
        assert_eq!(
            parsed.get("lat").unwrap().get("count").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn prefix_iteration_is_exact() {
        let mut r = MetricsRegistry::new();
        r.counter("net.link.0.bytes", 1);
        r.counter("net.link.1.bytes", 2);
        r.counter("network.other", 3);
        let names: Vec<_> = r.with_prefix("net.link.").map(|(n, _)| n).collect();
        assert_eq!(names, vec!["net.link.0.bytes", "net.link.1.bytes"]);
    }

    #[test]
    fn rows_render_all_kinds() {
        let mut r = MetricsRegistry::new();
        r.counter("c", 1);
        r.gauge("g", 2.0);
        r.observe("h", 8);
        let rows = r.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][1], "counter");
        assert_eq!(rows[1][1], "gauge");
        assert_eq!(rows[2][1], "histogram");
    }
}
