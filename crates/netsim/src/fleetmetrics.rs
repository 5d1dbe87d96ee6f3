//! The structured fleet-metrics layer: typed counters, gauges and
//! histograms with label sets, emitted from the fleet step loop.
//!
//! Once per-UE traces can no longer be retained (the million-UE
//! configuration runs the trace collectors in count-only mode), this
//! registry is what keeps fleet health observable: the kernel counts
//! every processed event by kind, every lane by carrier, and the hazard
//! tallies by carrier, all under stable metric names. A
//! [`MetricsRegistry`] merges commutatively — shards fill their own and
//! the fleet merges them — and renders to a deterministic text snapshot
//! ([`MetricsRegistry::render`]) or a serializable [`MetricsSnapshot`]
//! for offline consumers.
//!
//! Everything the fleet puts in the registry is derived from per-lane
//! outcomes, so the merged registry is byte-identical for any thread
//! count and may participate in the fleet digest.

use serde::Serialize;
use std::collections::BTreeMap;

use crate::sim::agg::SeriesAgg;

/// A label set: sorted key/value pairs (sorted so equal sets compare and
/// render identically however they were built).
pub type Labels = Vec<(&'static str, String)>;

/// One metric's identity: name plus sorted labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: &'static str,
    labels: Labels,
}

/// One metric's value.
#[derive(Clone, Debug)]
enum MetricValue {
    /// Monotone count; merges by addition.
    Counter(u64),
    /// Level observed at some point; merges by maximum (the fleet's
    /// gauges are high-water marks).
    Gauge(u64),
    /// Distribution sketch; merges bucket-wise (boxed: a `SeriesAgg`
    /// carries its bucket array, far larger than the scalar variants).
    Histogram(Box<SeriesAgg>),
}

/// A typed, labeled metrics registry.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, MetricValue>,
}

fn normalize(mut labels: Labels) -> Labels {
    labels.sort_unstable();
    labels
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the counter `name{labels}` (created at zero).
    pub fn count(&mut self, name: &'static str, labels: Labels, v: u64) {
        let key = MetricKey {
            name,
            labels: normalize(labels),
        };
        match self.metrics.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += v,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Raise the high-water gauge `name{labels}` to at least `v`.
    pub fn gauge_max(&mut self, name: &'static str, labels: Labels, v: u64) {
        let key = MetricKey {
            name,
            labels: normalize(labels),
        };
        match self.metrics.entry(key).or_insert(MetricValue::Gauge(0)) {
            MetricValue::Gauge(g) => *g = (*g).max(v),
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// Fold `v` into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &'static str, labels: Labels, v: u64) {
        let key = MetricKey {
            name,
            labels: normalize(labels),
        };
        match self
            .metrics
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Box::default()))
        {
            MetricValue::Histogram(h) => h.observe(v),
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Merge another registry in (counters add, gauges max, histograms
    /// merge bucket-wise). Commutative, so shard registries can merge in
    /// any order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (key, val) in &other.metrics {
            match self.metrics.get_mut(key) {
                None => {
                    self.metrics.insert(key.clone(), val.clone());
                }
                Some(mine) => match (mine, val) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (mine, val) => {
                        panic!("metric {} type mismatch: {mine:?} vs {val:?}", key.name)
                    }
                },
            }
        }
    }

    /// Number of distinct (name, labels) series.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// No series registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The value of a counter, if registered.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Option<u64> {
        match self.metrics.get(&MetricKey {
            name,
            labels: normalize(labels),
        })? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// A serializable point-in-time snapshot of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            samples: self
                .metrics
                .iter()
                .map(|(k, v)| {
                    let labels = k
                        .labels
                        .iter()
                        .map(|(lk, lv)| ((*lk).to_string(), lv.clone()))
                        .collect();
                    match v {
                        MetricValue::Counter(c) => MetricSample {
                            name: k.name.to_string(),
                            labels,
                            kind: "counter".into(),
                            value: *c,
                            sum: None,
                            count: None,
                            min: None,
                            max: None,
                        },
                        MetricValue::Gauge(g) => MetricSample {
                            name: k.name.to_string(),
                            labels,
                            kind: "gauge".into(),
                            value: *g,
                            sum: None,
                            count: None,
                            min: None,
                            max: None,
                        },
                        MetricValue::Histogram(h) => MetricSample {
                            name: k.name.to_string(),
                            labels,
                            kind: "histogram".into(),
                            value: h.count,
                            sum: Some(h.sum),
                            count: Some(h.count),
                            min: Some(if h.count == 0 { 0 } else { h.min }),
                            max: Some(h.max),
                        },
                    }
                })
                .collect(),
        }
    }

    /// Deterministic text rendering, one `name{labels} value` line per
    /// series in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.metrics {
            out.push_str(k.name);
            if !k.labels.is_empty() {
                out.push('{');
                for (i, (lk, lv)) in k.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{lk}=\"{lv}\""));
                }
                out.push('}');
            }
            match v {
                MetricValue::Counter(c) => out.push_str(&format!(" {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!(" {g}\n")),
                MetricValue::Histogram(h) => out.push_str(&format!(" {}\n", h.line())),
            }
        }
        out
    }
}

/// One serialized metric sample.
#[derive(Clone, Debug, Serialize)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// `counter`, `gauge` or `histogram`.
    pub kind: String,
    /// Counter/gauge value; observation count for histograms.
    pub value: u64,
    /// Histogram sum.
    pub sum: Option<u64>,
    /// Histogram count.
    pub count: Option<u64>,
    /// Histogram minimum.
    pub min: Option<u64>,
    /// Histogram maximum.
    pub max: Option<u64>,
}

/// A serializable registry snapshot.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Every series, sorted by (name, labels).
    pub samples: Vec<MetricSample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str) -> Labels {
        vec![("op", name.to_string())]
    }

    #[test]
    fn counters_add_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.count("fleet_events_total", op("OP-I"), 3);
        r.count("fleet_events_total", op("OP-I"), 2);
        r.count("fleet_events_total", op("OP-II"), 7);
        assert_eq!(r.counter("fleet_events_total", op("OP-I")), Some(5));
        assert_eq!(r.counter("fleet_events_total", op("OP-II")), Some(7));
        assert_eq!(r.counter("fleet_events_total", op("OP-III")), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut r = MetricsRegistry::new();
        r.count("x", vec![("a", "1".into()), ("b", "2".into())], 1);
        r.count("x", vec![("b", "2".into()), ("a", "1".into())], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.counter("x", vec![("a", "1".into()), ("b", "2".into())]),
            Some(2)
        );
    }

    #[test]
    fn merge_is_commutative_and_render_deterministic() {
        let mut a = MetricsRegistry::new();
        a.count("c", vec![], 1);
        a.gauge_max("g", vec![], 10);
        a.observe("h", vec![], 100);
        let mut b = MetricsRegistry::new();
        b.count("c", vec![], 2);
        b.gauge_max("g", vec![], 7);
        b.observe("h", vec![], 50);
        b.count("only_b", vec![], 9);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.render(), ba.render());
        assert_eq!(ab.counter("c", vec![]), Some(3));
        assert!(ab.render().contains("g 10"), "gauges merge by max");
    }

    #[test]
    fn snapshot_serializes() {
        let mut r = MetricsRegistry::new();
        r.count("fleet_ue_total", op("OP-I"), 20);
        r.observe("lane_events", vec![], 42);
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 2);
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("fleet_ue_total"));
        assert!(json.contains("histogram"));
    }

    #[test]
    fn render_shape() {
        let mut r = MetricsRegistry::new();
        r.count("events", vec![("kind", "dial".into())], 4);
        assert_eq!(r.render(), "events{kind=\"dial\"} 4\n");
    }
}
