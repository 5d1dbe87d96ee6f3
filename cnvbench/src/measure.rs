//! What one rep measures, how it crosses the process boundary, and the
//! order statistics the parent reports.

use std::time::Instant;

use serde_json::Value;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README glossary.
    pub name: String,
    /// Unit (`s`, `ms`, `ns`, `1/s`, `MB`, `B`, `count`, `ratio`, `%`).
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// One row of a traced rep's time ledger: a layer's self time and how the
/// benchmark obtained it.
#[derive(Clone, Debug)]
pub struct LedgerRow {
    /// Layer name.
    pub layer: String,
    /// Self time charged to the layer over the traced rep, seconds.
    pub seconds: f64,
    /// `timed` (spans around calls), `replay` (per-op replay cost times the
    /// run's op count), or `residual` (the host layer, from a run with the
    /// other layers stripped or untraced).
    pub source: String,
}

/// The traced rep's accounting: layer self times against its wall.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Per-layer self times.
    pub rows: Vec<LedgerRow>,
    /// Wall of the traced (instrumented) run, seconds.
    pub traced_wall_s: f64,
    /// Wall of the same work untraced, seconds.
    pub untraced_wall_s: f64,
}

impl Ledger {
    /// Append a row.
    pub fn row(&mut self, layer: &str, seconds: f64, source: &str) {
        self.rows.push(LedgerRow {
            layer: layer.to_string(),
            seconds,
            source: source.to_string(),
        });
    }

    /// Sum of the layer self times.
    pub fn attributed_s(&self) -> f64 {
        self.rows.iter().map(|r| r.seconds).sum()
    }

    /// Traced wall not covered by any layer (negative when the layers
    /// over-attribute).
    pub fn unattributed_s(&self) -> f64 {
        self.traced_wall_s - self.attributed_s()
    }

    /// `|unattributed| / traced wall`, in percent. ROADMAP's ledger
    /// criterion is ≤ 10.
    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_s().abs() / self.traced_wall_s
    }

    /// How much slower the traced run was than the untraced one, percent.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.traced_wall_s - self.untraced_wall_s) / self.untraced_wall_s
    }

    /// The ledger as JSON, with its derived shares.
    pub fn to_value(&self) -> Value {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Value::Map(vec![
                    ("layer".into(), Value::Str(r.layer.clone())),
                    ("seconds".into(), Value::F64(r.seconds)),
                    ("source".into(), Value::Str(r.source.clone())),
                ])
            })
            .collect();
        Value::Map(vec![
            ("rows".into(), Value::Seq(rows)),
            ("traced_wall_s".into(), Value::F64(self.traced_wall_s)),
            ("untraced_wall_s".into(), Value::F64(self.untraced_wall_s)),
            (
                "unattributed_pct".into(),
                Value::F64(self.unattributed_pct()),
            ),
            (
                "tracing_overhead_pct".into(),
                Value::F64(self.overhead_pct()),
            ),
        ])
    }

    /// Parse what [`Self::to_value`] wrote.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let num = |v: &Value, k: &str| field(v, k).and_then(as_f64).ok_or(format!("ledger {k}"));
        let text = |v: &Value, k: &str| match field(v, k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("ledger {k}")),
        };
        Ok(Self {
            rows: seq(field(v, "rows"))
                .iter()
                .map(|r| {
                    Ok(LedgerRow {
                        layer: text(r, "layer")?,
                        seconds: num(r, "seconds")?,
                        source: text(r, "source")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            traced_wall_s: num(v, "traced_wall_s")?,
            untraced_wall_s: num(v, "untraced_wall_s")?,
        })
    }
}

/// Everything one rep (one child process) reports.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Child `main()` to the first timed operation, seconds.
    pub setup_s: f64,
    /// Wall of the timed section, seconds.
    pub wall_s: f64,
    /// Work units in the timed section: events, states or passes.
    pub ops: u64,
    /// The child's `VmHWM`, MB.
    pub peak_rss_mb: f64,
    /// Operations whose output was checked against the oracle.
    pub attempted: u64,
    /// Operations that failed at least one check.
    pub failed: u64,
    /// The failed checks, described (capped).
    pub failures: Vec<String>,
    /// A compact rendering of the checked output; reps of one workload and
    /// seed must agree on it byte for byte.
    pub fingerprint: String,
    /// Per-operation latencies, ms (screening passes).
    pub samples_ms: Vec<f64>,
    /// Workload-specific end-to-end figures (`events_per_s`, ...).
    pub extras: Vec<Metric>,
    /// Per-layer metrics (traced reps only).
    pub layers: Vec<Metric>,
    /// Time ledger (traced reps only).
    pub ledger: Option<Ledger>,
}

/// Failure messages kept per rep; the count stays exact past the cap.
const MAX_FAILURES: usize = 16;

impl Rep {
    /// Record one checked operation and the checks it failed.
    pub fn record_op(&mut self, errs: Vec<String>) {
        self.attempted += 1;
        if !errs.is_empty() {
            self.failed += 1;
            let room = MAX_FAILURES.saturating_sub(self.failures.len());
            self.failures.extend(errs.into_iter().take(room));
        }
    }

    /// Add a workload-specific end-to-end figure.
    pub fn extra(&mut self, name: &str, unit: &str, value: f64) {
        self.extras.push(Metric::new(name, unit, value));
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &str, value: f64) {
        self.layers.push(Metric::new(name, unit, value));
    }

    /// Serialize for the parent.
    pub fn to_json(&self) -> String {
        let metrics = |ms: &[Metric]| {
            Value::Seq(
                ms.iter()
                    .map(|m| {
                        Value::Seq(vec![
                            Value::Str(m.name.clone()),
                            Value::Str(m.unit.clone()),
                            Value::F64(m.value),
                        ])
                    })
                    .collect(),
            )
        };
        let mut fields = vec![
            ("setup_s".to_string(), Value::F64(self.setup_s)),
            ("wall_s".to_string(), Value::F64(self.wall_s)),
            ("ops".to_string(), Value::U64(self.ops)),
            ("peak_rss_mb".to_string(), Value::F64(self.peak_rss_mb)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            (
                "failures".to_string(),
                Value::Seq(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "fingerprint".to_string(),
                Value::Str(self.fingerprint.clone()),
            ),
            (
                "samples_ms".to_string(),
                Value::Seq(self.samples_ms.iter().map(|&v| Value::F64(v)).collect()),
            ),
            ("extras".to_string(), metrics(&self.extras)),
            ("layers".to_string(), metrics(&self.layers)),
        ];
        if let Some(l) = &self.ledger {
            fields.push(("ledger".to_string(), l.to_value()));
        }
        serde_json::to_string(&Value::Map(fields)).expect("a Value always serializes")
    }

    /// Parse what [`Self::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
        let num = |k: &str| field(&v, k).and_then(as_f64).ok_or(format!("missing {k}"));
        let metrics = |k: &str| -> Result<Vec<Metric>, String> {
            seq(field(&v, k))
                .iter()
                .map(|m| match seq(Some(m)) {
                    [Value::Str(n), Value::Str(u), x] => Ok(Metric {
                        name: n.clone(),
                        unit: u.clone(),
                        value: as_f64(x).ok_or("metric value")?,
                    }),
                    _ => Err(format!("malformed metric in {k}")),
                })
                .collect()
        };
        let ledger = field(&v, "ledger").map(Ledger::from_value).transpose()?;
        Ok(Self {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            ops: num("ops")? as u64,
            peak_rss_mb: num("peak_rss_mb")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: seq(field(&v, "failures"))
                .iter()
                .filter_map(|s| match s {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            fingerprint: match field(&v, "fingerprint") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("missing fingerprint".into()),
            },
            samples_ms: seq(field(&v, "samples_ms"))
                .iter()
                .filter_map(as_f64)
                .collect(),
            extras: metrics("extras")?,
            layers: metrics("layers")?,
            ledger,
        })
    }
}

/// The member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// A JSON array's elements (empty for anything else).
pub fn seq(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Seq(s)) => s,
        _ => &[],
    }
}

/// The process's peak resident set (`VmHWM`), MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(v, n=4)` does (the "exclusive" method), so the
/// spreads printed here match the ones `sets.py` computes.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                // Python extrapolates past the clamped rank too.
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The `p`-th percentile (0–100) of `v` by linear interpolation between
/// closest ranks.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// FNV-1a over bytes: a stable content hash for fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn rep_round_trips_through_json() {
        let mut rep = Rep {
            setup_s: 0.25,
            wall_s: 1.5,
            ops: 42,
            fingerprint: "x".into(),
            ..Rep::default()
        };
        rep.record_op(vec!["bad".into()]);
        rep.layer("wheel.ns_per_op", "ns", 12.5);
        let mut ledger = Ledger {
            traced_wall_s: 2.0,
            untraced_wall_s: 1.5,
            ..Ledger::default()
        };
        ledger.row("sim", 1.9, "residual");
        rep.ledger = Some(ledger);
        let back = Rep::from_json(&rep.to_json()).expect("parses");
        assert_eq!(back.ops, 42);
        assert_eq!((back.attempted, back.failed), (1, 1));
        assert_eq!(back.layers[0].value, 12.5);
        let l = back.ledger.expect("ledger");
        assert!((l.unattributed_pct() - 5.0).abs() < 1e-9);
    }
}
