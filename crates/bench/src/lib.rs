//! `cnv-bench` — experiment drivers shared by the `repro` binary and the
//! two baseline writers (`benches/fleet_scaling.rs`,
//! `benches/parallel_scaling.rs`).
//!
//! Each public function regenerates the data behind one of the paper's
//! evaluation artifacts (see DESIGN.md's experiment index). The `repro`
//! binary formats them as paper-style tables; the baseline writers record
//! fleet and checker throughput in the `BENCH_*.json` files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cellstack::{PdpDeactivationCause, RatSystem, UpdateKind};
use netsim::{
    op_i, op_ii, BehaviorProfile, Drive, Ev, FleetConfig, OperatorProfile, Route, SimTime, UeSpec,
    World, WorldConfig,
};

/// Summary statistics of a millisecond series.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeriesStats {
    /// Sample count.
    pub n: usize,
    /// Minimum, seconds.
    pub min_s: f64,
    /// Median, seconds.
    pub median_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
    /// 90th percentile, seconds.
    pub p90_s: f64,
    /// Mean, seconds.
    pub mean_s: f64,
}

/// Compute [`SeriesStats`].
pub fn series_stats(series: &[u64]) -> SeriesStats {
    if series.is_empty() {
        return SeriesStats::default();
    }
    let (min, med, max, p90, mean) = netsim::Metrics::table6_row(series);
    SeriesStats {
        n: series.len(),
        min_s: min,
        median_s: med,
        max_s: max,
        p90_s: p90,
        mean_s: mean,
    }
}

/// Quantile of a ms-series, in seconds.
pub fn quantile_s(series: &[u64], q: f64) -> f64 {
    netsim::Metrics::quantile_ms(series, q) as f64 / 1_000.0
}

// ---------------------------------------------------------------------
// Figure 4 — recovery time from the detached event (S1 episodes).
// ---------------------------------------------------------------------

/// Run `episodes` S1 episodes on `op` and collect the recovery times (ms).
pub fn figure4_recovery_times(op: OperatorProfile, episodes: u32, seed: u64) -> Vec<u64> {
    let mut all = Vec::new();
    for i in 0..episodes {
        let mut w = World::new(WorldConfig::new(op, seed.wrapping_add(u64::from(i))));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        w.cfg.auto_hangup_after_ms = Some(15_000);
        w.schedule_in(1_000, Ev::Dial);
        w.schedule_in(
            10_000,
            Ev::NetworkDeactivatePdp(PdpDeactivationCause::OperatorDeterminedBarring),
        );
        w.run_until(SimTime::from_secs(400));
        all.extend(w.metrics.recovery_times_ms.iter().copied());
    }
    all
}

// ---------------------------------------------------------------------
// Figure 7 — call setup time + RSSI along Route-1.
// ---------------------------------------------------------------------

/// One Figure 7 call point.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Call {
    /// Mile at which the call was dialed.
    pub mile: f64,
    /// Setup time, seconds.
    pub setup_s: f64,
    /// A location update was in progress.
    pub during_update: bool,
}

/// Drive Route-1 at 60 mph with the §6.1.2 repeated-dial tool; returns the
/// call points and the sampled RSSI profile `(mile, dBm)`.
pub fn figure7_route1(seed: u64) -> (Vec<Fig7Call>, Vec<(f64, f64)>) {
    figure7_drive(Route::route_1(), seed)
}

/// The same drive test on Route-2 (28.3 miles, freeway + local — the second
/// §6.1.2 route).
pub fn figure7_route2(seed: u64) -> (Vec<Fig7Call>, Vec<(f64, f64)>) {
    figure7_drive(Route::route_2(), seed)
}

/// Run the repeated-dial drive test on an arbitrary route.
pub fn figure7_drive(route: Route, seed: u64) -> (Vec<Fig7Call>, Vec<(f64, f64)>) {
    // OP-I's latency profile, but the return mechanism is pinned to cell
    // reselection and a high-rate data session holds RRC at DCH, so the phone
    // naturally stays in 3G for the whole drive (the S3 coupling working
    // for us: the measurement is a 3G CS phenomenon).
    let mut cfg = WorldConfig::new(op_i(), seed);
    cfg.op.switch_mechanism = cellstack::SwitchMechanism::CellReselection;
    let mut w = World::new(cfg);
    w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
    w.run_until(SimTime::from_secs(8));
    w.cfg.auto_hangup_after_ms = Some(12_000);
    w.cfg.auto_redial_after_ms = Some(2_000);
    w.schedule_in(50, Ev::DataStart { high_rate: true });
    w.schedule_in(100, Ev::Dial);
    let t = w.now.plus_secs(6);
    w.run_until(t);
    let minutes = (route.length_miles + 2.0) as u64; // 60 mph ⇒ 1 mile/min
    w.start_drive(Drive::at_60mph(route));
    let t = w.now.plus_secs(minutes * 60);
    w.run_until(t);
    let calls = w
        .metrics
        .call_setups
        .iter()
        .map(|c| Fig7Call {
            mile: c.at_mile,
            setup_s: c.setup_ms as f64 / 1_000.0,
            during_update: c.during_update,
        })
        .collect();
    (calls, w.metrics.rssi_samples.clone())
}

// ---------------------------------------------------------------------
// Figure 8 — CDFs of location/routing-area update durations.
// ---------------------------------------------------------------------

/// Collect `n` update durations (ms) of `kind` on `op`.
pub fn figure8_durations(op: OperatorProfile, kind: UpdateKind, n: u32, seed: u64) -> Vec<u64> {
    let mut w = World::new(WorldConfig::new(op, seed));
    // Camp on 3G, registered, no CSFB involvement.
    w.stack.serving = RatSystem::Utran3g;
    w.stack.gmm.state = cellstack::gmm::GmmDeviceState::Registered;
    for i in 0..n {
        w.schedule_in(u64::from(i) * 20_000, Ev::TriggerUpdate(kind));
    }
    w.run_until(SimTime::from_millis(u64::from(n) * 20_000 + 60_000));
    match kind {
        UpdateKind::LocationArea => w.metrics.lau_durations_ms.clone(),
        UpdateKind::RoutingArea => w.metrics.rau_durations_ms.clone(),
        UpdateKind::TrackingArea => w.metrics.tau_durations_ms.clone(),
    }
}

/// Empirical CDF points at the given probabilities, seconds.
pub fn cdf_points(series: &[u64], probs: &[f64]) -> Vec<(f64, f64)> {
    probs.iter().map(|&p| (p, quantile_s(series, p))).collect()
}

// ---------------------------------------------------------------------
// Figure 9 — data speed with/without CS calls across hour bins.
// ---------------------------------------------------------------------

/// One Figure 9 bin: `(label, w/ call mbps, w/o call mbps)`.
#[derive(Clone, Debug)]
pub struct Fig9Bin {
    /// Hour-bin label as in the paper ("8-11", ...).
    pub label: &'static str,
    /// Mean speed with a concurrent call, Mbps.
    pub with_call_mbps: f64,
    /// Mean speed without a call, Mbps.
    pub without_call_mbps: f64,
}

/// Measure one direction on one carrier across the paper's six hour bins.
pub fn figure9(op: OperatorProfile, uplink: bool, seed: u64) -> Vec<Fig9Bin> {
    let bins: [(&'static str, u32); 6] = [
        ("8-11", 8),
        ("11-14", 11),
        ("14-17", 14),
        ("17-20", 17),
        ("20-23", 20),
        ("23-2", 23),
    ];
    bins.iter()
        .map(|&(label, start_hour)| {
            let mut cfg = WorldConfig::new(op, seed ^ u64::from(start_hour));
            cfg.start_hour = start_hour;
            let mut w = World::new(cfg);
            w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
            w.run_until(SimTime::from_secs(8));
            w.cfg.auto_hangup_after_ms = Some(90_000);
            w.schedule_in(100, Ev::DataStart { high_rate: true });
            w.schedule_in(500, Ev::Dial);
            for i in 0..12u64 {
                w.schedule_in(25_000 + i * 4_000, Ev::SpeedtestSample { uplink });
            }
            w.schedule_in(200_000, Ev::DataSessionEnd);
            // Post-call samples: the phone is back in 4G or idle in 3G; we
            // sample the 3G shared channel without voice.
            for i in 0..12u64 {
                w.schedule_in(320_000 + i * 4_000, Ev::SpeedtestSample { uplink });
            }
            w.run_until(SimTime::from_secs(500));
            Fig9Bin {
                label,
                with_call_mbps: w.metrics.mean_throughput(uplink, true) / 1_000.0,
                without_call_mbps: w.metrics.mean_throughput(uplink, false) / 1_000.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 10 — example protocol trace (64QAM disabled during CS call).
// ---------------------------------------------------------------------

/// Produce the Figure 10-style trace: a CSFB call with ongoing data, dumped
/// from the phone-side collector.
pub fn figure10_trace(seed: u64) -> String {
    let mut w = World::new(WorldConfig::new(op_i(), seed));
    w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
    w.run_until(SimTime::from_secs(8));
    w.cfg.auto_hangup_after_ms = Some(20_000);
    w.schedule_in(100, Ev::DataStart { high_rate: true });
    w.schedule_in(1_000, Ev::Dial);
    w.schedule_in(60_000, Ev::DataSessionEnd);
    w.run_until(SimTime::from_secs(120));
    w.trace.dump()
}

// ---------------------------------------------------------------------
// Table 6 — via many CSFB-with-data calls per carrier.
// ---------------------------------------------------------------------

/// Collect stuck-in-3G durations (ms) over `calls` CSFB-with-data calls.
pub fn table6_stuck_durations(op: OperatorProfile, calls: u32, seed: u64) -> Vec<u64> {
    let mut all = Vec::new();
    for i in 0..calls {
        let mut w = World::new(WorldConfig::new(op, seed.wrapping_add(u64::from(i) * 7)));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.cfg.auto_hangup_after_ms = Some(20_000);
        w.schedule_in(100, Ev::DataStart { high_rate: true });
        w.schedule_in(1_000, Ev::Dial);
        // Session lifetime drawn from the carrier's profile (drives the
        // OP-II quantiles, §7: "the duration ... depends on the lifetime of
        // ongoing data sessions").
        let life = {
            // Deterministic per-episode draw.
            use rand::SeedableRng;
            let mut r = rand::rngs::StdRng::seed_from_u64(seed ^ u64::from(i));
            op.data_session_lifetime.sample_ms(&mut r)
        };
        w.schedule_in(25_000 + life, Ev::DataSessionEnd);
        w.run_until(SimTime::from_secs(700));
        all.extend(w.metrics.stuck_in_3g_ms.iter().copied());
    }
    all
}

/// Convenience: both carrier profiles.
pub fn carriers() -> [OperatorProfile; 2] {
    [op_i(), op_ii()]
}

/// The fleet-scaling arm: `ues` phones on OP-II with typical 4G behaviour
/// for one simulated week, on one shard, with 32-entry trace rings. Both
/// `repro --exp fleet` (whose 20k-UE row CI holds to a throughput floor)
/// and the `fleet_scaling` baseline writer run this configuration. One
/// shard on every host keeps events/s comparable across machines, and
/// bounded rings on every arm keep a million-UE arm within memory and the
/// trace cost alike across arms.
pub fn uniform_week(seed: u64, ues: usize) -> FleetConfig {
    let spec = UeSpec {
        op: op_ii(),
        behavior: BehaviorProfile::typical_4g(),
    };
    let mut cfg = FleetConfig::uniform(seed, 7, 1, ues, spec);
    cfg.trace_capacity = Some(32);
    cfg
}

// ---------------------------------------------------------------------
// Process memory + the longitudinal trend baseline.
// ---------------------------------------------------------------------

/// Process high-water RSS in bytes (`VmHWM` from `/proc/self/status`), if
/// the platform exposes it. Monotone over the process lifetime, so a
/// reading taken after a run upper-bounds that run's own peak.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Append one entry to the longitudinal trend file at `path` (the
/// baseline writers pass the workspace root's `BENCH_trend.json`) and
/// return the total entry count. Unlike the per-bench baselines, which
/// each rewrite a snapshot of "this machine, now", the trend file only
/// ever grows: one entry per baseline regeneration, so the perf trajectory
/// across PRs stays machine-readable. `bench` names the producer; `fields`
/// carries its headline numbers (throughput, bytes/state, kernel stats,
/// ...).
///
/// Only a missing file starts a fresh trend. A file that cannot be read,
/// does not parse, or holds no `entries` array is an error naming `path`,
/// and the file is left as it was.
pub fn append_trend(
    path: &std::path::Path,
    bench: &str,
    fields: Vec<(String, serde_json::Value)>,
) -> std::io::Result<usize> {
    use serde_json::Value;
    use std::io::{Error, ErrorKind};
    let invalid =
        |why: &str| Error::new(ErrorKind::InvalidData, format!("{}: {why}", path.display()));
    let mut entries = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(Error::new(e.kind(), format!("{}: {e}", path.display()))),
        Ok(text) => match serde_json::from_str(&text).map_err(|e| invalid(&e.to_string()))? {
            Value::Map(doc) => doc.into_iter().find_map(|(k, v)| match v {
                Value::Seq(entries) if k == "entries" => Some(entries),
                _ => None,
            }),
            _ => None,
        }
        .ok_or_else(|| invalid("no `entries` array"))?,
    };
    let tag = std::env::var("BENCH_TREND_TAG").unwrap_or_else(|_| "untagged".into());
    let mut entry = vec![
        ("bench".to_string(), Value::Str(bench.to_string())),
        ("tag".to_string(), Value::Str(tag)),
        ("seq".to_string(), Value::U64(entries.len() as u64)),
    ];
    entry.extend(fields);
    entries.push(Value::Map(entry));
    let n = entries.len();
    let doc = Value::Map(vec![
        (
            "about".into(),
            Value::Str(
                "longitudinal perf trend: one appended entry per baseline regeneration".into(),
            ),
        ),
        ("entries".into(), Value::Seq(entries)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("trend serializes");
    std::fs::write(path, text + "\n")?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_recovery_in_paper_band() {
        let times = figure4_recovery_times(op_i(), 6, 42);
        assert!(!times.is_empty());
        for &t in &times {
            assert!((2_000..=30_000).contains(&t), "{t} ms outside Figure 4");
        }
    }

    #[test]
    fn figure7_observes_updates_and_good_rssi() {
        let (calls, rssi) = figure7_route1(7);
        assert!(calls.len() >= 10, "repeated dials along 15 miles");
        assert!(rssi.iter().all(|&(_, dbm)| (-95.0..=-45.0).contains(&dbm)));
        // At least one call should coincide with a boundary update.
        assert!(calls.iter().any(|c| c.during_update));
    }

    #[test]
    fn figure7_route2_covers_more_boundaries() {
        let (calls, rssi) = figure7_route2(7);
        assert!(calls.len() > 20, "28 miles of repeated dials");
        // Route-2 has five LA boundaries: more during-update calls than
        // Route-1 would produce.
        let during = calls.iter().filter(|c| c.during_update).count();
        assert!(during >= 3, "got {during}");
        assert!(rssi.last().unwrap().0 > 27.0, "drove the whole route");
    }

    #[test]
    fn figure8_lau_series_nonempty_and_sane() {
        let s = figure8_durations(op_i(), UpdateKind::LocationArea, 30, 9);
        assert_eq!(s.len(), 30);
        assert!(s.iter().all(|&v| v > 2_000), "OP-I LAUs all > 2 s");
    }

    #[test]
    fn figure9_shows_drop_in_every_bin() {
        let bins = figure9(op_ii(), false, 11);
        assert_eq!(bins.len(), 6);
        for b in &bins {
            assert!(
                b.with_call_mbps < b.without_call_mbps * 0.5,
                "bin {}: {} vs {}",
                b.label,
                b.with_call_mbps,
                b.without_call_mbps
            );
        }
    }

    #[test]
    fn figure10_trace_contains_modulation_event() {
        let trace = figure10_trace(3);
        assert!(trace.contains("64QAM disabled during CS voice call"));
        assert!(trace.contains("64QAM re-enabled"));
    }

    #[test]
    fn table6_op2_slower_than_op1() {
        let s1 = table6_stuck_durations(op_i(), 8, 1);
        let s2 = table6_stuck_durations(op_ii(), 8, 2);
        let m1 = series_stats(&s1).median_s;
        let m2 = series_stats(&s2).median_s;
        assert!(m2 > m1, "OP-II median {m2} must exceed OP-I {m1}");
    }

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("cnv-bench-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create the temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_trend_starts_a_missing_file_with_one_entry() {
        let dir = TempDir::new("missing-trend");
        let path = dir.0.join("BENCH_trend.json");
        let fields = vec![("x".into(), serde_json::Value::U64(1))];
        let n = append_trend(&path, "probe", fields).expect("a missing file starts a trend");
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).expect("the trend was written");
        assert!(text.contains(r#""bench": "probe""#), "{text}");
        assert!(text.contains(r#""seq": 0"#), "{text}");
    }

    #[test]
    fn append_trend_refuses_a_file_it_cannot_read_and_leaves_it_untouched() {
        let dir = TempDir::new("corrupt-trend");
        let path = dir.0.join("BENCH_trend.json");
        for garbage in ["not json", r#"{"entries": [{"#, "[]", r#"{"entries": 3}"#] {
            std::fs::write(&path, garbage).expect("write the trend file");
            let err = append_trend(&path, "probe", vec![]).expect_err(garbage);
            assert!(
                err.to_string().starts_with(&path.display().to_string()),
                "{err}"
            );
            assert_eq!(
                std::fs::read_to_string(&path).expect("read it back"),
                garbage
            );
        }
        // A directory where the file should be cannot be read at all.
        let err = append_trend(&dir.0, "probe", vec![]).expect_err("a directory");
        assert!(
            err.to_string().starts_with(&dir.0.display().to_string()),
            "{err}"
        );
    }
}
