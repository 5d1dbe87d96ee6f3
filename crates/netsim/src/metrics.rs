//! Per-run measurements: everything the paper's figures and tables read.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// One throughput measurement (a speedtest run — §3.3 uses Speedtest).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThroughputSample {
    /// Time of measurement.
    pub ts: SimTime,
    /// Hour of (simulated) day.
    pub hour: u32,
    /// Uplink (true) or downlink.
    pub uplink: bool,
    /// A CS call was concurrently active.
    pub with_call: bool,
    /// Measured rate, kbit/s.
    pub kbps: f64,
}

/// Collected measurements for one simulation run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// All detach events observed at the device (including user-initiated).
    pub detach_count: u32,
    /// Network-caused ("implicit") detaches — Figure 12-left's y-axis.
    pub implicit_detaches: u32,
    /// Completed out-of-service periods, ms each.
    pub oos_durations_ms: Vec<u64>,
    /// Recovery times: detach → re-registered (Figure 4).
    pub recovery_times_ms: Vec<u64>,
    /// Call setup times: dial → connected (Figure 7), with the position
    /// (miles into the route; 0 when stationary).
    pub call_setups: Vec<CallSetup>,
    /// Calls that never connected.
    pub failed_calls: u32,
    /// Location-area update durations (Figure 8a).
    pub lau_durations_ms: Vec<u64>,
    /// Routing-area update durations (Figure 8b).
    pub rau_durations_ms: Vec<u64>,
    /// Tracking-area update durations.
    pub tau_durations_ms: Vec<u64>,
    /// Time stuck in 3G after a CSFB call ended (Table 6).
    pub stuck_in_3g_ms: Vec<u64>,
    /// Throughput measurements (Figures 9 / 13).
    pub throughput: Vec<ThroughputSample>,
    /// CM/SM requests observed HOL-blocked (S4 occurrences).
    pub blocked_requests: u32,
    /// S1 occurrences (detached on 3G→4G switch without context).
    pub s1_events: u32,
    /// S6 occurrences (detach caused by a relayed 3G LU failure).
    pub s6_events: u32,
    /// RSSI samples along a drive: (mile, dBm) (Figure 7 lower panel).
    pub rssi_samples: Vec<(f64, f64)>,
    /// Attach attempts observed at the MME.
    pub attach_attempts: u32,
}

/// One call-setup measurement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CallSetup {
    /// When the user dialed.
    pub dialed_at: SimTime,
    /// Dial → connect, ms.
    pub setup_ms: u64,
    /// Position on the drive route, miles (0 if stationary).
    pub at_mile: f64,
    /// A location update was in progress when the call was dialed.
    pub during_update: bool,
}

impl Metrics {
    /// Mean of a series (0 when empty).
    pub fn mean_ms(series: &[u64]) -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        series.iter().sum::<u64>() as f64 / series.len() as f64
    }

    /// Quantile (0..=1) of a series by nearest-rank (0 when empty).
    pub fn quantile_ms(series: &[u64], q: f64) -> u64 {
        if series.is_empty() {
            return 0;
        }
        let mut s = series.to_vec();
        s.sort_unstable();
        let idx = ((s.len() as f64 - 1.0) * q).round() as usize;
        s[idx]
    }

    /// Summary (min, median, max, p90, mean) of a series in seconds — the
    /// Table 6 row shape.
    pub fn table6_row(series: &[u64]) -> (f64, f64, f64, f64, f64) {
        let to_s = |v: u64| v as f64 / 1_000.0;
        (
            to_s(Self::quantile_ms(series, 0.0)),
            to_s(Self::quantile_ms(series, 0.5)),
            to_s(Self::quantile_ms(series, 1.0)),
            to_s(Self::quantile_ms(series, 0.9)),
            Self::mean_ms(series) / 1_000.0,
        )
    }

    /// Mean throughput (kbps) filtered by direction and call concurrency.
    pub fn mean_throughput(&self, uplink: bool, with_call: bool) -> f64 {
        let sel: Vec<f64> = self
            .throughput
            .iter()
            .filter(|s| s.uplink == uplink && s.with_call == with_call)
            .map(|s| s.kbps)
            .collect();
        if sel.is_empty() {
            return 0.0;
        }
        sel.iter().sum::<f64>() / sel.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_quantiles() {
        let s = vec![1_000, 2_000, 3_000, 4_000, 5_000];
        assert!((Metrics::mean_ms(&s) - 3_000.0).abs() < 1e-9);
        assert_eq!(Metrics::quantile_ms(&s, 0.0), 1_000);
        assert_eq!(Metrics::quantile_ms(&s, 0.5), 3_000);
        assert_eq!(Metrics::quantile_ms(&s, 1.0), 5_000);
    }

    #[test]
    fn empty_series_are_zero() {
        assert_eq!(Metrics::mean_ms(&[]), 0.0);
        assert_eq!(Metrics::quantile_ms(&[], 0.5), 0);
        let (min, med, max, p90, avg) = Metrics::table6_row(&[]);
        assert_eq!((min, med, max, p90, avg), (0.0, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn table6_row_in_seconds() {
        let s = vec![1_100, 2_300, 52_600];
        let (min, med, max, _p90, avg) = Metrics::table6_row(&s);
        assert!((min - 1.1).abs() < 1e-9);
        assert!((med - 2.3).abs() < 1e-9);
        assert!((max - 52.6).abs() < 1e-9);
        assert!((avg - 18.666).abs() < 0.01);
    }

    #[test]
    fn throughput_filtering() {
        let mut m = Metrics::default();
        for (ul, call, kbps) in [
            (false, false, 10_000.0),
            (false, true, 3_000.0),
            (true, false, 2_000.0),
        ] {
            m.throughput.push(ThroughputSample {
                ts: SimTime::ZERO,
                hour: 12,
                uplink: ul,
                with_call: call,
                kbps,
            });
        }
        assert_eq!(m.mean_throughput(false, false), 10_000.0);
        assert_eq!(m.mean_throughput(false, true), 3_000.0);
        assert_eq!(m.mean_throughput(true, true), 0.0);
    }
}
