//! Simulated time.
//!
//! Time is a count of milliseconds from the start of the run. The trace
//! collector renders it as `hh:mm:ss.ms`, the format the paper's phone-side
//! collector records (§3.3 field 1).

use serde::Serialize;

/// A point in simulated time (milliseconds since run start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The run origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Milliseconds since run start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since run start (fractional).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time plus `ms` milliseconds.
    pub fn plus_millis(self, ms: u64) -> SimTime {
        SimTime(self.0 + ms)
    }

    /// This time plus `secs` seconds.
    pub fn plus_secs(self, secs: u64) -> SimTime {
        SimTime(self.0 + secs * 1_000)
    }

    /// Millisecond difference `self - earlier` (saturating).
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Render as `hh:mm:ss.mmm`, the trace timestamp format.
    pub fn hhmmss(self) -> String {
        let ms = self.0 % 1_000;
        let s = (self.0 / 1_000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = self.0 / 3_600_000;
        format!("{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl std::ops::Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ms: u64) -> SimTime {
        SimTime(self.0 + ms)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.hhmmss())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_trace_style() {
        assert_eq!(SimTime::ZERO.hhmmss(), "00:00:00.000");
        assert_eq!(SimTime::from_millis(61_205).hhmmss(), "00:01:01.205");
        assert_eq!(SimTime::from_secs(3_600 * 2 + 61).hhmmss(), "02:01:01.000");
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1).plus_millis(500);
        assert_eq!(t.as_millis(), 1_500);
        assert_eq!(t.since(SimTime::from_millis(500)), 1_000);
        assert_eq!(SimTime::ZERO.since(t), 0, "saturating");
        assert_eq!((t + 250).as_millis(), 1_750);
    }

    #[test]
    fn secs_f64_conversion() {
        assert!((SimTime::from_millis(2_500).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
    }
}
