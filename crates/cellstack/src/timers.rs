//! 3GPP NAS retransmission timers (TS 24.301 §10.2, TS 24.008 §11.2).
//!
//! The paper's loss-induced defects (S2 above all) hinge on what happens
//! *between* a NAS request and its answer. The standards fill that gap with
//! retransmission timers: the UE arms a timer when it sends a request, and
//! on expiry retransmits a bounded number of times before abandoning the
//! procedure and escalating (re-attach, fall back, or wait out the long
//! T3402 period). This module names the timers the repo models; the pure
//! FSMs in [`crate::emm`] / [`crate::esm`] own the retry *logic* (bounded
//! counters), while the environment — `netsim`'s event loop or an `mck`
//! model's action set — owns the *clock* and feeds expiries back in. That
//! split keeps the retry machinery identical between simulation and
//! exhaustive checking.
//!
//! Only the EPS timers the findings exercise are modeled:
//!
//! | Timer | Guards | On expiry |
//! |-------|--------|-----------|
//! | T3410 | Attach request | retransmit attach, bounded by the attempt counter |
//! | T3411 | Attach retry wait | re-run the attach (short wait) |
//! | T3402 | Attach back-off | reset the attempt counter, re-attach (long wait) |
//! | T3417 | Service request / bearer activation | retransmit the request |
//! | T3430 | Tracking-area update | retransmit the TAU, bounded |

use serde::{Deserialize, Serialize};

/// Retry ceiling shared by the NAS procedures modeled here: TS 24.301 caps
/// the attach and TAU attempt counters at 5.
pub const MAX_NAS_RETRIES: u8 = 5;

/// The NAS retransmission timers modeled by this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NasTimer {
    /// Attach procedure supervision (15 s): armed with every Attach Request.
    T3410,
    /// Short attach-retry wait (10 s) after an abandoned attempt.
    T3411,
    /// Long attach back-off (12 min): fires after the attempt counter is
    /// exhausted and resets it.
    T3402,
    /// Service request / standalone bearer activation supervision (5 s).
    T3417,
    /// Tracking-area-update supervision (15 s): armed with every TAU request.
    T3430,
}

impl NasTimer {
    /// Every modeled timer, in declaration order.
    pub const ALL: [NasTimer; 5] = [
        NasTimer::T3410,
        NasTimer::T3411,
        NasTimer::T3402,
        NasTimer::T3417,
        NasTimer::T3430,
    ];

    /// The standard's default duration in milliseconds.
    pub fn default_ms(self) -> u64 {
        match self {
            NasTimer::T3410 => 15_000,
            NasTimer::T3411 => 10_000,
            NasTimer::T3402 => 720_000,
            NasTimer::T3417 => 5_000,
            NasTimer::T3430 => 15_000,
        }
    }

    /// Retransmissions allowed before the owning procedure is abandoned.
    /// T3411/T3402 are one-shot waits, not retransmission timers.
    pub fn retry_bound(self) -> u8 {
        match self {
            NasTimer::T3410 | NasTimer::T3430 | NasTimer::T3417 => MAX_NAS_RETRIES,
            NasTimer::T3411 | NasTimer::T3402 => 1,
        }
    }

    /// Expiry delay for the `attempt`-th try (1-based), in milliseconds:
    /// the standard period, doubled per retry and capped at 4× — the
    /// simulator's compressed stand-in for the T3410 → T3411 → T3402
    /// escalation ladder, so a lossy run backs off without stretching
    /// simulated time into the T3402 regime.
    pub fn backoff_ms(self, attempt: u8) -> u64 {
        let shift = attempt.saturating_sub(1).min(2) as u32;
        self.default_ms() << shift
    }

    /// The timer's name as the standards spell it.
    pub fn name(self) -> &'static str {
        match self {
            NasTimer::T3410 => "T3410",
            NasTimer::T3411 => "T3411",
            NasTimer::T3402 => "T3402",
            NasTimer::T3417 => "T3417",
            NasTimer::T3430 => "T3430",
        }
    }
}

impl std::fmt::Display for NasTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_standard() {
        assert_eq!(NasTimer::T3410.default_ms(), 15_000);
        assert_eq!(NasTimer::T3411.default_ms(), 10_000);
        assert_eq!(NasTimer::T3402.default_ms(), 720_000);
        assert_eq!(NasTimer::T3417.default_ms(), 5_000);
        assert_eq!(NasTimer::T3430.default_ms(), 15_000);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let t = NasTimer::T3410;
        assert_eq!(t.backoff_ms(1), 15_000);
        assert_eq!(t.backoff_ms(2), 30_000);
        assert_eq!(t.backoff_ms(3), 60_000);
        assert_eq!(t.backoff_ms(4), 60_000, "capped at 4x");
        assert_eq!(t.backoff_ms(0), 15_000, "0 treated like the first try");
    }

    #[test]
    fn retry_bounds() {
        assert_eq!(NasTimer::T3410.retry_bound(), MAX_NAS_RETRIES);
        assert_eq!(NasTimer::T3430.retry_bound(), MAX_NAS_RETRIES);
        assert_eq!(NasTimer::T3411.retry_bound(), 1);
    }

    #[test]
    fn names_round_trip_display() {
        for t in NasTimer::ALL {
            assert_eq!(format!("{t}"), t.name());
        }
    }
}
