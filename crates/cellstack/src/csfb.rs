//! CSFB — Circuit-Switched Fallback (TS 23.272).
//!
//! "Most 4G operators adopt ... CSFB, which switches 4G users to legacy 3G
//! and accesses CS voice service in 3G" (§2). A CSFB call is the scenario
//! engine behind S1, S3 and S6: it forces two inter-system switches and two
//! 3G location updates per call. This module tracks the phase machine of a
//! single CSFB call and enumerates the signaling obligations of each phase.

use crate::msg::SwitchMechanism;
use crate::types::RatSystem;

/// Phases of a CSFB call (§5.1.1 second usage setting; §6.3 for the two
/// location updates).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsfbPhase {
    /// Device camped in 4G, no call.
    Idle4g,
    /// Fallback in progress: 4G→3G switch commanded.
    FallingBack,
    /// In 3G; first location update pending (deferrable until call end).
    In3gUpdatePending,
    /// Voice call active in 3G.
    CallActive,
    /// Call ended; the deferred LU and/or the return switch are racing —
    /// the S6 window.
    CallEnded,
    /// Return switch to 4G in progress.
    Returning,
    /// Back in 4G (second, network-side location update runs here).
    Back4g,
}

/// The per-call CSFB tracker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CsfbCall {
    /// Current phase.
    pub phase: CsfbPhase,
    /// The carrier deferred the first 3G location update to after the call
    /// (TS 23.272 option, §6.3: "this update action can be deferred until
    /// the call completes").
    pub defer_first_update: bool,
    /// The first (device-initiated, in-3G) update has completed.
    pub first_update_done: bool,
    /// The second (network-side, after return) update has completed.
    pub second_update_done: bool,
}

impl CsfbCall {
    /// A new call attempt from 4G.
    pub fn new(defer_first_update: bool) -> Self {
        Self {
            phase: CsfbPhase::Idle4g,
            defer_first_update,
            first_update_done: false,
            second_update_done: false,
        }
    }

    /// The user dialed (or an incoming CSFB page arrived): fallback starts.
    pub fn start(&mut self) {
        assert_eq!(self.phase, CsfbPhase::Idle4g, "one call at a time");
        self.phase = CsfbPhase::FallingBack;
    }

    /// The 4G→3G switch completed.
    pub fn arrived_in_3g(&mut self) {
        self.phase = CsfbPhase::In3gUpdatePending;
    }

    /// Does the first update run *now* (before the call) or after it?
    pub fn first_update_before_call(&self) -> bool {
        !self.defer_first_update
    }

    /// The first 3G location update completed.
    pub fn first_update_completed(&mut self) {
        self.first_update_done = true;
    }

    /// The voice call connected.
    pub fn call_connected(&mut self) {
        self.phase = CsfbPhase::CallActive;
    }

    /// The voice call ended (hangup). Returns whether the deferred first
    /// update must run now — the action that OP-I's fast return disrupts
    /// (S6).
    pub fn call_ended(&mut self) -> bool {
        self.phase = CsfbPhase::CallEnded;
        self.defer_first_update && !self.first_update_done
    }

    /// The return switch towards 4G started.
    pub fn returning(&mut self) {
        self.phase = CsfbPhase::Returning;
    }

    /// The device is back in 4G. Returns `true` when the deferred first
    /// update was still incomplete — the disruption OP-I propagates (S6).
    pub fn arrived_in_4g(&mut self) -> bool {
        self.phase = CsfbPhase::Back4g;
        self.defer_first_update && !self.first_update_done
    }

    /// The network-side update after the return completed.
    pub fn second_update_completed(&mut self) {
        self.second_update_done = true;
    }

    /// §6.3: "Among the two location updates, one is deemed redundant."
    /// True when both ran.
    pub fn redundant_update_performed(&self) -> bool {
        self.first_update_done && self.second_update_done
    }
}

/// The return-to-4G decision after a CSFB call, parameterized by the
/// operator's switch mechanism — the S3 policy split.
///
/// Returns `Some(delay_class)`:
/// * `ReturnsImmediately` — OP-I-style release-with-redirect (disrupts data),
/// * `WaitsForRrcIdle` — OP-II-style cell reselection (waits for the data
///   session to drain; the "stuck in 3G" outcome),
/// * `HandoverNow` — inter-system handover (needs DCH; preserves data).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReturnBehavior {
    /// The device returns within seconds; any data session is disrupted.
    ReturnsImmediately,
    /// The device stays in 3G until RRC reaches IDLE (data session over) —
    /// S3's user-visible symptom.
    WaitsForRrcIdle,
    /// Handover keeps the data session and returns promptly.
    HandoverNow,
}

/// Decide how the return to 4G behaves for the given mechanism.
pub fn return_behavior(mechanism: SwitchMechanism) -> ReturnBehavior {
    match mechanism {
        SwitchMechanism::ReleaseWithRedirect => ReturnBehavior::ReturnsImmediately,
        SwitchMechanism::CellReselection => ReturnBehavior::WaitsForRrcIdle,
        SwitchMechanism::InterSystemHandover => ReturnBehavior::HandoverNow,
    }
}

/// The system a CSFB call is served in (always 3G; here for clarity in
/// scenario code).
pub const CSFB_SERVING_SYSTEM: RatSystem = RatSystem::Utran3g;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_in_order() {
        let mut c = CsfbCall::new(false);
        assert_eq!(c.phase, CsfbPhase::Idle4g);
        c.start();
        assert_eq!(c.phase, CsfbPhase::FallingBack);
        c.arrived_in_3g();
        assert!(c.first_update_before_call());
        c.first_update_completed();
        c.call_connected();
        assert_eq!(c.phase, CsfbPhase::CallActive);
        let deferred_now = c.call_ended();
        assert!(!deferred_now, "update already done");
        c.returning();
        let disrupted = c.arrived_in_4g();
        assert!(!disrupted);
        c.second_update_completed();
        assert!(c.redundant_update_performed());
    }

    #[test]
    fn deferred_update_runs_at_call_end() {
        let mut c = CsfbCall::new(true);
        c.start();
        c.arrived_in_3g();
        assert!(!c.first_update_before_call(), "deferred");
        c.call_connected();
        let must_update_now = c.call_ended();
        assert!(must_update_now, "the deferred LU fires at hangup (S6 OP-I)");
    }

    #[test]
    fn s6_op1_fast_return_disrupts_deferred_update() {
        let mut c = CsfbCall::new(true);
        c.start();
        c.arrived_in_3g();
        c.call_connected();
        c.call_ended();
        c.returning();
        // Return completes before the deferred update does:
        let disrupted = c.arrived_in_4g();
        assert!(disrupted, "incomplete update status propagates to 4G");
    }

    #[test]
    fn return_behavior_split_matches_s3() {
        assert_eq!(
            return_behavior(SwitchMechanism::ReleaseWithRedirect),
            ReturnBehavior::ReturnsImmediately,
            "OP-I"
        );
        assert_eq!(
            return_behavior(SwitchMechanism::CellReselection),
            ReturnBehavior::WaitsForRrcIdle,
            "OP-II — stuck in 3G while data flows"
        );
        assert_eq!(
            return_behavior(SwitchMechanism::InterSystemHandover),
            ReturnBehavior::HandoverNow
        );
    }

    #[test]
    #[should_panic(expected = "one call at a time")]
    fn double_start_panics() {
        let mut c = CsfbCall::new(false);
        c.start();
        c.start();
    }
}
