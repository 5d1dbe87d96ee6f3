//! The 3G RRC state machine (TS 25.331) — device side.
//!
//! 3G RRC keeps one state for the *aggregate* of CS and PS traffic: `IDLE`,
//! `CELL_FACH` (low-rate shared channel) and `CELL_DCH` (dedicated, high
//! rate). Two findings live here:
//!
//! * **S3** — the inter-system switch options of Figure 6(a) are gated on
//!   the RRC state: "cell reselection" requires `IDLE`, the handover
//!   requires `DCH`, "release with redirect" requires a connection to
//!   release. Because the state is shared across domains, an ongoing
//!   high-rate PS session holds the state at `DCH` after a CSFB call ends,
//!   and a carrier that only uses cell reselection (OP-II) strands the user
//!   in 3G.
//! * **S5** — the shared channel is configured with a *single* modulation
//!   scheme for both domains; when a CS call is active carriers disable
//!   64QAM so voice gets a robust scheme, collapsing PS throughput.

use crate::msg::SwitchMechanism;

/// 3G RRC states (paper Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rrc3gState {
    /// No RRC connection.
    Idle,
    /// Connected on the forward access (shared) channel: low rate, low power.
    CellFach,
    /// Connected on a dedicated channel: high rate, high power.
    CellDch,
}

impl Rrc3gState {
    /// Is an RRC connection established?
    pub fn is_connected(self) -> bool {
        self != Rrc3gState::Idle
    }
}

/// Modulation schemes selectable on the 3G downlink shared channel.
/// Rates follow HSPA: 64QAM ≈ 21 Mbps theoretical downlink, 16QAM ≈ 11 Mbps
/// (the figures quoted in §6.2 around Figure 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Modulation {
    /// Most robust, lowest rate.
    Qpsk,
    /// Robust, mid rate — what CS voice prefers.
    Qam16,
    /// Highest rate — what PS data prefers.
    Qam64,
}

impl Modulation {
    /// Theoretical peak downlink rate in kbit/s on a 5 MHz HSPA carrier.
    pub fn peak_dl_kbps(self) -> u32 {
        match self {
            Modulation::Qpsk => 3_600,
            Modulation::Qam16 => 11_000,
            Modulation::Qam64 => 21_000,
        }
    }

    /// Theoretical peak uplink rate in kbit/s (HSUPA; 16QAM ceiling).
    pub fn peak_ul_kbps(self) -> u32 {
        match self {
            Modulation::Qpsk => 2_000,
            Modulation::Qam16 => 5_760,
            Modulation::Qam64 => 5_760,
        }
    }
}

/// Inputs to the 3G RRC state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rrc3gEvent {
    /// A CS call starts (CSFB arrival or MO/MT call). Voice always takes a
    /// dedicated channel: forces `CELL_DCH`.
    CsCallStart,
    /// The CS call ended.
    CsCallEnd,
    /// PS traffic started; `high_rate` selects DCH over FACH.
    PsTrafficStart {
        /// True when the session needs a dedicated channel (DCH).
        high_rate: bool,
    },
    /// PS traffic stopped (session idle or deactivated).
    PsTrafficStop,
    /// Signaling-only activity (e.g. a location update) needs a connection.
    SignalingActivity,
    /// The FACH→IDLE / DCH→FACH inactivity timer fired.
    InactivityTimeout,
    /// BS ordered a connection release (optionally with redirect — handled
    /// by the caller; RRC just drops to IDLE).
    ConnectionRelease,
}

/// Side effects the 3G RRC machine asks its environment to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rrc3gOutput {
    /// A new RRC connection was established.
    ConnectionEstablished,
    /// The RRC connection was torn down.
    ConnectionReleased,
    /// The state changed (old, new) — drives trace collection.
    StateChanged(Rrc3gState, Rrc3gState),
}

/// Device-side 3G RRC machine with the domain flags that couple CS and PS.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Rrc3g {
    /// Current RRC state.
    pub state: Rrc3gState,
    /// A CS call is using the connection.
    pub cs_active: bool,
    /// A PS data session is using the connection.
    pub ps_active: bool,
    /// The PS session is high-rate (requires DCH).
    pub ps_high_rate: bool,
}

impl Default for Rrc3g {
    fn default() -> Self {
        Self::new()
    }
}

impl Rrc3g {
    /// A machine in `IDLE` with no active domains.
    pub fn new() -> Self {
        Self {
            state: Rrc3gState::Idle,
            cs_active: false,
            ps_active: false,
            ps_high_rate: false,
        }
    }

    /// The state the aggregate demand wants.
    fn demanded_state(&self) -> Rrc3gState {
        if self.cs_active || (self.ps_active && self.ps_high_rate) {
            Rrc3gState::CellDch
        } else if self.ps_active {
            Rrc3gState::CellFach
        } else {
            // No demand: stay where we are until the inactivity timer
            // steps the state down.
            self.state
        }
    }

    /// Feed an event; outputs are appended to `out`.
    pub fn on_event(&mut self, event: Rrc3gEvent, out: &mut Vec<Rrc3gOutput>) {
        let old = self.state;
        match event {
            Rrc3gEvent::CsCallStart => {
                self.cs_active = true;
                self.state = Rrc3gState::CellDch;
            }
            Rrc3gEvent::CsCallEnd => {
                self.cs_active = false;
                // The state does NOT step down while PS demand remains —
                // the S3 coupling: "when the CSFB call completes, RRC
                // remains at the DCH state since the high-rate data is
                // still ongoing".
                self.state = self.demanded_state();
                if !self.state.is_connected() && old.is_connected() {
                    // No demand at all: connection is still held until the
                    // inactivity timer; keep FACH.
                    self.state = Rrc3gState::CellFach;
                }
            }
            Rrc3gEvent::PsTrafficStart { high_rate } => {
                self.ps_active = true;
                self.ps_high_rate = high_rate;
                self.state = self.demanded_state();
            }
            Rrc3gEvent::PsTrafficStop => {
                self.ps_active = false;
                self.ps_high_rate = false;
                if self.cs_active {
                    self.state = Rrc3gState::CellDch;
                } else if old.is_connected() {
                    // Hold FACH until the inactivity timer releases.
                    self.state = Rrc3gState::CellFach;
                }
            }
            Rrc3gEvent::SignalingActivity => {
                if self.state == Rrc3gState::Idle {
                    self.state = Rrc3gState::CellFach;
                }
            }
            Rrc3gEvent::InactivityTimeout => {
                // An inactivity timeout means the session went quiet; the
                // state steps down one level. A PDP context may stay active
                // while RRC is IDLE — contexts and radio states are
                // independent in 3G. (Ongoing traffic is modeled by the
                // environment *not* firing this timer.)
                if !(self.cs_active || (self.ps_active && self.ps_high_rate)) {
                    self.state = match self.state {
                        Rrc3gState::CellDch => Rrc3gState::CellFach,
                        Rrc3gState::CellFach => Rrc3gState::Idle,
                        Rrc3gState::Idle => Rrc3gState::Idle,
                    };
                }
            }
            Rrc3gEvent::ConnectionRelease => {
                self.state = Rrc3gState::Idle;
                self.cs_active = false;
            }
        }

        if old == Rrc3gState::Idle && self.state.is_connected() {
            out.push(Rrc3gOutput::ConnectionEstablished);
        }
        if old.is_connected() && self.state == Rrc3gState::Idle {
            out.push(Rrc3gOutput::ConnectionReleased);
        }
        if old != self.state {
            out.push(Rrc3gOutput::StateChanged(old, self.state));
        }
    }

    /// Can an inter-system switch via `mechanism` proceed from the current
    /// RRC state (Figure 6a)? This gate is the S3 deadlock: with an ongoing
    /// high-rate PS session the state is `CELL_DCH`, so a carrier using only
    /// `CellReselection` can never switch the user back to 4G.
    pub fn switch_allowed(&self, mechanism: SwitchMechanism) -> bool {
        match mechanism {
            SwitchMechanism::ReleaseWithRedirect => self.state.is_connected(),
            SwitchMechanism::InterSystemHandover => self.state == Rrc3gState::CellDch,
            SwitchMechanism::CellReselection => self.state == Rrc3gState::Idle,
        }
    }

    /// The modulation scheme the shared channel is configured with.
    ///
    /// With the default *coupled* policy (carriers' practice, §6.2) a single
    /// scheme serves both domains, so an active CS call disables 64QAM.
    /// With the `decoupled` remedy (§8 "domain decoupling") PS keeps its own
    /// channel and scheme.
    pub fn shared_channel_modulation(&self, decoupled: bool) -> Modulation {
        if self.cs_active && !decoupled {
            Modulation::Qam16
        } else {
            Modulation::Qam64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut Rrc3g, ev: Rrc3gEvent) -> Vec<Rrc3gOutput> {
        let mut out = Vec::new();
        m.on_event(ev, &mut out);
        out
    }

    #[test]
    fn starts_idle() {
        let m = Rrc3g::new();
        assert_eq!(m.state, Rrc3gState::Idle);
        assert!(!m.state.is_connected());
    }

    #[test]
    fn cs_call_forces_dch() {
        let mut m = Rrc3g::new();
        let out = run(&mut m, Rrc3gEvent::CsCallStart);
        assert_eq!(m.state, Rrc3gState::CellDch);
        assert!(out.contains(&Rrc3gOutput::ConnectionEstablished));
    }

    #[test]
    fn low_rate_ps_uses_fach_high_rate_uses_dch() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: false });
        assert_eq!(m.state, Rrc3gState::CellFach);
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        assert_eq!(m.state, Rrc3gState::CellDch);
    }

    #[test]
    fn s3_coupling_call_end_keeps_dch_under_high_rate_data() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        run(&mut m, Rrc3gEvent::CsCallStart);
        run(&mut m, Rrc3gEvent::CsCallEnd);
        assert_eq!(
            m.state,
            Rrc3gState::CellDch,
            "RRC must remain at DCH while high-rate data is ongoing (S3)"
        );
        // ... so reselection-based return to 4G is impossible:
        assert!(!m.switch_allowed(SwitchMechanism::CellReselection));
        // ... while the other mechanisms could proceed:
        assert!(m.switch_allowed(SwitchMechanism::ReleaseWithRedirect));
        assert!(m.switch_allowed(SwitchMechanism::InterSystemHandover));
    }

    #[test]
    fn low_rate_data_after_call_steps_down_to_fach() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: false });
        run(&mut m, Rrc3gEvent::CsCallStart);
        run(&mut m, Rrc3gEvent::CsCallEnd);
        assert_eq!(m.state, Rrc3gState::CellFach);
        assert!(!m.switch_allowed(SwitchMechanism::CellReselection));
    }

    #[test]
    fn inactivity_steps_down_dch_fach_idle() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        run(&mut m, Rrc3gEvent::PsTrafficStop);
        assert_eq!(m.state, Rrc3gState::CellFach);
        run(&mut m, Rrc3gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc3gState::Idle);
        assert!(m.switch_allowed(SwitchMechanism::CellReselection));
    }

    #[test]
    fn inactivity_does_not_preempt_cs_call() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::CsCallStart);
        run(&mut m, Rrc3gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc3gState::CellDch);
    }

    #[test]
    fn quiet_ps_session_steps_down_to_idle() {
        // A PDP context stays active while RRC idles — contexts and radio
        // states are independent in 3G.
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: false });
        run(&mut m, Rrc3gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc3gState::Idle);
        assert!(m.ps_active, "the session itself is still active");
    }

    #[test]
    fn quiet_high_rate_session_keeps_dch_until_traffic_stops() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        run(&mut m, Rrc3gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc3gState::CellDch);
    }

    #[test]
    fn release_returns_to_idle_and_reports() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        let out = run(&mut m, Rrc3gEvent::ConnectionRelease);
        assert_eq!(m.state, Rrc3gState::Idle);
        assert!(out.contains(&Rrc3gOutput::ConnectionReleased));
    }

    #[test]
    fn signaling_from_idle_enters_fach() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::SignalingActivity);
        assert_eq!(m.state, Rrc3gState::CellFach);
    }

    #[test]
    fn handover_requires_dch() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: false });
        assert!(!m.switch_allowed(SwitchMechanism::InterSystemHandover));
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        assert!(m.switch_allowed(SwitchMechanism::InterSystemHandover));
    }

    #[test]
    fn s5_modulation_downgrade_during_cs_call() {
        let mut m = Rrc3g::new();
        run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        assert_eq!(m.shared_channel_modulation(false), Modulation::Qam64);
        run(&mut m, Rrc3gEvent::CsCallStart);
        assert_eq!(
            m.shared_channel_modulation(false),
            Modulation::Qam16,
            "coupled policy disables 64QAM during the call (Figure 10)"
        );
        assert_eq!(
            m.shared_channel_modulation(true),
            Modulation::Qam64,
            "the decoupling remedy keeps 64QAM for PS"
        );
        run(&mut m, Rrc3gEvent::CsCallEnd);
        assert_eq!(m.shared_channel_modulation(false), Modulation::Qam64);
    }

    #[test]
    fn modulation_rates_match_hspa_figures() {
        assert_eq!(Modulation::Qam64.peak_dl_kbps(), 21_000);
        assert_eq!(Modulation::Qam16.peak_dl_kbps(), 11_000);
        assert!(Modulation::Qpsk.peak_dl_kbps() < Modulation::Qam16.peak_dl_kbps());
    }

    #[test]
    fn state_change_outputs_reported() {
        let mut m = Rrc3g::new();
        let out = run(&mut m, Rrc3gEvent::PsTrafficStart { high_rate: true });
        assert!(out.iter().any(|o| matches!(
            o,
            Rrc3gOutput::StateChanged(Rrc3gState::Idle, Rrc3gState::CellDch)
        )));
    }
}
