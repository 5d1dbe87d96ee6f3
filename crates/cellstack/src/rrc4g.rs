//! The 4G LTE RRC state machine (TS 36.331) — device side.
//!
//! LTE RRC has two states, `IDLE` and `CONNECTED`; "4G supports three modes
//! of continuous reception, short and long discontinuous reception" (§2)
//! inside `CONNECTED`. The machine also models the reception of a release
//! with redirect and the handover command — the Figure 3 flow that starts a
//! 4G→3G switch.

use crate::types::RatSystem;

/// Reception mode inside `CONNECTED`, stepping down with inactivity for
/// energy efficiency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DrxMode {
    /// Continuous reception — fully active.
    Continuous,
    /// Short DRX cycle.
    ShortDrx,
    /// Long DRX cycle — one step above IDLE.
    LongDrx,
}

/// 4G RRC states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rrc4gState {
    /// No RRC connection.
    Idle,
    /// RRC connection established, in the given reception mode.
    Connected(DrxMode),
}

impl Rrc4gState {
    /// Is an RRC connection established?
    pub fn is_connected(self) -> bool {
        matches!(self, Rrc4gState::Connected(_))
    }
}

/// Inputs to the 4G RRC machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rrc4gEvent {
    /// Uplink/downlink activity (data or signaling) needs the connection.
    Activity,
    /// DRX inactivity timer fired (Continuous→Short→Long→Idle).
    InactivityTimeout,
    /// BS releases the connection, optionally redirecting to 3G — the
    /// "RRC connection release with redirect" switch of Figure 3.
    ConnectionRelease {
        /// Redirect target carried in the release, if any.
        redirect_to: Option<RatSystem>,
    },
    /// BS commands an inter-system handover.
    HandoverCommand {
        /// Handover target.
        target: RatSystem,
    },
}

/// Side effects of the 4G RRC machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rrc4gOutput {
    /// Connection established.
    ConnectionEstablished,
    /// Connection released; if a redirect was carried, the device should
    /// reselect to the target system and inform MM/GMM (+EMM) — step 2 of
    /// Figure 3.
    ConnectionReleased {
        /// Redirect target, if the release carried one.
        redirect_to: Option<RatSystem>,
    },
    /// Inter-system handover must be executed towards the target.
    ExecuteHandover(RatSystem),
    /// The state changed (for traces).
    StateChanged(Rrc4gState, Rrc4gState),
}

/// Device-side 4G RRC machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Rrc4g {
    /// Current state.
    pub state: Rrc4gState,
}

impl Default for Rrc4g {
    fn default() -> Self {
        Self::new()
    }
}

impl Rrc4g {
    /// A machine in `IDLE`.
    pub fn new() -> Self {
        Self {
            state: Rrc4gState::Idle,
        }
    }

    /// Feed an event; outputs are appended to `out`.
    pub fn on_event(&mut self, event: Rrc4gEvent, out: &mut Vec<Rrc4gOutput>) {
        let old = self.state;
        match event {
            Rrc4gEvent::Activity => {
                self.state = Rrc4gState::Connected(DrxMode::Continuous);
            }
            Rrc4gEvent::InactivityTimeout => {
                self.state = match self.state {
                    Rrc4gState::Connected(DrxMode::Continuous) => {
                        Rrc4gState::Connected(DrxMode::ShortDrx)
                    }
                    Rrc4gState::Connected(DrxMode::ShortDrx) => {
                        Rrc4gState::Connected(DrxMode::LongDrx)
                    }
                    Rrc4gState::Connected(DrxMode::LongDrx) => Rrc4gState::Idle,
                    Rrc4gState::Idle => Rrc4gState::Idle,
                };
            }
            Rrc4gEvent::ConnectionRelease { redirect_to } => {
                self.state = Rrc4gState::Idle;
                out.push(Rrc4gOutput::ConnectionReleased { redirect_to });
            }
            Rrc4gEvent::HandoverCommand { target } => {
                self.state = Rrc4gState::Idle;
                out.push(Rrc4gOutput::ExecuteHandover(target));
            }
        }
        if old == Rrc4gState::Idle && self.state.is_connected() {
            out.push(Rrc4gOutput::ConnectionEstablished);
        }
        if old != self.state {
            out.push(Rrc4gOutput::StateChanged(old, self.state));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut Rrc4g, ev: Rrc4gEvent) -> Vec<Rrc4gOutput> {
        let mut out = Vec::new();
        m.on_event(ev, &mut out);
        out
    }

    #[test]
    fn activity_connects_continuous() {
        let mut m = Rrc4g::new();
        let out = run(&mut m, Rrc4gEvent::Activity);
        assert_eq!(m.state, Rrc4gState::Connected(DrxMode::Continuous));
        assert!(out.contains(&Rrc4gOutput::ConnectionEstablished));
    }

    #[test]
    fn drx_steps_down_three_modes_then_idle() {
        let mut m = Rrc4g::new();
        run(&mut m, Rrc4gEvent::Activity);
        run(&mut m, Rrc4gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc4gState::Connected(DrxMode::ShortDrx));
        run(&mut m, Rrc4gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc4gState::Connected(DrxMode::LongDrx));
        run(&mut m, Rrc4gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc4gState::Idle);
    }

    #[test]
    fn activity_resets_drx_to_continuous() {
        let mut m = Rrc4g::new();
        run(&mut m, Rrc4gEvent::Activity);
        run(&mut m, Rrc4gEvent::InactivityTimeout);
        run(&mut m, Rrc4gEvent::Activity);
        assert_eq!(m.state, Rrc4gState::Connected(DrxMode::Continuous));
    }

    #[test]
    fn release_with_redirect_reports_target() {
        let mut m = Rrc4g::new();
        run(&mut m, Rrc4gEvent::Activity);
        let out = run(
            &mut m,
            Rrc4gEvent::ConnectionRelease {
                redirect_to: Some(RatSystem::Utran3g),
            },
        );
        assert_eq!(m.state, Rrc4gState::Idle);
        assert!(out.contains(&Rrc4gOutput::ConnectionReleased {
            redirect_to: Some(RatSystem::Utran3g)
        }));
    }

    #[test]
    fn handover_command_reports_target() {
        let mut m = Rrc4g::new();
        run(&mut m, Rrc4gEvent::Activity);
        let out = run(
            &mut m,
            Rrc4gEvent::HandoverCommand {
                target: RatSystem::Utran3g,
            },
        );
        assert!(out.contains(&Rrc4gOutput::ExecuteHandover(RatSystem::Utran3g)));
    }

    #[test]
    fn idle_inactivity_is_noop() {
        let mut m = Rrc4g::new();
        let out = run(&mut m, Rrc4gEvent::InactivityTimeout);
        assert_eq!(m.state, Rrc4gState::Idle);
        assert!(out.is_empty());
    }
}
