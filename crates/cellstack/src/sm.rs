//! SM — 3G PS Session Management (TS 24.008): PDP context handling,
//! device and 3G-gateway side.
//!
//! The PDP context is optional in 3G ("a user can still use the CS voice
//! service without the PDP context", §5.1.2) — the very asymmetry with 4G's
//! mandatory EPS bearer that produces S1. Deactivation can be initiated by
//! either side with the Table 3 causes.

use serde::{Deserialize, Serialize};

use crate::causes::PdpDeactivationCause;
use crate::context::{IpAddr, PdpContext, QosProfile};
use crate::msg::NasMessage;
use crate::types::RatSystem;

/// Device-side SM states (per primary PDP context).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmDeviceState {
    /// No PDP context.
    Inactive,
    /// Activation request sent.
    ActivatePending,
    /// PDP context active.
    Active,
    /// Deactivation request sent.
    DeactivatePending,
}

/// Inputs to the device-side SM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmDeviceInput {
    /// Upper layer wants PS data (GMM has confirmed readiness).
    ActivateRequest,
    /// The device tears the context down (mobile data off, Wi-Fi switch,
    /// QoS dissatisfaction, ...).
    DeactivateRequest(PdpDeactivationCause),
    /// A NAS message arrived from the 3G gateways.
    Network(NasMessage),
}

/// Outputs of the device-side SM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SmDeviceOutput {
    /// Send a NAS message to the gateways.
    Send(NasMessage),
    /// The PDP context is now active at the device.
    ContextActivated(PdpContext),
    /// The PDP context was deleted at the device (with its cause — feeds
    /// the S1 analysis).
    ContextDeactivated(PdpDeactivationCause),
}

/// Device-side SM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SmDevice {
    /// Current state.
    pub state: SmDeviceState,
    /// The active PDP context, if any.
    pub context: Option<PdpContext>,
}

impl SmDevice {
    /// An SM machine with no context.
    pub fn new() -> Self {
        Self {
            state: SmDeviceState::Inactive,
            context: None,
        }
    }

    /// The active context, if the state allows using it.
    pub fn active_context(&self) -> Option<PdpContext> {
        self.context.filter(|c| c.is_active())
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: SmDeviceInput, out: &mut Vec<SmDeviceOutput>) {
        match input {
            SmDeviceInput::ActivateRequest => {
                if self.state == SmDeviceState::Inactive {
                    self.state = SmDeviceState::ActivatePending;
                    out.push(SmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                        system: RatSystem::Utran3g,
                    }));
                }
            }
            SmDeviceInput::DeactivateRequest(cause) => {
                if self.state == SmDeviceState::Active {
                    self.state = SmDeviceState::DeactivatePending;
                    out.push(SmDeviceOutput::Send(NasMessage::SessionDeactivate {
                        cause,
                        network_initiated: false,
                    }));
                }
            }
            SmDeviceInput::Network(msg) => self.on_network(msg, out),
        }
    }

    fn on_network(&mut self, msg: NasMessage, out: &mut Vec<SmDeviceOutput>) {
        match (self.state, msg) {
            (SmDeviceState::ActivatePending, NasMessage::SessionActivateAccept) => {
                self.state = SmDeviceState::Active;
                let ctx = PdpContext::active(5, IpAddr(0x0a00_0001), QosProfile::best_effort());
                self.context = Some(ctx);
                out.push(SmDeviceOutput::ContextActivated(ctx));
            }
            (SmDeviceState::ActivatePending, NasMessage::SessionActivateReject) => {
                self.state = SmDeviceState::Inactive;
            }
            (SmDeviceState::DeactivatePending, NasMessage::SessionDeactivateAccept) => {
                self.state = SmDeviceState::Inactive;
                self.context = None;
                // The cause was carried in our own request; for the device
                // report we use RegularDeactivation as the locally-known one.
                out.push(SmDeviceOutput::ContextDeactivated(
                    PdpDeactivationCause::RegularDeactivation,
                ));
            }
            (
                _,
                NasMessage::SessionDeactivate {
                    cause,
                    network_initiated: true,
                },
            ) => {
                // Network-initiated deactivation (Table 3 network causes):
                // accept and delete.
                self.state = SmDeviceState::Inactive;
                self.context = None;
                out.push(SmDeviceOutput::Send(NasMessage::SessionDeactivateAccept));
                out.push(SmDeviceOutput::ContextDeactivated(cause));
            }
            _ => {}
        }
    }

    /// Install a context migrated from 4G (EPS bearer → PDP, §5.1.1).
    pub fn install_migrated(&mut self, ctx: PdpContext) {
        self.context = Some(ctx);
        self.state = SmDeviceState::Active;
    }
}

impl Default for SmDevice {
    fn default() -> Self {
        Self::new()
    }
}

/// Gateway-side SM handling (3G gateways / SGSN-GGSN collapsed).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SgsnSm {
    /// The gateway's copy of the PDP context.
    pub context: Option<PdpContext>,
    /// Reject activations (operator barring / congestion scenarios).
    pub reject_activation: bool,
}

/// Outputs of the gateway-side SM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SgsnSmOutput {
    /// Reply to the device.
    Send(NasMessage),
    /// Context state changed at the gateway (for bookkeeping/traces).
    ContextActive(bool),
}

impl SgsnSm {
    /// A gateway with no context for the device.
    pub fn new() -> Self {
        Self {
            context: None,
            reject_activation: false,
        }
    }

    /// Feed an uplink NAS message; outputs are appended to `out`.
    pub fn on_uplink(&mut self, msg: NasMessage, out: &mut Vec<SgsnSmOutput>) {
        match msg {
            NasMessage::SessionActivateRequest { .. } => {
                if self.reject_activation {
                    out.push(SgsnSmOutput::Send(NasMessage::SessionActivateReject));
                } else {
                    let ctx = PdpContext::active(5, IpAddr(0x0a00_0001), QosProfile::best_effort());
                    self.context = Some(ctx);
                    out.push(SgsnSmOutput::Send(NasMessage::SessionActivateAccept));
                    out.push(SgsnSmOutput::ContextActive(true));
                }
            }
            NasMessage::SessionDeactivate { .. } => {
                self.context = None;
                out.push(SgsnSmOutput::Send(NasMessage::SessionDeactivateAccept));
                out.push(SgsnSmOutput::ContextActive(false));
            }
            _ => {}
        }
    }

    /// Network-initiated deactivation (Table 3 network causes): the message
    /// the gateway sends the device.
    pub fn deactivate(&mut self, cause: PdpDeactivationCause) -> NasMessage {
        self.context = None;
        NasMessage::SessionDeactivate {
            cause,
            network_initiated: true,
        }
    }
}

impl Default for SgsnSm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut SmDevice, i: SmDeviceInput) -> Vec<SmDeviceOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    fn activate(m: &mut SmDevice) {
        run(m, SmDeviceInput::ActivateRequest);
        run(m, SmDeviceInput::Network(NasMessage::SessionActivateAccept));
        assert_eq!(m.state, SmDeviceState::Active);
    }

    #[test]
    fn activation_handshake() {
        let mut m = SmDevice::new();
        let out = run(&mut m, SmDeviceInput::ActivateRequest);
        assert!(matches!(
            out[0],
            SmDeviceOutput::Send(NasMessage::SessionActivateRequest { .. })
        ));
        let out = run(
            &mut m,
            SmDeviceInput::Network(NasMessage::SessionActivateAccept),
        );
        assert!(matches!(out[0], SmDeviceOutput::ContextActivated(_)));
        assert!(m.active_context().is_some());
    }

    #[test]
    fn activation_reject_stays_inactive() {
        let mut m = SmDevice::new();
        run(&mut m, SmDeviceInput::ActivateRequest);
        run(
            &mut m,
            SmDeviceInput::Network(NasMessage::SessionActivateReject),
        );
        assert_eq!(m.state, SmDeviceState::Inactive);
        assert!(m.active_context().is_none());
    }

    #[test]
    fn device_initiated_deactivation() {
        let mut m = SmDevice::new();
        activate(&mut m);
        let out = run(
            &mut m,
            SmDeviceInput::DeactivateRequest(PdpDeactivationCause::QosNotAccepted),
        );
        assert!(matches!(
            out[0],
            SmDeviceOutput::Send(NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::QosNotAccepted,
                network_initiated: false
            })
        ));
        let out = run(
            &mut m,
            SmDeviceInput::Network(NasMessage::SessionDeactivateAccept),
        );
        assert!(matches!(out[0], SmDeviceOutput::ContextDeactivated(_)));
        assert_eq!(m.state, SmDeviceState::Inactive);
    }

    #[test]
    fn network_initiated_deactivation_from_any_state() {
        let mut m = SmDevice::new();
        activate(&mut m);
        let out = run(
            &mut m,
            SmDeviceInput::Network(NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::OperatorDeterminedBarring,
                network_initiated: true,
            }),
        );
        assert!(out.contains(&SmDeviceOutput::Send(NasMessage::SessionDeactivateAccept)));
        assert!(out.contains(&SmDeviceOutput::ContextDeactivated(
            PdpDeactivationCause::OperatorDeterminedBarring
        )));
        assert!(m.active_context().is_none(), "S1 raw material");
    }

    #[test]
    fn migrated_context_installs_active() {
        let mut m = SmDevice::new();
        let ctx = PdpContext::active(7, IpAddr(0x0a00_0009), QosProfile::best_effort());
        m.install_migrated(ctx);
        assert_eq!(m.active_context(), Some(ctx));
    }

    #[test]
    fn sgsn_activation_roundtrip() {
        let mut s = SgsnSm::new();
        let mut out = Vec::new();
        s.on_uplink(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Utran3g,
            },
            &mut out,
        );
        assert!(out.contains(&SgsnSmOutput::Send(NasMessage::SessionActivateAccept)));
        assert!(s.context.is_some());
    }

    #[test]
    fn sgsn_rejects_when_configured() {
        let mut s = SgsnSm::new();
        s.reject_activation = true;
        let mut out = Vec::new();
        s.on_uplink(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Utran3g,
            },
            &mut out,
        );
        assert!(out.contains(&SgsnSmOutput::Send(NasMessage::SessionActivateReject)));
        assert!(s.context.is_none());
    }

    #[test]
    fn sgsn_network_deactivate_builds_message() {
        let mut s = SgsnSm::new();
        let mut out = Vec::new();
        s.on_uplink(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Utran3g,
            },
            &mut out,
        );
        let msg = s.deactivate(PdpDeactivationCause::IncompatiblePdpContext);
        assert!(matches!(
            msg,
            NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::IncompatiblePdpContext,
                network_initiated: true
            }
        ));
        assert!(s.context.is_none());
    }

    #[test]
    fn double_activate_request_is_idempotent() {
        let mut m = SmDevice::new();
        run(&mut m, SmDeviceInput::ActivateRequest);
        let out = run(&mut m, SmDeviceInput::ActivateRequest);
        assert!(out.is_empty(), "second request while pending is swallowed");
    }
}
