//! ESM — 4G EPS Session Management (TS 24.301), device and MME side.
//!
//! In LTE the default EPS bearer is created *with* the attach (EMM carries
//! the PDN connectivity request), so most bearer lifecycle already lives in
//! [`crate::emm`]. ESM here covers the standalone procedures the findings
//! need: re-activating a bearer while registered (the §8 S1 remedy "the
//! device should immediately activate EPS bearer after inter-system 3G→4G
//! switching") and bearer deactivation.

use crate::context::{EpsBearerContext, IpAddr, QosProfile};
use crate::msg::NasMessage;
use crate::types::RatSystem;

/// Device-side ESM states (per default bearer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EsmDeviceState {
    /// No bearer.
    Inactive,
    /// Activation in flight.
    ActivatePending,
    /// Bearer active.
    Active,
}

/// Inputs to the device-side ESM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EsmDeviceInput {
    /// Request a (re)activation of the default bearer (S1 remedy path).
    ActivateRequest,
    /// EMM installed a bearer (attach or context migration).
    BearerInstalled(EpsBearerContext),
    /// EMM deleted the bearer (detach, reject, migration failure).
    BearerRemoved,
    /// A NAS message arrived from the MME.
    Network(NasMessage),
    /// The T3417 activation-supervision timer fired. Only meaningful when
    /// [`EsmDevice::nas_retransmission`] is enabled.
    RetryTimer,
}

/// Outputs of the device-side ESM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum EsmDeviceOutput {
    /// Send a NAS message to the MME.
    Send(NasMessage),
    /// The bearer became usable (PS service available).
    BearerActive(EpsBearerContext),
    /// The bearer is gone (PS service unavailable in 4G ⇒ out of service,
    /// since 4G is PS-only).
    BearerInactive,
    /// Arm the T3417 activation-supervision timer (retransmission mode).
    ArmRetryTimer,
}

/// Device-side ESM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EsmDevice {
    /// Current state.
    pub state: EsmDeviceState,
    /// The bearer context.
    pub bearer: Option<EpsBearerContext>,
    /// Activation requests sent since the last outcome (T3417 expiries).
    pub activate_attempts: u8,
    /// Bound on activation retransmissions before the procedure aborts.
    pub max_activate_attempts: u8,
    /// Model T3417 retransmission of the standalone activation request.
    /// Off by default, matching the bare standards behaviour.
    pub nas_retransmission: bool,
}

impl EsmDevice {
    /// A machine with no bearer.
    pub fn new() -> Self {
        Self {
            state: EsmDeviceState::Inactive,
            bearer: None,
            activate_attempts: 0,
            max_activate_attempts: crate::timers::MAX_NAS_RETRIES,
            nas_retransmission: false,
        }
    }

    /// Enable T3417 retransmission of the activation request.
    pub fn with_retransmission(mut self) -> Self {
        self.nas_retransmission = true;
        self
    }

    /// Is PS service available?
    pub fn service_available(&self) -> bool {
        self.state == EsmDeviceState::Active
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: EsmDeviceInput, out: &mut Vec<EsmDeviceOutput>) {
        match input {
            EsmDeviceInput::ActivateRequest => {
                if self.state == EsmDeviceState::Inactive {
                    self.state = EsmDeviceState::ActivatePending;
                    out.push(EsmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                        system: RatSystem::Lte4g,
                    }));
                    if self.nas_retransmission {
                        self.activate_attempts = 1;
                        out.push(EsmDeviceOutput::ArmRetryTimer);
                    }
                }
            }
            EsmDeviceInput::RetryTimer => {
                // T3417 expiry: bounded retransmission of the activation
                // request, then abort back to Inactive.
                if self.nas_retransmission && self.state == EsmDeviceState::ActivatePending {
                    if self.activate_attempts < self.max_activate_attempts {
                        self.activate_attempts = self.activate_attempts.saturating_add(1);
                        out.push(EsmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                            system: RatSystem::Lte4g,
                        }));
                        out.push(EsmDeviceOutput::ArmRetryTimer);
                    } else {
                        self.activate_attempts = 0;
                        self.state = EsmDeviceState::Inactive;
                        out.push(EsmDeviceOutput::BearerInactive);
                    }
                }
            }
            EsmDeviceInput::BearerInstalled(bearer) => {
                self.state = EsmDeviceState::Active;
                self.bearer = Some(bearer);
                self.activate_attempts = 0;
                out.push(EsmDeviceOutput::BearerActive(bearer));
            }
            EsmDeviceInput::BearerRemoved => {
                self.activate_attempts = 0;
                if self.state != EsmDeviceState::Inactive {
                    self.state = EsmDeviceState::Inactive;
                    self.bearer = None;
                    out.push(EsmDeviceOutput::BearerInactive);
                }
            }
            EsmDeviceInput::Network(msg) => match (self.state, msg) {
                (EsmDeviceState::ActivatePending, NasMessage::SessionActivateAccept) => {
                    let bearer =
                        EpsBearerContext::active(5, IpAddr(0x0a00_0001), QosProfile::best_effort());
                    self.state = EsmDeviceState::Active;
                    self.bearer = Some(bearer);
                    self.activate_attempts = 0;
                    out.push(EsmDeviceOutput::BearerActive(bearer));
                }
                (EsmDeviceState::ActivatePending, NasMessage::SessionActivateReject) => {
                    self.state = EsmDeviceState::Inactive;
                    self.activate_attempts = 0;
                    out.push(EsmDeviceOutput::BearerInactive);
                }
                (
                    _,
                    NasMessage::SessionDeactivate {
                        network_initiated: true,
                        ..
                    },
                ) => {
                    self.state = EsmDeviceState::Inactive;
                    self.bearer = None;
                    out.push(EsmDeviceOutput::Send(NasMessage::SessionDeactivateAccept));
                    out.push(EsmDeviceOutput::BearerInactive);
                }
                _ => {}
            },
        }
    }
}

impl Default for EsmDevice {
    fn default() -> Self {
        Self::new()
    }
}

/// MME-side standalone ESM handling: answers bearer (re)activation requests
/// from registered UEs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MmeEsm {
    /// Accept standalone activations only when the UE is registered; the
    /// EMM layer keeps this in sync.
    pub ue_registered: bool,
}

impl MmeEsm {
    /// An MME-side ESM for an unregistered UE.
    pub fn new() -> Self {
        Self {
            ue_registered: false,
        }
    }

    /// Feed an uplink activation request; replies appended to `out`.
    pub fn on_uplink(&mut self, msg: NasMessage, out: &mut Vec<NasMessage>) {
        if let NasMessage::SessionActivateRequest { .. } = msg {
            if self.ue_registered {
                out.push(NasMessage::SessionActivateAccept);
            } else {
                out.push(NasMessage::SessionActivateReject);
            }
        }
    }
}

impl Default for MmeEsm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut EsmDevice, i: EsmDeviceInput) -> Vec<EsmDeviceOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    #[test]
    fn standalone_activation_roundtrip() {
        let mut m = EsmDevice::new();
        let out = run(&mut m, EsmDeviceInput::ActivateRequest);
        assert!(matches!(
            out[0],
            EsmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                system: RatSystem::Lte4g
            })
        ));
        let out = run(
            &mut m,
            EsmDeviceInput::Network(NasMessage::SessionActivateAccept),
        );
        assert!(matches!(out[0], EsmDeviceOutput::BearerActive(_)));
        assert!(m.service_available());
    }

    #[test]
    fn install_from_emm_activates_directly() {
        let mut m = EsmDevice::new();
        let bearer = EpsBearerContext::active(5, IpAddr(9), QosProfile::best_effort());
        let out = run(&mut m, EsmDeviceInput::BearerInstalled(bearer));
        assert_eq!(out, vec![EsmDeviceOutput::BearerActive(bearer)]);
    }

    #[test]
    fn removal_reports_inactive_once() {
        let mut m = EsmDevice::new();
        let bearer = EpsBearerContext::active(5, IpAddr(9), QosProfile::best_effort());
        run(&mut m, EsmDeviceInput::BearerInstalled(bearer));
        let out = run(&mut m, EsmDeviceInput::BearerRemoved);
        assert_eq!(out, vec![EsmDeviceOutput::BearerInactive]);
        let out = run(&mut m, EsmDeviceInput::BearerRemoved);
        assert!(out.is_empty());
    }

    #[test]
    fn network_deactivation_acked() {
        let mut m = EsmDevice::new();
        let bearer = EpsBearerContext::active(5, IpAddr(9), QosProfile::best_effort());
        run(&mut m, EsmDeviceInput::BearerInstalled(bearer));
        let out = run(
            &mut m,
            EsmDeviceInput::Network(NasMessage::SessionDeactivate {
                cause: crate::causes::PdpDeactivationCause::RegularDeactivation,
                network_initiated: true,
            }),
        );
        assert!(out.contains(&EsmDeviceOutput::Send(NasMessage::SessionDeactivateAccept)));
        assert!(!m.service_available());
    }

    #[test]
    fn mme_esm_gates_on_registration() {
        let mut esm = MmeEsm::new();
        let mut out = Vec::new();
        esm.on_uplink(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Lte4g,
            },
            &mut out,
        );
        assert_eq!(out, vec![NasMessage::SessionActivateReject]);
        out.clear();
        esm.ue_registered = true;
        esm.on_uplink(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Lte4g,
            },
            &mut out,
        );
        assert_eq!(out, vec![NasMessage::SessionActivateAccept]);
    }

    #[test]
    fn t3417_retransmits_activation_then_aborts() {
        let mut m = EsmDevice::new().with_retransmission();
        let out = run(&mut m, EsmDeviceInput::ActivateRequest);
        assert!(out.contains(&EsmDeviceOutput::ArmRetryTimer));
        for _ in 0..4 {
            let out = run(&mut m, EsmDeviceInput::RetryTimer);
            assert!(
                out.contains(&EsmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                    system: RatSystem::Lte4g
                }))
            );
        }
        let out = run(&mut m, EsmDeviceInput::RetryTimer);
        assert_eq!(out, vec![EsmDeviceOutput::BearerInactive]);
        assert_eq!(m.state, EsmDeviceState::Inactive);
        // Inert once the procedure is over.
        assert!(run(&mut m, EsmDeviceInput::RetryTimer).is_empty());
    }

    #[test]
    fn retry_timer_inert_without_the_flag() {
        let mut m = EsmDevice::new();
        run(&mut m, EsmDeviceInput::ActivateRequest);
        assert!(run(&mut m, EsmDeviceInput::RetryTimer).is_empty());
        assert_eq!(m.state, EsmDeviceState::ActivatePending);
    }

    #[test]
    fn activation_reject_reports_inactive() {
        let mut m = EsmDevice::new();
        run(&mut m, EsmDeviceInput::ActivateRequest);
        let out = run(
            &mut m,
            EsmDeviceInput::Network(NasMessage::SessionActivateReject),
        );
        assert_eq!(out, vec![EsmDeviceOutput::BearerInactive]);
    }
}
