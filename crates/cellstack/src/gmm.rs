//! GMM — 3G PS Mobility Management (TS 24.008), device and 3G-gateway side.
//!
//! GMM mirrors MM for the PS domain: routing-area updates instead of
//! location-area updates, and SM session requests instead of CM service
//! requests. S4's PS half lives here — "the SM data requests are not
//! immediately processed during the routing area update" (§6.1.2) — but
//! without MM's `WAIT-FOR-NETWORK-COMMAND` chain effect ("GMM does not
//! process RRC related functions, whereas MM has to"), which is why the
//! paper measures a slightly smaller impact on PS.

use serde::{Deserialize, Serialize};

use crate::msg::{NasMessage, UpdateKind};

/// Device-side GMM states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GmmDeviceState {
    /// Not PS-attached.
    Deregistered,
    /// GPRS attach in flight.
    AttachInitiated,
    /// Registered for PS service.
    Registered,
    /// Routing-area update in flight.
    RoutingUpdating,
}

/// Inputs to the device-side GMM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GmmDeviceInput {
    /// Attach to the 3G PS domain.
    AttachTrigger,
    /// A Table 4 trigger fired: start a routing-area update.
    RoutingUpdateTrigger,
    /// SM asks to send a session-management request (activate/modify PDP).
    SmServiceRequest,
    /// A NAS message arrived from the 3G gateways.
    Network(NasMessage),
    /// The GPRS retransmission timer fired (T3310/T3330-class supervision,
    /// driven by the environment's clock).
    RetryTimer,
}

/// Outputs of the device-side GMM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GmmDeviceOutput {
    /// Send a NAS message to the 3G gateways.
    Send(NasMessage),
    /// The SM request was queued behind a routing-area update (PS HOL
    /// blocking — S4's data half).
    SmRequestQueued,
    /// GMM is ready; SM may transmit its request.
    SmRequestReady,
    /// Registration state changed.
    Registered(bool),
    /// The routing-area update completed.
    RoutingUpdateDone,
}

/// Device-side GMM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GmmDevice {
    /// Current state.
    pub state: GmmDeviceState,
    /// An SM request blocked behind the update.
    pub queued_sm_request: bool,
    /// §8 remedy: parallel threads for updates and SM requests.
    pub parallel_remedy: bool,
    /// Requests retransmitted since the procedure started.
    pub retx_attempts: u8,
    /// Bound on retransmissions before the procedure is abandoned.
    pub max_retx_attempts: u8,
}

impl GmmDevice {
    /// A deregistered GMM machine with standard behaviour.
    pub fn new() -> Self {
        Self {
            state: GmmDeviceState::Deregistered,
            queued_sm_request: false,
            parallel_remedy: false,
            retx_attempts: 0,
            max_retx_attempts: crate::timers::MAX_NAS_RETRIES,
        }
    }

    /// Enable the §8 parallel-threads remedy.
    pub fn with_remedy(mut self) -> Self {
        self.parallel_remedy = true;
        self
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: GmmDeviceInput, out: &mut Vec<GmmDeviceOutput>) {
        match input {
            GmmDeviceInput::AttachTrigger => {
                if self.state == GmmDeviceState::Deregistered {
                    self.state = GmmDeviceState::AttachInitiated;
                    self.retx_attempts = 1;
                    out.push(GmmDeviceOutput::Send(NasMessage::AttachRequest {
                        system: crate::types::RatSystem::Utran3g,
                    }));
                }
            }
            GmmDeviceInput::RoutingUpdateTrigger => {
                if self.state == GmmDeviceState::Registered {
                    self.state = GmmDeviceState::RoutingUpdating;
                    self.retx_attempts = 1;
                    out.push(GmmDeviceOutput::Send(NasMessage::UpdateRequest(
                        UpdateKind::RoutingArea,
                    )));
                }
            }
            GmmDeviceInput::RetryTimer => match self.state {
                // Bounded retransmission of the in-flight request; on
                // exhaustion the attach is abandoned (out of PS service)
                // while an abandoned RAU falls back to Registered — the
                // device keeps its old routing area, like a reject.
                GmmDeviceState::AttachInitiated => {
                    if self.retx_attempts < self.max_retx_attempts {
                        self.retx_attempts = self.retx_attempts.saturating_add(1);
                        out.push(GmmDeviceOutput::Send(NasMessage::AttachRequest {
                            system: crate::types::RatSystem::Utran3g,
                        }));
                    } else {
                        self.state = GmmDeviceState::Deregistered;
                        self.retx_attempts = 0;
                        out.push(GmmDeviceOutput::Registered(false));
                    }
                }
                GmmDeviceState::RoutingUpdating => {
                    if self.retx_attempts < self.max_retx_attempts {
                        self.retx_attempts = self.retx_attempts.saturating_add(1);
                        out.push(GmmDeviceOutput::Send(NasMessage::UpdateRequest(
                            UpdateKind::RoutingArea,
                        )));
                    } else {
                        self.state = GmmDeviceState::Registered;
                        self.retx_attempts = 0;
                        if std::mem::take(&mut self.queued_sm_request) {
                            out.push(GmmDeviceOutput::SmRequestReady);
                        }
                    }
                }
                _ => {}
            },
            GmmDeviceInput::SmServiceRequest => match self.state {
                GmmDeviceState::Registered => out.push(GmmDeviceOutput::SmRequestReady),
                GmmDeviceState::RoutingUpdating if self.parallel_remedy => {
                    out.push(GmmDeviceOutput::SmRequestReady);
                }
                _ => {
                    self.queued_sm_request = true;
                    out.push(GmmDeviceOutput::SmRequestQueued);
                }
            },
            GmmDeviceInput::Network(msg) => self.on_network(msg, out),
        }
    }

    fn on_network(&mut self, msg: NasMessage, out: &mut Vec<GmmDeviceOutput>) {
        match (self.state, msg) {
            (GmmDeviceState::AttachInitiated, NasMessage::AttachAccept) => {
                self.state = GmmDeviceState::Registered;
                self.retx_attempts = 0;
                out.push(GmmDeviceOutput::Registered(true));
                if std::mem::take(&mut self.queued_sm_request) {
                    out.push(GmmDeviceOutput::SmRequestReady);
                }
            }
            (GmmDeviceState::AttachInitiated, NasMessage::AttachReject(_)) => {
                self.state = GmmDeviceState::Deregistered;
                self.retx_attempts = 0;
                out.push(GmmDeviceOutput::Registered(false));
            }
            (
                GmmDeviceState::RoutingUpdating,
                NasMessage::UpdateAccept(UpdateKind::RoutingArea),
            ) => {
                // No WAIT-FOR-NETWORK-COMMAND here: GMM returns to service
                // directly (the MM/GMM asymmetry of §6.1.2).
                self.state = GmmDeviceState::Registered;
                self.retx_attempts = 0;
                out.push(GmmDeviceOutput::RoutingUpdateDone);
                if std::mem::take(&mut self.queued_sm_request) {
                    out.push(GmmDeviceOutput::SmRequestReady);
                }
            }
            (
                GmmDeviceState::RoutingUpdating,
                NasMessage::UpdateReject(UpdateKind::RoutingArea, _),
            ) => {
                self.state = GmmDeviceState::Registered;
                self.retx_attempts = 0;
                if std::mem::take(&mut self.queued_sm_request) {
                    out.push(GmmDeviceOutput::SmRequestReady);
                }
            }
            (_, NasMessage::NetworkDetach(_)) => {
                self.state = GmmDeviceState::Deregistered;
                self.queued_sm_request = false;
                self.retx_attempts = 0;
                out.push(GmmDeviceOutput::Registered(false));
            }
            _ => {}
        }
    }
}

impl Default for GmmDevice {
    fn default() -> Self {
        Self::new()
    }
}

/// 3G-gateway-side GMM handling (SGSN role): accepts attaches and
/// routing-area updates.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SgsnGmm {
    /// The device is PS-attached.
    pub attached: bool,
}

impl SgsnGmm {
    /// A gateway that has not seen the device.
    pub fn new() -> Self {
        Self { attached: false }
    }

    /// Feed an uplink NAS message; replies are appended to `out`.
    pub fn on_uplink(&mut self, msg: NasMessage, out: &mut Vec<NasMessage>) {
        match msg {
            NasMessage::AttachRequest { .. } => {
                self.attached = true;
                out.push(NasMessage::AttachAccept);
            }
            NasMessage::UpdateRequest(UpdateKind::RoutingArea) => {
                if self.attached {
                    out.push(NasMessage::UpdateAccept(UpdateKind::RoutingArea));
                } else {
                    out.push(NasMessage::UpdateReject(
                        UpdateKind::RoutingArea,
                        crate::causes::EmmCause::ImplicitlyDetached,
                    ));
                }
            }
            NasMessage::DetachRequest => {
                self.attached = false;
                out.push(NasMessage::DetachAccept);
            }
            _ => {}
        }
    }
}

impl Default for SgsnGmm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut GmmDevice, i: GmmDeviceInput) -> Vec<GmmDeviceOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    fn attach(m: &mut GmmDevice) {
        run(m, GmmDeviceInput::AttachTrigger);
        run(m, GmmDeviceInput::Network(NasMessage::AttachAccept));
        assert_eq!(m.state, GmmDeviceState::Registered);
    }

    #[test]
    fn attach_handshake_registers() {
        let mut m = GmmDevice::new();
        attach(&mut m);
    }

    #[test]
    fn s4_ps_sm_request_blocked_during_rau() {
        let mut m = GmmDevice::new();
        attach(&mut m);
        run(&mut m, GmmDeviceInput::RoutingUpdateTrigger);
        let out = run(&mut m, GmmDeviceInput::SmServiceRequest);
        assert_eq!(out, vec![GmmDeviceOutput::SmRequestQueued]);
        // RAU completes: the queued request is released immediately —
        // no WAIT-FOR-NETWORK-COMMAND (unlike MM).
        let out = run(
            &mut m,
            GmmDeviceInput::Network(NasMessage::UpdateAccept(UpdateKind::RoutingArea)),
        );
        assert!(out.contains(&GmmDeviceOutput::SmRequestReady));
        assert_eq!(m.state, GmmDeviceState::Registered);
    }

    #[test]
    fn remedy_serves_sm_during_rau() {
        let mut m = GmmDevice::new().with_remedy();
        attach(&mut m);
        run(&mut m, GmmDeviceInput::RoutingUpdateTrigger);
        let out = run(&mut m, GmmDeviceInput::SmServiceRequest);
        assert_eq!(out, vec![GmmDeviceOutput::SmRequestReady]);
    }

    #[test]
    fn sm_request_ready_when_registered() {
        let mut m = GmmDevice::new();
        attach(&mut m);
        let out = run(&mut m, GmmDeviceInput::SmServiceRequest);
        assert_eq!(out, vec![GmmDeviceOutput::SmRequestReady]);
    }

    #[test]
    fn network_detach_clears_state() {
        let mut m = GmmDevice::new();
        attach(&mut m);
        let out = run(
            &mut m,
            GmmDeviceInput::Network(NasMessage::NetworkDetach(
                crate::causes::EmmCause::NetworkFailure,
            )),
        );
        assert!(out.contains(&GmmDeviceOutput::Registered(false)));
        assert_eq!(m.state, GmmDeviceState::Deregistered);
    }

    #[test]
    fn rau_reject_unblocks_queue() {
        let mut m = GmmDevice::new();
        attach(&mut m);
        run(&mut m, GmmDeviceInput::RoutingUpdateTrigger);
        run(&mut m, GmmDeviceInput::SmServiceRequest);
        let out = run(
            &mut m,
            GmmDeviceInput::Network(NasMessage::UpdateReject(
                UpdateKind::RoutingArea,
                crate::causes::EmmCause::NetworkFailure,
            )),
        );
        assert!(out.contains(&GmmDeviceOutput::SmRequestReady));
    }

    #[test]
    fn retry_timer_retransmits_attach_then_deregisters() {
        let mut m = GmmDevice::new();
        run(&mut m, GmmDeviceInput::AttachTrigger);
        for _ in 0..4 {
            let out = run(&mut m, GmmDeviceInput::RetryTimer);
            assert!(out.iter().any(|o| matches!(o, GmmDeviceOutput::Send(_))));
        }
        let out = run(&mut m, GmmDeviceInput::RetryTimer);
        assert_eq!(out, vec![GmmDeviceOutput::Registered(false)]);
        assert_eq!(m.state, GmmDeviceState::Deregistered);
    }

    #[test]
    fn retry_timer_abandons_rau_back_to_registered() {
        let mut m = GmmDevice::new();
        attach(&mut m);
        run(&mut m, GmmDeviceInput::RoutingUpdateTrigger);
        run(&mut m, GmmDeviceInput::SmServiceRequest);
        for _ in 0..4 {
            run(&mut m, GmmDeviceInput::RetryTimer);
        }
        let out = run(&mut m, GmmDeviceInput::RetryTimer);
        assert!(out.contains(&GmmDeviceOutput::SmRequestReady));
        assert_eq!(m.state, GmmDeviceState::Registered);
    }

    #[test]
    fn sgsn_accepts_attach_then_rau() {
        let mut s = SgsnGmm::new();
        let mut out = Vec::new();
        s.on_uplink(
            NasMessage::AttachRequest {
                system: crate::types::RatSystem::Utran3g,
            },
            &mut out,
        );
        assert_eq!(out, vec![NasMessage::AttachAccept]);
        out.clear();
        s.on_uplink(NasMessage::UpdateRequest(UpdateKind::RoutingArea), &mut out);
        assert_eq!(out, vec![NasMessage::UpdateAccept(UpdateKind::RoutingArea)]);
    }

    #[test]
    fn sgsn_rejects_rau_when_detached() {
        let mut s = SgsnGmm::new();
        let mut out = Vec::new();
        s.on_uplink(NasMessage::UpdateRequest(UpdateKind::RoutingArea), &mut out);
        assert!(matches!(
            out[0],
            NasMessage::UpdateReject(UpdateKind::RoutingArea, _)
        ));
    }
}
