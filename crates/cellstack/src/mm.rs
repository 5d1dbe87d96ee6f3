//! MM — 3G CS Mobility Management (TS 24.008), device and MSC side.
//!
//! Home of two findings:
//!
//! * **S4** — MM serves a location-area update with *higher priority* than a
//!   CM service request, so an outgoing call dialed during an update is
//!   head-of-line blocked. After the update MM additionally sits in
//!   `MM WAIT-FOR-NETWORK-COMMAND` processing cross-layer MM/RRC commands,
//!   extending the blocking (the 4.3 s "chain effect" of §6.1.2). The §8
//!   remedy ([`MmDevice::parallel_remedy`]) runs the update and the service
//!   request concurrently — and notes the service request *implicitly*
//!   updates the location anyway.
//! * **S6** — the location updates around a CSFB call: the device-initiated
//!   update after the 4G→3G switch (deferrable until the call ends, per TS
//!   23.272) and the network-initiated one when switching back. Their race
//!   produces the failure the MSC relays to the MME.

use serde::{Deserialize, Serialize};

use crate::causes::MmCause;
use crate::msg::{NasMessage, UpdateKind};

/// Device-side MM states (TS 24.008 §4.1.2.1, reduced).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmDeviceState {
    /// Idle, registered for CS service.
    Idle,
    /// Location-area update in flight (state 3 in the standard).
    LocationUpdating,
    /// Post-update hold: MM processes MM/RRC network commands before
    /// serving anything else (state 9, "MM WAIT-FOR-NET-CMD" — §6.1.2).
    WaitForNetworkCommand,
    /// CM service request sent, waiting for the MSC (state 5).
    WaitForOutgoingConnection,
    /// MM connection established; the call owns the signaling link (state 6).
    ConnectionActive,
}

/// Inputs to the device-side MM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmDeviceInput {
    /// A trigger from Table 4 fired: start a location-area update.
    LocationUpdateTrigger,
    /// CM asks for an MM connection for an outgoing call (the request that
    /// S4 delays).
    CmServiceRequest,
    /// A NAS message arrived from the MSC.
    Network(NasMessage),
    /// The WAIT-FOR-NETWORK-COMMAND hold expired (commands processed).
    NetworkCommandDone,
    /// The call released its MM connection.
    ConnectionRelease,
    /// The location-update retransmission timer fired (T3210-class
    /// supervision, driven by the environment's clock).
    RetryTimer,
}

/// Outputs of the device-side MM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmDeviceOutput {
    /// Send a NAS message to the MSC.
    Send(NasMessage),
    /// The CM service request was queued behind a location update (HOL
    /// blocking observed — S4's measurable symptom).
    ServiceRequestQueued,
    /// MM connection is up; CM may proceed with call setup.
    ConnectionEstablished,
    /// The CM service request was rejected by the MSC.
    ServiceRejected,
    /// The location update failed (raw material for S6).
    LocationUpdateFailed(MmCause),
    /// The location update completed.
    LocationUpdateDone,
}

/// Device-side MM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MmDevice {
    /// Current state.
    pub state: MmDeviceState,
    /// A CM service request waiting behind an update (the HOL queue; the
    /// standard allows at most the one outstanding request per connection).
    pub queued_service_request: bool,
    /// A location update deferred behind an active call (TS 23.272 lets the
    /// CSFB update wait until the call completes).
    pub queued_location_update: bool,
    /// §8 layer-extension remedy: run location updates and service requests
    /// on parallel threads, giving the service request priority (it updates
    /// the location implicitly).
    pub parallel_remedy: bool,
    /// Location-update requests sent since the last outcome.
    pub lu_attempts: u8,
    /// Bound on update retransmissions before the procedure is abandoned.
    pub max_lu_attempts: u8,
}

impl MmDevice {
    /// An idle MM machine with standard (serialized) behaviour.
    pub fn new() -> Self {
        Self {
            state: MmDeviceState::Idle,
            queued_service_request: false,
            queued_location_update: false,
            parallel_remedy: false,
            lu_attempts: 0,
            max_lu_attempts: crate::timers::MAX_NAS_RETRIES,
        }
    }

    /// Enable the §8 parallel-threads remedy.
    pub fn with_remedy(mut self) -> Self {
        self.parallel_remedy = true;
        self
    }

    /// Is an outgoing service request currently blocked?
    pub fn service_blocked(&self) -> bool {
        self.queued_service_request
    }

    fn send_service_request(&mut self, out: &mut Vec<MmDeviceOutput>) {
        self.state = MmDeviceState::WaitForOutgoingConnection;
        out.push(MmDeviceOutput::Send(NasMessage::CmServiceRequest));
    }

    fn start_location_update(&mut self, out: &mut Vec<MmDeviceOutput>) {
        self.state = MmDeviceState::LocationUpdating;
        self.lu_attempts = 1;
        out.push(MmDeviceOutput::Send(NasMessage::UpdateRequest(
            UpdateKind::LocationArea,
        )));
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: MmDeviceInput, out: &mut Vec<MmDeviceOutput>) {
        match input {
            MmDeviceInput::LocationUpdateTrigger => match self.state {
                MmDeviceState::Idle => self.start_location_update(out),
                MmDeviceState::ConnectionActive | MmDeviceState::WaitForOutgoingConnection => {
                    // An active call defers the update (TS 23.272); with the
                    // remedy this is also the "implicit update" path.
                    self.queued_location_update = true;
                }
                _ => {
                    // Already updating / holding: coalesce.
                }
            },
            MmDeviceInput::CmServiceRequest => match self.state {
                MmDeviceState::Idle => self.send_service_request(out),
                MmDeviceState::LocationUpdating | MmDeviceState::WaitForNetworkCommand => {
                    if self.parallel_remedy {
                        // Remedy: the parallel thread serves it immediately.
                        self.send_service_request(out);
                    } else {
                        // S4: blocked behind the location update.
                        self.queued_service_request = true;
                        out.push(MmDeviceOutput::ServiceRequestQueued);
                    }
                }
                _ => {
                    self.queued_service_request = true;
                    out.push(MmDeviceOutput::ServiceRequestQueued);
                }
            },
            MmDeviceInput::NetworkCommandDone => {
                if self.state == MmDeviceState::WaitForNetworkCommand {
                    self.state = MmDeviceState::Idle;
                    if std::mem::take(&mut self.queued_service_request) {
                        self.send_service_request(out);
                    }
                }
            }
            MmDeviceInput::ConnectionRelease => {
                if self.state == MmDeviceState::ConnectionActive {
                    self.state = MmDeviceState::Idle;
                    if std::mem::take(&mut self.queued_location_update) {
                        self.start_location_update(out);
                    } else if std::mem::take(&mut self.queued_service_request) {
                        self.send_service_request(out);
                    }
                }
            }
            MmDeviceInput::RetryTimer => {
                // Bounded retransmission of a lost Location Updating Request;
                // exhaustion abandons the procedure the same way a reject
                // does, so a queued call is eventually served either way.
                if self.state == MmDeviceState::LocationUpdating {
                    if self.lu_attempts < self.max_lu_attempts {
                        self.lu_attempts = self.lu_attempts.saturating_add(1);
                        out.push(MmDeviceOutput::Send(NasMessage::UpdateRequest(
                            UpdateKind::LocationArea,
                        )));
                    } else {
                        self.state = MmDeviceState::Idle;
                        self.lu_attempts = 0;
                        out.push(MmDeviceOutput::LocationUpdateFailed(
                            MmCause::LocationUpdateFailure,
                        ));
                        if std::mem::take(&mut self.queued_service_request) {
                            self.send_service_request(out);
                        }
                    }
                }
            }
            MmDeviceInput::Network(msg) => self.on_network(msg, out),
        }
    }

    fn on_network(&mut self, msg: NasMessage, out: &mut Vec<MmDeviceOutput>) {
        match (self.state, msg) {
            (MmDeviceState::LocationUpdating, NasMessage::UpdateAccept(UpdateKind::LocationArea)) => {
                self.lu_attempts = 0;
                out.push(MmDeviceOutput::LocationUpdateDone);
                if self.parallel_remedy {
                    // Remedy thread model: no post-update hold blocks CM.
                    self.state = MmDeviceState::Idle;
                    if std::mem::take(&mut self.queued_service_request) {
                        self.send_service_request(out);
                    }
                } else {
                    // §6.1.2 chain effect: MM lingers processing network
                    // commands; queued requests stay blocked.
                    self.state = MmDeviceState::WaitForNetworkCommand;
                }
            }
            (
                MmDeviceState::LocationUpdating,
                NasMessage::UpdateReject(UpdateKind::LocationArea, _),
            ) => {
                self.state = MmDeviceState::Idle;
                self.lu_attempts = 0;
                out.push(MmDeviceOutput::LocationUpdateFailed(
                    MmCause::LocationUpdateFailure,
                ));
                if std::mem::take(&mut self.queued_service_request) {
                    self.send_service_request(out);
                }
            }
            (MmDeviceState::WaitForOutgoingConnection, NasMessage::CmServiceAccept) => {
                self.state = MmDeviceState::ConnectionActive;
                out.push(MmDeviceOutput::ConnectionEstablished);
            }
            (MmDeviceState::WaitForOutgoingConnection, NasMessage::CmServiceReject) => {
                self.state = MmDeviceState::Idle;
                out.push(MmDeviceOutput::ServiceRejected);
            }
            (_, NasMessage::Paging)
                // Incoming call: MSC owns the connection establishment; MM
                // just answers. Modeled as an immediate service request.
                if self.state == MmDeviceState::Idle => {
                    self.send_service_request(out);
                }
            _ => {}
        }
    }
}

impl Default for MmDevice {
    fn default() -> Self {
        Self::new()
    }
}

/// MSC-side MM handling for a single device.
///
/// The MSC accepts location updates and CM service requests; for S6 it also
/// models the interaction with a *relayed* update coming from the MME (the
/// network-side update after a CSFB call returns to 4G).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MscMm {
    /// The device has a current location registration.
    pub location_known: bool,
    /// A device-initiated location update is in progress.
    pub update_in_progress: bool,
    /// Serve CM requests during an update? Standards allow rejecting them
    /// (§6.1.1: "delayed, or even rejected based on the standards").
    pub reject_service_during_update: bool,
}

/// Inputs to the MSC-side machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MscInput {
    /// Uplink NAS from the device.
    Uplink(NasMessage),
    /// The device-initiated update was disrupted mid-flight (e.g. the
    /// device switched back to 4G during a CSFB return — OP-I's S6 case).
    UpdateDisrupted,
    /// The MME relays a location update on behalf of the device (the
    /// network-side update after a CSFB call — OP-II's S6 case).
    RelayedUpdateFromMme,
}

/// Outputs of the MSC-side machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MscOutput {
    /// Send a NAS message to the device.
    Send(NasMessage),
    /// Report a location-update failure to the MME (S6's propagation path).
    ReportFailureToMme(MmCause),
    /// The relayed update was accepted (reported back to the MME).
    RelayedUpdateOk,
}

impl MscMm {
    /// An MSC that knows nothing about the device yet.
    pub fn new() -> Self {
        Self {
            location_known: false,
            update_in_progress: false,
            reject_service_during_update: false,
        }
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: MscInput, out: &mut Vec<MscOutput>) {
        match input {
            MscInput::Uplink(NasMessage::UpdateRequest(UpdateKind::LocationArea)) => {
                self.update_in_progress = true;
                // Accept immediately (processing latency is the simulator's
                // business, not the FSM's).
                self.update_in_progress = false;
                self.location_known = true;
                out.push(MscOutput::Send(NasMessage::UpdateAccept(
                    UpdateKind::LocationArea,
                )));
            }
            MscInput::Uplink(NasMessage::CmServiceRequest) => {
                if self.update_in_progress && self.reject_service_during_update {
                    out.push(MscOutput::Send(NasMessage::CmServiceReject));
                } else {
                    // Serving the call also refreshes the location — the
                    // "implicit update" §6.1.1 points out.
                    self.location_known = true;
                    out.push(MscOutput::Send(NasMessage::CmServiceAccept));
                }
            }
            MscInput::Uplink(_) => {}
            MscInput::UpdateDisrupted => {
                // OP-I: the device-initiated update after the CSFB call was
                // cut off by the fast switch back to 4G; the incomplete
                // status propagates to 4G.
                self.update_in_progress = false;
                out.push(MscOutput::ReportFailureToMme(
                    MmCause::LocationUpdateFailure,
                ));
            }
            MscInput::RelayedUpdateFromMme => {
                if self.location_known {
                    // OP-II: the device's own (first) update already
                    // completed; the MSC refuses the second, relayed one.
                    out.push(MscOutput::ReportFailureToMme(MmCause::UpdateSuperseded));
                } else {
                    self.location_known = true;
                    out.push(MscOutput::RelayedUpdateOk);
                }
            }
        }
    }
}

impl Default for MscMm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut MmDevice, i: MmDeviceInput) -> Vec<MmDeviceOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    fn msc(m: &mut MscMm, i: MscInput) -> Vec<MscOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    #[test]
    fn idle_call_request_goes_straight_out() {
        let mut m = MmDevice::new();
        let out = run(&mut m, MmDeviceInput::CmServiceRequest);
        assert!(out.contains(&MmDeviceOutput::Send(NasMessage::CmServiceRequest)));
        assert_eq!(m.state, MmDeviceState::WaitForOutgoingConnection);
    }

    #[test]
    fn s4_call_during_update_is_hol_blocked() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        assert_eq!(m.state, MmDeviceState::LocationUpdating);
        let out = run(&mut m, MmDeviceInput::CmServiceRequest);
        assert_eq!(out, vec![MmDeviceOutput::ServiceRequestQueued]);
        assert!(m.service_blocked());
    }

    #[test]
    fn s4_chain_effect_wait_for_network_command() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        run(&mut m, MmDeviceInput::CmServiceRequest);
        // Update completes — but MM enters WAIT-FOR-NET-CMD and the call is
        // STILL blocked (the extra 4.3 s of §6.1.2).
        let out = run(
            &mut m,
            MmDeviceInput::Network(NasMessage::UpdateAccept(UpdateKind::LocationArea)),
        );
        assert!(out.contains(&MmDeviceOutput::LocationUpdateDone));
        assert_eq!(m.state, MmDeviceState::WaitForNetworkCommand);
        assert!(m.service_blocked());
        // Only after the network commands are processed is the call served.
        let out = run(&mut m, MmDeviceInput::NetworkCommandDone);
        assert!(out.contains(&MmDeviceOutput::Send(NasMessage::CmServiceRequest)));
        assert!(!m.service_blocked());
    }

    #[test]
    fn remedy_serves_call_during_update() {
        let mut m = MmDevice::new().with_remedy();
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        let out = run(&mut m, MmDeviceInput::CmServiceRequest);
        assert!(out.contains(&MmDeviceOutput::Send(NasMessage::CmServiceRequest)));
        assert!(!m.service_blocked());
    }

    #[test]
    fn remedy_skips_wait_for_network_command() {
        let mut m = MmDevice::new().with_remedy();
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        run(
            &mut m,
            MmDeviceInput::Network(NasMessage::UpdateAccept(UpdateKind::LocationArea)),
        );
        assert_eq!(m.state, MmDeviceState::Idle);
    }

    #[test]
    fn update_reject_reports_failure_and_unblocks() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        run(&mut m, MmDeviceInput::CmServiceRequest);
        let out = run(
            &mut m,
            MmDeviceInput::Network(NasMessage::UpdateReject(
                UpdateKind::LocationArea,
                crate::causes::EmmCause::NetworkFailure,
            )),
        );
        assert!(out.contains(&MmDeviceOutput::LocationUpdateFailed(
            MmCause::LocationUpdateFailure
        )));
        assert!(out.contains(&MmDeviceOutput::Send(NasMessage::CmServiceRequest)));
    }

    #[test]
    fn deferred_update_runs_after_call_release() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::CmServiceRequest);
        run(&mut m, MmDeviceInput::Network(NasMessage::CmServiceAccept));
        assert_eq!(m.state, MmDeviceState::ConnectionActive);
        // CSFB-style deferred update during the call.
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        assert!(m.queued_location_update);
        let out = run(&mut m, MmDeviceInput::ConnectionRelease);
        assert!(
            out.contains(&MmDeviceOutput::Send(NasMessage::UpdateRequest(
                UpdateKind::LocationArea
            )))
        );
    }

    #[test]
    fn service_accept_establishes_connection() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::CmServiceRequest);
        let out = run(&mut m, MmDeviceInput::Network(NasMessage::CmServiceAccept));
        assert!(out.contains(&MmDeviceOutput::ConnectionEstablished));
    }

    #[test]
    fn service_reject_returns_to_idle() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::CmServiceRequest);
        let out = run(&mut m, MmDeviceInput::Network(NasMessage::CmServiceReject));
        assert!(out.contains(&MmDeviceOutput::ServiceRejected));
        assert_eq!(m.state, MmDeviceState::Idle);
    }

    #[test]
    fn paging_answers_from_idle() {
        let mut m = MmDevice::new();
        let out = run(&mut m, MmDeviceInput::Network(NasMessage::Paging));
        assert!(out.contains(&MmDeviceOutput::Send(NasMessage::CmServiceRequest)));
    }

    #[test]
    fn retry_timer_retransmits_update_then_gives_up() {
        let mut m = MmDevice::new();
        run(&mut m, MmDeviceInput::LocationUpdateTrigger);
        run(&mut m, MmDeviceInput::CmServiceRequest);
        for _ in 0..4 {
            let out = run(&mut m, MmDeviceInput::RetryTimer);
            assert!(
                out.contains(&MmDeviceOutput::Send(NasMessage::UpdateRequest(
                    UpdateKind::LocationArea
                )))
            );
        }
        // Fifth expiry: procedure abandoned, queued call finally served.
        let out = run(&mut m, MmDeviceInput::RetryTimer);
        assert!(out.contains(&MmDeviceOutput::LocationUpdateFailed(
            MmCause::LocationUpdateFailure
        )));
        assert!(out.contains(&MmDeviceOutput::Send(NasMessage::CmServiceRequest)));
        assert!(!m.service_blocked());
    }

    #[test]
    fn retry_timer_inert_outside_location_updating() {
        let mut m = MmDevice::new();
        assert!(run(&mut m, MmDeviceInput::RetryTimer).is_empty());
    }

    #[test]
    fn msc_accepts_update_and_learns_location() {
        let mut m = MscMm::new();
        let out = msc(
            &mut m,
            MscInput::Uplink(NasMessage::UpdateRequest(UpdateKind::LocationArea)),
        );
        assert!(out.contains(&MscOutput::Send(NasMessage::UpdateAccept(
            UpdateKind::LocationArea
        ))));
        assert!(m.location_known);
    }

    #[test]
    fn msc_service_request_implicitly_updates_location() {
        let mut m = MscMm::new();
        assert!(!m.location_known);
        let out = msc(&mut m, MscInput::Uplink(NasMessage::CmServiceRequest));
        assert!(out.contains(&MscOutput::Send(NasMessage::CmServiceAccept)));
        assert!(m.location_known, "the §6.1.1 implicit update");
    }

    #[test]
    fn s6_op1_disrupted_update_reports_failure() {
        let mut m = MscMm::new();
        let out = msc(&mut m, MscInput::UpdateDisrupted);
        assert_eq!(
            out,
            vec![MscOutput::ReportFailureToMme(
                MmCause::LocationUpdateFailure
            )]
        );
    }

    #[test]
    fn s6_op2_superseded_relayed_update_rejected() {
        let mut m = MscMm::new();
        // First, the device's own update completes.
        msc(
            &mut m,
            MscInput::Uplink(NasMessage::UpdateRequest(UpdateKind::LocationArea)),
        );
        // Then the MME-relayed second update arrives.
        let out = msc(&mut m, MscInput::RelayedUpdateFromMme);
        assert_eq!(
            out,
            vec![MscOutput::ReportFailureToMme(MmCause::UpdateSuperseded)]
        );
    }

    #[test]
    fn relayed_update_ok_when_location_unknown() {
        let mut m = MscMm::new();
        let out = msc(&mut m, MscInput::RelayedUpdateFromMme);
        assert_eq!(out, vec![MscOutput::RelayedUpdateOk]);
        assert!(m.location_known);
    }
}
