//! CM/CC — 3G CS Call Control (TS 24.008), device side, plus the MSC's
//! call handling.
//!
//! CC rides on an MM connection: an outgoing call first asks MM for a
//! signaling connection (`CM Service Request`), then runs the
//! Setup → Proceeding → Alerting → Connect exchange. The S4 delay is
//! *upstream* of CC (in MM), but CC's timestamps are where the paper
//! measures it (Figure 7's call setup time).

use serde::{Deserialize, Serialize};

use crate::msg::NasMessage;

/// Device-side call-control states (TS 24.008 §5.1, reduced).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CcState {
    /// No call.
    Null,
    /// Waiting for MM to establish the signaling connection.
    MmConnectionPending,
    /// Setup sent; waiting for the network.
    CallInitiated,
    /// Network is routing the call.
    Proceeding,
    /// Callee is ringing.
    Alerting,
    /// Voice path open.
    Active,
    /// Disconnect in flight.
    Releasing,
    /// A mobile-terminated call was offered (network SETUP received);
    /// the phone is ringing, waiting for the user to answer.
    CallPresent,
}

/// Inputs to the device-side CC machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CcInput {
    /// User dials an outgoing call.
    Dial,
    /// MM reports the signaling connection is up.
    MmConnectionEstablished,
    /// MM reports the service request was rejected.
    MmConnectionFailed,
    /// User hangs up.
    Hangup,
    /// User answers a ringing mobile-terminated call.
    Answer,
    /// A NAS (CC) message arrived from the MSC.
    Network(NasMessage),
}

/// Outputs of the device-side CC machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CcOutput {
    /// Ask MM for a signaling connection (this is what S4 delays).
    RequestMmConnection,
    /// Send a CC message to the MSC.
    Send(NasMessage),
    /// The call is connected (setup complete — Figure 7's endpoint).
    CallConnected,
    /// The call ended.
    CallReleased,
    /// The call failed before connecting.
    CallFailed,
    /// A mobile-terminated call is ringing (drives the auto-answer tool).
    IncomingCallRinging,
}

/// Device-side CC machine for a single call.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CcDevice {
    /// Current state.
    pub state: CcState,
}

impl CcDevice {
    /// A machine with no call.
    pub fn new() -> Self {
        Self {
            state: CcState::Null,
        }
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: CcInput, out: &mut Vec<CcOutput>) {
        match input {
            CcInput::Dial => {
                if self.state == CcState::Null {
                    self.state = CcState::MmConnectionPending;
                    out.push(CcOutput::RequestMmConnection);
                }
            }
            CcInput::MmConnectionEstablished => {
                if self.state == CcState::MmConnectionPending {
                    self.state = CcState::CallInitiated;
                    out.push(CcOutput::Send(NasMessage::CallSetup));
                }
            }
            CcInput::MmConnectionFailed => {
                if self.state == CcState::MmConnectionPending {
                    self.state = CcState::Null;
                    out.push(CcOutput::CallFailed);
                }
            }
            CcInput::Hangup => match self.state {
                CcState::Null | CcState::Releasing => {}
                _ => {
                    self.state = CcState::Releasing;
                    out.push(CcOutput::Send(NasMessage::CallDisconnect));
                }
            },
            CcInput::Answer => {
                if self.state == CcState::CallPresent {
                    self.state = CcState::Active;
                    out.push(CcOutput::Send(NasMessage::CallConnect));
                    out.push(CcOutput::CallConnected);
                }
            }
            CcInput::Network(msg) => self.on_network(msg, out),
        }
    }

    fn on_network(&mut self, msg: NasMessage, out: &mut Vec<CcOutput>) {
        match (self.state, msg) {
            (CcState::CallInitiated, NasMessage::CallProceeding) => {
                self.state = CcState::Proceeding;
            }
            (CcState::CallInitiated | CcState::Proceeding, NasMessage::CallAlerting) => {
                self.state = CcState::Alerting;
            }
            (
                CcState::CallInitiated | CcState::Proceeding | CcState::Alerting,
                NasMessage::CallConnect,
            ) => {
                self.state = CcState::Active;
                out.push(CcOutput::CallConnected);
            }
            (CcState::Releasing, NasMessage::CallDisconnect) => {
                self.state = CcState::Null;
                out.push(CcOutput::CallReleased);
            }
            (_, NasMessage::CallDisconnect) => {
                // Remote hang-up in any call state.
                self.state = CcState::Null;
                out.push(CcOutput::CallReleased);
            }
            (CcState::Null, NasMessage::CallSetup) => {
                // Mobile-terminated call offered after paging: ring and
                // tell the network we are alerting.
                self.state = CcState::CallPresent;
                out.push(CcOutput::Send(NasMessage::CallAlerting));
                out.push(CcOutput::IncomingCallRinging);
            }
            _ => {}
        }
    }
}

impl Default for CcDevice {
    fn default() -> Self {
        Self::new()
    }
}

/// MSC-side call handling: answers Setup with the full progress sequence.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MscCc {
    /// A call is established for the device.
    pub call_active: bool,
}

impl MscCc {
    /// An MSC with no call for this device.
    pub fn new() -> Self {
        Self { call_active: false }
    }

    /// Feed an uplink CC message; replies are appended to `out`.
    pub fn on_uplink(&mut self, msg: NasMessage, out: &mut Vec<NasMessage>) {
        match msg {
            NasMessage::CallSetup => {
                self.call_active = true;
                out.push(NasMessage::CallProceeding);
                out.push(NasMessage::CallAlerting);
                out.push(NasMessage::CallConnect);
            }
            NasMessage::CallConnect => {
                // The device answered a mobile-terminated call.
                self.call_active = true;
            }
            NasMessage::CallDisconnect => {
                self.call_active = false;
                out.push(NasMessage::CallDisconnect);
            }
            _ => {}
        }
    }

    /// Originate a mobile-terminated call: the messages the MSC sends the
    /// device after it answers the page (CS paging, then the SETUP).
    pub fn originate_mt_call(&self) -> Vec<NasMessage> {
        vec![NasMessage::Paging, NasMessage::CallSetup]
    }
}

impl Default for MscCc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: &mut CcDevice, i: CcInput) -> Vec<CcOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    #[test]
    fn dial_requests_mm_connection_first() {
        let mut m = CcDevice::new();
        let out = run(&mut m, CcInput::Dial);
        assert_eq!(out, vec![CcOutput::RequestMmConnection]);
        assert_eq!(m.state, CcState::MmConnectionPending);
    }

    #[test]
    fn full_outgoing_call_flow() {
        let mut m = CcDevice::new();
        run(&mut m, CcInput::Dial);
        let out = run(&mut m, CcInput::MmConnectionEstablished);
        assert!(out.contains(&CcOutput::Send(NasMessage::CallSetup)));
        run(&mut m, CcInput::Network(NasMessage::CallProceeding));
        assert_eq!(m.state, CcState::Proceeding);
        run(&mut m, CcInput::Network(NasMessage::CallAlerting));
        assert_eq!(m.state, CcState::Alerting);
        let out = run(&mut m, CcInput::Network(NasMessage::CallConnect));
        assert!(out.contains(&CcOutput::CallConnected));
        assert_eq!(m.state, CcState::Active);
    }

    #[test]
    fn hangup_handshake_releases() {
        let mut m = CcDevice::new();
        run(&mut m, CcInput::Dial);
        run(&mut m, CcInput::MmConnectionEstablished);
        run(&mut m, CcInput::Network(NasMessage::CallConnect));
        let out = run(&mut m, CcInput::Hangup);
        assert!(out.contains(&CcOutput::Send(NasMessage::CallDisconnect)));
        let out = run(&mut m, CcInput::Network(NasMessage::CallDisconnect));
        assert!(out.contains(&CcOutput::CallReleased));
        assert_eq!(m.state, CcState::Null);
    }

    #[test]
    fn remote_hangup_in_alerting() {
        let mut m = CcDevice::new();
        run(&mut m, CcInput::Dial);
        run(&mut m, CcInput::MmConnectionEstablished);
        run(&mut m, CcInput::Network(NasMessage::CallAlerting));
        let out = run(&mut m, CcInput::Network(NasMessage::CallDisconnect));
        assert!(out.contains(&CcOutput::CallReleased));
    }

    #[test]
    fn mm_failure_fails_the_call() {
        let mut m = CcDevice::new();
        run(&mut m, CcInput::Dial);
        let out = run(&mut m, CcInput::MmConnectionFailed);
        assert!(out.contains(&CcOutput::CallFailed));
        assert_eq!(m.state, CcState::Null);
    }

    #[test]
    fn connect_can_skip_alerting() {
        let mut m = CcDevice::new();
        run(&mut m, CcInput::Dial);
        run(&mut m, CcInput::MmConnectionEstablished);
        let out = run(&mut m, CcInput::Network(NasMessage::CallConnect));
        assert!(out.contains(&CcOutput::CallConnected));
    }

    #[test]
    fn msc_answers_setup_with_progress_sequence() {
        let mut msc = MscCc::new();
        let mut out = Vec::new();
        msc.on_uplink(NasMessage::CallSetup, &mut out);
        assert_eq!(
            out,
            vec![
                NasMessage::CallProceeding,
                NasMessage::CallAlerting,
                NasMessage::CallConnect
            ]
        );
        assert!(msc.call_active);
        out.clear();
        msc.on_uplink(NasMessage::CallDisconnect, &mut out);
        assert_eq!(out, vec![NasMessage::CallDisconnect]);
        assert!(!msc.call_active);
    }

    #[test]
    fn double_dial_is_ignored() {
        let mut m = CcDevice::new();
        run(&mut m, CcInput::Dial);
        let out = run(&mut m, CcInput::Dial);
        assert!(out.is_empty());
    }
}
