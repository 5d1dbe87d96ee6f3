//! Screening model for MM/GMM head-of-line blocking — exposes **S4** (§6.1).
//!
//! Composition: the device-side MM machine against a lockstep MSC, with the
//! location-update trigger and the user's dial as independent scenario
//! actions. The defect is a *priority inversion*, not a message-loss issue:
//! "CNetVerifier reports that outgoing CS/PS service requests from the
//! CM/SM layer can be delayed while the MM/GMM layer is doing location/
//! routing area update". `CallService_OK` — "each call request should not
//! be rejected or delayed without any explicit user operation" — is encoded
//! as *never (a CM service request sits queued behind an update)*.
//!
//! The model also shows the §6.1.2 chain effect: even after the update
//! accept arrives, MM's `WAIT-FOR-NETWORK-COMMAND` hold keeps the request
//! queued until the network-command timer expires.

use mck::{Model, Property};

use cellstack::mm::{MmDevice, MmDeviceInput, MmDeviceOutput, MscInput, MscMm, MscOutput};
use cellstack::NasMessage;

use crate::props;

/// Model parameters.
#[derive(Clone, Debug)]
pub struct HolBlockModel {
    /// Apply the §8 parallel-threads remedy: `CallService_OK` must hold.
    pub remedy: bool,
}

impl HolBlockModel {
    /// The paper's screening configuration.
    pub fn paper() -> Self {
        Self { remedy: false }
    }

    /// The registry's `parallel_mm` remedy (S4): MM runs the update and
    /// the service request on parallel threads.
    pub fn parallel_mm(mut self) -> Self {
        self.remedy = true;
        self
    }
}

/// Global state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HolState {
    /// Device-side MM.
    pub mm: MmDevice,
    /// MSC side.
    pub msc: MscMm,
    /// Downlink replies waiting to be delivered (lockstep, but the
    /// *delivery instant* interleaves with user actions — that's the race).
    pub pending_replies: Vec<NasMessage>,
    /// The scenario may still trigger a location update.
    pub lau_available: bool,
    /// The user may still dial.
    pub dial_available: bool,
    /// The WAIT-FOR-NETWORK-COMMAND hold is pending expiry.
    pub net_cmd_pending: bool,
    /// A call request was observed blocked behind an update.
    pub blocked_observed: bool,
}

/// Transition labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum HolAction {
    /// A Table 4 trigger fires a location-area update.
    TriggerLau,
    /// The user dials an outgoing call (CM asks MM for a connection).
    Dial,
    /// The next MSC reply is delivered to the device.
    DeliverReply,
    /// The WAIT-FOR-NETWORK-COMMAND hold expires.
    NetCmdDone,
}

impl HolBlockModel {
    fn feed(state: &mut HolState, input: MmDeviceInput) {
        let mut out = Vec::new();
        state.mm.on_input(input, &mut out);
        for o in out {
            match o {
                MmDeviceOutput::Send(msg) => {
                    // Lockstep MSC: process the uplink immediately, queue
                    // the replies for explicit delivery.
                    let mut mo = Vec::new();
                    state.msc.on_input(MscInput::Uplink(msg), &mut mo);
                    for m in mo {
                        if let MscOutput::Send(reply) = m {
                            state.pending_replies.push(reply);
                        }
                    }
                }
                MmDeviceOutput::ServiceRequestQueued => {
                    state.blocked_observed = true;
                }
                MmDeviceOutput::LocationUpdateDone => {
                    state.net_cmd_pending = !state.mm.parallel_remedy
                        && state.mm.state == cellstack::mm::MmDeviceState::WaitForNetworkCommand;
                }
                _ => {}
            }
        }
    }
}

impl Model for HolBlockModel {
    type State = HolState;
    type Action = HolAction;

    fn init_states(&self) -> Vec<HolState> {
        let mm = if self.remedy {
            MmDevice::new().with_remedy()
        } else {
            MmDevice::new()
        };
        vec![HolState {
            mm,
            msc: MscMm::new(),
            pending_replies: Vec::new(),
            lau_available: true,
            dial_available: true,
            net_cmd_pending: false,
            blocked_observed: false,
        }]
    }

    fn actions(&self, state: &HolState, out: &mut Vec<HolAction>) {
        if state.blocked_observed {
            return; // error state reached; nothing more to learn
        }
        if state.lau_available {
            out.push(HolAction::TriggerLau);
        }
        if state.dial_available {
            out.push(HolAction::Dial);
        }
        if !state.pending_replies.is_empty() {
            out.push(HolAction::DeliverReply);
        }
        if state.net_cmd_pending {
            out.push(HolAction::NetCmdDone);
        }
    }

    fn next_state(&self, state: &HolState, action: &HolAction) -> Option<HolState> {
        let mut s = state.clone();
        match action {
            HolAction::TriggerLau => {
                s.lau_available = false;
                Self::feed(&mut s, MmDeviceInput::LocationUpdateTrigger);
            }
            HolAction::Dial => {
                s.dial_available = false;
                Self::feed(&mut s, MmDeviceInput::CmServiceRequest);
            }
            HolAction::DeliverReply => {
                let msg = s.pending_replies.remove(0);
                Self::feed(&mut s, MmDeviceInput::Network(msg));
            }
            HolAction::NetCmdDone => {
                s.net_cmd_pending = false;
                Self::feed(&mut s, MmDeviceInput::NetworkCommandDone);
            }
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![Property::never(
            props::CALL_SERVICE_OK,
            |_: &HolBlockModel, s: &HolState| s.blocked_observed,
        )]
    }

    fn format_action(&self, action: &HolAction) -> String {
        match action {
            HolAction::TriggerLau => "location-area update triggered".into(),
            HolAction::Dial => "user dials; CM requests MM connection".into(),
            HolAction::DeliverReply => "MSC reply delivered".into(),
            HolAction::NetCmdDone => "MM WAIT-FOR-NETWORK-COMMAND expires".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy};

    #[test]
    fn screening_finds_s4() {
        let result = Checker::new(HolBlockModel::paper())
            .strategy(SearchStrategy::Bfs)
            .run();
        let v = result
            .violation(props::CALL_SERVICE_OK)
            .expect("S4 must be found");
        // Shortest witness: trigger the update, then dial into the block.
        assert_eq!(v.path.len(), 2);
        let acts: Vec<_> = v.path.actions().collect();
        assert!(matches!(acts[0], HolAction::TriggerLau));
        assert!(matches!(acts[1], HolAction::Dial));
    }

    #[test]
    fn remedy_restores_call_service_ok() {
        let result = Checker::new(HolBlockModel::paper().parallel_mm())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(result.holds(), "{:?}", result.violations);
    }

    #[test]
    fn dial_first_never_blocks() {
        let model = HolBlockModel::paper();
        let mut s = model.init_states().remove(0);
        s = model.next_state(&s, &HolAction::Dial).unwrap();
        assert!(!s.blocked_observed);
        // The deferred update waits behind the call — that direction is
        // fine (the call also implicitly updates the location, §6.1.1).
        s = model.next_state(&s, &HolAction::TriggerLau).unwrap();
        assert!(!s.blocked_observed);
    }

    #[test]
    fn chain_effect_blocks_even_after_update_accept() {
        let model = HolBlockModel::paper();
        let mut s = model.init_states().remove(0);
        s = model.next_state(&s, &HolAction::TriggerLau).unwrap();
        s = model.next_state(&s, &HolAction::Dial).unwrap();
        assert!(s.blocked_observed, "queued behind the update");
        // Deliver the update accept: still in WAIT-FOR-NET-CMD, still
        // queued (the §6.1.2 chain effect).
        let mut s2 = s.clone();
        s2.blocked_observed = false; // reset the latch to observe further
        let s3 = model.next_state(&s2, &HolAction::DeliverReply).unwrap();
        assert!(
            s3.mm.queued_service_request,
            "request remains queued through WAIT-FOR-NETWORK-COMMAND"
        );
    }

    #[test]
    fn state_space_is_tiny() {
        let result = Checker::new(HolBlockModel::paper()).run();
        assert!(result.stats.unique_states < 100);
    }
}
