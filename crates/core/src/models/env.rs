//! A lockstep ("synchronous") network environment for whole-stack models.
//!
//! Some defects are about the ordering of *procedures* (deactivate vs
//! switch, update vs dial), not about message loss. For those models the
//! network can answer instantly: every uplink NAS message is handed to the
//! right network-side machine and the replies are delivered back to the
//! stack before the next model action runs. The environment is plain data
//! so it can live inside a checker state.

use cellstack::cm::MscCc;
use cellstack::emm::{MmeEmm, MmeInput, MmeOutput};
use cellstack::esm::MmeEsm;
use cellstack::gmm::SgsnGmm;
use cellstack::mm::{MscInput, MscMm, MscOutput};
use cellstack::sm::{SgsnSm, SgsnSmOutput};
use cellstack::{DeviceStack, Domain, NasMessage, RatSystem, Registration, StackEvent};

/// The carrier side, answering synchronously.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SyncNet {
    /// MSC mobility handling.
    pub msc_mm: MscMm,
    /// MSC call handling.
    pub msc_cc: MscCc,
    /// 3G gateways, mobility.
    pub sgsn_gmm: SgsnGmm,
    /// 3G gateways, sessions.
    pub sgsn_sm: SgsnSm,
    /// MME mobility.
    pub mme: MmeEmm,
    /// MME sessions.
    pub mme_esm: MmeEsm,
}

/// Facts observed while settling an exchange (fed into property state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Observations {
    /// The device reported being registered at some point.
    pub registered: bool,
    /// The device reported being deregistered at some point.
    pub deregistered: bool,
    /// A service request was reported blocked (S4 symptom).
    pub request_blocked: bool,
    /// A call connected.
    pub call_connected: bool,
    /// A 3G location update failed.
    pub lu_failed: bool,
}

impl SyncNet {
    /// A fresh carrier with default policies.
    pub fn new() -> Self {
        Self {
            msc_mm: MscMm::new(),
            msc_cc: MscCc::new(),
            sgsn_gmm: SgsnGmm::new(),
            sgsn_sm: SgsnSm::new(),
            mme: MmeEmm::new(),
            mme_esm: MmeEsm::new(),
        }
    }

    /// Process the stack's pending events, answering every uplink and
    /// delivering replies until quiescence. Returns what was observed.
    ///
    /// `max_rounds` bounds pathological ping-pong (a modeling bug would
    /// otherwise hang the checker); 32 rounds is far beyond any legitimate
    /// exchange in these models.
    pub fn settle(&mut self, stack: &mut DeviceStack, events: Vec<StackEvent>) -> Observations {
        let mut obs = Observations::default();
        let mut work = events;
        for _ in 0..32 {
            if work.is_empty() {
                break;
            }
            let mut next: Vec<StackEvent> = Vec::new();
            for e in work {
                match e {
                    StackEvent::UplinkNas {
                        system,
                        domain,
                        msg,
                    } => {
                        for reply in self.answer(system, domain, msg) {
                            stack.deliver_nas(system, domain, reply, &mut next);
                        }
                    }
                    StackEvent::RegChanged(Registration::Registered) => obs.registered = true,
                    StackEvent::RegChanged(Registration::Deregistered) => obs.deregistered = true,
                    StackEvent::ServiceRequestBlocked => obs.request_blocked = true,
                    StackEvent::CallConnected => obs.call_connected = true,
                    StackEvent::LocationUpdateFailed => obs.lu_failed = true,
                    _ => {}
                }
            }
            work = next;
        }
        obs
    }

    /// Answer one uplink message, returning the downlink replies.
    pub fn answer(
        &mut self,
        system: RatSystem,
        domain: Domain,
        msg: NasMessage,
    ) -> Vec<NasMessage> {
        let mut replies = Vec::new();
        match (system, domain) {
            (RatSystem::Lte4g, _) => {
                let mut out = Vec::new();
                self.mme.on_input(MmeInput::Uplink(msg), &mut out);
                for o in out {
                    match o {
                        MmeOutput::Send(m) => replies.push(m),
                        MmeOutput::BearerCreated(_) | MmeOutput::BearerDeleted => {
                            self.mme_esm.ue_registered =
                                self.mme.state == cellstack::emm::MmeUeState::Registered;
                        }
                        MmeOutput::RecoverLocationUpdateWithMsc => {}
                    }
                }
            }
            (RatSystem::Utran3g, Domain::Cs) => match &msg {
                NasMessage::CallSetup | NasMessage::CallDisconnect => {
                    self.msc_cc.on_uplink(msg, &mut replies);
                }
                _ => {
                    let mut out = Vec::new();
                    self.msc_mm.on_input(MscInput::Uplink(msg), &mut out);
                    for o in out {
                        match o {
                            MscOutput::Send(m) => replies.push(m),
                            MscOutput::ReportFailureToMme(cause) => {
                                let mut mo = Vec::new();
                                self.mme
                                    .on_input(MmeInput::MscLocationUpdateFailure(cause), &mut mo);
                                // Downlink 4G messages are delivered only if
                                // the caller routes them; in the lockstep
                                // models the device is in 3G here, so they
                                // are dropped — matching single-radio phones.
                                let _ = mo;
                            }
                            MscOutput::RelayedUpdateOk => {}
                        }
                    }
                }
            },
            (RatSystem::Utran3g, Domain::Ps) => match &msg {
                NasMessage::SessionActivateRequest { .. }
                | NasMessage::SessionDeactivate { .. } => {
                    let mut out = Vec::new();
                    self.sgsn_sm.on_uplink(msg, &mut out);
                    for o in out {
                        if let SgsnSmOutput::Send(m) = o {
                            replies.push(m);
                        }
                    }
                }
                _ => {
                    self.sgsn_gmm.on_uplink(msg, &mut replies);
                }
            },
        }
        replies
    }

    /// Notify the MME that the device switched in from 3G with the given
    /// PDP context (or none — the S1 hazard).
    pub fn mme_switch_in(&mut self, pdp: Option<cellstack::PdpContext>) {
        let mut out = Vec::new();
        self.mme.on_input(MmeInput::SwitchedIn { pdp }, &mut out);
        self.mme_esm.ue_registered = self.mme.state == cellstack::emm::MmeUeState::Registered;
    }
}

impl Default for SyncNet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_attach_settles_registered() {
        let mut stack = DeviceStack::new();
        let mut net = SyncNet::new();
        let mut evs = Vec::new();
        stack.power_on(RatSystem::Lte4g, &mut evs);
        let obs = net.settle(&mut stack, evs);
        assert!(obs.registered);
        assert!(!stack.out_of_service());
        assert_eq!(net.mme.state, cellstack::emm::MmeUeState::Registered);
    }

    #[test]
    fn full_3g_call_settles_connected() {
        let mut stack = DeviceStack::new();
        let mut net = SyncNet::new();
        stack.serving = RatSystem::Utran3g;
        stack.gmm.state = cellstack::gmm::GmmDeviceState::Registered;
        let mut evs = Vec::new();
        stack.dial(&mut evs);
        let obs = net.settle(&mut stack, evs);
        assert!(obs.call_connected);
    }

    #[test]
    fn settle_is_deterministic() {
        let run = || {
            let mut stack = DeviceStack::new();
            let mut net = SyncNet::new();
            let mut evs = Vec::new();
            stack.power_on(RatSystem::Lte4g, &mut evs);
            net.settle(&mut stack, evs);
            (stack, net)
        };
        let (s1, n1) = run();
        let (s2, n2) = run();
        assert_eq!(s1, s2);
        assert_eq!(n1, n2);
    }

    #[test]
    fn s1_settles_to_out_of_service() {
        let mut stack = DeviceStack::new();
        let mut net = SyncNet::new();
        let mut evs = Vec::new();
        stack.power_on(RatSystem::Lte4g, &mut evs);
        net.settle(&mut stack, evs);
        // 4G→3G, deactivate, 3G→4G.
        let mut evs = Vec::new();
        stack.switch_4g_to_3g(&mut evs);
        net.settle(&mut stack, evs);
        let mut evs = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Ps,
            net.sgsn_sm
                .deactivate(cellstack::PdpDeactivationCause::OperatorDeterminedBarring),
            &mut evs,
        );
        net.settle(&mut stack, evs);
        net.mme_switch_in(stack.sm.active_context());
        let mut evs = Vec::new();
        stack.switch_3g_to_4g(&mut evs);
        let obs = net.settle(&mut stack, evs);
        assert!(obs.deregistered, "S1 via the lockstep environment");
    }
}
