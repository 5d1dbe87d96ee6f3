//! The composed device-side protocol stack.
//!
//! [`DeviceStack`] wires the per-layer FSMs together the way Figure 1 draws
//! them: CC/SM/ESM on top of MM/GMM/EMM on top of 3G/4G RRC, with the
//! cross-layer interfaces (CC→MM service requests, EMM→ESM bearer
//! installation, call/data activity → RRC state) implemented as direct
//! output-to-input routing. The stack is pure data (`Clone + Hash + Eq`), so
//! the same composition is explored exhaustively by the `mck` checker and
//! executed under time by `netsim`.

use crate::causes::PdpDeactivationCause;
use crate::cm::{CcDevice, CcInput, CcOutput};
use crate::emm::{EmmDevice, EmmDeviceInput, EmmDeviceOutput};
use crate::esm::{EsmDevice, EsmDeviceInput, EsmDeviceOutput};
use crate::gmm::{GmmDevice, GmmDeviceInput, GmmDeviceOutput, GmmDeviceState};
use crate::mm::{MmDevice, MmDeviceInput, MmDeviceOutput};
use crate::msg::{NasMessage, UpdateKind};
use crate::rrc3g::{Rrc3g, Rrc3gEvent};
use crate::rrc4g::{Rrc4g, Rrc4gEvent};
use crate::sm::{SmDevice, SmDeviceInput, SmDeviceOutput};
use crate::timers::NasTimer;
use crate::types::{Domain, Protocol, RatSystem, Registration};

/// Events the stack reports to its environment (simulator or checker
/// harness). Events are *transient* — they are not part of the hashed state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StackEvent {
    /// Send a NAS message uplink (the environment routes it over RRC to the
    /// right network element).
    UplinkNas {
        /// System whose core the message targets.
        system: RatSystem,
        /// Domain (selects MSC vs gateways in 3G).
        domain: Domain,
        /// The message.
        msg: NasMessage,
    },
    /// Registration in the *serving* system changed.
    RegChanged(Registration),
    /// An outgoing call connected.
    CallConnected,
    /// The call ended.
    CallReleased,
    /// The call failed before connecting.
    CallFailed,
    /// The CM service request got HOL-blocked behind a location update (S4).
    ServiceRequestBlocked,
    /// PS data service availability changed.
    DataService(bool),
    /// The device wants an inter-system switch (e.g. EMM fallback to 3G).
    WantsSwitchTo(RatSystem),
    /// A 3G location update failed (environment relays MSC→MME for S6).
    LocationUpdateFailed,
    /// EMM asks for its attach-retry timer to be (re)armed.
    ArmEmmRetry,
    /// A layer asks for a named NAS retransmission timer to be (re)armed
    /// (emitted instead of [`StackEvent::ArmEmmRetry`] when the stack runs
    /// with [`DeviceStack::with_retransmission`]).
    ArmNasTimer(NasTimer),
    /// A mobile-terminated call is ringing (user may answer).
    IncomingCallRinging,
    /// A protocol produced a trace-worthy step (module, description).
    Trace(Protocol, String),
}

/// The composed device stack.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DeviceStack {
    /// The system currently camped on. Phones use "at most one network at a
    /// time" (§3.2.1).
    pub serving: RatSystem,
    /// 3G radio resource control.
    pub rrc3g: Rrc3g,
    /// 4G radio resource control.
    pub rrc4g: Rrc4g,
    /// 3G CS mobility management.
    pub mm: MmDevice,
    /// 3G PS mobility management.
    pub gmm: GmmDevice,
    /// 4G mobility management.
    pub emm: EmmDevice,
    /// Call control.
    pub cc: CcDevice,
    /// 3G session management.
    pub sm: SmDevice,
    /// 4G session management.
    pub esm: EsmDevice,
    /// The user's mobile-data switch.
    pub data_enabled: bool,
    /// The current/most recent data session is high-rate (drives RRC DCH).
    pub data_high_rate: bool,
}

impl DeviceStack {
    /// A powered-off stack camped nowhere useful (serving defaults to 4G).
    pub fn new() -> Self {
        Self {
            serving: RatSystem::Lte4g,
            rrc3g: Rrc3g::new(),
            rrc4g: Rrc4g::new(),
            mm: MmDevice::new(),
            gmm: GmmDevice::new(),
            emm: EmmDevice::new(),
            cc: CcDevice::new(),
            sm: SmDevice::new(),
            esm: EsmDevice::new(),
            data_enabled: true,
            data_high_rate: false,
        }
    }

    /// Apply the §8 remedies to every layer that has one.
    pub fn with_remedies(mut self) -> Self {
        self.mm.parallel_remedy = true;
        self.gmm.parallel_remedy = true;
        self.emm.remedy_reactivate_bearer = true;
        self
    }

    /// Model the 3GPP NAS retransmission timers on every layer that has
    /// them (EMM's T3410/T3411/T3402/T3430, ESM's T3417). The environment
    /// answers [`StackEvent::ArmNasTimer`] by scheduling a
    /// [`Self::nas_timer`] call after the timer's backoff.
    pub fn with_retransmission(mut self) -> Self {
        self.emm.nas_retransmission = true;
        self.esm.nas_retransmission = true;
        self
    }

    /// Is the device out of service (no registration on the serving
    /// system)?
    pub fn out_of_service(&self) -> bool {
        match self.serving {
            RatSystem::Lte4g => self.emm.out_of_service(),
            RatSystem::Utran3g => self.gmm.state != GmmDeviceState::Registered,
        }
    }

    /// Is PS data service available right now?
    pub fn data_service_available(&self) -> bool {
        match self.serving {
            RatSystem::Lte4g => self.esm.service_available(),
            RatSystem::Utran3g => self.sm.active_context().is_some(),
        }
    }

    // ---- user-facing operations -----------------------------------------

    /// Power on and attach to `system`.
    pub fn power_on(&mut self, system: RatSystem, ev: &mut Vec<StackEvent>) {
        self.serving = system;
        match system {
            RatSystem::Lte4g => {
                let mut out = Vec::new();
                self.emm.on_input(EmmDeviceInput::AttachTrigger, &mut out);
                self.route_emm(out, ev);
                let mut r = Vec::new();
                self.rrc4g.on_event(Rrc4gEvent::Activity, &mut r);
            }
            RatSystem::Utran3g => {
                let mut out = Vec::new();
                self.gmm.on_input(GmmDeviceInput::AttachTrigger, &mut out);
                self.route_gmm(out, ev);
                let mut r = Vec::new();
                self.rrc3g.on_event(Rrc3gEvent::SignalingActivity, &mut r);
            }
        }
    }

    /// Dial an outgoing call (3G CS; in 4G the environment first runs the
    /// CSFB fallback, then calls this).
    pub fn dial(&mut self, ev: &mut Vec<StackEvent>) {
        let mut out = Vec::new();
        self.cc.on_input(CcInput::Dial, &mut out);
        self.route_cc(out, ev);
    }

    /// Hang up the active call.
    pub fn hangup(&mut self, ev: &mut Vec<StackEvent>) {
        let mut out = Vec::new();
        self.cc.on_input(CcInput::Hangup, &mut out);
        self.route_cc(out, ev);
    }

    /// Answer a ringing mobile-terminated call.
    pub fn answer(&mut self, ev: &mut Vec<StackEvent>) {
        let mut out = Vec::new();
        self.cc.on_input(CcInput::Answer, &mut out);
        self.route_cc(out, ev);
    }

    /// Start PS data usage (activates the context/bearer if needed).
    pub fn data_on(&mut self, high_rate: bool, ev: &mut Vec<StackEvent>) {
        self.data_enabled = true;
        self.data_high_rate = high_rate;
        match self.serving {
            RatSystem::Utran3g => {
                let mut out = Vec::new();
                self.gmm
                    .on_input(GmmDeviceInput::SmServiceRequest, &mut out);
                self.route_gmm(out, ev);
            }
            RatSystem::Lte4g => {
                if !self.esm.service_available() {
                    let mut out = Vec::new();
                    self.esm.on_input(EsmDeviceInput::ActivateRequest, &mut out);
                    self.route_esm(out, ev);
                }
                let mut r = Vec::new();
                self.rrc4g.on_event(Rrc4gEvent::Activity, &mut r);
            }
        }
    }

    /// Stop PS data usage / turn mobile data off, deactivating the 3G PDP
    /// context with `cause` (the S1 ingredient).
    pub fn data_off(&mut self, cause: PdpDeactivationCause, ev: &mut Vec<StackEvent>) {
        self.data_enabled = false;
        if self.serving == RatSystem::Utran3g {
            let mut out = Vec::new();
            self.sm
                .on_input(SmDeviceInput::DeactivateRequest(cause), &mut out);
            self.route_sm(out, ev);
            let mut r = Vec::new();
            self.rrc3g.on_event(Rrc3gEvent::PsTrafficStop, &mut r);
        }
    }

    /// A location-update trigger fired (Table 4).
    pub fn trigger_update(&mut self, kind: UpdateKind, ev: &mut Vec<StackEvent>) {
        match kind {
            UpdateKind::LocationArea => {
                let mut out = Vec::new();
                self.mm
                    .on_input(MmDeviceInput::LocationUpdateTrigger, &mut out);
                self.route_mm(out, ev);
            }
            UpdateKind::RoutingArea => {
                let mut out = Vec::new();
                self.gmm
                    .on_input(GmmDeviceInput::RoutingUpdateTrigger, &mut out);
                self.route_gmm(out, ev);
            }
            UpdateKind::TrackingArea => {
                let mut out = Vec::new();
                self.emm.on_input(EmmDeviceInput::TauTrigger, &mut out);
                self.route_emm(out, ev);
            }
        }
    }

    /// The MM `WAIT-FOR-NETWORK-COMMAND` hold expired.
    pub fn mm_network_command_done(&mut self, ev: &mut Vec<StackEvent>) {
        let mut out = Vec::new();
        self.mm
            .on_input(MmDeviceInput::NetworkCommandDone, &mut out);
        self.route_mm(out, ev);
    }

    /// The EMM attach-retry timer fired.
    pub fn emm_retry_timer(&mut self, ev: &mut Vec<StackEvent>) {
        let mut out = Vec::new();
        self.emm.on_input(EmmDeviceInput::RetryTimer, &mut out);
        self.route_emm(out, ev);
    }

    /// A named NAS retransmission timer fired; dispatch the expiry to the
    /// layer that owns it.
    pub fn nas_timer(&mut self, timer: NasTimer, ev: &mut Vec<StackEvent>) {
        match timer {
            NasTimer::T3410 | NasTimer::T3411 | NasTimer::T3402 | NasTimer::T3430 => {
                let mut out = Vec::new();
                self.emm
                    .on_input(EmmDeviceInput::TimerExpiry(timer), &mut out);
                self.route_emm(out, ev);
            }
            NasTimer::T3417 => {
                let mut out = Vec::new();
                self.esm.on_input(EsmDeviceInput::RetryTimer, &mut out);
                self.route_esm(out, ev);
            }
        }
    }

    // ---- inter-system switching ------------------------------------------

    /// Execute a 4G→3G switch (Figure 3): migrate the EPS bearer to a PDP
    /// context, camp on 3G, register in both 3G domains and start the
    /// Table 4 row-6 updates.
    pub fn switch_4g_to_3g(&mut self, ev: &mut Vec<StackEvent>) {
        self.switch_4g_to_3g_with(false, ev);
    }

    /// As [`Self::switch_4g_to_3g`], but optionally deferring the CS
    /// location-area update — the TS 23.272 CSFB option (§6.3): "this
    /// update action can be deferred until the call completes". The caller
    /// runs [`Self::trigger_update`] with `LocationArea` after the call.
    pub fn switch_4g_to_3g_with(&mut self, defer_lau: bool, ev: &mut Vec<StackEvent>) {
        let pdp = self.emm.bearer.as_ref().and_then(|b| b.to_pdp(5));
        self.serving = RatSystem::Utran3g;
        // Step 1: 4G RRC releases.
        let mut r4 = Vec::new();
        self.rrc4g.on_event(
            Rrc4gEvent::ConnectionRelease {
                redirect_to: Some(RatSystem::Utran3g),
            },
            &mut r4,
        );
        // Step 2: 3G RRC connects; MM and GMM are informed.
        let mut r3 = Vec::new();
        self.rrc3g.on_event(Rrc3gEvent::SignalingActivity, &mut r3);
        // Combined attach/updates register the device in 3G.
        self.gmm.state = GmmDeviceState::Registered;
        if let Some(pdp) = pdp {
            self.sm.install_migrated(pdp);
            ev.push(StackEvent::Trace(
                Protocol::Sm,
                "EPS bearer context migrated to PDP context".into(),
            ));
            if self.data_enabled {
                let mut r = Vec::new();
                self.rrc3g.on_event(
                    Rrc3gEvent::PsTrafficStart {
                        high_rate: self.data_high_rate,
                    },
                    &mut r,
                );
            }
        }
        // Location + routing updates (Table 4 row 6). CSFB may defer the
        // CS-side update until after the call.
        if !defer_lau {
            let mut out = Vec::new();
            self.mm
                .on_input(MmDeviceInput::LocationUpdateTrigger, &mut out);
            self.route_mm(out, ev);
        }
        let mut out = Vec::new();
        self.gmm
            .on_input(GmmDeviceInput::RoutingUpdateTrigger, &mut out);
        self.route_gmm(out, ev);
        ev.push(StackEvent::Trace(
            Protocol::Emm,
            "4G->3G inter-system switch complete".into(),
        ));
    }

    /// Execute a 3G→4G switch: migrate the PDP context (if active) into the
    /// EPS bearer and run EMM's switch-in logic — the S1 hazard point.
    pub fn switch_3g_to_4g(&mut self, ev: &mut Vec<StackEvent>) {
        let pdp = self.sm.active_context();
        self.serving = RatSystem::Lte4g;
        let mut r3 = Vec::new();
        self.rrc3g.on_event(Rrc3gEvent::ConnectionRelease, &mut r3);
        let mut r4 = Vec::new();
        self.rrc4g.on_event(Rrc4gEvent::Activity, &mut r4);
        let mut out = Vec::new();
        self.emm
            .on_input(EmmDeviceInput::SwitchedIn { pdp }, &mut out);
        self.route_emm(out, ev);
        ev.push(StackEvent::Trace(
            Protocol::Emm,
            "3G->4G inter-system switch attempted".into(),
        ));
    }

    // ---- network message delivery ----------------------------------------

    /// Deliver a downlink NAS message to the right layer.
    pub fn deliver_nas(
        &mut self,
        system: RatSystem,
        domain: Domain,
        msg: NasMessage,
        ev: &mut Vec<StackEvent>,
    ) {
        match (system, domain, &msg) {
            // 4G session management.
            (
                RatSystem::Lte4g,
                _,
                NasMessage::SessionActivateAccept
                | NasMessage::SessionActivateReject
                | NasMessage::SessionDeactivate { .. }
                | NasMessage::SessionDeactivateAccept,
            ) => {
                let mut out = Vec::new();
                self.esm.on_input(EsmDeviceInput::Network(msg), &mut out);
                self.route_esm(out, ev);
            }
            // Everything else in 4G is EMM.
            (RatSystem::Lte4g, _, _) => {
                let mut out = Vec::new();
                self.emm.on_input(EmmDeviceInput::Network(msg), &mut out);
                self.route_emm(out, ev);
            }
            // 3G CS: call-control messages to CC...
            (
                RatSystem::Utran3g,
                Domain::Cs,
                NasMessage::CallSetup
                | NasMessage::CallProceeding
                | NasMessage::CallAlerting
                | NasMessage::CallConnect
                | NasMessage::CallDisconnect,
            ) => {
                let mut out = Vec::new();
                self.cc.on_input(CcInput::Network(msg), &mut out);
                self.route_cc(out, ev);
            }
            // ... the rest of CS to MM.
            (RatSystem::Utran3g, Domain::Cs, _) => {
                let mut out = Vec::new();
                self.mm.on_input(MmDeviceInput::Network(msg), &mut out);
                self.route_mm(out, ev);
            }
            // 3G PS: session management to SM...
            (
                RatSystem::Utran3g,
                Domain::Ps,
                NasMessage::SessionActivateAccept
                | NasMessage::SessionActivateReject
                | NasMessage::SessionDeactivate { .. }
                | NasMessage::SessionDeactivateAccept,
            ) => {
                let mut out = Vec::new();
                self.sm.on_input(SmDeviceInput::Network(msg), &mut out);
                self.route_sm(out, ev);
            }
            // ... the rest of PS to GMM.
            (RatSystem::Utran3g, Domain::Ps, _) => {
                let mut out = Vec::new();
                self.gmm.on_input(GmmDeviceInput::Network(msg), &mut out);
                self.route_gmm(out, ev);
            }
        }
    }

    // ---- output routing ----------------------------------------------------

    fn route_cc(&mut self, outputs: Vec<CcOutput>, ev: &mut Vec<StackEvent>) {
        for o in outputs {
            match o {
                CcOutput::RequestMmConnection => {
                    let mut out = Vec::new();
                    self.mm.on_input(MmDeviceInput::CmServiceRequest, &mut out);
                    self.route_mm(out, ev);
                }
                CcOutput::Send(msg) => ev.push(StackEvent::UplinkNas {
                    system: RatSystem::Utran3g,
                    domain: Domain::Cs,
                    msg,
                }),
                CcOutput::CallConnected => {
                    let mut r = Vec::new();
                    self.rrc3g.on_event(Rrc3gEvent::CsCallStart, &mut r);
                    ev.push(StackEvent::CallConnected);
                }
                CcOutput::CallReleased => {
                    let mut r = Vec::new();
                    self.rrc3g.on_event(Rrc3gEvent::CsCallEnd, &mut r);
                    // The call's MM connection is gone; MM may run deferred
                    // work (e.g. the CSFB deferred location update).
                    let mut out = Vec::new();
                    self.mm.on_input(MmDeviceInput::ConnectionRelease, &mut out);
                    self.route_mm(out, ev);
                    ev.push(StackEvent::CallReleased);
                }
                CcOutput::CallFailed => ev.push(StackEvent::CallFailed),
                CcOutput::IncomingCallRinging => {
                    ev.push(StackEvent::IncomingCallRinging);
                }
            }
        }
    }

    fn route_mm(&mut self, outputs: Vec<MmDeviceOutput>, ev: &mut Vec<StackEvent>) {
        for o in outputs {
            match o {
                MmDeviceOutput::Send(msg) => {
                    let mut r = Vec::new();
                    self.rrc3g.on_event(Rrc3gEvent::SignalingActivity, &mut r);
                    ev.push(StackEvent::UplinkNas {
                        system: RatSystem::Utran3g,
                        domain: Domain::Cs,
                        msg,
                    });
                }
                MmDeviceOutput::ServiceRequestQueued => {
                    ev.push(StackEvent::ServiceRequestBlocked);
                }
                MmDeviceOutput::ConnectionEstablished => {
                    let mut out = Vec::new();
                    self.cc.on_input(CcInput::MmConnectionEstablished, &mut out);
                    self.route_cc(out, ev);
                }
                MmDeviceOutput::ServiceRejected => {
                    let mut out = Vec::new();
                    self.cc.on_input(CcInput::MmConnectionFailed, &mut out);
                    self.route_cc(out, ev);
                }
                MmDeviceOutput::LocationUpdateFailed(_) => {
                    ev.push(StackEvent::LocationUpdateFailed);
                }
                MmDeviceOutput::LocationUpdateDone => {
                    ev.push(StackEvent::Trace(
                        Protocol::Mm,
                        "Location area update complete".into(),
                    ));
                }
            }
        }
    }

    fn route_gmm(&mut self, outputs: Vec<GmmDeviceOutput>, ev: &mut Vec<StackEvent>) {
        for o in outputs {
            match o {
                GmmDeviceOutput::Send(msg) => ev.push(StackEvent::UplinkNas {
                    system: RatSystem::Utran3g,
                    domain: Domain::Ps,
                    msg,
                }),
                GmmDeviceOutput::SmRequestQueued => {
                    ev.push(StackEvent::ServiceRequestBlocked);
                }
                GmmDeviceOutput::SmRequestReady => {
                    let mut out = Vec::new();
                    self.sm.on_input(SmDeviceInput::ActivateRequest, &mut out);
                    self.route_sm(out, ev);
                }
                GmmDeviceOutput::Registered(yes) => {
                    if self.serving == RatSystem::Utran3g {
                        ev.push(StackEvent::RegChanged(if yes {
                            Registration::Registered
                        } else {
                            Registration::Deregistered
                        }));
                    }
                }
                GmmDeviceOutput::RoutingUpdateDone => {
                    ev.push(StackEvent::Trace(
                        Protocol::Gmm,
                        "Routing area update complete".into(),
                    ));
                }
            }
        }
    }

    fn route_emm(&mut self, outputs: Vec<EmmDeviceOutput>, ev: &mut Vec<StackEvent>) {
        for o in outputs {
            match o {
                EmmDeviceOutput::Send(msg) => {
                    let mut r = Vec::new();
                    self.rrc4g.on_event(Rrc4gEvent::Activity, &mut r);
                    ev.push(StackEvent::UplinkNas {
                        system: RatSystem::Lte4g,
                        domain: Domain::Ps,
                        msg,
                    });
                }
                EmmDeviceOutput::RegChanged(reg) => {
                    if self.serving == RatSystem::Lte4g {
                        ev.push(StackEvent::RegChanged(reg));
                    }
                }
                EmmDeviceOutput::BearerActivated(bearer) => {
                    let mut out = Vec::new();
                    self.esm
                        .on_input(EsmDeviceInput::BearerInstalled(bearer), &mut out);
                    self.route_esm(out, ev);
                }
                EmmDeviceOutput::BearerDeleted => {
                    let mut out = Vec::new();
                    self.esm.on_input(EsmDeviceInput::BearerRemoved, &mut out);
                    self.route_esm(out, ev);
                }
                EmmDeviceOutput::ArmRetryTimer => {
                    ev.push(StackEvent::ArmEmmRetry);
                }
                EmmDeviceOutput::ArmTimer(timer) => {
                    ev.push(StackEvent::ArmNasTimer(timer));
                }
                EmmDeviceOutput::FallbackTo(system) => {
                    ev.push(StackEvent::WantsSwitchTo(system));
                }
            }
        }
    }

    fn route_sm(&mut self, outputs: Vec<SmDeviceOutput>, ev: &mut Vec<StackEvent>) {
        for o in outputs {
            match o {
                SmDeviceOutput::Send(msg) => ev.push(StackEvent::UplinkNas {
                    system: RatSystem::Utran3g,
                    domain: Domain::Ps,
                    msg,
                }),
                SmDeviceOutput::ContextActivated(_) => {
                    if self.data_enabled {
                        let mut r = Vec::new();
                        self.rrc3g.on_event(
                            Rrc3gEvent::PsTrafficStart {
                                high_rate: self.data_high_rate,
                            },
                            &mut r,
                        );
                    }
                    ev.push(StackEvent::DataService(true));
                }
                SmDeviceOutput::ContextDeactivated(cause) => {
                    let mut r = Vec::new();
                    self.rrc3g.on_event(Rrc3gEvent::PsTrafficStop, &mut r);
                    ev.push(StackEvent::DataService(false));
                    ev.push(StackEvent::Trace(
                        Protocol::Sm,
                        format!("PDP context deactivated: {}", cause.description()),
                    ));
                }
            }
        }
    }

    fn route_esm(&mut self, outputs: Vec<EsmDeviceOutput>, ev: &mut Vec<StackEvent>) {
        for o in outputs {
            match o {
                EsmDeviceOutput::Send(msg) => ev.push(StackEvent::UplinkNas {
                    system: RatSystem::Lte4g,
                    domain: Domain::Ps,
                    msg,
                }),
                EsmDeviceOutput::BearerActive(_) => ev.push(StackEvent::DataService(true)),
                EsmDeviceOutput::BearerInactive => ev.push(StackEvent::DataService(false)),
                EsmDeviceOutput::ArmRetryTimer => {
                    ev.push(StackEvent::ArmNasTimer(NasTimer::T3417));
                }
            }
        }
    }
}

impl Default for DeviceStack {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::EmmCause;

    /// Drive a full 4G attach handshake against a scripted MME.
    fn attach_4g(stack: &mut DeviceStack) {
        let mut ev = Vec::new();
        stack.power_on(RatSystem::Lte4g, &mut ev);
        assert!(matches!(
            ev[0],
            StackEvent::UplinkNas {
                system: RatSystem::Lte4g,
                msg: NasMessage::AttachRequest { .. },
                ..
            }
        ));
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Lte4g,
            Domain::Ps,
            NasMessage::AttachAccept,
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::RegChanged(Registration::Registered)));
        assert!(ev.contains(&StackEvent::DataService(true)));
        assert!(!stack.out_of_service());
        assert!(stack.data_service_available());
    }

    #[test]
    fn power_on_and_attach_4g() {
        let mut stack = DeviceStack::new();
        attach_4g(&mut stack);
    }

    #[test]
    fn s1_full_stack_roundtrip_without_pdp() {
        let mut stack = DeviceStack::new();
        attach_4g(&mut stack);
        // Switch to 3G (CSFB-style); the context migrates.
        let mut ev = Vec::new();
        stack.switch_4g_to_3g(&mut ev);
        assert_eq!(stack.serving, RatSystem::Utran3g);
        assert!(stack.sm.active_context().is_some());
        // The network deactivates the PDP context while in 3G.
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Ps,
            NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::OperatorDeterminedBarring,
                network_initiated: true,
            },
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::DataService(false)));
        // Switching back to 4G: no context to migrate ⇒ S1, out of service.
        let mut ev = Vec::new();
        stack.switch_3g_to_4g(&mut ev);
        assert!(stack.out_of_service(), "S1 reproduced on the full stack");
        assert!(ev.contains(&StackEvent::RegChanged(Registration::Deregistered)));
    }

    #[test]
    fn s1_remedy_on_full_stack_keeps_service() {
        let mut stack = DeviceStack::new().with_remedies();
        attach_4g(&mut stack);
        let mut ev = Vec::new();
        stack.switch_4g_to_3g(&mut ev);
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Ps,
            NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::OperatorDeterminedBarring,
                network_initiated: true,
            },
            &mut ev,
        );
        let mut ev = Vec::new();
        stack.switch_3g_to_4g(&mut ev);
        assert!(!stack.out_of_service(), "remedy keeps registration");
        // The stack immediately asks for a fresh bearer.
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::SessionActivateRequest { .. },
                ..
            }
        )));
    }

    #[test]
    fn s4_call_blocked_during_lau_on_full_stack() {
        let mut stack = DeviceStack::new();
        attach_4g(&mut stack);
        let mut ev = Vec::new();
        stack.switch_4g_to_3g(&mut ev);
        // switch_4g_to_3g left MM in LocationUpdating (row-6 update).
        let mut ev = Vec::new();
        stack.dial(&mut ev);
        assert!(
            ev.contains(&StackEvent::ServiceRequestBlocked),
            "CM service request HOL-blocked behind the update"
        );
    }

    #[test]
    fn full_call_flow_in_3g() {
        let mut stack = DeviceStack::new();
        stack.serving = RatSystem::Utran3g;
        stack.gmm.state = GmmDeviceState::Registered;
        let mut ev = Vec::new();
        stack.dial(&mut ev);
        // MM sends the CM service request straight away.
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::CmServiceRequest,
                ..
            }
        )));
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Cs,
            NasMessage::CmServiceAccept,
            &mut ev,
        );
        // CC sent Setup.
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::CallSetup,
                ..
            }
        )));
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Cs,
            NasMessage::CallConnect,
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::CallConnected));
        assert!(stack.rrc3g.cs_active);
        // Hang up.
        let mut ev = Vec::new();
        stack.hangup(&mut ev);
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Cs,
            NasMessage::CallDisconnect,
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::CallReleased));
        assert!(!stack.rrc3g.cs_active);
    }

    #[test]
    fn s2_reject_after_accept_on_full_stack() {
        let mut stack = DeviceStack::new();
        attach_4g(&mut stack);
        // TAU is rejected "implicitly detached" (the MME lost our complete).
        let mut ev = Vec::new();
        stack.trigger_update(UpdateKind::TrackingArea, &mut ev);
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Lte4g,
            Domain::Ps,
            NasMessage::UpdateReject(UpdateKind::TrackingArea, EmmCause::ImplicitlyDetached),
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::RegChanged(Registration::Deregistered)));
        assert!(ev.contains(&StackEvent::DataService(false)));
        // The device is already re-attaching.
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::AttachRequest { .. },
                ..
            }
        )));
    }

    #[test]
    fn data_toggle_in_3g_deactivates_context() {
        let mut stack = DeviceStack::new();
        attach_4g(&mut stack);
        let mut ev = Vec::new();
        stack.switch_4g_to_3g(&mut ev);
        let mut ev = Vec::new();
        stack.data_off(PdpDeactivationCause::RegularDeactivation, &mut ev);
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::SessionDeactivate { .. },
                ..
            }
        )));
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Ps,
            NasMessage::SessionDeactivateAccept,
            &mut ev,
        );
        assert!(!stack.data_service_available());
    }

    #[test]
    fn mt_call_flow_through_the_stack() {
        let mut stack = DeviceStack::new();
        stack.serving = RatSystem::Utran3g;
        stack.gmm.state = GmmDeviceState::Registered;
        // The MT SETUP arrives (after paging).
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Cs,
            NasMessage::CallSetup,
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::IncomingCallRinging));
        // CC alerts the network.
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::CallAlerting,
                ..
            }
        )));
        // The user answers.
        let mut ev = Vec::new();
        stack.answer(&mut ev);
        assert!(ev.contains(&StackEvent::CallConnected));
        assert!(stack.rrc3g.cs_active, "voice on DCH");
        // Remote hangs up.
        let mut ev = Vec::new();
        stack.deliver_nas(
            RatSystem::Utran3g,
            Domain::Cs,
            NasMessage::CallDisconnect,
            &mut ev,
        );
        assert!(ev.contains(&StackEvent::CallReleased));
        assert!(!stack.rrc3g.cs_active);
    }

    #[test]
    fn answer_without_ringing_is_ignored() {
        let mut stack = DeviceStack::new();
        let mut ev = Vec::new();
        stack.answer(&mut ev);
        assert!(ev.is_empty());
    }

    #[test]
    fn retransmission_stack_arms_and_dispatches_t3410() {
        let mut stack = DeviceStack::new().with_retransmission();
        let mut ev = Vec::new();
        stack.power_on(RatSystem::Lte4g, &mut ev);
        assert!(ev.contains(&StackEvent::ArmNasTimer(NasTimer::T3410)));
        assert!(!ev.contains(&StackEvent::ArmEmmRetry));
        // Expiry retransmits the attach and re-arms.
        let mut ev = Vec::new();
        stack.nas_timer(NasTimer::T3410, &mut ev);
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::AttachRequest { .. },
                ..
            }
        )));
        assert!(ev.contains(&StackEvent::ArmNasTimer(NasTimer::T3410)));
    }

    #[test]
    fn retransmission_stack_routes_t3417_to_esm() {
        let mut stack = DeviceStack::new().with_retransmission();
        attach_4g(&mut stack);
        // Lose the bearer, then ask for data: ESM sends + arms T3417.
        let mut ev = Vec::new();
        stack
            .esm
            .on_input(EsmDeviceInput::BearerRemoved, &mut Vec::new());
        stack.data_on(false, &mut ev);
        assert!(ev.contains(&StackEvent::ArmNasTimer(NasTimer::T3417)));
        let mut ev = Vec::new();
        stack.nas_timer(NasTimer::T3417, &mut ev);
        assert!(ev.iter().any(|e| matches!(
            e,
            StackEvent::UplinkNas {
                msg: NasMessage::SessionActivateRequest { .. },
                ..
            }
        )));
    }

    #[test]
    fn switch_4g_to_3g_migrates_ip() {
        let mut stack = DeviceStack::new();
        attach_4g(&mut stack);
        let ip_4g = stack.emm.bearer.unwrap().ip;
        let mut ev = Vec::new();
        stack.switch_4g_to_3g(&mut ev);
        assert_eq!(stack.sm.active_context().unwrap().ip, ip_4g);
    }
}
