//! EMM — 4G EPS Mobility Management (TS 24.301), device and MME side.
//!
//! Three findings run through this module:
//!
//! * **S1** — after a 3G→4G switch without an active PDP context, the EPS
//!   bearer context cannot be recovered; the MME rejects the tracking-area
//!   update with *No EPS bearer context activated* and the device detaches
//!   ("out of service"). The observed phone quirk — re-attaching only after
//!   the TAU reject rather than detaching immediately — is modeled by
//!   [`EmmDevice::quirk_tau_before_detach`].
//! * **S2** — the MME assumes reliable, in-sequence NAS transport. A lost
//!   *Attach Complete* leaves the MME in `WaitAttachComplete`; the next TAU
//!   is rejected "implicitly detached" (Figure 5a). A duplicate *Attach
//!   Request* arriving after registration makes the MME delete the EPS
//!   bearer context and reprocess (Figure 5b).
//! * **S6** — a 3G location-update failure relayed by the MSC is, in
//!   operator practice, forwarded to the device as a detach. The
//!   [`MmeEmm::forward_lu_failure`] flag is that practice; the §8 remedy
//!   clears it and recovers inside the core.

use serde::{Deserialize, Serialize};

use crate::causes::{AttachRejectCause, EmmCause, MmCause};
use crate::context::{EpsBearerContext, IpAddr, PdpContext, QosProfile};
use crate::msg::{NasMessage, UpdateKind};
use crate::timers::NasTimer;
use crate::types::{RatSystem, Registration};

/// Device-side EMM states (TS 24.301 §5.1.3, reduced to the procedures the
/// paper exercises).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmmDeviceState {
    /// Not registered — the paper's "out of service" in 4G.
    Deregistered,
    /// Attach request sent; waiting for accept/reject.
    RegisteredInitiated,
    /// Registered; normal service.
    Registered,
    /// Tracking-area update in flight.
    TauInitiated,
    /// Device-initiated detach in flight.
    DetachInitiated,
}

/// Inputs to the device-side EMM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmmDeviceInput {
    /// Power-on / user-initiated attach to 4G.
    AttachTrigger,
    /// A NAS message arrived from the MME (via RRC).
    Network(NasMessage),
    /// Mobility or the periodic timer triggered a tracking-area update.
    TauTrigger,
    /// User-initiated detach (power-off / mode change).
    DetachTrigger,
    /// The device completed an inter-system switch 3G→4G. `pdp` is the PDP
    /// context brought from 3G (to be migrated into an EPS bearer), `None`
    /// if 3G had deactivated it — the S1 trigger.
    SwitchedIn {
        /// PDP context carried over from 3G, if still active.
        pdp: Option<PdpContext>,
    },
    /// The attach-retry timer fired.
    RetryTimer,
    /// A named NAS retransmission timer expired ([`crate::timers`]). Only
    /// meaningful when [`EmmDevice::nas_retransmission`] is enabled.
    TimerExpiry(NasTimer),
}

/// Outputs of the device-side EMM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EmmDeviceOutput {
    /// Send a NAS message to the MME (over RRC — may be lost, §5.2).
    Send(NasMessage),
    /// Registration status changed (drives the "out of service" metric).
    RegChanged(Registration),
    /// The default EPS bearer is now considered active at the device.
    BearerActivated(EpsBearerContext),
    /// The EPS bearer context was deleted at the device.
    BearerDeleted,
    /// Arm the attach retry timer.
    ArmRetryTimer,
    /// Arm a named NAS retransmission timer (emitted instead of
    /// [`EmmDeviceOutput::ArmRetryTimer`] when
    /// [`EmmDevice::nas_retransmission`] is on).
    ArmTimer(NasTimer),
    /// All retries exhausted; the device will try the other system.
    FallbackTo(RatSystem),
}

/// Device-side EMM machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EmmDevice {
    /// Current EMM state.
    pub state: EmmDeviceState,
    /// Local copy of the EPS bearer context.
    pub bearer: Option<EpsBearerContext>,
    /// Attach attempts since the last success.
    pub attach_attempts: u8,
    /// Maximum attach retries before falling back to 3G (TS 24.301 attach
    /// attempt counter is 5).
    pub max_attach_attempts: u8,
    /// Phone quirk (§5.1.3): on a 3G→4G switch without a PDP context the
    /// phone does not detach immediately (as the standard says) but first
    /// runs a TAU and waits for the reject. Extends the outage (Figure 4).
    pub quirk_tau_before_detach: bool,
    /// §8 cross-system remedy: instead of detaching when no context exists
    /// after a switch, immediately (re)activate an EPS bearer while still
    /// registered.
    pub remedy_reactivate_bearer: bool,
    /// TAU retransmissions since the last TAU outcome (T3430 expiries).
    pub tau_attempts: u8,
    /// Bound on TAU retransmissions before the procedure is abandoned.
    pub max_tau_attempts: u8,
    /// Model the TS 24.301 NAS retransmission timers (T3410/T3411/T3402 for
    /// attach, T3430 for TAU): requests are retransmitted on
    /// [`EmmDeviceInput::TimerExpiry`], bounded by the attempt counters.
    /// Off by default — the bare machine then matches the standards text the
    /// paper analyses, where a lost NAS message is simply lost.
    pub nas_retransmission: bool,
}

impl EmmDevice {
    /// A deregistered device with standard-conforming behaviour.
    pub fn new() -> Self {
        Self {
            state: EmmDeviceState::Deregistered,
            bearer: None,
            attach_attempts: 0,
            max_attach_attempts: 5,
            quirk_tau_before_detach: false,
            remedy_reactivate_bearer: false,
            tau_attempts: 0,
            max_tau_attempts: crate::timers::MAX_NAS_RETRIES,
            nas_retransmission: false,
        }
    }

    /// Enable the §8 cross-system remedy.
    pub fn with_remedy(mut self) -> Self {
        self.remedy_reactivate_bearer = true;
        self
    }

    /// Enable the 3GPP NAS retransmission timers.
    pub fn with_retransmission(mut self) -> Self {
        self.nas_retransmission = true;
        self
    }

    /// Is the device out of service in 4G?
    pub fn out_of_service(&self) -> bool {
        matches!(
            self.state,
            EmmDeviceState::Deregistered | EmmDeviceState::RegisteredInitiated
        )
    }

    fn detach_locally(&mut self, out: &mut Vec<EmmDeviceOutput>) {
        self.tau_attempts = 0;
        if self.bearer.take().is_some() {
            out.push(EmmDeviceOutput::BearerDeleted);
        }
        if self.state != EmmDeviceState::Deregistered {
            self.state = EmmDeviceState::Deregistered;
            out.push(EmmDeviceOutput::RegChanged(Registration::Deregistered));
        }
    }

    fn start_attach(&mut self, out: &mut Vec<EmmDeviceOutput>) {
        self.state = EmmDeviceState::RegisteredInitiated;
        self.attach_attempts = self.attach_attempts.saturating_add(1);
        out.push(EmmDeviceOutput::Send(NasMessage::AttachRequest {
            system: RatSystem::Lte4g,
        }));
        if self.nas_retransmission {
            out.push(EmmDeviceOutput::ArmTimer(NasTimer::T3410));
        } else {
            out.push(EmmDeviceOutput::ArmRetryTimer);
        }
    }

    /// Arm T3430 for a freshly sent TAU request (retransmission mode only).
    fn arm_tau(&mut self, out: &mut Vec<EmmDeviceOutput>) {
        if self.nas_retransmission {
            self.tau_attempts = 1;
            out.push(EmmDeviceOutput::ArmTimer(NasTimer::T3430));
        }
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: EmmDeviceInput, out: &mut Vec<EmmDeviceOutput>) {
        match input {
            EmmDeviceInput::AttachTrigger => {
                if self.state == EmmDeviceState::Deregistered {
                    self.attach_attempts = 0;
                    self.start_attach(out);
                }
            }
            EmmDeviceInput::RetryTimer => {
                if self.state == EmmDeviceState::RegisteredInitiated {
                    if self.attach_attempts >= self.max_attach_attempts {
                        self.state = EmmDeviceState::Deregistered;
                        out.push(EmmDeviceOutput::FallbackTo(RatSystem::Utran3g));
                    } else {
                        self.start_attach(out);
                    }
                }
            }
            EmmDeviceInput::TauTrigger => {
                // A trigger while a TAU is already in flight retransmits it
                // (T3430 expiry behaviour) — without this, a lost TAU
                // request would wedge the machine forever.
                if matches!(
                    self.state,
                    EmmDeviceState::Registered | EmmDeviceState::TauInitiated
                ) {
                    self.state = EmmDeviceState::TauInitiated;
                    out.push(EmmDeviceOutput::Send(NasMessage::UpdateRequest(
                        UpdateKind::TrackingArea,
                    )));
                    self.arm_tau(out);
                }
            }
            EmmDeviceInput::DetachTrigger => {
                if self.state == EmmDeviceState::Registered {
                    self.state = EmmDeviceState::DetachInitiated;
                    out.push(EmmDeviceOutput::Send(NasMessage::DetachRequest));
                } else {
                    self.detach_locally(out);
                }
            }
            EmmDeviceInput::SwitchedIn { pdp } => match pdp.and_then(|p| p.to_eps_bearer(5)) {
                Some(bearer) => {
                    // Context migrated: the device is registered in 4G and
                    // refreshes its location via TAU (Figure 3, mirrored).
                    self.bearer = Some(bearer);
                    let was_oos = self.out_of_service();
                    self.state = EmmDeviceState::TauInitiated;
                    if was_oos {
                        out.push(EmmDeviceOutput::RegChanged(Registration::Registered));
                    }
                    out.push(EmmDeviceOutput::BearerActivated(bearer));
                    out.push(EmmDeviceOutput::Send(NasMessage::UpdateRequest(
                        UpdateKind::TrackingArea,
                    )));
                    self.arm_tau(out);
                }
                None if self.state == EmmDeviceState::Deregistered => {
                    // First entry into 4G (the device was never registered
                    // there): run a fresh attach — no S1 hazard applies.
                    self.attach_attempts = 0;
                    self.start_attach(out);
                }
                None => {
                    // S1: no usable context after the switch.
                    if self.remedy_reactivate_bearer {
                        // §8: stay registered, immediately activate a bearer.
                        let was_oos = self.out_of_service();
                        self.state = EmmDeviceState::Registered;
                        if was_oos {
                            out.push(EmmDeviceOutput::RegChanged(Registration::Registered));
                        }
                        out.push(EmmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                            system: RatSystem::Lte4g,
                        }));
                    } else if self.quirk_tau_before_detach {
                        // Observed phone behaviour: TAU first, detach on the
                        // reject (extends the outage).
                        self.state = EmmDeviceState::TauInitiated;
                        out.push(EmmDeviceOutput::Send(NasMessage::UpdateRequest(
                            UpdateKind::TrackingArea,
                        )));
                        self.arm_tau(out);
                    } else {
                        // Standards: detach immediately.
                        self.detach_locally(out);
                    }
                }
            },
            EmmDeviceInput::TimerExpiry(timer) => self.on_timer(timer, out),
            EmmDeviceInput::Network(msg) => self.on_network(msg, out),
        }
    }

    /// Expiry of a named NAS timer (TS 24.301 §5.5.1.2.6 / §5.5.3.2.6
    /// "abnormal cases"). Ignored unless retransmission is modeled — the
    /// legacy [`EmmDeviceInput::RetryTimer`] path is untouched either way.
    fn on_timer(&mut self, timer: NasTimer, out: &mut Vec<EmmDeviceOutput>) {
        if !self.nas_retransmission {
            return;
        }
        match timer {
            NasTimer::T3410 => {
                // Attach supervision: retransmit while the attempt counter
                // allows, then arm the long back-off and fall back.
                if self.state == EmmDeviceState::RegisteredInitiated {
                    if self.attach_attempts >= self.max_attach_attempts {
                        self.state = EmmDeviceState::Deregistered;
                        out.push(EmmDeviceOutput::ArmTimer(NasTimer::T3402));
                        out.push(EmmDeviceOutput::FallbackTo(RatSystem::Utran3g));
                    } else {
                        self.start_attach(out);
                    }
                }
            }
            NasTimer::T3411 => {
                // Short retry wait after an abandoned attempt: re-run the
                // attach if the counter still allows.
                if self.state == EmmDeviceState::Deregistered
                    && self.attach_attempts > 0
                    && self.attach_attempts < self.max_attach_attempts
                {
                    self.start_attach(out);
                }
            }
            NasTimer::T3402 => {
                // Long back-off: the attempt counter resets and the device
                // tries again from scratch.
                if self.state == EmmDeviceState::Deregistered {
                    self.attach_attempts = 0;
                    self.start_attach(out);
                }
            }
            NasTimer::T3430 => {
                // TAU supervision: bounded retransmission, then abandon the
                // procedure — locally detach and re-attach (§5.5.3.2.6 e).
                if self.state == EmmDeviceState::TauInitiated {
                    if self.tau_attempts < self.max_tau_attempts {
                        self.tau_attempts = self.tau_attempts.saturating_add(1);
                        out.push(EmmDeviceOutput::Send(NasMessage::UpdateRequest(
                            UpdateKind::TrackingArea,
                        )));
                        out.push(EmmDeviceOutput::ArmTimer(NasTimer::T3430));
                    } else {
                        self.detach_locally(out);
                        if self.attach_attempts < self.max_attach_attempts {
                            self.start_attach(out);
                        } else {
                            out.push(EmmDeviceOutput::FallbackTo(RatSystem::Utran3g));
                        }
                    }
                }
            }
            // T3417 supervises the service request / standalone bearer
            // activation, which ESM owns; EMM ignores it.
            NasTimer::T3417 => {}
        }
    }

    fn on_network(&mut self, msg: NasMessage, out: &mut Vec<EmmDeviceOutput>) {
        match (self.state, msg) {
            (EmmDeviceState::RegisteredInitiated, NasMessage::AttachAccept) => {
                self.state = EmmDeviceState::Registered;
                self.attach_attempts = 0;
                let bearer =
                    EpsBearerContext::active(5, IpAddr(0x0a00_0001), QosProfile::best_effort());
                self.bearer = Some(bearer);
                out.push(EmmDeviceOutput::RegChanged(Registration::Registered));
                out.push(EmmDeviceOutput::BearerActivated(bearer));
                // Step 3 of Figure 5(a): the message whose loss causes S2.
                out.push(EmmDeviceOutput::Send(NasMessage::AttachComplete));
            }
            (EmmDeviceState::RegisteredInitiated, NasMessage::AttachReject(cause)) => {
                self.detach_locally(out);
                if !cause.retry_allowed() {
                    // Permanent cause: the attempt counter is exhausted and
                    // the device stays barred.
                    self.attach_attempts = self.max_attach_attempts;
                } else if self.attach_attempts < self.max_attach_attempts {
                    // Temporary cause: re-attach after T3411 (modeled as an
                    // immediate bounded retry).
                    self.start_attach(out);
                } else {
                    out.push(EmmDeviceOutput::FallbackTo(RatSystem::Utran3g));
                }
            }
            (EmmDeviceState::TauInitiated, NasMessage::UpdateAccept(UpdateKind::TrackingArea)) => {
                self.state = EmmDeviceState::Registered;
                self.tau_attempts = 0;
            }
            (EmmDeviceState::Registered, NasMessage::AttachAccept) if self.nas_retransmission => {
                // A duplicate Attach Accept means the MME retransmitted it
                // (T3450 on its side) because our Attach Complete was lost:
                // resend the complete instead of discarding the accept —
                // this is the standards' answer to the S2 lost-signal case.
                out.push(EmmDeviceOutput::Send(NasMessage::AttachComplete));
            }
            (
                EmmDeviceState::TauInitiated,
                NasMessage::UpdateReject(UpdateKind::TrackingArea, _cause),
            ) => {
                // S1/S2/S6: the reject implicitly detaches the device; it
                // re-attaches from scratch (bounded by the attempt counter,
                // like every other attach path).
                self.detach_locally(out);
                if self.attach_attempts < self.max_attach_attempts {
                    self.start_attach(out);
                } else {
                    out.push(EmmDeviceOutput::FallbackTo(RatSystem::Utran3g));
                }
            }
            (EmmDeviceState::DetachInitiated, NasMessage::DetachAccept) => {
                self.detach_locally(out);
            }
            (_, NasMessage::NetworkDetach(_cause)) => {
                // Network-initiated detach reaches the device in any state.
                // The phone then auto-recovers by re-attaching (the paper's
                // user study counts "auto recovery from the out-of-service
                // state" among its attaches), bounded by the attempt counter.
                self.detach_locally(out);
                if self.attach_attempts < self.max_attach_attempts {
                    self.start_attach(out);
                }
            }
            _ => {
                // Unexpected (state, message) pairs are ignored, as NAS
                // machines discard messages that do not fit the state.
            }
        }
    }
}

impl Default for EmmDevice {
    fn default() -> Self {
        Self::new()
    }
}

/// MME-side per-UE EMM states.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmeUeState {
    /// UE unknown / detached.
    Deregistered,
    /// Attach accept sent; waiting for attach complete (the window the S2
    /// lost-signal case exploits).
    WaitAttachComplete,
    /// UE registered.
    Registered,
}

/// Inputs to the MME-side machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmeInput {
    /// Uplink NAS from the device.
    Uplink(NasMessage),
    /// The device context arrived via the 3G→4G switch path (gateways + MME
    /// collaborate, §5.1.1). Carries the migrated PDP context if any.
    SwitchedIn {
        /// PDP context transferred from the 3G side, if it was active.
        pdp: Option<PdpContext>,
    },
    /// MSC relayed a 3G location-update failure for this UE (S6).
    MscLocationUpdateFailure(MmCause),
}

/// Outputs of the MME-side machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MmeOutput {
    /// Send a NAS message down to the device.
    Send(NasMessage),
    /// The MME deleted the UE's EPS bearer context.
    BearerDeleted,
    /// The MME (re)created the UE's EPS bearer context.
    BearerCreated(EpsBearerContext),
    /// §8 remedy: the MME re-runs the 3G location update towards the MSC on
    /// behalf of the device instead of detaching it.
    RecoverLocationUpdateWithMsc,
}

/// How the MME disposes of a duplicate attach request received while the UE
/// is registered (both outcomes are allowed by TS 24.301 — "two outcomes are
/// possible", §5.2.1 — so the checker explores both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DuplicateAttachPolicy {
    /// Reprocess and accept: bearer torn down and rebuilt (service gap).
    ReprocessAccept,
    /// Reprocess and reject: device goes out of service.
    ReprocessReject(AttachRejectCause),
}

/// MME-side EMM machine for a single UE.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MmeEmm {
    /// Current per-UE state.
    pub state: MmeUeState,
    /// The UE's EPS bearer context as the MME sees it.
    pub bearer: Option<EpsBearerContext>,
    /// Disposal of duplicate attach requests while registered.
    pub duplicate_policy: DuplicateAttachPolicy,
    /// Operator practice behind S6: forward 3G location-update failures to
    /// the device as a detach. The §8 remedy sets this to `false` and
    /// recovers inside the core network.
    pub forward_lu_failure: bool,
    /// §8 cross-system remedy for S1 ("one detach condition should be
    /// removed in the standard"): when a UE that was registered in 4G
    /// returns from 3G without a usable context, keep it registered and
    /// let it reactivate an EPS bearer instead of deregistering it.
    pub remedy_keep_registration: bool,
}

impl MmeEmm {
    /// An MME with the UE deregistered and carrier-typical policies.
    pub fn new() -> Self {
        Self {
            state: MmeUeState::Deregistered,
            bearer: None,
            duplicate_policy: DuplicateAttachPolicy::ReprocessAccept,
            forward_lu_failure: true,
            remedy_keep_registration: false,
        }
    }

    /// Use the §8 cross-system coordination remedies (S1 and S6).
    pub fn with_remedy(mut self) -> Self {
        self.forward_lu_failure = false;
        self.remedy_keep_registration = true;
        self
    }

    fn accept_attach(&mut self, out: &mut Vec<MmeOutput>) {
        self.state = MmeUeState::WaitAttachComplete;
        out.push(MmeOutput::Send(NasMessage::AttachAccept));
    }

    /// Feed an input; outputs are appended to `out`.
    pub fn on_input(&mut self, input: MmeInput, out: &mut Vec<MmeOutput>) {
        match input {
            MmeInput::Uplink(msg) => self.on_uplink(msg, out),
            MmeInput::SwitchedIn { pdp } => {
                match pdp.and_then(|p| p.to_eps_bearer(5)) {
                    Some(bearer) => {
                        self.bearer = Some(bearer);
                        self.state = MmeUeState::Registered;
                        out.push(MmeOutput::BearerCreated(bearer));
                    }
                    None => {
                        // No context could be migrated.
                        if self.bearer.take().is_some() {
                            out.push(MmeOutput::BearerDeleted);
                        }
                        if self.remedy_keep_registration && self.state == MmeUeState::Registered {
                            // §8: the UE stays registered and may simply
                            // reactivate a bearer.
                        } else {
                            // Standards: the UE's TAU will be rejected (S1).
                            self.state = MmeUeState::Deregistered;
                        }
                    }
                }
            }
            MmeInput::MscLocationUpdateFailure(cause) => {
                if self.state != MmeUeState::Registered {
                    return;
                }
                if self.forward_lu_failure {
                    // Operational slip (S6): the internal failure is exposed
                    // to the device, which loses service.
                    let emm_cause = match cause {
                        MmCause::UpdateSuperseded => EmmCause::MscTemporarilyNotReachable,
                        _ => EmmCause::ImplicitlyDetached,
                    };
                    self.state = MmeUeState::Deregistered;
                    if self.bearer.take().is_some() {
                        out.push(MmeOutput::BearerDeleted);
                    }
                    out.push(MmeOutput::Send(NasMessage::NetworkDetach(emm_cause)));
                } else {
                    // §8 remedy: recover with the MSC on behalf of the UE.
                    out.push(MmeOutput::RecoverLocationUpdateWithMsc);
                }
            }
        }
    }

    fn on_uplink(&mut self, msg: NasMessage, out: &mut Vec<MmeOutput>) {
        match (self.state, msg) {
            (MmeUeState::Deregistered, NasMessage::AttachRequest { .. }) => {
                self.accept_attach(out);
            }
            (MmeUeState::WaitAttachComplete, NasMessage::AttachComplete) => {
                self.state = MmeUeState::Registered;
                let bearer =
                    EpsBearerContext::active(5, IpAddr(0x0a00_0001), QosProfile::best_effort());
                self.bearer = Some(bearer);
                out.push(MmeOutput::BearerCreated(bearer));
            }
            (MmeUeState::WaitAttachComplete, NasMessage::AttachRequest { .. }) => {
                // Retransmitted attach request (the device never saw our
                // accept, or our accept crossed it): restart the accept.
                self.accept_attach(out);
            }
            (
                MmeUeState::WaitAttachComplete,
                NasMessage::UpdateRequest(UpdateKind::TrackingArea),
            ) => {
                // S2, lost-signal case (Figure 5a): "EMM at MME does not
                // process it since it believes the attach procedure has not
                // completed yet" — reject with implicit detach.
                self.state = MmeUeState::Deregistered;
                if self.bearer.take().is_some() {
                    out.push(MmeOutput::BearerDeleted);
                }
                out.push(MmeOutput::Send(NasMessage::UpdateReject(
                    UpdateKind::TrackingArea,
                    EmmCause::ImplicitlyDetached,
                )));
            }
            (MmeUeState::Registered, NasMessage::AttachRequest { .. }) => {
                // S2, duplicate-signal case (Figure 5b): the standards
                // stipulate the bearer context is deleted and the request
                // reprocessed.
                if self.bearer.take().is_some() {
                    out.push(MmeOutput::BearerDeleted);
                }
                match self.duplicate_policy {
                    DuplicateAttachPolicy::ReprocessAccept => self.accept_attach(out),
                    DuplicateAttachPolicy::ReprocessReject(cause) => {
                        self.state = MmeUeState::Deregistered;
                        out.push(MmeOutput::Send(NasMessage::AttachReject(cause)));
                    }
                }
            }
            (MmeUeState::Registered, NasMessage::UpdateRequest(UpdateKind::TrackingArea)) => {
                if self.bearer.is_some() {
                    out.push(MmeOutput::Send(NasMessage::UpdateAccept(
                        UpdateKind::TrackingArea,
                    )));
                } else {
                    // S1: registered but no bearer context — 4G cannot serve
                    // a PS-only device.
                    self.state = MmeUeState::Deregistered;
                    out.push(MmeOutput::Send(NasMessage::UpdateReject(
                        UpdateKind::TrackingArea,
                        EmmCause::NoEpsBearerContextActivated,
                    )));
                }
            }
            (MmeUeState::Deregistered, NasMessage::UpdateRequest(UpdateKind::TrackingArea)) => {
                // TAU from an unknown UE (e.g. after S1's failed context
                // migration): implicit detach.
                out.push(MmeOutput::Send(NasMessage::UpdateReject(
                    UpdateKind::TrackingArea,
                    EmmCause::NoEpsBearerContextActivated,
                )));
            }
            (MmeUeState::Registered, NasMessage::SessionActivateRequest { .. }) => {
                // Standalone bearer (re)activation from a registered UE —
                // the §8 S1 remedy's recovery path.
                let bearer =
                    EpsBearerContext::active(5, IpAddr(0x0a00_0001), QosProfile::best_effort());
                self.bearer = Some(bearer);
                out.push(MmeOutput::BearerCreated(bearer));
                out.push(MmeOutput::Send(NasMessage::SessionActivateAccept));
            }
            (_, NasMessage::SessionActivateRequest { .. }) => {
                out.push(MmeOutput::Send(NasMessage::SessionActivateReject));
            }
            (_, NasMessage::DetachRequest) => {
                self.state = MmeUeState::Deregistered;
                if self.bearer.take().is_some() {
                    out.push(MmeOutput::BearerDeleted);
                }
                out.push(MmeOutput::Send(NasMessage::DetachAccept));
            }
            _ => {}
        }
    }
}

impl Default for MmeEmm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev_in(d: &mut EmmDevice, i: EmmDeviceInput) -> Vec<EmmDeviceOutput> {
        let mut out = Vec::new();
        d.on_input(i, &mut out);
        out
    }

    fn mme_in(m: &mut MmeEmm, i: MmeInput) -> Vec<MmeOutput> {
        let mut out = Vec::new();
        m.on_input(i, &mut out);
        out
    }

    /// Run a full, lossless attach handshake.
    fn attach_pair() -> (EmmDevice, MmeEmm) {
        let mut dev = EmmDevice::new();
        let mut mme = MmeEmm::new();
        let out = dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
        assert!(
            out.contains(&EmmDeviceOutput::Send(NasMessage::AttachRequest {
                system: RatSystem::Lte4g
            }))
        );
        mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            }),
        );
        let out = dev_in(&mut dev, EmmDeviceInput::Network(NasMessage::AttachAccept));
        assert!(out.contains(&EmmDeviceOutput::Send(NasMessage::AttachComplete)));
        mme_in(&mut mme, MmeInput::Uplink(NasMessage::AttachComplete));
        assert_eq!(dev.state, EmmDeviceState::Registered);
        assert_eq!(mme.state, MmeUeState::Registered);
        assert!(dev.bearer.is_some() && mme.bearer.is_some());
        (dev, mme)
    }

    #[test]
    fn clean_attach_registers_both_sides() {
        attach_pair();
    }

    #[test]
    fn s2_lost_attach_complete_rejects_next_tau() {
        let mut dev = EmmDevice::new();
        let mut mme = MmeEmm::new();
        dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
        mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            }),
        );
        dev_in(&mut dev, EmmDeviceInput::Network(NasMessage::AttachAccept));
        // Attach Complete LOST: the MME never sees it.
        assert_eq!(mme.state, MmeUeState::WaitAttachComplete);
        assert_eq!(
            dev.state,
            EmmDeviceState::Registered,
            "device believes it attached"
        );

        // Device later runs a TAU (Figure 5a steps 4-5).
        dev_in(&mut dev, EmmDeviceInput::TauTrigger);
        let out = mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::UpdateRequest(UpdateKind::TrackingArea)),
        );
        assert!(out.contains(&MmeOutput::Send(NasMessage::UpdateReject(
            UpdateKind::TrackingArea,
            EmmCause::ImplicitlyDetached
        ))));
        // The reject detaches the device right after a successful attach.
        let out = dev_in(
            &mut dev,
            EmmDeviceInput::Network(NasMessage::UpdateReject(
                UpdateKind::TrackingArea,
                EmmCause::ImplicitlyDetached,
            )),
        );
        assert!(out.contains(&EmmDeviceOutput::RegChanged(Registration::Deregistered)));
        assert!(out.contains(&EmmDeviceOutput::BearerDeleted));
        // ... and it immediately starts re-attaching.
        assert_eq!(dev.state, EmmDeviceState::RegisteredInitiated);
    }

    #[test]
    fn s2_duplicate_attach_deletes_bearer() {
        let (_dev, mut mme) = attach_pair();
        // The stale duplicate Attach Request arrives via the slow BS.
        let out = mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            }),
        );
        assert!(out.contains(&MmeOutput::BearerDeleted));
        // ReprocessAccept: the MME restarts the attach handshake.
        assert_eq!(mme.state, MmeUeState::WaitAttachComplete);
    }

    #[test]
    fn s2_duplicate_attach_reject_policy() {
        let (_dev, mut mme) = attach_pair();
        mme.duplicate_policy =
            DuplicateAttachPolicy::ReprocessReject(AttachRejectCause::NetworkFailure);
        let out = mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            }),
        );
        assert!(out.contains(&MmeOutput::Send(NasMessage::AttachReject(
            AttachRejectCause::NetworkFailure
        ))));
        assert_eq!(mme.state, MmeUeState::Deregistered);
    }

    #[test]
    fn s1_switch_in_without_pdp_standard_detaches() {
        let (mut dev, _) = attach_pair();
        // Pretend the device went to 3G and came back with no PDP context.
        let out = dev_in(&mut dev, EmmDeviceInput::SwitchedIn { pdp: None });
        assert!(out.contains(&EmmDeviceOutput::RegChanged(Registration::Deregistered)));
        assert!(dev.out_of_service());
    }

    #[test]
    fn s1_quirk_taus_first_then_detaches_on_reject() {
        let (dev, mut mme) = attach_pair();
        let mut dev = EmmDevice {
            quirk_tau_before_detach: true,
            ..dev
        };
        let out = dev_in(&mut dev, EmmDeviceInput::SwitchedIn { pdp: None });
        assert!(
            out.contains(&EmmDeviceOutput::Send(NasMessage::UpdateRequest(
                UpdateKind::TrackingArea
            )))
        );
        assert!(!dev.out_of_service(), "quirk defers the detach");
        // The MME lost the context too (switch without PDP).
        mme_in(&mut mme, MmeInput::SwitchedIn { pdp: None });
        let out = mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::UpdateRequest(UpdateKind::TrackingArea)),
        );
        assert!(out.contains(&MmeOutput::Send(NasMessage::UpdateReject(
            UpdateKind::TrackingArea,
            EmmCause::NoEpsBearerContextActivated
        ))));
        // Reject arrives: device detaches and re-attaches (Figure 4 window).
        let out = dev_in(
            &mut dev,
            EmmDeviceInput::Network(NasMessage::UpdateReject(
                UpdateKind::TrackingArea,
                EmmCause::NoEpsBearerContextActivated,
            )),
        );
        assert!(out.contains(&EmmDeviceOutput::RegChanged(Registration::Deregistered)));
        assert_eq!(dev.state, EmmDeviceState::RegisteredInitiated);
    }

    #[test]
    fn s1_remedy_keeps_registration() {
        let (dev, _) = attach_pair();
        let mut dev = EmmDevice {
            remedy_reactivate_bearer: true,
            ..dev
        };
        let out = dev_in(&mut dev, EmmDeviceInput::SwitchedIn { pdp: None });
        assert!(!dev.out_of_service());
        assert!(
            out.contains(&EmmDeviceOutput::Send(NasMessage::SessionActivateRequest {
                system: RatSystem::Lte4g
            }))
        );
    }

    #[test]
    fn switch_in_with_pdp_migrates_context() {
        let (mut dev, mut mme) = attach_pair();
        let pdp = PdpContext::active(5, IpAddr(0x0a00_0002), QosProfile::best_effort());
        let out = dev_in(&mut dev, EmmDeviceInput::SwitchedIn { pdp: Some(pdp) });
        assert!(out
            .iter()
            .any(|o| matches!(o, EmmDeviceOutput::BearerActivated(b) if b.ip == pdp.ip)));
        let out = mme_in(&mut mme, MmeInput::SwitchedIn { pdp: Some(pdp) });
        assert!(out
            .iter()
            .any(|o| matches!(o, MmeOutput::BearerCreated(b) if b.ip == pdp.ip)));
        // TAU then succeeds.
        let out = mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::UpdateRequest(UpdateKind::TrackingArea)),
        );
        assert!(out.contains(&MmeOutput::Send(NasMessage::UpdateAccept(
            UpdateKind::TrackingArea
        ))));
    }

    #[test]
    fn s6_lu_failure_forwarded_detaches_device() {
        let (mut dev, mut mme) = attach_pair();
        let out = mme_in(
            &mut mme,
            MmeInput::MscLocationUpdateFailure(MmCause::LocationUpdateFailure),
        );
        let detach = out
            .iter()
            .find_map(|o| match o {
                MmeOutput::Send(NasMessage::NetworkDetach(c)) => Some(*c),
                _ => None,
            })
            .expect("detach forwarded");
        assert_eq!(detach, EmmCause::ImplicitlyDetached);
        let out = dev_in(
            &mut dev,
            EmmDeviceInput::Network(NasMessage::NetworkDetach(detach)),
        );
        assert!(out.contains(&EmmDeviceOutput::RegChanged(Registration::Deregistered)));
    }

    #[test]
    fn s6_superseded_update_maps_to_msc_not_reachable() {
        let (_, mut mme) = attach_pair();
        let out = mme_in(
            &mut mme,
            MmeInput::MscLocationUpdateFailure(MmCause::UpdateSuperseded),
        );
        assert!(out.contains(&MmeOutput::Send(NasMessage::NetworkDetach(
            EmmCause::MscTemporarilyNotReachable
        ))));
    }

    #[test]
    fn s6_remedy_recovers_inside_core() {
        let (_, mme) = attach_pair();
        let mut mme = MmeEmm {
            forward_lu_failure: false,
            ..mme
        };
        let out = mme_in(
            &mut mme,
            MmeInput::MscLocationUpdateFailure(MmCause::LocationUpdateFailure),
        );
        assert_eq!(out, vec![MmeOutput::RecoverLocationUpdateWithMsc]);
        assert_eq!(mme.state, MmeUeState::Registered, "device unaffected");
    }

    #[test]
    fn attach_retries_then_falls_back_to_3g() {
        let mut dev = EmmDevice::new();
        dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
        for _ in 0..4 {
            let out = dev_in(&mut dev, EmmDeviceInput::RetryTimer);
            assert!(out.iter().any(|o| matches!(o, EmmDeviceOutput::Send(_))));
        }
        let out = dev_in(&mut dev, EmmDeviceInput::RetryTimer);
        assert!(out.contains(&EmmDeviceOutput::FallbackTo(RatSystem::Utran3g)));
        assert!(dev.out_of_service());
    }

    #[test]
    fn permanent_reject_stops_retries() {
        let mut dev = EmmDevice::new();
        dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
        dev_in(
            &mut dev,
            EmmDeviceInput::Network(NasMessage::AttachReject(AttachRejectCause::PlmnNotAllowed)),
        );
        assert_eq!(dev.attach_attempts, dev.max_attach_attempts);
        assert!(dev.out_of_service());
    }

    /// §3.2.1 screens the attach against every reject cause (30+ in 4G).
    /// A permanent cause bars the device at once; a temporary one retries
    /// until the attempt counter forces the 3G fallback.
    #[test]
    fn every_reject_cause_settles_without_retrying_a_permanent_one() {
        let resent = |out: &[EmmDeviceOutput]| {
            out.iter()
                .any(|o| matches!(o, EmmDeviceOutput::Send(NasMessage::AttachRequest { .. })))
        };
        for cause in AttachRejectCause::ALL {
            let mut dev = EmmDevice::new();
            dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
            let reject = || EmmDeviceInput::Network(NasMessage::AttachReject(cause));
            if !cause.retry_allowed() {
                for input in [reject(), EmmDeviceInput::RetryTimer] {
                    let out = dev_in(&mut dev, input);
                    assert!(!resent(&out), "{cause:?}: re-sent after a permanent reject");
                    assert!(!out.contains(&EmmDeviceOutput::ArmRetryTimer), "{cause:?}");
                }
                assert!(dev.out_of_service(), "{cause:?}");
                continue;
            }
            let mut rejects = 0;
            let fell_back = loop {
                rejects += 1;
                let out = dev_in(&mut dev, reject());
                if out.contains(&EmmDeviceOutput::FallbackTo(RatSystem::Utran3g)) {
                    break true;
                }
                assert!(
                    resent(&out),
                    "{cause:?}: temporary reject {rejects} not retried"
                );
                if rejects >= dev.max_attach_attempts {
                    break false;
                }
            };
            assert!(
                fell_back,
                "{cause:?}: no 3G fallback within max_attach_attempts"
            );
        }
    }

    #[test]
    fn device_detach_handshake() {
        let (mut dev, mut mme) = attach_pair();
        let out = dev_in(&mut dev, EmmDeviceInput::DetachTrigger);
        assert!(out.contains(&EmmDeviceOutput::Send(NasMessage::DetachRequest)));
        let out = mme_in(&mut mme, MmeInput::Uplink(NasMessage::DetachRequest));
        assert!(out.contains(&MmeOutput::Send(NasMessage::DetachAccept)));
        assert!(out.contains(&MmeOutput::BearerDeleted));
        let out = dev_in(&mut dev, EmmDeviceInput::Network(NasMessage::DetachAccept));
        assert!(out.contains(&EmmDeviceOutput::RegChanged(Registration::Deregistered)));
    }

    #[test]
    fn retransmitted_attach_request_in_wait_state_reaccepts() {
        let mut mme = MmeEmm::new();
        mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            }),
        );
        let out = mme_in(
            &mut mme,
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            }),
        );
        assert!(out.contains(&MmeOutput::Send(NasMessage::AttachAccept)));
        assert_eq!(mme.state, MmeUeState::WaitAttachComplete);
    }

    #[test]
    fn t3410_retransmits_attach_then_backs_off_via_t3402() {
        let mut dev = EmmDevice::new().with_retransmission();
        let out = dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
        assert!(out.contains(&EmmDeviceOutput::ArmTimer(NasTimer::T3410)));
        for _ in 0..4 {
            let out = dev_in(&mut dev, EmmDeviceInput::TimerExpiry(NasTimer::T3410));
            assert!(
                out.contains(&EmmDeviceOutput::Send(NasMessage::AttachRequest {
                    system: RatSystem::Lte4g
                }))
            );
            assert!(out.contains(&EmmDeviceOutput::ArmTimer(NasTimer::T3410)));
        }
        // Fifth expiry: attempts exhausted — long back-off plus fallback.
        let out = dev_in(&mut dev, EmmDeviceInput::TimerExpiry(NasTimer::T3410));
        assert!(out.contains(&EmmDeviceOutput::ArmTimer(NasTimer::T3402)));
        assert!(out.contains(&EmmDeviceOutput::FallbackTo(RatSystem::Utran3g)));
        // T3402 expiry resets the counter and re-attaches.
        let out = dev_in(&mut dev, EmmDeviceInput::TimerExpiry(NasTimer::T3402));
        assert!(out.iter().any(|o| matches!(o, EmmDeviceOutput::Send(_))));
        assert_eq!(dev.attach_attempts, 1);
    }

    #[test]
    fn t3430_retransmits_tau_then_reattaches() {
        let (mut dev, _) = attach_pair();
        dev.nas_retransmission = true;
        let out = dev_in(&mut dev, EmmDeviceInput::TauTrigger);
        assert!(out.contains(&EmmDeviceOutput::ArmTimer(NasTimer::T3430)));
        assert_eq!(dev.tau_attempts, 1);
        for n in 2..=5 {
            let out = dev_in(&mut dev, EmmDeviceInput::TimerExpiry(NasTimer::T3430));
            assert!(
                out.contains(&EmmDeviceOutput::Send(NasMessage::UpdateRequest(
                    UpdateKind::TrackingArea
                )))
            );
            assert_eq!(dev.tau_attempts, n);
        }
        // Bound reached: the TAU is abandoned; local detach + re-attach.
        let out = dev_in(&mut dev, EmmDeviceInput::TimerExpiry(NasTimer::T3430));
        assert!(out.contains(&EmmDeviceOutput::RegChanged(Registration::Deregistered)));
        assert_eq!(dev.state, EmmDeviceState::RegisteredInitiated);
        assert_eq!(dev.tau_attempts, 0);
    }

    #[test]
    fn duplicate_attach_accept_resends_complete_with_retransmission() {
        let (mut dev, _) = attach_pair();
        // Without the flag the duplicate accept is silently discarded.
        let out = dev_in(&mut dev, EmmDeviceInput::Network(NasMessage::AttachAccept));
        assert!(out.is_empty());
        dev.nas_retransmission = true;
        let out = dev_in(&mut dev, EmmDeviceInput::Network(NasMessage::AttachAccept));
        assert_eq!(out, vec![EmmDeviceOutput::Send(NasMessage::AttachComplete)]);
    }

    #[test]
    fn timer_expiries_are_inert_without_the_flag() {
        let mut dev = EmmDevice::new();
        dev_in(&mut dev, EmmDeviceInput::AttachTrigger);
        for t in NasTimer::ALL {
            let out = dev_in(&mut dev, EmmDeviceInput::TimerExpiry(t));
            assert!(out.is_empty(), "{t} acted without the flag");
        }
        assert_eq!(dev.state, EmmDeviceState::RegisteredInitiated);
    }

    #[test]
    fn tau_accept_resets_the_retransmission_counter() {
        let (mut dev, _) = attach_pair();
        dev.nas_retransmission = true;
        dev_in(&mut dev, EmmDeviceInput::TauTrigger);
        dev_in(&mut dev, EmmDeviceInput::TimerExpiry(NasTimer::T3430));
        assert_eq!(dev.tau_attempts, 2);
        dev_in(
            &mut dev,
            EmmDeviceInput::Network(NasMessage::UpdateAccept(UpdateKind::TrackingArea)),
        );
        assert_eq!(dev.tau_attempts, 0);
        assert_eq!(dev.state, EmmDeviceState::Registered);
    }

    #[test]
    fn lu_failure_ignored_when_not_registered() {
        let mut mme = MmeEmm::new();
        let out = mme_in(
            &mut mme,
            MmeInput::MscLocationUpdateFailure(MmCause::LocationUpdateFailure),
        );
        assert!(out.is_empty());
    }
}
