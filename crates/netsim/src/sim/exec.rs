//! The per-event executive: all signaling choreography for one UE against
//! the shared carrier core.
//!
//! [`Exec`] borrows the disjoint pieces a handler needs — the phone
//! ([`Ue`]), the carrier ([`CarrierCore`]), the shared timing wheel and the
//! configuration — and performs exactly the choreography the pre-fleet
//! `World` did, with every latency drawn from the *UE's* RNG stream and
//! every carrier-machine access going through the per-IMSI session table.
//! The single-UE [`crate::World`] facade and the fleet driver both step
//! events through this executive on a [`TimingWheel`], which is what keeps
//! the two observably identical for one phone.

use std::collections::VecDeque;

use rand::Rng;

use cellstack::emm::{MmeInput, MmeOutput};
use cellstack::mm::{MscInput, MscOutput};
use cellstack::sm::SgsnSmOutput;
use cellstack::{
    AttachRejectCause, CsfbCall, Domain, EmmCause, NasMessage, NasTimer, Protocol, RatSystem,
    Registration, StackEvent, SwitchMechanism, UpdateKind,
};

use crate::inject::{AdvFate, Fate, Leg, NodeId};
use crate::metrics::{CallSetup, ThroughputSample};
use crate::node::{CarrierCore, CoreSession, Ue, UeId};
use crate::operator::Latencies;
use crate::radio::{achievable_kbps, ChannelConfig, Rssi};
use crate::rng::DurationDist;
use crate::sim::wheel::TimingWheel;
use crate::time::SimTime;
use crate::trace::{CallPhase, FaultEvent, FaultKind, HazardKind, TraceEvent, TraceType};
use crate::world::{Ev, WorldConfig};

/// RSSI when the phone is not driving (good signal).
const STATIC_RSSI_DBM: f64 = -70.0;
/// A ringing MT call is answered after this many ms (the §3.3
/// auto-answer test tool).
const AUTO_ANSWER_AFTER_MS: u64 = 3_000;
/// EMM attach retry interval, ms.
const EMM_RETRY_MS: u64 = 3_000;
/// 3G RRC inactivity step period, ms.
const RRC3G_INACTIVITY_MS: u64 = 4_000;
/// Probability the redirect return wins the race and disrupts the
/// deferred LAU, used only when [`WorldConfig::redirect_defers_to_lau`]
/// is set.
const S6_DISRUPT_PROB: f64 = 0.035;

/// A scheduled simulation event: either an event for the executive, or
/// the fleet's control event that materializes a lane's next planned
/// activity. The facade schedules only [`BlockEv::Sim`].
#[derive(Clone, Debug)]
pub(crate) enum BlockEv {
    /// An executive event.
    Sim(Ev),
    /// Materialize the lane's next pending activity.
    NextActivity,
}

/// One event-handling context: the UE the event belongs to, the carrier it
/// signals into, the wheel future events go to, and the clock.
pub(crate) struct Exec<'a> {
    /// Current simulated time (the time of the event being handled).
    pub now: SimTime,
    /// The UE's configuration (per-lane in a fleet).
    pub cfg: &'a WorldConfig,
    /// The phone.
    pub ue: &'a mut Ue,
    /// The shared carrier core.
    pub carrier: &'a mut CarrierCore,
    /// The shared timing wheel; scheduled events carry the UE's id.
    pub wheel: &'a mut TimingWheel<(UeId, BlockEv)>,
}

impl Exec<'_> {
    fn schedule_in(&mut self, delay_ms: u64, ev: Ev) {
        self.wheel
            .schedule(self.now + delay_ms, (self.ue.id, BlockEv::Sim(ev)));
    }

    /// Draw one latency from the carrier's table on the UE's stream.
    fn latency(&mut self, pick: fn(&Latencies) -> DurationDist) -> u64 {
        pick(self.cfg.op.latencies).sample_ms(&mut self.ue.rng)
    }

    /// The carrier session serving this UE.
    fn sess(&mut self) -> &mut CoreSession {
        self.carrier.session(self.ue.imsi)
    }

    /// Current RSSI: the drive position if driving, else the static value.
    fn current_rssi(&self) -> Rssi {
        match &self.ue.drive {
            Some(d) => d.route.rssi_at(self.ue.last_mile),
            None => Rssi(STATIC_RSSI_DBM),
        }
    }

    /// Current hour of simulated day.
    fn current_hour(&self) -> u32 {
        (self.cfg.start_hour + (self.now.as_millis() / 3_600_000) as u32) % 24
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    pub(crate) fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::PowerOn(system) => {
                self.ue.user_detached = false;
                let mut evs = Vec::new();
                self.ue.stack.power_on(system, &mut evs);
                self.process_stack_events(evs);
            }
            Ev::Detach => {
                self.ue.user_detached = true;
                let mut out = Vec::new();
                self.ue
                    .stack
                    .emm
                    .on_input(cellstack::emm::EmmDeviceInput::DetachTrigger, &mut out);
                let mut evs = Vec::new();
                // Route through the stack's EMM output handling.
                for o in out {
                    if let cellstack::emm::EmmDeviceOutput::Send(m) = o {
                        evs.push(StackEvent::UplinkNas {
                            system: RatSystem::Lte4g,
                            domain: Domain::Ps,
                            msg: m,
                        });
                    }
                }
                self.process_stack_events(evs);
            }
            Ev::Dial => self.on_dial(),
            Ev::IncomingCall => self.on_incoming_call(),
            Ev::Answer => {
                let mut evs = Vec::new();
                self.ue.stack.answer(&mut evs);
                self.process_stack_events(evs);
            }
            Ev::WifiAvailable => self.on_wifi_available(),
            Ev::CoverageEnter3g => {
                if self.ue.stack.serving == RatSystem::Lte4g && !self.ue.call_in_progress() {
                    let mut evs = Vec::new();
                    self.ue.stack.switch_4g_to_3g(&mut evs);
                    self.process_stack_events(evs);
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        RatSystem::Utran3g,
                        Protocol::Emm,
                        "coverage mobility: camped on 3G",
                        TraceEvent::CampedOn(RatSystem::Utran3g),
                    );
                }
            }
            Ev::CoverageReturn4g => {
                if self.ue.stack.serving == RatSystem::Utran3g && !self.ue.call_in_progress() {
                    // Reuse the full return choreography (context
                    // migration, S1/S6 hazards, metrics).
                    self.ue.return_scheduled = true;
                    self.on_return_to_4g();
                }
            }
            Ev::Hangup => {
                let mut evs = Vec::new();
                self.ue.stack.hangup(&mut evs);
                self.process_stack_events(evs);
            }
            Ev::DataStart { high_rate } => {
                let mut evs = Vec::new();
                self.ue.stack.data_on(high_rate, &mut evs);
                self.process_stack_events(evs);
                self.ue.data_session_active = true;
            }
            Ev::DataStop(cause) => {
                let mut evs = Vec::new();
                self.ue.stack.data_off(cause, &mut evs);
                self.process_stack_events(evs);
                self.ue.data_session_active = false;
            }
            Ev::NetworkDeactivatePdp(cause) => {
                let msg = self.sess().sgsn_sm.deactivate(cause);
                self.schedule_downlink(RatSystem::Utran3g, Domain::Ps, msg, None);
            }
            Ev::DataSessionEnd => {
                self.ue.data_session_active = false;
                // The session is over on the stack side too: a later
                // inter-system switch must not re-arm PS traffic from a
                // stale high-rate flag (that would pin 3G RRC at DCH and
                // strand a reselection-only carrier in 3G forever).
                self.ue.stack.data_enabled = false;
                self.ue.stack.data_high_rate = false;
                let mut r = Vec::new();
                self.ue
                    .stack
                    .rrc3g
                    .on_event(cellstack::rrc3g::Rrc3gEvent::PsTrafficStop, &mut r);
                self.schedule_in(RRC3G_INACTIVITY_MS, Ev::Rrc3gInactivity);
            }
            Ev::Rrc3gInactivity => {
                let mut r = Vec::new();
                self.ue
                    .stack
                    .rrc3g
                    .on_event(cellstack::rrc3g::Rrc3gEvent::InactivityTimeout, &mut r);
                if self.ue.stack.rrc3g.state.is_connected() && !self.ue.data_session_active {
                    self.schedule_in(RRC3G_INACTIVITY_MS, Ev::Rrc3gInactivity);
                }
            }
            Ev::ArriveAtCore {
                system,
                domain,
                msg,
            } => self.on_arrive_at_core(system, domain, msg),
            Ev::ArriveAtDevice {
                system,
                domain,
                msg,
            } => self.on_arrive_at_device(system, domain, msg),
            Ev::CsfbFallbackComplete => self.on_csfb_fallback_complete(),
            Ev::CheckReselection => self.on_check_reselection(),
            Ev::ReturnTo4gComplete => self.on_return_to_4g(),
            Ev::MmWaitNetCmdDone => {
                let mut evs = Vec::new();
                self.ue.stack.mm_network_command_done(&mut evs);
                self.process_stack_events(evs);
            }
            Ev::EmmRetryTimer => {
                self.ue.emm_retry_armed = false;
                let mut evs = Vec::new();
                self.ue.stack.emm_retry_timer(&mut evs);
                self.process_stack_events(evs);
            }
            Ev::NasTimer(t) => {
                let mut evs = Vec::new();
                self.ue.stack.nas_timer(t, &mut evs);
                self.process_stack_events(evs);
            }
            Ev::FaultPhaseEnd(i) => self.on_fault_phase_end(i),
            Ev::TriggerUpdate(kind) => {
                let mut evs = Vec::new();
                self.ue.stack.trigger_update(kind, &mut evs);
                self.process_stack_events(evs);
            }
            Ev::SpeedtestSample { uplink } => self.on_speedtest(uplink),
            Ev::DrivePosition => self.on_drive_position(),
        }
    }

    fn on_dial(&mut self) {
        if self.ue.dial_time.is_some() {
            return; // call already in progress
        }
        self.ue.dial_time = Some(self.now);
        self.ue.dial_during_update = self.ue.lau_start.is_some()
            || matches!(
                self.ue.stack.mm.state,
                cellstack::mm::MmDeviceState::LocationUpdating
                    | cellstack::mm::MmDeviceState::WaitForNetworkCommand
            );
        self.ue.trace.record_event(
            self.now,
            TraceType::UserAction,
            self.ue.stack.serving,
            Protocol::CmCc,
            "user dials",
            TraceEvent::Call(CallPhase::Dialed),
        );
        if self.ue.stack.serving == RatSystem::Lte4g {
            // CSFB: fall back to 3G first (§2, §5.1.1).
            let mut csfb = CsfbCall::new(self.cfg.op.defer_csfb_first_update);
            csfb.start();
            self.ue.csfb = Some(csfb);
            self.ue.return_scheduled = false;
            self.ue.lau_race_spared = false;
            let d = self.latency(|l| l.csfb_fallback_delay);
            self.schedule_in(d, Ev::CsfbFallbackComplete);
        } else {
            let mut evs = Vec::new();
            self.ue.stack.dial(&mut evs);
            self.process_stack_events(evs);
        }
    }

    fn on_incoming_call(&mut self) {
        if self.ue.dial_time.is_some() {
            return; // busy
        }
        self.ue.dial_time = Some(self.now);
        self.ue.dial_during_update = false;
        self.ue.trace.record_event(
            self.now,
            TraceType::UserAction,
            self.ue.stack.serving,
            Protocol::CmCc,
            "incoming call (network pages the device)",
            TraceEvent::Call(CallPhase::Incoming),
        );
        if self.ue.stack.serving == RatSystem::Lte4g {
            // CSFB paging: the device falls back to 3G first.
            let mut csfb = CsfbCall::new(self.cfg.op.defer_csfb_first_update);
            csfb.start();
            self.ue.csfb = Some(csfb);
            self.ue.return_scheduled = false;
            self.ue.lau_race_spared = false;
            let d = self.latency(|l| l.csfb_fallback_delay);
            self.schedule_in(d, Ev::CsfbFallbackComplete);
            // The MT setup is delivered once camped on 3G; mark it pending.
            self.ue.mt_call_pending = true;
        } else {
            for m in self.sess().msc_cc.originate_mt_call() {
                self.schedule_downlink(RatSystem::Utran3g, Domain::Cs, m, None);
            }
        }
    }

    fn on_wifi_available(&mut self) {
        self.ue.trace.record(
            self.now,
            TraceType::UserAction,
            self.ue.stack.serving,
            Protocol::Sm,
            "Wi-Fi available: mobile data disabled",
        );
        // "Most smartphones will disable the mobile data service whenever a
        // local WiFi network is accessible" (§5.1.3).
        if self.ue.stack.serving == RatSystem::Utran3g
            && self.cfg.phone_model.deactivates_pdp_on_wifi()
        {
            // HTC One / LG Optimus G additionally deactivate all PDP
            // contexts — the Wi-Fi flavour of the S1 trigger.
            let mut evs = Vec::new();
            self.ue.stack.data_off(
                cellstack::PdpDeactivationCause::RegularDeactivation,
                &mut evs,
            );
            self.process_stack_events(evs);
        } else {
            self.ue.stack.data_enabled = false;
        }
    }

    fn on_csfb_fallback_complete(&mut self) {
        let defer = self.cfg.op.defer_csfb_first_update;
        let mut evs = Vec::new();
        self.ue.stack.switch_4g_to_3g_with(defer, &mut evs);
        self.process_stack_events(evs);
        self.ue.trace.record_event(
            self.now,
            TraceType::State,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            "CSFB fallback complete: camped on 3G",
            TraceEvent::CampedOn(RatSystem::Utran3g),
        );
        if let Some(c) = self.ue.csfb.as_mut() {
            c.arrived_in_3g();
        }
        if defer {
            self.ue.deferred_lau_pending = true;
        }
        if std::mem::take(&mut self.ue.mt_call_pending) {
            // The paged MT call: the MSC delivers the SETUP now.
            for m in self.sess().msc_cc.originate_mt_call() {
                self.schedule_downlink(RatSystem::Utran3g, Domain::Cs, m, None);
            }
        } else {
            // Dial now that we are camped on 3G.
            let mut evs = Vec::new();
            self.ue.stack.dial(&mut evs);
            self.process_stack_events(evs);
        }
    }

    fn on_check_reselection(&mut self) {
        if self.ue.stack.serving != RatSystem::Utran3g || self.ue.return_scheduled {
            return;
        }
        if self
            .ue
            .stack
            .rrc3g
            .switch_allowed(SwitchMechanism::CellReselection)
        {
            self.ue.return_scheduled = true;
            let d = self.latency(|l| l.reselect_return_delay);
            self.schedule_in(d, Ev::ReturnTo4gComplete);
        } else {
            self.schedule_in(500, Ev::CheckReselection);
        }
    }

    fn on_return_to_4g(&mut self) {
        if self.ue.stack.serving != RatSystem::Utran3g {
            return;
        }
        // Fleet-calibrated OP-I refinement (§6.2): the release-with-
        // redirect return usually loses the race against the deferred LAU
        // — the paper observes S6 on only ~2.6% of CSFB calls, not on
        // every fast return. When enabled, the return re-polls until the
        // LAU completes, except for the configured fraction of episodes
        // where the redirect genuinely wins and disrupts the update. Off
        // by default: the single-UE goldens keep the original race.
        if self.cfg.redirect_defers_to_lau && self.ue.deferred_lau_pending {
            let lost = !self.ue.lau_race_spared && self.ue.rng.gen::<f64>() < S6_DISRUPT_PROB;
            if !lost {
                self.ue.lau_race_spared = true;
                let since = *self.ue.lau_race_wait_since.get_or_insert(self.now);
                // Bounded wait: a lost LAU cannot park the phone in 3G.
                if self.now.since(since) < 15_000 {
                    self.schedule_in(500, Ev::ReturnTo4gComplete);
                    return;
                }
            }
        }
        self.ue.lau_race_wait_since = None;
        self.ue.return_scheduled = false;
        // Table 6: time spent in 3G after the call ended.
        if let Some(end) = self.ue.call_end_time.take() {
            self.ue.metrics.stuck_in_3g_ms.push(self.now.since(end));
        }

        // S6, OP-I shape: the deferred device-initiated LU is disrupted by
        // the fast return; the MSC reports the failure to the MME.
        if self.ue.deferred_lau_pending {
            self.ue.deferred_lau_pending = false;
            self.ue.lau_start = None;
            let mut out = Vec::new();
            self.sess()
                .msc_mm
                .on_input(MscInput::UpdateDisrupted, &mut out);
            self.drain_msc_outputs(out);
        }

        // Context migration + EMM switch-in (the S1 hazard).
        let pdp = self.ue.stack.sm.active_context();
        let was_registered_4g =
            self.ue.stack.emm.state != cellstack::emm::EmmDeviceState::Deregistered;
        let mut out = Vec::new();
        self.sess()
            .mme
            .on_input(MmeInput::SwitchedIn { pdp }, &mut out);
        self.drain_mme_outputs(out);
        let mut evs = Vec::new();
        self.ue.stack.switch_3g_to_4g(&mut evs);
        // The device camps the instant the switch completes; consequences
        // of the switch (deregistration, context loss) trace after it.
        self.ue.trace.record_event(
            self.now,
            TraceType::State,
            RatSystem::Lte4g,
            Protocol::Rrc4g,
            "returned to 4G: camped on LTE",
            TraceEvent::CampedOn(RatSystem::Lte4g),
        );
        self.process_stack_events(evs);
        // S1: a previously-registered device returning without a usable
        // context (regardless of how the context was lost — call, data
        // toggle or Wi-Fi switch, §5.1.3), unless the §8 remedy kept it.
        if pdp.is_none() && was_registered_4g && !self.ue.stack.emm.remedy_reactivate_bearer {
            self.ue.metrics.s1_events += 1;
            self.ue.trace.record_event(
                self.now,
                TraceType::State,
                RatSystem::Lte4g,
                Protocol::Emm,
                "3G->4G switch without PDP context (S1 hazard)",
                TraceEvent::Hazard(HazardKind::S1ContextLoss),
            );
        }

        // S6, OP-II shape: the network-side (second) location update is
        // relayed MME→MSC and may conflict with the completed first one.
        if let Some(csfb) = self.ue.csfb.take() {
            let conflict =
                csfb.first_update_done && self.ue.rng.gen::<f64>() < self.cfg.s6_conflict_prob;
            if conflict {
                let mut out = Vec::new();
                self.sess()
                    .msc_mm
                    .on_input(MscInput::RelayedUpdateFromMme, &mut out);
                self.drain_msc_outputs(out);
            }
        }
    }

    fn on_speedtest(&mut self, uplink: bool) {
        let rrc = &self.ue.stack.rrc3g;
        // The simulated carriers share one channel between CS and PS; the
        // §8 decoupled channels are evaluated by `remedies::decouple`.
        let cfg = ChannelConfig {
            modulation: rrc.shared_channel_modulation(false),
            cs_sharing: rrc.cs_active,
            decoupled: false,
        };
        let kbps = achievable_kbps(
            cfg,
            uplink,
            self.current_rssi(),
            self.current_hour(),
            self.cfg.op.aggressive_ul_coupling,
        );
        let with_call = rrc.cs_active;
        self.ue.metrics.throughput.push(ThroughputSample {
            ts: self.now,
            hour: self.current_hour(),
            uplink,
            with_call,
            kbps,
        });
        let dir = if uplink { "uplink" } else { "downlink" };
        let voice = if with_call { " (CS voice active)" } else { "" };
        self.ue.trace.record_event_with(
            self.now,
            TraceType::Measurement,
            self.ue.stack.serving,
            match self.ue.stack.serving {
                RatSystem::Utran3g => Protocol::Rrc3g,
                RatSystem::Lte4g => Protocol::Rrc4g,
            },
            TraceEvent::Throughput {
                uplink,
                with_call,
                kbps: kbps.round() as u64,
            },
            || {
                format!(
                    "{dir} throughput sample: {} kbps{voice}",
                    kbps.round() as u64
                )
            },
        );
    }

    fn on_drive_position(&mut self) {
        let Some(drive) = self.ue.drive.clone() else {
            return;
        };
        let mile = drive.position_miles(self.now.as_millis());
        let crossings = drive.route.boundaries_crossed(self.ue.last_mile, mile);
        let rssi = drive.route.rssi_at(mile);
        self.ue.metrics.rssi_samples.push((mile, rssi.0));
        self.ue.last_mile = mile;
        for _ in 0..crossings {
            let mut evs = Vec::new();
            self.ue
                .stack
                .trigger_update(UpdateKind::LocationArea, &mut evs);
            self.process_stack_events(evs);
        }
        if mile < drive.route.length_miles {
            self.schedule_in(1_000, Ev::DrivePosition);
        }
    }

    // ------------------------------------------------------------------
    // Core-network handling
    // ------------------------------------------------------------------

    fn on_arrive_at_core(&mut self, system: RatSystem, domain: Domain, msg: NasMessage) {
        self.ue.trace.record_event_with(
            self.now,
            TraceType::Signaling,
            system,
            match (system, domain) {
                (RatSystem::Lte4g, _) => Protocol::Emm,
                (RatSystem::Utran3g, Domain::Cs) => Protocol::Mm,
                (RatSystem::Utran3g, Domain::Ps) => Protocol::Gmm,
            },
            TraceEvent::Nas {
                uplink: true,
                msg: msg.clone(),
            },
            || format!("core received: {}", msg.wire_name()),
        );
        match (system, domain) {
            (RatSystem::Lte4g, _) => {
                if matches!(msg, NasMessage::AttachRequest { .. }) {
                    self.ue.metrics.attach_attempts += 1;
                    // The MME consults the HSS before admitting (Figure 1).
                    if let Err(cause) = self.carrier.hss.admit_4g(self.ue.imsi) {
                        self.ue.trace.record(
                            self.now,
                            TraceType::Signaling,
                            RatSystem::Lte4g,
                            Protocol::Emm,
                            format!("HSS rejected attach: {cause:?}"),
                        );
                        self.schedule_downlink(
                            RatSystem::Lte4g,
                            Domain::Ps,
                            NasMessage::AttachReject(cause),
                            None,
                        );
                        return;
                    }
                }
                if matches!(msg, NasMessage::AttachComplete) {
                    self.ue.reattach_ready_at = None;
                }
                let mut out = Vec::new();
                self.sess().mme.on_input(MmeInput::Uplink(msg), &mut out);
                self.drain_mme_outputs(out);
            }
            (RatSystem::Utran3g, Domain::Cs) => match &msg {
                NasMessage::CallSetup | NasMessage::CallDisconnect => {
                    let mut replies = Vec::new();
                    self.sess().msc_cc.on_uplink(msg, &mut replies);
                    for m in replies {
                        let delay = match &m {
                            NasMessage::CallProceeding => Some(150),
                            NasMessage::CallAlerting => Some(900),
                            NasMessage::CallConnect => Some(self.latency(|l| l.call_connect_delay)),
                            _ => None,
                        };
                        self.schedule_downlink(RatSystem::Utran3g, Domain::Cs, m, delay);
                    }
                }
                _ => {
                    let mut out = Vec::new();
                    self.sess().msc_mm.on_input(MscInput::Uplink(msg), &mut out);
                    self.drain_msc_outputs(out);
                }
            },
            (RatSystem::Utran3g, Domain::Ps) => match &msg {
                NasMessage::SessionActivateRequest { .. }
                | NasMessage::SessionDeactivate { .. } => {
                    let mut out = Vec::new();
                    self.sess().sgsn_sm.on_uplink(msg, &mut out);
                    for o in out {
                        if let SgsnSmOutput::Send(m) = o {
                            self.schedule_downlink(RatSystem::Utran3g, Domain::Ps, m, None);
                        }
                    }
                }
                _ => {
                    let mut replies = Vec::new();
                    self.sess().sgsn_gmm.on_uplink(msg, &mut replies);
                    for m in replies {
                        let delay = match &m {
                            NasMessage::UpdateAccept(UpdateKind::RoutingArea)
                            | NasMessage::UpdateReject(UpdateKind::RoutingArea, _) => {
                                Some(self.latency(|l| l.rau_duration))
                            }
                            _ => None,
                        };
                        self.schedule_downlink(RatSystem::Utran3g, Domain::Ps, m, delay);
                    }
                }
            },
        }
    }

    fn drain_mme_outputs(&mut self, outputs: Vec<MmeOutput>) {
        for o in outputs {
            match o {
                MmeOutput::Send(m) => {
                    let delay = match &m {
                        NasMessage::AttachAccept => {
                            // Re-attaches after a network-caused detach are
                            // paced by the operator (Figure 4): the accept
                            // is not released before the readiness time,
                            // regardless of how often the phone retries.
                            self.ue
                                .reattach_ready_at
                                .map(|ready| ready.since(self.now))
                                .filter(|&d| d > 0)
                        }
                        NasMessage::UpdateAccept(UpdateKind::TrackingArea)
                        | NasMessage::UpdateReject(UpdateKind::TrackingArea, _) => {
                            Some(self.latency(|l| l.tau_duration))
                        }
                        _ => None,
                    };
                    // A reject/detach from the MME starts the Figure 4
                    // recovery clock.
                    if matches!(
                        m,
                        NasMessage::UpdateReject(UpdateKind::TrackingArea, _)
                            | NasMessage::NetworkDetach(_)
                    ) {
                        let pace = self.latency(|l| l.reattach_duration);
                        self.ue.reattach_ready_at = Some(self.now + pace);
                        if matches!(m, NasMessage::NetworkDetach(_)) {
                            self.ue.metrics.s6_events += 1;
                            self.ue.trace.record_event(
                                self.now,
                                TraceType::State,
                                RatSystem::Lte4g,
                                Protocol::Emm,
                                "3G location-update failure propagated to 4G: \
                                 MME detaches the device (S6 hazard)",
                                TraceEvent::Hazard(HazardKind::S6FailurePropagated),
                            );
                        }
                    }
                    self.schedule_downlink(RatSystem::Lte4g, Domain::Ps, m, delay);
                }
                MmeOutput::BearerCreated(_) | MmeOutput::BearerDeleted => {
                    let s = self.sess();
                    s.mme_esm.ue_registered = s.mme.state == cellstack::emm::MmeUeState::Registered;
                }
                MmeOutput::RecoverLocationUpdateWithMsc => {
                    // §8 remedy: silent in-core recovery.
                    let mut out = Vec::new();
                    self.sess()
                        .msc_mm
                        .on_input(MscInput::RelayedUpdateFromMme, &mut out);
                    // Outcomes stay inside the core; nothing reaches the
                    // device.
                    let _ = out;
                    self.ue.trace.record(
                        self.now,
                        TraceType::Signaling,
                        RatSystem::Lte4g,
                        Protocol::Emm,
                        "MME recovered 3G location update in-core (remedy)",
                    );
                }
            }
        }
    }

    fn drain_msc_outputs(&mut self, outputs: Vec<MscOutput>) {
        for o in outputs {
            match o {
                MscOutput::Send(m) => {
                    let delay = match &m {
                        NasMessage::UpdateAccept(UpdateKind::LocationArea)
                        | NasMessage::UpdateReject(UpdateKind::LocationArea, _) => {
                            Some(self.latency(|l| l.lau_duration))
                        }
                        _ => None,
                    };
                    self.schedule_downlink(RatSystem::Utran3g, Domain::Cs, m, delay);
                }
                MscOutput::ReportFailureToMme(cause) => {
                    let mut out = Vec::new();
                    self.sess()
                        .mme
                        .on_input(MmeInput::MscLocationUpdateFailure(cause), &mut out);
                    self.drain_mme_outputs(out);
                }
                MscOutput::RelayedUpdateOk => {
                    if let Some(c) = self.ue.csfb.as_mut() {
                        c.second_update_completed();
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Device-side delivery and stack-event processing
    // ------------------------------------------------------------------

    fn schedule_downlink(
        &mut self,
        system: RatSystem,
        domain: Domain,
        msg: NasMessage,
        processing_delay: Option<u64>,
    ) {
        let owd = self.latency(|l| l.nas_owd);
        let mut delay = owd + processing_delay.unwrap_or(0);
        if self.ue.adversary.is_some() {
            let leg = leg_for(system, domain, false);
            let now_ms = self.now.as_millis();
            let fate =
                self.ue
                    .adversary
                    .as_mut()
                    .expect("checked")
                    .decide(now_ms, leg, msg.class());
            match fate {
                AdvFate::Drop => {
                    self.record_fault(system, FaultEvent::on_leg(FaultKind::Drop, leg, msg));
                    return;
                }
                AdvFate::Corrupt => {
                    // The device's integrity check fails; the garbage NAS
                    // PDU is silently discarded (TS 24.301 §4.4.4.2).
                    self.record_fault(system, FaultEvent::on_leg(FaultKind::Corrupt, leg, msg));
                    return;
                }
                AdvFate::Duplicate { extra_delay_ms } => {
                    self.schedule_in(
                        delay + extra_delay_ms,
                        Ev::ArriveAtDevice {
                            system,
                            domain,
                            msg: msg.clone(),
                        },
                    );
                }
                AdvFate::Delay { extra_delay_ms } => delay += extra_delay_ms,
                AdvFate::Reorder { hold_ms } => {
                    self.record_fault(
                        system,
                        FaultEvent::on_leg(FaultKind::Reorder { hold_ms }, leg, msg.clone()),
                    );
                    delay += hold_ms;
                }
                AdvFate::Deliver => {}
            }
        } else if system == RatSystem::Lte4g {
            match self.cfg.inject_dl_4g.fate(&mut self.ue.rng) {
                Fate::Drop => {
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::Signaling,
                        system,
                        Protocol::Rrc4g,
                        format!("downlink {} lost over the air", msg.wire_name()),
                        TraceEvent::Fault(FaultEvent::on_leg(FaultKind::Drop, Leg::Dl4g, msg)),
                    );
                    return;
                }
                Fate::Duplicate { extra_delay_ms } => {
                    self.schedule_in(
                        delay + extra_delay_ms,
                        Ev::ArriveAtDevice {
                            system,
                            domain,
                            msg: msg.clone(),
                        },
                    );
                }
                Fate::Delay { extra_delay_ms } => delay += extra_delay_ms,
                Fate::Deliver => {}
            }
        }
        self.schedule_in(
            delay,
            Ev::ArriveAtDevice {
                system,
                domain,
                msg,
            },
        );
    }

    /// Record an injected fault in the trace, typed and queryable — the
    /// human-readable description is derived from the structured record.
    fn record_fault(&mut self, system: RatSystem, fault: FaultEvent) {
        let proto = match system {
            RatSystem::Lte4g => Protocol::Rrc4g,
            RatSystem::Utran3g => Protocol::Rrc3g,
        };
        let desc = fault.describe();
        self.ue.trace.record_event(
            self.now,
            TraceType::Fault,
            system,
            proto,
            desc,
            TraceEvent::Fault(fault),
        );
    }

    /// Apply the scheduled restarts of a finished campaign phase: the
    /// downed nodes come back with empty volatile state, so the MME/MSC/
    /// SGSN forget the UE while the device still believes it is
    /// registered — the recovery then plays out over the retransmission
    /// machinery (or fails to, without it).
    fn on_fault_phase_end(&mut self, i: usize) {
        let Some(adv) = self.ue.adversary.as_ref() else {
            return;
        };
        let restarts: Vec<NodeId> = adv.restarts_for_phase(i).to_vec();
        for node in restarts {
            self.carrier.restart(node);
            self.record_fault(self.ue.stack.serving, FaultEvent::node_restart(node));
        }
    }

    fn on_arrive_at_device(&mut self, system: RatSystem, domain: Domain, msg: NasMessage) {
        // The device may have moved to the other system; stale-system
        // messages are discarded (single-radio phones, §5.1.2).
        if system != self.ue.stack.serving {
            return;
        }
        // Update-duration measurement points.
        match &msg {
            NasMessage::UpdateAccept(UpdateKind::LocationArea)
            | NasMessage::UpdateReject(UpdateKind::LocationArea, _) => {
                if let Some(t) = self.ue.lau_start.take() {
                    self.ue.metrics.lau_durations_ms.push(self.now.since(t));
                }
                self.ue.deferred_lau_pending = false;
                if let Some(c) = self.ue.csfb.as_mut() {
                    c.first_update_completed();
                }
                if matches!(msg, NasMessage::UpdateAccept(_)) && !self.ue.stack.mm.parallel_remedy {
                    let hold = self.latency(|l| l.mm_wait_net_cmd);
                    self.schedule_in(hold, Ev::MmWaitNetCmdDone);
                }
            }
            NasMessage::UpdateAccept(UpdateKind::RoutingArea)
            | NasMessage::UpdateReject(UpdateKind::RoutingArea, _) => {
                if let Some(t) = self.ue.rau_start.take() {
                    self.ue.metrics.rau_durations_ms.push(self.now.since(t));
                }
            }
            NasMessage::UpdateAccept(UpdateKind::TrackingArea)
            | NasMessage::UpdateReject(UpdateKind::TrackingArea, _) => {
                if let Some(t) = self.ue.tau_start.take() {
                    self.ue.metrics.tau_durations_ms.push(self.now.since(t));
                }
            }
            _ => {}
        }
        self.ue.trace.record_event_with(
            self.now,
            TraceType::Signaling,
            system,
            match (system, domain) {
                (RatSystem::Lte4g, _) => Protocol::Emm,
                (RatSystem::Utran3g, Domain::Cs) => Protocol::Mm,
                (RatSystem::Utran3g, Domain::Ps) => Protocol::Gmm,
            },
            TraceEvent::Nas {
                uplink: false,
                msg: msg.clone(),
            },
            || format!("device received: {}", msg.wire_name()),
        );
        // Implicit-detach accounting (the Figure 12-left y-axis): a
        // network-caused detach delivered to an in-service device.
        let implicit = matches!(
            msg,
            NasMessage::UpdateReject(UpdateKind::TrackingArea, _) | NasMessage::NetworkDetach(_)
        ) && !self.ue.stack.out_of_service()
            && system == RatSystem::Lte4g;
        if implicit {
            self.ue.metrics.implicit_detaches += 1;
            self.ue.trace.record_event(
                self.now,
                TraceType::State,
                RatSystem::Lte4g,
                Protocol::Emm,
                "network-caused detach reached an in-service device",
                TraceEvent::Hazard(HazardKind::ImplicitDetach),
            );
        }
        let mut evs = Vec::new();
        self.ue.stack.deliver_nas(system, domain, msg, &mut evs);
        self.process_stack_events(evs);
    }

    fn process_stack_events(&mut self, evs: Vec<StackEvent>) {
        let mut work: VecDeque<StackEvent> = evs.into();
        while let Some(e) = work.pop_front() {
            match e {
                StackEvent::UplinkNas {
                    system,
                    domain,
                    msg,
                } => self.on_uplink(system, domain, msg),
                StackEvent::RegChanged(Registration::Registered) => {
                    if let Some(start) = self.ue.oos_since.take() {
                        self.ue
                            .metrics
                            .recovery_times_ms
                            .push(self.now.since(start));
                        self.ue.metrics.oos_durations_ms.push(self.now.since(start));
                    }
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        self.ue.stack.serving,
                        Protocol::Emm,
                        "registered (in service)",
                        TraceEvent::Registration {
                            registered: true,
                            system: self.ue.stack.serving,
                        },
                    );
                }
                StackEvent::RegChanged(Registration::Deregistered) => {
                    self.ue.metrics.detach_count += 1;
                    if self.ue.oos_since.is_none() && !self.ue.user_detached {
                        self.ue.oos_since = Some(self.now);
                    }
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        self.ue.stack.serving,
                        Protocol::Emm,
                        "deregistered (out of service)",
                        TraceEvent::Registration {
                            registered: false,
                            system: self.ue.stack.serving,
                        },
                    );
                }
                StackEvent::CallConnected => {
                    // Figure 10: the carrier reconfigures the shared channel
                    // to a robust modulation for the call.
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::RadioConfig,
                        RatSystem::Utran3g,
                        Protocol::Rrc3g,
                        "64QAM disabled during CS voice call (shared channel -> 16QAM)",
                        TraceEvent::RadioConfig { allow_64qam: false },
                    );
                    if let Some(t) = self.ue.dial_time.take() {
                        self.ue.metrics.call_setups.push(CallSetup {
                            dialed_at: t,
                            setup_ms: self.now.since(t),
                            at_mile: self.ue.last_mile,
                            during_update: self.ue.dial_during_update,
                        });
                    }
                    if let Some(c) = self.ue.csfb.as_mut() {
                        c.call_connected();
                    }
                    if let Some(ms) = self.cfg.auto_hangup_after_ms {
                        self.schedule_in(ms, Ev::Hangup);
                    }
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        RatSystem::Utran3g,
                        Protocol::CmCc,
                        "call connected",
                        TraceEvent::Call(CallPhase::Connected),
                    );
                }
                StackEvent::CallReleased => {
                    self.on_call_released(&mut work);
                }
                StackEvent::CallFailed => {
                    self.ue.metrics.failed_calls += 1;
                    self.ue.dial_time = None;
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        self.ue.stack.serving,
                        Protocol::CmCc,
                        "call setup failed",
                        TraceEvent::Call(CallPhase::Failed),
                    );
                }
                StackEvent::ServiceRequestBlocked => {
                    self.ue.metrics.blocked_requests += 1;
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        RatSystem::Utran3g,
                        Protocol::Mm,
                        "CM service request blocked behind location update (S4 hazard)",
                        TraceEvent::Hazard(HazardKind::S4HolBlocked),
                    );
                }
                StackEvent::DataService(_) => {}
                StackEvent::WantsSwitchTo(RatSystem::Utran3g) => {
                    // "When all retries fail, the device may start to try
                    // 3G" (§5.1.2): camp on 3G and attach there. The
                    // out-of-service window closes when 3G registers.
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::State,
                        RatSystem::Utran3g,
                        Protocol::Gmm,
                        "4G attach retries exhausted; falling back to 3G",
                        TraceEvent::CampedOn(RatSystem::Utran3g),
                    );
                    self.ue.stack.serving = RatSystem::Utran3g;
                    let mut evs = Vec::new();
                    self.ue.stack.power_on(RatSystem::Utran3g, &mut evs);
                    work.extend(evs);
                }
                StackEvent::WantsSwitchTo(RatSystem::Lte4g) => {}
                StackEvent::LocationUpdateFailed => {
                    self.ue.deferred_lau_pending = false;
                }
                StackEvent::IncomingCallRinging => {
                    self.schedule_in(AUTO_ANSWER_AFTER_MS, Ev::Answer);
                }
                StackEvent::ArmEmmRetry => {
                    if !self.ue.emm_retry_armed {
                        self.ue.emm_retry_armed = true;
                        self.schedule_in(EMM_RETRY_MS, Ev::EmmRetryTimer);
                    }
                }
                StackEvent::ArmNasTimer(t) => {
                    // Backoff grows with the procedure's attempt counter;
                    // the relevant counter depends on which timer runs.
                    let attempt = match t {
                        NasTimer::T3410 => self.ue.stack.emm.attach_attempts.max(1),
                        NasTimer::T3430 => self.ue.stack.emm.tau_attempts.max(1),
                        NasTimer::T3417 => self.ue.stack.esm.activate_attempts.max(1),
                        NasTimer::T3411 | NasTimer::T3402 => 1,
                    };
                    let ms = (t.backoff_ms(attempt) as f64 * self.cfg.nas_timer_scale)
                        .round()
                        .max(1.0) as u64;
                    self.schedule_in(ms, Ev::NasTimer(t));
                }
                StackEvent::Trace(module, desc) => {
                    self.ue.trace.record(
                        self.now,
                        TraceType::State,
                        self.ue.stack.serving,
                        module,
                        desc,
                    );
                }
            }
        }
    }

    fn on_call_released(&mut self, work: &mut VecDeque<StackEvent>) {
        self.ue.call_end_time = Some(self.now);
        self.ue.trace.record_event(
            self.now,
            TraceType::RadioConfig,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            "64QAM re-enabled (CS voice call ended)",
            TraceEvent::RadioConfig { allow_64qam: true },
        );
        self.ue.trace.record_event(
            self.now,
            TraceType::State,
            RatSystem::Utran3g,
            Protocol::CmCc,
            "call released",
            TraceEvent::Call(CallPhase::Released),
        );
        // CSFB: the deferred first LU fires now, then the return-to-4G
        // choreography per operator mechanism (the S3 split).
        let mut need_lu = false;
        if let Some(c) = self.ue.csfb.as_mut() {
            need_lu = c.call_ended();
        }
        if need_lu {
            let mut evs = Vec::new();
            self.ue
                .stack
                .trigger_update(UpdateKind::LocationArea, &mut evs);
            work.extend(evs);
        }
        if self.ue.csfb.is_some() {
            // The cellstack policy table decides how the return behaves for
            // the carrier's mechanism (the S3 split); the world only adds
            // the latencies.
            match cellstack::csfb::return_behavior(self.cfg.op.switch_mechanism) {
                cellstack::ReturnBehavior::ReturnsImmediately => {
                    if let Some(c) = self.ue.csfb.as_mut() {
                        c.returning();
                    }
                    self.ue.return_scheduled = true;
                    let d = self.latency(|l| l.redirect_return_delay);
                    self.schedule_in(d, Ev::ReturnTo4gComplete);
                }
                cellstack::ReturnBehavior::WaitsForRrcIdle => {
                    self.schedule_in(500, Ev::CheckReselection);
                }
                cellstack::ReturnBehavior::HandoverNow => {
                    if let Some(c) = self.ue.csfb.as_mut() {
                        c.returning();
                    }
                    self.ue.return_scheduled = true;
                    self.schedule_in(1_000, Ev::ReturnTo4gComplete);
                }
            }
        }
        // RRC steps down if nothing keeps it busy.
        self.schedule_in(RRC3G_INACTIVITY_MS, Ev::Rrc3gInactivity);
        if let Some(ms) = self.cfg.auto_redial_after_ms {
            self.schedule_in(ms, Ev::Dial);
        }
    }

    fn on_uplink(&mut self, system: RatSystem, domain: Domain, msg: NasMessage) {
        // Measurement start points.
        match &msg {
            NasMessage::UpdateRequest(UpdateKind::LocationArea) => {
                self.ue.lau_start.get_or_insert(self.now);
            }
            NasMessage::UpdateRequest(UpdateKind::RoutingArea) => {
                self.ue.rau_start.get_or_insert(self.now);
            }
            NasMessage::UpdateRequest(UpdateKind::TrackingArea) => {
                self.ue.tau_start.get_or_insert(self.now);
            }
            _ => {}
        }
        let owd = self.latency(|l| l.nas_owd);
        let mut delay = owd;
        if self.ue.adversary.is_some() {
            let leg = leg_for(system, domain, true);
            let now_ms = self.now.as_millis();
            let fate =
                self.ue
                    .adversary
                    .as_mut()
                    .expect("checked")
                    .decide(now_ms, leg, msg.class());
            match fate {
                AdvFate::Drop => {
                    self.record_fault(system, FaultEvent::on_leg(FaultKind::Drop, leg, msg));
                    return;
                }
                AdvFate::Corrupt => {
                    // The core parses garbage: procedure requests are
                    // answered with a semantic reject; anything else is
                    // discarded after the integrity check fails.
                    self.record_fault(
                        system,
                        FaultEvent::on_leg(FaultKind::Corrupt, leg, msg.clone()),
                    );
                    match &msg {
                        NasMessage::AttachRequest { .. } => {
                            self.schedule_downlink(
                                system,
                                domain,
                                NasMessage::AttachReject(
                                    AttachRejectCause::SemanticallyIncorrectMessage,
                                ),
                                None,
                            );
                        }
                        NasMessage::UpdateRequest(kind) => {
                            self.schedule_downlink(
                                system,
                                domain,
                                NasMessage::UpdateReject(*kind, EmmCause::NetworkFailure),
                                None,
                            );
                        }
                        _ => {}
                    }
                    return;
                }
                AdvFate::Duplicate { extra_delay_ms } => {
                    self.schedule_in(
                        delay + extra_delay_ms,
                        Ev::ArriveAtCore {
                            system,
                            domain,
                            msg: msg.clone(),
                        },
                    );
                }
                AdvFate::Delay { extra_delay_ms } => delay += extra_delay_ms,
                AdvFate::Reorder { hold_ms } => {
                    self.record_fault(
                        system,
                        FaultEvent::on_leg(FaultKind::Reorder { hold_ms }, leg, msg.clone()),
                    );
                    delay += hold_ms;
                }
                AdvFate::Deliver => {}
            }
        } else if system == RatSystem::Lte4g {
            match self.cfg.inject_ul_4g.fate(&mut self.ue.rng) {
                Fate::Drop => {
                    self.ue.trace.record_event(
                        self.now,
                        TraceType::Signaling,
                        system,
                        Protocol::Rrc4g,
                        format!("uplink {} lost over the air", msg.wire_name()),
                        TraceEvent::Fault(FaultEvent::on_leg(FaultKind::Drop, Leg::Ul4g, msg)),
                    );
                    return;
                }
                Fate::Duplicate { extra_delay_ms } => {
                    self.schedule_in(
                        delay + extra_delay_ms,
                        Ev::ArriveAtCore {
                            system,
                            domain,
                            msg: msg.clone(),
                        },
                    );
                }
                Fate::Delay { extra_delay_ms } => delay += extra_delay_ms,
                Fate::Deliver => {}
            }
        }
        self.schedule_in(
            delay,
            Ev::ArriveAtCore {
                system,
                domain,
                msg,
            },
        );
    }
}

/// Which adversary leg a message travels, from its direction, system and
/// domain.
pub(crate) fn leg_for(system: RatSystem, domain: Domain, uplink: bool) -> Leg {
    match (system, domain, uplink) {
        (RatSystem::Lte4g, _, true) => Leg::Ul4g,
        (RatSystem::Lte4g, _, false) => Leg::Dl4g,
        (RatSystem::Utran3g, Domain::Cs, true) => Leg::Ul3gCs,
        (RatSystem::Utran3g, Domain::Cs, false) => Leg::Dl3gCs,
        (RatSystem::Utran3g, Domain::Ps, true) => Leg::Ul3gPs,
        (RatSystem::Utran3g, Domain::Ps, false) => Leg::Dl3gPs,
    }
}
