//! The single-phone simulation facade: one UE against one carrier.
//!
//! [`World`] is a thin facade over exactly one [`Ue`] plus one
//! [`CarrierCore`], stepped by the shared executive in [`crate::sim`] on
//! the same [`TimingWheel`] the fleet uses — a one-lane fleet. A
//! scenario is expressed by scheduling [`Ev`] events (power-on, dial,
//! data-on, drives, network-initiated deactivations) and then calling
//! [`World::run_until`]; the executive performs the signaling
//! choreography — including the CSFB fallback/return dance, the
//! inter-system context migration and the S1–S6 hazards — with latencies
//! drawn from the operator profile.
//!
//! `World` dereferences to its [`Ue`], so scenario code keeps reading
//! `w.stack`, `w.trace`, `w.metrics`, `w.csfb` unchanged from the
//! pre-fleet era; the carrier-side machines live behind [`World::carrier`]
//! (per-IMSI sessions) with [`World::session`] as the shortcut to this
//! phone's bundle. For many phones against one carrier, see
//! [`crate::sim::fleet::FleetSim`].

use cellstack::{Domain, NasMessage, NasTimer, PdpDeactivationCause, RatSystem, UpdateKind};

use crate::inject::{Campaign, CampaignReport, Injection};
use crate::mobility::Drive;
use crate::node::{CarrierCore, CoreSession, Ue, UeId};
use crate::operator::OperatorProfile;
use crate::sim::exec::{BlockEv, Exec};
use crate::sim::wheel::TimingWheel;
use crate::time::SimTime;

/// Simulation events.
#[derive(Clone, Debug)]
pub enum Ev {
    /// Power the phone on and attach to `system`.
    PowerOn(RatSystem),
    /// User dials an outgoing call (CSFB if camped on 4G).
    Dial,
    /// An incoming (mobile-terminated) call arrives — the MSC pages the
    /// device (CSFB paging first if it is camped on 4G).
    IncomingCall,
    /// User answers a ringing mobile-terminated call.
    Answer,
    /// A Wi-Fi network became available: most phones disable mobile data;
    /// some models deactivate all PDP contexts while in 3G (§5.1.3).
    WifiAvailable,
    /// Coverage-driven mobility: the device leaves the 4G cell and camps
    /// on 3G (no call involved — the §5.1.1 "hybrid deployment" setting,
    /// validated "by driving back and forth between two areas").
    CoverageEnter3g,
    /// Coverage-driven mobility: the device roams back into 4G coverage.
    CoverageReturn4g,
    /// User-initiated detach (power off / airplane mode).
    Detach,
    /// User (or the far end) hangs up.
    Hangup,
    /// Start PS data usage.
    DataStart {
        /// High-rate session (drives RRC to DCH — the S3 ingredient).
        high_rate: bool,
    },
    /// User stops data / turns mobile data off with `cause`.
    DataStop(PdpDeactivationCause),
    /// The network deactivates the PDP context (Table 3 network causes).
    NetworkDeactivatePdp(PdpDeactivationCause),
    /// The ongoing data session's traffic ends (context stays active).
    DataSessionEnd,
    /// A NAS message reaches the core network.
    ArriveAtCore {
        /// Target system.
        system: RatSystem,
        /// Domain within 3G.
        domain: Domain,
        /// The message.
        msg: NasMessage,
    },
    /// A NAS message reaches the device.
    ArriveAtDevice {
        /// Source system.
        system: RatSystem,
        /// Domain within 3G.
        domain: Domain,
        /// The message.
        msg: NasMessage,
    },
    /// CSFB 4G→3G fallback completed; the device camps on 3G.
    CsfbFallbackComplete,
    /// Poll whether OP-II-style reselection can fire (requires RRC IDLE).
    CheckReselection,
    /// The 3G→4G return switch completes now.
    ReturnTo4gComplete,
    /// The MM `WAIT-FOR-NETWORK-COMMAND` hold expired.
    MmWaitNetCmdDone,
    /// EMM attach-retry timer fired.
    EmmRetryTimer,
    /// A 3GPP NAS retransmission timer fired ([`WorldConfig::nas_retx`]).
    NasTimer(NasTimer),
    /// A fault-campaign phase ended; its downed nodes restart if the phase
    /// asked for that.
    FaultPhaseEnd(usize),
    /// 3G RRC inactivity timer fired (steps DCH→FACH→IDLE).
    Rrc3gInactivity,
    /// Fire a mobility-update trigger (Table 4).
    TriggerUpdate(UpdateKind),
    /// Take one speedtest measurement.
    SpeedtestSample {
        /// Uplink (true) or downlink.
        uplink: bool,
    },
    /// Advance the drive test (Figure 7) by one tick.
    DrivePosition,
}

impl Ev {
    /// Stable names for the per-kind fleet metrics, indexed by
    /// [`Self::kind_index`].
    pub const KIND_NAMES: [&'static str; 26] = [
        "power_on",
        "dial",
        "incoming_call",
        "answer",
        "wifi_available",
        "coverage_enter_3g",
        "coverage_return_4g",
        "detach",
        "hangup",
        "data_start",
        "data_stop",
        "network_deactivate_pdp",
        "data_session_end",
        "arrive_at_core",
        "arrive_at_device",
        "csfb_fallback_complete",
        "check_reselection",
        "return_to_4g_complete",
        "mm_wait_net_cmd_done",
        "emm_retry_timer",
        "nas_timer",
        "fault_phase_end",
        "rrc_3g_inactivity",
        "trigger_update",
        "speedtest_sample",
        "drive_position",
    ];

    /// Dense per-variant index, for fixed-array event-kind counters in the
    /// fleet step loop (cheaper than label hashing per event).
    pub fn kind_index(&self) -> usize {
        match self {
            Ev::PowerOn(_) => 0,
            Ev::Dial => 1,
            Ev::IncomingCall => 2,
            Ev::Answer => 3,
            Ev::WifiAvailable => 4,
            Ev::CoverageEnter3g => 5,
            Ev::CoverageReturn4g => 6,
            Ev::Detach => 7,
            Ev::Hangup => 8,
            Ev::DataStart { .. } => 9,
            Ev::DataStop(_) => 10,
            Ev::NetworkDeactivatePdp(_) => 11,
            Ev::DataSessionEnd => 12,
            Ev::ArriveAtCore { .. } => 13,
            Ev::ArriveAtDevice { .. } => 14,
            Ev::CsfbFallbackComplete => 15,
            Ev::CheckReselection => 16,
            Ev::ReturnTo4gComplete => 17,
            Ev::MmWaitNetCmdDone => 18,
            Ev::EmmRetryTimer => 19,
            Ev::NasTimer(_) => 20,
            Ev::FaultPhaseEnd(_) => 21,
            Ev::Rrc3gInactivity => 22,
            Ev::TriggerUpdate(_) => 23,
            Ev::SpeedtestSample { .. } => 24,
            Ev::DrivePosition => 25,
        }
    }
}

/// World configuration.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Carrier profile.
    pub op: OperatorProfile,
    /// RNG seed.
    pub seed: u64,
    /// Enable the §5.1.3 phone quirk (TAU-before-detach).
    pub phone_quirk: bool,
    /// Injection on the 4G uplink signaling leg.
    pub inject_ul_4g: Injection,
    /// Injection on the 4G downlink signaling leg.
    pub inject_dl_4g: Injection,
    /// Hour of day at t=0 (Figure 9's time bins).
    pub start_hour: u32,
    /// Phone model (selects the §5.1.3 behavioural quirks).
    pub phone_model: crate::phone::PhoneModel,
    /// After a connect, automatically hang up after this many ms.
    pub auto_hangup_after_ms: Option<u64>,
    /// After a release, automatically dial again after this many ms (the
    /// §6.1.2 repeated-dial tool).
    pub auto_redial_after_ms: Option<u64>,
    /// Probability the CSFB second (relayed) location update conflicts at
    /// the MSC (the OP-II S6 path).
    pub s6_conflict_prob: f64,
    /// Declarative fault-injection campaign. When set, the adversary
    /// (with its own RNG stream) supersedes `inject_ul_4g`/`inject_dl_4g`
    /// and covers every signaling leg, not just 4G.
    pub campaign: Option<Campaign>,
    /// Model the 3GPP NAS retransmission timers (T3410/T3411/T3402 for
    /// attach, T3430 for TAU, T3417 for bearer activation) instead of the
    /// legacy fixed-interval attach retry.
    pub nas_retx: bool,
    /// Scale applied to NAS timer backoffs (1.0 = the 3GPP defaults).
    /// Experiments compress simulated time with smaller values.
    pub nas_timer_scale: f64,
    /// Fleet-calibrated OP-I refinement (§6.2): the release-with-redirect
    /// return re-polls until the racing deferred LAU completes, except for
    /// the 3.5% of episodes where the redirect genuinely wins and disrupts
    /// the update. Off by default — the single-UE goldens keep the
    /// original always-disrupt race.
    pub redirect_defers_to_lau: bool,
    /// Trace memory bound: `Some(n)` keeps roughly the `n` most recent
    /// entries (ring-buffer eviction, evicted count surfaced on the
    /// collector); `None` keeps everything — the validation-golden
    /// default.
    pub trace_capacity: Option<usize>,
}

impl WorldConfig {
    /// Default configuration for a carrier. The §8 remedies are switched
    /// on the profile itself (see [`OperatorProfile::remedied`]).
    pub fn new(op: OperatorProfile, seed: u64) -> Self {
        Self {
            op,
            seed,
            phone_quirk: true,
            inject_ul_4g: Injection::none(),
            inject_dl_4g: Injection::none(),
            start_hour: 12,
            phone_model: crate::phone::PhoneModel::GalaxyS4,
            auto_hangup_after_ms: None,
            auto_redial_after_ms: None,
            s6_conflict_prob: 0.03,
            campaign: None,
            nas_retx: false,
            nas_timer_scale: 1.0,
            redirect_defers_to_lau: false,
            trace_capacity: None,
        }
    }
}

/// The IMSI the facade's single phone is provisioned with.
const FACADE_IMSI: u64 = 310_410_000_001;

/// The single-phone simulation world: a facade over one [`Ue`] and one
/// [`CarrierCore`], stepped by the shared fleet executive on its own
/// timing wheel.
pub struct World {
    /// Current simulated time.
    pub now: SimTime,
    /// Configuration.
    pub cfg: WorldConfig,
    /// The phone (stack, trace, metrics, CSFB/drive state). `World`
    /// derefs here, so `w.stack` etc. read through.
    pub ue: Ue,
    /// The carrier core: HSS plus per-IMSI session machines.
    pub carrier: CarrierCore,
    wheel: TimingWheel<(UeId, BlockEv)>,
}

impl std::ops::Deref for World {
    type Target = Ue;
    fn deref(&self) -> &Ue {
        &self.ue
    }
}

impl std::ops::DerefMut for World {
    fn deref_mut(&mut self) -> &mut Ue {
        &mut self.ue
    }
}

impl World {
    /// Build a world from a configuration.
    pub fn new(cfg: WorldConfig) -> Self {
        let ue = Ue::from_config(UeId(0), FACADE_IMSI, &cfg);
        let mut carrier = CarrierCore::new();
        // The phone is provisioned as a normal LTE subscriber; scenarios
        // may re-provision to test reject causes.
        carrier.hss.provision(crate::hss::SubscriberRecord {
            imsi: FACADE_IMSI,
            subscription: crate::hss::Subscription::Active,
            lte_enabled: true,
        });
        carrier.provision_session(FACADE_IMSI, cfg.op.mme_lu_recovery);
        // Phase-end restarts are part of the plan, scheduled up front.
        let mut wheel = TimingWheel::new();
        for (i, end) in cfg.campaign.iter().flat_map(Campaign::restart_ends) {
            wheel.schedule(end, (ue.id, BlockEv::Sim(Ev::FaultPhaseEnd(i))));
        }
        Self {
            now: SimTime::ZERO,
            cfg,
            ue,
            carrier,
            wheel,
        }
    }

    /// The adversary's deterministic campaign report, if a campaign runs.
    pub fn campaign_report(&self) -> Option<CampaignReport> {
        self.ue.adversary.as_ref().map(|a| a.report())
    }

    /// The carrier session bundle serving this phone (MSC-MM/CC, SGSN,
    /// MME), provisioned by [`World::new`] with the profile's
    /// [`OperatorProfile::mme_lu_recovery`].
    pub fn session(&mut self) -> &mut CoreSession {
        self.carrier.session(self.ue.imsi)
    }

    /// Shortcut to this phone's MME machine (scenario knobs like
    /// `duplicate_policy` live there).
    pub fn mme_mut(&mut self) -> &mut cellstack::emm::MmeEmm {
        &mut self.session().mme
    }

    /// Schedule `ev` `delay_ms` from now.
    pub fn schedule_in(&mut self, delay_ms: u64, ev: Ev) {
        self.schedule_at(self.now + delay_ms, ev);
    }

    /// Schedule `ev` at absolute time `at`. A time before [`World::now`]
    /// is clamped to `now`: the past is not schedulable, so the event
    /// fires next, after the events already pending at `now`.
    pub fn schedule_at(&mut self, at: SimTime, ev: Ev) {
        self.wheel
            .schedule(at.max(self.now), (self.ue.id, BlockEv::Sim(ev)));
    }

    /// Run the event loop until `deadline` (events at exactly `deadline`
    /// are processed).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.wheel.peek_time() {
            if at > deadline {
                break;
            }
            let (at, (_id, bev)) = self.wheel.pop().expect("peeked");
            let BlockEv::Sim(ev) = bev else {
                unreachable!("the facade schedules only simulation events");
            };
            self.now = at;
            let mut ex = Exec {
                now: self.now,
                cfg: &self.cfg,
                ue: &mut self.ue,
                carrier: &mut self.carrier,
                wheel: &mut self.wheel,
            };
            ex.handle(ev);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Start a drive test; schedules position ticks every second.
    pub fn start_drive(&mut self, drive: Drive) {
        self.ue.drive = Some(drive);
        self.ue.last_mile = 0.0;
        self.schedule_in(1_000, Ev::DrivePosition);
    }
}

#[cfg(test)]
mod facade_tests {
    use super::*;
    use crate::operator::op_i;

    /// The facade keeps the exact pre-fleet field surface: reads and
    /// writes through the deref, carrier machines via the session table.
    #[test]
    fn facade_field_surface_reads_and_writes() {
        let mut w = World::new(WorldConfig::new(op_i(), 1));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        assert!(!w.stack.out_of_service());
        assert!(!w.trace.is_empty());
        assert_eq!(w.imsi, FACADE_IMSI);
        // Writes through the deref.
        w.csfb = None;
        w.stack.serving = RatSystem::Utran3g;
        assert_eq!(w.stack.serving, RatSystem::Utran3g);
        // Exactly one carrier session exists for the one phone.
        assert_eq!(w.carrier.active_sessions(), 1);
    }

    /// The wheel accepts every representable time, and a time in the past
    /// is clamped to now rather than running the clock backwards.
    #[test]
    fn far_future_and_past_schedules_do_not_panic() {
        let mut w = World::new(WorldConfig::new(op_i(), 1));
        w.schedule_at(SimTime::from_millis(u64::MAX), Ev::CheckReselection);
        w.schedule_at(SimTime::from_millis(1 << 62), Ev::CheckReselection);
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(10));
        let before = w.trace.len();
        w.schedule_at(SimTime::from_secs(2), Ev::Detach);
        w.run_until(SimTime::from_secs(20));
        let traced = &w.trace.entries()[before..];
        assert!(!traced.is_empty(), "the detach signaled");
        assert!(
            traced.iter().all(|e| e.ts >= SimTime::from_secs(10)),
            "the past detach fired at now"
        );
        w.run_until(SimTime::from_millis(1 << 62));
        assert_eq!(w.now, SimTime::from_millis(1 << 62));
    }
}
