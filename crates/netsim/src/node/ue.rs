//! Per-phone simulation state: one UE's stack, trackers and measurements.

use rand::rngs::StdRng;

use cellstack::{CsfbCall, DeviceStack};

use crate::inject::Adversary;
use crate::metrics::Metrics;
use crate::mobility::Drive;
use crate::rng::rng_from_seed;
use crate::time::SimTime;
use crate::trace::TraceCollector;
use crate::world::WorldConfig;

/// Identifies one UE inside a fleet. Events in the shared queue carry the
/// id of the phone they belong to; the single-UE facade always uses id 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UeId(pub u32);

/// Everything the simulation keeps *per phone*: the device protocol stack,
/// the CSFB episode tracker, the drive state, the per-UE RNG stream, the
/// typed trace log and the measurement bookkeeping.
///
/// A [`crate::World`] derefs to its single `Ue`, so scenario code keeps
/// reading `w.stack` / `w.trace` / `w.metrics` unchanged.
pub struct Ue {
    /// This phone's id within the fleet (0 for the single-UE facade).
    pub id: UeId,
    /// The phone's IMSI in the HSS.
    pub imsi: u64,
    /// The phone's protocol stack.
    pub stack: DeviceStack,
    /// Trace collector (the phone-side QXDM log).
    pub trace: TraceCollector,
    /// Measurements.
    pub metrics: Metrics,
    /// Active CSFB call tracker.
    pub csfb: Option<CsfbCall>,
    /// Active drive test.
    pub drive: Option<Drive>,
    /// Campaign-driven fault injector (present when the config carries a
    /// campaign). Owns its own RNG stream, so its decisions never perturb
    /// the latency trajectories drawn from the UE RNG.
    pub adversary: Option<Adversary>,

    /// The UE's private randomness: every latency sample and probabilistic
    /// outcome for this phone draws from here, which is what makes per-UE
    /// trajectories independent of fleet size and thread count.
    pub(crate) rng: StdRng,
    // Measurement bookkeeping.
    pub(crate) dial_time: Option<SimTime>,
    pub(crate) dial_during_update: bool,
    pub(crate) lau_start: Option<SimTime>,
    pub(crate) rau_start: Option<SimTime>,
    pub(crate) tau_start: Option<SimTime>,
    pub(crate) oos_since: Option<SimTime>,
    pub(crate) call_end_time: Option<SimTime>,
    pub(crate) last_mile: f64,
    pub(crate) deferred_lau_pending: bool,
    /// Operator-side readiness time for the next re-attach after a
    /// network-caused detach ("the re-attach is mainly controlled by
    /// operators", §5.1.3 / Figure 4).
    pub(crate) reattach_ready_at: Option<SimTime>,
    pub(crate) return_scheduled: bool,
    pub(crate) emm_retry_armed: bool,
    pub(crate) data_session_active: bool,
    pub(crate) user_detached: bool,
    pub(crate) mt_call_pending: bool,
    /// The racing deferred LAU already won against the redirect return
    /// this CSFB episode ([`WorldConfig::redirect_defers_to_lau`]).
    pub(crate) lau_race_spared: bool,
    /// When the return started waiting for the racing LAU (bounds the
    /// wait so a lost LAU cannot park the phone in 3G forever).
    pub(crate) lau_race_wait_since: Option<SimTime>,
}

impl Ue {
    /// Build one phone from a world configuration. The RNG is seeded from
    /// `cfg.seed` exactly as the pre-fleet `World` did, so single-UE
    /// trajectories (and the checked-in goldens) are unchanged.
    pub fn from_config(id: UeId, imsi: u64, cfg: &WorldConfig) -> Self {
        Self::with_seed(id, imsi, cfg, cfg.seed)
    }

    /// Build one phone from a shared configuration but its own RNG seed —
    /// the fleet path, where one `WorldConfig` per behavior class is
    /// shared across every member and only the seed is per-UE.
    pub fn with_seed(id: UeId, imsi: u64, cfg: &WorldConfig, seed: u64) -> Self {
        let mut stack = DeviceStack::new();
        if cfg.phone_quirk {
            stack.emm.quirk_tau_before_detach = true;
        }
        if cfg.op.device_remedies {
            stack = stack.with_remedies();
        }
        if cfg.nas_retx {
            stack = stack.with_retransmission();
        }
        let rng = rng_from_seed(seed);
        let adversary = cfg.campaign.clone().map(Adversary::new);
        Self {
            id,
            imsi,
            stack,
            trace: TraceCollector::with_capacity(cfg.trace_capacity),
            metrics: Metrics::default(),
            csfb: None,
            drive: None,
            adversary,
            rng,
            dial_time: None,
            dial_during_update: false,
            lau_start: None,
            rau_start: None,
            tau_start: None,
            oos_since: None,
            call_end_time: None,
            last_mile: 0.0,
            deferred_lau_pending: false,
            reattach_ready_at: None,
            return_scheduled: false,
            emm_retry_armed: false,
            data_session_active: false,
            user_detached: false,
            mt_call_pending: false,
            lau_race_spared: false,
            lau_race_wait_since: None,
        }
    }

    /// Is a voice call being set up or active (CSFB episodes included)?
    pub fn call_in_progress(&self) -> bool {
        self.dial_time.is_some()
            || self.stack.rrc3g.cs_active
            || self.csfb.is_some()
            || self.stack.cc.state != cellstack::cm::CcState::Null
    }
}
