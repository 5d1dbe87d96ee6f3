//! The study population and its behaviour model.
//!
//! §7: "two-week user study with 20 volunteers, including students, faculty
//! members, engineers and technology-unsavvy people. 12 people use
//! 4G-capable phones, while others use 3G-only phones." The observed event
//! volume — 190 CSFB calls, 146 CS calls in 3G, 436 inter-system switches
//! (380 caused by the 190 CSFB calls), 30 attaches — calibrates the
//! per-user daily rates here.

use rand::rngs::StdRng;
use rand::Rng;

use netsim::{op_i, op_ii, BehaviorProfile, UeSpec};

/// The carrier a participant subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Carrier {
    /// OP-I (release-with-redirect).
    OpI,
    /// OP-II (cell reselection).
    OpII,
}

/// Rough persona, shaping usage intensity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Persona {
    /// Heavy data + voice user.
    Student,
    /// Moderate usage.
    Faculty,
    /// Heavy daytime usage.
    Engineer,
    /// Light, voice-leaning usage.
    TechUnsavvy,
}

impl Persona {
    /// Multiplier applied to the base daily call/data rates.
    pub fn intensity(self) -> f64 {
        match self {
            Persona::Student => 1.4,
            Persona::Faculty => 0.9,
            Persona::Engineer => 1.2,
            Persona::TechUnsavvy => 0.5,
        }
    }
}

/// One study participant.
#[derive(Clone, Debug)]
pub struct Participant {
    /// Participant id (0-based).
    pub id: u32,
    /// 4G-capable phone (CSFB calls) or 3G-only (plain CS calls).
    pub has_4g: bool,
    /// Carrier subscription.
    pub carrier: Carrier,
    /// Persona.
    pub persona: Persona,
    /// Probability that mobile data is on / a data session is in progress
    /// when a voice event happens. Calibrated: 129/218 switches had data
    /// on; 113/146 CS calls had ongoing data traffic.
    pub data_on_prob: f64,
    /// Outgoing fraction of the participant's calls (79/146 observed).
    pub outgoing_call_prob: f64,
}

/// Build the paper's population: 20 participants, 12 with 4G phones,
/// spread across both carriers and all personas.
pub fn build_population(rng: &mut StdRng) -> Vec<Participant> {
    let personas = [
        Persona::Student,
        Persona::Faculty,
        Persona::Engineer,
        Persona::TechUnsavvy,
    ];
    (0..20)
        .map(|id| {
            let has_4g = id < 12;
            // OP-II slightly over-represented among the 4G users (the study
            // saw 64 OP-II vs 39 OP-I data-on CSFB calls).
            let carrier = if has_4g {
                if id < 5 {
                    Carrier::OpI
                } else {
                    Carrier::OpII
                }
            } else if id % 2 == 0 {
                Carrier::OpI
            } else {
                Carrier::OpII
            };
            Participant {
                id,
                has_4g,
                carrier,
                persona: personas[(id as usize) % personas.len()],
                data_on_prob: if has_4g {
                    0.55 + rng.gen::<f64>() * 0.2
                } else {
                    0.70 + rng.gen::<f64>() * 0.2
                },
                outgoing_call_prob: 0.54,
            }
        })
        .collect()
}

/// Study length in days (§7: two weeks).
pub const STUDY_DAYS: u32 = 14;

/// Calibrated base rates per user-day, chosen so the expected event totals
/// match §7's observed counts.
pub mod rates {
    /// CSFB calls per 4G-user day (12 users × 14 days × 1.13 ≈ 190).
    pub const CSFB_CALLS_PER_DAY: f64 = 1.13;
    /// 3G CS calls per 3G-user day (8 × 14 × 1.30 ≈ 146).
    pub const CS_CALLS_PER_DAY: f64 = 1.30;
    /// Non-CSFB 4G→3G switches per 4G-user day (coverage + carrier; the
    /// study observed 28 alongside the 380 CSFB-caused legs).
    pub const OTHER_SWITCHES_PER_DAY: f64 = 0.17;
    /// Power cycles per user-day. Every participant's phone attaches once
    /// when the study starts, so ≈30 observed attaches = 20 initial
    /// attaches + 20 × 14 × 0.036 ≈ 10 re-attach cycles.
    pub const POWER_CYCLES_PER_DAY: f64 = 0.036;
}

/// Translate a participant into the fleet-simulation spec that drives
/// their phone: the carrier profile picks the operator policies
/// (release-with-redirect vs cell reselection — the S3/S6 split) and the
/// behaviour rates are the §7 base rates scaled by the persona intensity.
pub fn spec_for(p: &Participant) -> UeSpec {
    let intensity = p.persona.intensity();
    UeSpec {
        op: match p.carrier {
            Carrier::OpI => op_i(),
            Carrier::OpII => op_ii(),
        },
        behavior: BehaviorProfile {
            starts_on_3g: !p.has_4g,
            csfb_calls_per_day: if p.has_4g {
                rates::CSFB_CALLS_PER_DAY * intensity
            } else {
                0.0
            },
            cs_calls_per_day: if p.has_4g {
                0.0
            } else {
                rates::CS_CALLS_PER_DAY * intensity
            },
            coverage_switches_per_day: if p.has_4g {
                rates::OTHER_SWITCHES_PER_DAY * intensity
            } else {
                0.0
            },
            power_cycles_per_day: rates::POWER_CYCLES_PER_DAY,
            data_on_prob: p.data_on_prob,
            outgoing_call_prob: p.outgoing_call_prob,
            // Table 3 / §7 hazard rates: a few percent of 3G dwells lose
            // their PDP context; 7.6% of outgoing calls race an LAU.
            pdp_deactivation_prob: 0.031,
            lau_collision_prob: 0.076,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::rng_from_seed;

    #[test]
    fn population_matches_study_shape() {
        let mut rng = rng_from_seed(1);
        let pop = build_population(&mut rng);
        assert_eq!(pop.len(), 20);
        assert_eq!(pop.iter().filter(|p| p.has_4g).count(), 12);
        assert!(pop.iter().any(|p| p.carrier == Carrier::OpI));
        assert!(pop.iter().any(|p| p.carrier == Carrier::OpII));
    }

    #[test]
    fn op2_over_represented_among_4g_users() {
        let mut rng = rng_from_seed(2);
        let pop = build_population(&mut rng);
        let op2_4g = pop
            .iter()
            .filter(|p| p.has_4g && p.carrier == Carrier::OpII)
            .count();
        let op1_4g = pop
            .iter()
            .filter(|p| p.has_4g && p.carrier == Carrier::OpI)
            .count();
        assert!(op2_4g > op1_4g);
    }

    #[test]
    fn expected_event_totals_match_paper() {
        let csfb = 12.0 * STUDY_DAYS as f64 * rates::CSFB_CALLS_PER_DAY;
        assert!((185.0..=195.0).contains(&csfb), "≈190 CSFB calls, {csfb}");
        let cs = 8.0 * STUDY_DAYS as f64 * rates::CS_CALLS_PER_DAY;
        assert!((140.0..=152.0).contains(&cs), "≈146 CS calls, {cs}");
        // Initial attach per participant + re-attach power cycles.
        let attaches = 20.0 + 20.0 * STUDY_DAYS as f64 * rates::POWER_CYCLES_PER_DAY;
        assert!(
            (27.0..=33.0).contains(&attaches),
            "≈30 attaches, {attaches}"
        );
    }

    #[test]
    fn personas_scale_intensity() {
        assert!(Persona::Student.intensity() > Persona::TechUnsavvy.intensity());
    }

    #[test]
    fn specs_follow_phone_capability_and_carrier() {
        let mut rng = rng_from_seed(3);
        let pop = build_population(&mut rng);
        for p in &pop {
            let spec = spec_for(p);
            assert_eq!(spec.behavior.starts_on_3g, !p.has_4g);
            if p.has_4g {
                assert!(spec.behavior.csfb_calls_per_day > 0.0);
                assert_eq!(spec.behavior.cs_calls_per_day, 0.0);
            } else {
                assert_eq!(spec.behavior.csfb_calls_per_day, 0.0);
                assert!(spec.behavior.cs_calls_per_day > 0.0);
            }
            let want = match p.carrier {
                Carrier::OpI => "OP-I",
                Carrier::OpII => "OP-II",
            };
            assert_eq!(spec.op.name, want);
        }
    }
}
