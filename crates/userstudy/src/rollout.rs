//! Fleet-level remedy rollout: base vs remedied carrier profile at scale.
//!
//! The differential matrix (`cnetverifier::remedydiff`) argues a remedy
//! works at the *model* level; this module closes the loop at the
//! *fleet* level, the way a carrier would: run the same UE population
//! twice — once on the base [`OperatorProfile`], once on
//! [`OperatorProfile::remedied`] — with the §7 study signatures evaluated
//! in-line, and diff the per-signature confirmed-occurrence rates (the
//! live Table 5). The §8 device bundle plus the MME LU-recovery fix must
//! *measurably lower* the S1 and S6 rates; signatures whose defects the
//! rolled-out remedies do not address (S3, S5) must stay put, which
//! guards against the remedy accidentally suppressing the monitors.
//!
//! Everything reported is a sum of per-lane tallies, so the report is a
//! pure function of the seed — independent of thread count and trace
//! retention (the determinism tests pin this).

use monitor::Signature;
use netsim::{BehaviorProfile, FleetConfig, FleetSim, LiveConfig, OperatorProfile, UeSpec};

use crate::study::study_signatures;

/// Signature names in [`study_signatures`]'s fixed order.
pub const SIG_NAMES: [&str; 6] = ["S1", "S2", "S3", "S4", "S5", "S6"];

/// One arm of the rollout: a fleet run on a single carrier profile.
#[derive(Clone, Debug)]
pub struct RolloutArm {
    /// The profile's display name ("OP-I", "OP-I+R", ...).
    pub profile: &'static str,
    /// Fleet size.
    pub ues: u32,
    /// Confirmed occurrences per signature, summed over the fleet.
    pub confirmed: Vec<u64>,
    /// Refuted settles per signature.
    pub refuted: Vec<u64>,
}

impl RolloutArm {
    /// Occurrence rate of signature `k` per UE.
    pub fn rate(&self, k: usize) -> f64 {
        if self.ues == 0 {
            0.0
        } else {
            self.confirmed[k] as f64 / f64::from(self.ues)
        }
    }
}

/// A base-vs-remedied pair of fleet runs.
#[derive(Clone, Debug)]
pub struct RolloutReport {
    /// Seed both arms ran under.
    pub seed: u64,
    /// Simulated days per arm.
    pub days: u32,
    /// The base profile's arm.
    pub base: RolloutArm,
    /// The remedied profile's arm.
    pub remedied: RolloutArm,
}

impl RolloutReport {
    /// Rate delta (remedied minus base) of signature `k`, in percentage
    /// points.
    pub fn delta_pp(&self, k: usize) -> f64 {
        (self.remedied.rate(k) - self.base.rate(k)) * 100.0
    }
}

fn run_arm(
    seed: u64,
    ues: u32,
    days: u32,
    threads: usize,
    op: OperatorProfile,
    sigs: &[Signature],
) -> RolloutArm {
    let roster = (0..ues)
        .map(|i| UeSpec {
            op,
            behavior: if i % 5 == 0 {
                BehaviorProfile::typical_3g()
            } else {
                BehaviorProfile::typical_4g()
            },
        })
        .collect();
    let mut cfg = FleetConfig::new(seed, days, threads, roster);
    // Tallies are retention-independent; keep lanes count-only.
    cfg.trace_capacity = Some(0);
    cfg.live = Some(LiveConfig::new(sigs.to_vec()));
    let n = sigs.len();
    let (_, shards) = FleetSim::new(cfg).run_fold(
        || (vec![0u64; n], vec![0u64; n]),
        |(confirmed, refuted), u| {
            if let Some(l) = &u.live {
                for k in 0..n {
                    confirmed[k] += u64::from(l.confirmed[k]);
                    refuted[k] += u64::from(l.refuted[k]);
                }
            }
        },
    );
    let mut confirmed = vec![0u64; n];
    let mut refuted = vec![0u64; n];
    for (c, r) in shards {
        for k in 0..n {
            confirmed[k] += c[k];
            refuted[k] += r[k];
        }
    }
    RolloutArm {
        profile: op.name,
        ues,
        confirmed,
        refuted,
    }
}

/// Run the rollout: the same `ues`-strong population for `days` simulated
/// days on `base` and on `base.remedied()`, with the six §7 study
/// signatures monitored in-line.
pub fn run_rollout(
    seed: u64,
    ues: u32,
    days: u32,
    threads: usize,
    base: OperatorProfile,
) -> RolloutReport {
    let sigs = study_signatures();
    RolloutReport {
        seed,
        days,
        base: run_arm(seed, ues, days, threads, base, &sigs),
        remedied: run_arm(seed, ues, days, threads, base.remedied(), &sigs),
    }
}

/// Render the rollout as the fixed-width rate-delta table `repro --exp
/// remedies` prints (and the golden pins).
pub fn render_rollout(r: &RolloutReport) -> String {
    let mut out = format!(
        "fleet rollout — {} vs {} ({} UEs, {} day(s), seed {})\n",
        r.base.profile, r.remedied.profile, r.base.ues, r.days, r.seed
    );
    out.push_str(&format!(
        "{:<4}  {:>10} {:>8}  {:>10} {:>8}  {:>9}\n",
        "sig", "base", "rate", "remedied", "rate", "delta"
    ));
    out.push_str(&"-".repeat(58));
    out.push('\n');
    for (k, name) in SIG_NAMES.iter().enumerate() {
        out.push_str(&format!(
            "{:<4}  {:>10} {:>7.2}%  {:>10} {:>7.2}%  {:>+8.2}pp\n",
            name,
            r.base.confirmed[k],
            r.base.rate(k) * 100.0,
            r.remedied.confirmed[k],
            r.remedied.rate(k) * 100.0,
            r.delta_pp(k)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-fleet rollout the unit tests share (the 20k-UE run lives in
    /// `repro --exp remedies` and its golden).
    fn small(threads: usize) -> RolloutReport {
        run_rollout(2014, 600, 1, threads, netsim::op_i())
    }

    #[test]
    fn remedied_profile_lowers_s1_and_s6() {
        let r = small(4);
        assert!(
            r.base.confirmed[0] > 0,
            "base OP-I must exhibit S1: {:?}",
            r.base.confirmed
        );
        assert!(
            r.remedied.confirmed[0] < r.base.confirmed[0],
            "bearer reactivation must lower the S1 rate: {:?} -> {:?}",
            r.base.confirmed,
            r.remedied.confirmed
        );
        assert!(
            r.remedied.confirmed[5] <= r.base.confirmed[5],
            "LU recovery must not raise S6"
        );
    }

    #[test]
    fn unaddressed_signatures_keep_their_rates() {
        // The rolled-out bundle does not touch the S3 (stuck-in-3G) or S5
        // (coupled-channel) mechanisms: their monitors must not be
        // suppressed by the remedied profile.
        let r = small(4);
        assert!(
            r.base.confirmed[2] > 0 && r.remedied.confirmed[2] > 0,
            "S3 unaffected by the rollout: {:?} -> {:?}",
            r.base.confirmed,
            r.remedied.confirmed
        );
        assert!(r.base.confirmed[4] > 0 && r.remedied.confirmed[4] > 0);
    }

    #[test]
    fn rollout_is_thread_count_independent() {
        let one = render_rollout(&small(1));
        let two = render_rollout(&small(2));
        let eight = render_rollout(&small(8));
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }
}
