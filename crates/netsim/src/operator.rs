//! Operator policy profiles.
//!
//! The paper measures two major US carriers, anonymized as **OP-I** and
//! **OP-II** (§3.3). Their behavioural differences — which inter-system
//! switch mechanism they use (S3), whether they defer the CSFB location
//! update (S6), how aggressively the shared channel couples CS and PS (S5),
//! and their core-network latencies (Figures 4, 7, 8; Table 6) — are policy
//! choices, captured here as data. The latency distributions are calibrated
//! to the quantiles the paper reports; the *mechanisms* (what fails, and
//! why OP-I and OP-II diverge) come from the protocol FSMs.
//!
//! Each carrier's latencies are calibrated once, so they live in one
//! `static` [`Latencies`] table per carrier that every profile of that
//! carrier points at. A profile inlines only the policy fields callers set
//! or edit at run time, which keeps a per-UE fleet description small.

use cellstack::SwitchMechanism;

use crate::rng::DurationDist;

/// A carrier's calibrated latency table, shared by every profile of that
/// carrier (and by its [`OperatorProfile::remedied`] rollout).
#[derive(Debug, PartialEq)]
pub struct Latencies {
    /// 3G CS location-area update duration (Figure 8a).
    pub lau_duration: DurationDist,
    /// 3G PS routing-area update duration (Figure 8b).
    pub rau_duration: DurationDist,
    /// 4G tracking-area update duration.
    pub tau_duration: DurationDist,
    /// The post-LAU `MM WAIT-FOR-NETWORK-COMMAND` hold (the ≈4.3 s chain
    /// effect of §6.1.2).
    pub mm_wait_net_cmd: DurationDist,
    /// Time to complete a re-attach after being detached (Figure 4:
    /// 2.4–24.7 s; "the re-attach is mainly controlled by operators").
    pub reattach_duration: DurationDist,
    /// 4G→3G CSFB fallback latency (switch command to camped-in-3G).
    pub csfb_fallback_delay: DurationDist,
    /// 3G→4G return latency when using release-with-redirect (Table 6,
    /// OP-I column).
    pub redirect_return_delay: DurationDist,
    /// 3G→4G reselection latency once RRC reaches IDLE (Table 6, OP-II's
    /// extra wait on top of the data-session drain).
    pub reselect_return_delay: DurationDist,
    /// CC Setup → Connect latency (network routing + callee answer),
    /// calibrated so Figure 7's average 11.4 s call setup emerges.
    pub call_connect_delay: DurationDist,
    /// One-way NAS transport latency (device↔core).
    pub nas_owd: DurationDist,
    /// Lifetime of user data sessions (drives how long OP-II users stay
    /// stuck in 3G — Table 6's right column).
    pub data_session_lifetime: DurationDist,
}

/// A carrier's policy profile. The latency table is shared, not copied:
/// `latencies` points at the carrier's one `static` table, so the profile
/// is 32 bytes on a 64-bit target whatever the table holds.
#[derive(Clone, Copy, Debug)]
pub struct OperatorProfile {
    /// Display name ("OP-I" / "OP-II").
    pub name: &'static str,
    /// Mechanism used to move devices back to 4G after a CSFB call — the
    /// S3 policy split (§5.3.2: OP-I releases with redirect, OP-II waits
    /// for inter-system cell reselection).
    pub switch_mechanism: SwitchMechanism,
    /// The carrier's calibrated latencies (Figures 4, 7, 8; Table 6).
    pub latencies: &'static Latencies,
    /// TS 23.272 option: defer the first in-3G location update until the
    /// CSFB call completes (§6.3; both carriers do).
    pub defer_csfb_first_update: bool,
    /// Voice-first uplink scheduling on the shared channel (S5's 96.1%
    /// uplink collapse — OP-II).
    pub aggressive_ul_coupling: bool,
    /// §8 device-side remedy bundle rolled out to this carrier's handsets
    /// (bearer reactivation after a context-less 3G→4G switch + the
    /// parallel MM threads). Fleet lanes build their stacks with
    /// `with_remedies()` when set.
    pub device_remedies: bool,
    /// §8 MME-side cross-system remedy: absorb 3G location-update failures
    /// and recover in-core instead of detaching the device (S6).
    pub mme_lu_recovery: bool,
}

/// Field-wise equality, except that the latency tables are compared by
/// address first: profiles of one carrier point at the same `static`
/// table, so the common case never walks its eleven distributions.
impl PartialEq for OperatorProfile {
    fn eq(&self, other: &Self) -> bool {
        let Self {
            name,
            switch_mechanism,
            latencies,
            defer_csfb_first_update,
            aggressive_ul_coupling,
            device_remedies,
            mme_lu_recovery,
        } = *self;
        name == other.name
            && switch_mechanism == other.switch_mechanism
            && (std::ptr::eq(latencies, other.latencies) || *latencies == *other.latencies)
            && defer_csfb_first_update == other.defer_csfb_first_update
            && aggressive_ul_coupling == other.aggressive_ul_coupling
            && device_remedies == other.device_remedies
            && mme_lu_recovery == other.mme_lu_recovery
    }
}

impl OperatorProfile {
    /// The §8 remedy rollout of this profile: same policies and latencies,
    /// but handsets carry the device-side remedy bundle and the MME
    /// absorbs LU failures. The display name gains a `+R` suffix so fleet
    /// reports and metric labels keep remedied populations separate.
    pub fn remedied(self) -> OperatorProfile {
        OperatorProfile {
            name: match self.name {
                "OP-I" => "OP-I+R",
                "OP-II" => "OP-II+R",
                other => other,
            },
            device_remedies: true,
            mme_lu_recovery: true,
            ..self
        }
    }
}

/// OP-I's latency table.
static OP_I_LATENCIES: Latencies = Latencies {
    // Figure 8a: all > 2 s, average ≈ 3 s.
    lau_duration: DurationDist::Normal {
        mean_ms: 3_000.0,
        sd_ms: 600.0,
        min_ms: 2_050,
        max_ms: 5_500,
    },
    // Figure 8b: ~75% within 1–3.6 s.
    rau_duration: DurationDist::Normal {
        mean_ms: 2_300.0,
        sd_ms: 1_150.0,
        min_ms: 400,
        max_ms: 8_000,
    },
    tau_duration: DurationDist::Normal {
        mean_ms: 800.0,
        sd_ms: 250.0,
        min_ms: 200,
        max_ms: 2_500,
    },
    mm_wait_net_cmd: DurationDist::Normal {
        mean_ms: 4_300.0,
        sd_ms: 400.0,
        min_ms: 3_000,
        max_ms: 6_000,
    },
    // Figure 4: 2.4–24.7 s, median ≈ 5 s.
    reattach_duration: DurationDist::LogNormal {
        mu: 8.52, // ln(5000)
        sigma: 0.55,
        min_ms: 2_400,
        max_ms: 24_700,
    },
    csfb_fallback_delay: DurationDist::Normal {
        mean_ms: 1_500.0,
        sd_ms: 300.0,
        min_ms: 800,
        max_ms: 3_000,
    },
    // Table 6 OP-I: min 1.1, median 2.3, max 52.6, avg 6.2 s.
    redirect_return_delay: DurationDist::LogNormal {
        mu: 0.83_f64 + 7.0, // ln(2300) ≈ 7.74
        sigma: 1.05,
        min_ms: 1_100,
        max_ms: 52_600,
    },
    reselect_return_delay: DurationDist::Normal {
        mean_ms: 2_000.0,
        sd_ms: 500.0,
        min_ms: 1_000,
        max_ms: 4_000,
    },
    // Figure 7: average call setup ≈ 11.4 s end-to-end.
    call_connect_delay: DurationDist::Normal {
        mean_ms: 10_400.0,
        sd_ms: 700.0,
        min_ms: 8_000,
        max_ms: 14_000,
    },
    nas_owd: DurationDist::Normal {
        mean_ms: 60.0,
        sd_ms: 15.0,
        min_ms: 20,
        max_ms: 150,
    },
    data_session_lifetime: DurationDist::LogNormal {
        mu: 10.1, // ln(~24.3 s)
        sigma: 1.0,
        min_ms: 5_000,
        max_ms: 300_000,
    },
};

/// OP-I: release-with-redirect carrier; faster 3G return, slower location
/// updates, milder uplink coupling.
pub fn op_i() -> OperatorProfile {
    OperatorProfile {
        name: "OP-I",
        switch_mechanism: SwitchMechanism::ReleaseWithRedirect,
        latencies: &OP_I_LATENCIES,
        defer_csfb_first_update: true,
        aggressive_ul_coupling: false,
        device_remedies: false,
        mme_lu_recovery: false,
    }
}

/// OP-II's latency table.
static OP_II_LATENCIES: Latencies = Latencies {
    // Figure 8a: 72% within 1.2–2.1 s, average ≈ 1.9 s.
    lau_duration: DurationDist::Normal {
        mean_ms: 1_900.0,
        sd_ms: 320.0,
        min_ms: 900,
        max_ms: 4_000,
    },
    // Figure 8b: 90% within 1.6–4.1 s.
    rau_duration: DurationDist::Normal {
        mean_ms: 2_850.0,
        sd_ms: 760.0,
        min_ms: 800,
        max_ms: 8_000,
    },
    tau_duration: DurationDist::Normal {
        mean_ms: 900.0,
        sd_ms: 300.0,
        min_ms: 200,
        max_ms: 3_000,
    },
    mm_wait_net_cmd: DurationDist::Normal {
        mean_ms: 3_800.0,
        sd_ms: 500.0,
        min_ms: 2_500,
        max_ms: 6_000,
    },
    // Figure 4: OP-II skews later than OP-I.
    reattach_duration: DurationDist::LogNormal {
        mu: 9.0, // ln(~8100)
        sigma: 0.5,
        min_ms: 2_400,
        max_ms: 24_700,
    },
    csfb_fallback_delay: DurationDist::Normal {
        mean_ms: 1_800.0,
        sd_ms: 350.0,
        min_ms: 900,
        max_ms: 3_500,
    },
    redirect_return_delay: DurationDist::Normal {
        mean_ms: 2_500.0,
        sd_ms: 600.0,
        min_ms: 1_200,
        max_ms: 5_000,
    },
    // Table 6 OP-II: the reselection itself takes this long *after* RRC
    // reaches IDLE; the bulk of the stuck time is the data session.
    reselect_return_delay: DurationDist::LogNormal {
        mu: 9.6, // ln(~14.8 s)
        sigma: 0.45,
        min_ms: 8_000,
        max_ms: 60_000,
    },
    call_connect_delay: DurationDist::Normal {
        mean_ms: 10_600.0,
        sd_ms: 800.0,
        min_ms: 8_000,
        max_ms: 14_500,
    },
    nas_owd: DurationDist::Normal {
        mean_ms: 70.0,
        sd_ms: 20.0,
        min_ms: 20,
        max_ms: 180,
    },
    // OP-II's user population in the study ran longer sessions, giving
    // Table 6's 253.9 s maximum.
    data_session_lifetime: DurationDist::LogNormal {
        mu: 10.0,
        sigma: 1.1,
        min_ms: 8_000,
        max_ms: 360_000,
    },
};

/// OP-II: cell-reselection carrier; stuck-in-3G S3, aggressive uplink
/// coupling, faster location updates.
pub fn op_ii() -> OperatorProfile {
    OperatorProfile {
        name: "OP-II",
        switch_mechanism: SwitchMechanism::CellReselection,
        latencies: &OP_II_LATENCIES,
        defer_csfb_first_update: true,
        aggressive_ul_coupling: true,
        device_remedies: false,
        mme_lu_recovery: false,
    }
}

/// Both profiles, for experiments that sweep carriers.
pub fn both() -> [OperatorProfile; 2] {
    [op_i(), op_ii()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn samples(d: DurationDist, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rng_from_seed(seed);
        (0..n).map(|_| d.sample_ms(&mut rng)).collect()
    }

    #[test]
    fn mechanisms_split_as_paper_reports() {
        assert_eq!(
            op_i().switch_mechanism,
            SwitchMechanism::ReleaseWithRedirect
        );
        assert_eq!(op_ii().switch_mechanism, SwitchMechanism::CellReselection);
    }

    #[test]
    fn op1_lau_all_above_2s_mean_near_3s() {
        let s = samples(op_i().latencies.lau_duration, 5_000, 10);
        assert!(s.iter().all(|&v| v > 2_000), "Fig 8a: all > 2 s");
        let mean = s.iter().sum::<u64>() as f64 / s.len() as f64;
        assert!((2_700.0..=3_300.0).contains(&mean), "mean {mean} ≈ 3 s");
    }

    #[test]
    fn op2_lau_majority_in_paper_band() {
        let s = samples(op_ii().latencies.lau_duration, 5_000, 11);
        let in_band = s.iter().filter(|&&v| (1_200..=2_100).contains(&v)).count();
        let frac = in_band as f64 / s.len() as f64;
        assert!(
            (0.62..=0.82).contains(&frac),
            "Fig 8a OP-II: ≈72% in 1.2–2.1 s, got {frac:.2}"
        );
        let mean = s.iter().sum::<u64>() as f64 / s.len() as f64;
        assert!((1_700.0..=2_100.0).contains(&mean), "mean {mean} ≈ 1.9 s");
    }

    #[test]
    fn op1_rau_band() {
        let s = samples(op_i().latencies.rau_duration, 5_000, 12);
        let in_band = s.iter().filter(|&&v| (1_000..=3_600).contains(&v)).count();
        let frac = in_band as f64 / s.len() as f64;
        assert!(
            (0.65..=0.85).contains(&frac),
            "Fig 8b OP-I: ≈75% in 1–3.6 s, got {frac:.2}"
        );
    }

    #[test]
    fn op2_rau_band() {
        let s = samples(op_ii().latencies.rau_duration, 5_000, 13);
        let in_band = s.iter().filter(|&&v| (1_600..=4_100).contains(&v)).count();
        let frac = in_band as f64 / s.len() as f64;
        assert!(
            (0.80..=0.97).contains(&frac),
            "Fig 8b OP-II: ≈90% in 1.6–4.1 s, got {frac:.2}"
        );
    }

    #[test]
    fn reattach_spans_figure4_range() {
        for (op, seed) in [(op_i(), 14), (op_ii(), 15)] {
            let s = samples(op.latencies.reattach_duration, 2_000, seed);
            assert!(s.iter().all(|&v| (2_400..=24_700).contains(&v)));
            let min = *s.iter().min().unwrap();
            let max = *s.iter().max().unwrap();
            assert!(min < 4_000, "{}: min {min}", op.name);
            assert!(max > 15_000, "{}: max {max}", op.name);
        }
    }

    #[test]
    fn op1_redirect_return_matches_table6_quantiles() {
        let mut s = samples(op_i().latencies.redirect_return_delay, 20_000, 16);
        s.sort_unstable();
        let med = s[s.len() / 2] as f64 / 1_000.0;
        let mean = s.iter().sum::<u64>() as f64 / s.len() as f64 / 1_000.0;
        assert!((1.6..=3.2).contains(&med), "median {med} ≈ 2.3 s");
        assert!((4.0..=8.5).contains(&mean), "mean {mean} ≈ 6.2 s");
    }

    #[test]
    fn s5_coupling_asymmetry() {
        assert!(!op_i().aggressive_ul_coupling);
        assert!(op_ii().aggressive_ul_coupling);
    }

    #[test]
    fn both_defer_csfb_first_update() {
        assert!(op_i().defer_csfb_first_update);
        assert!(op_ii().defer_csfb_first_update);
    }

    #[test]
    fn base_profiles_carry_no_remedies() {
        for op in both() {
            assert!(!op.device_remedies, "{}", op.name);
            assert!(!op.mme_lu_recovery, "{}", op.name);
        }
    }

    #[test]
    fn fleet_specs_share_each_carriers_latency_table() {
        let spec = std::mem::size_of::<crate::UeSpec>();
        assert!(
            spec <= 128,
            "a per-UE fleet description costs size_of::<UeSpec>() = {spec} B per UE; \
             keep the latency table shared instead of copying it into every spec"
        );
        for (base, remedied) in [(op_i(), op_i().remedied()), (op_ii(), op_ii().remedied())] {
            assert!(
                std::ptr::eq(base.latencies, remedied.latencies),
                "{}: the remedy rollout must point at the carrier's table",
                remedied.name
            );
        }
        // Equality checks the shared table's address first, but still
        // compares values: a copy of the table equals the original.
        let copied = Box::leak(Box::new(Latencies { ..OP_I_LATENCIES }));
        let mut op = op_i();
        op.latencies = copied;
        assert!(!std::ptr::eq(op.latencies, op_i().latencies));
        assert_eq!(op, op_i(), "a copied table compares by value");
        assert_ne!(op_i(), op_ii());
        assert_ne!(op_i(), op_i().remedied());
    }

    #[test]
    fn remedied_profile_keeps_policies_changes_only_name_and_remedies() {
        let base = op_i();
        let r = base.remedied();
        assert_eq!(r.name, "OP-I+R");
        assert!(r.device_remedies && r.mme_lu_recovery);
        assert_eq!(r.switch_mechanism, base.switch_mechanism);
        assert_eq!(r.latencies.lau_duration, base.latencies.lau_duration);
        assert_eq!(r.aggressive_ul_coupling, base.aggressive_ul_coupling);
        assert_eq!(op_ii().remedied().name, "OP-II+R");
    }
}
