//! Findings: the instances S1–S6 and their classification (paper Table 1),
//! plus the beyond-paper 5G NR / NSA candidates S7–S10 surfaced by the
//! timing-lattice sweep (`--exp fivegs`).

use serde::{Deserialize, Serialize};

use cellstack::{Dimension, IssueKind, Protocol};

/// The six problematic-interaction instances of the paper, plus the
/// repository's 5G NR / NSA candidate instances S7–S10 (kept out of
/// [`Instance::ALL`] so every Table-1 artifact stays byte-identical).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Instance {
    /// Out-of-service during 3G→4G switching (unprotected shared context).
    S1,
    /// Out-of-service during attach (out-of-sequence signaling).
    S2,
    /// Stuck in 3G after a CSFB call (inconsistent RRC state policy).
    S3,
    /// Outgoing call/data delayed by location update (HOL blocking).
    S4,
    /// PS rate collapse during CS service (fate sharing on the channel).
    S5,
    /// Out-of-service after 3G→4G switch (3G failure propagated to 4G).
    S6,
    /// 5GS registration aborted by a T3510 retransmission racing the AMF's
    /// own identification guard (candidate, timing-lattice sweep).
    S7,
    /// NSA secondary-leg (EN-DC) failure silently degrades user-plane
    /// service while 5GMM still reports registered (candidate).
    S8,
    /// EPS↔5GS fallback strands the device outside both registrations
    /// (candidate).
    S9,
    /// S2's attach race re-cut with explicit T3410 retransmission timers
    /// (candidate; the lattice shows it at every timer scale).
    S10,
}

impl Instance {
    /// The paper's instances in Table 1 order. Deliberately excludes
    /// S7–S10: every golden that renders Table 1, diagnoses against the
    /// fleet, or validates operators iterates this array.
    pub const ALL: [Instance; 6] = [
        Instance::S1,
        Instance::S2,
        Instance::S3,
        Instance::S4,
        Instance::S5,
        Instance::S6,
    ];

    /// The 5G NR / NSA candidate instances screened by `--exp fivegs`.
    pub const FIVEG: [Instance; 4] = [Instance::S7, Instance::S8, Instance::S9, Instance::S10];

    /// Table 1 problem statement.
    pub fn problem(self) -> &'static str {
        match self {
            Instance::S1 => {
                "User device is temporarily \"out-of-service\" during 3G->4G switching."
            }
            Instance::S2 => {
                "User device is temporarily \"out-of-service\" during the attach procedure."
            }
            Instance::S3 => "User device gets stuck in 3G.",
            Instance::S4 => "Outgoing call/Internet access is delayed.",
            Instance::S5 => "PS rate declines (e.g., 96.1% in OP-II) during ongoing CS service.",
            Instance::S6 => "User device is temporarily \"out-of-service\" after 3G->4G switching.",
            Instance::S7 => {
                "5GS registration is aborted when a T3510 retransmission races \
                 the AMF's identification guard."
            }
            Instance::S8 => {
                "User-plane service silently degrades after an NSA secondary-leg \
                 (EN-DC) failure while 5GMM still reports registered."
            }
            Instance::S9 => "EPS<->5GS fallback strands the device outside both registrations.",
            Instance::S10 => {
                "User device is temporarily \"out-of-service\" during attach, \
                 with T3410 retransmissions modeled explicitly."
            }
        }
    }

    /// Table 1 type column.
    pub fn kind(self) -> IssueKind {
        match self {
            Instance::S1 | Instance::S2 | Instance::S3 | Instance::S4 => IssueKind::Design,
            Instance::S5 | Instance::S6 => IssueKind::Operational,
            // The lattice classifies S7/S8 as timing-induced (violated only
            // at some timer-scale points) and S9/S10 as scale-independent.
            Instance::S7 | Instance::S8 => IssueKind::Operational,
            Instance::S9 | Instance::S10 => IssueKind::Design,
        }
    }

    /// Table 1 protocols column.
    pub fn protocols(self) -> &'static [Protocol] {
        match self {
            Instance::S1 => &[Protocol::Sm, Protocol::Esm, Protocol::Gmm, Protocol::Emm],
            Instance::S2 => &[Protocol::Emm, Protocol::Rrc4g],
            Instance::S3 => &[Protocol::Rrc3g, Protocol::CmCc, Protocol::Sm],
            Instance::S4 => &[Protocol::CmCc, Protocol::Mm, Protocol::Sm, Protocol::Gmm],
            Instance::S5 => &[Protocol::Rrc3g, Protocol::CmCc, Protocol::Sm],
            Instance::S6 => &[Protocol::Mm, Protocol::Emm],
            // The 5G-side protocols (5GMM, NR-RRC) are not in the 3G/4G
            // `Protocol` taxonomy; the fivegs report prints its own
            // protocol strings for these rows.
            Instance::S7 | Instance::S8 | Instance::S9 | Instance::S10 => &[],
        }
    }

    /// Table 1 dimension column (S3 spans two dimensions).
    pub fn dimensions(self) -> &'static [Dimension] {
        match self {
            Instance::S1 => &[Dimension::CrossSystem],
            Instance::S2 => &[Dimension::CrossLayer],
            Instance::S3 => &[Dimension::CrossDomain, Dimension::CrossSystem],
            Instance::S4 => &[Dimension::CrossLayer],
            Instance::S5 => &[Dimension::CrossDomain],
            Instance::S6 => &[Dimension::CrossSystem],
            Instance::S7 | Instance::S10 => &[Dimension::CrossLayer],
            Instance::S8 | Instance::S9 => &[Dimension::CrossSystem],
        }
    }

    /// Table 1 root-cause column.
    pub fn root_cause(self) -> &'static str {
        match self {
            Instance::S1 => {
                "States are shared but unprotected between 3G and 4G; \
                 states are deleted during inter-system switching (5.1)"
            }
            Instance::S2 => {
                "MME assumes reliable transfer of signals by RRC; \
                 RRC cannot ensure it (5.2)"
            }
            Instance::S3 => {
                "RRC state change policy is inconsistent for inter-system switching (5.3)"
            }
            Instance::S4 => {
                "Location update does not need to be, but is served with \
                 higher priority than outgoing call/data requests (6.1)"
            }
            Instance::S5 => {
                "3G-RRC configures the shared channel with a single \
                 modulation scheme for both data and voice (6.2)"
            }
            Instance::S6 => {
                "Information and action on location update failure in 3G \
                 are exposed to 4G (6.3)"
            }
            Instance::S7 => {
                "T3510 retransmission and the AMF identification guard run \
                 unsynchronized; whichever fires first decides whether the \
                 registration attempt survives"
            }
            Instance::S8 => {
                "EN-DC couples the user plane to an NR leg whose failure \
                 the LTE anchor's mobility state never reflects"
            }
            Instance::S9 => {
                "EPS and 5GS registrations are torn down before the target \
                 system's registration is confirmed"
            }
            Instance::S10 => {
                "MME assumes reliable transfer of signals by RRC; explicit \
                 T3410 retransmission narrows but cannot close the race"
            }
        }
    }

    /// Table 1 category (the two problem classes of §4).
    pub fn category(self) -> Category {
        match self {
            Instance::S1 | Instance::S2 | Instance::S3 => Category::NecessaryButProblematic,
            Instance::S4 | Instance::S5 | Instance::S6 => Category::IndependentButCoupled,
            Instance::S7 | Instance::S9 | Instance::S10 => Category::NecessaryButProblematic,
            Instance::S8 => Category::IndependentButCoupled,
        }
    }

    /// Which phase of the tool discovers the instance (§4: "we first
    /// identify four instances S1-S4 in the screening phase and then
    /// uncover two more operational issues S5 and S6 in the validation
    /// phase").
    pub fn discovered_by(self) -> Phase {
        match self {
            Instance::S1 | Instance::S2 | Instance::S3 | Instance::S4 => Phase::Screening,
            Instance::S5 | Instance::S6 => Phase::Validation,
            // S7–S10 come out of the screening-side timing-lattice sweep.
            Instance::S7 | Instance::S8 | Instance::S9 | Instance::S10 => Phase::Screening,
        }
    }

    /// The property each instance violates.
    pub fn property(self) -> &'static str {
        match self {
            Instance::S1 | Instance::S2 => crate::props::PACKET_SERVICE_OK,
            Instance::S4 | Instance::S5 => crate::props::CALL_SERVICE_OK,
            Instance::S3 | Instance::S6 => crate::props::MM_OK,
            Instance::S7 => crate::props::REGISTRATION_OK,
            Instance::S8 => crate::props::DUAL_CONNECTIVITY_OK,
            Instance::S9 => crate::props::FALLBACK_OK,
            Instance::S10 => crate::props::PACKET_SERVICE_OK,
        }
    }
}

impl std::fmt::Display for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The two problem classes of §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// "Necessary but problematic cooperations."
    NecessaryButProblematic,
    /// "Independent but coupled operations."
    IndependentButCoupled,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::NecessaryButProblematic => {
                write!(f, "Necessary but problematic cooperations")
            }
            Category::IndependentButCoupled => write!(f, "Independent but coupled operations"),
        }
    }
}

/// Which tool phase discovered an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Model-checking screening (§3.2).
    Screening,
    /// Carrier-side (here: simulated) validation (§3.3).
    Validation,
}

/// A concrete finding produced by the tool: an instance plus its witness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Finding {
    /// Which instance.
    pub instance: Instance,
    /// The violated property.
    pub property: String,
    /// Human-readable counterexample steps (screening) or observed evidence
    /// (validation).
    pub witness: Vec<String>,
    /// Counterexample length in transitions (0 for validation findings).
    pub steps: usize,
    /// True when the witness ends in a lasso (a forever-delayed service).
    pub lasso: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_instances() {
        assert_eq!(Instance::ALL.len(), 6);
    }

    #[test]
    fn fiveg_candidates_stay_out_of_table1() {
        assert_eq!(Instance::FIVEG.len(), 4);
        for i in Instance::FIVEG {
            assert!(!Instance::ALL.contains(&i), "{i} must not join Table 1");
            assert!(!i.property().is_empty());
            assert!(!i.problem().is_empty());
            assert_eq!(i.discovered_by(), Phase::Screening);
        }
        assert_eq!(Instance::S7.property(), "Registration_OK");
        assert_eq!(Instance::S8.property(), "DualConnectivity_OK");
        assert_eq!(Instance::S9.property(), "Fallback_OK");
        assert_eq!(Instance::S10.property(), "PacketService_OK");
    }

    #[test]
    fn table1_types() {
        assert_eq!(Instance::S1.kind(), IssueKind::Design);
        assert_eq!(Instance::S4.kind(), IssueKind::Design);
        assert_eq!(Instance::S5.kind(), IssueKind::Operational);
        assert_eq!(Instance::S6.kind(), IssueKind::Operational);
    }

    #[test]
    fn table1_dimensions() {
        assert_eq!(Instance::S2.dimensions(), &[Dimension::CrossLayer]);
        assert_eq!(
            Instance::S3.dimensions(),
            &[Dimension::CrossDomain, Dimension::CrossSystem]
        );
        assert_eq!(Instance::S6.dimensions(), &[Dimension::CrossSystem]);
    }

    #[test]
    fn categories_split_three_three() {
        let necessary = Instance::ALL
            .iter()
            .filter(|i| i.category() == Category::NecessaryButProblematic)
            .count();
        assert_eq!(necessary, 3);
    }

    #[test]
    fn discovery_phases_match_section4() {
        assert_eq!(Instance::S4.discovered_by(), Phase::Screening);
        assert_eq!(Instance::S5.discovered_by(), Phase::Validation);
        assert_eq!(Instance::S6.discovered_by(), Phase::Validation);
    }

    #[test]
    fn properties_assigned() {
        assert_eq!(Instance::S1.property(), "PacketService_OK");
        assert_eq!(Instance::S4.property(), "CallService_OK");
        assert_eq!(Instance::S3.property(), "MM_OK");
    }

    #[test]
    fn protocols_match_table1() {
        assert!(Instance::S2.protocols().contains(&Protocol::Rrc4g));
        assert!(Instance::S6.protocols().contains(&Protocol::Mm));
        assert!(Instance::S6.protocols().contains(&Protocol::Emm));
    }
}
