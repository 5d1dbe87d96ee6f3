//! Foundational identifiers and enumerations shared by every protocol model.

use serde::{Deserialize, Serialize};

/// Radio access technology / system generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RatSystem {
    /// 3G UMTS (UTRAN). Supports both CS and PS domains.
    Utran3g,
    /// 4G LTE (E-UTRAN). PS only; voice needs VoLTE or CSFB.
    Lte4g,
}

impl RatSystem {
    /// The other system (used for inter-system switch targets).
    pub fn other(self) -> Self {
        match self {
            RatSystem::Utran3g => RatSystem::Lte4g,
            RatSystem::Lte4g => RatSystem::Utran3g,
        }
    }

    /// Does this system natively support circuit-switched service?
    pub fn supports_cs(self) -> bool {
        matches!(self, RatSystem::Utran3g)
    }
}

impl std::fmt::Display for RatSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RatSystem::Utran3g => write!(f, "3G"),
            RatSystem::Lte4g => write!(f, "4G"),
        }
    }
}

/// Switching domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Circuit-switched (voice in 3G).
    Cs,
    /// Packet-switched (data in 3G and everything in 4G).
    Ps,
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Domain::Cs => write!(f, "CS"),
            Domain::Ps => write!(f, "PS"),
        }
    }
}

/// The control-plane protocols studied by the paper (its Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// 3G CS connectivity management / call control (TS 24.008), at MSC.
    CmCc,
    /// 3G PS session management (TS 24.008), at 3G gateways.
    Sm,
    /// 4G session management (TS 24.301), at MME.
    Esm,
    /// 3G CS mobility management (TS 24.008), at MSC.
    Mm,
    /// 3G PS mobility management (TS 24.008), at 3G gateways.
    Gmm,
    /// 4G mobility management (TS 24.301), at MME.
    Emm,
    /// 3G radio resource control (TS 25.331), at 3G BS.
    Rrc3g,
    /// 4G radio resource control (TS 36.331), at 4G BS.
    Rrc4g,
}

impl Protocol {
    /// The system the protocol belongs to.
    pub fn system(self) -> RatSystem {
        match self {
            Protocol::CmCc | Protocol::Sm | Protocol::Mm | Protocol::Gmm | Protocol::Rrc3g => {
                RatSystem::Utran3g
            }
            Protocol::Esm | Protocol::Emm | Protocol::Rrc4g => RatSystem::Lte4g,
        }
    }

    /// The network element operating the network side of this protocol
    /// (paper Table 2).
    pub fn network_element(self) -> &'static str {
        match self {
            Protocol::CmCc | Protocol::Mm => "MSC",
            Protocol::Sm | Protocol::Gmm => "3G Gateways",
            Protocol::Esm | Protocol::Emm => "MME",
            Protocol::Rrc3g => "3G BS",
            Protocol::Rrc4g => "4G BS",
        }
    }

    /// The governing 3GPP specification (paper Table 2).
    pub fn standard(self) -> &'static str {
        match self {
            Protocol::CmCc | Protocol::Sm | Protocol::Mm | Protocol::Gmm => "TS24.008",
            Protocol::Esm | Protocol::Emm => "TS24.301",
            Protocol::Rrc3g => "TS25.331",
            Protocol::Rrc4g => "TS36.331",
        }
    }

    /// The sub-layer of the control plane the protocol sits on.
    pub fn sublayer(self) -> Sublayer {
        match self {
            Protocol::CmCc | Protocol::Sm | Protocol::Esm => Sublayer::ConnectivityManagement,
            Protocol::Mm | Protocol::Gmm | Protocol::Emm => Sublayer::MobilityManagement,
            Protocol::Rrc3g | Protocol::Rrc4g => Sublayer::RadioResourceControl,
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Protocol::CmCc => "CM/CC",
            Protocol::Sm => "SM",
            Protocol::Esm => "ESM",
            Protocol::Mm => "MM",
            Protocol::Gmm => "GMM",
            Protocol::Emm => "EMM",
            Protocol::Rrc3g => "3G-RRC",
            Protocol::Rrc4g => "4G-RRC",
        };
        write!(f, "{s}")
    }
}

/// The three control-plane sub-layers (paper Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sublayer {
    /// CM / SM / ESM — creating and mandating voice calls and data sessions.
    ConnectivityManagement,
    /// MM / GMM / EMM — location update and mobility support.
    MobilityManagement,
    /// RRC — radio resources and signaling routing.
    RadioResourceControl,
}

/// The interaction dimension an issue spans (paper §1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dimension {
    /// Between layers of one protocol stack.
    CrossLayer,
    /// Between CS and PS domains.
    CrossDomain,
    /// Between the 3G and 4G systems.
    CrossSystem,
}

impl std::fmt::Display for Dimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dimension::CrossLayer => write!(f, "Cross-layer"),
            Dimension::CrossDomain => write!(f, "Cross-domain"),
            Dimension::CrossSystem => write!(f, "Cross-system"),
        }
    }
}

/// Whether a finding stems from the standards or from carrier practice
/// (paper Table 1 "Type" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IssueKind {
    /// Rooted in the 3GPP standards; needs a standards revision.
    Design,
    /// Rooted in operator practice; fixable by the carrier.
    Operational,
}

impl std::fmt::Display for IssueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IssueKind::Design => write!(f, "Design"),
            IssueKind::Operational => write!(f, "Operation"),
        }
    }
}

/// Coarse classification of NAS messages by the procedure they serve.
///
/// Fault-injection campaigns (`netsim::inject`) target these classes rather
/// than individual message variants: "drop all attach signaling on the 4G
/// downlink" is the granularity at which the paper's loss scenarios (S2's
/// lost Attach Complete, S6's relayed update failures) are expressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MsgClass {
    /// Attach / detach registration signaling (MM / GMM / EMM).
    Attach,
    /// Location / routing / tracking area updates (MM / GMM / EMM).
    Mobility,
    /// PDP context / EPS bearer session management (SM / ESM).
    Session,
    /// Call control and CM service signaling (CM/CC), including paging.
    Call,
    /// Core-internal coordination signals (e.g. relayed LU failures).
    Other,
}

impl std::fmt::Display for MsgClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgClass::Attach => write!(f, "attach"),
            MsgClass::Mobility => write!(f, "mobility"),
            MsgClass::Session => write!(f, "session"),
            MsgClass::Call => write!(f, "call"),
            MsgClass::Other => write!(f, "other"),
        }
    }
}

/// Registration status of a device with a network, the device-visible
/// outcome the paper's properties talk about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Registration {
    /// Attached; services available.
    Registered,
    /// Detached / "out of service".
    Deregistered,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_system_roundtrips() {
        assert_eq!(RatSystem::Utran3g.other(), RatSystem::Lte4g);
        assert_eq!(RatSystem::Lte4g.other().other(), RatSystem::Lte4g);
    }

    #[test]
    fn only_3g_supports_cs() {
        assert!(RatSystem::Utran3g.supports_cs());
        assert!(!RatSystem::Lte4g.supports_cs());
    }

    #[test]
    fn protocol_table2_network_elements() {
        assert_eq!(Protocol::CmCc.network_element(), "MSC");
        assert_eq!(Protocol::Sm.network_element(), "3G Gateways");
        assert_eq!(Protocol::Esm.network_element(), "MME");
        assert_eq!(Protocol::Mm.network_element(), "MSC");
        assert_eq!(Protocol::Gmm.network_element(), "3G Gateways");
        assert_eq!(Protocol::Emm.network_element(), "MME");
        assert_eq!(Protocol::Rrc3g.network_element(), "3G BS");
        assert_eq!(Protocol::Rrc4g.network_element(), "4G BS");
    }

    #[test]
    fn protocol_table2_standards() {
        assert_eq!(Protocol::Mm.standard(), "TS24.008");
        assert_eq!(Protocol::Emm.standard(), "TS24.301");
        assert_eq!(Protocol::Rrc3g.standard(), "TS25.331");
        assert_eq!(Protocol::Rrc4g.standard(), "TS36.331");
    }

    #[test]
    fn protocol_systems() {
        for p in [
            Protocol::CmCc,
            Protocol::Sm,
            Protocol::Mm,
            Protocol::Gmm,
            Protocol::Rrc3g,
        ] {
            assert_eq!(p.system(), RatSystem::Utran3g);
        }
        for p in [Protocol::Esm, Protocol::Emm, Protocol::Rrc4g] {
            assert_eq!(p.system(), RatSystem::Lte4g);
        }
    }

    #[test]
    fn sublayers_partition_protocols() {
        assert_eq!(Protocol::CmCc.sublayer(), Sublayer::ConnectivityManagement);
        assert_eq!(Protocol::Gmm.sublayer(), Sublayer::MobilityManagement);
        assert_eq!(Protocol::Rrc4g.sublayer(), Sublayer::RadioResourceControl);
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Protocol::CmCc.to_string(), "CM/CC");
        assert_eq!(Protocol::Rrc3g.to_string(), "3G-RRC");
        assert_eq!(Dimension::CrossSystem.to_string(), "Cross-system");
        assert_eq!(RatSystem::Lte4g.to_string(), "4G");
        assert_eq!(Domain::Cs.to_string(), "CS");
    }
}
