//! Cause codes carried in reject / deactivation signaling.
//!
//! These reproduce the cause taxonomies the paper's findings hinge on:
//! Table 3 (PDP context deactivation causes, central to S1), the EMM causes
//! behind S2/S6 ("implicitly detached", "MSC temporarily not reachable"),
//! and the TS 24.301 attach-reject cause list the paper cites as "more than
//! 30 error causes ... defined in the 4G attach procedure" whose
//! combinations the screening phase enumerates.

use serde::Serialize;

/// Who may originate a signaling event (paper Table 3 "Originator").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Originator {
    /// Only the user device.
    Device,
    /// Only the network.
    Network,
    /// Either side.
    Either,
}

/// Why a 3G PDP context is deactivated (paper Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum PdpDeactivationCause {
    /// The device cannot sustain the reservation.
    InsufficientResources,
    /// The negotiated QoS is unacceptable at the device.
    QosNotAccepted,
    /// Radio/lower-layer failure.
    LowLayerFailures,
    /// Ordinary teardown — user turned mobile data off, or network housekeeping.
    RegularDeactivation,
    /// Active context incompatible with the requested PS service
    /// (e.g. MMS vs Internet APN).
    IncompatiblePdpContext,
    /// Operator-determined barring.
    OperatorDeterminedBarring,
}

impl PdpDeactivationCause {
    /// All causes, in the order of the paper's Table 3.
    pub const ALL: [PdpDeactivationCause; 6] = [
        PdpDeactivationCause::InsufficientResources,
        PdpDeactivationCause::QosNotAccepted,
        PdpDeactivationCause::LowLayerFailures,
        PdpDeactivationCause::RegularDeactivation,
        PdpDeactivationCause::IncompatiblePdpContext,
        PdpDeactivationCause::OperatorDeterminedBarring,
    ];

    /// Who may trigger this cause (paper Table 3).
    pub fn originator(self) -> Originator {
        match self {
            PdpDeactivationCause::InsufficientResources | PdpDeactivationCause::QosNotAccepted => {
                Originator::Device
            }
            PdpDeactivationCause::LowLayerFailures | PdpDeactivationCause::RegularDeactivation => {
                Originator::Either
            }
            PdpDeactivationCause::IncompatiblePdpContext
            | PdpDeactivationCause::OperatorDeterminedBarring => Originator::Network,
        }
    }

    /// Could the context have been *kept or modified* instead of deleted?
    ///
    /// §5.1.2 argues deactivation is avoidable for several causes: QoS can be
    /// renegotiated, an incompatible context modified, a regular deactivation
    /// deferred until after the 3G→4G switch. Barring and hard lower-layer
    /// failures genuinely require teardown.
    pub fn deactivation_avoidable(self) -> bool {
        match self {
            PdpDeactivationCause::QosNotAccepted
            | PdpDeactivationCause::IncompatiblePdpContext
            | PdpDeactivationCause::RegularDeactivation => true,
            PdpDeactivationCause::InsufficientResources
            | PdpDeactivationCause::LowLayerFailures
            | PdpDeactivationCause::OperatorDeterminedBarring => false,
        }
    }

    /// Paper Table 3 wording.
    pub fn description(self) -> &'static str {
        match self {
            PdpDeactivationCause::InsufficientResources => "Insufficient resources",
            PdpDeactivationCause::QosNotAccepted => "QoS not accepted",
            PdpDeactivationCause::LowLayerFailures => "Low layer failures",
            PdpDeactivationCause::RegularDeactivation => "Regular deactivation",
            PdpDeactivationCause::IncompatiblePdpContext => "Incompatible PDP context",
            PdpDeactivationCause::OperatorDeterminedBarring => "Operator determined barring",
        }
    }
}

/// EMM (4G mobility management) causes relevant to the findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum EmmCause {
    /// "Implicitly detached" — sent on a TAU the MME believes comes from an
    /// unattached (or half-attached) device. Drives S2 and S6 (OP-I).
    ImplicitlyDetached,
    /// The device has no EPS bearer context after a 3G→4G switch; 4G cannot
    /// serve it (S1).
    NoEpsBearerContextActivated,
    /// Relayed 3G failure: "MSC temporarily not reachable" (S6, OP-II).
    MscTemporarilyNotReachable,
    /// Generic network failure.
    NetworkFailure,
    /// Congestion.
    Congestion,
}

impl EmmCause {
    /// Human-readable form used in traces.
    pub fn description(self) -> &'static str {
        match self {
            EmmCause::ImplicitlyDetached => "Implicitly detached",
            EmmCause::NoEpsBearerContextActivated => "No EPS Bearer Context Activated",
            EmmCause::MscTemporarilyNotReachable => "MSC temporarily not reachable",
            EmmCause::NetworkFailure => "Network failure",
            EmmCause::Congestion => "Congestion",
        }
    }
}

/// TS 24.301 §5.5.1 attach-reject causes. The paper notes "more than 30
/// error causes are defined in the 4G attach procedure" and enumerates all
/// reject options during screening; this list (EMM cause values from Annex A)
/// is what the scenario sampler draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
#[allow(missing_docs)] // names are the 3GPP cause names
pub enum AttachRejectCause {
    ImsiUnknownInHss,
    IllegalUe,
    ImeiNotAccepted,
    IllegalMe,
    EpsServicesNotAllowed,
    EpsAndNonEpsServicesNotAllowed,
    UeIdentityCannotBeDerived,
    ImplicitlyDetached,
    PlmnNotAllowed,
    TrackingAreaNotAllowed,
    RoamingNotAllowedInTrackingArea,
    EpsServicesNotAllowedInPlmn,
    NoSuitableCellsInTrackingArea,
    MscTemporarilyNotReachable,
    NetworkFailure,
    CsDomainNotAvailable,
    EsmFailure,
    MacFailure,
    SynchFailure,
    Congestion,
    UeSecurityCapabilitiesMismatch,
    SecurityModeRejected,
    NotAuthorizedForThisCsg,
    NonEpsAuthenticationUnacceptable,
    RequestedServiceOptionNotAuthorizedInPlmn,
    CsServiceTemporarilyNotAvailable,
    NoEpsBearerContextActivated,
    SevereNetworkFailure,
    SemanticallyIncorrectMessage,
    InvalidMandatoryInformation,
    MessageTypeNonExistent,
    ProtocolErrorUnspecified,
}

impl AttachRejectCause {
    /// Every cause, for exhaustive enumeration during screening.
    pub const ALL: [AttachRejectCause; 32] = [
        AttachRejectCause::ImsiUnknownInHss,
        AttachRejectCause::IllegalUe,
        AttachRejectCause::ImeiNotAccepted,
        AttachRejectCause::IllegalMe,
        AttachRejectCause::EpsServicesNotAllowed,
        AttachRejectCause::EpsAndNonEpsServicesNotAllowed,
        AttachRejectCause::UeIdentityCannotBeDerived,
        AttachRejectCause::ImplicitlyDetached,
        AttachRejectCause::PlmnNotAllowed,
        AttachRejectCause::TrackingAreaNotAllowed,
        AttachRejectCause::RoamingNotAllowedInTrackingArea,
        AttachRejectCause::EpsServicesNotAllowedInPlmn,
        AttachRejectCause::NoSuitableCellsInTrackingArea,
        AttachRejectCause::MscTemporarilyNotReachable,
        AttachRejectCause::NetworkFailure,
        AttachRejectCause::CsDomainNotAvailable,
        AttachRejectCause::EsmFailure,
        AttachRejectCause::MacFailure,
        AttachRejectCause::SynchFailure,
        AttachRejectCause::Congestion,
        AttachRejectCause::UeSecurityCapabilitiesMismatch,
        AttachRejectCause::SecurityModeRejected,
        AttachRejectCause::NotAuthorizedForThisCsg,
        AttachRejectCause::NonEpsAuthenticationUnacceptable,
        AttachRejectCause::RequestedServiceOptionNotAuthorizedInPlmn,
        AttachRejectCause::CsServiceTemporarilyNotAvailable,
        AttachRejectCause::NoEpsBearerContextActivated,
        AttachRejectCause::SevereNetworkFailure,
        AttachRejectCause::SemanticallyIncorrectMessage,
        AttachRejectCause::InvalidMandatoryInformation,
        AttachRejectCause::MessageTypeNonExistent,
        AttachRejectCause::ProtocolErrorUnspecified,
    ];

    /// May the device retry the attach after this cause, per TS 24.301
    /// (permanent causes put the device in a no-retry state)?
    pub fn retry_allowed(self) -> bool {
        !matches!(
            self,
            AttachRejectCause::IllegalUe
                | AttachRejectCause::IllegalMe
                | AttachRejectCause::ImeiNotAccepted
                | AttachRejectCause::EpsServicesNotAllowed
                | AttachRejectCause::EpsAndNonEpsServicesNotAllowed
                | AttachRejectCause::PlmnNotAllowed
                | AttachRejectCause::TrackingAreaNotAllowed
                | AttachRejectCause::RoamingNotAllowedInTrackingArea
                | AttachRejectCause::EpsServicesNotAllowedInPlmn
        )
    }
}

/// MM (3G CS mobility management) causes relevant to S4/S6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum MmCause {
    /// Location-update failure during CSFB (propagated to 4G in S6).
    LocationUpdateFailure,
    /// The MSC rejected a relayed update because a fresher one completed.
    UpdateSuperseded,
    /// Generic network failure.
    NetworkFailure,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_six_causes() {
        assert_eq!(PdpDeactivationCause::ALL.len(), 6);
    }

    #[test]
    fn table3_originators_match_paper() {
        use PdpDeactivationCause as C;
        assert_eq!(C::InsufficientResources.originator(), Originator::Device);
        assert_eq!(C::QosNotAccepted.originator(), Originator::Device);
        assert_eq!(C::LowLayerFailures.originator(), Originator::Either);
        assert_eq!(C::RegularDeactivation.originator(), Originator::Either);
        assert_eq!(C::IncompatiblePdpContext.originator(), Originator::Network);
        assert_eq!(
            C::OperatorDeterminedBarring.originator(),
            Originator::Network
        );
    }

    #[test]
    fn avoidable_causes_match_section_5_1_2() {
        use PdpDeactivationCause as C;
        assert!(C::QosNotAccepted.deactivation_avoidable());
        assert!(C::IncompatiblePdpContext.deactivation_avoidable());
        assert!(C::RegularDeactivation.deactivation_avoidable());
        assert!(!C::OperatorDeterminedBarring.deactivation_avoidable());
    }

    #[test]
    fn more_than_30_attach_reject_causes() {
        // Paper: "more than 30 error causes are defined in the 4G attach
        // procedure".
        assert!(AttachRejectCause::ALL.len() > 30);
    }

    #[test]
    fn permanent_causes_forbid_retry() {
        assert!(!AttachRejectCause::IllegalUe.retry_allowed());
        assert!(!AttachRejectCause::PlmnNotAllowed.retry_allowed());
        assert!(AttachRejectCause::Congestion.retry_allowed());
        assert!(AttachRejectCause::NetworkFailure.retry_allowed());
        assert!(AttachRejectCause::ImplicitlyDetached.retry_allowed());
    }

    #[test]
    fn emm_cause_descriptions_match_traces() {
        assert_eq!(
            EmmCause::NoEpsBearerContextActivated.description(),
            "No EPS Bearer Context Activated"
        );
        assert_eq!(
            EmmCause::MscTemporarilyNotReachable.description(),
            "MSC temporarily not reachable"
        );
    }
}
