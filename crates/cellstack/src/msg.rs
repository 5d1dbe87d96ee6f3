//! Signaling messages exchanged between device-side and network-side FSMs.
//!
//! Two families:
//!
//! * [`NasMessage`] — non-access-stratum signaling between the device and the
//!   core (MSC / 3G gateways / MME): attach, detach, location updates,
//!   session management, call control. NAS messages ride on RRC.
//! * [`RrcMessage`] — access-stratum signaling between the device and the
//!   base station: connection management, inter-system switch commands.
//!
//! The enums are deliberately exhaustive over the procedures the paper's six
//! instances exercise rather than over all of TS 24.008/24.301.

use serde::{Deserialize, Serialize};

use crate::causes::{AttachRejectCause, EmmCause, MmCause, PdpDeactivationCause};
use crate::types::{Domain, MsgClass, RatSystem};

/// Which mobility-management update procedure a message belongs to.
///
/// 3G CS uses *location area* updates via MSC, 3G PS *routing area* updates
/// via the 3G gateways, 4G *tracking area* updates via MME (§2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateKind {
    /// 3G CS location area update (MM ↔ MSC).
    LocationArea,
    /// 3G PS routing area update (GMM ↔ 3G gateways).
    RoutingArea,
    /// 4G tracking area update (EMM ↔ MME).
    TrackingArea,
}

impl UpdateKind {
    /// The update procedure a system/domain pair uses.
    pub fn for_system(system: RatSystem, domain: Domain) -> UpdateKind {
        match (system, domain) {
            (RatSystem::Utran3g, Domain::Cs) => UpdateKind::LocationArea,
            (RatSystem::Utran3g, Domain::Ps) => UpdateKind::RoutingArea,
            (RatSystem::Lte4g, _) => UpdateKind::TrackingArea,
        }
    }
}

/// Non-access-stratum signaling.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NasMessage {
    // ---- Attach / detach (MM / GMM / EMM) ----
    /// Device → core: request registration (EMM/GMM/MM attach).
    AttachRequest {
        /// System the attach targets.
        system: RatSystem,
    },
    /// Core → device: attach accepted (step 2 of Figure 5a).
    AttachAccept,
    /// Device → core: attach complete (step 3 of Figure 5a — the message
    /// whose loss triggers S2).
    AttachComplete,
    /// Core → device: attach rejected.
    AttachReject(AttachRejectCause),
    /// Device → core: device-initiated detach (power-off, mode change).
    DetachRequest,
    /// Core → device: network-initiated detach with a cause (the
    /// "implicit detach" of S2/S6 arrives this way or via update rejects).
    NetworkDetach(EmmCause),
    /// Core → device: detach acknowledged.
    DetachAccept,

    // ---- Mobility updates (MM / GMM / EMM) ----
    /// Device → core: location/routing/tracking area update request.
    UpdateRequest(UpdateKind),
    /// Core → device: update accepted.
    UpdateAccept(UpdateKind),
    /// Core → device: update rejected (S1's "tracking area update reject",
    /// S6's relayed failures surface here).
    UpdateReject(UpdateKind, EmmCause),

    // ---- Session management (SM / ESM) ----
    /// Device → core: activate PDP context (3G) / request PDN connectivity
    /// + default EPS bearer (4G).
    SessionActivateRequest {
        /// Which system's session procedure.
        system: RatSystem,
    },
    /// Core → device: session activation accepted (context established).
    SessionActivateAccept,
    /// Core → device: session activation rejected.
    SessionActivateReject,
    /// Either direction: deactivate the PDP context / EPS bearer.
    SessionDeactivate {
        /// Why the session is being torn down.
        cause: PdpDeactivationCause,
        /// True when the network (not the device) originated it.
        network_initiated: bool,
    },
    /// Acknowledgement of a deactivation.
    SessionDeactivateAccept,

    // ---- Call control (CM/CC) ----
    /// Device → MSC: CM service request (establish the signaling connection
    /// for an outgoing call — the request S4 delays).
    CmServiceRequest,
    /// MSC → device: CM service accepted; call setup may proceed.
    CmServiceAccept,
    /// MSC → device: CM service rejected.
    CmServiceReject,
    /// Device → MSC: call setup (dialled number elided).
    CallSetup,
    /// MSC → device: call is being connected.
    CallProceeding,
    /// MSC → device: callee alerting (ring-back).
    CallAlerting,
    /// MSC → device: call connected (voice path open).
    CallConnect,
    /// Either direction: call released (hang-up).
    CallDisconnect,
    /// MSC → device: incoming-call page (CS paging).
    Paging,

    // ---- Cross-system coordination (internal core-network signals that
    //      the paper shows leaking to the device) ----
    /// MSC → MME (relayed): 3G location update failed (S6).
    LocationUpdateFailure(MmCause),
}

impl NasMessage {
    /// Is this message part of an attach procedure?
    pub fn is_attach(&self) -> bool {
        matches!(
            self,
            NasMessage::AttachRequest { .. }
                | NasMessage::AttachAccept
                | NasMessage::AttachComplete
                | NasMessage::AttachReject(_)
        )
    }

    /// Does this message terminate the device's registration?
    pub fn is_detaching(&self) -> bool {
        matches!(
            self,
            NasMessage::NetworkDetach(_) | NasMessage::DetachRequest
        )
    }

    /// The procedure class the message belongs to (fault-injection policies
    /// in `netsim` select messages at this granularity).
    pub fn class(&self) -> MsgClass {
        match self {
            NasMessage::AttachRequest { .. }
            | NasMessage::AttachAccept
            | NasMessage::AttachComplete
            | NasMessage::AttachReject(_)
            | NasMessage::DetachRequest
            | NasMessage::NetworkDetach(_)
            | NasMessage::DetachAccept => MsgClass::Attach,
            NasMessage::UpdateRequest(_)
            | NasMessage::UpdateAccept(_)
            | NasMessage::UpdateReject(_, _) => MsgClass::Mobility,
            NasMessage::SessionActivateRequest { .. }
            | NasMessage::SessionActivateAccept
            | NasMessage::SessionActivateReject
            | NasMessage::SessionDeactivate { .. }
            | NasMessage::SessionDeactivateAccept => MsgClass::Session,
            NasMessage::CmServiceRequest
            | NasMessage::CmServiceAccept
            | NasMessage::CmServiceReject
            | NasMessage::CallSetup
            | NasMessage::CallProceeding
            | NasMessage::CallAlerting
            | NasMessage::CallConnect
            | NasMessage::CallDisconnect
            | NasMessage::Paging => MsgClass::Call,
            NasMessage::LocationUpdateFailure(_) => MsgClass::Other,
        }
    }

    /// Short wire name used in traces (QXDM-style).
    pub fn wire_name(&self) -> &'static str {
        match self {
            NasMessage::AttachRequest { .. } => "Attach Request",
            NasMessage::AttachAccept => "Attach Accept",
            NasMessage::AttachComplete => "Attach Complete",
            NasMessage::AttachReject(_) => "Attach Reject",
            NasMessage::DetachRequest => "Detach Request",
            NasMessage::NetworkDetach(_) => "Detach Request (network)",
            NasMessage::DetachAccept => "Detach Accept",
            NasMessage::UpdateRequest(UpdateKind::LocationArea) => "Location Updating Request",
            NasMessage::UpdateRequest(UpdateKind::RoutingArea) => "Routing Area Update Request",
            NasMessage::UpdateRequest(UpdateKind::TrackingArea) => "Tracking Area Update Request",
            NasMessage::UpdateAccept(UpdateKind::LocationArea) => "Location Updating Accept",
            NasMessage::UpdateAccept(UpdateKind::RoutingArea) => "Routing Area Update Accept",
            NasMessage::UpdateAccept(UpdateKind::TrackingArea) => "Tracking Area Update Accept",
            NasMessage::UpdateReject(UpdateKind::LocationArea, _) => "Location Updating Reject",
            NasMessage::UpdateReject(UpdateKind::RoutingArea, _) => "Routing Area Update Reject",
            NasMessage::UpdateReject(UpdateKind::TrackingArea, _) => "Tracking Area Update Reject",
            NasMessage::SessionActivateRequest {
                system: RatSystem::Utran3g,
            } => "Activate PDP Context Request",
            NasMessage::SessionActivateRequest {
                system: RatSystem::Lte4g,
            } => "PDN Connectivity Request",
            NasMessage::SessionActivateAccept => "Activate Context Accept",
            NasMessage::SessionActivateReject => "Activate Context Reject",
            NasMessage::SessionDeactivate { .. } => "Deactivate Context Request",
            NasMessage::SessionDeactivateAccept => "Deactivate Context Accept",
            NasMessage::CmServiceRequest => "CM Service Request",
            NasMessage::CmServiceAccept => "CM Service Accept",
            NasMessage::CmServiceReject => "CM Service Reject",
            NasMessage::CallSetup => "Setup",
            NasMessage::CallProceeding => "Call Proceeding",
            NasMessage::CallAlerting => "Alerting",
            NasMessage::CallConnect => "Connect",
            NasMessage::CallDisconnect => "Disconnect",
            NasMessage::Paging => "Paging",
            NasMessage::LocationUpdateFailure(_) => "Location Update Failure",
        }
    }
}

/// The inter-system switch mechanisms of Figure 6(a). Which one a carrier
/// uses is an operator policy choice — the S3 divergence between OP-I and
/// OP-II is exactly this choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SwitchMechanism {
    /// "RRC connection release with redirect": starts from a non-IDLE RRC
    /// state, forces a release, disrupts ongoing data (OP-I's choice).
    ReleaseWithRedirect,
    /// Inter-system handover: direct DCH ↔ CONNECTED transition; preserves
    /// the data session but costs the carrier buffering/relaying.
    InterSystemHandover,
    /// "Inter-system cell (re)selection": only possible from RRC IDLE;
    /// device-triggered (OP-II's choice — the S3 deadlock).
    CellReselection,
}

impl SwitchMechanism {
    /// All mechanisms (Figure 6a).
    pub const ALL: [SwitchMechanism; 3] = [
        SwitchMechanism::ReleaseWithRedirect,
        SwitchMechanism::InterSystemHandover,
        SwitchMechanism::CellReselection,
    ];
}

/// Access-stratum (RRC) signaling between device and base station.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RrcMessage {
    /// Device → BS: request an RRC connection.
    ConnectionRequest,
    /// BS → device: connection granted.
    ConnectionSetup,
    /// Device → BS: connection established.
    ConnectionSetupComplete,
    /// BS → device: release the connection; optionally redirect the device
    /// to the other system ("RRC connection release with redirect", the
    /// Figure 3 flow).
    ConnectionRelease {
        /// Target system for a redirect, if any.
        redirect_to: Option<RatSystem>,
    },
    /// BS → device: inter-system handover command.
    HandoverCommand {
        /// Target system.
        target: RatSystem,
    },
    /// BS → device: reconfigure the radio (carries the modulation scheme —
    /// the S5 downgrade arrives in this message).
    RadioReconfiguration {
        /// True when 64QAM is allowed on the shared channel.
        allow_64qam: bool,
    },
    /// Device → BS: measurement report (triggers reselection decisions).
    MeasurementReport {
        /// Measured RSSI, dBm (negated into positive for hashing: -85 ⇒ 85).
        rssi_neg_dbm: u8,
    },
    /// A NAS message carried over RRC (uplink when from the device).
    NasTransport(NasMessage),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_kind_per_system_and_domain() {
        assert_eq!(
            UpdateKind::for_system(RatSystem::Utran3g, Domain::Cs),
            UpdateKind::LocationArea
        );
        assert_eq!(
            UpdateKind::for_system(RatSystem::Utran3g, Domain::Ps),
            UpdateKind::RoutingArea
        );
        assert_eq!(
            UpdateKind::for_system(RatSystem::Lte4g, Domain::Ps),
            UpdateKind::TrackingArea
        );
        assert_eq!(
            UpdateKind::for_system(RatSystem::Lte4g, Domain::Cs),
            UpdateKind::TrackingArea,
            "4G has no CS domain; TAU covers it"
        );
    }

    #[test]
    fn attach_family_recognized() {
        assert!(NasMessage::AttachComplete.is_attach());
        assert!(NasMessage::AttachRequest {
            system: RatSystem::Lte4g
        }
        .is_attach());
        assert!(!NasMessage::CmServiceRequest.is_attach());
    }

    #[test]
    fn detach_family_recognized() {
        assert!(NasMessage::NetworkDetach(EmmCause::ImplicitlyDetached).is_detaching());
        assert!(NasMessage::DetachRequest.is_detaching());
        assert!(!NasMessage::DetachAccept.is_detaching());
    }

    #[test]
    fn wire_names_match_3gpp_terms() {
        assert_eq!(
            NasMessage::UpdateRequest(UpdateKind::TrackingArea).wire_name(),
            "Tracking Area Update Request"
        );
        assert_eq!(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Utran3g
            }
            .wire_name(),
            "Activate PDP Context Request"
        );
        assert_eq!(
            NasMessage::SessionActivateRequest {
                system: RatSystem::Lte4g
            }
            .wire_name(),
            "PDN Connectivity Request"
        );
    }

    #[test]
    fn message_classes_partition_the_procedures() {
        assert_eq!(NasMessage::AttachComplete.class(), MsgClass::Attach);
        assert_eq!(
            NasMessage::NetworkDetach(EmmCause::ImplicitlyDetached).class(),
            MsgClass::Attach
        );
        assert_eq!(
            NasMessage::UpdateRequest(UpdateKind::TrackingArea).class(),
            MsgClass::Mobility
        );
        assert_eq!(NasMessage::SessionActivateAccept.class(), MsgClass::Session);
        assert_eq!(NasMessage::Paging.class(), MsgClass::Call);
        assert_eq!(
            NasMessage::LocationUpdateFailure(MmCause::LocationUpdateFailure).class(),
            MsgClass::Other
        );
    }

    #[test]
    fn three_switch_mechanisms() {
        assert_eq!(SwitchMechanism::ALL.len(), 3);
    }

    #[test]
    fn rrc_carries_nas() {
        let m = RrcMessage::NasTransport(NasMessage::AttachComplete);
        match m {
            RrcMessage::NasTransport(inner) => assert!(inner.is_attach()),
            _ => unreachable!(),
        }
    }
}
