//! Session contexts: the 3G PDP context and the 4G EPS bearer context.
//!
//! "Information vital to data sessions (e.g., IP address and QoS parameters)
//! is stored at both the device and the 3G/4G gateways via the 3G PDP (or 4G
//! EPS bearer) context" (§2). During an inter-system switch the contexts are
//! translated into each other and must stay consistent ("the IP address,
//! etc. remains the same before and after the switching", §5.1.1) — the S1
//! defect is precisely this shared state being deleted on one side.

use crate::causes::PdpDeactivationCause;

/// Quality-of-service parameters carried by both context kinds. A small
/// abstraction of the 3GPP QoS IEs: only the fields the findings depend on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QosProfile {
    /// Maximum downlink bit rate, kbit/s.
    pub max_dl_kbps: u32,
    /// Maximum uplink bit rate, kbit/s.
    pub max_ul_kbps: u32,
    /// QoS class identifier (4G QCI / 3G traffic-class analogue).
    pub qci: u8,
}

impl QosProfile {
    /// A default best-effort internet profile.
    pub fn best_effort() -> Self {
        Self {
            max_dl_kbps: 21_000,
            max_ul_kbps: 5_760,
            qci: 9,
        }
    }

    /// A degraded profile used when renegotiating after `QosNotAccepted`
    /// instead of deactivating the context (the §5.1.2 remedy).
    pub fn degraded(self) -> Self {
        Self {
            max_dl_kbps: self.max_dl_kbps / 2,
            max_ul_kbps: self.max_ul_kbps / 2,
            qci: self.qci,
        }
    }
}

/// An IPv4 address, kept as a plain u32 so contexts stay `Copy + Hash`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IpAddr(pub u32);

impl std::fmt::Display for IpAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.0.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Activation state of a session context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContextState {
    /// No context established.
    Inactive,
    /// Activation signaling in flight.
    ActivatePending,
    /// Context active; data service available.
    Active,
    /// Deactivation signaling in flight.
    DeactivatePending,
}

/// The 3G PDP (Packet Data Protocol) context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PdpContext {
    /// Network service access point identifier.
    pub nsapi: u8,
    /// Assigned IP address.
    pub ip: IpAddr,
    /// Negotiated QoS.
    pub qos: QosProfile,
    /// Activation state.
    pub state: ContextState,
}

/// The 4G EPS bearer context.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EpsBearerContext {
    /// EPS bearer identity.
    pub ebi: u8,
    /// Assigned IP address.
    pub ip: IpAddr,
    /// Negotiated QoS.
    pub qos: QosProfile,
    /// Activation state.
    pub state: ContextState,
}

impl PdpContext {
    /// A fresh, active PDP context.
    pub fn active(nsapi: u8, ip: IpAddr, qos: QosProfile) -> Self {
        Self {
            nsapi,
            ip,
            qos,
            state: ContextState::Active,
        }
    }

    /// Is the context usable for PS data right now?
    pub fn is_active(&self) -> bool {
        self.state == ContextState::Active
    }

    /// Deactivate with a cause. Returns the cause-specific keepable
    /// alternative if one exists and `apply_remedy` is set (the §5.1.2 /
    /// §8 "cross-system coordination" fix): instead of deleting, the context
    /// is kept with modified parameters.
    pub fn deactivate(
        &mut self,
        cause: PdpDeactivationCause,
        apply_remedy: bool,
    ) -> DeactivationOutcome {
        if apply_remedy && cause.deactivation_avoidable() {
            match cause {
                PdpDeactivationCause::QosNotAccepted => {
                    self.qos = self.qos.degraded();
                    DeactivationOutcome::KeptWithLowerQos
                }
                PdpDeactivationCause::IncompatiblePdpContext => DeactivationOutcome::Modified,
                PdpDeactivationCause::RegularDeactivation => {
                    // Keep until the switch to 4G completes.
                    DeactivationOutcome::DeferredUntilSwitch
                }
                _ => unreachable!("avoidable causes handled above"),
            }
        } else {
            self.state = ContextState::Inactive;
            DeactivationOutcome::Deleted
        }
    }

    /// Translate into the 4G EPS bearer context during a 3G→4G switch.
    ///
    /// Returns `None` when the PDP context is not active — the S1 trigger:
    /// "when later switching back to 4G, the device cannot register to the
    /// 4G network, since ... EPS bearer context is required".
    pub fn to_eps_bearer(&self, ebi: u8) -> Option<EpsBearerContext> {
        if !self.is_active() {
            return None;
        }
        Some(EpsBearerContext {
            ebi,
            ip: self.ip,
            qos: self.qos,
            state: ContextState::Active,
        })
    }
}

impl EpsBearerContext {
    /// A fresh, active EPS bearer context.
    pub fn active(ebi: u8, ip: IpAddr, qos: QosProfile) -> Self {
        Self {
            ebi,
            ip,
            qos,
            state: ContextState::Active,
        }
    }

    /// Is the bearer usable for PS data right now?
    pub fn is_active(&self) -> bool {
        self.state == ContextState::Active
    }

    /// Translate into a 3G PDP context during a 4G→3G switch. Always
    /// possible when active: 3G tolerates operating without it, 4G does not.
    pub fn to_pdp(&self, nsapi: u8) -> Option<PdpContext> {
        if !self.is_active() {
            return None;
        }
        Some(PdpContext {
            nsapi,
            ip: self.ip,
            qos: self.qos,
            state: ContextState::Active,
        })
    }
}

/// What happened to a PDP context on a deactivation request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeactivationOutcome {
    /// Deleted (default standards behaviour — feeds S1).
    Deleted,
    /// Kept with a renegotiated lower QoS (remedy for `QosNotAccepted`).
    KeptWithLowerQos,
    /// Modified rather than deleted (remedy for `IncompatiblePdpContext`).
    Modified,
    /// Deletion deferred until after the 3G→4G switch (remedy for
    /// `RegularDeactivation`).
    DeferredUntilSwitch,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PdpContext {
        PdpContext::active(5, IpAddr(0x0a000001), QosProfile::best_effort())
    }

    #[test]
    fn ip_displays_dotted_quad() {
        assert_eq!(IpAddr(0x0a000001).to_string(), "10.0.0.1");
        assert_eq!(IpAddr(0xc0a80164).to_string(), "192.168.1.100");
    }

    #[test]
    fn migration_preserves_ip_and_qos() {
        let pdp = ctx();
        let eps = pdp.to_eps_bearer(5).unwrap();
        assert_eq!(eps.ip, pdp.ip);
        assert_eq!(eps.qos, pdp.qos);
        let back = eps.to_pdp(5).unwrap();
        assert_eq!(back.ip, pdp.ip);
        assert_eq!(back.qos, pdp.qos);
    }

    #[test]
    fn inactive_pdp_cannot_become_bearer() {
        let mut pdp = ctx();
        pdp.deactivate(PdpDeactivationCause::RegularDeactivation, false);
        assert!(pdp.to_eps_bearer(5).is_none(), "this is the S1 trigger");
    }

    #[test]
    fn standards_deactivation_deletes() {
        let mut pdp = ctx();
        let out = pdp.deactivate(PdpDeactivationCause::QosNotAccepted, false);
        assert_eq!(out, DeactivationOutcome::Deleted);
        assert!(!pdp.is_active());
    }

    #[test]
    fn remedy_keeps_context_on_qos_reject() {
        let mut pdp = ctx();
        let before = pdp.qos;
        let out = pdp.deactivate(PdpDeactivationCause::QosNotAccepted, true);
        assert_eq!(out, DeactivationOutcome::KeptWithLowerQos);
        assert!(pdp.is_active());
        assert!(pdp.qos.max_dl_kbps < before.max_dl_kbps);
        assert!(pdp.to_eps_bearer(5).is_some(), "S1 avoided");
    }

    #[test]
    fn remedy_cannot_save_barring() {
        let mut pdp = ctx();
        let out = pdp.deactivate(PdpDeactivationCause::OperatorDeterminedBarring, true);
        assert_eq!(out, DeactivationOutcome::Deleted);
        assert!(!pdp.is_active());
    }

    #[test]
    fn remedy_defers_regular_deactivation() {
        let mut pdp = ctx();
        let out = pdp.deactivate(PdpDeactivationCause::RegularDeactivation, true);
        assert_eq!(out, DeactivationOutcome::DeferredUntilSwitch);
        assert!(pdp.is_active());
    }

    #[test]
    fn degraded_qos_halves_rates() {
        let q = QosProfile::best_effort().degraded();
        assert_eq!(q.max_dl_kbps, 10_500);
        assert_eq!(q.max_ul_kbps, 2_880);
    }

    #[test]
    fn inactive_bearer_cannot_become_pdp() {
        let mut eps = EpsBearerContext::active(5, IpAddr(1), QosProfile::best_effort());
        eps.state = ContextState::Inactive;
        assert!(eps.to_pdp(5).is_none());
    }
}
