//! Mobility procedures: the Table 4 location/routing-area update triggers
//! (paper §2 "Mobility management"). The inter-system switch flows of
//! §5.1.1 and Figure 3, context migration included, run inline in
//! [`DeviceStack::switch_4g_to_3g`](crate::stack::DeviceStack::switch_4g_to_3g)
//! and [`DeviceStack::switch_3g_to_4g`](crate::stack::DeviceStack::switch_3g_to_4g).

use serde::{Deserialize, Serialize};

use crate::msg::UpdateKind;

/// The scenarios that trigger a location/routing area update (paper
/// Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateTrigger {
    /// 1 — device crossed a location-area boundary.
    CrossLocationArea,
    /// 2 — periodic location update timer.
    PeriodicLocationUpdate,
    /// 3 — a CSFB call ended (the update S6 trips over).
    CsfbCallEnds,
    /// 4 — device crossed a routing-area boundary.
    CrossRoutingArea,
    /// 5 — periodic routing update timer.
    PeriodicRoutingUpdate,
    /// 6 — the device switched into the 3G system.
    SwitchTo3g,
}

impl UpdateTrigger {
    /// All triggers, in Table 4 order.
    pub const ALL: [UpdateTrigger; 6] = [
        UpdateTrigger::CrossLocationArea,
        UpdateTrigger::PeriodicLocationUpdate,
        UpdateTrigger::CsfbCallEnds,
        UpdateTrigger::CrossRoutingArea,
        UpdateTrigger::PeriodicRoutingUpdate,
        UpdateTrigger::SwitchTo3g,
    ];

    /// Which update procedures the trigger starts (Table 4 "Category").
    pub fn updates(self) -> &'static [UpdateKind] {
        match self {
            UpdateTrigger::CrossLocationArea
            | UpdateTrigger::PeriodicLocationUpdate
            | UpdateTrigger::CsfbCallEnds => &[UpdateKind::LocationArea],
            UpdateTrigger::CrossRoutingArea | UpdateTrigger::PeriodicRoutingUpdate => {
                &[UpdateKind::RoutingArea]
            }
            UpdateTrigger::SwitchTo3g => &[UpdateKind::LocationArea, UpdateKind::RoutingArea],
        }
    }

    /// Paper Table 4 wording.
    pub fn description(self) -> &'static str {
        match self {
            UpdateTrigger::CrossLocationArea => "Cross location area",
            UpdateTrigger::PeriodicLocationUpdate => "Periodic location update",
            UpdateTrigger::CsfbCallEnds => "CSFB call ends",
            UpdateTrigger::CrossRoutingArea => "Cross routing area",
            UpdateTrigger::PeriodicRoutingUpdate => "Periodic routing update",
            UpdateTrigger::SwitchTo3g => "Switch to 3G system",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_six_rows() {
        assert_eq!(UpdateTrigger::ALL.len(), 6);
    }

    #[test]
    fn table4_categories() {
        assert_eq!(
            UpdateTrigger::CsfbCallEnds.updates(),
            &[UpdateKind::LocationArea]
        );
        assert_eq!(
            UpdateTrigger::CrossRoutingArea.updates(),
            &[UpdateKind::RoutingArea]
        );
        assert_eq!(
            UpdateTrigger::SwitchTo3g.updates(),
            &[UpdateKind::LocationArea, UpdateKind::RoutingArea],
            "switch to 3G updates both domains (Table 4 row 6)"
        );
    }

    #[test]
    fn descriptions_match_table4() {
        assert_eq!(UpdateTrigger::CsfbCallEnds.description(), "CSFB call ends");
        assert_eq!(
            UpdateTrigger::SwitchTo3g.description(),
            "Switch to 3G system"
        );
    }
}
