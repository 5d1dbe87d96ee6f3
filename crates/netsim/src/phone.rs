//! Phone models and their behavioural quirks.
//!
//! §3.3: "We use five smartphone models that support dual 3G and 4G LTE
//! operations: HTC One, LG Optimus G, Samsung Galaxy S4 and Note 2, and
//! Apple iPhone5S." Two behaviours differ by model:
//!
//! * **PDP deactivation on Wi-Fi switch** (§5.1.3): "While staying in 3G,
//!   some (here, HTC One and LG Optimus G) deactivate all PDP contexts"
//!   when Wi-Fi becomes available — which later produces S1 when the user
//!   walks back into 4G coverage.
//! * **TAU-before-detach** (§5.1.3, Figure 4): the tested phones do not
//!   detach immediately on a context-less 3G→4G switch as the standard
//!   says; they run a tracking-area update and only detach on the reject,
//!   extending the outage. The paper observed this on all five models
//!   (median gap < 0.5 s between phones).

/// The study's five phone models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PhoneModel {
    /// HTC One (Android).
    HtcOne,
    /// LG Optimus G (Android).
    LgOptimusG,
    /// Samsung Galaxy S4 (Android) — the Figure 4 measurement phone.
    GalaxyS4,
    /// Samsung Galaxy Note 2 (Android).
    GalaxyNote2,
    /// Apple iPhone 5S (iOS).
    IPhone5s,
}

impl PhoneModel {
    /// All five models.
    pub const ALL: [PhoneModel; 5] = [
        PhoneModel::HtcOne,
        PhoneModel::LgOptimusG,
        PhoneModel::GalaxyS4,
        PhoneModel::GalaxyNote2,
        PhoneModel::IPhone5s,
    ];

    /// Does this model deactivate all PDP contexts when switching to
    /// Wi-Fi while camped on 3G (§5.1.3)?
    pub fn deactivates_pdp_on_wifi(self) -> bool {
        matches!(self, PhoneModel::HtcOne | PhoneModel::LgOptimusG)
    }

    /// Does this model run a TAU before detaching on a context-less 3G→4G
    /// switch (all tested phones do)?
    pub fn tau_before_detach(self) -> bool {
        true
    }

    /// Marketing name.
    pub fn name(self) -> &'static str {
        match self {
            PhoneModel::HtcOne => "HTC One",
            PhoneModel::LgOptimusG => "LG Optimus G",
            PhoneModel::GalaxyS4 => "Samsung Galaxy S4",
            PhoneModel::GalaxyNote2 => "Samsung Galaxy Note 2",
            PhoneModel::IPhone5s => "Apple iPhone 5S",
        }
    }

    /// Operating system, for the study's coverage claim ("they cover both
    /// Android and iOS").
    pub fn os(self) -> &'static str {
        match self {
            PhoneModel::IPhone5s => "iOS",
            _ => "Android",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_models_cover_both_oses() {
        assert_eq!(PhoneModel::ALL.len(), 5);
        assert!(PhoneModel::ALL.iter().any(|m| m.os() == "iOS"));
        assert!(PhoneModel::ALL.iter().any(|m| m.os() == "Android"));
    }

    #[test]
    fn wifi_quirk_matches_section_5_1_3() {
        assert!(PhoneModel::HtcOne.deactivates_pdp_on_wifi());
        assert!(PhoneModel::LgOptimusG.deactivates_pdp_on_wifi());
        assert!(!PhoneModel::GalaxyS4.deactivates_pdp_on_wifi());
        assert!(!PhoneModel::IPhone5s.deactivates_pdp_on_wifi());
    }

    #[test]
    fn all_models_tau_before_detach() {
        for m in PhoneModel::ALL {
            assert!(m.tau_before_detach());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            PhoneModel::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
