//! The §8 remedy registry: what each remedy is, not how it is applied.
//!
//! The paper presents each remedy as a *small delta* on an existing
//! protocol spec — a channel made reliable, a budget changed, a flag
//! flipped on one machine. A [`RemedyOverlay`] names the remedy,
//! classifies it under the paper's three solution modules
//! ([`RemedyClass`]) and targets a problematic interaction instance
//! (S1–S6). The delta itself is a typed edit, `fn(M) -> M`, defined once
//! on the one type that understands it: a hand-written screening model in
//! the core crate (`SwitchContextModel::bearer_reactivation`,
//! `AttachModel::reliable_shim`, …), or
//! [`netsim::OperatorProfile::remedied`] for the fleet rollout. Where a
//! `.specl` source exists for the instance, the entry also points at a
//! specl module overlay under `specs/remedies/` (applied with
//! `specl::apply_overlay`), so the same remedy is checkable at the spec
//! level.
//!
//! [`registry`] enumerates the six §8 remedies the repo models.

/// The paper's three solution modules (§8, Figure 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RemedyClass {
    /// A new sublayer fixes an inter-layer interaction (reliable shim,
    /// parallel MM/GMM threads).
    LayerExtension,
    /// CS and PS concerns are separated (dedicated channels, the BS-side
    /// CSFB tag on the return switch).
    DomainDecoupling,
    /// 3G and 4G systems coordinate instead of racing (bearer
    /// reactivation, in-core LU-failure recovery).
    CrossSystemCoordination,
}

impl RemedyClass {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            RemedyClass::LayerExtension => "layer extension",
            RemedyClass::DomainDecoupling => "domain decoupling",
            RemedyClass::CrossSystemCoordination => "cross-system coordination",
        }
    }
}

/// A named §8 remedy: what it is, where the paper describes it, and which
/// instance it targets.
#[derive(Clone, Copy, Debug)]
pub struct RemedyOverlay {
    /// Stable remedy identifier (keys the differential matrix).
    pub name: &'static str,
    /// Which of the paper's three solution modules it belongs to.
    pub class: RemedyClass,
    /// The problematic interaction instance it targets ("S1".."S6").
    pub instance: &'static str,
    /// Where the paper describes it.
    pub paper_ref: &'static str,
    /// Relative path (from the repo root) of the specl module overlay
    /// expressing the same remedy at the spec level, when one exists.
    pub spec_overlay: Option<&'static str>,
}

/// The six §8 remedies, in instance order S1–S6.
///
/// S5's `cs_ps_decoupling` has no screening model to edit; its evaluation
/// is Figure 13 ([`crate::decouple`]).
pub fn registry() -> &'static [RemedyOverlay] {
    &REGISTRY
}

static REGISTRY: [RemedyOverlay; 6] = [
    RemedyOverlay {
        name: "bearer_reactivation",
        class: RemedyClass::CrossSystemCoordination,
        instance: "S1",
        paper_ref: "§8, cross-system coordination (reactivate, don't detach)",
        spec_overlay: None,
    },
    RemedyOverlay {
        name: "reliable_shim",
        class: RemedyClass::LayerExtension,
        instance: "S2",
        paper_ref: "§8, layer extension (reliable in-order EMM/RRC shim)",
        spec_overlay: Some("specs/remedies/attach_s2__reliable_shim.specl"),
    },
    RemedyOverlay {
        name: "csfb_tag",
        class: RemedyClass::DomainDecoupling,
        instance: "S3",
        paper_ref: "§8, domain decoupling (BS-side CSFB tag on return switch)",
        spec_overlay: None,
    },
    RemedyOverlay {
        name: "parallel_mm",
        class: RemedyClass::LayerExtension,
        instance: "S4",
        paper_ref: "§8, layer extension (parallel MM/GMM threads)",
        spec_overlay: None,
    },
    RemedyOverlay {
        name: "cs_ps_decoupling",
        class: RemedyClass::DomainDecoupling,
        instance: "S5",
        paper_ref: "§8, domain decoupling (separate CS/PS channels)",
        spec_overlay: None,
    },
    RemedyOverlay {
        name: "mme_lu_recovery",
        class: RemedyClass::CrossSystemCoordination,
        instance: "S6",
        paper_ref: "§8, cross-system coordination (MME recovers LU failure in-core)",
        spec_overlay: Some("specs/remedies/crosssys_lu_s6__mme_recovery.specl"),
    },
];

/// The registry entry named `name`.
pub fn remedy(name: &str) -> Option<RemedyOverlay> {
    registry().iter().find(|r| r.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_six_instances_in_order() {
        let reg = registry();
        let instances: Vec<&str> = reg.iter().map(|r| r.instance).collect();
        assert_eq!(instances, ["S1", "S2", "S3", "S4", "S5", "S6"]);
        // Names are unique.
        let mut names: Vec<&str> = reg.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn every_class_is_represented_twice() {
        let reg = registry();
        for class in [
            RemedyClass::LayerExtension,
            RemedyClass::DomainDecoupling,
            RemedyClass::CrossSystemCoordination,
        ] {
            assert_eq!(
                reg.iter().filter(|r| r.class == class).count(),
                2,
                "{}",
                class.name()
            );
        }
    }

    #[test]
    fn spec_overlay_files_exist_for_the_spec_backed_remedies() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for r in registry() {
            if let Some(rel) = r.spec_overlay {
                let path = format!("{root}/{rel}");
                assert!(
                    std::path::Path::new(&path).is_file(),
                    "{}: missing {rel}",
                    r.name
                );
            }
        }
    }
}
