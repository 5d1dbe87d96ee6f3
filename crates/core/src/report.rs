//! Report rendering: the paper's Table 1 ("Finding summary") and friends.

use cellstack::UpdateTrigger;

use crate::findings::{Category, Instance};

/// Render Table 1 — the finding summary — as fixed-width text.
pub fn table1() -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<44} {:<10} {:<26} {:<28} Root cause\n",
        "Problem", "Type", "Protocols", "Dimension"
    ));
    s.push_str(&"-".repeat(150));
    s.push('\n');
    let mut last_cat: Option<Category> = None;
    for inst in Instance::ALL {
        if last_cat != Some(inst.category()) {
            s.push_str(&format!("== {} ==\n", inst.category()));
            last_cat = Some(inst.category());
        }
        let protocols = inst
            .protocols()
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let dims = inst
            .dimensions()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        s.push_str(&format!(
            "{}: {:<40} {:<10} {:<26} {:<28} {}\n",
            inst,
            inst.problem(),
            inst.kind().to_string(),
            protocols,
            dims,
            inst.root_cause()
        ));
    }
    s
}

/// Render Table 2 — the studied protocols, their network elements and
/// governing standards.
pub fn table2() -> String {
    use cellstack::Protocol;
    let rows = [
        ("PS/CS", Protocol::CmCc, "CS Connectivity Management"),
        ("PS/CS", Protocol::Sm, "PS Session Management"),
        ("PS/CS", Protocol::Esm, "4G Session Management"),
        ("Mobility", Protocol::Mm, "CS Mobility Management"),
        ("Mobility", Protocol::Gmm, "PS Mobility Management"),
        ("Mobility", Protocol::Emm, "4G Mobility Management"),
        ("Radio", Protocol::Rrc3g, "Radio Resource Control"),
        ("Radio", Protocol::Rrc4g, "Radio Resource Control"),
    ];
    let mut s = String::new();
    s.push_str(&format!(
        "{:<10} {:<8} {:<8} {:<14} {:<10} Description\n",
        "Function", "Name", "System", "Net. Element", "Standard"
    ));
    s.push_str(&"-".repeat(80));
    s.push('\n');
    for (function, p, desc) in rows {
        s.push_str(&format!(
            "{:<10} {:<8} {:<8} {:<14} {:<10} {}\n",
            function,
            p.to_string(),
            p.system().to_string(),
            p.network_element(),
            p.standard(),
            desc
        ));
    }
    s
}

/// Render the Figure 6 analog: the reachable state graph of the CSFB/RRC
/// model (per switch mechanism) as a Graphviz digraph, error states
/// highlighted. Pipe into `dot -Tsvg` to draw it.
pub fn figure6_dot(mechanism: cellstack::SwitchMechanism) -> String {
    use crate::models::csfb_rrc::{CsfbRrcModel, CsfbRrcState, Phase};
    let model = CsfbRrcModel {
        mechanism,
        high_rate_data: true,
        csfb_tag_remedy: false,
    };
    let graph = mck::explore(&model, 10_000);
    graph.to_dot(&model, |s: &CsfbRrcState| {
        // Highlight the stuck condition: call over, still connected in 3G,
        // data alive (the state the OP-II lasso cycles through).
        s.phase == Phase::AwaitingReturn && s.rrc.state.is_connected()
    })
}

/// Render Table 3 — PDP context deactivation causes.
pub fn table3() -> String {
    use cellstack::PdpDeactivationCause;
    let mut s = String::new();
    s.push_str(&format!("{:<24} Cause\n", "Originator"));
    s.push_str(&"-".repeat(60));
    s.push('\n');
    for cause in PdpDeactivationCause::ALL {
        let originator = match cause.originator() {
            cellstack::Originator::Device => "User device",
            cellstack::Originator::Network => "Network",
            cellstack::Originator::Either => "User device/Network",
        };
        s.push_str(&format!("{:<24} {}\n", originator, cause.description()));
    }
    s
}

/// Render Table 4 — scenarios that trigger location/routing area updates.
pub fn table4() -> String {
    let mut s = String::new();
    s.push_str(&format!("{:<4} {:<28} Category\n", "No", "Scenario"));
    s.push_str(&"-".repeat(70));
    s.push('\n');
    for (i, trig) in UpdateTrigger::ALL.iter().enumerate() {
        let cat = trig
            .updates()
            .iter()
            .map(|k| match k {
                cellstack::UpdateKind::LocationArea => "Location area updating",
                cellstack::UpdateKind::RoutingArea => "Routing area updating",
                cellstack::UpdateKind::TrackingArea => "Tracking area updating",
            })
            .collect::<Vec<_>>()
            .join(" and ");
        s.push_str(&format!(
            "{:<4} {:<28} {}\n",
            i + 1,
            trig.description(),
            cat
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_instances_and_both_categories() {
        let t = table1();
        for inst in Instance::ALL {
            assert!(t.contains(&inst.to_string()), "missing {inst}");
        }
        assert!(t.contains("Necessary but problematic"));
        assert!(t.contains("Independent but coupled"));
        assert!(t.contains("Cross-system"));
        assert!(t.contains("Design"));
        assert!(t.contains("Operation"));
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        assert_eq!(t.lines().count(), 2 + 8, "eight studied protocols");
        assert!(t.contains("MSC"));
        assert!(t.contains("3G Gateways"));
        assert!(t.contains("MME"));
        assert!(t.contains("TS24.008"));
        assert!(t.contains("TS24.301"));
        assert!(t.contains("TS25.331"));
        assert!(t.contains("TS36.331"));
    }

    #[test]
    fn figure6_dot_renders_both_mechanisms() {
        for mech in [
            cellstack::SwitchMechanism::ReleaseWithRedirect,
            cellstack::SwitchMechanism::CellReselection,
        ] {
            let dot = figure6_dot(mech);
            assert!(dot.starts_with("digraph"));
            assert!(dot.contains("->"));
        }
        // The reselection graph has the highlighted stuck states...
        assert!(figure6_dot(cellstack::SwitchMechanism::CellReselection).contains("#ffb3b3"));
    }

    #[test]
    fn table3_has_six_cause_rows() {
        let t = table3();
        assert_eq!(t.lines().count(), 2 + 6);
        assert!(t.contains("QoS not accepted"));
        assert!(t.contains("Operator determined barring"));
    }

    #[test]
    fn table4_has_six_trigger_rows() {
        let t = table4();
        assert_eq!(t.lines().count(), 2 + 6);
        assert!(t.contains("CSFB call ends"));
        assert!(t.contains("Location area updating and Routing area updating"));
    }
}
