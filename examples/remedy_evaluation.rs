//! Evaluate all three solution modules (paper §8 Figure 11, §9):
//! layer extension, domain decoupling, and cross-system coordination.
//!
//! ```sh
//! cargo run --example remedy_evaluation
//! ```

fn main() {
    println!("=== Section 9: evaluating the solution prototypes ===");

    // ---- 9.1 Layer extension ----
    println!("\n[9.1] Layer extension");
    let (with, without) = remedies::figure12_left(2014);
    println!("  reliable shim (Figure 12 left): detaches per 100 attach+TAU cycles");
    println!("    {:>6} {:>10} {:>10}", "drop", "w/o shim", "w/ shim");
    for ((rate, wo), (_, wi)) in without.iter().zip(with.iter()) {
        println!("    {:>5.0}% {:>10} {:>10}", rate, wo, wi);
    }
    let (with, without) = remedies::figure12_right();
    println!("  parallel MM threads (Figure 12 right): call delay vs LU time");
    println!("    {:>6} {:>10} {:>10}", "LU(s)", "w/o sol", "w/ sol");
    for (w, wo) in with.iter().zip(without.iter()) {
        println!(
            "    {:>6.1} {:>9.1}s {:>9.1}s",
            wo.lu_time_s, wo.delay_s, w.delay_s
        );
    }

    // ---- 9.2 Domain decoupling ----
    println!("\n[9.2] Domain decoupling");
    println!("  coupled vs decoupled channel speeds (Figure 13):");
    for row in remedies::figure13() {
        println!(
            "    {:>8} {:>10}: VoIP {:>5.2} Mbps, data {:>5.2} Mbps",
            if row.uplink { "uplink" } else { "downlink" },
            if row.coupled { "coupled" } else { "decoupled" },
            row.voip_mbps,
            row.data_mbps
        );
    }
    println!(
        "  data improvement: {:.2}x downlink, {:.2}x uplink (paper ~1.6x)",
        remedies::decoupling_gain(false),
        remedies::decoupling_gain(true)
    );
    println!(
        "  CSFB switch never blocked with the BS tag: {}",
        remedies::csfb_switch_never_blocked(true)
    );

    // ---- 9.3 Cross-system coordination ----
    println!("\n[9.3] Cross-system coordination");
    let (with, without) = remedies::section93_switch_experiment(400, 2014);
    let stats = |v: &[u64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        (
            s[0] as f64 / 1e3,
            s[s.len() / 2] as f64 / 1e3,
            s[s.len() - 1] as f64 / 1e3,
        )
    };
    let (mn, md, mx) = stats(&with);
    println!(
        "  3G->4G switch with bearer reactivation:   min {mn:.2}s median {md:.2}s max {mx:.2}s"
    );
    let (mn, md, mx) = stats(&without);
    println!(
        "  3G->4G switch with detach + re-attach:    min {mn:.2}s median {md:.2}s max {mx:.2}s"
    );
    println!(
        "  FSM verification: bearer reactivation = {}, MME LU recovery = {}",
        remedies::verify_bearer_reactivation(),
        remedies::verify_mme_lu_recovery()
    );

    // ---- and the properties hold again ----
    println!("\nScreening with every remedy applied:");
    let report = cnetverifier::run_screening_remedied();
    for run in &report.runs {
        println!(
            "  {:<36} {} -> {} finding(s)",
            run.model_name,
            run.stats,
            run.findings.len()
        );
    }
}
