//! Quickstart: run both phases of CNetVerifier end to end.
//!
//! Phase 1 screens the protocol models with the model checker and prints
//! the counterexamples for the four design defects (S1–S4). Phase 2 replays
//! each counterexample scenario on the simulated carriers OP-I / OP-II and
//! prints what was observed — including the two operational issues (S5, S6)
//! only validation can see.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

fn main() {
    println!("=== CNetVerifier quickstart ===\n");

    // ---- Phase 1: screening (model checking) ----
    println!("Phase 1: screening the protocol models...\n");
    let report = cnetverifier::run_screening_deterministic();
    for run in &report.runs {
        println!("  model {:<36} {}", run.model_name, run.stats);
    }
    println!();
    for finding in report.findings() {
        println!("  {}: {}", finding.instance, finding.instance.problem());
        println!(
            "     violates {} in {} steps{}",
            finding.property,
            finding.steps,
            if finding.lasso {
                " (lasso: the service is delayed forever)"
            } else {
                ""
            }
        );
        for (i, step) in finding.witness.iter().enumerate() {
            println!("       {:>2}. {step}", i + 1);
        }
    }

    // ---- Phase 2: validation (simulated carriers, monitor verdicts) ----
    println!("\nPhase 2: validating on the simulated carriers...\n");
    for v in cnetverifier::validate_all(2014) {
        println!(
            "  {} on {:>5}: {:<12} — {}",
            v.instance,
            v.operator,
            v.verdict.to_string(),
            v.evidence
        );
    }

    // ---- The diagnosis: design defects vs operational slips ----
    println!("\nDiagnosis (both phases combined):");
    for d in cnetverifier::diagnose(2014) {
        println!("  {}: {}", d.instance, d.class);
    }

    // ---- The fix ----
    println!("\nWith the paper's Section-8 remedies applied:");
    let remedied = cnetverifier::run_screening_remedied();
    println!(
        "  screening finds {} violation(s) across {} models (expected 0)",
        remedied.findings().count(),
        remedied.runs.len()
    );
}
