//! Integration: the full two-phase pipeline, end to end.
//!
//! These tests exercise the whole stack across crate boundaries, the way
//! the paper's tool is actually used: screen the models, validate the
//! counterexamples on the simulated carriers, confirm the classification
//! matches Table 1, and confirm the §8 remedies clear everything.

use cnetverifier::findings::{Category, Instance, Phase};
use cnetverifier::{
    diagnose, run_screening_deterministic, run_screening_remedied, validate_all, DefectClass,
    Verdict,
};

#[test]
fn screening_finds_exactly_the_four_design_defects() {
    let report = run_screening_deterministic();
    let found: Vec<Instance> = report.findings().map(|f| f.instance).collect();
    assert_eq!(
        found,
        vec![Instance::S1, Instance::S2, Instance::S3, Instance::S4],
        "screening yields S1-S4 in model order (paper §4)"
    );
    // Each screening finding is a design defect.
    for f in report.findings() {
        assert_eq!(f.instance.kind(), cellstack::IssueKind::Design);
        assert_eq!(f.instance.discovered_by(), Phase::Screening);
    }
}

#[test]
fn validation_observes_all_six_instances_somewhere() {
    let outcomes = validate_all(2014);
    for inst in Instance::ALL {
        assert!(
            outcomes.iter().any(|v| v.instance == inst && v.observed),
            "{inst} must be observed on at least one carrier"
        );
    }
    // Every confirmed observation is backed by a matched event span.
    for v in outcomes.iter().filter(|v| v.observed) {
        assert!(
            !v.span.is_empty(),
            "{} on {} confirmed without evidence",
            v.instance,
            v.operator
        );
    }
}

#[test]
fn s3_confirms_on_both_carriers_with_divergent_severity() {
    // The signature matches on both carriers — the *severity* divergence
    // (Table 6) lives in the span: the released→returned gap tracks the
    // data session on the reselection carrier only.
    let outcomes = validate_all(7);
    let stuck_ms = |op: &str| {
        let v = outcomes
            .iter()
            .find(|v| v.instance == Instance::S3 && v.operator == op)
            .unwrap();
        assert_eq!(v.verdict, Verdict::Confirmed, "{op}: {}", v.evidence);
        let released = v
            .span
            .iter()
            .find(|m| m.step == "call-released")
            .unwrap()
            .ts;
        let returned = v
            .span
            .iter()
            .find(|m| m.step == "returned-to-4g")
            .unwrap()
            .ts;
        returned.since(released)
    };
    assert!(stuck_ms("OP-II") > 300_000, "OP-II tracks the data session");
    assert!(stuck_ms("OP-I") < 60_000, "OP-I returns promptly");
}

#[test]
fn operational_slips_have_carrier_divergent_verdicts() {
    let outcomes = validate_all(2014);
    let verdict = |inst: Instance, op: &str| {
        outcomes
            .iter()
            .find(|v| v.instance == inst && v.operator == op)
            .unwrap()
            .verdict
    };
    // S5: the reselection carrier's single-modulation channel collapses the
    // in-call uplink; the redirect carrier keeps a healthy rate and is
    // actively refuted by the negation arc.
    assert_eq!(verdict(Instance::S5, "OP-II"), Verdict::Confirmed);
    assert_eq!(verdict(Instance::S5, "OP-I"), Verdict::Refuted);
    // S6: the fast-return carrier disrupts the deferred update and the
    // failure propagates to 4G; the slow-return carrier completes it.
    assert_eq!(verdict(Instance::S6, "OP-I"), Verdict::Confirmed);
    assert_eq!(verdict(Instance::S6, "OP-II"), Verdict::Refuted);
}

#[test]
fn diagnosis_matrix_matches_table1() {
    let diagnoses = diagnose(2014);
    assert_eq!(diagnoses.len(), 6);
    for d in &diagnoses {
        match d.instance {
            Instance::S1 | Instance::S2 | Instance::S3 | Instance::S4 => {
                assert_eq!(d.class, DefectClass::DesignDefect, "{}", d.instance);
                assert!(d.predicted_by_screening);
                assert_eq!(
                    d.witness_verdict,
                    Some(Verdict::Confirmed),
                    "{}: the compiled counterexample chain must replay on a carrier",
                    d.instance
                );
                assert!(d.outcomes.iter().all(|o| o.observed), "{}", d.instance);
            }
            Instance::S5 | Instance::S6 => {
                assert_eq!(d.class, DefectClass::OperationalSlip, "{}", d.instance);
                assert!(!d.predicted_by_screening);
                assert!(d.witness_verdict.is_none());
                let confirmed = d.outcomes.iter().filter(|o| o.observed).count();
                assert_eq!(
                    confirmed, 1,
                    "{}: exactly one carrier exhibits it",
                    d.instance
                );
            }
            Instance::S7 | Instance::S8 | Instance::S9 | Instance::S10 => {
                unreachable!("diagnose() covers Table 1 only; S7+ go through --exp fivegs")
            }
        }
    }
}

#[test]
fn remedied_screening_is_completely_clean() {
    let report = run_screening_remedied();
    assert_eq!(
        report.findings().count(),
        0,
        "every §8 remedy must eliminate its defect"
    );
    // And it still explores a real space (the remedies must not have
    // trivially emptied the models).
    assert!(report.total_states() > 10);
}

#[test]
fn counterexample_witnesses_are_human_readable() {
    let report = run_screening_deterministic();
    for f in report.findings() {
        assert_eq!(f.witness.len(), f.steps);
        for step in &f.witness {
            assert!(!step.is_empty());
            assert!(
                !step.contains("Debug"),
                "witness steps should be formatted, not Debug-dumped"
            );
        }
    }
}

#[test]
fn table1_categories_match_finding_classification() {
    // The three "necessary but problematic" instances are exactly the ones
    // the screening phase proves from protocol cooperation models.
    for inst in [Instance::S1, Instance::S2, Instance::S3] {
        assert_eq!(inst.category(), Category::NecessaryButProblematic);
    }
    for inst in [Instance::S4, Instance::S5, Instance::S6] {
        assert_eq!(inst.category(), Category::IndependentButCoupled);
    }
}

#[test]
fn validation_is_reproducible_per_seed() {
    let a = validate_all(99);
    let b = validate_all(99);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.verdict, y.verdict);
        assert_eq!(x.observed, y.observed);
        assert_eq!(x.evidence, y.evidence);
        assert_eq!(x.span, y.span);
        assert_eq!(x.refutation, y.refutation);
    }
}
