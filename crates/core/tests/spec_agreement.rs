//! Cross-check the shipped `.specl` models against their hand-written Rust
//! counterparts (the ISSUE's acceptance bar for the specl front-end).
//!
//! Nothing here hard-codes state counts or witness lengths: both sides are
//! explored at test time and must agree *with each other* — same verdict,
//! same number of reachable unique states (the encodings are bijective),
//! and equally short BFS counterexamples.

use std::path::PathBuf;

use cnetverifier::{load_specs, run_spec_screening, spec_agreement, Instance};

fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

#[test]
fn every_shipped_spec_agrees_with_its_rust_model() {
    let rows = spec_agreement(&spec_dir()).expect("specs must load, compile, and pair up");
    assert_eq!(rows.len(), 3, "three shipped specs: {rows:?}");
    for row in &rows {
        assert_eq!(
            row.spec_violated, row.hand_violated,
            "{}: verdict disagreement vs {}",
            row.file, row.hand_model
        );
        assert_eq!(
            row.spec_states, row.hand_states,
            "{}: reachable-state count disagreement vs {} (the encodings \
             are meant to be bijective)",
            row.file, row.hand_model
        );
        assert_eq!(
            row.spec_witness, row.hand_witness,
            "{}: BFS shortest-counterexample length disagreement vs {}",
            row.file, row.hand_model
        );
        assert!(row.agree());
    }
}

#[test]
fn spec_verdicts_match_the_paper() {
    let rows = spec_agreement(&spec_dir()).unwrap();
    let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();

    // S2: attach over unreliable RRC violates PacketService_OK ...
    let attach = by_name("attach");
    assert!(attach.spec_violated);
    assert_eq!(attach.instance, Instance::S2);
    assert_eq!(attach.property, "PacketService_OK");
    assert!(attach.spec_states > 50, "nontrivial space: {attach:?}");

    // ... and the §8 control over reliable transport holds.
    let reliable = by_name("attach_reliable");
    assert!(!reliable.spec_violated);
    assert_eq!(reliable.spec_witness, None);

    // S6: either carrier order of the CSFB double location update detaches
    // the device; the OP-I disruption is a one-step witness.
    let lu = by_name("crosssys_lu");
    assert!(lu.spec_violated);
    assert_eq!(lu.instance, Instance::S6);
    assert_eq!(lu.property, "MM_OK");
    assert_eq!(lu.spec_witness, Some(1));
}

#[test]
fn spec_screening_report_mirrors_the_agreement_rows() {
    let report = run_spec_screening(&spec_dir()).expect("screening over specs/");
    assert_eq!(report.runs.len(), 3);
    // File-name order: attach_reliable, attach_s2, crosssys_lu_s6.
    let names: Vec<_> = report.runs.iter().map(|r| r.model_name).collect();
    assert_eq!(
        names,
        [
            "spec:attach_reliable <attach_reliable.specl>",
            "spec:attach <attach_s2.specl>",
            "spec:crosssys_lu <crosssys_lu_s6.specl>",
        ]
    );
    assert!(report.complete(), "all spec sweeps are exhaustive");
    // The reliable control is clean; the other two carry findings whose
    // witnesses replay as human-readable edge labels.
    assert!(report.finding(Instance::S2).is_some());
    assert!(report.finding(Instance::S6).is_some());
    let s2 = report.finding(Instance::S2).unwrap();
    assert_eq!(s2.property, "PacketService_OK");
    // The witness mixes channel actions with `as "..."`-labelled edges
    // (Figure 5a: the lost Attach Complete followed by the rejected TAU).
    assert!(
        s2.witness.iter().any(|w| w.contains("drops")),
        "the S2 witness exploits a lossy channel: {:?}",
        s2.witness
    );
    assert!(
        s2.witness
            .iter()
            .any(|w| w.contains("tracking-area update triggered")),
        "witness steps use the spec's edge labels: {:?}",
        s2.witness
    );
}

#[test]
fn every_engine_and_store_agrees_on_every_shipped_spec() {
    use mck::{Checker, SearchStrategy, StoreMode};

    // BFS/DFS/ParallelBfs × hash-compact/exact/collapse: all nine runs of a
    // spec must report the same verdict set and reachable-state count, and
    // within each strategy the same witness lengths (DFS counterexamples
    // are legitimately longer than BFS's, so lengths are per-strategy).
    // This is the soundness bar for the compressed stores: interning must
    // never merge states, and fingerprinting must not collide on spaces
    // this small.
    let strategies = [
        SearchStrategy::Bfs,
        SearchStrategy::Dfs,
        SearchStrategy::ParallelBfs { workers: 2 },
    ];
    let stores = [
        StoreMode::HashCompact,
        StoreMode::Exact,
        StoreMode::Collapse,
    ];
    for spec in load_specs(&spec_dir()).unwrap() {
        let mut reference: Option<(Vec<&'static str>, u64)> = None;
        for strategy in strategies {
            let mut ref_lens: Option<Vec<(&'static str, usize)>> = None;
            for store in stores {
                let r = Checker::new(spec.model.clone())
                    .strategy(strategy)
                    .store(store)
                    .run();
                assert!(
                    r.complete,
                    "{}: {strategy:?} × {store:?} incomplete",
                    spec.file
                );
                let mut verdicts: Vec<&'static str> =
                    r.violations.iter().map(|v| v.property).collect();
                verdicts.sort_unstable();
                let mut lens: Vec<(&'static str, usize)> = r
                    .violations
                    .iter()
                    .map(|v| (v.property, v.path.len()))
                    .collect();
                lens.sort_unstable();
                let got = (verdicts, r.stats.unique_states);
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        &got, want,
                        "{}: {strategy:?} × {store:?} disagrees on verdicts/states",
                        spec.file
                    ),
                }
                match &ref_lens {
                    None => ref_lens = Some(lens),
                    Some(want) => assert_eq!(
                        &lens, want,
                        "{}: {strategy:?} × {store:?} witness lengths drifted",
                        spec.file
                    ),
                }
            }
        }
    }
}

#[test]
fn por_agrees_with_full_exploration_on_every_shipped_spec() {
    use mck::{Checker, SearchStrategy};

    // The ISSUE's soundness pin for ample-set POR: reduced and full
    // exploration must agree on the verdict of every shipped spec.
    for spec in load_specs(&spec_dir()).unwrap() {
        let full = Checker::new(spec.model.clone())
            .strategy(SearchStrategy::Bfs)
            .run();
        let reduced = Checker::new(spec.model.clone())
            .strategy(SearchStrategy::Bfs)
            .por(true)
            .run();
        assert!(full.complete && reduced.complete, "{}", spec.file);
        let verdicts = |r: &mck::CheckResult<specl::SpecModel>| {
            let mut v: Vec<&'static str> = r.violations.iter().map(|v| v.property).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            verdicts(&full),
            verdicts(&reduced),
            "{}: POR changed the verdict set",
            spec.file
        );
        assert!(
            reduced.stats.transitions <= full.stats.transitions,
            "{}: reduction may never expand more than full exploration",
            spec.file
        );
    }
}

#[test]
fn loaded_specs_carry_names_files_and_instances() {
    let specs = load_specs(&spec_dir()).unwrap();
    let summary: Vec<_> = specs
        .iter()
        .map(|s| (s.name.as_str(), s.file.as_str(), s.instance))
        .collect();
    assert_eq!(
        summary,
        [
            ("attach_reliable", "attach_reliable.specl", Instance::S2),
            ("attach", "attach_s2.specl", Instance::S2),
            ("crosssys_lu", "crosssys_lu_s6.specl", Instance::S6),
        ]
    );
}

#[test]
fn loading_a_bad_directory_is_a_rendered_error() {
    let err = load_specs(&spec_dir().join("no-such-subdir")).unwrap_err();
    assert!(err.contains("cannot read spec dir"), "{err}");
}
