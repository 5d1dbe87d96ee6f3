//! The 5G NR / NSA corpus contract: every spec under `specs/fivegs/`
//! parses, canonical-prints to a fixpoint, lowers, and screens to the same
//! verdict under sequential and parallel BFS; the timing-lattice sweep
//! classifies at least two scenarios as timing-induced and pins a
//! replayable witness on every violated lattice.

use std::path::PathBuf;

use cnetverifier::{
    fiveg_corpus_check, load_specs, sweep_timer_scales, Instance, LatticeDiagnosis, ScreenBudget,
};
use mck::{Checker, Model, SearchStrategy};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/fivegs")
}

#[test]
fn corpus_loads_in_file_order_with_fiveg_instances() {
    let lattices = sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap();
    let summary: Vec<_> = lattices
        .iter()
        .map(|l| (l.name.as_str(), l.file.as_str(), l.instance))
        .collect();
    assert_eq!(
        summary,
        [
            (
                "attach_timer_race",
                "attach_timer_race_s10.specl",
                Instance::S10
            ),
            ("eps_fallback", "eps_fallback_s9.specl", Instance::S9),
            (
                "fiveg_registration",
                "fiveg_registration_s7.specl",
                Instance::S7
            ),
            ("nsa_secondary", "nsa_secondary_s8.specl", Instance::S8),
        ]
    );
}

#[test]
fn lattice_diagnoses_split_timing_induced_from_design() {
    let lattices = sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap();
    let diag = |inst: Instance| {
        lattices
            .iter()
            .find(|l| l.instance == inst)
            .unwrap()
            .diagnosis()
    };
    // S7/S8 exist only in a timing window; S9/S10 survive every scale.
    assert_eq!(diag(Instance::S7), LatticeDiagnosis::TimingInduced);
    assert_eq!(diag(Instance::S8), LatticeDiagnosis::TimingInduced);
    assert_eq!(diag(Instance::S9), LatticeDiagnosis::DesignDefect);
    assert_eq!(diag(Instance::S10), LatticeDiagnosis::DesignDefect);
    let timing = lattices
        .iter()
        .filter(|l| l.diagnosis() == LatticeDiagnosis::TimingInduced)
        .count();
    assert!(
        timing >= 2,
        "the corpus must carry >= 2 timing-induced candidates"
    );
}

#[test]
fn violated_lattices_carry_replayable_witnesses() {
    let lattices = sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap();
    for l in &lattices {
        let n = l.points[0].scales.len();
        assert_eq!(
            l.points.len(),
            if n > 4 { n + 1 } else { 1 << n },
            "{}: full {{1,4}}^n lattice, one-at-a-time past 4 timers",
            l.file
        );
        if l.violated_points() > 0 {
            let f = l
                .finding
                .as_ref()
                .unwrap_or_else(|| panic!("{}: violated lattice must pin a witness", l.file));
            assert_eq!(f.property, l.property);
            assert!(
                !f.witness.is_empty(),
                "{}: witness replays as steps",
                l.file
            );
            assert!(f.steps > 0);
        } else {
            assert!(l.finding.is_none());
        }
        // The base point (all scales 1) comes first.
        assert!(l.points[0].scales.iter().all(|&s| s == 1));
    }
}

/// The sweep's oracle: a direct sequential BFS of every point's scaled
/// model agrees with the sweep on unique states, verdict and witness
/// length, and the first violated point's rendered witness is the
/// lattice's finding.
#[test]
fn sweep_matches_a_direct_bfs_of_every_point() {
    let specs = load_specs(&corpus_dir()).unwrap();
    let lattices = sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap();
    assert_eq!(specs.len(), lattices.len());
    for (spec, l) in specs.iter().zip(&lattices) {
        let timers = &spec.model.program.timers;
        let mut first = None;
        for p in &l.points {
            let model = timers
                .iter()
                .zip(&p.scales)
                .fold(spec.model.clone(), |m, (t, &s)| {
                    m.with_timer_scale(&t.name, s).expect("declared timer")
                });
            let result = Checker::new(model.clone())
                .strategy(SearchStrategy::Bfs)
                .run();
            assert!(result.complete, "{} at `{}`", l.file, p.label);
            let v = result.violation(&l.property);
            assert_eq!(
                (p.states, p.violated, p.witness),
                (
                    result.stats.unique_states,
                    v.is_some(),
                    v.map(|v| v.path.len())
                ),
                "{} at `{}`: states, verdict, witness length",
                l.file,
                p.label
            );
            if first.is_none() {
                first = v.map(|v| {
                    v.path
                        .actions()
                        .map(|a| model.format_action(a))
                        .collect::<Vec<_>>()
                });
            }
        }
        assert_eq!(
            l.finding.as_ref().map(|f| &f.witness),
            first.as_ref(),
            "{}: the finding is the first violated point's witness",
            l.file
        );
    }
}

/// BFS runs once per timer order: S10's two clocks are never armed
/// together and S9 has one timer, so each is one run; S7 and S8 each split
/// into a run where the race goes one way and a run where it goes the
/// other. Every reused point names an earlier explored point.
#[test]
fn sweep_explores_one_point_per_timer_order() {
    let lattices = sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap();
    let explored: Vec<(usize, usize)> = lattices
        .iter()
        .map(|l| {
            let runs = l.points.iter().filter(|p| p.same_as.is_none()).count();
            (runs, l.points.len())
        })
        .collect();
    assert_eq!(explored, [(1, 4), (1, 2), (2, 4), (2, 4)]);
    for l in &lattices {
        for (k, p) in l.points.iter().enumerate() {
            if let Some(i) = p.same_as {
                assert!(
                    i < k && l.points[i].same_as.is_none(),
                    "{} at `{}`",
                    l.file,
                    p.label
                );
            }
        }
    }
}

#[test]
fn fiveg_registration_is_clean_only_when_t3510_outlasts_identification() {
    let lattices = sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap();
    let s7 = lattices
        .iter()
        .find(|l| l.instance == Instance::S7)
        .unwrap();
    for p in &s7.points {
        // scales = [t3510, ident5g]: stretching T3510 past the
        // identification deadline (60 > 20) is the one clean point.
        let clean = p.scales == [4, 1];
        assert_eq!(
            p.violated, !clean,
            "unexpected verdict at point `{}`",
            p.label
        );
    }
}

#[test]
fn corpus_conformance_holds_under_both_engines() {
    let rows = fiveg_corpus_check(&corpus_dir()).unwrap();
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(row.canonical_fixpoint, "{}: print∘parse fixpoint", row.file);
        assert_eq!(
            row.bfs_violated, row.par_violated,
            "{}: BFS vs ParallelBfs verdict",
            row.file
        );
        assert_eq!(
            row.bfs_states, row.par_states,
            "{}: BFS vs ParallelBfs reachable states",
            row.file
        );
        assert!(row.agree());
    }
}

/// A lattice point the budget cannot exhaust makes the whole sweep an
/// error that names the file and the point: a truncated point would make
/// the all-points/some-points split unsound.
#[test]
fn an_unexhausted_lattice_point_is_an_error_naming_file_and_point() {
    let first = &sweep_timer_scales(&corpus_dir(), ScreenBudget::default()).unwrap()[0];
    let err = sweep_timer_scales(&corpus_dir(), ScreenBudget::states(2)).unwrap_err();
    let expected = format!(
        "{}: lattice point `{}` exhausted the screening budget",
        first.file, first.points[0].label
    );
    assert!(err.starts_with(&expected), "{err}");
}
