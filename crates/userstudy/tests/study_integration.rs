//! End-to-end §7 study: run the full 20-phone × 14-day fleet and check
//! the Table 5 / Table 6 shapes against the paper, plus thread-count
//! independence of the whole analysis pipeline.

use std::sync::OnceLock;

use monitor::{collect_spans, count_signature};
use netsim::rng::rng_from_seed;
use netsim::{FleetConfig, FleetSim, LiveConfig, SimTime};
use userstudy::{
    analyze, build_population, episodes_from_spans, run_study, spec_for, study_signatures,
    Participant, StudyResult, STUDY_DAYS,
};

fn study() -> &'static StudyResult {
    static STUDY: OnceLock<StudyResult> = OnceLock::new();
    STUDY.get_or_init(|| run_study(2014))
}

#[test]
fn proportions_track_table5() {
    let r = study();
    // Paper: S1 3.1%, S2 0%, S3 62.1%, S4 7.6%, S5 77.4%, S6 2.6%.
    assert!(
        (0.005..=0.08).contains(&r.s1.probability()),
        "S1 {:?}",
        r.s1
    );
    assert!(r.s2.events <= 1, "S2 {:?}", r.s2);
    assert!((0.45..=0.75).contains(&r.s3.probability()), "S3 {:?}", r.s3);
    assert!((0.01..=0.16).contains(&r.s4.probability()), "S4 {:?}", r.s4);
    assert!((0.65..=0.90).contains(&r.s5.probability()), "S5 {:?}", r.s5);
    assert!(
        (0.005..=0.08).contains(&r.s6.probability()),
        "S6 {:?}",
        r.s6
    );
    // The paper's ordering across instances: S5 > S3 >> S4 > S1, S6.
    assert!(r.s5.probability() > r.s3.probability());
    assert!(r.s3.probability() > r.s4.probability());
    assert!(r.s4.probability() > r.s6.probability());
}

#[test]
fn event_volume_tracks_the_study() {
    let r = study();
    // Paper: 190 CSFB calls, 146 CS calls, 436 switches, 30 attaches.
    assert!((150..=230).contains(&r.csfb_calls), "{}", r.csfb_calls);
    assert!((110..=180).contains(&r.cs_calls_3g), "{}", r.cs_calls_3g);
    assert!((350..=520).contains(&r.switches), "{}", r.switches);
    assert!((20..=45).contains(&r.attaches), "{}", r.attaches);
    // 2 switch legs per CSFB call, plus the coverage-driven remainder.
    assert!(r.switches >= 2 * r.csfb_calls);
}

#[test]
fn table6_carrier_asymmetry() {
    let r = study();
    let med = |v: &[u64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        s[s.len() / 2]
    };
    assert!(!r.stuck_op1_ms.is_empty() && !r.stuck_op2_ms.is_empty());
    // Paper Table 6: OP-I median 2.3 s, OP-II median 24.3 s.
    assert!(med(&r.stuck_op1_ms) < 10_000);
    assert!(med(&r.stuck_op2_ms) > 14_000);
}

/// One live-monitored study fleet at `threads`, as [`run_study`] runs it:
/// plans kept, the study signatures in-line with their spans kept.
fn live_fleet(threads: usize) -> (Vec<Participant>, FleetConfig) {
    let mut rng = rng_from_seed(2014);
    let population = build_population(&mut rng);
    let roster = population.iter().map(spec_for).collect();
    let mut cfg = FleetConfig::new(2014, STUDY_DAYS, threads, roster);
    cfg.keep_plan = true;
    let mut live = LiveConfig::new(study_signatures());
    live.keep_spans = true;
    cfg.live = Some(live);
    (population, cfg)
}

/// The post-hoc trace scan is the equivalence oracle for the in-line
/// path the study reads. On one live-monitored run with unbounded traces,
/// every UE's confirmed tallies equal `count_signature` over its trace up
/// to the fleet horizon, and its S3 episodes from the in-line spans equal
/// those from `collect_spans`. Episodes are compared rather than raw
/// spans, because tapped spans carry no trace description.
#[test]
fn inline_verdicts_match_the_posthoc_oracle() {
    const SIG_S3: usize = 2; // study_signatures() order: S1 … S6
    let (_, cfg) = live_fleet(4);
    let horizon = SimTime::from_millis(u64::from(STUDY_DAYS) * 86_400_000 + 900_000);
    let (_, ues) = FleetSim::new(cfg).run_collect();
    let sigs = study_signatures();
    for u in &ues {
        let live = u.live.as_ref().expect("live configured");
        let entries = u.trace.entries();
        let posthoc: Vec<u32> = sigs
            .iter()
            .map(|sig| count_signature(sig, entries, horizon) as u32)
            .collect();
        assert_eq!(live.confirmed, posthoc, "ue {}", u.id);
        assert_eq!(
            episodes_from_spans(&live.spans[SIG_S3]),
            episodes_from_spans(&collect_spans(&sigs[SIG_S3], entries)),
            "ue {}",
            u.id
        );
    }
}

#[test]
fn analysis_is_thread_count_independent() {
    let fleet = |threads: usize| {
        let (population, cfg) = live_fleet(threads);
        let (report, ues) = FleetSim::new(cfg).run_collect();
        (report.digest(), analyze(&population, &ues))
    };
    let (da, a) = fleet(1);
    let (db, b) = fleet(8);
    assert_eq!(da, db, "fleet digests, 1 vs 8 threads");
    assert_eq!(a.s3, b.s3);
    assert_eq!(a.s5, b.s5);
    assert_eq!(a.s6, b.s6);
    assert_eq!(a.stuck_op1_ms, b.stuck_op1_ms);
    assert_eq!(a.stuck_op2_ms, b.stuck_op2_ms);
    assert_eq!(a.fleet_events, b.fleet_events);
}
