//! Integration: the screening models and the validation simulator must
//! agree, because they execute the *same* protocol FSMs.
//!
//! This is the architectural claim of the reproduction: a defect the
//! checker proves from the FSMs must be observable when the same FSMs run
//! under time in `netsim`, and a remedy that fixes the model must fix the
//! simulated carrier too.

use cellstack::{PdpDeactivationCause, RatSystem};
use cnetverifier::models::switchctx::{SwitchAction, SwitchContextModel};
use mck::{Checker, Model};
use netsim::{op_i, op_ii, Ev, SimTime, World, WorldConfig};

/// Replay the checker's S1 counterexample action-by-action on the
/// simulator and observe the same outcome.
#[test]
fn s1_counterexample_replays_on_the_simulator() {
    // 1. Get the counterexample from the checker.
    let checker = Checker::new(SwitchContextModel::paper());
    let result = checker.run();
    let v = result
        .violation(cnetverifier::props::PACKET_SERVICE_OK)
        .expect("screening finds S1");
    let actions: Vec<SwitchAction> = v.path.actions().cloned().collect();

    // 2. Drive the simulator through the same procedure sequence. The
    // model uses the standards-conforming device (detach immediately on a
    // context-less switch), so disable the §5.1.3 phone quirk.
    let mut cfg = WorldConfig::new(op_i(), 4242);
    cfg.phone_quirk = false;
    let mut w = World::new(cfg);
    w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
    w.run_until(SimTime::from_secs(10));
    assert!(!w.stack.out_of_service());

    let mut t = w.now;
    for action in &actions {
        t = t.plus_secs(30);
        match action {
            SwitchAction::Switch4gTo3g => {
                // The simulator's CSFB machinery performs this switch as
                // part of a call; here we drive the stack directly the way
                // the model does, through the same public API.
                let mut evs = Vec::new();
                w.stack.switch_4g_to_3g(&mut evs);
            }
            SwitchAction::DeactivatePdp(cause) => {
                w.schedule_at(t, Ev::NetworkDeactivatePdp(*cause));
                w.run_until(t.plus_secs(10));
            }
            SwitchAction::Switch3gTo4g => {
                // Route through the full return choreography.
                w.csfb = None;
                let pdp = w.stack.sm.active_context();
                use cellstack::emm::MmeInput;
                let mut out = Vec::new();
                w.mme_mut().on_input(MmeInput::SwitchedIn { pdp }, &mut out);
                let mut evs = Vec::new();
                w.stack.switch_3g_to_4g(&mut evs);
            }
        }
    }
    assert!(
        w.stack.out_of_service(),
        "the simulator reproduces the checker's S1 verdict"
    );
}

/// The S3 divergence (OP-I returns, OP-II sticks) appears identically in
/// the checker (per-mechanism models) and the simulator (per-carrier
/// profiles).
#[test]
fn s3_mechanism_split_agrees_across_phases() {
    use cnetverifier::models::csfb_rrc::CsfbRrcModel;
    use mck::SearchStrategy;

    // Checker verdicts.
    let op1_model = Checker::new(CsfbRrcModel::op1())
        .strategy(SearchStrategy::Dfs)
        .run();
    let op2_model = Checker::new(CsfbRrcModel::op2_high_rate())
        .strategy(SearchStrategy::Dfs)
        .run();
    // OP-I's redirect mechanism returns to 4G (MM_OK holds); its forced
    // release does disrupt live data, which the DataService_OK side-effect
    // monitor flags — so check the S3 property by name, not `holds()`.
    assert!(op1_model.complete);
    assert!(op1_model.violation(cnetverifier::props::MM_OK).is_none());
    assert!(op2_model.violation(cnetverifier::props::MM_OK).is_some());

    // Simulator verdicts on the same scenario.
    let run = |op| {
        let mut w = World::new(WorldConfig::new(op, 11));
        w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
        w.run_until(SimTime::from_secs(8));
        w.cfg.auto_hangup_after_ms = Some(20_000);
        w.schedule_in(500, Ev::DataStart { high_rate: true });
        w.schedule_in(2_000, Ev::Dial);
        w.schedule_in(120_000, Ev::DataSessionEnd);
        w.run_until(SimTime::from_secs(400));
        w.metrics.stuck_in_3g_ms[0]
    };
    let op1_stuck = run(op_i());
    let op2_stuck = run(op_ii());
    assert!(op1_stuck < 60_000, "OP-I: {op1_stuck} ms");
    assert!(op2_stuck > 60_000, "OP-II: {op2_stuck} ms");
}

/// The FSM-level remedies fix both the models and the simulated carrier.
#[test]
fn remedies_fix_model_and_simulator_consistently() {
    // Model side.
    let result = Checker::new(SwitchContextModel::paper().bearer_reactivation()).run();
    assert!(result.holds());

    // Simulator side: the same S1 scenario with the remedies on.
    let mut w = World::new(WorldConfig::new(op_i().remedied(), 5));
    w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
    w.run_until(SimTime::from_secs(8));
    w.cfg.auto_hangup_after_ms = Some(15_000);
    w.schedule_in(500, Ev::Dial);
    w.schedule_in(
        9_000,
        Ev::NetworkDeactivatePdp(PdpDeactivationCause::OperatorDeterminedBarring),
    );
    w.run_until(SimTime::from_secs(300));
    assert_eq!(w.metrics.detach_count, 0);
    assert!(w.stack.data_service_available());
}

/// Every screening model's counterexample must replay exactly through
/// `next_state` (no phantom transitions fabricated by the checker).
#[test]
fn all_screening_counterexamples_replay_exactly() {
    fn replay<M: Model>(model: &M, violation: &mck::Violation<M>) {
        let inits = model.init_states();
        let start = violation.path.init_state();
        assert!(inits.iter().any(|s| s == start));
        let mut cur = start.clone();
        for (action, expected) in violation.path.steps() {
            cur = model
                .next_state(&cur, action)
                .expect("counterexample transition must be valid");
            assert_eq!(&cur, expected, "state mismatch during replay");
        }
    }

    let m = SwitchContextModel::paper();
    let r = Checker::new(SwitchContextModel::paper()).run();
    replay(
        &m,
        r.violation(cnetverifier::props::PACKET_SERVICE_OK).unwrap(),
    );

    let m = cnetverifier::models::attach::AttachModel::paper();
    let r = Checker::new(cnetverifier::models::attach::AttachModel::paper()).run();
    replay(
        &m,
        r.violation(cnetverifier::props::PACKET_SERVICE_OK).unwrap(),
    );

    let m = cnetverifier::models::holblock::HolBlockModel::paper();
    let r = Checker::new(cnetverifier::models::holblock::HolBlockModel::paper()).run();
    replay(
        &m,
        r.violation(cnetverifier::props::CALL_SERVICE_OK).unwrap(),
    );
}
