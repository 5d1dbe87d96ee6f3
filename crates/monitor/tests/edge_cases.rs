//! Automaton edge cases: overlapping matches, timed-step expiry,
//! negation arcs, and empty traces.

use cellstack::{Protocol, RatSystem};
use monitor::{run_signature, Bank, Monitor, Pattern, Signature, Verdict};
use netsim::trace::{CallPhase, TraceCollector, TraceEvent, TraceType};
use netsim::SimTime;

fn feed_at(t: &mut TraceCollector, ms: u64, event: TraceEvent) {
    t.record_event(
        SimTime::from_millis(ms),
        TraceType::State,
        RatSystem::Utran3g,
        Protocol::Mm,
        format!("event at {ms} ms"),
        event,
    );
}

fn two_step() -> Signature {
    Signature::new("two-step")
        .step("connected", Pattern::call(CallPhase::Connected))
        .step("released", Pattern::call(CallPhase::Released))
}

#[test]
fn empty_trace_is_inconclusive() {
    let report = run_signature(two_step(), &[], SimTime::from_secs(100));
    assert_eq!(report.verdict, Verdict::Inconclusive);
    assert!(report.span.is_empty());
    assert!(report.refutation.is_none());
}

#[test]
fn empty_trace_refutes_an_expired_timed_first_step() {
    let sig = Signature::new("timed-first").timed_step(
        "connected",
        Pattern::call(CallPhase::Connected),
        1_000,
    );
    let report = run_signature(sig, &[], SimTime::from_secs(100));
    assert_eq!(report.verdict, Verdict::Refuted);
    assert!(report.refutation.unwrap().contains("trace ended"));
}

#[test]
fn in_order_events_confirm_and_produce_the_span() {
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 9_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(two_step(), t.entries(), SimTime::from_secs(10));
    assert_eq!(report.verdict, Verdict::Confirmed);
    assert_eq!(report.span.len(), 2);
    assert_eq!(report.span[0].step, "connected");
    assert_eq!(report.span[1].ts, SimTime::from_secs(9));
}

#[test]
fn overlapping_matches_advance_greedily_on_the_first_candidate() {
    // Trace: Connected, Connected, Released. The first Connected anchors
    // the match; the second is simply ignored (no backtracking) and the
    // signature still completes.
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 2_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 3_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(two_step(), t.entries(), SimTime::from_secs(10));
    assert_eq!(report.verdict, Verdict::Confirmed);
    assert_eq!(
        report.span[0].ts,
        SimTime::from_secs(1),
        "greedy first match"
    );
}

#[test]
fn out_of_order_prefix_is_skipped_not_fatal() {
    // A Released before any Connected does not abort the match — only
    // forbidden arcs refute.
    let mut t = TraceCollector::new();
    feed_at(&mut t, 500, TraceEvent::Call(CallPhase::Released));
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 2_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(two_step(), t.entries(), SimTime::from_secs(10));
    assert_eq!(report.verdict, Verdict::Confirmed);
}

#[test]
fn timed_step_expires_on_a_late_matching_event() {
    let sig = Signature::new("timed")
        .step("connected", Pattern::call(CallPhase::Connected))
        .timed_step("released", Pattern::call(CallPhase::Released), 5_000);
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    // Matching event, but 9 s after the anchor: past the 5 s deadline.
    feed_at(&mut t, 10_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(sig, t.entries(), SimTime::from_secs(20));
    assert_eq!(report.verdict, Verdict::Refuted);
    assert!(report.refutation.unwrap().contains("expired"));
    assert_eq!(report.span.len(), 1, "prefix before expiry is kept");
}

#[test]
fn timed_step_expires_at_finish_without_any_event() {
    let sig = Signature::new("timed")
        .step("connected", Pattern::call(CallPhase::Connected))
        .timed_step("released", Pattern::call(CallPhase::Released), 5_000);
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    let report = run_signature(sig, t.entries(), SimTime::from_secs(20));
    assert_eq!(report.verdict, Verdict::Refuted);
}

#[test]
fn timed_step_within_deadline_confirms() {
    let sig = Signature::new("timed")
        .step("connected", Pattern::call(CallPhase::Connected))
        .timed_step("released", Pattern::call(CallPhase::Released), 5_000);
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 4_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(sig, t.entries(), SimTime::from_secs(20));
    assert_eq!(report.verdict, Verdict::Confirmed);
}

#[test]
fn global_negation_arc_refutes_immediately() {
    let sig = two_step().forbid("failure", Pattern::call(CallPhase::Failed));
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 2_000, TraceEvent::Call(CallPhase::Failed));
    feed_at(&mut t, 3_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(sig, t.entries(), SimTime::from_secs(10));
    assert_eq!(report.verdict, Verdict::Refuted);
    assert!(report.refutation.unwrap().contains("failure"));
}

#[test]
fn per_step_negation_arc_is_scoped_to_its_step() {
    // Failed is forbidden only while awaiting Released; a Failed *before*
    // Connected is harmless.
    let sig = Signature::new("scoped")
        .step("connected", Pattern::call(CallPhase::Connected))
        .step("released", Pattern::call(CallPhase::Released))
        .forbid_while(Pattern::call(CallPhase::Failed));
    let mut t = TraceCollector::new();
    feed_at(&mut t, 500, TraceEvent::Call(CallPhase::Failed));
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 2_000, TraceEvent::Call(CallPhase::Released));
    let report = run_signature(sig.clone(), t.entries(), SimTime::from_secs(10));
    assert_eq!(report.verdict, Verdict::Confirmed);

    let mut t2 = TraceCollector::new();
    feed_at(&mut t2, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t2, 1_500, TraceEvent::Call(CallPhase::Failed));
    let report2 = run_signature(sig, t2.entries(), SimTime::from_secs(10));
    assert_eq!(report2.verdict, Verdict::Refuted);
}

#[test]
fn verdicts_are_sticky_once_definite() {
    let mut m = Monitor::new(two_step());
    let mut t = TraceCollector::new();
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 2_000, TraceEvent::Call(CallPhase::Released));
    feed_at(&mut t, 3_000, TraceEvent::Call(CallPhase::Failed));
    for e in t.entries() {
        m.feed(e);
    }
    assert_eq!(m.verdict(), Verdict::Confirmed, "later events cannot undo");
    assert_eq!(m.finish(SimTime::from_secs(99)), Verdict::Confirmed);
}

#[test]
fn bank_runs_monitors_online_and_joins_trials() {
    let confirming = two_step();
    let refuting = two_step().forbid("any-dial", Pattern::call(CallPhase::Dialed));
    let mut bank = Bank::new([confirming, refuting]);
    let mut t = TraceCollector::new();
    feed_at(&mut t, 500, TraceEvent::Call(CallPhase::Dialed));
    feed_at(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    feed_at(&mut t, 2_000, TraceEvent::Call(CallPhase::Released));
    for e in t.entries() {
        bank.feed(e);
    }
    bank.finish(SimTime::from_secs(10));
    assert!(bank.all_definite());
    let reports = bank.reports();
    assert_eq!(reports[0].verdict, Verdict::Confirmed);
    assert_eq!(reports[1].verdict, Verdict::Refuted);
    // One confirmed trial dominates the join.
    assert_eq!(bank.joined_verdict(), Verdict::Confirmed);
}

#[test]
fn empty_signature_is_trivially_confirmed() {
    let report = run_signature(Signature::new("empty"), &[], SimTime::from_secs(1));
    assert_eq!(report.verdict, Verdict::Confirmed);
    assert_eq!(report.steps_total, 0);
}
