//! Byte-exact pins on [`MonitorReport`]s: verdict, matched span (step
//! labels, timestamps, descriptions) and refutation text.
//!
//! The four refutation shapes — a signature-global forbid, a forbid-while
//! arc, a timed step expiring on a late event, and a timed step still
//! unmatched when the trace ends — each get their exact report, and the
//! hand-declared S1–S6 signatures plus the study's `s5_overlap` and
//! `s6_detach` are pinned over one synthetic stream. Any rewrite of the
//! monitor's stepping or evidence rendering must reproduce these bytes.

use cellstack::{EmmCause, NasMessage, PdpDeactivationCause, Protocol, RatSystem, UpdateKind};
use monitor::{compile, run_signature, MonitorReport, Pattern, Signature};
use netsim::inject::Leg;
use netsim::trace::{
    CallPhase, FaultEvent, FaultKind, HazardKind, TraceCollector, TraceEvent, TraceType,
};
use netsim::SimTime;
use userstudy::detect::{s5_overlap, s6_detach};

fn at(t: &mut TraceCollector, ms: u64, system: RatSystem, event: TraceEvent) {
    t.record_event(
        SimTime::from_millis(ms),
        TraceType::State,
        system,
        Protocol::Mm,
        format!("event at {ms} ms"),
        event,
    );
}

fn on_3g(t: &mut TraceCollector, ms: u64, event: TraceEvent) {
    at(t, ms, RatSystem::Utran3g, event);
}

/// The whole report as text: header, one line per matched step, then the
/// refutation reason if any.
fn render(r: &MonitorReport) -> String {
    let mut out = format!(
        "{} {} {}/{}\n",
        r.signature,
        r.verdict,
        r.span.len(),
        r.steps_total
    );
    for line in r.span_lines() {
        out.push_str(&format!("  {line}\n"));
    }
    for m in &r.span {
        out.push_str(&format!("  event {:?}\n", m.event));
    }
    if let Some(why) = &r.refutation {
        out.push_str(&format!("  refuted: {why}\n"));
    }
    out
}

/// Expected report text, one line per element.
fn lines(ls: &[&str]) -> String {
    ls.iter().map(|l| format!("{l}\n")).collect()
}

fn two_step() -> Signature {
    Signature::new("two-step")
        .step("connected", Pattern::call(CallPhase::Connected))
        .step("released", Pattern::call(CallPhase::Released))
}

#[test]
fn global_forbid_report() {
    let sig = two_step().forbid("failure", Pattern::call(CallPhase::Failed));
    let mut t = TraceCollector::new();
    on_3g(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    on_3g(&mut t, 2_000, TraceEvent::Call(CallPhase::Failed));
    on_3g(&mut t, 3_000, TraceEvent::Call(CallPhase::Released));
    let r = run_signature(sig, t.entries(), SimTime::from_secs(10));
    assert_eq!(
        render(&r),
        lines(&[
            "two-step Refuted 1/2",
            "  00:00:01.000 connected              event at 1000 ms",
            "  event Call(Connected)",
            "  refuted: forbidden event at 00:00:02.000: failure (event at 2000 ms)",
        ])
    );
}

#[test]
fn forbid_while_report() {
    let sig = two_step().forbid_while(Pattern::call(CallPhase::Failed));
    let mut t = TraceCollector::new();
    on_3g(&mut t, 500, TraceEvent::Call(CallPhase::Failed));
    on_3g(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    on_3g(&mut t, 61_500, TraceEvent::Call(CallPhase::Failed));
    let r = run_signature(sig, t.entries(), SimTime::from_secs(100));
    assert_eq!(
        render(&r),
        lines(&[
            "two-step Refuted 1/2",
            "  00:00:01.000 connected              event at 1000 ms",
            "  event Call(Connected)",
            "  refuted: forbidden while awaiting `released` at 00:01:01.500: event at 61500 ms",
        ])
    );
}

#[test]
fn timed_step_expiry_report() {
    let sig = Signature::new("timed")
        .step("connected", Pattern::call(CallPhase::Connected))
        .timed_step("released", Pattern::call(CallPhase::Released), 5_000);
    let mut t = TraceCollector::new();
    on_3g(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    on_3g(&mut t, 3_723_004, TraceEvent::Call(CallPhase::Released));
    let r = run_signature(sig, t.entries(), SimTime::from_secs(7_200));
    assert_eq!(
        render(&r),
        lines(&[
            "timed Refuted 1/2",
            "  00:00:01.000 connected              event at 1000 ms",
            "  event Call(Connected)",
            "  refuted: step `released` expired at 01:02:03.004 (deadline 00:00:06.000)",
        ])
    );
}

#[test]
fn unmatched_at_trace_end_report() {
    let sig = Signature::new("timed")
        .step("connected", Pattern::call(CallPhase::Connected))
        .timed_step("released", Pattern::call(CallPhase::Released), 5_000);
    let mut t = TraceCollector::new();
    on_3g(&mut t, 1_000, TraceEvent::Call(CallPhase::Connected));
    let r = run_signature(sig, t.entries(), SimTime::from_secs(20));
    assert_eq!(
        render(&r),
        lines(&[
            "timed Refuted 1/2",
            "  00:00:01.000 connected              event at 1000 ms",
            "  event Call(Connected)",
            "  refuted: step `released` still unmatched when the trace ended at 00:00:20.000 (deadline 00:00:06.000)",
        ])
    );

    // A timed first step on an empty trace is measured from time zero.
    let first = Signature::new("timed-first").timed_step(
        "connected",
        Pattern::call(CallPhase::Connected),
        1_000,
    );
    let r = run_signature(first, &[], SimTime::from_millis(1_001));
    assert_eq!(
        render(&r),
        lines(&[
            "timed-first Refuted 0/1",
            "  refuted: step `connected` still unmatched when the trace ended at 00:00:01.001 (deadline 00:00:01.000)",
        ])
    );
}

/// One stream that walks every hand signature's chain, in the order the
/// paper's instances unfold on a CSFB-capable device.
fn study_stream() -> TraceCollector {
    let mut t = TraceCollector::new();
    on_3g(&mut t, 1_000, TraceEvent::CampedOn(RatSystem::Utran3g));
    on_3g(&mut t, 2_000, TraceEvent::Call(CallPhase::Dialed));
    on_3g(&mut t, 2_500, TraceEvent::Hazard(HazardKind::S4HolBlocked));
    on_3g(
        &mut t,
        3_000,
        TraceEvent::Nas {
            uplink: false,
            msg: NasMessage::UpdateAccept(UpdateKind::LocationArea),
        },
    );
    on_3g(
        &mut t,
        4_000,
        TraceEvent::RadioConfig { allow_64qam: false },
    );
    on_3g(&mut t, 5_000, TraceEvent::Call(CallPhase::Connected));
    on_3g(
        &mut t,
        6_000,
        TraceEvent::Throughput {
            uplink: true,
            with_call: true,
            kbps: 500,
        },
    );
    on_3g(&mut t, 9_000, TraceEvent::Call(CallPhase::Released));
    on_3g(
        &mut t,
        9_100,
        TraceEvent::Nas {
            uplink: true,
            msg: NasMessage::UpdateRequest(UpdateKind::LocationArea),
        },
    );
    on_3g(
        &mut t,
        10_000,
        TraceEvent::Nas {
            uplink: false,
            msg: NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::LowLayerFailures,
                network_initiated: true,
            },
        },
    );
    at(
        &mut t,
        12_000,
        RatSystem::Lte4g,
        TraceEvent::CampedOn(RatSystem::Lte4g),
    );
    at(
        &mut t,
        13_000,
        RatSystem::Lte4g,
        TraceEvent::Hazard(HazardKind::S1ContextLoss),
    );
    at(
        &mut t,
        14_000,
        RatSystem::Lte4g,
        TraceEvent::Fault(FaultEvent::on_leg(
            FaultKind::Drop,
            Leg::Ul4g,
            NasMessage::AttachComplete,
        )),
    );
    at(
        &mut t,
        15_000,
        RatSystem::Lte4g,
        TraceEvent::Nas {
            uplink: true,
            msg: NasMessage::UpdateRequest(UpdateKind::TrackingArea),
        },
    );
    at(
        &mut t,
        16_000,
        RatSystem::Lte4g,
        TraceEvent::Hazard(HazardKind::ImplicitDetach),
    );
    at(
        &mut t,
        16_500,
        RatSystem::Lte4g,
        TraceEvent::Nas {
            uplink: false,
            msg: NasMessage::NetworkDetach(EmmCause::ImplicitlyDetached),
        },
    );
    at(
        &mut t,
        17_000,
        RatSystem::Lte4g,
        TraceEvent::Registration {
            registered: false,
            system: RatSystem::Lte4g,
        },
    );
    at(
        &mut t,
        20_000,
        RatSystem::Lte4g,
        TraceEvent::Registration {
            registered: true,
            system: RatSystem::Lte4g,
        },
    );
    t
}

#[test]
fn hand_and_study_signature_reports() {
    let t = study_stream();
    let end = SimTime::from_secs(1_000);
    let sigs = [
        compile::s1(),
        compile::s2(),
        compile::s3(),
        compile::s4(),
        compile::s5(),
        compile::s6(),
        s5_overlap(),
        s6_detach(),
    ];
    let got: String = sigs
        .into_iter()
        .map(|sig| render(&run_signature(sig, t.entries(), end)))
        .collect();
    assert_eq!(
        got,
        lines(&[
            "S1-hand Confirmed 4/4",
            "  00:00:10.000 pdp-deactivated        event at 10000 ms",
            "  00:00:12.000 returned-to-4g         event at 12000 ms",
            "  00:00:13.000 s1-context-loss        event at 13000 ms",
            "  00:00:20.000 recovered              event at 20000 ms",
            "  event Nas { uplink: false, msg: SessionDeactivate { cause: LowLayerFailures, network_initiated: true } }",
            "  event CampedOn(Lte4g)",
            "  event Hazard(S1ContextLoss)",
            "  event Registration { registered: true, system: Lte4g }",
            "S2-hand Confirmed 5/5",
            "  00:00:14.000 uplink-loss            event at 14000 ms",
            "  00:00:15.000 tau-attempt            event at 15000 ms",
            "  00:00:16.000 implicit-detach        event at 16000 ms",
            "  00:00:17.000 deregistered           event at 17000 ms",
            "  00:00:20.000 re-registered          event at 20000 ms",
            "  event Fault(FaultEvent { kind: Drop, leg: Some(Ul4g), msg: Some(AttachComplete), node: None })",
            "  event Nas { uplink: true, msg: UpdateRequest(TrackingArea) }",
            "  event Hazard(ImplicitDetach)",
            "  event Registration { registered: false, system: Lte4g }",
            "  event Registration { registered: true, system: Lte4g }",
            "S3-hand Confirmed 4/4",
            "  00:00:01.000 csfb-fallback          event at 1000 ms",
            "  00:00:05.000 call-connected         event at 5000 ms",
            "  00:00:09.000 call-released          event at 9000 ms",
            "  00:00:12.000 returned-to-4g         event at 12000 ms",
            "  event CampedOn(Utran3g)",
            "  event Call(Connected)",
            "  event Call(Released)",
            "  event CampedOn(Lte4g)",
            "S4-hand Confirmed 4/4",
            "  00:00:02.000 dialed                 event at 2000 ms",
            "  00:00:02.500 hol-blocked            event at 2500 ms",
            "  00:00:03.000 lau-completes          event at 3000 ms",
            "  00:00:05.000 call-connected         event at 5000 ms",
            "  event Call(Dialed)",
            "  event Hazard(S4HolBlocked)",
            "  event Nas { uplink: false, msg: UpdateAccept(LocationArea) }",
            "  event Call(Connected)",
            "S5-hand Confirmed 2/2",
            "  00:00:04.000 64qam-disabled         event at 4000 ms",
            "  00:00:06.000 ul-collapse            event at 6000 ms",
            "  event RadioConfig { allow_64qam: false }",
            "  event Throughput { uplink: true, with_call: true, kbps: 500 }",
            "S6-hand Refuted 0/5",
            "  refuted: forbidden event at 00:00:03.000: completed location update (event at 3000 ms)",
            "S5-study Confirmed 2/2",
            "  00:00:04.000 voice-takes-channel    event at 4000 ms",
            "  00:00:06.000 data-during-call       event at 6000 ms",
            "  event RadioConfig { allow_64qam: false }",
            "  event Throughput { uplink: true, with_call: true, kbps: 500 }",
            "S6-study Refuted 2/5",
            "  00:00:09.000 call-released          event at 9000 ms",
            "  00:00:09.100 post-call-update       event at 9100 ms",
            "  event Call(Released)",
            "  event Nas { uplink: true, msg: UpdateRequest(LocationArea) }",
            "  refuted: step `failure-propagated` still unmatched when the trace ended at 00:16:40.000 (deadline 00:10:09.100)",
        ])
    );
}
