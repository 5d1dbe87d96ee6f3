//! The allocation-free monitors against the string-building monitor they
//! replaced.
//!
//! [`RefMonitor`] below is the previous `Monitor`, kept verbatim as the
//! reference: it owns its signature, builds its evidence span and renders
//! its refutation text on every step. [`RefBank`] is the previous
//! `LaneBank` loop over it (a fresh, cloned monitor on every settle).
//! For random signatures and random non-decreasing streams covering every
//! [`TraceEvent`] variant, the live [`LaneBank`], [`Monitor`],
//! [`count_signature`] and [`collect_spans`] must agree with them exactly.
//!
//! The last property is the robustness bar for monitors fed by imperfect
//! device traces: shuffled, dropped and timestamp-corrupted streams (up to
//! `u64::MAX`) never panic a lane bank and never poison a lane.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

use cellstack::{
    EmmCause, MsgClass, NasMessage, PdpDeactivationCause, Protocol, RatSystem, UpdateKind,
};
use netsim::inject::{Leg, NodeId};
use netsim::rng::rng_from_seed;
use netsim::trace::{
    CallPhase, FaultEvent, FaultKind, HazardKind, TraceCollector, TraceEntry, TraceEvent, TraceType,
};
use netsim::{
    collect_spans, count_signature, FaultClass, LaneBank, LiveConfig, MatchedEvent, Monitor,
    MonitorReport, Pattern, Signature, SimTime, Verdict, VerdictEvent,
};

// ---------------------------------------------------------------------
// The reference: the string-building monitor, verbatim
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct RefMonitor {
    sig: Signature,
    next: usize,
    anchor: SimTime,
    span: Vec<MatchedEvent>,
    verdict: Verdict,
    refutation: Option<String>,
}

impl RefMonitor {
    fn new(sig: Signature) -> Self {
        let verdict = if sig.steps.is_empty() {
            // Degenerate: nothing to wait for.
            Verdict::Confirmed
        } else {
            Verdict::Inconclusive
        };
        Self {
            sig,
            next: 0,
            anchor: SimTime::from_millis(0),
            span: Vec::new(),
            verdict,
            refutation: None,
        }
    }

    fn new_anchored(sig: Signature, anchor: SimTime) -> Self {
        let mut m = Self::new(sig);
        m.anchor = anchor;
        m
    }

    fn verdict(&self) -> Verdict {
        self.verdict
    }

    fn deadline(&self) -> Option<SimTime> {
        self.sig.steps[self.next]
            .within_ms
            .map(|ms| self.anchor + ms)
    }

    fn refute(&mut self, why: String) -> Verdict {
        self.verdict = Verdict::Refuted;
        self.refutation = Some(why);
        Verdict::Refuted
    }

    fn feed(&mut self, entry: &TraceEntry) -> Verdict {
        if self.verdict.is_definite() {
            return self.verdict;
        }
        for (label, pat) in &self.sig.forbidden {
            if pat.matches(entry) {
                let why = format!(
                    "forbidden event at {}: {label} ({})",
                    entry.ts.hhmmss(),
                    entry.desc
                );
                return self.refute(why);
            }
        }
        let step = &self.sig.steps[self.next];
        for pat in &step.forbidden {
            if pat.matches(entry) {
                let why = format!(
                    "forbidden while awaiting `{}` at {}: {}",
                    step.label,
                    entry.ts.hhmmss(),
                    entry.desc
                );
                return self.refute(why);
            }
        }
        if let Some(deadline) = self.deadline() {
            if entry.ts > deadline {
                let why = format!(
                    "step `{}` expired at {} (deadline {})",
                    step.label,
                    entry.ts.hhmmss(),
                    deadline.hhmmss()
                );
                return self.refute(why);
            }
        }
        if step.pattern.matches(entry) {
            self.span.push(MatchedEvent {
                ts: entry.ts,
                step: step.label.clone(),
                desc: entry.desc.clone(),
                event: entry.event.clone(),
            });
            self.anchor = entry.ts;
            self.next += 1;
            if self.next == self.sig.steps.len() {
                self.verdict = Verdict::Confirmed;
            }
        }
        self.verdict
    }

    fn finish(&mut self, end: SimTime) -> Verdict {
        if self.verdict.is_definite() {
            return self.verdict;
        }
        if let Some(deadline) = self.deadline() {
            if end > deadline {
                let why = format!(
                    "step `{}` still unmatched when the trace ended at {} (deadline {})",
                    self.sig.steps[self.next].label,
                    end.hhmmss(),
                    deadline.hhmmss()
                );
                return self.refute(why);
            }
        }
        self.verdict
    }

    fn report(&self) -> MonitorReport {
        MonitorReport {
            signature: self.sig.name.clone(),
            verdict: self.verdict,
            span: self.span.clone(),
            steps_total: self.sig.steps.len(),
            refutation: self.refutation.clone(),
        }
    }
}

/// The previous per-lane bank: one owned monitor per signature, replaced
/// by a freshly cloned one on every settle.
struct RefBank {
    monitors: Vec<RefMonitor>,
    confirmed: Vec<u32>,
    refuted: Vec<u32>,
    spans: Vec<Vec<Vec<MatchedEvent>>>,
    events: Vec<VerdictEvent>,
    dropped: u64,
    cap: usize,
    keep_spans: bool,
}

impl RefBank {
    fn new(cfg: &LiveConfig) -> Self {
        let n = cfg.signatures.len();
        Self {
            monitors: cfg
                .signatures
                .iter()
                .map(|s| RefMonitor::new(s.clone()))
                .collect(),
            confirmed: vec![0; n],
            refuted: vec![0; n],
            spans: vec![Vec::new(); n],
            events: Vec::new(),
            dropped: 0,
            cap: cfg.verdict_cap,
            keep_spans: cfg.keep_spans,
        }
    }

    fn settle(&mut self, k: usize, ts: SimTime, verdict: Verdict, span: Vec<MatchedEvent>) {
        match verdict {
            Verdict::Confirmed => {
                self.confirmed[k] += 1;
                if self.keep_spans {
                    self.spans[k].push(span);
                }
            }
            Verdict::Refuted => self.refuted[k] += 1,
            Verdict::Inconclusive => return,
        }
        if self.events.len() < self.cap {
            self.events.push(VerdictEvent {
                ts,
                sig: k,
                verdict,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn feed(&mut self, sigs: &[Signature], entry: &TraceEntry) {
        for (k, sig) in sigs.iter().enumerate() {
            if sig.steps.is_empty() {
                continue;
            }
            let m = &mut self.monitors[k];
            if m.feed(entry).is_definite() {
                let verdict = m.verdict();
                let span = m.report().span;
                *m = RefMonitor::new_anchored(sig.clone(), entry.ts);
                self.settle(k, entry.ts, verdict, span);
            }
        }
    }

    fn finish(&mut self, sigs: &[Signature], end: SimTime) {
        for (k, sig) in sigs.iter().enumerate() {
            if sig.steps.is_empty() {
                continue;
            }
            let m = &mut self.monitors[k];
            let verdict = m.finish(end);
            if verdict.is_definite() {
                let span = m.report().span;
                self.settle(k, end, verdict, span);
            }
        }
    }
}

fn ref_count(sig: &Signature, entries: &[TraceEntry], end: SimTime) -> usize {
    if sig.steps.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut m = RefMonitor::new(sig.clone());
    for e in entries {
        if m.feed(e).is_definite() {
            if m.verdict() == Verdict::Confirmed {
                count += 1;
            }
            m = RefMonitor::new_anchored(sig.clone(), e.ts);
        }
    }
    if m.finish(end) == Verdict::Confirmed {
        count += 1;
    }
    count
}

fn ref_spans(sig: &Signature, entries: &[TraceEntry]) -> Vec<Vec<MatchedEvent>> {
    let mut spans = Vec::new();
    if sig.steps.is_empty() {
        return spans;
    }
    let mut m = RefMonitor::new(sig.clone());
    for e in entries {
        if m.feed(e).is_definite() {
            if m.verdict() == Verdict::Confirmed {
                spans.push(m.report().span);
            }
            m = RefMonitor::new_anchored(sig.clone(), e.ts);
        }
    }
    spans
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn pick<T: Clone>(rng: &mut StdRng, pool: &[T]) -> T {
    pool[rng.gen_range(0..pool.len())].clone()
}

fn rat(rng: &mut StdRng) -> RatSystem {
    pick(rng, &[RatSystem::Utran3g, RatSystem::Lte4g])
}

fn phase(rng: &mut StdRng) -> CallPhase {
    pick(
        rng,
        &[
            CallPhase::Dialed,
            CallPhase::Incoming,
            CallPhase::Connected,
            CallPhase::Released,
            CallPhase::Failed,
        ],
    )
}

fn hazard(rng: &mut StdRng) -> HazardKind {
    pick(
        rng,
        &[
            HazardKind::S1ContextLoss,
            HazardKind::S4HolBlocked,
            HazardKind::S6FailurePropagated,
            HazardKind::ImplicitDetach,
        ],
    )
}

fn nas_msg(rng: &mut StdRng) -> NasMessage {
    pick(
        rng,
        &[
            NasMessage::UpdateRequest(UpdateKind::LocationArea),
            NasMessage::UpdateAccept(UpdateKind::LocationArea),
            NasMessage::UpdateRequest(UpdateKind::TrackingArea),
            NasMessage::NetworkDetach(EmmCause::ImplicitlyDetached),
            NasMessage::AttachComplete,
            NasMessage::SessionDeactivate {
                cause: PdpDeactivationCause::LowLayerFailures,
                network_initiated: true,
            },
            NasMessage::CmServiceRequest,
        ],
    )
}

/// A small pattern pool, so random steps and random entries meet often.
fn pattern(rng: &mut StdRng) -> Pattern {
    match rng.gen_range(0..12u32) {
        0 => Pattern::Any,
        1 => Pattern::nas_up("Location Updating Request"),
        2 => Pattern::nas_down("Location Updating Accept").on(rat(rng)),
        3 => Pattern::Nas {
            uplink: None,
            wire: None,
            class: Some(pick(
                rng,
                &[MsgClass::Attach, MsgClass::Mobility, MsgClass::Session],
            )),
            system: None,
        },
        4 => Pattern::registration(rng.gen_bool(0.5)),
        5 => Pattern::camped_on(rat(rng)),
        6 | 7 => Pattern::call(phase(rng)),
        8 => Pattern::RadioConfig {
            allow_64qam: Some(rng.gen_bool(0.5)),
        },
        9 => {
            if rng.gen_bool(0.5) {
                Pattern::ul_in_call_below(1_000)
            } else {
                Pattern::ul_in_call_at_least(1_500)
            }
        }
        10 => Pattern::fault(
            pick(
                rng,
                &[
                    FaultClass::Drop,
                    FaultClass::Corrupt,
                    FaultClass::Reorder,
                    FaultClass::NodeRestart,
                ],
            ),
            pick(rng, &[None, Some(true), Some(false)]),
        ),
        _ => Pattern::hazard(hazard(rng)),
    }
}

/// A random signature: 0–4 steps (stepless ones included), some timed,
/// some with forbid-while arcs, and 0–2 global forbids.
fn signature(rng: &mut StdRng, name: usize, timed_bias: f64) -> Signature {
    let mut sig = Signature::new(format!("sig{name}"));
    for s in 0..rng.gen_range(0..5usize) {
        let label = format!("step{s}");
        sig = if rng.gen_bool(timed_bias) {
            sig.timed_step(label, pattern(rng), rng.gen_range(0..8_000u64))
        } else {
            sig.step(label, pattern(rng))
        };
        if rng.gen_bool(0.25) {
            sig = sig.forbid_while(pattern(rng));
        }
    }
    for f in 0..rng.gen_range(0..3usize) {
        if rng.gen_bool(0.5) {
            sig = sig.forbid(format!("forbid{f}"), pattern(rng));
        }
    }
    sig
}

fn event(rng: &mut StdRng) -> TraceEvent {
    match rng.gen_range(0..10u32) {
        0 => TraceEvent::Note,
        1 => TraceEvent::Nas {
            uplink: rng.gen_bool(0.5),
            msg: nas_msg(rng),
        },
        2 => TraceEvent::Registration {
            registered: rng.gen_bool(0.5),
            system: rat(rng),
        },
        3 => TraceEvent::CampedOn(rat(rng)),
        4 | 5 => TraceEvent::Call(phase(rng)),
        6 => TraceEvent::RadioConfig {
            allow_64qam: rng.gen_bool(0.5),
        },
        7 => TraceEvent::Throughput {
            uplink: rng.gen_bool(0.5),
            with_call: rng.gen_bool(0.5),
            kbps: rng.gen_range(0..3_000u64),
        },
        8 => TraceEvent::Fault(match rng.gen_range(0..4u32) {
            0 => FaultEvent::on_leg(FaultKind::Drop, Leg::Ul4g, nas_msg(rng)),
            1 => FaultEvent::on_leg(FaultKind::Corrupt, Leg::Dl3gCs, nas_msg(rng)),
            2 => FaultEvent::on_leg(
                FaultKind::Reorder {
                    hold_ms: rng.gen_range(0..500u64),
                },
                Leg::Ul3gPs,
                nas_msg(rng),
            ),
            _ => FaultEvent::node_restart(NodeId::Mme),
        }),
        _ => TraceEvent::Hazard(hazard(rng)),
    }
}

/// A random non-decreasing stream (ties included) and its closing time.
fn stream(rng: &mut StdRng) -> (Vec<TraceEntry>, SimTime) {
    let mut t = TraceCollector::new();
    let mut ts = 0u64;
    for i in 0..rng.gen_range(0..80usize) {
        if rng.gen_bool(0.7) {
            ts += rng.gen_range(0..4_000u64);
        }
        t.record_event(
            SimTime::from_millis(ts),
            TraceType::State,
            rat(rng),
            Protocol::Mm,
            format!("entry {i}"),
            event(rng),
        );
    }
    let end = SimTime::from_millis(ts + rng.gen_range(0..10_000u64));
    (t.entries().to_vec(), end)
}

fn config(rng: &mut StdRng, timed_bias: f64) -> LiveConfig {
    let sigs = (0..rng.gen_range(1..5usize))
        .map(|k| signature(rng, k, timed_bias))
        .collect();
    let mut cfg = LiveConfig::new(sigs);
    cfg.verdict_cap = rng.gen_range(0..6usize);
    cfg.keep_spans = rng.gen_bool(0.5);
    cfg
}

/// Feed `entries` through `bank` in random chunks, as the step loop hands
/// over one event's worth of tapped entries at a time.
fn feed_chunked(rng: &mut StdRng, bank: &mut LaneBank, cfg: &LiveConfig, entries: &[TraceEntry]) {
    let mut rest = entries;
    while !rest.is_empty() {
        let n = rng.gen_range(1..=rest.len().min(4));
        let mut chunk = rest[..n].to_vec();
        assert!(!bank.feed_all(cfg, &mut chunk), "feeding poisoned the lane");
        assert!(chunk.is_empty(), "feed_all drains its buffer");
        rest = &rest[n..];
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The lane bank's tallies, verdict sample, drop count and kept spans
    /// equal the reference restart loop's.
    #[test]
    fn lane_bank_matches_the_reference_loop(seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        let cfg = config(&mut rng, 0.3);
        let (entries, end) = stream(&mut rng);

        let mut bank = LaneBank::new(&cfg, 0);
        feed_chunked(&mut rng, &mut bank, &cfg, &entries);
        bank.finish(&cfg, end);
        let got = bank.into_counts();

        let mut want = RefBank::new(&cfg);
        for e in &entries {
            want.feed(&cfg.signatures, e);
        }
        want.finish(&cfg.signatures, end);

        prop_assert_eq!(&got.confirmed, &want.confirmed);
        prop_assert_eq!(&got.refuted, &want.refuted);
        prop_assert_eq!(&got.stream.events, &want.events);
        prop_assert_eq!(got.stream.dropped, want.dropped);
        prop_assert_eq!(&got.spans, &want.spans);
        prop_assert!(!got.poisoned);
    }

    /// `Monitor` reports the reference's verdict after every entry and
    /// its exact report (span, refutation text) at the end — across
    /// restarts, which must equal a freshly anchored reference.
    #[test]
    fn monitor_reports_match_the_reference(seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        let sig = signature(&mut rng, 0, 0.4);
        let (entries, end) = stream(&mut rng);

        let mut got = Monitor::new(sig.clone());
        let mut want = RefMonitor::new(sig.clone());
        for e in &entries {
            prop_assert_eq!(got.feed(e), want.feed(e));
            if got.verdict().is_definite() && rng.gen_bool(0.5) {
                prop_assert_eq!(got.report(), want.report());
                got.restart(e.ts);
                want = RefMonitor::new_anchored(sig.clone(), e.ts);
            }
        }
        prop_assert_eq!(got.finish(end), want.finish(end));
        prop_assert_eq!(got.report(), want.report());
    }

    /// The post-hoc scanners equal their reference loops.
    #[test]
    fn posthoc_scanners_match_the_reference(seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        let sig = signature(&mut rng, 0, 0.3);
        let (entries, end) = stream(&mut rng);
        prop_assert_eq!(count_signature(&sig, &entries, end), ref_count(&sig, &entries, end));
        prop_assert_eq!(collect_spans(&sig, &entries), ref_spans(&sig, &entries));
    }

    /// Reordered, dropped and timestamp-corrupted streams — timestamps up
    /// to `u64::MAX`, so timed deadlines sit at the end of time — never
    /// panic a bank or poison its lane, and the live tallies still equal
    /// the post-hoc scanner over the same damaged stream.
    #[test]
    fn damaged_streams_never_poison_a_lane(seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        let cfg = config(&mut rng, 0.7);
        let (mut entries, _) = stream(&mut rng);
        entries.retain(|_| rng.gen_bool(0.8));
        for i in (1..entries.len()).rev() {
            if rng.gen_bool(0.3) {
                entries.swap(i, rng.gen_range(0..=i));
            }
        }
        for e in &mut entries {
            match rng.gen_range(0..8u32) {
                0 => e.ts = SimTime(u64::MAX),
                1 => e.ts = SimTime(u64::MAX - rng.gen_range(0..8_000u64)),
                2 => e.ts = SimTime(rng.gen::<u64>()),
                _ => {}
            }
        }
        let end = pick(&mut rng, &[SimTime::ZERO, SimTime(u64::MAX), SimTime(1 << 40)]);

        let mut bank = LaneBank::new(&cfg, 0);
        feed_chunked(&mut rng, &mut bank, &cfg, &entries);
        bank.finish(&cfg, end);
        prop_assert!(!bank.poisoned());
        let counts = bank.into_counts();
        for (k, sig) in cfg.signatures.iter().enumerate() {
            prop_assert_eq!(
                counts.confirmed[k] as usize,
                count_signature(sig, &entries, end)
            );
        }
    }
}
