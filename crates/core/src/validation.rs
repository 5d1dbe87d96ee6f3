//! Phase 2 — experimental validation (paper §3.3), over the simulated
//! carriers, driven by runtime-verification monitors.
//!
//! "For each counterexample, we set up the corresponding experimental
//! scenario and conduct measurements over operational networks for
//! validation." Here the operational networks are `netsim` worlds with the
//! OP-I / OP-II profiles. Each validator configures the scenario that the
//! screening counterexample describes, runs it, and then evaluates the
//! instance's signature automaton ([`monitor::hand_signature`]) over the
//! world's typed trace. The verdict is three-valued
//! ([`monitor::Verdict`]): *Confirmed* with a matched event span as
//! machine-readable evidence, *Refuted* when a negation arc fired (the
//! carrier demonstrably avoids the instance), or *Inconclusive*.
//!
//! [`diagnose`] combines both phases: an instance confirmed on **both**
//! carriers and predicted by a screening counterexample is a *design
//! defect*; an instance with carrier-divergent verdicts is an
//! *operational slip* — exactly how §4 separates S1–S4 from S5/S6 ("S5
//! and S6 are found during the S3's validation experiments").

use cellstack::{PdpDeactivationCause, RatSystem, UpdateKind};
use monitor::{
    compile_witness, hand_signature, run_signature, MatchedEvent, MonitorReport, Verdict,
};
use netsim::{op_i, op_ii, Ev, Injection, OperatorProfile, SimTime, World, WorldConfig};
use serde::{Deserialize, Serialize};

use crate::findings::Instance;
use crate::screening::{run_screening_deterministic, ScreeningReport};

/// The outcome of validating one instance on one carrier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ValidationOutcome {
    /// Which instance was validated.
    pub instance: Instance,
    /// Which carrier profile.
    pub operator: String,
    /// The monitor's verdict over the scenario trace.
    pub verdict: Verdict,
    /// Whether the instance was observed (`verdict == Confirmed`).
    pub observed: bool,
    /// Human-readable evidence (numbers backing the verdict).
    pub evidence: String,
    /// The matched event span: one typed, timestamped trace event per
    /// completed signature step (the prefix matched before refutation,
    /// when refuted).
    pub span: Vec<MatchedEvent>,
    /// Why the signature was refuted, when it was.
    pub refutation: Option<String>,
}

impl ValidationOutcome {
    fn from_report(
        instance: Instance,
        operator: &str,
        report: MonitorReport,
        evidence: String,
    ) -> Self {
        ValidationOutcome {
            instance,
            operator: operator.to_string(),
            verdict: report.verdict,
            observed: report.verdict == Verdict::Confirmed,
            evidence,
            span: report.span,
            refutation: report.refutation,
        }
    }

    /// Render the span as `hh:mm:ss step — desc` lines.
    pub fn span_lines(&self) -> Vec<String> {
        self.span
            .iter()
            .map(|m| format!("{} {:<22} {}", m.ts.hhmmss(), m.step, m.desc))
            .collect()
    }
}

/// Timestamp of the span entry that satisfied `step`, if it matched.
fn step_ts(report: &MonitorReport, step: &str) -> Option<SimTime> {
    report.span.iter().find(|m| m.step == step).map(|m| m.ts)
}

/// Seconds between two matched steps of a report.
fn gap_s(report: &MonitorReport, from: &str, to: &str) -> Option<f64> {
    let a = step_ts(report, from)?;
    let b = step_ts(report, to)?;
    Some(b.since(a) as f64 / 1_000.0)
}

/// Evidence text for a non-confirmed report.
fn describe_non_confirmed(report: &MonitorReport) -> String {
    match &report.refutation {
        Some(r) => format!("refuted: {r}"),
        None => format!(
            "inconclusive: {}/{} steps matched before the trace ended",
            report.span.len(),
            report.steps_total
        ),
    }
}

/// Validate every instance on both carriers with a base seed. Outcomes are
/// ordered carrier-major: OP-I S1..S6, then OP-II S1..S6.
pub fn validate_all(seed: u64) -> Vec<ValidationOutcome> {
    let mut out = Vec::new();
    for op in [op_i(), op_ii()] {
        for inst in Instance::ALL {
            out.push(validate_instance(inst, op, seed));
        }
    }
    out
}

/// Validate one instance on one carrier.
pub fn validate_instance(instance: Instance, op: OperatorProfile, seed: u64) -> ValidationOutcome {
    match instance {
        Instance::S1 => validate_s1(op, seed),
        Instance::S2 => validate_s2(op, seed),
        Instance::S3 => validate_s3(op, seed),
        Instance::S4 => validate_s4(op, seed),
        Instance::S5 => validate_s5(op, seed),
        Instance::S6 => validate_s6(op, seed),
        // The 5G candidates have no hand signature or netsim scenario yet;
        // their design-defect vs operational-slip call comes from the
        // timing-lattice sweep (`--exp fivegs`), not carrier validation.
        Instance::S7 | Instance::S8 | Instance::S9 | Instance::S10 => ValidationOutcome {
            instance,
            operator: op.name.to_string(),
            verdict: Verdict::Inconclusive,
            observed: false,
            evidence: "diagnosed via the timing-lattice sweep (--exp fivegs)".to_string(),
            span: Vec::new(),
            refutation: None,
        },
    }
}

fn attach(world: &mut World) {
    world.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
    world.run_until(world.now.plus_secs(10));
}

/// The signature for `instance`, from the hand-declared catalog.
fn signature_for(instance: Instance) -> monitor::Signature {
    hand_signature(&instance.to_string()).expect("hand signature exists for S1..S6")
}

/// Build and run the experimental scenario world for one instance. The
/// world is returned with its trace complete, ready for monitor replay
/// (both the hand signature and any witness-compiled one).
fn instance_world(instance: Instance, op: OperatorProfile, seed: u64) -> World {
    match instance {
        // S1: CSFB call, PDP deactivated while in 3G, detach on return.
        Instance::S1 => {
            let mut w = World::new(WorldConfig::new(op, seed ^ 0x51));
            attach(&mut w);
            w.cfg.auto_hangup_after_ms = Some(15_000);
            w.schedule_in(1_000, Ev::Dial);
            w.schedule_in(
                10_000,
                Ev::NetworkDeactivatePdp(PdpDeactivationCause::OperatorDeterminedBarring),
            );
            w.run_until(SimTime::from_secs(300));
            w
        }
        // S2: attach + TAU cycles under injected signal loss (§9.1 setup:
        // over the air the loss is real but rare, so — like the paper,
        // which "does not observe the implicit detach" on live networks —
        // S2 needs injection to manifest).
        Instance::S2 => {
            let mut cfg = WorldConfig::new(op, seed ^ 0x52);
            cfg.inject_ul_4g = Injection::dropping(0.4);
            let mut w = World::new(cfg);
            for i in 0..30u64 {
                let base = i * 40_000;
                w.schedule_at(SimTime::from_millis(base), Ev::PowerOn(RatSystem::Lte4g));
                w.schedule_at(
                    SimTime::from_millis(base + 20_000),
                    Ev::TriggerUpdate(UpdateKind::TrackingArea),
                );
                w.schedule_at(SimTime::from_millis(base + 35_000), Ev::Detach);
            }
            w.run_until(SimTime::from_secs(1_300));
            w
        }
        // S3: 60-min high-rate session + CSFB call; the span between the
        // release and the 4G return is the §5.3.2 stuck time.
        Instance::S3 => {
            let mut w = World::new(WorldConfig::new(op, seed ^ 0x53));
            attach(&mut w);
            w.cfg.auto_hangup_after_ms = Some(20_000);
            w.schedule_in(500, Ev::DataStart { high_rate: true });
            w.schedule_in(2_000, Ev::Dial);
            // 60-minute data session, as in the validation experiment.
            w.schedule_in(3_600_000, Ev::DataSessionEnd);
            w.run_until(SimTime::from_secs(4_000));
            w
        }
        // S4: dial during a location-area update (§6.1.2).
        Instance::S4 => {
            let mut w = World::new(WorldConfig::new(op, seed ^ 0x54));
            // Camp on 3G, registered, no CSFB involvement.
            w.stack.serving = RatSystem::Utran3g;
            w.stack.gmm.state = cellstack::gmm::GmmDeviceState::Registered;
            w.cfg.auto_hangup_after_ms = Some(5_000);
            w.schedule_in(0, Ev::TriggerUpdate(UpdateKind::LocationArea));
            w.schedule_in(100, Ev::Dial);
            w.run_until(SimTime::from_secs(120));
            w
        }
        // S5: speedtest during a concurrent CS call (§6.2 / Figure 9).
        Instance::S5 => {
            let mut w = World::new(WorldConfig::new(op, seed ^ 0x55));
            attach(&mut w);
            w.cfg.auto_hangup_after_ms = Some(60_000);
            w.schedule_in(500, Ev::DataStart { high_rate: true });
            w.schedule_in(1_000, Ev::Dial);
            for i in 0..10 {
                w.schedule_in(25_000 + i * 2_500, Ev::SpeedtestSample { uplink: false });
                w.schedule_in(25_100 + i * 2_500, Ev::SpeedtestSample { uplink: true });
            }
            w.schedule_in(400_000, Ev::DataSessionEnd);
            for i in 0..10 {
                w.schedule_in(500_000 + i * 2_500, Ev::SpeedtestSample { uplink: false });
                w.schedule_in(500_100 + i * 2_500, Ev::SpeedtestSample { uplink: true });
            }
            w.run_until(SimTime::from_secs(600));
            w
        }
        // S6: one CSFB call; whether the deferred post-call update is
        // disrupted is the carrier's own return-timing race, NOT forced.
        Instance::S6 => {
            let mut w = World::new(WorldConfig::new(op, seed ^ 0x56));
            attach(&mut w);
            w.cfg.auto_hangup_after_ms = Some(15_000);
            w.schedule_in(1_000, Ev::Dial);
            w.run_until(SimTime::from_secs(300));
            w
        }
        // Guarded by the stub arm in `validate_instance`: the 5G
        // candidates never reach the netsim scenario builder.
        Instance::S7 | Instance::S8 | Instance::S9 | Instance::S10 => unreachable!(
            "5G candidates are diagnosed by the timing-lattice sweep, not a netsim scenario"
        ),
    }
}

/// Run the instance's hand signature over its scenario world.
fn monitor_instance(instance: Instance, op: OperatorProfile, seed: u64) -> MonitorReport {
    let w = instance_world(instance, op, seed);
    run_signature(signature_for(instance), w.trace.entries(), w.now)
}

/// S1: CSFB call, PDP deactivated while in 3G, detach on return.
pub fn validate_s1(op: OperatorProfile, seed: u64) -> ValidationOutcome {
    let report = monitor_instance(Instance::S1, op, seed);
    let evidence = if report.verdict == Verdict::Confirmed {
        let recovery = gap_s(&report, "s1-context-loss", "recovered").unwrap_or(0.0);
        format!("context lost on the 3G->4G return; service recovered after {recovery:.1}s")
    } else {
        describe_non_confirmed(&report)
    };
    ValidationOutcome::from_report(Instance::S1, op.name, report, evidence)
}

/// S2: attach + TAU cycles under injected signal loss.
pub fn validate_s2(op: OperatorProfile, seed: u64) -> ValidationOutcome {
    let report = monitor_instance(Instance::S2, op, seed);
    let evidence = if report.verdict == Verdict::Confirmed {
        let outage = gap_s(&report, "deregistered", "re-registered").unwrap_or(0.0);
        format!("implicit detach reached an in-service device at 40% uplink drop; out of service {outage:.1}s")
    } else {
        describe_non_confirmed(&report)
    };
    ValidationOutcome::from_report(Instance::S2, op.name, report, evidence)
}

/// S3: 60-min high-rate session + CSFB call; measure time in 3G after the
/// call ends (the §5.3.2 experiment). The signature confirms on both
/// carriers; the *severity* divergence (Table 6) is in the span: the gap
/// between `call-released` and `returned-to-4g`.
pub fn validate_s3(op: OperatorProfile, seed: u64) -> ValidationOutcome {
    let report = monitor_instance(Instance::S3, op, seed);
    let evidence = if report.verdict == Verdict::Confirmed {
        let stuck = gap_s(&report, "call-released", "returned-to-4g").unwrap_or(0.0);
        format!("in 3G for {stuck:.1}s after the call ended")
    } else {
        describe_non_confirmed(&report)
    };
    ValidationOutcome::from_report(Instance::S3, op.name, report, evidence)
}

/// S4: dial during a location-area update; the call setup absorbs the
/// update duration plus the WAIT-FOR-NETWORK-COMMAND hold (§6.1.2).
pub fn validate_s4(op: OperatorProfile, seed: u64) -> ValidationOutcome {
    let report = monitor_instance(Instance::S4, op, seed);
    let evidence = if report.verdict == Verdict::Confirmed {
        let delay = gap_s(&report, "dialed", "call-connected").unwrap_or(0.0);
        format!("call connected {delay:.1}s after dialing, queued behind the location update")
    } else {
        describe_non_confirmed(&report)
    };
    ValidationOutcome::from_report(Instance::S4, op.name, report, evidence)
}

/// S5: speedtest with a concurrent CS call (§6.2 / Figure 9). The
/// signature's negation arc (a healthy in-call uplink sample) makes the
/// milder carrier actively *Refuted*, not silently unobserved.
pub fn validate_s5(op: OperatorProfile, seed: u64) -> ValidationOutcome {
    let report = monitor_instance(Instance::S5, op, seed);
    let evidence = if report.verdict == Verdict::Confirmed {
        let kbps = report
            .span
            .iter()
            .find(|m| m.step == "ul-collapse")
            .and_then(|m| match &m.event {
                netsim::TraceEvent::Throughput { kbps, .. } => Some(*kbps),
                _ => None,
            })
            .unwrap_or(0);
        format!("uplink collapsed to {kbps} kbps while the CS voice call held the shared channel")
    } else {
        describe_non_confirmed(&report)
    };
    ValidationOutcome::from_report(Instance::S5, op.name, report, evidence)
}

/// Trials per carrier for S6: the disruption is a per-call race between
/// the return switch and the deferred update's accept, so one call is not
/// a fair sample of the carrier.
const S6_TRIALS: u64 = 6;

/// Per-trial seed derivation (odd stride keeps trials decorrelated).
const S6_TRIAL_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// S6: repeated CSFB-call trials; the relayed 3G location-update failure
/// propagates to 4G only when the return beats the update (the fast-return
/// carrier's race). Trial verdicts combine under the lattice join — one
/// witnessed propagation confirms the carrier; a carrier whose update
/// always completes is refuted by the signature's negation arc.
pub fn validate_s6(op: OperatorProfile, seed: u64) -> ValidationOutcome {
    let mut joined = Verdict::Inconclusive;
    let mut kept: Option<(u64, MonitorReport)> = None;
    for trial in 0..S6_TRIALS {
        let trial_seed = seed.wrapping_add(trial.wrapping_mul(S6_TRIAL_STRIDE));
        let w = instance_world(Instance::S6, op, trial_seed);
        let report = run_signature(signature_for(Instance::S6), w.trace.entries(), w.now);
        joined = joined.join(report.verdict);
        let keep = match (&kept, report.verdict) {
            (None, _) => true,
            // A confirmed trial is the carrier's witness; keep the first.
            (Some((_, k)), Verdict::Confirmed) => k.verdict != Verdict::Confirmed,
            _ => false,
        };
        if keep {
            kept = Some((trial, report));
        }
        if joined == Verdict::Confirmed {
            break; // Confirmed is top: later trials cannot change the join.
        }
    }
    let (trial, report) = kept.expect("at least one trial ran");
    let evidence = match joined {
        Verdict::Confirmed => format!(
            "trial {}/{S6_TRIALS}: the disrupted update's failure propagated — MME detached the device on 4G",
            trial + 1
        ),
        Verdict::Refuted => format!(
            "the deferred update completed in all {S6_TRIALS} trials (no propagation window): {}",
            report
                .refutation
                .clone()
                .unwrap_or_else(|| "negation arc".into())
        ),
        Verdict::Inconclusive => describe_non_confirmed(&report),
    };
    let mut outcome = ValidationOutcome::from_report(Instance::S6, op.name, report, evidence);
    outcome.verdict = joined;
    outcome.observed = joined == Verdict::Confirmed;
    outcome
}

/// How [`diagnose`] classifies one instance after both phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefectClass {
    /// Confirmed on both carriers and predicted by a screening
    /// counterexample: the protocols themselves are wrong (Table 1 "design
    /// defect").
    DesignDefect,
    /// Carrier-divergent verdicts (or confirmed without a screening
    /// prediction): one operator's configuration choice, not the
    /// standards (Table 1 "operational slip").
    OperationalSlip,
    /// Confirmed on no carrier.
    Unobserved,
}

impl std::fmt::Display for DefectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DefectClass::DesignDefect => "design defect",
            DefectClass::OperationalSlip => "operational slip",
            DefectClass::Unobserved => "unobserved",
        })
    }
}

/// The two-phase diagnosis of one instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Which instance.
    pub instance: Instance,
    /// The classification.
    pub class: DefectClass,
    /// Whether phase-1 screening produced a counterexample for it.
    pub predicted_by_screening: bool,
    /// Verdict of the signature *compiled from the screening
    /// counterexample* (not the hand one), joined across carriers — the
    /// cross-check that the model's predicted event chain is the one the
    /// carriers exhibit. `None` when screening made no prediction.
    pub witness_verdict: Option<Verdict>,
    /// Per-carrier outcomes, OP-I then OP-II.
    pub outcomes: Vec<ValidationOutcome>,
}

/// Run both phases and classify every instance: deterministic screening
/// for the predictions, monitor-driven validation on both carriers, and
/// the design-defect / operational-slip split of §4.
pub fn diagnose(seed: u64) -> Vec<Diagnosis> {
    diagnose_against(&run_screening_deterministic(), seed)
}

/// [`diagnose`] against an already-computed screening report.
pub fn diagnose_against(screening: &ScreeningReport, seed: u64) -> Vec<Diagnosis> {
    Instance::ALL
        .iter()
        .map(|&instance| {
            let outcomes: Vec<ValidationOutcome> = [op_i(), op_ii()]
                .into_iter()
                .map(|op| validate_instance(instance, op, seed))
                .collect();
            let finding = screening.finding(instance);
            let witness_verdict = finding.map(|f| {
                let compiled = compile_witness(&instance.to_string(), &f.property, &f.witness);
                [op_i(), op_ii()]
                    .into_iter()
                    .map(|op| {
                        let w = instance_world(instance, op, seed);
                        run_signature(compiled.signature.clone(), w.trace.entries(), w.now).verdict
                    })
                    .fold(Verdict::Inconclusive, Verdict::join)
            });
            let confirmed_everywhere = outcomes.iter().all(|o| o.observed);
            let confirmed_somewhere = outcomes.iter().any(|o| o.observed);
            let class = if confirmed_everywhere && finding.is_some() {
                DefectClass::DesignDefect
            } else if confirmed_somewhere {
                DefectClass::OperationalSlip
            } else {
                DefectClass::Unobserved
            };
            Diagnosis {
                instance,
                class,
                predicted_by_screening: finding.is_some(),
                witness_verdict,
                outcomes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_confirmed_on_both_carriers() {
        for op in [op_i(), op_ii()] {
            let v = validate_s1(op, 99);
            assert_eq!(
                v.verdict,
                Verdict::Confirmed,
                "{}: {}",
                v.operator,
                v.evidence
            );
            assert_eq!(v.span.len(), 4, "all four S1 steps matched");
            assert!(v.observed);
        }
    }

    #[test]
    fn s2_confirms_with_injection_and_carries_the_fault_span() {
        let v = validate_s2(op_i(), 7);
        assert_eq!(v.verdict, Verdict::Confirmed, "{}", v.evidence);
        assert_eq!(v.span[0].step, "uplink-loss");
        assert!(matches!(v.span[0].event, netsim::TraceEvent::Fault(_)));
    }

    #[test]
    fn s3_confirms_on_both_carriers_with_divergent_stuck_time() {
        let stuck = |op| {
            let v = validate_s3(op, 11);
            assert_eq!(
                v.verdict,
                Verdict::Confirmed,
                "{}: {}",
                v.operator,
                v.evidence
            );
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
        let op1 = stuck(op_i());
        let op2 = stuck(op_ii());
        assert!(op2 > 300_000, "OP-II tracks the data session: {op2} ms");
        assert!(op1 < 60_000, "OP-I redirects promptly: {op1} ms");
    }

    #[test]
    fn s4_blocking_confirmed() {
        let v = validate_s4(op_i(), 13);
        assert_eq!(v.verdict, Verdict::Confirmed, "{}", v.evidence);
        assert!(v.span.iter().any(|m| m.step == "hol-blocked"));
    }

    #[test]
    fn s5_verdicts_diverge_across_carriers() {
        let v2 = validate_s5(op_ii(), 17);
        assert_eq!(
            v2.verdict,
            Verdict::Confirmed,
            "OP-II collapses: {}",
            v2.evidence
        );
        let v1 = validate_s5(op_i(), 17);
        assert_eq!(
            v1.verdict,
            Verdict::Refuted,
            "OP-I stays healthy: {}",
            v1.evidence
        );
        assert!(
            v1.refutation.as_deref().unwrap_or("").contains("healthy"),
            "refutation names the negation arc: {:?}",
            v1.refutation
        );
    }

    #[test]
    fn s6_verdicts_diverge_across_carriers() {
        let v1 = validate_s6(op_i(), 23);
        assert_eq!(
            v1.verdict,
            Verdict::Confirmed,
            "OP-I fast return wins the race: {}",
            v1.evidence
        );
        let v2 = validate_s6(op_ii(), 23);
        assert_eq!(
            v2.verdict,
            Verdict::Refuted,
            "OP-II update completes: {}",
            v2.evidence
        );
    }

    #[test]
    fn validate_all_returns_twelve_outcomes() {
        let all = validate_all(3);
        assert_eq!(all.len(), 12);
        // Every instance appears for both carriers.
        for inst in Instance::ALL {
            assert_eq!(all.iter().filter(|v| v.instance == inst).count(), 2);
        }
        // Observed mirrors the verdict everywhere.
        for v in &all {
            assert_eq!(v.observed, v.verdict == Verdict::Confirmed);
        }
    }

    #[test]
    fn confirmed_outcomes_carry_timestamped_spans() {
        for v in validate_all(3) {
            if v.observed {
                assert!(!v.span.is_empty(), "{} on {}", v.instance, v.operator);
                assert!(v.span.windows(2).all(|w| w[0].ts <= w[1].ts));
                assert!(!v.span_lines().is_empty());
            }
        }
    }
}
