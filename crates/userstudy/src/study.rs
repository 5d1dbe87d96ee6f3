//! The study simulation: drive the §7 population through a real
//! [`FleetSim`] run and count instance occurrences from the traces.
//!
//! The population (20 participants, 12 on 4G phones) is translated into
//! per-UE behaviour specs ([`crate::population::spec_for`]) and simulated
//! for two weeks against the shared carrier cores. Every occurrence
//! number in the result is then *detected* on the phone-side traces by a
//! signature automaton ([`crate::detect`]) — exactly the paper's
//! methodology, where the instances are found by post-processing the
//! volunteers' modem logs:
//!
//! * **S1** — the hand S1 signature (PDP deactivated in 3G → 4G return
//!   without a context → network detach → timed recovery).
//! * **S2** — the hand S2 signature; the study's attaches all happen in
//!   good coverage, so the expected count is zero.
//! * **S3** — the S3 signature's evidence spans: a data-on CSFB call
//!   whose release→return gap exceeds 10 s counts as an occurrence, and
//!   the gaps themselves are the Table 6 series.
//! * **S4** — the hand S4 signature (dial blocked behind a location
//!   update — head-of-line blocking).
//! * **S5** — the study overlap signature ([`crate::detect::s5_overlap`]):
//!   voice drops the shared channel to 16QAM and data traffic is observed
//!   mid-call.
//! * **S6** — the study S6 signature ([`crate::detect::s6_detach`]):
//!   post-call update failure propagated across systems, detaching an
//!   in-service device on 4G; covers both the OP-I disrupted-update and
//!   the OP-II conflicting-update shapes.

use monitor::{compile, Signature};
use netsim::rng::rng_from_seed;
use netsim::{ActivityKind, FleetConfig, FleetSim, LiveConfig, UeOutcome};

use crate::detect;
use crate::population::{build_population, spec_for, Carrier, Participant, STUDY_DAYS};

/// Index of each study signature in [`study_signatures`]'s fixed order —
/// the per-UE [`netsim::LiveCounts`] tallies are addressed by these.
const SIG_S1: usize = 0;
const SIG_S2: usize = 1;
const SIG_S3: usize = 2;
const SIG_S4: usize = 3;
const SIG_S5: usize = 4;
const SIG_S6: usize = 5;

/// The six study detectors in the fixed order the fleet's in-line banks
/// evaluate them (`SIG_S1` … `SIG_S6` index the resulting tallies). Every
/// lane runs all six; the per-phone 4G/3G gating happens at read time in
/// the analyzer, exactly as it did over post-hoc scans.
pub fn study_signatures() -> Vec<Signature> {
    vec![
        compile::s1(),
        compile::s2(),
        compile::s3(),
        compile::s4(),
        detect::s5_overlap(),
        detect::s6_detach(),
    ]
}

/// Counters for one instance: occurrences / denominator (the Table 5 cells).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occurrence {
    /// Times the instance occurred.
    pub events: u32,
    /// Size of the population of opportunities.
    pub denominator: u32,
}

impl Occurrence {
    /// Occurrence probability (0 when no opportunities).
    pub fn probability(&self) -> f64 {
        if self.denominator == 0 {
            0.0
        } else {
            f64::from(self.events) / f64::from(self.denominator)
        }
    }
}

/// The full study result.
#[derive(Clone, Debug, Default)]
pub struct StudyResult {
    /// S1 per 4G→3G switch with data on (paper: 4/129).
    pub s1: Occurrence,
    /// S2 per attach (paper: 0/30).
    pub s2: Occurrence,
    /// S3 per CSFB call with data enabled (paper: 64/103).
    pub s3: Occurrence,
    /// S4 per outgoing 3G CS call (paper: 6/79).
    pub s4: Occurrence,
    /// S5 per 3G CS call (paper: 113/146).
    pub s5: Occurrence,
    /// S6 per CSFB call (paper: 5/190).
    pub s6: Occurrence,
    /// Total CSFB calls (paper: 190).
    pub csfb_calls: u32,
    /// Total 3G CS calls (paper: 146).
    pub cs_calls_3g: u32,
    /// Total inter-system switches (paper: 436; 380 from the CSFB calls).
    pub switches: u32,
    /// Total attaches — one per participant at study start plus every
    /// power cycle (paper: 30).
    pub attaches: u32,
    /// Per-carrier stuck-in-3G durations after data-on CSFB calls, ms
    /// (Table 6), recovered from the S3 evidence spans.
    pub stuck_op1_ms: Vec<u64>,
    /// OP-II durations.
    pub stuck_op2_ms: Vec<u64>,
    /// S5: affected data volume per affected call, KB (paper: avg 368 KB).
    pub s5_affected_kb: Vec<f64>,
    /// Events the fleet executive processed across all 20 phones.
    pub fleet_events: u64,
}

/// An S3 occurrence: the phone failed to return to 4G "promptly" — the
/// §5.3.2 threshold separating a redirect-speed return from waiting out a
/// data session.
const S3_STUCK_THRESHOLD_MS: u64 = 10_000;

/// Run the full two-week study on a fleet simulation.
///
/// The study streams through [`FleetSim::run_fold`] with *in-line*
/// monitoring: the fleet evaluates [`study_signatures`] inside the step
/// loop, so every occurrence count arrives as a per-UE verdict tally
/// ([`netsim::LiveCounts`]) rather than a post-hoc trace scan — the
/// analyzer is a thin consumer of the verdict stream. Each participant's
/// tallies and plan are folded into a per-UE partial [`StudyResult`] the
/// moment their lane finishes, and the partials (keyed by UE id, so the
/// merge order — and therefore every float sum — is independent of the
/// thread count) are merged afterwards. No per-UE trace outlives its
/// analysis.
pub fn run_study(seed: u64) -> StudyResult {
    let mut rng = rng_from_seed(seed);
    let population = build_population(&mut rng);
    let roster = population.iter().map(spec_for).collect();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut cfg = FleetConfig::new(seed, STUDY_DAYS, threads, roster);
    cfg.keep_plan = true; // denominators and S3/S5 attribution read the plan
    let mut live = LiveConfig::new(study_signatures());
    live.keep_spans = true; // S3 episodes are read off the confirmed spans
    cfg.live = Some(live);
    let population = &population;
    let (report, partials) = FleetSim::new(cfg).run_fold(Vec::new, |acc, u| {
        let part = analyze_ue(&population[u.id as usize], &u);
        acc.push((u.id, part));
    });
    let mut partials: Vec<(u32, StudyResult)> = partials.into_iter().flatten().collect();
    partials.sort_by_key(|(id, _)| *id);
    let mut r = StudyResult {
        fleet_events: report.total_events,
        ..StudyResult::default()
    };
    for (_, part) in partials {
        merge_into(&mut r, part);
    }
    r.s2.denominator = r.attaches;
    r
}

/// Post-process collected fleet outcomes with the §7 detectors.
/// `outcomes[i]` must be participant `population[i]`'s (id-ordered, as
/// [`FleetSim::run_collect`] returns them, with plans kept), from a fleet
/// that ran the [`study_signatures`] in-line with `keep_spans` set: every
/// occurrence is read off the per-UE verdict tallies and S3 spans.
pub fn analyze(population: &[Participant], outcomes: &[UeOutcome]) -> StudyResult {
    assert_eq!(
        population.len(),
        outcomes.len(),
        "one trace stream per participant"
    );
    let mut r = StudyResult::default();
    for (p, u) in population.iter().zip(outcomes) {
        r.fleet_events += u.events;
        merge_into(&mut r, analyze_ue(p, u));
    }
    r.s2.denominator = r.attaches;
    r
}

/// Fold one participant's partial result into the study total.
fn merge_into(r: &mut StudyResult, p: StudyResult) {
    let add = |a: &mut Occurrence, b: Occurrence| {
        a.events += b.events;
        a.denominator += b.denominator;
    };
    add(&mut r.s1, p.s1);
    add(&mut r.s2, p.s2);
    add(&mut r.s3, p.s3);
    add(&mut r.s4, p.s4);
    add(&mut r.s5, p.s5);
    add(&mut r.s6, p.s6);
    r.csfb_calls += p.csfb_calls;
    r.cs_calls_3g += p.cs_calls_3g;
    r.switches += p.switches;
    r.attaches += p.attaches;
    r.stuck_op1_ms.extend(p.stuck_op1_ms);
    r.stuck_op2_ms.extend(p.stuck_op2_ms);
    r.s5_affected_kb.extend(p.s5_affected_kb);
}

/// Run the §7 detectors over one participant's outcome: occurrences are
/// the in-line verdict tallies (indexed in [`study_signatures`] order).
fn analyze_ue(p: &Participant, u: &UeOutcome) -> StudyResult {
    let live = u.live.as_ref().expect(
        "study outcomes carry in-line verdicts: run the fleet with \
         LiveConfig::new(study_signatures())",
    );
    let mut r = StudyResult::default();
    {
        // Denominators come from the deterministic activity plan (what
        // the phone *did*); occurrences come from the verdicts on its
        // trace (what the network *made of it*).
        r.attaches += 1; // initial power-on attach
        for a in &u.activities {
            match a.kind {
                ActivityKind::CsfbCall { data_on, .. } => {
                    r.csfb_calls += 1;
                    r.switches += 2; // fallback + return
                    r.s6.denominator += 1;
                    if data_on {
                        r.s1.denominator += 1;
                        r.s3.denominator += 1;
                    }
                }
                ActivityKind::CsCall {
                    data_on, outgoing, ..
                } => {
                    r.cs_calls_3g += 1;
                    r.s5.denominator += 1;
                    if outgoing {
                        r.s4.denominator += 1;
                    }
                    let _ = data_on;
                }
                ActivityKind::CoverageSwitch { data_on, .. } => {
                    r.switches += 2;
                    if data_on {
                        r.s1.denominator += 1;
                    }
                }
                ActivityKind::PowerCycle => r.attaches += 1,
            }
        }

        r.s2.events += live.confirmed[SIG_S2];
        if p.has_4g {
            r.s1.events += live.confirmed[SIG_S1];
            r.s6.events += live.confirmed[SIG_S6];
            for ep in detect::episodes_from_spans(&live.spans[SIG_S3]) {
                // Attribute the episode to the activity that dialed it:
                // the latest planned CSFB call at or before the release.
                let data_on = u
                    .activities
                    .iter()
                    .filter(|a| a.at <= ep.released)
                    .filter_map(|a| match a.kind {
                        ActivityKind::CsfbCall { data_on, .. } => Some((a.at, data_on)),
                        _ => None,
                    })
                    .max_by_key(|&(at, _)| at)
                    .map(|(_, d)| d);
                if data_on != Some(true) {
                    continue; // paper measures the 103 data-on calls
                }
                let stuck = ep.stuck_ms();
                match p.carrier {
                    Carrier::OpI => r.stuck_op1_ms.push(stuck),
                    Carrier::OpII => r.stuck_op2_ms.push(stuck),
                }
                if stuck > S3_STUCK_THRESHOLD_MS {
                    r.s3.events += 1;
                }
            }
        } else {
            r.s4.events += live.confirmed[SIG_S4];
            r.s5.events += live.confirmed[SIG_S5];
            let entries = u.trace.entries();
            for a in &u.activities {
                if let ActivityKind::CsCall {
                    data_on: true,
                    call_ms,
                    demand_kbps,
                    ..
                } = a.kind
                {
                    let to = a.at + (call_ms + 25_000);
                    if let Some(kbps) = detect::dl_rate_during_call(entries, a.at, to) {
                        let secs = (call_ms + 15_000) as f64 / 1_000.0;
                        r.s5_affected_kb
                            .push(secs * demand_kbps.min(kbps) as f64 / 8.0);
                    }
                }
            }
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn study() -> &'static StudyResult {
        static STUDY: OnceLock<StudyResult> = OnceLock::new();
        STUDY.get_or_init(|| run_study(2014))
    }

    #[test]
    fn event_totals_near_paper() {
        let r = study();
        assert!(
            (150..=230).contains(&r.csfb_calls),
            "≈190 CSFB calls, got {}",
            r.csfb_calls
        );
        assert!(
            (110..=180).contains(&r.cs_calls_3g),
            "≈146 CS calls, got {}",
            r.cs_calls_3g
        );
        assert!(
            (350..=520).contains(&r.switches),
            "≈436 switches, got {}",
            r.switches
        );
        assert!(
            (20..=45).contains(&r.attaches),
            "≈30 attaches, got {}",
            r.attaches
        );
    }

    #[test]
    fn s1_probability_near_3_percent() {
        let r = study();
        let p = r.s1.probability();
        assert!((0.005..=0.08).contains(&p), "paper 3.1%, got {:.3}", p);
    }

    #[test]
    fn s2_rare_or_absent() {
        let r = study();
        assert!(r.s2.events <= 1, "paper observed 0/30, got {}", r.s2.events);
    }

    #[test]
    fn s3_probability_near_62_percent() {
        let r = study();
        let p = r.s3.probability();
        assert!((0.45..=0.75).contains(&p), "paper 62.1%, got {:.3}", p);
    }

    #[test]
    fn s4_probability_near_7_percent() {
        let r = study();
        let p = r.s4.probability();
        assert!((0.01..=0.16).contains(&p), "paper 7.6%, got {:.3}", p);
    }

    #[test]
    fn s5_probability_near_77_percent() {
        let r = study();
        let p = r.s5.probability();
        assert!((0.65..=0.90).contains(&p), "paper 77.4%, got {:.3}", p);
    }

    #[test]
    fn s6_probability_near_2_6_percent() {
        let r = study();
        let p = r.s6.probability();
        assert!((0.0..=0.08).contains(&p), "paper 2.6%, got {:.3}", p);
        assert!(r.s6.events >= 1, "expect a few S6 events over ~190 calls");
    }

    #[test]
    fn table6_shapes_op1_fast_op2_slow() {
        let r = study();
        assert!(!r.stuck_op1_ms.is_empty() && !r.stuck_op2_ms.is_empty());
        let med = |v: &[u64]| {
            let mut s = v.to_vec();
            s.sort_unstable();
            s[s.len() / 2]
        };
        let m1 = med(&r.stuck_op1_ms);
        let m2 = med(&r.stuck_op2_ms);
        assert!(m1 < 10_000, "OP-I median ≈2.3 s, got {m1} ms");
        assert!(m2 > 14_000, "OP-II median ≈24.3 s, got {m2} ms");
        assert!(m2 > m1 * 3);
    }

    #[test]
    fn s5_affected_volume_near_368_kb() {
        let r = study();
        assert!(!r.s5_affected_kb.is_empty());
        let avg = r.s5_affected_kb.iter().sum::<f64>() / r.s5_affected_kb.len() as f64;
        assert!(
            (150.0..=900.0).contains(&avg),
            "paper avg 368 KB, got {avg:.0}"
        );
    }

    #[test]
    fn reproducible() {
        let a = run_study(7);
        let b = run_study(7);
        assert_eq!(a.csfb_calls, b.csfb_calls);
        assert_eq!(a.s3, b.s3);
        assert_eq!(a.stuck_op2_ms, b.stuck_op2_ms);
        assert_eq!(a.fleet_events, b.fleet_events);
    }

    #[test]
    fn occurrences_never_exceed_denominators() {
        let r = study();
        for o in [r.s1, r.s2, r.s3, r.s4, r.s5, r.s6] {
            assert!(o.events <= o.denominator, "{o:?}");
        }
        // Every Table 6 sample comes from a data-on CSFB call.
        assert!((r.stuck_op1_ms.len() + r.stuck_op2_ms.len()) as u32 <= r.s3.denominator);
    }
}
