//! Property-based tests for the trace-based study detectors.

use proptest::prelude::*;

use cellstack::{Protocol, RatSystem};
use monitor::{collect_spans, compile, count_signature};
use netsim::trace::{CallPhase, TraceCollector, TraceEvent, TraceType};
use netsim::SimTime;
use userstudy::{analyze, build_population, episodes_from_spans, s5_overlap, spec_for};

/// Append one synthetic 3G CS call to a trace; returns the next free
/// timestamp.
fn push_call(t: &mut TraceCollector, at_ms: u64, with_data: bool, stuck_ms: u64) -> u64 {
    let mut rec = |ts: u64, event: TraceEvent| {
        t.record_event(
            SimTime::from_millis(ts),
            TraceType::State,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            "synthetic",
            event,
        );
    };
    rec(at_ms, TraceEvent::CampedOn(RatSystem::Utran3g));
    rec(at_ms + 500, TraceEvent::RadioConfig { allow_64qam: false });
    rec(at_ms + 500, TraceEvent::Call(CallPhase::Connected));
    if with_data {
        rec(
            at_ms + 5_000,
            TraceEvent::Throughput {
                uplink: false,
                with_call: true,
                kbps: 300,
            },
        );
    }
    rec(
        at_ms + 30_000,
        TraceEvent::RadioConfig { allow_64qam: true },
    );
    rec(at_ms + 30_000, TraceEvent::Call(CallPhase::Released));
    rec(
        at_ms + 30_000 + stuck_ms,
        TraceEvent::CampedOn(RatSystem::Lte4g),
    );
    at_ms + 40_000 + stuck_ms
}

proptest! {
    /// The S5 overlap count equals exactly the number of calls that carried
    /// mid-call traffic, for any call mix.
    #[test]
    fn s5_count_equals_data_on_calls(pattern in proptest::collection::vec(any::<bool>(), 0..24)) {
        let mut t = TraceCollector::new();
        let mut at = 10_000;
        for &with_data in &pattern {
            at = push_call(&mut t, at, with_data, 2_000);
        }
        let n = count_signature(&s5_overlap(), t.entries(), SimTime::from_millis(at + 60_000));
        prop_assert_eq!(n, pattern.iter().filter(|&&d| d).count());
    }

    /// Every synthetic release→return gap is recovered exactly by the S3
    /// span detector, in order.
    #[test]
    fn s3_episodes_recover_all_gaps(gaps in proptest::collection::vec(1_000u64..400_000, 1..16)) {
        let mut t = TraceCollector::new();
        let mut at = 10_000;
        for &g in &gaps {
            at = push_call(&mut t, at, false, g);
        }
        let eps = episodes_from_spans(&collect_spans(&compile::s3(), t.entries()));
        prop_assert_eq!(eps.len(), gaps.len());
        for (ep, g) in eps.iter().zip(&gaps) {
            prop_assert_eq!(ep.stuck_ms(), *g);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A full fleet-backed study is internally consistent for any seed:
    /// occurrences never exceed denominators and the plan-derived totals
    /// reconcile. (Few cases — each one simulates a 20-phone fleet.)
    #[test]
    fn study_is_internally_consistent(seed in 0u64..1024) {
        let mut rng = netsim::rng::rng_from_seed(seed);
        let population = build_population(&mut rng);
        let roster = population.iter().map(spec_for).collect();
        let mut cfg = netsim::FleetConfig::new(seed, 3, 2, roster); // short horizon keeps the property cheap
        cfg.keep_plan = true;
        let mut live = netsim::LiveConfig::new(userstudy::study_signatures());
        live.keep_spans = true;
        cfg.live = Some(live);
        let (_, ues) = netsim::FleetSim::new(cfg).run_collect();
        let r = analyze(&population, &ues);
        for o in [r.s1, r.s2, r.s3, r.s4, r.s5, r.s6] {
            prop_assert!(o.events <= o.denominator, "{:?}", o);
        }
        prop_assert_eq!(r.s6.denominator, r.csfb_calls);
        prop_assert_eq!(r.s5.denominator, r.cs_calls_3g);
        prop_assert_eq!(r.s2.denominator, r.attaches);
        prop_assert!(r.s3.denominator <= r.csfb_calls);
        prop_assert!(r.attaches >= 20, "an initial attach per participant");
        prop_assert!(r.switches >= 2 * r.csfb_calls, "two legs per CSFB call");
        prop_assert!(
            (r.stuck_op1_ms.len() + r.stuck_op2_ms.len()) as u32 <= r.s3.denominator,
            "Table 6 samples come only from data-on CSFB calls"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The in-line verdict tallies equal the post-hoc `count_signature`
    /// scan for every study signature on every UE — at every trace
    /// retention mode (unbounded, ring-64, count-only) and thread count
    /// (1/2/8). The oracle runs once with full traces retained; the nine
    /// live configurations must all reproduce its per-UE counts exactly.
    /// (Few cases — each one simulates ten 20-phone fleets.)
    #[test]
    fn inline_counts_match_posthoc_at_every_retention_and_thread_count(seed in 0u64..1024) {
        use userstudy::study_signatures;
        let sigs = study_signatures();
        let mut rng = netsim::rng::rng_from_seed(seed);
        let population = userstudy::build_population(&mut rng);
        let roster: netsim::Roster = population.iter().map(userstudy::spec_for).collect();
        let days = 2u32;
        let end = SimTime::from_millis(u64::from(days) * 86_400_000 + 900_000);

        // Oracle: full traces, scanned after the fact.
        let cfg = netsim::FleetConfig::new(seed, days, 2, roster.clone());
        let (_, ues) = netsim::FleetSim::new(cfg).run_collect();
        let expected: Vec<Vec<u32>> = ues
            .iter()
            .map(|u| {
                sigs.iter()
                    .map(|s| count_signature(s, u.trace.entries(), end) as u32)
                    .collect()
            })
            .collect();

        for capacity in [None, Some(64), Some(0)] {
            for threads in [1usize, 2, 8] {
                let mut cfg = netsim::FleetConfig::new(seed, days, threads, roster.clone());
                cfg.trace_capacity = capacity;
                cfg.live = Some(netsim::LiveConfig::new(sigs.clone()));
                let (_, ues) = netsim::FleetSim::new(cfg).run_collect();
                for (u, exp) in ues.iter().zip(&expected) {
                    let got = &u.live.as_ref().expect("live configured").confirmed;
                    prop_assert_eq!(
                        got, exp,
                        "ue {} capacity {:?} threads {}",
                        u.id, capacity, threads
                    );
                }
            }
        }
    }
}
