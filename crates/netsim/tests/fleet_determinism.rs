//! Fleet-scale determinism: the parallel executive must be a pure
//! function of (seed, specs) — the UE-shard thread count is an
//! implementation detail that may never leak into the report.

use netsim::{
    op_i, op_ii, BehaviorProfile, FleetConfig, FleetReport, FleetSim, Roster, UeOutcome, UeSpec,
};

/// A carrier-mixed 20-UE fleet shaped like the §7 study population.
fn study_shaped_roster() -> Roster {
    let on_4g = (0..12).map(|i| UeSpec {
        op: if i < 5 { op_i() } else { op_ii() },
        behavior: BehaviorProfile::typical_4g(),
    });
    let on_3g = (0..8).map(|i| UeSpec {
        op: if i % 2 == 0 { op_i() } else { op_ii() },
        behavior: BehaviorProfile::typical_3g(),
    });
    on_4g.chain(on_3g).collect()
}

fn run(threads: usize, trace_capacity: Option<usize>) -> (FleetReport, Vec<UeOutcome>) {
    let mut cfg = FleetConfig::new(90125, 5, threads, study_shaped_roster());
    cfg.trace_capacity = trace_capacity;
    FleetSim::new(cfg).run_collect()
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let (a, ues_a) = run(1, None);
    let (b, _) = run(2, None);
    let (c, ues_c) = run(8, None);
    assert_eq!(a.digest(), b.digest(), "1 vs 2 threads");
    assert_eq!(a.digest(), c.digest(), "1 vs 8 threads");
    // The digest covers a per-UE trace checksum; also compare the full
    // trace streams of a few UEs directly so a digest-collision can
    // never mask a divergence.
    for i in [0, 7, 19] {
        assert_eq!(
            ues_a[i].trace.to_jsonl(),
            ues_c[i].trace.to_jsonl(),
            "ue {i} trace stream"
        );
    }
}

#[test]
fn report_is_byte_identical_under_trace_eviction() {
    let (a, ues) = run(1, Some(512));
    let (b, _) = run(8, Some(512));
    assert_eq!(a.digest(), b.digest(), "bounded traces, 1 vs 8 threads");
    assert!(
        ues.iter().all(|u| u.trace.len() <= 512),
        "capacity is enforced"
    );
}

#[test]
fn oversubscribed_threads_are_harmless() {
    // More shards than UEs: some shards are empty; the merge order is
    // still by UE index, not by completion order.
    let (a, _) = run(1, None);
    let (b, _) = run(64, None);
    assert_eq!(a.digest(), b.digest());
}

/// The million-UE kernel's acceptance property, scaled to a CI-sized
/// fleet: 20 000 mixed-class UEs, one day, ring-bounded traces (so
/// eviction churn is live), digests byte-identical at 1/2/8/64 threads.
#[test]
fn twenty_thousand_ues_are_thread_invariant() {
    let run = |threads: usize| {
        let roster = (0..20_000)
            .map(|i| UeSpec {
                op: if i % 2 == 0 { op_i() } else { op_ii() },
                behavior: if i % 5 == 0 {
                    BehaviorProfile::typical_3g()
                } else {
                    BehaviorProfile::typical_4g()
                },
            })
            .collect();
        let mut cfg = FleetConfig::new(20_260_807, 1, threads, roster);
        cfg.trace_capacity = Some(16);
        let r = FleetSim::new(cfg).run();
        assert_eq!(r.agg.ues, 20_000);
        assert!(
            r.agg.trace_evicted > 0,
            "rings this small must evict at 20k scale"
        );
        r.digest()
    };
    let d1 = run(1);
    for threads in [2, 8, 64] {
        assert_eq!(d1, run(threads), "1 vs {threads} threads");
    }
}
