//! The tentpole acceptance property at scale: fleet-wide S1–S6 in-line
//! verdict tallies over 20 000 UEs are byte-identical whether the traces
//! are retained unbounded, ring-bounded, or not at all (count-only), and
//! whatever the shard thread count — the tallies are a pure per-lane
//! function of each UE's event stream.

use netsim::{op_i, op_ii, BehaviorProfile, FleetConfig, FleetSim, LiveConfig, UeSpec};
use userstudy::study_signatures;

const N_UES: usize = 20_000;
const SEED: u64 = 20_260_807;

/// Fleet-wide per-signature (confirmed, refuted) sums for one 20k-UE day.
fn tallies(trace_capacity: Option<usize>, threads: usize) -> Vec<(u64, u64)> {
    let roster = (0..N_UES)
        .map(|i| UeSpec {
            op: if i % 2 == 0 { op_i() } else { op_ii() },
            behavior: if i % 5 == 0 {
                BehaviorProfile::typical_3g()
            } else {
                BehaviorProfile::typical_4g()
            },
        })
        .collect();
    let n = study_signatures().len();
    let mut cfg = FleetConfig::new(SEED, 1, threads, roster);
    cfg.trace_capacity = trace_capacity;
    cfg.live = Some(LiveConfig::new(study_signatures()));
    let (_, shards) = FleetSim::new(cfg).run_fold(
        || vec![(0u64, 0u64); n],
        |acc, u| {
            let l = u.live.as_ref().expect("live configured");
            for (k, slot) in acc.iter_mut().enumerate() {
                slot.0 += u64::from(l.confirmed[k]);
                slot.1 += u64::from(l.refuted[k]);
            }
        },
    );
    shards.into_iter().fold(vec![(0, 0); n], |mut t, s| {
        for k in 0..n {
            t[k].0 += s[k].0;
            t[k].1 += s[k].1;
        }
        t
    })
}

#[test]
fn s_counts_at_20k_are_retention_and_thread_invariant() {
    let reference = tallies(None, 4);
    assert!(
        reference.iter().any(|&(c, _)| c > 0),
        "a 20k-UE day must confirm something"
    );
    for capacity in [Some(64), Some(0)] {
        assert_eq!(
            reference,
            tallies(capacity, 4),
            "trace capacity {capacity:?} vs unbounded"
        );
    }
    for threads in [1, 2, 8, 64] {
        assert_eq!(
            reference,
            tallies(Some(0), threads),
            "count-only traces, {threads} threads vs unbounded/4"
        );
    }
}
