//! Campaign-at-fleet-scale regression: a degraded-MSC window must *raise*
//! the S5 occurrence rate over the no-fault baseline.
//!
//! Mechanism (verified against the executive's release choreography): S5
//! ([`userstudy::s5_overlap`]) refutes a pending episode on the call
//! release, and the release is a network echo — the device sends
//! `CallDisconnect` up the 3G CS leg and only settles the call when the
//! MSC echoes it back. A window in which the MSC loses half its inbound
//! CS signaling therefore suppresses release handshakes: the would-be
//! refutation (a call released without mid-call data) never settles, the
//! CS RAB stays up, and the stale pending episode is instead *confirmed*
//! by the next mid-call data sample. Call setups mostly still get
//! through, so confirmations keep flowing — settles tilt toward
//! confirmation, the paper's "carrier fault makes the interaction more
//! likely" direction, reproduced at 20k UEs.

use netsim::{
    op_i, op_ii, BehaviorProfile, Campaign, FaultPhase, FaultPolicy, FleetConfig, FleetSim, Leg,
    LiveConfig, PolicyRule, Roster, UeSpec,
};

const N_UES: usize = 20_000;
const SEED: u64 = 20_260_807;

fn mixed_roster() -> Roster {
    (0..N_UES)
        .map(|i| UeSpec {
            op: if i % 2 == 0 { op_i() } else { op_ii() },
            behavior: if i % 5 == 0 {
                BehaviorProfile::typical_3g()
            } else {
                BehaviorProfile::typical_4g()
            },
        })
        .collect()
}

/// One 20k-UE day with in-line S5 monitoring; returns fleet-wide
/// (confirmed, refuted) S5 tallies.
fn s5_tallies(campaign: Option<Campaign>) -> (u64, u64) {
    let mut cfg = FleetConfig::new(SEED, 1, 4, mixed_roster());
    cfg.trace_capacity = Some(0); // count-only traces: verdicts don't need retention
    cfg.campaign = campaign;
    cfg.live = Some(LiveConfig::new(vec![userstudy::s5_overlap()]));
    let (_, shards) = FleetSim::new(cfg).run_fold(
        || (0u64, 0u64),
        |acc, u| {
            let l = u.live.as_ref().expect("live monitoring configured");
            acc.0 += u64::from(l.confirmed[0]);
            acc.1 += u64::from(l.refuted[0]);
        },
    );
    shards
        .into_iter()
        .fold((0, 0), |(c, r), (sc, sr)| (c + sc, r + sr))
}

/// A two-hour mid-day MSC degradation: half the uplink CS signaling into
/// the switch is lost. (A *total* MSC outage is the wrong probe here —
/// it blocks call setup too, so confirmations and refutations collapse
/// proportionally and the rate stays flat.)
fn msc_brownout() -> Campaign {
    Campaign::new("msc-brownout", SEED).with_phase(FaultPhase::new(
        "msc-uplink-brownout",
        36_000_000, // 10:00
        43_200_000, // 12:00
        vec![PolicyRule::on_leg(Leg::Ul3gCs, FaultPolicy::dropping(0.5))],
    ))
}

#[test]
fn msc_brownout_window_raises_the_s5_rate() {
    let (base_c, base_r) = s5_tallies(None);
    let (out_c, out_r) = s5_tallies(Some(msc_brownout()));
    assert!(base_c > 0 && base_r > 0, "baseline settles both ways");
    assert!(
        out_c > 0,
        "the fleet still confirms S5 under the fault window"
    );
    let base_rate = base_c as f64 / (base_c + base_r) as f64;
    let out_rate = out_c as f64 / (out_c + out_r) as f64;
    assert!(
        out_rate > base_rate,
        "suppressed release handshakes must tilt settles toward confirmation: \
         baseline {base_c}/{base_r} ({base_rate:.4}), brownout {out_c}/{out_r} ({out_rate:.4})"
    );
}

#[test]
fn campaign_tallies_are_deterministic_per_seed() {
    let a = s5_tallies(Some(msc_brownout()));
    let b = s5_tallies(Some(msc_brownout()));
    assert_eq!(a, b, "same seed, same campaign, same tallies");
}
