//! Semantics-pinning tests for the §8/§9 remedy prototypes.
//!
//! Each module in `remedies` implements one remedy as a concrete
//! transformation; these tests pin what that transformation *does* — the
//! exactly-once contract of the shim, the throughput algebra of channel
//! decoupling, the zero-delay property of parallel MM, the end-to-end
//! verdicts of the cross-system fixes, and the ordering of the three
//! channel-sharing schemes — so a refactor that weakens a remedy fails
//! here before it shows up as a diff in the remedy matrix golden.

use cellstack::{NasMessage, RatSystem};
use netsim::FaultPolicy;
use remedies::crosssys;
use remedies::decouple::{self, Fig13Row};
use remedies::parallel_mm;
use remedies::scheduler::{self, DeviceLoad, SharingScheme};
use remedies::shim::{figure12_left, figure12_left_run, ShimEndpoint, ShimFrame};

fn attach_req() -> NasMessage {
    NasMessage::AttachRequest {
        system: RatSystem::Lte4g,
    }
}

// ---- shim: the Figure 5 reliable-transport layer extension ----

/// Figure 5b defense: a duplicated frame is delivered to the upper layer
/// exactly once, and the duplicate is re-ACKed (so the sender still
/// converges) but counted as suppressed.
#[test]
fn shim_delivers_duplicates_exactly_once() {
    let mut tx = ShimEndpoint::new();
    let mut rx = ShimEndpoint::new();
    let frame = tx.send(attach_req());

    let (first, ack1) = rx.on_receive(frame.clone());
    assert_eq!(first, vec![attach_req()]);
    assert!(matches!(ack1, Some(ShimFrame::Ack { ack_next: 1 })));

    // The radio duplicates the frame.
    let (second, ack2) = rx.on_receive(frame);
    assert!(second.is_empty(), "duplicate must not reach the EMM layer");
    assert!(matches!(ack2, Some(ShimFrame::Ack { ack_next: 1 })));
    assert_eq!(rx.duplicates_dropped, 1);
}

/// Figure 5a defense: a dropped frame is recovered by the retransmission
/// timer, and the cumulative ACK clears the retransmission buffer.
#[test]
fn shim_retransmission_recovers_loss() {
    let mut tx = ShimEndpoint::new();
    let mut rx = ShimEndpoint::new();

    let _lost = tx.send(attach_req()); // the radio drops this frame
    assert_eq!(tx.unacked_len(), 1);

    let retx = tx.on_retransmit_timer();
    assert_eq!(retx.len(), 1);
    assert_eq!(tx.retransmissions, 1);

    let (delivered, ack) = rx.on_receive(retx[0].clone());
    assert_eq!(delivered, vec![attach_req()]);
    let (none, _) = tx.on_receive(ack.expect("data frames are ACKed"));
    assert!(none.is_empty());
    assert_eq!(tx.unacked_len(), 0, "cumulative ACK clears the buffer");
}

/// Go-back-N ordering: a future frame arriving before its predecessor is
/// dropped (never delivered out of order), and the in-order retransmission
/// later delivers both in sequence.
#[test]
fn shim_never_reorders_deliveries() {
    let mut tx = ShimEndpoint::new();
    let mut rx = ShimEndpoint::new();
    let f0 = tx.send(attach_req());
    let f1 = tx.send(NasMessage::AttachComplete);

    // f1 overtakes f0 on the radio.
    let (early, _) = rx.on_receive(f1);
    assert!(early.is_empty(), "out-of-order frame must be held back");

    let (d0, _) = rx.on_receive(f0);
    assert_eq!(d0, vec![attach_req()]);
    // Sender retransmits everything unacked, in order.
    for frame in tx.on_retransmit_timer() {
        for msg in rx.on_receive(frame).0 {
            assert_eq!(msg, NasMessage::AttachComplete);
        }
    }
    assert_eq!(rx.duplicates_dropped, 2, "early f1 + retransmitted f0");
}

/// The §9.1 experiment: at a 30% drop rate, 100 attach+TAU cycles without
/// the shim lose devices to implicit detach; with the shim, zero.
#[test]
fn shim_eliminates_implicit_detaches_under_loss() {
    let loss = FaultPolicy::dropping(0.3);
    let without = figure12_left_run(&loss, 100, false, 9);
    let with = figure12_left_run(&loss, 100, true, 9);
    assert!(without > 0, "unprotected NAS must detach under 30% loss");
    assert_eq!(with, 0, "the shim must eliminate every implicit detach");
}

/// Figure 12-left's drop-only sweep, pinned point by point for two seeds:
/// drop rates 0-10% in steps of 2, zero detaches with the shim, and the
/// exact detach counts without it.
#[test]
fn figure12_left_series_are_pinned() {
    for (seed, expected_without) in [(2014, [0, 3, 4, 3, 7, 8]), (7, [0, 2, 4, 5, 8, 12])] {
        let (with, without) = figure12_left(seed);
        let rates: Vec<f64> = with.iter().map(|&(r, _)| r).collect();
        assert_eq!(rates, [0.0, 2.0, 4.0, 6.0, 8.0, 10.0], "seed {seed}");
        assert!(with.iter().all(|&(_, d)| d == 0), "seed {seed}: {with:?}");
        assert_eq!(without.len(), 6, "seed {seed}");
        for (i, &(rate, detaches)) in without.iter().enumerate() {
            assert_eq!(rate, rates[i], "seed {seed}: series share the x-axis");
            assert_eq!(detaches, expected_without[i], "seed {seed} at {rate}%");
        }
    }
}

// ---- decouple: CS/PS channel decoupling (Figure 13) ----

/// The decoupled configuration's algebra: voice keeps the robust channel
/// (same VoIP throughput either way), while data moves to the fast
/// modulation at full airtime — so the gain is exactly
/// 2 × (fast rate / robust rate). Uplink 64QAM sits on the 16QAM HSUPA
/// ceiling, so its entire gain (2.0×) comes from reclaimed airtime;
/// downlink adds the 21/11 modulation step on top.
#[test]
fn decoupling_gains_data_without_touching_voice() {
    for uplink in [false, true] {
        let coupled = decouple::figure13_row(true, uplink);
        let decoupled = decouple::figure13_row(false, uplink);
        assert!(
            (coupled.voip_mbps - decoupled.voip_mbps).abs() < 1e-12,
            "decoupling must not change the voice flow's throughput"
        );
        assert!(decoupled.data_mbps > coupled.data_mbps);
        let gain = decouple::decoupling_gain(uplink);
        let expected = if uplink { 2.0 } else { 2.0 * 21.0 / 11.0 };
        assert!(
            (gain - expected).abs() < 1e-12,
            "data gain must be 2 x fast/robust: {gain} vs {expected} (uplink={uplink})"
        );
    }
}

/// `figure13()` enumerates all four bars with consistent flags.
#[test]
fn figure13_covers_both_links_and_both_configs() {
    let rows = decouple::figure13();
    let flags: Vec<(bool, bool)> = rows.iter().map(|r| (r.coupled, r.uplink)).collect();
    assert_eq!(
        flags,
        vec![(true, false), (false, false), (true, true), (false, true)]
    );
    for Fig13Row {
        voip_mbps,
        data_mbps,
        ..
    } in rows
    {
        assert!(voip_mbps > 0.0 && data_mbps > 0.0);
    }
}

/// §9.2 second remedy on the real RRC machine: with the CSFB tag the
/// switch back to 4G proceeds even while high-rate data holds the RRC in
/// a non-switchable state.
#[test]
fn csfb_tag_unblocks_the_switch_under_high_rate_data() {
    assert!(decouple::csfb_switch_never_blocked(true));
    assert!(decouple::csfb_switch_never_blocked(false));
}

// ---- parallel_mm: Location update in parallel with CM service ----

/// With the remedy the CM service request leaves on the parallel thread at
/// t=0 regardless of how long the location update takes; without it the
/// call waits out the entire update.
#[test]
fn parallel_mm_zeroes_call_delay() {
    for lu in [0.5, 2.0, 7.5] {
        let with = parallel_mm::measure_call_delay(lu, true);
        let without = parallel_mm::measure_call_delay(lu, false);
        assert_eq!(with.delay_s, 0.0, "remedied call must not wait on the LU");
        assert!(
            (without.delay_s - lu).abs() < 1e-9,
            "unremedied delay must equal the LU time: {} vs {lu}",
            without.delay_s
        );
    }
}

/// Figure 12-right shape: the unremedied series grows with LU time, the
/// remedied series is identically zero over the same x-axis.
#[test]
fn figure12_right_series_pin_the_contrast() {
    let (with, without) = parallel_mm::figure12_right();
    assert_eq!(with.len(), without.len());
    assert!(!with.is_empty());
    for (w, wo) in with.iter().zip(&without) {
        assert_eq!(w.lu_time_s, wo.lu_time_s, "series share the x-axis");
        assert_eq!(w.delay_s, 0.0);
        assert!((wo.delay_s - wo.lu_time_s).abs() < 1e-9);
    }
}

// ---- crosssys: §8 cross-system coordination remedies ----

/// Both end-to-end verdicts on the real protocol machines: bearer
/// reactivation keeps a switching device registered, and MME LU-failure
/// recovery spares 4G service from a 3G LU failure.
#[test]
fn cross_system_remedies_verify_end_to_end() {
    assert!(crosssys::verify_bearer_reactivation());
    assert!(crosssys::verify_mme_lu_recovery());
}

/// The §9.3 latency experiment: reactivating a bearer is strictly cheaper
/// than the detach + re-attach it replaces, sample by sample (the remedied
/// exchange is a subset of the unremedied one), and the series are
/// seed-deterministic.
#[test]
fn section93_remedied_switches_are_cheaper_and_deterministic() {
    let (with, without) = crosssys::section93_switch_experiment(50, 2014);
    assert_eq!(with.len(), 50);
    assert_eq!(without.len(), 50);
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    assert!(
        mean(&with) < mean(&without) / 2.0,
        "re-attach must dominate reactivation: {} vs {}",
        mean(&with),
        mean(&without)
    );
    let again = crosssys::section93_switch_experiment(50, 2014);
    assert_eq!((with, without), again);
}

// ---- scheduler: §6.2 channel-sharing schemes ----

/// The three schemes order as the paper argues: any decoupled scheme beats
/// per-device coupling on aggregate data throughput, and independent
/// modulation (voice pays only its payload share) beats reserving a whole
/// robust channel for voice.
#[test]
fn sharing_schemes_order_by_data_throughput() {
    let rows = scheduler::sharing_comparison(12, 3);
    assert_eq!(rows.len(), 3);
    let get = |s: SharingScheme| {
        rows.iter()
            .find(|(scheme, _)| *scheme == s)
            .map(|(_, o)| *o)
            .expect("scheme present")
    };
    let coupled = get(SharingScheme::CoupledPerDevice);
    let cluster = get(SharingScheme::ClusterByDomain);
    let indep = get(SharingScheme::IndependentModulation);
    assert!(cluster.data_mbps_total > coupled.data_mbps_total);
    assert!(indep.data_mbps_total > cluster.data_mbps_total);
    for (_, o) in &rows {
        assert!((0.0..=1.0).contains(&o.voice_satisfied));
        assert!(o.data_mbps_per_flow <= o.data_mbps_total);
    }
    // Decoupled schemes never downgrade a data flow for a co-located call.
    assert_eq!(indep.voice_satisfied, 1.0);
}

/// A voice-free population is unaffected by the scheme choice that exists
/// only to protect voice: every scheme yields full-rate data.
#[test]
fn schemes_agree_when_no_voice_is_present() {
    let loads = vec![DeviceLoad {
        voice: false,
        data: true,
    }];
    let outcomes: Vec<f64> = SharingScheme::ALL
        .iter()
        .map(|&s| scheduler::schedule(s, &loads, 1).data_mbps_total)
        .collect();
    assert!(outcomes.iter().all(|&x| (x - outcomes[0]).abs() < 1e-9));
    assert!(outcomes[0] > 0.0);
}
