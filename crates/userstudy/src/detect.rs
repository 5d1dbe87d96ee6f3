//! §7 detectors: signature automata over the fleet's phone-side traces.
//!
//! The paper's user study post-processes the volunteers' modem logs to
//! count instance occurrences ("we check whether there is any location
//! area update done in 1.2 s right after the outgoing call starts"). This
//! module does the same over the *real* per-UE traces a
//! [`netsim::FleetSim`] run produces: every occurrence is a confirmed
//! match of a [`monitor::Signature`] against the trace stream — no
//! occurrence is ever drawn from a hazard rate.
//!
//! S1, S2 and S4 reuse the validation-phase hand signatures
//! ([`monitor::compile`]); S3 is counted from the evidence spans of the
//! S3 signature (the stuck-in-3G gap is the span between the release and
//! the 4G return); S5 uses the study-specific overlap signature
//! [`s5_overlap`], which confirms a call whose shared channel dropped to
//! 16QAM while data traffic was observed mid-call; S6 uses [`s6_detach`],
//! which covers both carriers' failure shapes.

use cellstack::RatSystem;
use monitor::{MatchedEvent, Pattern, Signature};
use netsim::trace::{CallPhase, HazardKind, TraceEntry};
use netsim::SimTime;

/// The §7 S5 counting rule as a signature: voice takes the shared channel
/// (64QAM disabled) and a data transfer is observed before the call ends.
/// A call without mid-call traffic refutes on the release, so repeated
/// counting stays aligned to call boundaries.
pub fn s5_overlap() -> Signature {
    Signature::new("S5-study")
        .step(
            "voice-takes-channel",
            Pattern::RadioConfig {
                allow_64qam: Some(false),
            },
        )
        .step(
            "data-during-call",
            Pattern::Throughput {
                uplink: None,
                with_call: Some(true),
                below_kbps: None,
                at_least_kbps: None,
            },
        )
        .forbid_while(Pattern::call(CallPhase::Released))
}

/// The §7 S6 counting rule as a signature: a post-call location update
/// fails and the failure is propagated across systems, detaching an
/// in-service device on 4G.
///
/// The validation-phase hand signature ([`monitor::compile::s6`]) forbids
/// "Location Updating Accept" globally — that encodes the OP-I shape,
/// where the deferred device-initiated update never completes. On OP-II
/// the *first* update completes normally and the conflict comes from the
/// network-side second update relayed MME→MSC after the return, so an
/// Accept between the request and the hazard is part of the genuine
/// occurrence, not a refutation. The study variant drops the forbid and
/// instead bounds the chain with a deadline, so a benign call's pending
/// prefix cannot swallow a failure from a much later episode.
pub fn s6_detach() -> Signature {
    Signature::new("S6-study")
        .step("call-released", Pattern::call(CallPhase::Released))
        .step(
            "post-call-update",
            Pattern::nas_up("Location Updating Request"),
        )
        .timed_step(
            "failure-propagated",
            Pattern::hazard(HazardKind::S6FailurePropagated),
            monitor::compile::LAU_CHAIN_DEADLINE_MS,
        )
        .step(
            "network-detach-on-4g",
            Pattern::nas_down("Detach Request (network)").on(RatSystem::Lte4g),
        )
        .step("deregistered", Pattern::registration(false))
}

/// One S3 episode recovered from the trace: when the CSFB call was
/// released and when the phone was back on 4G. The difference is the
/// Table 6 "duration in 3G after the CSFB call ends".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StuckEpisode {
    /// The call-released timestamp.
    pub released: SimTime,
    /// The camped-on-LTE timestamp of the return.
    pub returned: SimTime,
}

impl StuckEpisode {
    /// Time spent in 3G after the call ended, ms.
    pub fn stuck_ms(&self) -> u64 {
        self.returned.since(self.released)
    }
}

/// Turn confirmed S3 evidence spans into [`StuckEpisode`]s: one per CSFB
/// call → eventual 4G return. The study reads the spans off the fleet's
/// in-line banks (`netsim::LiveCounts::spans`); the post-hoc scan
/// (`monitor::collect_spans`) carries the same matched-step names and
/// serves as the oracle in tests.
pub fn episodes_from_spans(spans: &[Vec<MatchedEvent>]) -> Vec<StuckEpisode> {
    spans
        .iter()
        .filter_map(|span| {
            let released = span
                .iter()
                .find(|m| m.step == "call-released")
                .map(|m| m.ts)?;
            let returned = span
                .iter()
                .find(|m| m.step == "returned-to-4g")
                .map(|m| m.ts)?;
            Some(StuckEpisode { released, returned })
        })
        .collect()
}

/// The first downlink mid-call throughput sample in `[from, to]`, kbps —
/// the rate the S5-affected data actually achieved.
pub fn dl_rate_during_call(entries: &[TraceEntry], from: SimTime, to: SimTime) -> Option<u64> {
    entries.iter().find_map(|e| {
        if e.ts < from || e.ts > to {
            return None;
        }
        match e.event {
            netsim::trace::TraceEvent::Throughput {
                uplink: false,
                with_call: true,
                kbps,
            } => Some(kbps),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstack::{Protocol, RatSystem};
    use monitor::{collect_spans, compile};
    use netsim::trace::{TraceCollector, TraceEvent, TraceType};

    fn record(t: &mut TraceCollector, at_ms: u64, event: TraceEvent) {
        t.record_event(
            SimTime::from_millis(at_ms),
            TraceType::State,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            "synthetic",
            event,
        );
    }

    fn cs_call(t: &mut TraceCollector, at_ms: u64, with_data_sample: bool) {
        record(t, at_ms, TraceEvent::Call(CallPhase::Dialed));
        record(
            t,
            at_ms + 1_000,
            TraceEvent::RadioConfig { allow_64qam: false },
        );
        record(t, at_ms + 1_000, TraceEvent::Call(CallPhase::Connected));
        if with_data_sample {
            record(
                t,
                at_ms + 5_000,
                TraceEvent::Throughput {
                    uplink: false,
                    with_call: true,
                    kbps: 480,
                },
            );
        }
        record(
            t,
            at_ms + 30_000,
            TraceEvent::RadioConfig { allow_64qam: true },
        );
        record(t, at_ms + 30_000, TraceEvent::Call(CallPhase::Released));
    }

    #[test]
    fn s5_overlap_counts_only_calls_with_midcall_traffic() {
        let mut t = TraceCollector::new();
        cs_call(&mut t, 10_000, true);
        cs_call(&mut t, 100_000, false); // refutes on the release
        cs_call(&mut t, 200_000, true);
        let n = collect_spans(&s5_overlap(), t.entries()).len();
        assert_eq!(n, 2);
    }

    #[test]
    fn s3_episodes_measure_release_to_return_gaps() {
        let mut t = TraceCollector::new();
        for (i, stuck) in [4_000u64, 42_000].iter().enumerate() {
            let base = 1_000_000 * (i as u64 + 1);
            record(&mut t, base, TraceEvent::CampedOn(RatSystem::Utran3g));
            record(&mut t, base + 8_000, TraceEvent::Call(CallPhase::Connected));
            record(&mut t, base + 60_000, TraceEvent::Call(CallPhase::Released));
            record(
                &mut t,
                base + 60_000 + stuck,
                TraceEvent::CampedOn(RatSystem::Lte4g),
            );
        }
        let eps = episodes_from_spans(&collect_spans(&compile::s3(), t.entries()));
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].stuck_ms(), 4_000);
        assert_eq!(eps[1].stuck_ms(), 42_000);
    }

    #[test]
    fn s6_detach_confirms_both_carrier_shapes() {
        use cellstack::{EmmCause, NasMessage, UpdateKind};
        let lau_req = TraceEvent::Nas {
            uplink: true,
            msg: NasMessage::UpdateRequest(UpdateKind::LocationArea),
        };
        let lau_acc = TraceEvent::Nas {
            uplink: false,
            msg: NasMessage::UpdateAccept(UpdateKind::LocationArea),
        };
        let detach = TraceEvent::Nas {
            uplink: false,
            msg: NasMessage::NetworkDetach(EmmCause::MscTemporarilyNotReachable),
        };
        let on_4g = |t: &mut TraceCollector, at_ms: u64, event: TraceEvent| {
            t.record_event(
                SimTime::from_millis(at_ms),
                TraceType::Signaling,
                RatSystem::Lte4g,
                Protocol::Emm,
                "synthetic",
                event,
            );
        };
        let mut t = TraceCollector::new();
        // Benign call: the update completes and nothing propagates.
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Released));
        record(&mut t, 10_100, lau_req.clone());
        record(&mut t, 12_000, lau_acc.clone());
        // Interim chatter; the benign prefix's deadline expires here.
        record(&mut t, 700_000, TraceEvent::CampedOn(RatSystem::Lte4g));
        // OP-II shape: the completed first update must not refute.
        record(&mut t, 900_000, TraceEvent::Call(CallPhase::Released));
        record(&mut t, 900_100, lau_req.clone());
        record(&mut t, 902_000, lau_acc);
        on_4g(
            &mut t,
            930_000,
            TraceEvent::Hazard(HazardKind::S6FailurePropagated),
        );
        on_4g(&mut t, 930_100, detach.clone());
        on_4g(
            &mut t,
            930_100,
            TraceEvent::Registration {
                registered: false,
                system: RatSystem::Lte4g,
            },
        );
        // OP-I shape: the deferred update is disrupted, never accepted.
        record(&mut t, 1_800_000, TraceEvent::Call(CallPhase::Released));
        record(&mut t, 1_800_100, lau_req);
        on_4g(
            &mut t,
            1_801_000,
            TraceEvent::Hazard(HazardKind::S6FailurePropagated),
        );
        on_4g(&mut t, 1_801_100, detach);
        on_4g(
            &mut t,
            1_801_100,
            TraceEvent::Registration {
                registered: false,
                system: RatSystem::Lte4g,
            },
        );
        let n = collect_spans(&s6_detach(), t.entries()).len();
        assert_eq!(n, 2, "one OP-II conflict + one OP-I disruption");
    }

    #[test]
    fn dl_rate_window_is_inclusive_and_ordered() {
        let mut t = TraceCollector::new();
        cs_call(&mut t, 10_000, true);
        let rate = dl_rate_during_call(
            t.entries(),
            SimTime::from_millis(10_000),
            SimTime::from_millis(40_000),
        );
        assert_eq!(rate, Some(480));
        let miss = dl_rate_during_call(
            t.entries(),
            SimTime::from_millis(16_000),
            SimTime::from_millis(40_000),
        );
        assert_eq!(miss, None);
    }
}
