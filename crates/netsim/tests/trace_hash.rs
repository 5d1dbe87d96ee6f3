//! The fleet digest's pin on a UE's retained trace:
//! `TraceCollector::content_hash` must be FNV-1a over exactly the bytes
//! `to_jsonl` returns, for every payload shape, every retention mode and
//! descriptions that need JSON escaping.

use proptest::prelude::*;

use cellstack::{NasMessage, Protocol, RatSystem, UpdateKind};
use netsim::{
    CallPhase, FaultEvent, FaultKind, HazardKind, Leg, NodeId, SimTime, TraceCollector, TraceEvent,
    TraceType,
};

/// Reference FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Number of payload shapes [`event`] cycles through.
const SHAPES: u64 = 13;

/// A payload of shape `k % SHAPES`, covering every `TraceEvent` variant and
/// every `FaultKind`; the higher bits of `k` fill the variant's fields.
fn event(k: u64) -> TraceEvent {
    let bit = |i: u32| k >> (8 + i) & 1 == 1;
    match k % SHAPES {
        0 => TraceEvent::Note,
        1 => TraceEvent::Nas {
            uplink: bit(0),
            msg: NasMessage::UpdateRequest(UpdateKind::LocationArea),
        },
        2 => TraceEvent::Nas {
            uplink: bit(0),
            msg: NasMessage::AttachRequest {
                system: RatSystem::Lte4g,
            },
        },
        3 => TraceEvent::Registration {
            registered: bit(0),
            system: RatSystem::Utran3g,
        },
        4 => TraceEvent::CampedOn(if bit(0) {
            RatSystem::Lte4g
        } else {
            RatSystem::Utran3g
        }),
        5 => TraceEvent::Call(
            [
                CallPhase::Dialed,
                CallPhase::Incoming,
                CallPhase::Connected,
                CallPhase::Released,
                CallPhase::Failed,
            ][(k >> 8) as usize % 5],
        ),
        6 => TraceEvent::RadioConfig {
            allow_64qam: bit(0),
        },
        7 => TraceEvent::Throughput {
            uplink: bit(0),
            with_call: bit(1),
            kbps: k >> 16,
        },
        8 => TraceEvent::Fault(FaultEvent::on_leg(
            FaultKind::Drop,
            Leg::Ul4g,
            NasMessage::AttachComplete,
        )),
        9 => TraceEvent::Fault(FaultEvent::on_leg(
            FaultKind::Corrupt,
            Leg::Dl3gPs,
            NasMessage::UpdateAccept(UpdateKind::RoutingArea),
        )),
        10 => TraceEvent::Fault(FaultEvent::on_leg(
            FaultKind::Reorder { hold_ms: k >> 16 },
            Leg::Dl3gCs,
            NasMessage::CallConnect,
        )),
        11 => TraceEvent::Fault(FaultEvent::node_restart(NodeId::Mme)),
        _ => TraceEvent::Hazard(
            [
                HazardKind::S1ContextLoss,
                HazardKind::S4HolBlocked,
                HazardKind::S6FailurePropagated,
                HazardKind::ImplicitDetach,
            ][(k >> 8) as usize % 4],
        ),
    }
}

/// Descriptions that need no escaping, and ones with quotes, backslashes,
/// control characters and non-ASCII text.
const DESCS: [&str; 6] = [
    "Location Updating Request",
    "say \"hi\"",
    "C:\\path\\",
    "tab\tnl\ncr\r soh\u{1} us\u{1f} del\u{7f}",
    "é → 🙂 ü",
    "",
];

const TYPES: [TraceType; 6] = [
    TraceType::State,
    TraceType::Signaling,
    TraceType::RadioConfig,
    TraceType::Measurement,
    TraceType::UserAction,
    TraceType::Fault,
];

const MODULES: [Protocol; 4] = [Protocol::Mm, Protocol::Emm, Protocol::CmCc, Protocol::Rrc3g];

fn record(t: &mut TraceCollector, ts: u64, desc: usize, k: u64) {
    t.record_event(
        SimTime::from_millis(ts),
        TYPES[(k >> 4) as usize % TYPES.len()],
        if k >> 7 & 1 == 1 {
            RatSystem::Lte4g
        } else {
            RatSystem::Utran3g
        },
        MODULES[(k >> 5) as usize % MODULES.len()],
        DESCS[desc],
        event(k),
    );
}

/// The hash property, plus: each line is valid JSON that re-renders
/// byte-identically and is its entry's JSON.
fn check(t: &TraceCollector) -> Result<(), TestCaseError> {
    let jsonl = t.to_jsonl();
    prop_assert_eq!(t.content_hash(), fnv1a(jsonl.as_bytes()));
    prop_assert_eq!(jsonl.lines().count(), t.len());
    for (line, entry) in jsonl.lines().zip(t.entries()) {
        let back = serde_json::from_str(line).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), line);
        prop_assert_eq!(serde_json::to_string(entry).unwrap(), line);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Unbounded (`mode` 0), ring-evicted (1) and count-only (2)
    /// collectors over arbitrary entry streams.
    #[test]
    fn content_hash_is_fnv1a_of_to_jsonl(
        entries in collection::vec((0u64..1_000_000_000, 0usize..DESCS.len(), any::<u64>()), 0..60),
        mode in 0u8..3,
        ring in 1usize..16,
    ) {
        let cap = [None, Some(ring), Some(0)][mode as usize];
        let mut t = TraceCollector::with_capacity(cap);
        for &(ts, desc, k) in &entries {
            record(&mut t, ts, desc, k);
        }
        prop_assert_eq!(t.len() as u64 + t.evicted(), entries.len() as u64);
        check(&t)?;
    }
}

#[test]
fn every_shape_and_description_hashes_its_jsonl() {
    let mut t = TraceCollector::new();
    for k in 0..SHAPES * 8 {
        record(
            &mut t,
            k * 1_000,
            (k as usize) % DESCS.len(),
            k | (k << 8) | (k << 16),
        );
    }
    check(&t).unwrap();
    // One entry at a time, too: no separator before the first line.
    for e in t.entries() {
        let mut one = TraceCollector::new();
        one.record_event(
            e.ts,
            e.trace_type,
            e.system,
            e.module,
            e.desc.clone(),
            e.event.clone(),
        );
        check(&one).unwrap();
    }
}

#[test]
fn empty_and_count_only_collectors_hash_the_empty_string() {
    let mut count_only = TraceCollector::with_capacity(Some(0));
    for k in 0..SHAPES {
        record(&mut count_only, k, 0, k);
    }
    assert_eq!(count_only.evicted(), SHAPES);
    for t in [TraceCollector::new(), count_only] {
        assert_eq!(t.to_jsonl(), "");
        assert_eq!(t.content_hash(), fnv1a(b""));
    }
}
