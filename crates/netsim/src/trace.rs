//! The QXDM-style phone-side trace collector.
//!
//! §3.3: "we collect five types of information: (1) timestamp of the trace
//! item using the format of hh:mm:ss.ms, (2) trace type (e.g., STATE), (3)
//! network system (e.g., 3G or 4G), (4) the module generating the traces
//! (e.g., MM or CM/CC), and (5) the basic trace description."
//!
//! Beyond the five human-readable fields, every entry carries a typed
//! [`TraceEvent`] payload so downstream consumers — above all the
//! `monitor` crate's signature automata — can match on structure
//! (message kinds, state transitions, fault markers) instead of parsing
//! the free-form description string.

use std::fmt;

use serde::Serialize;

use cellstack::{NasMessage, Protocol, RatSystem};

use crate::inject::{Leg, NodeId};
use crate::time::SimTime;

/// Trace item category (field 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum TraceType {
    /// A protocol state change.
    State,
    /// A signaling message sent or received.
    Signaling,
    /// A radio-configuration change (e.g. the Figure 10 modulation events).
    RadioConfig,
    /// A measurement sample (throughput, RSSI).
    Measurement,
    /// A user action (dial, hangup, data toggle).
    UserAction,
    /// An injected fault (adversary drop/corruption, node outage/restart).
    Fault,
}

/// Call lifecycle phase, as observed at the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum CallPhase {
    /// The user dialed (MO) — CSFB fallback may still be ahead.
    Dialed,
    /// The network paged the device for an MT call.
    Incoming,
    /// The call connected end-to-end.
    Connected,
    /// The call was released.
    Released,
    /// Call setup failed before connecting.
    Failed,
}

/// A named cross-layer hazard the simulator detected — the observable
/// footprint of the paper's problematic instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum HazardKind {
    /// S1: a 3G→4G switch completed without a usable PDP context.
    S1ContextLoss,
    /// S4: a CM service request was HOL-blocked behind a location update.
    S4HolBlocked,
    /// S6: a 3G location-update failure was propagated into a 4G detach.
    S6FailurePropagated,
    /// An in-service device received a network-caused implicit detach.
    ImplicitDetach,
}

/// What an injected fault did to a message (or node).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum FaultKind {
    /// The message was silently dropped.
    Drop,
    /// The message was corrupted in flight and discarded (or semantically
    /// rejected) by the receiver.
    Corrupt,
    /// The message was held back and delivered out of order.
    Reorder {
        /// How long the message was held, ms.
        hold_ms: u64,
    },
    /// A core node restarted after an outage, losing volatile state.
    NodeRestart,
}

/// A typed fault record: which kind, on which leg, to which message.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct FaultEvent {
    /// What happened.
    pub kind: FaultKind,
    /// The signaling leg the message travelled (None for node faults).
    pub leg: Option<Leg>,
    /// The affected NAS message (None for node faults).
    pub msg: Option<NasMessage>,
    /// The restarted node (NodeRestart only).
    pub node: Option<NodeId>,
}

impl FaultEvent {
    /// A message-level fault on a signaling leg.
    pub fn on_leg(kind: FaultKind, leg: Leg, msg: NasMessage) -> Self {
        Self {
            kind,
            leg: Some(leg),
            msg: Some(msg),
            node: None,
        }
    }

    /// A node-restart fault.
    pub fn node_restart(node: NodeId) -> Self {
        Self {
            kind: FaultKind::NodeRestart,
            leg: None,
            msg: None,
            node: Some(node),
        }
    }

    /// Message direction, when the fault is tied to a leg.
    pub fn uplink(&self) -> Option<bool> {
        self.leg
            .map(|l| matches!(l, Leg::Ul4g | Leg::Ul3gCs | Leg::Ul3gPs))
    }

    /// The legacy human-readable description of this fault.
    pub fn describe(&self) -> String {
        let dir = match self.uplink() {
            Some(true) => "uplink",
            Some(false) => "downlink",
            None => "node",
        };
        match (&self.kind, &self.msg, &self.leg, &self.node) {
            (FaultKind::Drop, Some(m), Some(leg), _) => {
                format!("{dir} {} lost on {leg}", m.wire_name())
            }
            (FaultKind::Corrupt, Some(m), _, _) if self.uplink() == Some(true) => {
                format!("{dir} {} corrupted in flight", m.wire_name())
            }
            (FaultKind::Corrupt, Some(m), _, _) => {
                format!("{dir} {} corrupted; discarded by the device", m.wire_name())
            }
            (FaultKind::Reorder { hold_ms }, Some(m), _, _) => {
                format!("{dir} {} held {hold_ms} ms (reordered)", m.wire_name())
            }
            (FaultKind::NodeRestart, _, _, Some(node)) => {
                format!("node {node} restarted after outage (volatile state lost)")
            }
            _ => format!("{:?} fault", self.kind),
        }
    }
}

/// The typed payload of a trace entry — the machine-readable counterpart
/// to the free-form description (field 5).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub enum TraceEvent {
    /// No structured payload (legacy free-form entries).
    #[default]
    Note,
    /// A NAS message observed at an endpoint (core for uplink, device for
    /// downlink).
    Nas {
        /// Direction: true = device→core.
        uplink: bool,
        /// The message itself.
        msg: NasMessage,
    },
    /// Registration state changed.
    Registration {
        /// In service (attached) or out of service.
        registered: bool,
        /// The serving system when the change happened.
        system: RatSystem,
    },
    /// The device camped on a system (fallback, return, reselection,
    /// coverage mobility).
    CampedOn(RatSystem),
    /// Call lifecycle transition.
    Call(CallPhase),
    /// Shared-channel radio reconfiguration (Figure 10).
    RadioConfig {
        /// Whether 64QAM stays available on the shared channel.
        allow_64qam: bool,
    },
    /// A throughput measurement sample.
    Throughput {
        /// Uplink (true) or downlink sample.
        uplink: bool,
        /// Whether a CS voice call was active during the sample.
        with_call: bool,
        /// Achieved rate, kbps (integral — samples are deterministic).
        kbps: u64,
    },
    /// An injected fault.
    Fault(FaultEvent),
    /// A detected cross-layer hazard.
    Hazard(HazardKind),
}

/// One trace entry: the five fields of §3.3 plus the typed payload.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TraceEntry {
    /// (1) Timestamp.
    pub ts: SimTime,
    /// (2) Trace type.
    pub trace_type: TraceType,
    /// (3) Network system.
    pub system: RatSystem,
    /// (4) Originating module.
    pub module: Protocol,
    /// (5) Description.
    pub desc: String,
    /// Typed payload ([`TraceEvent::Note`] when none).
    pub event: TraceEvent,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {:>11} {} {:>6}  {}",
            self.ts.hhmmss(),
            format!("{:?}", self.trace_type).to_uppercase(),
            self.system,
            self.module.to_string(),
            self.desc
        )
    }
}

/// The collector: an append-only log with query helpers.
///
/// By default the log is unbounded (every entry is retained, as the
/// single-phone validation scenarios require). With a capacity set, the
/// collector becomes a ring buffer over the most recent `cap` entries:
/// older entries are evicted and only counted ([`Self::evicted`]), which
/// bounds per-UE memory in fleet runs. Eviction is amortized O(1) — the
/// backing vector compacts only once the dead prefix reaches half the
/// buffer. A capacity of `Some(0)` is *count-only* mode: nothing is ever
/// retained (every entry is evicted on arrival), and producers can skip
/// building entries at all by checking [`Self::is_recording`] — the
/// million-UE configuration, where per-UE rings would still be too big.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    entries: Vec<TraceEntry>,
    /// Index of the first live entry (dead prefix below it awaits compaction).
    start: usize,
    capacity: Option<usize>,
    evicted: u64,
    /// In-line monitoring tap (armed by the fleet when live verification
    /// is on): recorded entries are mirrored here, desc-less, *before*
    /// the retention bound applies.
    tap: Option<Vec<TraceEntry>>,
}

impl TraceCollector {
    /// An empty, unbounded collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector retaining at most `cap` entries (`None` =
    /// unbounded, `Some(0)` = count-only).
    pub fn with_capacity(cap: Option<usize>) -> Self {
        Self {
            capacity: cap,
            ..Self::default()
        }
    }

    /// Change the retention bound. Shrinking evicts the oldest entries
    /// immediately; `None` removes the bound (already-evicted entries stay
    /// evicted).
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap;
        self.enforce_capacity();
    }

    /// Whether recorded entries are retained at all. In count-only mode
    /// (`capacity == Some(0)`) producers may skip rendering descriptions —
    /// the collector would only bump [`Self::evicted`] anyway.
    pub fn is_recording(&self) -> bool {
        self.capacity != Some(0)
    }

    /// The configured retention bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// How many entries were evicted by the capacity bound over the whole
    /// run. `len() + evicted()` is the total ever recorded.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Arm the in-line monitoring tap. From now on every recorded entry
    /// is also appended — without its description, which no [`TraceEvent`]
    /// pattern inspects — to a side buffer that the fleet step loop
    /// drains into the per-lane signature automata. The tap sees entries
    /// *before* the retention bound applies, so monitors observe the
    /// identical event stream whether the collector is unbounded, a ring,
    /// or count-only.
    pub fn arm_tap(&mut self) {
        if self.tap.is_none() {
            self.tap = Some(Vec::new());
        }
    }

    /// The armed tap's pending entries, for draining (`None` when the tap
    /// is not armed).
    pub fn tap_mut(&mut self) -> Option<&mut Vec<TraceEntry>> {
        self.tap.as_mut()
    }

    fn tap_push(
        &mut self,
        ts: SimTime,
        trace_type: TraceType,
        system: RatSystem,
        module: Protocol,
        event: &TraceEvent,
    ) {
        if let Some(tap) = &mut self.tap {
            tap.push(TraceEntry {
                ts,
                trace_type,
                system,
                module,
                desc: String::new(),
                event: event.clone(),
            });
        }
    }

    fn enforce_capacity(&mut self) {
        if let Some(cap) = self.capacity {
            let live = self.entries.len() - self.start;
            if live > cap {
                let drop_n = live - cap;
                self.start += drop_n;
                self.evicted += drop_n as u64;
            }
        }
        // Amortized compaction: reclaim the dead prefix once it dominates.
        if self.start > 0 && self.start >= self.entries.len() / 2 {
            self.entries.drain(..self.start);
            self.start = 0;
            // After a large drain, keep the allocation proportional to the
            // live set rather than the historical peak.
            if self.entries.capacity() > 4 * (self.entries.len().max(16)) {
                self.entries.shrink_to_fit();
            }
        }
    }

    fn live(&self) -> &[TraceEntry] {
        &self.entries[self.start..]
    }

    /// Append an entry without a structured payload.
    pub fn record(
        &mut self,
        ts: SimTime,
        trace_type: TraceType,
        system: RatSystem,
        module: Protocol,
        desc: impl Into<String>,
    ) {
        self.record_event(ts, trace_type, system, module, desc, TraceEvent::Note);
    }

    /// Append an entry carrying a typed payload.
    pub fn record_event(
        &mut self,
        ts: SimTime,
        trace_type: TraceType,
        system: RatSystem,
        module: Protocol,
        desc: impl Into<String>,
        event: TraceEvent,
    ) {
        self.tap_push(ts, trace_type, system, module, &event);
        if self.capacity == Some(0) {
            // Count-only mode: the entry would be evicted immediately.
            self.evicted += 1;
            return;
        }
        self.entries.push(TraceEntry {
            ts,
            trace_type,
            system,
            module,
            desc: desc.into(),
            event,
        });
        self.enforce_capacity();
    }

    /// Append an entry whose description is built lazily: in count-only
    /// mode the closure is never called, so per-message hot paths skip
    /// the string formatting entirely while the eviction count stays
    /// exact.
    pub fn record_event_with<F: FnOnce() -> String>(
        &mut self,
        ts: SimTime,
        trace_type: TraceType,
        system: RatSystem,
        module: Protocol,
        event: TraceEvent,
        desc: F,
    ) {
        self.tap_push(ts, trace_type, system, module, &event);
        if self.capacity == Some(0) {
            self.evicted += 1;
            return;
        }
        self.entries.push(TraceEntry {
            ts,
            trace_type,
            system,
            module,
            desc: desc(),
            event,
        });
        self.enforce_capacity();
    }

    /// All retained entries in order (the most recent `capacity()` when
    /// bounded).
    pub fn entries(&self) -> &[TraceEntry] {
        self.live()
    }

    /// Entries whose description contains `needle`.
    pub fn find<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.live().iter().filter(move |e| e.desc.contains(needle))
    }

    /// First entry matching `needle`, if any.
    pub fn first(&self, needle: &str) -> Option<&TraceEntry> {
        self.live().iter().find(|e| e.desc.contains(needle))
    }

    /// Entries whose typed payload satisfies `pred`.
    pub fn find_event<'a, F>(&'a self, pred: F) -> impl Iterator<Item = &'a TraceEntry> + 'a
    where
        F: Fn(&TraceEvent) -> bool + 'a,
    {
        self.live().iter().filter(move |e| pred(&e.event))
    }

    /// First entry whose typed payload satisfies `pred`.
    pub fn first_event<F>(&self, pred: F) -> Option<&TraceEntry>
    where
        F: Fn(&TraceEvent) -> bool,
    {
        self.live().iter().find(|e| pred(&e.event))
    }

    /// NAS messages observed on the wire, with their entries.
    pub fn nas_messages(&self) -> impl Iterator<Item = (&TraceEntry, bool, &NasMessage)> {
        self.live().iter().filter_map(|e| match &e.event {
            TraceEvent::Nas { uplink, msg } => Some((e, *uplink, msg)),
            _ => None,
        })
    }

    /// Injected faults, with their entries.
    pub fn faults(&self) -> impl Iterator<Item = (&TraceEntry, &FaultEvent)> {
        self.live().iter().filter_map(|e| match &e.event {
            TraceEvent::Fault(f) => Some((e, f)),
            _ => None,
        })
    }

    /// Detected hazards, with their entries.
    pub fn hazards(&self) -> impl Iterator<Item = (&TraceEntry, HazardKind)> {
        self.live().iter().filter_map(|e| match e.event {
            TraceEvent::Hazard(h) => Some((e, h)),
            _ => None,
        })
    }

    /// Entries in the half-open time window `[from, to)`.
    pub fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &TraceEntry> {
        self.live()
            .iter()
            .filter(move |e| e.ts >= from && e.ts < to)
    }

    /// Render the whole log (the Figure 10 style dump).
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for e in self.live() {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }

    /// Serialize to JSON lines for offline analysis: one compact JSON
    /// object per retained entry, `\n`-separated, no trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// FNV-1a over exactly the bytes [`Self::to_jsonl`] returns, streamed
    /// into the hash without building the text — the fleet digest's pin on
    /// a UE's retained trace.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.write_jsonl(&mut h).expect("hashing cannot fail");
        h.finish()
    }

    fn write_jsonl(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for (i, e) in self.live().iter().enumerate() {
            if i > 0 {
                out.write_char('\n')?;
            }
            e.serialize(&mut serde::Writer::compact(&mut *out))?;
        }
        Ok(())
    }

    /// Resident bytes of the collector's backing storage (entry headers
    /// plus retained description strings) — read by the fleet kernel's
    /// bytes/UE accounting.
    pub fn resident_bytes_estimate(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<TraceEntry>()
            + self.live().iter().map(|e| e.desc.capacity()).sum::<usize>()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.start
    }

    /// No entries retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// 64-bit FNV-1a over the text written into it: a [`fmt::Write`] sink, so
/// text is hashed as it is formatted instead of being built first.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of everything written so far.
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellstack::UpdateKind;

    fn sample() -> TraceCollector {
        let mut t = TraceCollector::new();
        t.record_event(
            SimTime::from_millis(1_234),
            TraceType::Signaling,
            RatSystem::Utran3g,
            Protocol::Mm,
            "Location Updating Request",
            TraceEvent::Nas {
                uplink: true,
                msg: NasMessage::UpdateRequest(UpdateKind::LocationArea),
            },
        );
        t.record_event(
            SimTime::from_secs(2),
            TraceType::RadioConfig,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            "64QAM disabled during CS voice call",
            TraceEvent::RadioConfig { allow_64qam: false },
        );
        t
    }

    #[test]
    fn records_five_fields() {
        let t = sample();
        let e = &t.entries()[0];
        assert_eq!(e.ts.hhmmss(), "00:00:01.234");
        assert_eq!(e.trace_type, TraceType::Signaling);
        assert_eq!(e.system, RatSystem::Utran3g);
        assert_eq!(e.module, Protocol::Mm);
        assert!(e.desc.contains("Location Updating"));
    }

    #[test]
    fn display_contains_timestamp_and_module() {
        let t = sample();
        let line = t.entries()[0].to_string();
        assert!(line.starts_with("00:00:01.234"));
        assert!(line.contains("MM"));
        assert!(line.contains("3G"));
    }

    #[test]
    fn find_and_first() {
        let t = sample();
        assert_eq!(t.find("64QAM").count(), 1);
        assert!(t.first("64QAM").is_some());
        assert!(t.first("nonexistent").is_none());
    }

    #[test]
    fn record_defaults_to_note() {
        let mut t = TraceCollector::new();
        t.record(
            SimTime::from_secs(1),
            TraceType::State,
            RatSystem::Lte4g,
            Protocol::Emm,
            "free-form",
        );
        assert_eq!(t.entries()[0].event, TraceEvent::Note);
    }

    #[test]
    fn find_event_matches_typed_payload() {
        let t = sample();
        assert_eq!(
            t.find_event(|e| matches!(e, TraceEvent::Nas { uplink: true, .. }))
                .count(),
            1
        );
        assert!(t
            .first_event(|e| matches!(e, TraceEvent::RadioConfig { allow_64qam: false }))
            .is_some());
        assert!(t
            .first_event(|e| matches!(e, TraceEvent::Hazard(_)))
            .is_none());
    }

    #[test]
    fn nas_messages_yields_direction_and_message() {
        let t = sample();
        let all: Vec<_> = t.nas_messages().collect();
        assert_eq!(all.len(), 1);
        let (entry, uplink, msg) = all[0];
        assert_eq!(entry.ts, SimTime::from_millis(1_234));
        assert!(uplink);
        assert_eq!(msg.wire_name(), "Location Updating Request");
    }

    #[test]
    fn faults_and_hazards_query_typed_entries() {
        let mut t = sample();
        t.record_event(
            SimTime::from_secs(3),
            TraceType::Fault,
            RatSystem::Lte4g,
            Protocol::Rrc4g,
            "uplink Attach Complete lost on ul-4g",
            TraceEvent::Fault(FaultEvent::on_leg(
                FaultKind::Drop,
                Leg::Ul4g,
                NasMessage::AttachComplete,
            )),
        );
        t.record_event(
            SimTime::from_secs(4),
            TraceType::State,
            RatSystem::Lte4g,
            Protocol::Emm,
            "implicit detach",
            TraceEvent::Hazard(HazardKind::ImplicitDetach),
        );
        let faults: Vec<_> = t.faults().collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].1.kind, FaultKind::Drop);
        assert_eq!(faults[0].1.uplink(), Some(true));
        let hazards: Vec<_> = t.hazards().collect();
        assert_eq!(hazards.len(), 1);
        assert_eq!(hazards[0].1, HazardKind::ImplicitDetach);
    }

    #[test]
    fn fault_event_describe_matches_legacy_strings() {
        let f = FaultEvent::on_leg(FaultKind::Drop, Leg::Dl3gCs, NasMessage::CallConnect);
        assert_eq!(f.describe(), "downlink Connect lost on dl-3g-cs");
        let r = FaultEvent::on_leg(
            FaultKind::Reorder { hold_ms: 250 },
            Leg::Ul4g,
            NasMessage::AttachComplete,
        );
        assert_eq!(
            r.describe(),
            "uplink Attach Complete held 250 ms (reordered)"
        );
        let n = FaultEvent::node_restart(NodeId::Mme);
        assert_eq!(
            n.describe(),
            "node mme restarted after outage (volatile state lost)"
        );
    }

    #[test]
    fn between_filters_half_open_window() {
        let t = sample();
        assert_eq!(
            t.between(SimTime::from_millis(1_000), SimTime::from_secs(2))
                .count(),
            1
        );
        assert_eq!(
            t.between(SimTime::from_millis(0), SimTime::from_secs(10))
                .count(),
            2
        );
    }

    #[test]
    fn jsonl_roundtrips() {
        let t = sample();
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for (line, entry) in jsonl.lines().zip(t.entries()) {
            let back = serde_json::from_str(line).unwrap();
            assert_eq!(serde_json::to_string(&back).unwrap(), line);
            assert_eq!(serde_json::to_string(entry).unwrap(), line);
        }
    }

    #[test]
    fn dump_one_line_per_entry() {
        let t = sample();
        assert_eq!(t.dump().lines().count(), 2);
    }

    fn push_note(t: &mut TraceCollector, i: u64) {
        t.record(
            SimTime::from_millis(i),
            TraceType::State,
            RatSystem::Lte4g,
            Protocol::Emm,
            format!("entry {i}"),
        );
    }

    #[test]
    fn capacity_retains_most_recent_and_counts_evictions() {
        let mut t = TraceCollector::with_capacity(Some(100));
        for i in 0..1_000 {
            push_note(&mut t, i);
            assert!(t.len() <= 100, "bound holds at every step");
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.evicted(), 900);
        assert_eq!(t.entries()[0].desc, "entry 900");
        assert_eq!(t.entries()[99].desc, "entry 999");
        assert!(t.first("entry 899").is_none(), "evicted entries are gone");
        assert_eq!(
            t.between(SimTime::from_millis(0), SimTime::from_secs(60))
                .count(),
            100
        );
    }

    #[test]
    fn default_is_unbounded_with_zero_evictions() {
        let mut t = TraceCollector::new();
        for i in 0..5_000 {
            push_note(&mut t, i);
        }
        assert_eq!(t.len(), 5_000);
        assert_eq!(t.evicted(), 0);
        assert_eq!(t.capacity(), None);
    }

    #[test]
    fn set_capacity_shrinks_immediately_and_lifting_keeps_history() {
        let mut t = TraceCollector::new();
        for i in 0..50 {
            push_note(&mut t, i);
        }
        t.set_capacity(Some(10));
        assert_eq!(t.len(), 10);
        assert_eq!(t.evicted(), 40);
        assert_eq!(t.entries()[0].desc, "entry 40");
        t.set_capacity(None);
        push_note(&mut t, 50);
        assert_eq!(t.len(), 11, "unbounded again, evictions stay counted");
        assert_eq!(t.evicted(), 40);
    }

    #[test]
    fn count_only_mode_retains_nothing_but_counts_everything() {
        let mut t = TraceCollector::with_capacity(Some(0));
        assert!(!t.is_recording());
        for i in 0..1_000 {
            push_note(&mut t, i);
        }
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 1_000);
        assert_eq!(t.entries.capacity(), 0, "count-only mode never allocates");
        // A real ring still reports itself as recording.
        assert!(TraceCollector::with_capacity(Some(8)).is_recording());
        assert!(TraceCollector::new().is_recording());
    }

    #[test]
    fn bounded_churn_keeps_backing_memory_steady() {
        let mut t = TraceCollector::with_capacity(Some(64));
        let mut peak = 0;
        for i in 0..100_000 {
            push_note(&mut t, i);
            peak = peak.max(t.entries.capacity());
        }
        assert!(
            peak <= 64 * 4 + 16,
            "backing vector must stay proportional to the bound, peaked at {peak}"
        );
    }
}
