//! Patterns over typed trace events.
//!
//! A [`Pattern`] is one arc label of a signature automaton: it matches (or
//! not) a single [`TraceEntry`] by inspecting the typed
//! [`TraceEvent`] payload. Every field is optional — `None` is a wildcard —
//! so one pattern can be as loose as "any NAS message" or as tight as
//! "the Location Updating Accept delivered downlink on 3G".

use crate::trace::{CallPhase, FaultKind, HazardKind, TraceEntry, TraceEvent};
use cellstack::{MsgClass, RatSystem};

/// Coarse fault category, used to match [`FaultKind`] regardless of
/// payload details like reorder hold times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Message silently dropped.
    Drop,
    /// Message corrupted in flight.
    Corrupt,
    /// Message reordered (held back).
    Reorder,
    /// Core node restarted, volatile state lost.
    NodeRestart,
}

impl FaultClass {
    fn matches(self, kind: &FaultKind) -> bool {
        matches!(
            (self, kind),
            (FaultClass::Drop, FaultKind::Drop)
                | (FaultClass::Corrupt, FaultKind::Corrupt)
                | (FaultClass::Reorder, FaultKind::Reorder { .. })
                | (FaultClass::NodeRestart, FaultKind::NodeRestart)
        )
    }
}

/// A matcher over one trace entry. `None` fields are wildcards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Matches any entry.
    Any,
    /// A NAS message on the wire.
    Nas {
        /// Direction (true = device→core).
        uplink: Option<bool>,
        /// Exact 3GPP wire name (`NasMessage::wire_name`).
        wire: Option<String>,
        /// Message class.
        class: Option<MsgClass>,
        /// System the message was observed on.
        system: Option<RatSystem>,
    },
    /// Registration state change.
    Registration {
        /// In service / out of service.
        registered: Option<bool>,
        /// Serving system at the change.
        system: Option<RatSystem>,
    },
    /// The device camped on a system.
    CampedOn(RatSystem),
    /// Call lifecycle transition.
    Call(CallPhase),
    /// Shared-channel radio reconfiguration.
    RadioConfig {
        /// Whether 64QAM stays allowed.
        allow_64qam: Option<bool>,
    },
    /// A throughput sample within bounds.
    Throughput {
        /// Direction.
        uplink: Option<bool>,
        /// Whether a CS call was active.
        with_call: Option<bool>,
        /// Match only samples strictly below this rate.
        below_kbps: Option<u64>,
        /// Match only samples at or above this rate.
        at_least_kbps: Option<u64>,
    },
    /// An injected fault.
    Fault {
        /// Fault category.
        class: Option<FaultClass>,
        /// Direction of the faulted message.
        uplink: Option<bool>,
        /// Class of the faulted NAS message.
        msg_class: Option<MsgClass>,
    },
    /// A detected cross-layer hazard.
    Hazard(HazardKind),
}

fn opt<T: PartialEq>(want: &Option<T>, got: &T) -> bool {
    want.as_ref().is_none_or(|w| w == got)
}

impl Pattern {
    /// Whether this pattern matches `entry`.
    pub fn matches(&self, entry: &TraceEntry) -> bool {
        match (self, &entry.event) {
            (Pattern::Any, _) => true,
            (
                Pattern::Nas {
                    uplink,
                    wire,
                    class,
                    system,
                },
                TraceEvent::Nas {
                    uplink: got_up,
                    msg,
                },
            ) => {
                opt(uplink, got_up)
                    && wire.as_ref().is_none_or(|w| w == msg.wire_name())
                    && class.as_ref().is_none_or(|c| *c == msg.class())
                    && opt(system, &entry.system)
            }
            (
                Pattern::Registration { registered, system },
                TraceEvent::Registration {
                    registered: got_reg,
                    system: got_sys,
                },
            ) => opt(registered, got_reg) && opt(system, got_sys),
            (Pattern::CampedOn(want), TraceEvent::CampedOn(got)) => want == got,
            (Pattern::Call(want), TraceEvent::Call(got)) => want == got,
            (
                Pattern::RadioConfig { allow_64qam },
                TraceEvent::RadioConfig {
                    allow_64qam: got_allow,
                },
            ) => opt(allow_64qam, got_allow),
            (
                Pattern::Throughput {
                    uplink,
                    with_call,
                    below_kbps,
                    at_least_kbps,
                },
                TraceEvent::Throughput {
                    uplink: got_up,
                    with_call: got_wc,
                    kbps,
                },
            ) => {
                opt(uplink, got_up)
                    && opt(with_call, got_wc)
                    && below_kbps.is_none_or(|b| *kbps < b)
                    && at_least_kbps.is_none_or(|a| *kbps >= a)
            }
            (
                Pattern::Fault {
                    class,
                    uplink,
                    msg_class,
                },
                TraceEvent::Fault(f),
            ) => {
                class.is_none_or(|c| c.matches(&f.kind))
                    && uplink.is_none_or(|u| f.uplink() == Some(u))
                    && msg_class
                        .as_ref()
                        .is_none_or(|mc| f.msg.as_ref().map(|m| m.class()) == Some(*mc))
            }
            (Pattern::Hazard(want), TraceEvent::Hazard(got)) => want == got,
            _ => false,
        }
    }

    // -- convenience constructors ---------------------------------------

    /// Any NAS message with this wire name, either direction.
    pub fn nas(wire: &str) -> Self {
        Pattern::Nas {
            uplink: None,
            wire: Some(wire.to_string()),
            class: None,
            system: None,
        }
    }

    /// Uplink NAS message with this wire name.
    pub fn nas_up(wire: &str) -> Self {
        Pattern::Nas {
            uplink: Some(true),
            wire: Some(wire.to_string()),
            class: None,
            system: None,
        }
    }

    /// Downlink NAS message with this wire name.
    pub fn nas_down(wire: &str) -> Self {
        Pattern::Nas {
            uplink: Some(false),
            wire: Some(wire.to_string()),
            class: None,
            system: None,
        }
    }

    /// Restrict a `Nas` or `Registration` pattern to a system; no-op for
    /// other variants.
    pub fn on(mut self, sys: RatSystem) -> Self {
        match &mut self {
            Pattern::Nas { system, .. } | Pattern::Registration { system, .. } => {
                *system = Some(sys);
            }
            _ => {}
        }
        self
    }

    /// Registration flips to `registered`.
    pub fn registration(registered: bool) -> Self {
        Pattern::Registration {
            registered: Some(registered),
            system: None,
        }
    }

    /// Camped on `sys`.
    pub fn camped_on(sys: RatSystem) -> Self {
        Pattern::CampedOn(sys)
    }

    /// Call phase transition.
    pub fn call(phase: CallPhase) -> Self {
        Pattern::Call(phase)
    }

    /// Uplink throughput sample strictly below `kbps` during a call.
    pub fn ul_in_call_below(kbps: u64) -> Self {
        Pattern::Throughput {
            uplink: Some(true),
            with_call: Some(true),
            below_kbps: Some(kbps),
            at_least_kbps: None,
        }
    }

    /// Uplink throughput sample at or above `kbps` during a call.
    pub fn ul_in_call_at_least(kbps: u64) -> Self {
        Pattern::Throughput {
            uplink: Some(true),
            with_call: Some(true),
            below_kbps: None,
            at_least_kbps: Some(kbps),
        }
    }

    /// An injected fault of `class` in the given direction.
    pub fn fault(class: FaultClass, uplink: Option<bool>) -> Self {
        Pattern::Fault {
            class: Some(class),
            uplink,
            msg_class: None,
        }
    }

    /// A detected hazard.
    pub fn hazard(kind: HazardKind) -> Self {
        Pattern::Hazard(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceCollector, TraceType};
    use crate::SimTime;
    use cellstack::{NasMessage, Protocol, UpdateKind};

    fn entry(event: TraceEvent) -> TraceEntry {
        let mut t = TraceCollector::new();
        t.record_event(
            SimTime::from_secs(1),
            TraceType::Signaling,
            RatSystem::Utran3g,
            Protocol::Mm,
            "test",
            event,
        );
        t.entries()[0].clone()
    }

    #[test]
    fn wildcards_match_anything() {
        assert!(Pattern::Any.matches(&entry(TraceEvent::Note)));
        assert!(Pattern::Any.matches(&entry(TraceEvent::CampedOn(RatSystem::Lte4g))));
    }

    #[test]
    fn nas_fields_narrow_the_match() {
        let e = entry(TraceEvent::Nas {
            uplink: true,
            msg: NasMessage::UpdateRequest(UpdateKind::LocationArea),
        });
        assert!(Pattern::nas("Location Updating Request").matches(&e));
        assert!(Pattern::nas_up("Location Updating Request").matches(&e));
        assert!(!Pattern::nas_down("Location Updating Request").matches(&e));
        assert!(!Pattern::nas_up("Attach Request").matches(&e));
        assert!(Pattern::nas_up("Location Updating Request")
            .on(RatSystem::Utran3g)
            .matches(&e));
        assert!(!Pattern::nas_up("Location Updating Request")
            .on(RatSystem::Lte4g)
            .matches(&e));
    }

    #[test]
    fn throughput_bounds() {
        let low = entry(TraceEvent::Throughput {
            uplink: true,
            with_call: true,
            kbps: 300,
        });
        let high = entry(TraceEvent::Throughput {
            uplink: true,
            with_call: true,
            kbps: 2_000,
        });
        assert!(Pattern::ul_in_call_below(1_000).matches(&low));
        assert!(!Pattern::ul_in_call_below(1_000).matches(&high));
        assert!(Pattern::ul_in_call_at_least(1_500).matches(&high));
        assert!(!Pattern::ul_in_call_at_least(1_500).matches(&low));
    }

    #[test]
    fn fault_class_ignores_payload_details() {
        use crate::inject::Leg;
        use crate::trace::FaultEvent;
        let e = entry(TraceEvent::Fault(FaultEvent::on_leg(
            FaultKind::Reorder { hold_ms: 250 },
            Leg::Ul4g,
            NasMessage::AttachComplete,
        )));
        assert!(Pattern::fault(FaultClass::Reorder, Some(true)).matches(&e));
        assert!(!Pattern::fault(FaultClass::Drop, Some(true)).matches(&e));
        assert!(!Pattern::fault(FaultClass::Reorder, Some(false)).matches(&e));
    }
}
