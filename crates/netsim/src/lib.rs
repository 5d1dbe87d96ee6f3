//! `netsim` — a deterministic discrete-event simulator of 3G/4G carrier
//! networks.
//!
//! This crate is the reproduction's substitute for the paper's validation
//! testbed (two commercial US carriers, five phones, QXDM traces — §3.3).
//! It executes the *same* protocol state machines the screening phase
//! checks (crate `cellstack`), under:
//!
//! * simulated time and latency ([`time`], [`sim::wheel`]),
//! * a radio model mapping distance → RSSI → loss and modulation → rate
//!   ([`radio`], [`mobility`]),
//! * per-carrier policy profiles OP-I / OP-II ([`operator`]),
//! * failure injection on the signaling path ([`inject`]),
//! * a QXDM-style five-field trace collector ([`trace`]),
//!
//! and measures everything the paper's evaluation reports ([`metrics`]):
//! recovery times (Figure 4), call setup along drive routes (Figure 7),
//! location/routing-update durations (Figure 8), throughput with and
//! without concurrent voice (Figures 9/10/13), time stuck in 3G (Table 6)
//! and per-instance occurrence counts (Table 5).
//!
//! The central type is [`World`]: one phone (full [`cellstack::DeviceStack`])
//! against one carrier's MSC, 3G gateways, and MME, driven by the same
//! timing wheel and executive as the fleet ([`FleetSim`]). Scenarios
//! schedule user actions (dial, hangup, data on/off, drives) and the world
//! routes signaling with operator latencies, running the CSFB
//! choreography, the inter-system switches and the S1–S6 hazards exactly
//! as the FSMs dictate.
//!
//! # Example: one CSFB call on the OP-II carrier
//!
//! ```
//! use cellstack::RatSystem;
//! use netsim::{op_ii, Ev, SimTime, World, WorldConfig};
//!
//! let mut w = World::new(WorldConfig::new(op_ii(), 7));
//! w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
//! w.run_until(SimTime::from_secs(8));
//! w.cfg.auto_hangup_after_ms = Some(15_000);
//! w.schedule_in(500, Ev::Dial); // CSFB: falls back to 3G for the call
//! w.run_until(SimTime::from_secs(300));
//!
//! assert_eq!(w.metrics.call_setups.len(), 1);
//! assert_eq!(w.stack.serving, RatSystem::Lte4g, "returned after the call");
//! assert!(w.trace.first("call connected").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleetmetrics;
pub mod hss;
pub mod inject;
pub mod metrics;
pub mod mobility;
pub mod node;
pub mod operator;
pub mod phone;
pub mod radio;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;
pub mod verify;
pub mod world;

pub use fleetmetrics::{MetricSample, MetricsRegistry, MetricsSnapshot};
pub use hss::{Hss, SubscriberRecord, Subscription};
pub use inject::{
    AdvFate, Adversary, Campaign, CampaignReport, Fate, FaultPhase, FaultPolicy, Injection, Leg,
    NodeId, PhaseReport, PhaseStats, PolicyRule,
};
pub use metrics::{CallSetup, Metrics, ThroughputSample};
pub use mobility::{Drive, Route};
pub use node::{CarrierCore, CoreSession, Ue, UeId};
pub use operator::{op_i, op_ii, OperatorProfile};
pub use phone::PhoneModel;
pub use radio::{achievable_kbps, ChannelConfig, PathLoss, Rssi};
pub use rng::DurationDist;
pub use sim::{
    Activity, ActivityKind, BehaviorProfile, FleetAgg, FleetConfig, FleetReport, FleetSim,
    KernelStats, PlanSummary, Roster, SeriesAgg, TimingWheel, UeOutcome, UeSpec, WheelHandle,
};
pub use time::SimTime;
pub use trace::{
    CallPhase, FaultEvent, FaultKind, HazardKind, TraceCollector, TraceEntry, TraceEvent, TraceType,
};
pub use verify::{
    collect_spans, count_signature, run_signature, Bank, FaultClass, LaneBank, LiveConfig,
    LiveCounts, MatchedEvent, Monitor, MonitorReport, Pattern, Signature, Step, Verdict,
    VerdictEvent, VerdictStream,
};
pub use world::{Ev, World, WorldConfig};
