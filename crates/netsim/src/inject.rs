//! Failure injection on the signaling path.
//!
//! The paper's §9.1 evaluation drops EMM messages at the base station
//! "according to a given drop rate"; §5.2 needs duplication (two base
//! stations relaying a retransmitted attach request) and delay. This module
//! decides, per message, what the radio leg does to it.
//!
//! Two generations coexist here:
//!
//! * [`Injection`] — the original per-leg probability knobs, kept exactly
//!   as-is (including its RNG draw sequence) so seeded experiments keep
//!   their historical trajectories. It draws from the *world's* RNG.
//! * [`Adversary`] — a declarative, campaign-driven fault injector with its
//!   own seeded RNG stream. A [`Campaign`] is a list of timed
//!   [`FaultPhase`]s; each phase selects a [`FaultPolicy`] per signaling
//!   [`Leg`] and per message class, can take core nodes down ([`NodeId`]),
//!   partition the whole radio link, and optionally restarts the downed
//!   nodes when the phase ends. Every decision is tallied, and the tallies
//!   serialize into a [`CampaignReport`] that is byte-identical across runs
//!   with the same seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use cellstack::MsgClass;

use crate::time::SimTime;

/// What happened to one injected message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Fate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered, and a duplicate copy follows after `extra_delay_ms`.
    Duplicate {
        /// Additional delay of the duplicate copy.
        extra_delay_ms: u64,
    },
    /// Delivered late by `extra_delay_ms` (e.g. held by a loaded BS).
    Delay {
        /// Additional delay.
        extra_delay_ms: u64,
    },
}

/// Per-leg injection policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Injection {
    /// Probability a message is dropped (the §9.1 sweep parameter).
    pub drop_rate: f64,
    /// Probability a delivered message is duplicated.
    pub dup_rate: f64,
    /// Probability a delivered message is delayed.
    pub delay_rate: f64,
    /// Extra delay applied to duplicates/delays, ms.
    pub extra_delay_ms: u64,
}

impl Injection {
    /// No injection at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Drop-only injection at `rate` (the Figure 12-left sweep).
    pub fn dropping(rate: f64) -> Self {
        Self {
            drop_rate: rate,
            ..Self::default()
        }
    }

    /// Duplication-only injection (the Figure 5b scenario).
    pub fn duplicating(rate: f64, extra_delay_ms: u64) -> Self {
        Self {
            dup_rate: rate,
            extra_delay_ms,
            ..Self::default()
        }
    }

    /// Decide the fate of one message.
    pub fn fate(&self, rng: &mut StdRng) -> Fate {
        let x: f64 = rng.gen();
        if x < self.drop_rate {
            return Fate::Drop;
        }
        let y: f64 = rng.gen();
        if y < self.dup_rate {
            return Fate::Duplicate {
                extra_delay_ms: self.extra_delay_ms,
            };
        }
        let z: f64 = rng.gen();
        if z < self.delay_rate {
            return Fate::Delay {
                extra_delay_ms: self.extra_delay_ms,
            };
        }
        Fate::Deliver
    }
}

// ---------------------------------------------------------------------------
// The campaign-driven adversary
// ---------------------------------------------------------------------------

/// A signaling leg the adversary can target independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Leg {
    /// 4G uplink (device → eNodeB → MME).
    Ul4g,
    /// 4G downlink (MME → eNodeB → device).
    Dl4g,
    /// 3G CS uplink (device → NodeB → MSC).
    Ul3gCs,
    /// 3G CS downlink (MSC → NodeB → device).
    Dl3gCs,
    /// 3G PS uplink (device → NodeB → SGSN/GGSN).
    Ul3gPs,
    /// 3G PS downlink (SGSN/GGSN → NodeB → device).
    Dl3gPs,
}

impl Leg {
    /// The nodes a message on this leg traverses; an outage of either one
    /// loses the message.
    pub fn nodes(self) -> [NodeId; 2] {
        match self {
            Leg::Ul4g | Leg::Dl4g => [NodeId::Bs4g, NodeId::Mme],
            Leg::Ul3gCs | Leg::Dl3gCs => [NodeId::Bs3g, NodeId::Msc],
            Leg::Ul3gPs | Leg::Dl3gPs => [NodeId::Bs3g, NodeId::Sgsn],
        }
    }
}

impl std::fmt::Display for Leg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Leg::Ul4g => "ul-4g",
            Leg::Dl4g => "dl-4g",
            Leg::Ul3gCs => "ul-3g-cs",
            Leg::Dl3gCs => "dl-3g-cs",
            Leg::Ul3gPs => "ul-3g-ps",
            Leg::Dl3gPs => "dl-3g-ps",
        };
        f.write_str(s)
    }
}

/// A network element the campaign can take down (and restart).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum NodeId {
    /// The 4G base station (eNodeB).
    Bs4g,
    /// The 3G base station (NodeB + RNC).
    Bs3g,
    /// The 4G mobility management entity.
    Mme,
    /// The 3G CS mobile switching center.
    Msc,
    /// The 3G PS serving gateway (SGSN/GGSN pair).
    Sgsn,
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NodeId::Bs4g => "bs-4g",
            NodeId::Bs3g => "bs-3g",
            NodeId::Mme => "mme",
            NodeId::Msc => "msc",
            NodeId::Sgsn => "sgsn",
        };
        f.write_str(s)
    }
}

/// What the adversary decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdvFate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered, plus a duplicate copy `extra_delay_ms` later.
    Duplicate {
        /// Additional delay of the duplicate copy.
        extra_delay_ms: u64,
    },
    /// Delivered `extra_delay_ms` late.
    Delay {
        /// Additional delay.
        extra_delay_ms: u64,
    },
    /// Held back `hold_ms` so later messages overtake it (reordering).
    Reorder {
        /// How long the message is held.
        hold_ms: u64,
    },
    /// Payload corrupted in flight; the receiver sees garbage and either
    /// rejects the procedure (semantically incorrect message) or discards
    /// the message after the integrity check fails.
    Corrupt,
}

/// Fault probabilities for one policy rule.
///
/// A single uniform draw is partitioned by the cumulative rates, in the
/// order drop → duplicate → delay → reorder → corrupt; whatever is left is
/// a clean delivery. One draw per decision keeps the adversary's RNG
/// stream compact and makes seeded campaigns cheap to reproduce.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPolicy {
    /// Probability the message is dropped.
    pub drop_rate: f64,
    /// Probability the message is duplicated.
    pub dup_rate: f64,
    /// Probability the message is delayed by `extra_delay_ms`.
    pub delay_rate: f64,
    /// Probability the message is held back `reorder_hold_ms`.
    pub reorder_rate: f64,
    /// Probability the payload is corrupted.
    pub corrupt_rate: f64,
    /// Extra delay applied to duplicates and delays, ms.
    pub extra_delay_ms: u64,
    /// Hold time for reordered messages, ms.
    pub reorder_hold_ms: u64,
}

impl FaultPolicy {
    /// Drop-only policy.
    pub fn dropping(rate: f64) -> Self {
        Self {
            drop_rate: rate,
            ..Self::default()
        }
    }

    /// Duplication-only policy.
    pub fn duplicating(rate: f64, extra_delay_ms: u64) -> Self {
        Self {
            dup_rate: rate,
            extra_delay_ms,
            ..Self::default()
        }
    }

    /// Reorder-only policy: held messages arrive `hold_ms` late.
    pub fn reordering(rate: f64, hold_ms: u64) -> Self {
        Self {
            reorder_rate: rate,
            reorder_hold_ms: hold_ms,
            ..Self::default()
        }
    }

    /// Corruption-only policy.
    pub fn corrupting(rate: f64) -> Self {
        Self {
            corrupt_rate: rate,
            ..Self::default()
        }
    }

    /// Decide the fate of one message with a single RNG draw.
    pub fn decide(&self, rng: &mut StdRng) -> AdvFate {
        let x: f64 = rng.gen();
        let mut t = self.drop_rate;
        if x < t {
            return AdvFate::Drop;
        }
        t += self.dup_rate;
        if x < t {
            return AdvFate::Duplicate {
                extra_delay_ms: self.extra_delay_ms,
            };
        }
        t += self.delay_rate;
        if x < t {
            return AdvFate::Delay {
                extra_delay_ms: self.extra_delay_ms,
            };
        }
        t += self.reorder_rate;
        if x < t {
            return AdvFate::Reorder {
                hold_ms: self.reorder_hold_ms,
            };
        }
        t += self.corrupt_rate;
        if x < t {
            return AdvFate::Corrupt;
        }
        AdvFate::Deliver
    }
}

/// One match-and-apply rule: the first rule whose leg and message-class
/// filters both accept the message supplies the policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyRule {
    /// Restrict to one leg (`None` = any leg).
    pub leg: Option<Leg>,
    /// Restrict to one message class (`None` = any class).
    pub class: Option<MsgClass>,
    /// The policy to apply.
    pub policy: FaultPolicy,
}

impl PolicyRule {
    /// A rule matching every message.
    pub fn any(policy: FaultPolicy) -> Self {
        Self {
            leg: None,
            class: None,
            policy,
        }
    }

    /// A rule matching one leg, any class.
    pub fn on_leg(leg: Leg, policy: FaultPolicy) -> Self {
        Self {
            leg: Some(leg),
            class: None,
            policy,
        }
    }

    /// A rule matching one message class, any leg.
    pub fn on_class(class: MsgClass, policy: FaultPolicy) -> Self {
        Self {
            leg: None,
            class: Some(class),
            policy,
        }
    }

    /// Does this rule apply to a message of `class` on `leg`?
    pub fn matches(&self, leg: Leg, class: MsgClass) -> bool {
        self.leg.is_none_or(|l| l == leg) && self.class.is_none_or(|c| c == class)
    }
}

/// One timed phase of a campaign, active on `[start_ms, end_ms)`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPhase {
    /// Phase label used in the report.
    pub name: String,
    /// Activation time (inclusive), simulated ms.
    pub start_ms: u64,
    /// Deactivation time (exclusive), simulated ms.
    pub end_ms: u64,
    /// First-match-wins policy rules; no match means clean delivery.
    pub rules: Vec<PolicyRule>,
    /// Nodes that are down for the whole phase: every message traversing
    /// one of them is lost.
    pub down: Vec<NodeId>,
    /// Restart the downed nodes when the phase ends, wiping their
    /// volatile protocol state (the MME/MSC forget the UE).
    pub restart_at_end: bool,
    /// Total radio-link partition: every message on every leg is lost.
    pub partitioned: bool,
}

impl FaultPhase {
    /// A phase with the given rules and no outages.
    pub fn new(
        name: impl Into<String>,
        start_ms: u64,
        end_ms: u64,
        rules: Vec<PolicyRule>,
    ) -> Self {
        Self {
            name: name.into(),
            start_ms,
            end_ms,
            rules,
            down: Vec::new(),
            restart_at_end: false,
            partitioned: false,
        }
    }

    /// A phase during which `nodes` are down, restarting at phase end.
    pub fn outage(name: impl Into<String>, start_ms: u64, end_ms: u64, nodes: Vec<NodeId>) -> Self {
        Self {
            name: name.into(),
            start_ms,
            end_ms,
            rules: Vec::new(),
            down: nodes,
            restart_at_end: true,
            partitioned: false,
        }
    }

    /// A total-partition phase.
    pub fn partition(name: impl Into<String>, start_ms: u64, end_ms: u64) -> Self {
        Self {
            name: name.into(),
            start_ms,
            end_ms,
            rules: Vec::new(),
            down: Vec::new(),
            restart_at_end: false,
            partitioned: true,
        }
    }

    /// Is the phase active at `now_ms`?
    pub fn active_at(&self, now_ms: u64) -> bool {
        (self.start_ms..self.end_ms).contains(&now_ms)
    }
}

/// A declarative fault-injection plan: a named, seeded list of phases.
#[derive(Clone, Debug, PartialEq)]
pub struct Campaign {
    /// Campaign name (report header).
    pub name: String,
    /// Seed for the adversary's private RNG stream.
    pub seed: u64,
    /// Timed phases. The first phase active at a given instant wins;
    /// outside every phase the adversary delivers cleanly and records
    /// nothing.
    pub phases: Vec<FaultPhase>,
}

impl Campaign {
    /// An empty campaign (the adversary never interferes).
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Self {
            name: name.into(),
            seed,
            phases: Vec::new(),
        }
    }

    /// Append a phase.
    pub fn with_phase(mut self, phase: FaultPhase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Index of the first phase active at `now_ms`.
    pub fn phase_index(&self, now_ms: u64) -> Option<usize> {
        self.phases.iter().position(|p| p.active_at(now_ms))
    }

    /// `(phase index, end time)` of every phase that restarts downed nodes
    /// when it ends — the phase-end events a simulation schedules up front.
    pub fn restart_ends(&self) -> impl Iterator<Item = (usize, SimTime)> + '_ {
        self.phases
            .iter()
            .enumerate()
            .filter(|(_, p)| p.restart_at_end && !p.down.is_empty())
            .map(|(i, p)| (i, SimTime::from_millis(p.end_ms)))
    }
}

/// Per-phase decision tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct PhaseStats {
    /// Clean deliveries decided by a matching rule (or no rule).
    pub delivered: u64,
    /// Messages dropped by a policy rule.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages delayed.
    pub delayed: u64,
    /// Messages held for reordering.
    pub reordered: u64,
    /// Messages corrupted.
    pub corrupted: u64,
    /// Messages lost to a node outage.
    pub outage_drops: u64,
    /// Messages lost to the link partition.
    pub partition_drops: u64,
}

impl PhaseStats {
    /// Total messages the phase touched.
    pub fn total(&self) -> u64 {
        self.delivered
            + self.dropped
            + self.duplicated
            + self.delayed
            + self.reordered
            + self.corrupted
            + self.outage_drops
            + self.partition_drops
    }
}

/// One phase's row in the campaign report.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct PhaseReport {
    /// Phase label.
    pub name: String,
    /// Activation time, ms.
    pub start_ms: u64,
    /// Deactivation time, ms.
    pub end_ms: u64,
    /// Decision tallies.
    pub stats: PhaseStats,
}

/// The serialized outcome of a campaign run.
///
/// Contains only simulation-deterministic fields (no wall-clock times, no
/// host details), so the same seed produces byte-identical JSON.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CampaignReport {
    /// Campaign name.
    pub campaign: String,
    /// Adversary seed.
    pub seed: u64,
    /// Per-phase tallies, in phase order.
    pub phases: Vec<PhaseReport>,
}

impl CampaignReport {
    /// Render as pretty JSON (stable field order via serde).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign report serializes")
    }
}

/// The stateful adversary: a campaign plus a private RNG and tallies.
///
/// Deliberately separate from the world's latency RNG so that enabling a
/// campaign never perturbs the seeded latency trajectories, and two
/// campaigns with the same seed make identical decisions regardless of the
/// surrounding simulation.
#[derive(Clone, Debug)]
pub struct Adversary {
    /// The plan being executed.
    pub campaign: Campaign,
    rng: StdRng,
    stats: Vec<PhaseStats>,
}

impl Adversary {
    /// Build an adversary from a campaign; the RNG derives from
    /// `campaign.seed` only.
    pub fn new(campaign: Campaign) -> Self {
        let seed = campaign.seed;
        Self::with_seed(campaign, seed)
    }

    /// Build an adversary whose RNG derives from an explicit `seed`
    /// instead of `campaign.seed` — the fleet shape, where every UE gets
    /// its own fault stream (mixed from the campaign seed and the UE
    /// index) so one shared campaign does not replay identical draw
    /// sequences on a million phones.
    pub fn with_seed(campaign: Campaign, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed);
        let stats = vec![PhaseStats::default(); campaign.phases.len()];
        Self {
            campaign,
            rng,
            stats,
        }
    }

    /// Decide the fate of a message of `class` crossing `leg` at `now_ms`.
    pub fn decide(&mut self, now_ms: u64, leg: Leg, class: MsgClass) -> AdvFate {
        let Some(i) = self.campaign.phase_index(now_ms) else {
            return AdvFate::Deliver;
        };
        let phase = &self.campaign.phases[i];
        if phase.partitioned {
            self.stats[i].partition_drops += 1;
            return AdvFate::Drop;
        }
        if leg.nodes().iter().any(|n| phase.down.contains(n)) {
            self.stats[i].outage_drops += 1;
            return AdvFate::Drop;
        }
        let mut policy = None;
        for r in &phase.rules {
            if r.matches(leg, class) {
                policy = Some(r.policy);
                break;
            }
        }
        let fate = match policy {
            Some(p) => p.decide(&mut self.rng),
            None => AdvFate::Deliver,
        };
        let s = &mut self.stats[i];
        match fate {
            AdvFate::Deliver => s.delivered += 1,
            AdvFate::Drop => s.dropped += 1,
            AdvFate::Duplicate { .. } => s.duplicated += 1,
            AdvFate::Delay { .. } => s.delayed += 1,
            AdvFate::Reorder { .. } => s.reordered += 1,
            AdvFate::Corrupt => s.corrupted += 1,
        }
        fate
    }

    /// Nodes whose state should be wiped when phase `i` ends.
    pub fn restarts_for_phase(&self, i: usize) -> &[NodeId] {
        let p = &self.campaign.phases[i];
        if p.restart_at_end {
            &p.down
        } else {
            &[]
        }
    }

    /// The deterministic campaign report.
    pub fn report(&self) -> CampaignReport {
        CampaignReport {
            campaign: self.campaign.name.clone(),
            seed: self.campaign.seed,
            phases: self
                .campaign
                .phases
                .iter()
                .zip(&self.stats)
                .map(|(p, s)| PhaseReport {
                    name: p.name.clone(),
                    start_ms: p.start_ms,
                    end_ms: p.end_ms,
                    stats: *s,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn none_always_delivers() {
        let mut rng = rng_from_seed(1);
        for _ in 0..1_000 {
            assert_eq!(Injection::none().fate(&mut rng), Fate::Deliver);
        }
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let mut rng = rng_from_seed(2);
        let inj = Injection::dropping(0.10);
        let n = 50_000;
        let drops = (0..n).filter(|_| inj.fate(&mut rng) == Fate::Drop).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn duplicates_carry_extra_delay() {
        let mut rng = rng_from_seed(3);
        let inj = Injection::duplicating(1.0, 750);
        assert_eq!(
            inj.fate(&mut rng),
            Fate::Duplicate {
                extra_delay_ms: 750
            }
        );
    }

    #[test]
    fn full_drop_never_delivers() {
        let mut rng = rng_from_seed(4);
        let inj = Injection::dropping(1.0);
        for _ in 0..100 {
            assert_eq!(inj.fate(&mut rng), Fate::Drop);
        }
    }
}

#[cfg(test)]
mod adversary_tests {
    use super::*;

    fn lossy_campaign(seed: u64) -> Campaign {
        Campaign::new("test", seed).with_phase(FaultPhase::new(
            "lossy",
            0,
            60_000,
            vec![PolicyRule::on_leg(Leg::Ul4g, FaultPolicy::dropping(0.5))],
        ))
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = Adversary::new(lossy_campaign(7));
        let mut b = Adversary::new(lossy_campaign(7));
        for t in 0..5_000u64 {
            assert_eq!(
                a.decide(t, Leg::Ul4g, MsgClass::Attach),
                b.decide(t, Leg::Ul4g, MsgClass::Attach)
            );
        }
        assert_eq!(a.report(), b.report());
        assert_eq!(a.report().to_json(), b.report().to_json());
    }

    #[test]
    fn outside_every_phase_delivers_untallied() {
        let mut a = Adversary::new(lossy_campaign(1));
        assert_eq!(
            a.decide(60_000, Leg::Ul4g, MsgClass::Attach),
            AdvFate::Deliver
        );
        assert_eq!(
            a.decide(999_999, Leg::Ul4g, MsgClass::Attach),
            AdvFate::Deliver
        );
        assert_eq!(a.report().phases[0].stats.total(), 0);
    }

    #[test]
    fn rule_filters_by_leg_and_class() {
        let c = Campaign::new("filters", 3).with_phase(FaultPhase::new(
            "attach-only",
            0,
            1_000,
            vec![PolicyRule {
                leg: Some(Leg::Ul4g),
                class: Some(MsgClass::Attach),
                policy: FaultPolicy::dropping(1.0),
            }],
        ));
        let mut a = Adversary::new(c);
        assert_eq!(a.decide(0, Leg::Ul4g, MsgClass::Attach), AdvFate::Drop);
        assert_eq!(a.decide(0, Leg::Ul4g, MsgClass::Mobility), AdvFate::Deliver);
        assert_eq!(a.decide(0, Leg::Dl4g, MsgClass::Attach), AdvFate::Deliver);
        let stats = a.report().phases[0].stats;
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn partition_kills_every_leg() {
        let c = Campaign::new("part", 4).with_phase(FaultPhase::partition("dead", 0, 100));
        let mut a = Adversary::new(c);
        for leg in [
            Leg::Ul4g,
            Leg::Dl4g,
            Leg::Ul3gCs,
            Leg::Dl3gCs,
            Leg::Ul3gPs,
            Leg::Dl3gPs,
        ] {
            assert_eq!(a.decide(50, leg, MsgClass::Other), AdvFate::Drop);
        }
        assert_eq!(a.report().phases[0].stats.partition_drops, 6);
    }

    #[test]
    fn node_outage_loses_traversing_messages_only() {
        let c = Campaign::new("outage", 5).with_phase(FaultPhase::outage(
            "mme-down",
            0,
            100,
            vec![NodeId::Mme],
        ));
        let mut a = Adversary::new(c);
        assert_eq!(a.decide(10, Leg::Ul4g, MsgClass::Attach), AdvFate::Drop);
        assert_eq!(a.decide(10, Leg::Dl4g, MsgClass::Attach), AdvFate::Drop);
        assert_eq!(a.decide(10, Leg::Ul3gCs, MsgClass::Call), AdvFate::Deliver);
        let stats = a.report().phases[0].stats;
        assert_eq!(stats.outage_drops, 2);
        assert_eq!(stats.delivered, 1);
        assert_eq!(a.restarts_for_phase(0), &[NodeId::Mme]);
    }

    #[test]
    fn corrupt_and_reorder_fates_reachable() {
        let c = Campaign::new("mix", 6).with_phase(FaultPhase::new(
            "mix",
            0,
            1_000,
            vec![PolicyRule::any(FaultPolicy {
                reorder_rate: 0.5,
                corrupt_rate: 0.5,
                reorder_hold_ms: 400,
                ..FaultPolicy::default()
            })],
        ));
        let mut a = Adversary::new(c);
        let mut seen_reorder = false;
        let mut seen_corrupt = false;
        for _ in 0..200 {
            match a.decide(0, Leg::Ul4g, MsgClass::Session) {
                AdvFate::Reorder { hold_ms } => {
                    assert_eq!(hold_ms, 400);
                    seen_reorder = true;
                }
                AdvFate::Corrupt => seen_corrupt = true,
                f => panic!("rates sum to 1, got {f:?}"),
            }
        }
        assert!(seen_reorder && seen_corrupt);
    }

    #[test]
    fn report_json_is_stable_and_roundtrips() {
        let mut a = Adversary::new(lossy_campaign(11));
        for t in 0..1_000u64 {
            a.decide(t * 10, Leg::Ul4g, MsgClass::Attach);
        }
        let json = a.report().to_json();
        assert_eq!(a.report().to_json(), json);
        let back = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rng::rng_from_seed;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Observed fate frequencies converge to the configured rates.
        #[test]
        fn fate_frequencies_converge(
            drop_rate in 0.0f64..0.4,
            dup_rate in 0.0f64..0.3,
            seed in any::<u64>(),
        ) {
            let inj = Injection {
                drop_rate,
                dup_rate,
                delay_rate: 0.0,
                extra_delay_ms: 100,
            };
            let mut rng = rng_from_seed(seed);
            let n = 20_000;
            let mut drops = 0u32;
            let mut dups = 0u32;
            for _ in 0..n {
                match inj.fate(&mut rng) {
                    Fate::Drop => drops += 1,
                    Fate::Duplicate { .. } => dups += 1,
                    _ => {}
                }
            }
            let observed_drop = f64::from(drops) / f64::from(n);
            prop_assert!((observed_drop - drop_rate).abs() < 0.02);
            // Duplication is decided only on non-dropped messages.
            let expected_dup = (1.0 - drop_rate) * dup_rate;
            let observed_dup = f64::from(dups) / f64::from(n);
            prop_assert!((observed_dup - expected_dup).abs() < 0.02);
        }

        /// A zero drop rate never drops, whatever the other knobs say.
        #[test]
        fn zero_drop_rate_never_drops(
            dup_rate in 0.0f64..1.0,
            delay_rate in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let inj = Injection {
                drop_rate: 0.0,
                dup_rate,
                delay_rate,
                extra_delay_ms: 50,
            };
            let mut rng = rng_from_seed(seed);
            for _ in 0..2_000 {
                prop_assert!(inj.fate(&mut rng) != Fate::Drop);
            }
        }

        /// Identical seeds produce identical fate sequences.
        #[test]
        fn identical_seeds_identical_fates(
            drop_rate in 0.0f64..0.5,
            dup_rate in 0.0f64..0.5,
            seed in any::<u64>(),
        ) {
            let inj = Injection {
                drop_rate,
                dup_rate,
                delay_rate: 0.1,
                extra_delay_ms: 10,
            };
            let mut a = rng_from_seed(seed);
            let mut b = rng_from_seed(seed);
            for _ in 0..500 {
                prop_assert_eq!(inj.fate(&mut a), inj.fate(&mut b));
            }
        }

        /// The adversary policy honours the same invariants: zero rates
        /// deliver, and the single-draw partition respects the drop rate.
        #[test]
        fn policy_drop_rate_converges(
            drop_rate in 0.0f64..0.6,
            seed in any::<u64>(),
        ) {
            let p = FaultPolicy::dropping(drop_rate);
            let mut rng = rng_from_seed(seed);
            let n = 20_000;
            let drops = (0..n)
                .filter(|_| p.decide(&mut rng) == AdvFate::Drop)
                .count();
            let observed = drops as f64 / f64::from(n);
            prop_assert!((observed - drop_rate).abs() < 0.02);
        }
    }
}
