//! Usage-scenario modeling and random sampling (paper §3.2.1).
//!
//! "Ideally, we should test all combinations of usage scenarios ...
//! Enumeration is thus deemed unrealistic. Consequently, we take the random
//! sampling approach." [`UsageModel`] is the combined model of *user
//! demands* (power on, voice, data, mobility) and *operator responses*
//! (accept/reject, deactivations, inter-system switches) over the full
//! device stack and a lockstep carrier. It can be explored exhaustively for
//! small budgets (the checker) or sampled with `mck::RandomWalk` for large
//! ones — "by increasing the sampling rate, we expect that more defects can
//! be revealed".

use mck::{Model, Property};

use cellstack::{DeviceStack, Domain, PdpDeactivationCause, RatSystem, UpdateKind};

use crate::models::env::SyncNet;
use crate::props;

/// Budgets bounding the sampled scenario space.
#[derive(Clone, Copy, Debug)]
pub struct UsageBudgets {
    /// Inter-system switches available to the scenario.
    pub switches: u8,
    /// PDP deactivations (all Table 3 causes enumerated).
    pub deactivations: u8,
    /// Outgoing calls.
    pub calls: u8,
    /// Mobility-update triggers.
    pub updates: u8,
    /// Network-oriented detaches ("e.g., under resource constraints", §2 —
    /// one of the operator responses §3.2.1 enumerates).
    pub network_detaches: u8,
}

impl Default for UsageBudgets {
    fn default() -> Self {
        Self {
            switches: 3,
            deactivations: 1,
            calls: 1,
            updates: 2,
            network_detaches: 1,
        }
    }
}

/// The combined usage model.
#[derive(Clone, Debug)]
pub struct UsageModel {
    /// Scenario budgets.
    pub budgets: UsageBudgets,
    /// Run with the §8 remedies enabled everywhere.
    pub remedies: bool,
}

impl UsageModel {
    /// The paper's configuration: standard (defective) protocol behaviour.
    pub fn paper() -> Self {
        Self {
            budgets: UsageBudgets::default(),
            remedies: false,
        }
    }

    /// The §8-remedied configuration.
    pub fn remedied() -> Self {
        Self {
            budgets: UsageBudgets::default(),
            remedies: true,
        }
    }
}

/// Global state of a usage scenario run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct UsageState {
    /// The phone.
    pub stack: DeviceStack,
    /// The carrier.
    pub net: SyncNet,
    /// The device registered at least once.
    pub ever_registered: bool,
    /// Out-of-service observed after registration without user detach.
    pub oos_observed: bool,
    /// A service request was observed HOL-blocked.
    pub blocked_observed: bool,
    /// Remaining budgets.
    pub switches_left: u8,
    /// Remaining deactivations.
    pub deacts_left: u8,
    /// Remaining calls.
    pub calls_left: u8,
    /// Remaining update triggers.
    pub updates_left: u8,
    /// Remaining network-oriented detaches.
    pub detaches_left: u8,
    /// A call is currently active.
    pub call_active: bool,
}

/// User-demand and operator-response actions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum UsageAction {
    /// User dials (3G CS; the stack must be camped on 3G).
    Dial,
    /// User hangs up the active call.
    Hangup,
    /// The network deactivates the PDP context.
    NetworkDeactivate(PdpDeactivationCause),
    /// Carrier/mobility moves the device 4G→3G.
    Switch4gTo3g,
    /// Carrier/mobility moves the device 3G→4G.
    Switch3gTo4g,
    /// A mobility-update trigger fires.
    TriggerUpdate(UpdateKind),
    /// The network detaches the device (resource constraints). This is an
    /// *explicit* deactivation: `PacketService_OK` exempts it, and the
    /// device auto-recovers by re-attaching.
    NetworkDetach,
}

impl UsageModel {
    fn settle(&self, s: &mut UsageState, evs: Vec<cellstack::StackEvent>) {
        let obs = s.net.settle(&mut s.stack, evs);
        s.ever_registered |= obs.registered;
        if obs.deregistered || (s.ever_registered && s.stack.out_of_service()) {
            s.oos_observed = true;
        }
        if obs.request_blocked {
            s.blocked_observed = true;
        }
    }
}

impl Model for UsageModel {
    type State = UsageState;
    type Action = UsageAction;

    fn init_states(&self) -> Vec<UsageState> {
        // "Once the device powers on, it randomly attaches to 3G or 4G":
        // both initial attachments are roots of the exploration.
        let mut inits = Vec::new();
        for system in [RatSystem::Lte4g, RatSystem::Utran3g] {
            let mut stack = DeviceStack::new();
            let mut net = SyncNet::new();
            if self.remedies {
                stack = stack.with_remedies();
                net.mme = net.mme.with_remedy();
            }
            let mut evs = Vec::new();
            stack.power_on(system, &mut evs);
            let mut state = UsageState {
                stack,
                net,
                ever_registered: false,
                oos_observed: false,
                blocked_observed: false,
                switches_left: self.budgets.switches,
                deacts_left: self.budgets.deactivations,
                calls_left: self.budgets.calls,
                updates_left: self.budgets.updates,
                detaches_left: self.budgets.network_detaches,
                call_active: false,
            };
            let obs = state.net.settle(&mut state.stack, evs);
            state.ever_registered |= obs.registered;
            inits.push(state);
        }
        inits
    }

    fn actions(&self, state: &UsageState, out: &mut Vec<UsageAction>) {
        if state.oos_observed || state.blocked_observed {
            return; // error latched
        }
        let in_3g = state.stack.serving == RatSystem::Utran3g;
        if state.calls_left > 0 && in_3g && !state.call_active {
            out.push(UsageAction::Dial);
        }
        if state.call_active {
            out.push(UsageAction::Hangup);
        }
        if state.deacts_left > 0 && in_3g && state.stack.sm.active_context().is_some() {
            for cause in PdpDeactivationCause::ALL {
                out.push(UsageAction::NetworkDeactivate(cause));
            }
        }
        if state.switches_left > 0 && !state.call_active {
            if in_3g {
                out.push(UsageAction::Switch3gTo4g);
            } else {
                out.push(UsageAction::Switch4gTo3g);
            }
        }
        if state.detaches_left > 0 && state.stack.serving == RatSystem::Lte4g {
            out.push(UsageAction::NetworkDetach);
        }
        if state.updates_left > 0 {
            if in_3g {
                out.push(UsageAction::TriggerUpdate(UpdateKind::LocationArea));
                out.push(UsageAction::TriggerUpdate(UpdateKind::RoutingArea));
            } else {
                out.push(UsageAction::TriggerUpdate(UpdateKind::TrackingArea));
            }
        }
    }

    fn next_state(&self, state: &UsageState, action: &UsageAction) -> Option<UsageState> {
        let mut s = state.clone();
        match action {
            UsageAction::Dial => {
                s.calls_left -= 1;
                s.call_active = true;
                let mut evs = Vec::new();
                s.stack.dial(&mut evs);
                self.settle(&mut s, evs);
            }
            UsageAction::Hangup => {
                s.call_active = false;
                let mut evs = Vec::new();
                s.stack.hangup(&mut evs);
                self.settle(&mut s, evs);
            }
            UsageAction::NetworkDeactivate(cause) => {
                s.deacts_left -= 1;
                let msg = s.net.sgsn_sm.deactivate(*cause);
                let mut evs = Vec::new();
                s.stack
                    .deliver_nas(RatSystem::Utran3g, Domain::Ps, msg, &mut evs);
                self.settle(&mut s, evs);
            }
            UsageAction::Switch4gTo3g => {
                s.switches_left -= 1;
                let mut evs = Vec::new();
                s.stack.switch_4g_to_3g(&mut evs);
                self.settle(&mut s, evs);
            }
            UsageAction::Switch3gTo4g => {
                s.switches_left -= 1;
                s.net.mme_switch_in(s.stack.sm.active_context());
                let mut evs = Vec::new();
                s.stack.switch_3g_to_4g(&mut evs);
                self.settle(&mut s, evs);
            }
            UsageAction::TriggerUpdate(kind) => {
                s.updates_left -= 1;
                let mut evs = Vec::new();
                s.stack.trigger_update(*kind, &mut evs);
                self.settle(&mut s, evs);
            }
            UsageAction::NetworkDetach => {
                s.detaches_left -= 1;
                // The MME detaches (explicitly); exempt the resulting
                // deregistration from PacketService_OK by settling without
                // the OOS latch, then fold in the recovery observations.
                let mut evs = Vec::new();
                s.stack.deliver_nas(
                    RatSystem::Lte4g,
                    cellstack::Domain::Ps,
                    cellstack::NasMessage::NetworkDetach(cellstack::EmmCause::NetworkFailure),
                    &mut evs,
                );
                // The MME side forgets the UE too.
                let mut mo = Vec::new();
                s.net.mme.on_input(
                    cellstack::emm::MmeInput::Uplink(cellstack::NasMessage::DetachRequest),
                    &mut mo,
                );
                let obs = s.net.settle(&mut s.stack, evs);
                s.ever_registered |= obs.registered;
                if obs.request_blocked {
                    s.blocked_observed = true;
                }
                // An explicit network detach that failed to auto-recover
                // IS a service loss worth flagging.
                if s.stack.out_of_service() {
                    s.oos_observed = true;
                }
            }
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property::never(
                props::PACKET_SERVICE_OK,
                |_: &UsageModel, s: &UsageState| s.ever_registered && s.oos_observed,
            ),
            Property::never(props::CALL_SERVICE_OK, |_: &UsageModel, s: &UsageState| {
                s.blocked_observed
            }),
        ]
    }

    fn format_action(&self, action: &UsageAction) -> String {
        match action {
            UsageAction::Dial => "user dials an outgoing call".into(),
            UsageAction::Hangup => "user hangs up".into(),
            UsageAction::NetworkDeactivate(c) => {
                format!("network deactivates PDP context: {}", c.description())
            }
            UsageAction::Switch4gTo3g => "inter-system switch 4G->3G".into(),
            UsageAction::Switch3gTo4g => "inter-system switch 3G->4G".into(),
            UsageAction::TriggerUpdate(k) => format!("mobility update triggered: {k:?}"),
            UsageAction::NetworkDetach => {
                "network detaches the device (resource constraints)".into()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, RandomWalk, SearchStrategy};

    #[test]
    fn exhaustive_screening_finds_both_property_violations() {
        let result = Checker::new(UsageModel::paper())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(
            result.violation(props::PACKET_SERVICE_OK).is_some(),
            "S1-family violation"
        );
        assert!(
            result.violation(props::CALL_SERVICE_OK).is_some(),
            "S4-family violation"
        );
    }

    #[test]
    fn random_sampling_finds_violations_like_the_paper() {
        let report = RandomWalk::seeded(0xCE11)
            .walks(300)
            .max_steps(12)
            .run(&UsageModel::paper());
        assert!(
            report.violations_of(props::PACKET_SERVICE_OK) > 0,
            "sampling must expose PacketService_OK violations"
        );
    }

    #[test]
    fn higher_sampling_rate_finds_no_fewer_defects() {
        let low = RandomWalk::seeded(1)
            .walks(50)
            .max_steps(12)
            .run(&UsageModel::paper());
        let high = RandomWalk::seeded(1)
            .walks(1_000)
            .max_steps(12)
            .run(&UsageModel::paper());
        assert!(
            high.violations_of(props::PACKET_SERVICE_OK)
                >= low.violations_of(props::PACKET_SERVICE_OK)
        );
    }

    #[test]
    fn remedied_model_has_no_oos_violation() {
        let result = Checker::new(UsageModel::remedied())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(
            result.violation(props::PACKET_SERVICE_OK).is_none(),
            "{:?}",
            result.violations
        );
        assert!(
            result.violation(props::CALL_SERVICE_OK).is_none(),
            "{:?}",
            result.violations
        );
    }

    #[test]
    fn network_detach_is_exempt_and_recovers() {
        // A single network-oriented detach from a registered 4G device
        // auto-recovers and does not violate PacketService_OK by itself.
        let model = UsageModel::paper();
        let init = model
            .init_states()
            .into_iter()
            .find(|s| s.stack.serving == RatSystem::Lte4g)
            .unwrap();
        let s = model
            .next_state(&init, &UsageAction::NetworkDetach)
            .unwrap();
        assert!(
            !s.oos_observed,
            "the device re-attached within the settle: {:?}",
            s.stack.emm.state
        );
        assert!(!s.stack.out_of_service());
    }

    #[test]
    fn both_initial_attachments_explored() {
        let model = UsageModel::paper();
        let inits = model.init_states();
        assert_eq!(inits.len(), 2);
        assert!(inits.iter().any(|s| s.stack.serving == RatSystem::Lte4g));
        assert!(inits.iter().any(|s| s.stack.serving == RatSystem::Utran3g));
    }
}
