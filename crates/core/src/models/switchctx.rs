//! Screening model for shared session contexts across inter-system
//! switches — exposes **S1** (§5.1).
//!
//! Composition: the full [`cellstack::DeviceStack`] against a lockstep
//! [`SyncNet`] carrier. Message transport is reliable here; the defect is in
//! the *ordering of procedures*: the checker interleaves Table 3 PDP-context
//! deactivations (by either originator) with 3G↔4G switches and finds the
//! execution `4G→3G switch; deactivate PDP; 3G→4G switch` in which the 4G
//! side cannot reconstruct the EPS bearer context and detaches the device —
//! violating `PacketService_OK` while mobile data is on and the user never
//! detached.

use mck::{Model, Property};

use cellstack::{DeviceStack, Domain, PdpDeactivationCause, RatSystem, StackEvent};

use crate::models::env::SyncNet;
use crate::props;

/// Model parameters.
#[derive(Clone, Debug)]
pub struct SwitchContextModel {
    /// Apply the §8 cross-system remedy (reactivate the bearer instead of
    /// detaching): the property must then hold.
    pub remedy: bool,
    /// How many inter-system switches the scenario may perform.
    pub switch_budget: u8,
    /// How many network/device deactivations the scenario may inject.
    pub deact_budget: u8,
}

impl SwitchContextModel {
    /// The paper's screening configuration.
    pub fn paper() -> Self {
        Self {
            remedy: false,
            switch_budget: 3,
            deact_budget: 1,
        }
    }

    /// The registry's `bearer_reactivation` remedy (S1): the device
    /// reactivates a bearer instead of detaching.
    pub fn bearer_reactivation(mut self) -> Self {
        self.remedy = true;
        self
    }

    /// The `deact-pressure` fault campaign: two deactivations instead of
    /// one (the fleet's restart campaigns at model scale).
    pub fn deact_pressure(mut self) -> Self {
        self.deact_budget = 2;
        self
    }
}

/// Global state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SwitchState {
    /// The phone stack.
    pub stack: DeviceStack,
    /// The carrier.
    pub net: SyncNet,
    /// Device was registered at some point.
    pub ever_registered: bool,
    /// Device went out of service at some point after registration.
    pub oos_observed: bool,
    /// Remaining switches.
    pub switches_left: u8,
    /// Remaining deactivations.
    pub deacts_left: u8,
}

/// Transition labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SwitchAction {
    /// Execute a 4G→3G inter-system switch (coverage / CSFB / carrier).
    Switch4gTo3g,
    /// Execute a 3G→4G inter-system switch.
    Switch3gTo4g,
    /// Deactivate the PDP context with a Table 3 cause.
    DeactivatePdp(PdpDeactivationCause),
}

impl Model for SwitchContextModel {
    type State = SwitchState;
    type Action = SwitchAction;

    fn init_states(&self) -> Vec<SwitchState> {
        let mut stack = DeviceStack::new();
        let mut net = SyncNet::new();
        if self.remedy {
            stack = stack.with_remedies();
            net.mme = net.mme.with_remedy();
        }
        let mut evs = Vec::new();
        stack.power_on(RatSystem::Lte4g, &mut evs);
        let obs = net.settle(&mut stack, evs);
        vec![SwitchState {
            stack,
            net,
            ever_registered: obs.registered,
            oos_observed: false,
            switches_left: self.switch_budget,
            deacts_left: self.deact_budget,
        }]
    }

    fn actions(&self, state: &SwitchState, out: &mut Vec<SwitchAction>) {
        if state.oos_observed {
            // Error state: stop expanding (the property already fired).
            return;
        }
        if state.switches_left > 0 {
            match state.stack.serving {
                RatSystem::Lte4g => out.push(SwitchAction::Switch4gTo3g),
                RatSystem::Utran3g => out.push(SwitchAction::Switch3gTo4g),
            }
        }
        if state.deacts_left > 0
            && state.stack.serving == RatSystem::Utran3g
            && state.stack.sm.active_context().is_some()
        {
            for cause in PdpDeactivationCause::ALL {
                out.push(SwitchAction::DeactivatePdp(cause));
            }
        }
    }

    fn next_state(&self, state: &SwitchState, action: &SwitchAction) -> Option<SwitchState> {
        let mut s = state.clone();
        match action {
            SwitchAction::Switch4gTo3g => {
                s.switches_left -= 1;
                let mut evs = Vec::new();
                s.stack.switch_4g_to_3g(&mut evs);
                let obs = s.net.settle(&mut s.stack, evs);
                s.ever_registered |= obs.registered;
            }
            SwitchAction::Switch3gTo4g => {
                s.switches_left -= 1;
                s.net.mme_switch_in(s.stack.sm.active_context());
                let mut evs = Vec::new();
                s.stack.switch_3g_to_4g(&mut evs);
                let obs = s.net.settle(&mut s.stack, evs);
                s.ever_registered |= obs.registered;
                if obs.deregistered || s.stack.out_of_service() {
                    s.oos_observed = true;
                }
            }
            SwitchAction::DeactivatePdp(cause) => {
                s.deacts_left -= 1;
                // Network-originated causes arrive as downlink messages;
                // device-originated ones as local deactivation requests.
                use cellstack::Originator;
                let mut evs = Vec::new();
                match cause.originator() {
                    Originator::Network | Originator::Either => {
                        let msg = s.net.sgsn_sm.deactivate(*cause);
                        s.stack
                            .deliver_nas(RatSystem::Utran3g, Domain::Ps, msg, &mut evs);
                    }
                    Originator::Device => {
                        s.stack.data_off(*cause, &mut evs);
                        // Keep the scenario's data demand on: the user did
                        // not ask for data to stop in the QoS/resource
                        // cases; the *stack* initiated the teardown.
                        s.stack.data_enabled = true;
                    }
                }
                s.net.settle(&mut s.stack, evs);
            }
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![Property::never(
            props::PACKET_SERVICE_OK,
            |_: &SwitchContextModel, s: &SwitchState| s.ever_registered && s.oos_observed,
        )]
    }

    fn format_action(&self, action: &SwitchAction) -> String {
        match action {
            SwitchAction::Switch4gTo3g => "inter-system switch 4G->3G".into(),
            SwitchAction::Switch3gTo4g => "inter-system switch 3G->4G".into(),
            SwitchAction::DeactivatePdp(c) => {
                format!("PDP context deactivated: {}", c.description())
            }
        }
    }
}

/// Stack events ignored by this model (transport is synchronous).
#[allow(dead_code)]
fn _unused(_: StackEvent) {}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy};

    #[test]
    fn screening_finds_s1() {
        let result = Checker::new(SwitchContextModel::paper())
            .strategy(SearchStrategy::Bfs)
            .run();
        let v = result
            .violation(props::PACKET_SERVICE_OK)
            .expect("S1 must be found");
        // Shortest counterexample: switch down, deactivate, switch up.
        assert!(v.path.len() <= 4, "got {} steps", v.path.len());
        let acts: Vec<_> = v.path.actions().collect();
        assert!(matches!(acts[0], SwitchAction::Switch4gTo3g));
        assert!(acts
            .iter()
            .any(|a| matches!(a, SwitchAction::DeactivatePdp(_))));
        assert!(acts.iter().any(|a| matches!(a, SwitchAction::Switch3gTo4g)));
    }

    #[test]
    fn every_table3_cause_can_trigger_s1() {
        // The checker's single counterexample picks one cause; verify by
        // directed execution that each cause leads to the same hazard.
        for cause in PdpDeactivationCause::ALL {
            let model = SwitchContextModel::paper();
            let mut s = model.init_states().remove(0);
            s = model.next_state(&s, &SwitchAction::Switch4gTo3g).unwrap();
            s = model
                .next_state(&s, &SwitchAction::DeactivatePdp(cause))
                .unwrap();
            s = model.next_state(&s, &SwitchAction::Switch3gTo4g).unwrap();
            assert!(s.oos_observed, "cause {cause:?} must produce S1");
        }
    }

    #[test]
    fn remedy_restores_packet_service_ok_for_avoidable_causes() {
        // With the §8 remedy the device reactivates a bearer instead of
        // detaching: the property holds over the whole space.
        let result = Checker::new(SwitchContextModel::paper().bearer_reactivation())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(
            result.holds(),
            "remedied model must satisfy PacketService_OK: {:?}",
            result.violations
        );
    }

    #[test]
    fn no_deactivation_no_violation() {
        let model = SwitchContextModel {
            deact_budget: 0,
            ..SwitchContextModel::paper()
        };
        let result = Checker::new(model).run();
        assert!(result.holds(), "{:?}", result.violations);
    }
}
