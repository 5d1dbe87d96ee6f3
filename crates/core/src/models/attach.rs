//! Screening model for the attach procedure over unreliable RRC — exposes
//! **S2** (§5.2).
//!
//! Composition: device-side EMM ↔ MME over two explicit [`mck::Chan`]s.
//! The uplink leg uses *unreliable* semantics (loss + duplication — "RRC
//! does not always ensure reliable delivery"), the downlink defaults to
//! reliable. The checker therefore explores, among others, the two Figure 5
//! executions:
//!
//! * **Lost signal** (5a): `Attach Complete` dropped → MME stuck in
//!   `WaitAttachComplete` → next TAU rejected *implicitly detached*.
//! * **Duplicate signal** (5b): a second `Attach Request` delivered after
//!   registration → MME deletes the EPS bearer context and reprocesses.
//!
//! Both end with an `ever_registered` device out of service without any
//! user detach — the violation of `PacketService_OK`.

use mck::{Chan, ChanSemantics, DeliveryChoice, Model, Property};

use cellstack::emm::{EmmDevice, EmmDeviceInput, EmmDeviceOutput, MmeEmm, MmeInput, MmeOutput};
use cellstack::{NasMessage, Registration};

use crate::props;

/// Model parameters.
#[derive(Clone, Debug)]
pub struct AttachModel {
    /// Uplink channel semantics (device → MME). The paper's defect needs
    /// `unreliable`; set `reliable` to verify the §8 shim fixes it.
    pub uplink: ChanSemantics,
    /// Downlink channel semantics (MME → device).
    pub downlink: ChanSemantics,
    /// How many tracking-area updates the scenario may trigger.
    pub tau_budget: u8,
    /// How many attach retry-timer firings the scenario may inject. A
    /// retransmitted attach request is itself a duplicate source (the
    /// Figure 5b race needs no lossy channel at all).
    pub retry_budget: u8,
}

impl AttachModel {
    /// The paper's screening configuration: lossy+duplicating uplink.
    pub fn paper() -> Self {
        Self {
            uplink: ChanSemantics::unreliable(4),
            downlink: ChanSemantics::reliable(4),
            tau_budget: 2,
            retry_budget: 2,
        }
    }

    /// The paper configuration with the §8 shim deployed
    /// ([`Self::reliable_shim`]): `PacketService_OK` must hold.
    pub fn with_reliable_transport() -> Self {
        Self::paper().reliable_shim()
    }

    /// The registry's `reliable_shim` remedy (S2): a reliable, in-order
    /// uplink and no timer retransmissions — what the §8 shim provides
    /// end-to-end over the already reliable downlink (its ACKs make timer
    /// retransmissions unnecessary, and its sequence numbers de-duplicate
    /// any that still happen).
    pub fn reliable_shim(mut self) -> Self {
        self.uplink = ChanSemantics::reliable(4);
        self.retry_budget = 0;
        self
    }

    /// An uplink that loses but never duplicates, so loss is its only
    /// hazard. This is both the `drop-only` fault campaign and the
    /// `reliable_shim/no-retx` probe: a shim with sequence numbers but no
    /// retransmission suppresses duplicates and cannot recover a loss.
    pub fn drop_only(mut self) -> Self {
        self.uplink = ChanSemantics {
            duplicating: false,
            ..ChanSemantics::unreliable(4)
        };
        self
    }
}

/// Global state: both machines plus the two channels and scenario bits.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AttachState {
    /// Device-side EMM.
    pub dev: EmmDevice,
    /// MME-side EMM.
    pub mme: MmeEmm,
    /// Device → MME channel.
    pub ul: Chan<NasMessage>,
    /// MME → device channel.
    pub dl: Chan<NasMessage>,
    /// The device reached `Registered` at least once.
    pub ever_registered: bool,
    /// TAU triggers still available to the scenario.
    pub taus_left: u8,
    /// Retry-timer firings still available (keeps the space finite).
    pub retries_left: u8,
}

/// Transition labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AttachAction {
    /// The scenario triggers a tracking-area update.
    TauTrigger,
    /// The device's retry timer fires.
    RetryTimer,
    /// Exercise the uplink channel.
    Uplink(DeliveryChoice),
    /// Exercise the downlink channel.
    Downlink(DeliveryChoice),
}

impl AttachModel {
    fn apply_dev_outputs(state: &mut AttachState, outputs: Vec<EmmDeviceOutput>) {
        for o in outputs {
            match o {
                EmmDeviceOutput::Send(m) => {
                    // Lossy channels never error on send.
                    let _ = state.ul.send(m);
                }
                EmmDeviceOutput::RegChanged(Registration::Registered) => {
                    state.ever_registered = true;
                }
                _ => {}
            }
        }
    }

    fn apply_mme_outputs(state: &mut AttachState, outputs: Vec<MmeOutput>) {
        for o in outputs {
            if let MmeOutput::Send(m) = o {
                let _ = state.dl.send(m);
            }
        }
    }
}

impl Model for AttachModel {
    type State = AttachState;
    type Action = AttachAction;

    fn init_states(&self) -> Vec<AttachState> {
        let mut dev = EmmDevice::new();
        let mut state = AttachState {
            mme: MmeEmm::new(),
            ul: Chan::new(self.uplink),
            dl: Chan::new(self.downlink),
            ever_registered: false,
            taus_left: self.tau_budget,
            retries_left: self.retry_budget,
            dev: EmmDevice::new(),
        };
        let mut out = Vec::new();
        dev.on_input(EmmDeviceInput::AttachTrigger, &mut out);
        state.dev = dev;
        Self::apply_dev_outputs(&mut state, out);
        vec![state]
    }

    fn actions(&self, state: &AttachState, out: &mut Vec<AttachAction>) {
        use cellstack::emm::EmmDeviceState;
        if state.taus_left > 0 && state.dev.state == EmmDeviceState::Registered {
            out.push(AttachAction::TauTrigger);
        }
        if state.retries_left > 0 && state.dev.state == EmmDeviceState::RegisteredInitiated {
            out.push(AttachAction::RetryTimer);
        }
        let mut choices = Vec::new();
        state.ul.delivery_choices(&mut choices);
        out.extend(choices.drain(..).map(AttachAction::Uplink));
        state.dl.delivery_choices(&mut choices);
        out.extend(choices.into_iter().map(AttachAction::Downlink));
    }

    fn next_state(&self, state: &AttachState, action: &AttachAction) -> Option<AttachState> {
        let mut s = state.clone();
        match action {
            AttachAction::TauTrigger => {
                s.taus_left -= 1;
                let mut out = Vec::new();
                s.dev.on_input(EmmDeviceInput::TauTrigger, &mut out);
                Self::apply_dev_outputs(&mut s, out);
            }
            AttachAction::RetryTimer => {
                s.retries_left -= 1;
                let mut out = Vec::new();
                s.dev.on_input(EmmDeviceInput::RetryTimer, &mut out);
                Self::apply_dev_outputs(&mut s, out);
            }
            AttachAction::Uplink(choice) => {
                let msg = s.ul.apply(*choice);
                if let Some(msg) = msg {
                    let mut out = Vec::new();
                    s.mme.on_input(MmeInput::Uplink(msg), &mut out);
                    Self::apply_mme_outputs(&mut s, out);
                }
            }
            AttachAction::Downlink(choice) => {
                let msg = s.dl.apply(*choice);
                if let Some(msg) = msg {
                    let mut out = Vec::new();
                    s.dev.on_input(EmmDeviceInput::Network(msg), &mut out);
                    Self::apply_dev_outputs(&mut s, out);
                }
            }
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![Property::never(
            // PacketService_OK as an error-state detector: the device was
            // accepted, then finds itself out of 4G service with no user
            // detach in the model at all.
            props::PACKET_SERVICE_OK,
            |_: &AttachModel, s: &AttachState| s.ever_registered && s.dev.out_of_service(),
        )]
    }

    fn format_action(&self, action: &AttachAction) -> String {
        match action {
            AttachAction::TauTrigger => "scenario: tracking-area update triggered".into(),
            AttachAction::RetryTimer => "device: attach retry timer fires".into(),
            AttachAction::Uplink(c) => format!("uplink RRC: {c:?}"),
            AttachAction::Downlink(c) => format!("downlink RRC: {c:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy};

    #[test]
    fn unreliable_uplink_violates_packet_service_ok() {
        let result = Checker::new(AttachModel::paper())
            .strategy(SearchStrategy::Bfs)
            .run();
        let v = result
            .violation(props::PACKET_SERVICE_OK)
            .expect("S2 must be found by screening");
        // The witness must include a channel misbehaviour (drop/duplicate).
        let misbehaved = v.path.actions().any(|a| {
            matches!(
                a,
                AttachAction::Uplink(DeliveryChoice::DropFront)
                    | AttachAction::Uplink(DeliveryChoice::DuplicateFront)
            )
        });
        assert!(misbehaved, "counterexample must exploit unreliable RRC");
        // ... and the final state is out-of-service after registration.
        assert!(v.path.last_state().ever_registered);
        assert!(v.path.last_state().dev.out_of_service());
    }

    #[test]
    fn reliable_transport_satisfies_packet_service_ok() {
        let result = Checker::new(AttachModel::with_reliable_transport())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(
            result.holds(),
            "with reliable transport the property must hold: {:?}",
            result.violations
        );
    }

    #[test]
    fn state_space_is_modest() {
        let result = Checker::new(AttachModel::paper()).run();
        assert!(result.stats.unique_states > 50);
        assert!(result.stats.unique_states < 2_000_000);
    }

    #[test]
    fn dfs_also_finds_the_violation() {
        let result = Checker::new(AttachModel::paper())
            .strategy(SearchStrategy::Dfs)
            .run();
        assert!(result.violation(props::PACKET_SERVICE_OK).is_some());
    }

    #[test]
    fn counterexample_replays() {
        let model = AttachModel::paper();
        let result = Checker::new(AttachModel::paper()).run();
        let v = result.violation(props::PACKET_SERVICE_OK).unwrap();
        let mut cur = model.init_states().remove(0);
        for (a, expected) in v.path.steps() {
            cur = model.next_state(&cur, a).expect("replayable");
            assert_eq!(&cur, expected);
        }
    }
}
