//! Root-cause model for **S6** (§6.3): the CSFB double-location-update race.
//!
//! The paper *discovers* S6 during validation (it is an operational slip),
//! but its root cause is a clean interleaving problem worth model-checking:
//! a CSFB call obliges two 3G location updates — the device-initiated one
//! (deferrable until the call ends) and the network-side one relayed
//! MME→MSC after the return to 4G. "Among the two location updates, one is
//! deemed redundant. It yields no benefit, but incurs penalty. Which
//! specific update does harm depends on the carrier":
//!
//! * **OP-I order** — the return completes *before* the deferred update:
//!   the disrupted update's failure status propagates to 4G, the MME sends
//!   "implicitly detached".
//! * **OP-II order** — the first update completes, so the MSC refuses the
//!   relayed second one ("MSC temporarily not reachable"), and the MME
//!   again detaches the device.
//!
//! The checker explores both orders from one model and shows each violates
//! `MM_OK`'s no-unprovoked-detach reading; with the §8 remedy (the MME
//! absorbs the failure and recovers in-core) every interleaving is safe.

use mck::{Model, Property};

use cellstack::emm::{MmeEmm, MmeInput, MmeOutput, MmeUeState};
use cellstack::mm::{MscInput, MscMm, MscOutput};
use cellstack::NasMessage;

use crate::props;

/// Model parameters.
#[derive(Clone, Debug)]
pub struct CrossSysLuModel {
    /// Apply the §8 MME-side remedy (absorb + recover instead of detach).
    pub remedy: bool,
}

impl CrossSysLuModel {
    /// Carrier practice (the S6 slip).
    pub fn paper() -> Self {
        Self { remedy: false }
    }

    /// The §8-remedied MME.
    pub fn remedied() -> Self {
        Self::paper().mme_lu_recovery()
    }

    /// The registry's `mme_lu_recovery` remedy (S6): the MME absorbs the
    /// LU failure and recovers in-core.
    pub fn mme_lu_recovery(mut self) -> Self {
        self.remedy = true;
        self
    }
}

/// Global state of the race.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CrossSysLuState {
    /// The 3G MSC.
    pub msc: MscMm,
    /// The 4G MME (holds the UE registration the race endangers).
    pub mme: MmeEmm,
    /// The deferred device-initiated update completed.
    pub first_lu_done: bool,
    /// The device returned to 4G.
    pub returned: bool,
    /// The network-side relayed update ran.
    pub relayed_done: bool,
    /// The device received a network detach — the S6 outcome.
    pub device_detached: bool,
}

/// Transition labels: the three racing completions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CrossSysLuAction {
    /// The deferred device-initiated 3G location update completes.
    FirstLuCompletes,
    /// The 3G→4G return completes (disrupting the first update if it is
    /// still in flight — the fast-return OP-I case).
    ReturnCompletes,
    /// The MME relays the network-side location update to the MSC.
    RelayedLu,
}

impl CrossSysLuModel {
    fn drain_msc(state: &mut CrossSysLuState, out: Vec<MscOutput>) {
        for o in out {
            match o {
                MscOutput::ReportFailureToMme(cause) => {
                    let mut mo = Vec::new();
                    state
                        .mme
                        .on_input(MmeInput::MscLocationUpdateFailure(cause), &mut mo);
                    for m in mo {
                        if let MmeOutput::Send(NasMessage::NetworkDetach(_)) = m {
                            state.device_detached = true;
                        }
                    }
                }
                MscOutput::Send(_) | MscOutput::RelayedUpdateOk => {}
            }
        }
    }
}

impl Model for CrossSysLuModel {
    type State = CrossSysLuState;
    type Action = CrossSysLuAction;

    fn init_states(&self) -> Vec<CrossSysLuState> {
        // UE registered at the MME; CSFB call just ended in 3G with the
        // deferred update pending.
        let mut mme = if self.remedy {
            MmeEmm::new().with_remedy()
        } else {
            MmeEmm::new()
        };
        let mut out = Vec::new();
        mme.on_input(
            MmeInput::Uplink(NasMessage::AttachRequest {
                system: cellstack::RatSystem::Lte4g,
            }),
            &mut out,
        );
        mme.on_input(MmeInput::Uplink(NasMessage::AttachComplete), &mut out);
        assert_eq!(mme.state, MmeUeState::Registered);
        vec![CrossSysLuState {
            msc: MscMm::new(),
            mme,
            first_lu_done: false,
            returned: false,
            relayed_done: false,
            device_detached: false,
        }]
    }

    fn actions(&self, state: &CrossSysLuState, out: &mut Vec<CrossSysLuAction>) {
        if state.device_detached {
            return; // the error latched
        }
        if !state.first_lu_done && !state.returned {
            out.push(CrossSysLuAction::FirstLuCompletes);
        }
        if !state.returned {
            out.push(CrossSysLuAction::ReturnCompletes);
        }
        if state.returned && !state.relayed_done {
            out.push(CrossSysLuAction::RelayedLu);
        }
    }

    fn next_state(
        &self,
        state: &CrossSysLuState,
        action: &CrossSysLuAction,
    ) -> Option<CrossSysLuState> {
        let mut s = state.clone();
        match action {
            CrossSysLuAction::FirstLuCompletes => {
                s.first_lu_done = true;
                let mut out = Vec::new();
                s.msc.on_input(
                    MscInput::Uplink(NasMessage::UpdateRequest(
                        cellstack::UpdateKind::LocationArea,
                    )),
                    &mut out,
                );
                Self::drain_msc(&mut s, out);
            }
            CrossSysLuAction::ReturnCompletes => {
                s.returned = true;
                if !s.first_lu_done {
                    // OP-I: the fast return disrupts the in-flight update.
                    let mut out = Vec::new();
                    s.msc.on_input(MscInput::UpdateDisrupted, &mut out);
                    Self::drain_msc(&mut s, out);
                }
            }
            CrossSysLuAction::RelayedLu => {
                s.relayed_done = true;
                let mut out = Vec::new();
                s.msc.on_input(MscInput::RelayedUpdateFromMme, &mut out);
                Self::drain_msc(&mut s, out);
            }
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![Property::never(
            props::MM_OK,
            |_: &CrossSysLuModel, s: &CrossSysLuState| s.device_detached,
        )]
    }

    fn format_action(&self, action: &CrossSysLuAction) -> String {
        match action {
            CrossSysLuAction::FirstLuCompletes => {
                "deferred device-initiated 3G location update completes".into()
            }
            CrossSysLuAction::ReturnCompletes => "3G->4G return completes".into(),
            CrossSysLuAction::RelayedLu => {
                "MME relays the network-side location update to the MSC".into()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy};

    #[test]
    fn both_race_orders_detach_the_device() {
        let model = CrossSysLuModel::paper();
        // OP-I order: return before the first update.
        let mut s = model.init_states().remove(0);
        s = model
            .next_state(&s, &CrossSysLuAction::ReturnCompletes)
            .unwrap();
        assert!(s.device_detached, "disrupted update propagates (OP-I)");

        // OP-II order: first update completes, relayed one refused.
        let mut s = model.init_states().remove(0);
        s = model
            .next_state(&s, &CrossSysLuAction::FirstLuCompletes)
            .unwrap();
        s = model
            .next_state(&s, &CrossSysLuAction::ReturnCompletes)
            .unwrap();
        assert!(!s.device_detached, "clean so far");
        s = model.next_state(&s, &CrossSysLuAction::RelayedLu).unwrap();
        assert!(s.device_detached, "superseded update propagates (OP-II)");
    }

    #[test]
    fn checker_finds_the_shortest_s6_witness() {
        let result = Checker::new(CrossSysLuModel::paper())
            .strategy(SearchStrategy::Bfs)
            .run();
        let v = result.violation(props::MM_OK).expect("S6 race found");
        // BFS finds the OP-I order (1 step: a fast return).
        assert_eq!(v.path.len(), 1);
    }

    #[test]
    fn remedy_clears_every_interleaving() {
        let result = Checker::new(CrossSysLuModel::remedied())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(result.holds(), "{:?}", result.violations);
    }

    #[test]
    fn exactly_one_update_suffices() {
        // The "redundant update" observation: if only the first update runs
        // (no relay), nothing breaks; if only the relayed one runs, nothing
        // breaks either. Only their combination under racing is harmful.
        let model = CrossSysLuModel::paper();
        let mut s = model.init_states().remove(0);
        s = model
            .next_state(&s, &CrossSysLuAction::FirstLuCompletes)
            .unwrap();
        assert!(!s.device_detached);
        assert!(s.msc.location_known);

        let mut s = model.init_states().remove(0);
        s.first_lu_done = true; // pretend it was never deferred (not run)
        s.returned = true;
        s.first_lu_done = false;
        // Only the relayed update runs, against an MSC with no prior state.
        let s = model.next_state(&s, &CrossSysLuAction::RelayedLu).unwrap();
        assert!(!s.device_detached);
        assert!(s.msc.location_known);
    }
}
