//! Screening model for the RRC state across a CSFB call — exposes **S3**
//! (§5.3).
//!
//! Composition: the 3G RRC machine plus the CSFB phase tracker, with the
//! operator's inter-system switch mechanism as a model parameter (the
//! standard "gives the carriers freedom to choose", §5.3.1). When the call
//! ends the carrier's return policy runs:
//!
//! * `ReleaseWithRedirect` (OP-I) forcibly releases at call end — the
//!   device returns immediately, at the cost of disrupting the data
//!   session; `MM_OK` holds.
//! * `CellReselection` (OP-II) can only fire from RRC `IDLE` — while the PS
//!   session keeps RRC connected, the wait never ends. The checker's DFS
//!   finds the **lasso**: a cycle of data bursts on which `MM_OK`'s
//!   "eventually back in 4G" never holds.
//!
//! Modeling notes: transitions that do not change the global state are
//! discarded (they would only add spurious self-loop lassos), and the data
//! session's unbounded continuation is modeled by a burst-parity bit so
//! that "data keeps flowing" is a *real* cycle in the product graph.

use mck::{Model, Property};

use cellstack::rrc3g::{Rrc3g, Rrc3gEvent};
use cellstack::{RatSystem, SwitchMechanism};

use crate::props;

/// Phases of the modeled CSFB episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Call ongoing in 3G (data session also running).
    InCall,
    /// Call ended; waiting for the return mechanism's precondition.
    AwaitingReturn,
    /// Back in 4G — the goal state of `MM_OK`.
    Back4g,
}

/// Model parameters.
#[derive(Clone, Debug)]
pub struct CsfbRrcModel {
    /// The carrier's return mechanism.
    pub mechanism: SwitchMechanism,
    /// The PS session running alongside the call is high-rate (holds DCH).
    pub high_rate_data: bool,
    /// §8 domain-decoupling remedy: the BS tags the RRC connection as
    /// CSFB-originated and forces a proper switch once the call ends,
    /// regardless of PS-domain activity.
    pub csfb_tag_remedy: bool,
}

impl CsfbRrcModel {
    /// OP-II's configuration with high-rate data — the paper's S3.
    pub fn op2_high_rate() -> Self {
        Self {
            mechanism: SwitchMechanism::CellReselection,
            high_rate_data: true,
            csfb_tag_remedy: false,
        }
    }

    /// OP-I's configuration (release with redirect).
    pub fn op1() -> Self {
        Self {
            mechanism: SwitchMechanism::ReleaseWithRedirect,
            high_rate_data: true,
            csfb_tag_remedy: false,
        }
    }

    /// The registry's `csfb_tag` remedy (S3): the BS tags the RRC
    /// connection as CSFB-originated.
    pub fn csfb_tag(mut self) -> Self {
        self.csfb_tag_remedy = true;
        self
    }

    /// The `low-rate` fault campaign: the data session runs at a low rate
    /// (FACH instead of DCH), the paper's companion case.
    pub fn low_rate(mut self) -> Self {
        self.high_rate_data = false;
        self
    }
}

/// Global state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CsfbRrcState {
    /// 3G RRC machine.
    pub rrc: Rrc3g,
    /// Episode phase.
    pub phase: Phase,
    /// The PS data session is still alive.
    pub data_alive: bool,
    /// Toggled by each data burst — makes endless data a genuine cycle.
    pub burst_parity: bool,
    /// A return switch tore down an RRC connection while the data session
    /// was live (the §8 trade-off: redirect and the CSFB tag restore
    /// mobility *at the cost of disrupting the data session*). Monitored
    /// by [`props::DATA_SERVICE_OK`] in the remedy differential.
    pub data_disrupted: bool,
}

/// Transition labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CsfbRrcAction {
    /// The voice call ends; the carrier's return policy runs immediately
    /// (release-with-redirect returns here and now; the others may wait).
    CallEnds,
    /// The data session transfers another burst (keeps RRC busy). The
    /// endless repetition of this action is the S3 lasso.
    DataBurst,
    /// The data session ends.
    DataEnds,
    /// An RRC inactivity timer fires.
    Inactivity,
    /// The carrier attempts the return switch with its mechanism.
    AttemptReturn,
}

impl CsfbRrcModel {
    /// Execute the return if the mechanism's precondition currently holds.
    fn try_return(&self, s: &mut CsfbRrcState) {
        let allowed = self.csfb_tag_remedy || s.rrc.switch_allowed(self.mechanism);
        if allowed {
            if s.data_alive && s.rrc.state.is_connected() {
                s.data_disrupted = true;
            }
            let mut out = Vec::new();
            s.rrc.on_event(Rrc3gEvent::ConnectionRelease, &mut out);
            s.phase = Phase::Back4g;
        }
    }
}

impl Model for CsfbRrcModel {
    type State = CsfbRrcState;
    type Action = CsfbRrcAction;

    fn init_states(&self) -> Vec<CsfbRrcState> {
        let mut rrc = Rrc3g::new();
        let mut out = Vec::new();
        rrc.on_event(
            Rrc3gEvent::PsTrafficStart {
                high_rate: self.high_rate_data,
            },
            &mut out,
        );
        rrc.on_event(Rrc3gEvent::CsCallStart, &mut out);
        vec![CsfbRrcState {
            rrc,
            phase: Phase::InCall,
            data_alive: true,
            burst_parity: false,
            data_disrupted: false,
        }]
    }

    fn actions(&self, state: &CsfbRrcState, out: &mut Vec<CsfbRrcAction>) {
        match state.phase {
            Phase::InCall => out.push(CsfbRrcAction::CallEnds),
            Phase::AwaitingReturn => {
                if state.data_alive {
                    out.push(CsfbRrcAction::DataBurst);
                    out.push(CsfbRrcAction::DataEnds);
                }
                out.push(CsfbRrcAction::Inactivity);
                out.push(CsfbRrcAction::AttemptReturn);
            }
            Phase::Back4g => {}
        }
    }

    fn next_state(&self, state: &CsfbRrcState, action: &CsfbRrcAction) -> Option<CsfbRrcState> {
        let mut s = state.clone();
        let mut out = Vec::new();
        match action {
            CsfbRrcAction::CallEnds => {
                s.rrc.on_event(Rrc3gEvent::CsCallEnd, &mut out);
                s.phase = Phase::AwaitingReturn;
                // Release-with-redirect (and the remedy tag) act at the
                // moment the call ends, before anything else can run.
                if self.csfb_tag_remedy
                    || self.mechanism == SwitchMechanism::ReleaseWithRedirect
                    || (self.mechanism == SwitchMechanism::InterSystemHandover
                        && s.rrc.switch_allowed(SwitchMechanism::InterSystemHandover))
                {
                    self.try_return(&mut s);
                }
            }
            CsfbRrcAction::DataBurst => {
                s.burst_parity = !s.burst_parity;
                s.rrc.on_event(
                    Rrc3gEvent::PsTrafficStart {
                        high_rate: self.high_rate_data,
                    },
                    &mut out,
                );
            }
            CsfbRrcAction::DataEnds => {
                s.data_alive = false;
                s.rrc.on_event(Rrc3gEvent::PsTrafficStop, &mut out);
            }
            CsfbRrcAction::Inactivity => {
                s.rrc.on_event(Rrc3gEvent::InactivityTimeout, &mut out);
            }
            CsfbRrcAction::AttemptReturn => {
                self.try_return(&mut s);
            }
        }
        // No-op transitions only add spurious self-loops.
        if s == *state {
            return None;
        }
        Some(s)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property::eventually(props::MM_OK, |_: &CsfbRrcModel, s: &CsfbRrcState| {
                s.phase == Phase::Back4g
            }),
            // Side-effect monitor for the remedy differential: the base
            // OP-II configuration never trips it (reselection only fires
            // from IDLE), so screening results are unchanged; forced
            // releases (redirect, CSFB tag) do — the remedy's cost.
            Property::never(
                props::DATA_SERVICE_OK,
                |_: &CsfbRrcModel, s: &CsfbRrcState| s.data_disrupted,
            ),
        ]
    }

    fn format_state(&self, s: &CsfbRrcState) -> String {
        format!(
            "{:?} / RRC {:?}{}{}",
            s.phase,
            s.rrc.state,
            if s.rrc.cs_active { " +voice" } else { "" },
            if s.data_alive { " +data" } else { "" },
        )
    }

    fn format_action(&self, action: &CsfbRrcAction) -> String {
        match action {
            CsfbRrcAction::CallEnds => "CSFB call ends; return policy runs".into(),
            CsfbRrcAction::DataBurst => "PS data burst keeps RRC busy".into(),
            CsfbRrcAction::DataEnds => "PS data session ends".into(),
            CsfbRrcAction::Inactivity => "RRC inactivity timer".into(),
            CsfbRrcAction::AttemptReturn => "carrier attempts return to 4G".into(),
        }
    }
}

/// The system a successful return lands on.
pub const RETURN_TARGET: RatSystem = RatSystem::Lte4g;

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy};

    #[test]
    fn op2_high_rate_violates_mm_ok_with_lasso() {
        let result = Checker::new(CsfbRrcModel::op2_high_rate())
            .strategy(SearchStrategy::Dfs)
            .run();
        let v = result.violation(props::MM_OK).expect("S3 must be found");
        assert!(v.lasso, "the witness is an infinite data-burst cycle");
        assert!(v
            .path
            .actions()
            .any(|a| matches!(a, CsfbRrcAction::DataBurst)));
    }

    #[test]
    fn op1_redirect_satisfies_mm_ok() {
        let result = Checker::new(CsfbRrcModel::op1())
            .strategy(SearchStrategy::Dfs)
            .run();
        assert!(
            result.complete && result.violation(props::MM_OK).is_none(),
            "release-with-redirect always returns: {:?}",
            result.violations
        );
        // ... at the cost of the data session (§5.3.1): the forced release
        // while data is live trips the side-effect monitor.
        assert!(result.violation(props::DATA_SERVICE_OK).is_some());
    }

    #[test]
    fn op2_low_rate_data_still_blocks_reselection() {
        // FACH (low-rate) is also not IDLE: reselection still can't fire
        // while the session lives — the paper's companion case [27].
        let result = Checker::new(CsfbRrcModel::op2_high_rate().low_rate())
            .strategy(SearchStrategy::Dfs)
            .run();
        assert!(result.violation(props::MM_OK).is_some());
    }

    #[test]
    fn csfb_tag_remedy_restores_mm_ok() {
        let result = Checker::new(CsfbRrcModel::op2_high_rate().csfb_tag())
            .strategy(SearchStrategy::Dfs)
            .run();
        assert!(
            result.complete && result.violation(props::MM_OK).is_none(),
            "{:?}",
            result.violations
        );
    }

    #[test]
    fn base_op2_never_disrupts_data() {
        // The side-effect monitor must not perturb the screening model:
        // reselection only fires from IDLE, so `data_disrupted` is
        // unreachable in the base configuration.
        let result = Checker::new(CsfbRrcModel::op2_high_rate())
            .strategy(SearchStrategy::Dfs)
            .run();
        assert!(result.violation(props::DATA_SERVICE_OK).is_none());
    }

    #[test]
    fn handover_returns_directly_from_dch() {
        let model = CsfbRrcModel {
            mechanism: SwitchMechanism::InterSystemHandover,
            high_rate_data: true,
            csfb_tag_remedy: false,
        };
        let mut s = model.init_states().remove(0);
        s = model.next_state(&s, &CsfbRrcAction::CallEnds).unwrap();
        assert_eq!(
            s.phase,
            Phase::Back4g,
            "high-rate data keeps DCH, so the handover fires at call end"
        );
    }

    #[test]
    fn op2_reselection_succeeds_once_data_ends() {
        let model = CsfbRrcModel::op2_high_rate();
        let mut s = model.init_states().remove(0);
        s = model.next_state(&s, &CsfbRrcAction::CallEnds).unwrap();
        assert_eq!(s.phase, Phase::AwaitingReturn);
        s = model.next_state(&s, &CsfbRrcAction::DataEnds).unwrap();
        // Step down FACH -> IDLE.
        while s.rrc.state.is_connected() {
            s = model.next_state(&s, &CsfbRrcAction::Inactivity).unwrap();
        }
        s = model.next_state(&s, &CsfbRrcAction::AttemptReturn).unwrap();
        assert_eq!(s.phase, Phase::Back4g);
    }

    #[test]
    fn state_space_is_tiny() {
        let result = Checker::new(CsfbRrcModel::op2_high_rate())
            .strategy(SearchStrategy::Dfs)
            .run();
        assert!(result.stats.unique_states < 200);
    }
}
