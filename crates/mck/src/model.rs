//! The [`Model`] trait: how a system under verification is described.

use std::fmt::Debug;
use std::hash::Hash;

use crate::property::Property;

/// A transition system to be explored by the checker.
///
/// A model describes a (finite) directed graph implicitly:
///
/// * [`Model::init_states`] gives the roots,
/// * [`Model::actions`] enumerates the outgoing transitions of a state,
/// * [`Model::next_state`] computes a successor (returning `None` lets a
///   model veto an action late, e.g. when two guards race).
///
/// States must be cheap-ish to clone and hashable; the checker stores a
/// fingerprint per visited state, not the state itself, so models may carry
/// rich state (queues, contexts) without exhausting memory.
///
/// The protocol models in the `cnetverifier` crate compose several pure
/// protocol FSMs (device-side and network-side) plus message channels into
/// one `State` struct, exactly like a Promela model composes `proctype`s
/// around shared channels.
pub trait Model {
    /// A global state of the system (all FSMs + channels + shared contexts).
    type State: Clone + Hash + Eq + Debug;
    /// A transition label. Carried in counterexamples, so it should render a
    /// human-readable step ("deliver AttachAccept", "phone powers off", ...).
    type Action: Clone + Debug;

    /// The initial global states (usually one).
    fn init_states(&self) -> Vec<Self::State>;

    /// Enumerate every action enabled in `state` into `out`.
    ///
    /// `out` is cleared by the caller. A state with no enabled actions is
    /// *terminal*; `Eventually` properties are evaluated against terminal
    /// states (a pending-but-never-served request manifests as a terminal or
    /// cyclic path on which the goal never held).
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Apply `action` to `state`. Returning `None` discards the transition.
    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;

    /// The properties to verify. The default is no properties, which is
    /// useful for state-space measurement only.
    fn properties(&self) -> Vec<Property<Self>> {
        Vec::new()
    }

    /// Prune exploration: states outside the boundary are recorded but not
    /// expanded. Used to bound unbounded scenario parameters (retry counts,
    /// repeated user events) the way the paper bounds its sampled scenarios.
    fn within_boundary(&self, _state: &Self::State) -> bool {
        true
    }

    /// Render a state for counterexample display. Defaults to `Debug`.
    fn format_state(&self, state: &Self::State) -> String {
        format!("{state:?}")
    }

    /// Render an action for counterexample display. Defaults to `Debug`.
    fn format_action(&self, action: &Self::Action) -> String {
        format!("{action:?}")
    }

    /// Split `state` into its independent components (per-process control +
    /// locals, per-channel queues, globals) as byte vectors, returning `true`
    /// when the model supports the split. The split powers the collapse and
    /// exact stores and the spillable frontier; every call must produce the
    /// same number of components in the same order, and
    /// [`Model::reassemble`] must invert it exactly.
    ///
    /// `out` may hold a previous call's components, and an implementation
    /// overwrites it in place: it resizes `out` to its arity, then clears
    /// and refills each buffer, so the engines allocate nothing per state
    /// once the buffers have grown. (Clearing `out` and pushing fresh
    /// vectors also meets this contract, at one allocation per component.)
    /// The default (`false`) keeps the engines on fingerprint-only storage.
    fn components(&self, _state: &Self::State, _out: &mut Vec<Vec<u8>>) -> bool {
        false
    }

    /// Rebuild a state from the byte components produced by
    /// [`Model::components`]. Returns `None` on malformed input. Required
    /// (with `components`) for the spillable frontier and the exact store.
    fn reassemble(&self, _comps: &[Vec<u8>]) -> Option<Self::State> {
        None
    }

    /// Partial-order reduction hook: fill `out` with an *ample subset* of
    /// the enabled actions of `state` and return `true`, or return `false`
    /// to request full expansion. An implementation returning `true` asserts
    /// the ample-set conditions: the chosen actions belong to one process
    /// whose enabled transitions are independent of every other process's
    /// (disjoint reads/writes, no shared channel), and invisible to all
    /// properties and the boundary. The engines enforce the cycle proviso on
    /// top (a fully-explored ample set forces full expansion), so a correct
    /// implementation here preserves verdicts for the property classes the
    /// checker supports.
    ///
    /// `out` may carry previous contents; implementations must clear it.
    /// The default (`false`) means no reduction.
    fn reduced_actions(&self, _state: &Self::State, _out: &mut Vec<Self::Action>) -> bool {
        false
    }

    /// One-line self-description for benches and reports (so result files
    /// name the model from its own config, not from string literals at call
    /// sites). Defaults to the implementing type's name.
    fn describe(&self) -> String {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially small model used to exercise the trait's defaults.
    struct TwoStep;

    impl Model for TwoStep {
        type State = u8;
        type Action = ();

        fn init_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn actions(&self, state: &u8, out: &mut Vec<()>) {
            if *state < 2 {
                out.push(());
            }
        }

        fn next_state(&self, state: &u8, _action: &()) -> Option<u8> {
            Some(state + 1)
        }
    }

    #[test]
    fn default_properties_empty() {
        assert!(TwoStep.properties().is_empty());
    }

    #[test]
    fn default_boundary_is_unbounded() {
        assert!(TwoStep.within_boundary(&255));
    }

    #[test]
    fn default_formatting_uses_debug() {
        assert_eq!(TwoStep.format_state(&7), "7");
        assert_eq!(TwoStep.format_action(&()), "()");
    }

    #[test]
    fn default_store_hooks_opt_out() {
        let mut comps = Vec::new();
        assert!(!TwoStep.components(&0, &mut comps));
        assert!(TwoStep.reassemble(&comps).is_none());
        let mut acts = Vec::new();
        assert!(!TwoStep.reduced_actions(&0, &mut acts));
        assert_eq!(TwoStep.describe(), "TwoStep");
    }

    #[test]
    fn actions_enumerate_until_terminal() {
        let mut out = Vec::new();
        TwoStep.actions(&1, &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        TwoStep.actions(&2, &mut out);
        assert!(out.is_empty(), "state 2 must be terminal");
    }
}
