//! Counterexample paths.

use std::fmt;

/// A concrete execution: an initial state followed by `(action, state)`
/// steps. Produced as the counterexample witness of a property violation and
/// by random-walk simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path<S, A> {
    init: S,
    steps: Vec<(A, S)>,
}

impl<S, A> Path<S, A> {
    /// A zero-length path sitting at `init`.
    pub fn new(init: S) -> Self {
        Self {
            init,
            steps: Vec::new(),
        }
    }

    /// Append a step.
    pub fn push(&mut self, action: A, state: S) {
        self.steps.push((action, state));
    }

    /// Drop the most recent step (used by DFS backtracking).
    pub fn pop(&mut self) -> Option<(A, S)> {
        self.steps.pop()
    }

    /// The initial state.
    pub fn init_state(&self) -> &S {
        &self.init
    }

    /// The state the path currently ends in.
    pub fn last_state(&self) -> &S {
        self.steps.last().map(|(_, s)| s).unwrap_or(&self.init)
    }

    /// Number of steps (transitions), not states.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no step has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Iterate over the actions in order.
    pub fn actions(&self) -> impl Iterator<Item = &A> {
        self.steps.iter().map(|(a, _)| a)
    }

    /// Iterate over every state, starting with the initial one.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        std::iter::once(&self.init).chain(self.steps.iter().map(|(_, s)| s))
    }

    /// Iterate over `(action, resulting state)` pairs.
    pub fn steps(&self) -> impl Iterator<Item = &(A, S)> {
        self.steps.iter()
    }

    /// True if any state along the path (including the initial one)
    /// satisfies `pred`.
    pub fn any_state(&self, pred: impl FnMut(&S) -> bool) -> bool {
        self.states().any(pred)
    }
}

impl<S: Clone, A: Clone> Path<S, A> {
    /// Reconstruct a path by replaying `actions` from `init` through the
    /// model's transition function. Returns `None` if any action is vetoed.
    ///
    /// This is how the BFS engine materializes counterexamples: it records
    /// only `(parent, action)` provenance per node — never full states — and
    /// replays the action sequence on demand, which is exact because models
    /// are deterministic per `(state, action)`.
    pub fn replay<M>(model: &M, init: S, actions: &[A]) -> Option<Self>
    where
        M: crate::model::Model<State = S, Action = A>,
    {
        let mut path = Path::new(init);
        for action in actions {
            let next = model.next_state(path.last_state(), action)?;
            path.push(action.clone(), next);
        }
        Some(path)
    }
}

impl<S: fmt::Debug, A: fmt::Debug> fmt::Display for Path<S, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  [init] {:?}", self.init)?;
        for (i, (a, s)) in self.steps.iter().enumerate() {
            writeln!(f, "  [{:>4}] --{:?}--> {:?}", i + 1, a, s)?;
        }
        Ok(())
    }
}

/// Render a path through the model's own [`Model::format_state`] /
/// [`Model::format_action`] vocabulary instead of the raw `Debug` shapes.
///
/// This is the stable, diffable form: golden files and cross-model trace
/// comparisons (hand-written Rust model vs compiled spec) use it, so its
/// layout is pinned by a unit test and must not drift casually.
///
/// [`Model::format_state`]: crate::model::Model::format_state
/// [`Model::format_action`]: crate::model::Model::format_action
pub fn render_path<M: crate::model::Model>(model: &M, path: &Path<M::State, M::Action>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "  [init] {}", model.format_state(path.init_state()));
    for (i, (a, s)) in path.steps().enumerate() {
        let _ = writeln!(
            out,
            "  [{:>4}] --{}--> {}",
            i + 1,
            model.format_action(a),
            model.format_state(s)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Path<u32, &'static str> {
        let mut p = Path::new(0);
        p.push("inc", 1);
        p.push("double", 2);
        p
    }

    #[test]
    fn last_state_tracks_pushes() {
        let mut p = Path::new(5u32);
        assert_eq!(*p.last_state(), 5);
        p.push("x", 9);
        assert_eq!(*p.last_state(), 9);
    }

    #[test]
    fn pop_restores_previous_state() {
        let mut p = sample();
        assert_eq!(p.pop(), Some(("double", 2)));
        assert_eq!(*p.last_state(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn states_includes_init() {
        let p = sample();
        let states: Vec<u32> = p.states().copied().collect();
        assert_eq!(states, vec![0, 1, 2]);
    }

    #[test]
    fn actions_in_order() {
        let p = sample();
        let acts: Vec<&str> = p.actions().copied().collect();
        assert_eq!(acts, vec!["inc", "double"]);
    }

    #[test]
    fn any_state_scans_whole_path() {
        let p = sample();
        assert!(p.any_state(|s| *s == 0));
        assert!(p.any_state(|s| *s == 2));
        assert!(!p.any_state(|s| *s == 3));
    }

    #[test]
    fn empty_path_reports_empty() {
        let p: Path<u8, ()> = Path::new(1);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(*p.last_state(), 1);
    }

    #[test]
    fn replay_reconstructs_exact_path() {
        use crate::checker::testmodels::Counter;
        let model = Counter {
            max: 10,
            forbid: None,
            must_reach: None,
        };
        let p = Path::replay(&model, 0u8, &[2u8, 2, 1]).expect("legal actions");
        let states: Vec<u8> = p.states().copied().collect();
        assert_eq!(states, vec![0, 2, 4, 5]);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn replay_propagates_vetoed_transitions() {
        use crate::checker::testmodels::Counter;
        let model = Counter {
            max: 3,
            forbid: None,
            must_reach: None,
        };
        // Counter's next_state never vetoes, so replay always succeeds; an
        // empty action list is the degenerate exact witness.
        let p = Path::replay(&model, 1u8, &[]).unwrap();
        assert_eq!(*p.last_state(), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn display_lists_every_step() {
        let text = format!("{}", sample());
        assert!(text.contains("[init] 0"));
        assert!(text.contains("inc"));
        assert!(text.contains("double"));
    }
}
