//! Full state-graph extraction and Graphviz export.
//!
//! The checker answers "is the property violated?"; sometimes you want the
//! whole reachable graph — to eyeball a protocol interaction in Graphviz
//! (the way the paper draws Figure 6's RRC transitions), to assert
//! structural facts in tests, or to diff two model variants. [`explore`]
//! materializes the graph breadth-first; [`StateGraph::to_dot`] renders it.

use std::collections::HashMap;

use crate::model::Model;

/// A fully materialized reachable state graph.
pub struct StateGraph<M: Model> {
    /// Every distinct reachable state, index = node id.
    pub states: Vec<M::State>,
    /// Edges `(from, action, to)` by node id.
    pub edges: Vec<(usize, M::Action, usize)>,
    /// Node ids of the initial states.
    pub inits: Vec<usize>,
    /// True when the graph was fully explored within the bound.
    pub complete: bool,
}

impl<M: Model> StateGraph<M> {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node ids with no outgoing edges (terminal states).
    pub fn terminals(&self) -> Vec<usize> {
        let mut has_out = vec![false; self.states.len()];
        for &(from, _, _) in &self.edges {
            has_out[from] = true;
        }
        (0..self.states.len()).filter(|&i| !has_out[i]).collect()
    }

    /// Out-degree of a node.
    pub fn out_degree(&self, node: usize) -> usize {
        self.edges.iter().filter(|&&(f, _, _)| f == node).count()
    }

    /// Render as a Graphviz digraph. Nodes are labeled with
    /// [`Model::format_state`], edges with [`Model::format_action`];
    /// states matching `highlight` are drawn filled red (use it for error
    /// states).
    pub fn to_dot(&self, model: &M, highlight: impl Fn(&M::State) -> bool) -> String {
        let mut s =
            String::from("digraph model {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for (i, state) in self.states.iter().enumerate() {
            let label = escape(&model.format_state(state));
            let attrs = if highlight(state) {
                ", style=filled, fillcolor=\"#ffb3b3\""
            } else if self.inits.contains(&i) {
                ", style=filled, fillcolor=\"#b3d9ff\""
            } else {
                ""
            };
            s.push_str(&format!("  n{i} [label=\"{label}\"{attrs}];\n"));
        }
        for (from, action, to) in &self.edges {
            let label = escape(&model.format_action(action));
            s.push_str(&format!(
                "  n{from} -> n{to} [label=\"{label}\", fontsize=9];\n"
            ));
        }
        s.push_str("}\n");
        s
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Explore the reachable graph breadth-first, up to `max_states` nodes.
///
/// Interning is *exact* (keyed on the state itself, not a fingerprint): a
/// materialized graph is the ground truth other artifacts get diffed
/// against, so it must never merge two distinct states on a hash collision.
pub fn explore<M: Model>(model: &M, max_states: usize) -> StateGraph<M> {
    let mut ids: HashMap<M::State, usize> = HashMap::new();
    let mut states: Vec<M::State> = Vec::new();
    let mut edges: Vec<(usize, M::Action, usize)> = Vec::new();
    let mut inits = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    let mut complete = true;

    let intern = |state: M::State,
                  states: &mut Vec<M::State>,
                  ids: &mut HashMap<M::State, usize>,
                  queue: &mut Vec<usize>|
     -> usize {
        *ids.entry(state.clone()).or_insert_with(|| {
            states.push(state);
            queue.push(states.len() - 1);
            states.len() - 1
        })
    };

    for init in model.init_states() {
        let id = intern(init, &mut states, &mut ids, &mut queue);
        if !inits.contains(&id) {
            inits.push(id);
        }
    }

    let mut cursor = 0;
    let mut actions = Vec::new();
    while cursor < queue.len() {
        let node = queue[cursor];
        cursor += 1;
        if states.len() >= max_states {
            complete = false;
            break;
        }
        if !model.within_boundary(&states[node]) {
            continue;
        }
        actions.clear();
        model.actions(&states[node], &mut actions);
        let acts = std::mem::take(&mut actions);
        for action in &acts {
            if let Some(next) = model.next_state(&states[node], action) {
                let to = intern(next, &mut states, &mut ids, &mut queue);
                edges.push((node, action.clone(), to));
            }
        }
        actions = acts;
    }

    StateGraph {
        states,
        edges,
        inits,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::testmodels::{Counter, CycleEscape};

    #[test]
    fn explores_full_counter_graph() {
        let model = Counter {
            max: 10,
            forbid: None,
            must_reach: None,
        };
        let g = explore(&model, 10_000);
        assert!(g.complete);
        assert_eq!(g.state_count(), 11); // 0..=10
        assert_eq!(g.inits, vec![0]);
        // 10 is terminal; 9 can only +1.
        let terminals = g.terminals();
        assert_eq!(terminals.len(), 1);
        assert_eq!(g.states[terminals[0]], 10);
    }

    #[test]
    fn edge_count_matches_transition_structure() {
        let model = Counter {
            max: 3,
            forbid: None,
            must_reach: None,
        };
        let g = explore(&model, 100);
        // 0: +1,+2; 1: +1,+2; 2: +1; 3: none => 5 edges.
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn cycle_graph_has_back_edge() {
        let g = explore(&CycleEscape, 100);
        assert_eq!(g.state_count(), 3);
        // The back edge 1 -> 0 exists.
        assert!(g
            .edges
            .iter()
            .any(|&(f, _, t)| g.states[f] == 1 && g.states[t] == 0));
    }

    #[test]
    fn dot_output_is_wellformed() {
        let model = Counter {
            max: 4,
            forbid: Some(3),
            must_reach: None,
        };
        let g = explore(&model, 100);
        let dot = g.to_dot(&model, |s| *s == 3);
        assert!(dot.starts_with("digraph model {"));
        assert!(dot.ends_with("}\n"));
        assert!(
            dot.contains("fillcolor=\"#ffb3b3\""),
            "error state highlighted"
        );
        assert!(
            dot.contains("fillcolor=\"#b3d9ff\""),
            "init state highlighted"
        );
        assert_eq!(dot.matches(" -> ").count(), g.edge_count());
    }

    #[test]
    fn bound_truncates_and_reports() {
        let model = Counter {
            max: 200,
            forbid: None,
            must_reach: None,
        };
        let g = explore(&model, 10);
        assert!(!g.complete);
        assert!(g.state_count() <= 12); // bound + already-queued successors
    }
}
