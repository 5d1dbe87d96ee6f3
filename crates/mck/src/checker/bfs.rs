//! Sequential breadth-first exploration.
//!
//! The engine is built around two pluggable pieces:
//!
//! * the **visited store** ([`StoreMode`](crate::StoreMode)) — hash-compact
//!   fingerprints by default, exact or collapse (component-interned) sets
//!   for lossless runs, or a bitstate Bloom array for maximum head-room;
//! * the **frontier** ([`frontier`](crate::frontier)) — in-memory by
//!   default, disk-spillable in bounded segments for wavefronts larger than
//!   RAM.
//!
//! Full states are *not* retained after expansion. When path tracking is on
//! (the default) each discovered node records only its parent link and the
//! action that produced it; a counterexample is rebuilt by replaying the
//! recorded action sequence from its initial state, which is exact because
//! models are deterministic per `(state, action)`. At hyper scale
//! (`track_paths(false)`) even that arena is dropped and a violation carries
//! just the violating state.
//!
//! With [`Checker::por`](crate::Checker::por) enabled, states offering an
//! *ample set* ([`Model::reduced_actions`]) are expanded with that subset
//! only, under the cycle proviso: if every ample successor is already
//! visited the node is re-expanded in full, so no enabled action is ignored
//! forever (the BFS analogue of Spin's in-stack proviso).

use std::time::Instant;

use crate::checker::{ebits_for, split_properties, CheckResult, Checker, Violation};
use crate::frontier::{Frontier, QItem};
use crate::model::Model;
use crate::path::Path;
use crate::stats::CheckStats;
use crate::store::SeqStore;

/// Provenance of a discovered node: which action produced it from which
/// parent node (or which initial state it is). States are deliberately not
/// stored; see the module docs.
enum Prov<M: Model> {
    /// `Root(i)`: the i-th initial state.
    Root(u32),
    /// `Step(parent, action)`: produced by `action` from node `parent`.
    Step(u32, M::Action),
}

/// Node id used when path tracking is off.
const NO_NODE: u32 = u32::MAX;

fn rebuild_path<M: Model>(
    model: &M,
    inits: &[M::State],
    prov: &[Prov<M>],
    idx: u32,
    fallback: &M::State,
) -> Path<M::State, M::Action> {
    if idx == NO_NODE {
        // track_paths(false): the witness is the violating state alone.
        return Path::new(fallback.clone());
    }
    let mut actions: Vec<M::Action> = Vec::new();
    let mut at = idx as usize;
    let init = loop {
        match &prov[at] {
            Prov::Root(i) => break inits[*i as usize].clone(),
            Prov::Step(parent, action) => {
                actions.push(action.clone());
                at = *parent as usize;
            }
        }
    };
    actions.reverse();
    Path::replay(model, init, &actions)
        .expect("replaying a recorded counterexample cannot fail on a deterministic model")
}

pub(crate) fn run<M: Model>(checker: &Checker<M>) -> CheckResult<M> {
    let model = &checker.model;
    let props = split_properties(model);
    let all_ebits: u32 = if props.eventually.is_empty() {
        0
    } else {
        (1u32 << props.eventually.len()) - 1
    };

    let start = Instant::now();
    let deadline = checker.time_budget.map(|b| start + b);
    let mut stats = CheckStats::default();
    let mut violations: Vec<Violation<M>> = Vec::new();
    let mut violated_names: Vec<&'static str> = Vec::new();
    let mut complete = true;
    let mut stop_reason: Option<&'static str> = None;

    let inits = model.init_states();
    let mut store = SeqStore::new(checker.store, model, inits.first());
    let mut frontier: Frontier<M> = {
        let mut probe = Vec::new();
        let componentized = inits
            .first()
            .map(|s| model.components(s, &mut probe))
            .unwrap_or(false);
        match &checker.spill {
            Some((segment, dir)) if componentized => {
                Frontier::spilling(*segment, dir.clone().unwrap_or_else(std::env::temp_dir))
            }
            _ => Frontier::in_memory(),
        }
    };
    let track = checker.track_paths;
    let mut prov: Vec<Prov<M>> = Vec::new();
    let mut actions: Vec<M::Action> = Vec::new();

    // Reports a violation once per property.
    macro_rules! report {
        ($name:expr, $expectation:expr, $node:expr, $state:expr) => {{
            if !violated_names.contains(&$name) {
                violated_names.push($name);
                violations.push(Violation {
                    property: $name,
                    expectation: $expectation,
                    path: rebuild_path(model, &inits, &prov, $node, $state),
                    lasso: false,
                });
            }
        }};
    }

    for (i, init) in inits.iter().enumerate() {
        let ebits = ebits_for(model, &props.eventually, init, 0);
        if store.insert(model, init, ebits) {
            if stats.unique_states >= checker.max_states {
                complete = false;
                stop_reason = Some("state budget exhausted");
                break;
            }
            stats.unique_states += 1;
            let node = if track {
                prov.push(Prov::Root(i as u32));
                (prov.len() - 1) as u32
            } else {
                NO_NODE
            };
            frontier.push(
                model,
                QItem {
                    state: init.clone(),
                    ebits,
                    node,
                    depth: 0,
                },
            );
        }
    }
    stats.peak_frontier = frontier.len();

    'search: while let Some(item) = frontier.pop(model) {
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                complete = false;
                stop_reason = Some("time budget exhausted");
                break 'search;
            }
        }
        stats.max_depth = stats.max_depth.max(item.depth as usize);

        // Safety properties at every node.
        for p in &props.safety {
            if p.violated_at(model, &item.state) {
                report!(p.name, p.expectation, item.node, &item.state);
            }
        }

        let within =
            model.within_boundary(&item.state) && (item.depth as usize) < checker.max_depth;
        if !within {
            stats.boundary_hits += 1;
        }

        actions.clear();
        if within {
            let mut reduced = checker.por && model.reduced_actions(&item.state, &mut actions);
            if reduced && actions.is_empty() {
                reduced = false; // an empty ample set is a contract breach; recover
            }
            if reduced {
                // Cycle proviso: an ample set whose successors are all
                // already visited could postpone the other processes
                // forever around a cycle — expand such states in full.
                let mut any_new = false;
                for action in &actions {
                    if let Some(next) = model.next_state(&item.state, action) {
                        let ebits = ebits_for(model, &props.eventually, &next, item.ebits);
                        if !store.contains(model, &next, ebits) {
                            any_new = true;
                            break;
                        }
                    }
                }
                if !any_new {
                    reduced = false;
                }
            }
            if !reduced {
                actions.clear();
                model.actions(&item.state, &mut actions);
            }
        }

        if actions.is_empty() {
            if within {
                stats.terminal_states += 1;
            }
            // A maximal (or truncated) path: every unsatisfied Eventually
            // property is violated along it.
            let missing = all_ebits & !item.ebits;
            if missing != 0 {
                for (i, p) in props.eventually.iter().enumerate() {
                    if missing & (1 << i) != 0 {
                        report!(p.name, p.expectation, item.node, &item.state);
                    }
                }
            }
            continue;
        }

        let acts = std::mem::take(&mut actions);
        for action in &acts {
            stats.transitions += 1;
            let Some(next) = model.next_state(&item.state, action) else {
                continue;
            };
            let ebits = ebits_for(model, &props.eventually, &next, item.ebits);
            if store.insert(model, &next, ebits) {
                if stats.unique_states >= checker.max_states {
                    // The unique-node budget bounds *discovered* nodes, the
                    // same quantity the other engines bound.
                    complete = false;
                    stop_reason = Some("state budget exhausted");
                    break 'search;
                }
                stats.unique_states += 1;
                let node = if track {
                    prov.push(Prov::Step(item.node, action.clone()));
                    (prov.len() - 1) as u32
                } else {
                    NO_NODE
                };
                frontier.push(
                    model,
                    QItem {
                        state: next,
                        ebits,
                        node,
                        depth: item.depth + 1,
                    },
                );
            }
        }
        actions = acts;
        stats.peak_frontier = stats.peak_frontier.max(frontier.len());
    }

    if store.is_bitstate() && complete {
        // A Bloom store may have silently pruned new states; never claim the
        // space was exhausted. The omission probability is in the stats.
        complete = false;
        stop_reason = Some("bitstate store (possible omissions)");
    }

    stats.store = store.stats();
    let (segments, nodes, bytes) = frontier.spill_stats();
    stats.store.spill_segments = segments;
    stats.store.spilled_nodes = nodes;
    stats.store.spilled_bytes = bytes;
    stats.duration = start.elapsed();
    CheckResult {
        stats,
        violations,
        complete,
        stop_reason,
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::testmodels::{Counter, Grid};
    use crate::checker::{Checker, SearchStrategy};
    use crate::property::Expectation;
    use crate::store::StoreMode;

    #[test]
    fn finds_shortest_safety_counterexample() {
        let checker = Checker::new(Counter {
            max: 10,
            forbid: Some(5),
            must_reach: None,
        })
        .strategy(SearchStrategy::Bfs);
        let result = checker.run();
        let v = result.violation("forbidden").expect("must violate");
        assert_eq!(v.expectation, Expectation::Never);
        assert_eq!(*v.path.last_state(), 5);
        // Shortest path to 5 with steps {1,2}: 2+2+1 = 3 steps.
        assert_eq!(v.path.len(), 3);
    }

    #[test]
    fn safety_holds_when_unreachable() {
        // Steps are 1 or 2 from 0 with max 10: every value 0..=10 reachable,
        // so forbid 11 (never generated because of max).
        let result = Checker::new(Counter {
            max: 10,
            forbid: Some(11),
            must_reach: None,
        })
        .run();
        assert!(result.holds());
        assert_eq!(result.stats.unique_states, 11);
    }

    #[test]
    fn eventually_violated_on_terminal_path() {
        // From 0, +2 repeatedly reaches 10 while skipping 9... but +1 paths
        // hit every value; requiring 9 on *every* path must fail because the
        // all-+2 path ends at 10 without passing 9.
        let result = Checker::new(Counter {
            max: 10,
            forbid: None,
            must_reach: Some(9),
        })
        .run();
        let v = result.violation("reached").expect("must violate");
        assert!(!v.lasso);
        assert!(!v.path.any_state(|s| *s == 9));
    }

    #[test]
    fn eventually_holds_when_all_paths_pass() {
        // Every path from 0 with steps {1,2} and max 2 ends at 2 (0->2 or
        // 0->1->2): requiring 2 holds on all maximal paths.
        let result = Checker::new(Counter {
            max: 2,
            forbid: None,
            must_reach: Some(2),
        })
        .run();
        assert!(result.holds(), "violations: {:?}", result.violations);
    }

    #[test]
    fn max_states_truncates_and_reports_incomplete() {
        let result = Checker::new(Counter {
            max: 200,
            forbid: None,
            must_reach: None,
        })
        .max_states(10)
        .run();
        assert!(!result.complete);
        // The budget bounds discovered nodes exactly (same across engines).
        assert_eq!(result.stats.unique_states, 10);
    }

    #[test]
    fn peak_frontier_tracks_queue_width() {
        let result = Checker::new(Counter {
            max: 10,
            forbid: None,
            must_reach: None,
        })
        .run();
        // From any mid-range value both +1 and +2 are enabled, so the queue
        // holds at least two nodes at some point.
        assert!(result.stats.peak_frontier >= 2);
    }

    #[test]
    fn max_depth_counts_boundary() {
        let result = Checker::new(Counter {
            max: 200,
            forbid: None,
            must_reach: None,
        })
        .max_depth(3)
        .run();
        assert!(result.stats.boundary_hits > 0);
        assert!(result.stats.max_depth <= 3);
    }

    #[test]
    fn zero_time_budget_reports_incomplete_verdict() {
        let result = Checker::new(Counter {
            max: 200,
            forbid: None,
            must_reach: None,
        })
        .time_budget(std::time::Duration::ZERO)
        .run();
        assert!(!result.complete);
        match result.verdict() {
            crate::checker::Verdict::Incomplete { reason, .. } => {
                assert_eq!(reason, "time budget exhausted");
            }
            crate::checker::Verdict::Complete => panic!("budget of zero cannot complete"),
        }
    }

    #[test]
    fn transition_and_terminal_counters() {
        let result = Checker::new(Counter {
            max: 3,
            forbid: None,
            must_reach: None,
        })
        .run();
        // States 0,1,2,3. Terminal: 2 can +1, 3 cannot move => terminal.
        assert_eq!(result.stats.unique_states, 4);
        assert_eq!(result.stats.terminal_states, 1);
        assert!(result.stats.transitions >= 4);
    }

    #[test]
    fn collapse_store_matches_hash_compact_exploration() {
        let grid = || Grid {
            side: 12,
            forbid: Some((7, 7)),
            watch_y: None,
        };
        let base = Checker::new(grid()).run();
        let collapsed = Checker::new(grid()).store(StoreMode::Collapse).run();
        assert_eq!(base.stats.unique_states, collapsed.stats.unique_states);
        assert_eq!(
            base.violation("forbidden-cell").unwrap().path.len(),
            collapsed.violation("forbidden-cell").unwrap().path.len()
        );
        assert_eq!(collapsed.stats.store.mode, "collapse");
        assert!(collapsed.stats.store.interned_components > 0);
        assert_eq!(collapsed.stats.omission_probability(), 0.0);
    }

    #[test]
    fn exact_store_matches_hash_compact_exploration() {
        let base = Checker::new(Grid {
            side: 9,
            forbid: None,
            watch_y: None,
        })
        .run();
        let exact = Checker::new(Grid {
            side: 9,
            forbid: None,
            watch_y: None,
        })
        .store(StoreMode::Exact)
        .run();
        assert_eq!(base.stats.unique_states, exact.stats.unique_states);
        assert_eq!(exact.stats.store.mode, "exact");
        assert!(exact.stats.store.store_bytes > 0);
    }

    #[test]
    fn exact_store_downgrades_without_components() {
        // Counter has no component split: an exact request degrades to
        // hash-compact and says so rather than failing or lying.
        let result = Checker::new(Counter {
            max: 10,
            forbid: None,
            must_reach: None,
        })
        .store(StoreMode::Exact)
        .run();
        assert!(result.complete);
        assert!(result.stats.store.mode.contains("hash-compact"));
        assert!(result.stats.store.mode.contains("no component split"));
    }

    #[test]
    fn bitstate_run_is_never_complete() {
        let result = Checker::new(Grid {
            side: 6,
            forbid: None,
            watch_y: None,
        })
        .store(StoreMode::Bitstate {
            log2_bits: 20,
            hashes: 3,
        })
        .run();
        assert!(!result.complete);
        assert_eq!(
            result.stop_reason,
            Some("bitstate store (possible omissions)")
        );
        // At this tiny fill the sweep should still have seen everything.
        assert_eq!(result.stats.unique_states, 36);
        assert!(result.stats.omission_probability() > 0.0);
        assert!(result.stats.omission_probability() < 1e-6);
    }

    #[test]
    fn bitstate_finds_violations() {
        let result = Checker::new(Grid {
            side: 8,
            forbid: Some((5, 2)),
            watch_y: None,
        })
        .store(StoreMode::Bitstate {
            log2_bits: 20,
            hashes: 3,
        })
        .run();
        let v = result.violation("forbidden-cell").expect("must violate");
        assert_eq!(*v.path.last_state(), (5, 2));
        assert_eq!(v.path.len(), 7, "BFS still finds a shortest witness");
    }

    #[test]
    fn overfilled_bitstate_counts_are_pinned() {
        // 40 000 grid states into 2^16 bits at k = 3: false positives prune
        // much of the grid, so each count depends on where every probe lands.
        let result = Checker::new(Grid {
            side: 200,
            forbid: None,
            watch_y: None,
        })
        .store(StoreMode::Bitstate {
            log2_bits: 16,
            hashes: 3,
        })
        .run();
        let s = &result.stats;
        assert_eq!(
            (s.unique_states, s.transitions, s.store.bits_set),
            (25_433, 50_782, 50_014)
        );
    }

    #[test]
    fn spilling_frontier_explores_identically() {
        let base = Checker::new(Grid {
            side: 20,
            forbid: Some((19, 19)),
            watch_y: None,
        })
        .run();
        let spilled = Checker::new(Grid {
            side: 20,
            forbid: Some((19, 19)),
            watch_y: None,
        })
        .store(StoreMode::Collapse)
        .spill(16) // absurdly small segments to force many spills
        .run();
        assert_eq!(base.stats.unique_states, spilled.stats.unique_states);
        assert_eq!(base.stats.max_depth, spilled.stats.max_depth);
        assert_eq!(
            base.violation("forbidden-cell").unwrap().path.len(),
            spilled.violation("forbidden-cell").unwrap().path.len()
        );
        assert!(
            spilled.stats.store.spill_segments > 0,
            "segments must hit disk"
        );
        assert!(spilled.stats.store.spilled_nodes > 0);
        assert!(spilled.stats.store.spilled_bytes > 0);
    }

    #[test]
    fn spill_without_components_is_ignored() {
        let result = Checker::new(Counter {
            max: 50,
            forbid: None,
            must_reach: None,
        })
        .spill(4)
        .run();
        assert!(result.complete);
        assert_eq!(result.stats.store.spill_segments, 0);
    }

    #[test]
    fn untracked_paths_still_detect_violations() {
        let result = Checker::new(Grid {
            side: 10,
            forbid: Some((3, 4)),
            watch_y: None,
        })
        .track_paths(false)
        .run();
        let v = result.violation("forbidden-cell").expect("must violate");
        assert_eq!(
            v.path.len(),
            0,
            "no provenance: witness is the state itself"
        );
        assert_eq!(*v.path.last_state(), (3, 4));
    }

    #[test]
    fn por_reduces_states_and_preserves_verdicts() {
        // A y-only property leaves x-moves invisible: the x process is a
        // sound ample set and the reduced product is a staircase instead of
        // the full grid.
        let full = Checker::new(Grid {
            side: 10,
            forbid: None,
            watch_y: Some(8),
        })
        .run();
        let reduced = Checker::new(Grid {
            side: 10,
            forbid: None,
            watch_y: Some(8),
        })
        .por(true)
        .run();
        assert!(full.violation("y-limit").is_some());
        assert!(reduced.violation("y-limit").is_some());
        assert!(full.complete && reduced.complete);
        assert_eq!(full.stats.unique_states, 100);
        assert!(
            reduced.stats.unique_states < full.stats.unique_states / 2,
            "POR must shrink the commuting product ({} vs {})",
            reduced.stats.unique_states,
            full.stats.unique_states
        );
    }

    #[test]
    fn por_preserves_holding_verdicts_too() {
        let full = Checker::new(Grid {
            side: 6,
            forbid: None,
            watch_y: Some(10),
        })
        .run();
        let reduced = Checker::new(Grid {
            side: 6,
            forbid: None,
            watch_y: Some(10),
        })
        .por(true)
        .run();
        assert!(full.holds());
        assert!(reduced.holds(), "y=10 is unreachable in both systems");
    }

    #[test]
    fn por_falls_back_when_no_ample_set_exists() {
        // A full-cell property watches both axes, so the model refuses to
        // reduce and POR-on must explore exactly the POR-off space.
        for forbid in [(0, 5), (5, 0), (2, 9)] {
            let full = Checker::new(Grid {
                side: 10,
                forbid: Some(forbid),
                watch_y: None,
            })
            .run();
            let reduced = Checker::new(Grid {
                side: 10,
                forbid: Some(forbid),
                watch_y: None,
            })
            .por(true)
            .run();
            assert_eq!(full.stats.unique_states, reduced.stats.unique_states);
            assert_eq!(
                full.violation("forbidden-cell").is_some(),
                reduced.violation("forbidden-cell").is_some(),
                "verdict must agree at {forbid:?}"
            );
        }
    }
}
