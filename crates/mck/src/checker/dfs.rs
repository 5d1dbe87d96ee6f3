//! Sequential depth-first exploration with lasso detection.
//!
//! DFS keeps the current path on an explicit stack. A transition back into a
//! node that is *on the stack* closes a cycle in the product graph; because
//! eventually-bits are monotone along a path and part of node identity, every
//! node on that cycle carries the same `ebits`, so any eventually-property
//! whose bit is unset there is violated by the infinite run looping on the
//! cycle. This is the finite-graph equivalent of Spin's acceptance-cycle
//! detection, and is what exposes "request delayed forever" defects (paper
//! instances S3/S4).

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// How many transitions between wall-clock checks against the time budget;
/// keeps the `Instant::now` cost off the hot path.
const TIME_CHECK_MASK: u64 = 0x3FF;

use crate::checker::{ebits_for, split_properties, CheckResult, Checker, Violation};
use crate::fingerprint::{fingerprint_with_ebits, Fx};
use crate::model::Model;
use crate::path::Path;
use crate::stats::CheckStats;
use crate::store::SeqStore;

/// Bookkeeping for one node on the DFS stack.
struct Frame<M: Model> {
    state: M::State,
    ebits: u32,
    fp: u64,
    /// Actions not yet tried from this node (popped from the back).
    pending: Vec<M::Action>,
}

pub(crate) fn run<M: Model>(checker: &Checker<M>) -> CheckResult<M> {
    Dfs::new(checker).run()
}

struct Dfs<'a, M: Model> {
    checker: &'a Checker<M>,
    safety: Vec<crate::property::Property<M>>,
    eventually: Vec<crate::property::Property<M>>,
    all_ebits: u32,
    stats: CheckStats,
    violations: Vec<Violation<M>>,
    violated_names: Vec<&'static str>,
    complete: bool,
    stop_reason: Option<&'static str>,
    /// Visited nodes, in whichever [`StoreMode`](crate::StoreMode) the
    /// checker selected.
    visited: SeqStore,
    /// Fingerprints of the nodes currently on the stack (the lasso
    /// detector). Fingerprint-keyed even in exact store modes: the stack is
    /// shallow, so a collision here is astronomically unlikely and only
    /// affects lasso classification, never state-space coverage.
    on_stack: HashSet<u64, BuildHasherDefault<Fx>>,
    stack: Vec<Frame<M>>,
    path: Option<Path<M::State, M::Action>>,
}

impl<'a, M: Model> Dfs<'a, M> {
    fn new(checker: &'a Checker<M>) -> Self {
        let props = split_properties(&checker.model);
        let all_ebits = if props.eventually.is_empty() {
            0
        } else {
            (1u32 << props.eventually.len()) - 1
        };
        let probe = checker.model.init_states().into_iter().next();
        Self {
            visited: SeqStore::new(checker.store, &checker.model, probe.as_ref()),
            checker,
            safety: props.safety,
            eventually: props.eventually,
            all_ebits,
            stats: CheckStats::default(),
            violations: Vec::new(),
            violated_names: Vec::new(),
            complete: true,
            stop_reason: None,
            on_stack: HashSet::default(),
            stack: Vec::new(),
            path: None,
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        expectation: crate::Expectation,
        lasso: bool,
        witness: &Path<M::State, M::Action>,
    ) {
        if !self.violated_names.contains(&name) {
            self.violated_names.push(name);
            self.violations.push(Violation {
                property: name,
                expectation,
                path: witness.clone(),
                lasso,
            });
        }
    }

    fn check_missing_eventually(
        &mut self,
        ebits: u32,
        lasso: bool,
        witness: &Path<M::State, M::Action>,
    ) {
        let missing = self.all_ebits & !ebits;
        for i in 0..self.eventually.len() {
            if missing & (1 << i) != 0 {
                let p = &self.eventually[i];
                let (name, exp) = (p.name, p.expectation);
                self.record(name, exp, lasso, witness);
            }
        }
    }

    /// Inspect a node just pushed on the stack: counters, safety checks,
    /// action enumeration, terminal-path eventually checks.
    fn inspect_top(&mut self) {
        self.stats.unique_states += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.stack.len() - 1);
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.stack.len());

        let state = self.stack.last().unwrap().state.clone();
        let safety_hits: Vec<(&'static str, crate::Expectation)> = self
            .safety
            .iter()
            .filter(|p| p.violated_at(&self.checker.model, &state))
            .map(|p| (p.name, p.expectation))
            .collect();
        for (name, exp) in safety_hits {
            let witness = self.path.take().unwrap();
            self.record(name, exp, false, &witness);
            self.path = Some(witness);
        }

        let within = self.checker.model.within_boundary(&state)
            && self.stack.len() - 1 < self.checker.max_depth;
        if !within {
            self.stats.boundary_hits += 1;
        }

        if within {
            let mut pending = Vec::new();
            self.checker.model.actions(&state, &mut pending);
            pending.reverse(); // try the first enumerated action first
            if pending.is_empty() {
                self.stats.terminal_states += 1;
            }
            self.stack.last_mut().unwrap().pending = pending;
        }

        if self.stack.last().unwrap().pending.is_empty() {
            let ebits = self.stack.last().unwrap().ebits;
            let witness = self.path.take().unwrap();
            self.check_missing_eventually(ebits, false, &witness);
            self.path = Some(witness);
        }
    }

    fn run(mut self) -> CheckResult<M> {
        let start = Instant::now();
        let deadline = self.checker.time_budget.map(|b| start + b);
        let model = &self.checker.model;

        'inits: for init in model.init_states() {
            let ebits = ebits_for(model, &self.eventually, &init, 0);
            let fp = fingerprint_with_ebits(&init, ebits);
            if !self.visited.insert(model, &init, ebits) {
                continue;
            }
            if self.stats.unique_states >= self.checker.max_states {
                // The unique-node budget bounds *discovered* nodes, the same
                // quantity the other engines bound.
                self.complete = false;
                self.stop_reason = Some("state budget exhausted");
                break;
            }
            self.on_stack.insert(fp);
            self.path = Some(Path::new(init.clone()));
            self.stack.push(Frame {
                state: init,
                ebits,
                fp,
                pending: Vec::new(),
            });
            self.inspect_top();

            'tree: while !self.stack.is_empty() {
                if let Some(dl) = deadline {
                    if self.stats.transitions & TIME_CHECK_MASK == 0 && Instant::now() >= dl {
                        self.complete = false;
                        self.stop_reason = Some("time budget exhausted");
                        self.stack.clear();
                        break 'inits;
                    }
                }
                let maybe_action = self.stack.last_mut().unwrap().pending.pop();
                let Some(action) = maybe_action else {
                    let frame = self.stack.pop().unwrap();
                    self.on_stack.remove(&frame.fp);
                    self.path.as_mut().unwrap().pop();
                    continue;
                };

                self.stats.transitions += 1;
                let (next, ebits) = {
                    let top = self.stack.last().unwrap();
                    let Some(next) = model.next_state(&top.state, &action) else {
                        continue;
                    };
                    let ebits = ebits_for(model, &self.eventually, &next, top.ebits);
                    (next, ebits)
                };
                let fp = fingerprint_with_ebits(&next, ebits);

                if self.on_stack.contains(&fp) {
                    // Back edge into the stack: cycle with frozen ebits.
                    let mut witness = self.path.as_ref().unwrap().clone();
                    witness.push(action, next);
                    self.check_missing_eventually(ebits, true, &witness);
                } else if self.visited.insert(model, &next, ebits) {
                    if self.stats.unique_states >= self.checker.max_states {
                        self.complete = false;
                        self.stop_reason = Some("state budget exhausted");
                        self.stack.clear();
                        break 'tree;
                    }
                    self.on_stack.insert(fp);
                    self.path.as_mut().unwrap().push(action, next.clone());
                    self.stack.push(Frame {
                        state: next,
                        ebits,
                        fp,
                        pending: Vec::new(),
                    });
                    self.inspect_top();
                }
                // else: fully explored elsewhere
            }
            if !self.complete {
                break;
            }
        }

        if self.visited.is_bitstate() && self.complete {
            // A Bloom store may have silently pruned new states; never claim
            // the space was exhausted.
            self.complete = false;
            self.stop_reason = Some("bitstate store (possible omissions)");
        }
        self.stats.store = self.visited.stats();
        self.stats.duration = start.elapsed();
        CheckResult {
            stats: self.stats,
            violations: self.violations,
            complete: self.complete,
            stop_reason: self.stop_reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::testmodels::{Counter, CycleEscape};
    use crate::checker::{Checker, SearchStrategy};

    fn dfs<M: crate::Model>(model: M) -> Checker<M> {
        Checker::new(model).strategy(SearchStrategy::Dfs)
    }

    #[test]
    fn finds_safety_violation() {
        let result = dfs(Counter {
            max: 10,
            forbid: Some(7),
            must_reach: None,
        })
        .run();
        let v = result.violation("forbidden").unwrap();
        assert_eq!(*v.path.last_state(), 7);
    }

    #[test]
    fn explores_same_state_count_as_bfs() {
        let d = dfs(Counter {
            max: 30,
            forbid: None,
            must_reach: None,
        })
        .run();
        let b = Checker::new(Counter {
            max: 30,
            forbid: None,
            must_reach: None,
        })
        .run();
        assert_eq!(d.stats.unique_states, b.stats.unique_states);
        assert!(d.complete && b.complete);
    }

    #[test]
    fn detects_lasso_for_unescaped_cycle() {
        let result = dfs(CycleEscape).run();
        let v = result.violation("escapes").expect("cycle must violate");
        assert!(v.lasso, "witness should be a lasso");
        // The closing state must already appear earlier on the path.
        let last = *v.path.last_state();
        let seen_before = v
            .path
            .states()
            .take(v.path.len())
            .filter(|s| **s == last)
            .count();
        assert!(seen_before >= 1);
    }

    #[test]
    fn eventually_terminal_violation_found() {
        let result = dfs(Counter {
            max: 10,
            forbid: None,
            must_reach: Some(9),
        })
        .run();
        assert!(result.violation("reached").is_some());
    }

    #[test]
    fn eventually_holds_on_forced_passage() {
        let result = dfs(Counter {
            max: 2,
            forbid: None,
            must_reach: Some(2),
        })
        .run();
        assert!(result.holds(), "{:?}", result.violations);
    }

    #[test]
    fn zero_time_budget_reports_incomplete() {
        let result = dfs(Counter {
            max: 200,
            forbid: None,
            must_reach: None,
        })
        .time_budget(std::time::Duration::ZERO)
        .run();
        assert!(!result.complete);
        assert_eq!(result.stop_reason, Some("time budget exhausted"));
    }

    #[test]
    fn max_states_bounds_discovered_nodes_exactly() {
        let result = dfs(Counter {
            max: 200,
            forbid: None,
            must_reach: None,
        })
        .max_states(10)
        .run();
        assert!(!result.complete);
        assert_eq!(result.stats.unique_states, 10);
    }

    #[test]
    fn collapse_store_matches_hash_compact_in_dfs() {
        use crate::checker::testmodels::Grid;
        use crate::store::StoreMode;
        let base = dfs(Grid {
            side: 10,
            forbid: Some((7, 3)),
            watch_y: None,
        })
        .run();
        let collapsed = dfs(Grid {
            side: 10,
            forbid: Some((7, 3)),
            watch_y: None,
        })
        .store(StoreMode::Collapse)
        .run();
        assert_eq!(base.stats.unique_states, collapsed.stats.unique_states);
        assert_eq!(
            base.violation("forbidden-cell").unwrap().path.len(),
            collapsed.violation("forbidden-cell").unwrap().path.len()
        );
        assert_eq!(collapsed.stats.store.mode, "collapse");
    }

    #[test]
    fn bitstate_dfs_never_complete_but_still_detects_lassos() {
        use crate::store::StoreMode;
        let result = dfs(CycleEscape)
            .store(StoreMode::Bitstate {
                log2_bits: 16,
                hashes: 2,
            })
            .run();
        assert!(!result.complete);
        assert_eq!(
            result.stop_reason,
            Some("bitstate store (possible omissions)")
        );
        let v = result.violation("escapes").expect("cycle must violate");
        assert!(v.lasso);
    }

    #[test]
    fn depth_bound_prunes() {
        let result = dfs(Counter {
            max: 100,
            forbid: None,
            must_reach: None,
        })
        .max_depth(5)
        .run();
        assert!(result.stats.max_depth <= 5);
        assert!(result.stats.boundary_hits > 0);
    }
}
