//! Cross-engine agreement: BFS, DFS and ParallelBfs must report the same
//! state counts and the same property verdicts on the same model — and the
//! visited-store mode (hash-compact, exact, collapse) must change nothing
//! observable under any of them.
//!
//! The models here are seeded random DAGs — states carry a strictly
//! increasing level, so the space is acyclic and DFS's extra lasso
//! detection cannot (correctly) produce verdicts the other engines miss.

use mck::{Checker, Model, Property, SearchStrategy};

/// SplitMix64 finalizer — a cheap, well-mixed pure hash for deriving the
/// random topology from `(seed, level, id, branch)`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A random layered DAG. States are `(level, id)`; every transition goes to
/// `level + 1`, so the graph is acyclic by construction. A `never` property
/// forbids one pseudo-randomly chosen state (which may or may not be
/// reachable) and an `eventually` property requires each maximal path to
/// reach an id of one parity at the final level.
struct RandomDag {
    seed: u64,
    levels: u8,
    width: u8,
    forbid_level: u8,
    forbid_id: u8,
    goal_parity: u8,
}

impl RandomDag {
    fn from_seed(seed: u64) -> Self {
        let levels = 3 + (mix(seed ^ 1) % 4) as u8; // 3..=6
        let width = 3 + (mix(seed ^ 2) % 6) as u8; // 3..=8
        RandomDag {
            seed,
            levels,
            width,
            forbid_level: 1 + (mix(seed ^ 3) % u64::from(levels)) as u8,
            forbid_id: (mix(seed ^ 4) % u64::from(width)) as u8,
            goal_parity: (mix(seed ^ 5) % 2) as u8,
        }
    }

    fn branch(&self, level: u8, id: u8, action: u8) -> u8 {
        let h =
            mix(self.seed ^ (u64::from(level) << 32) ^ (u64::from(id) << 16) ^ u64::from(action));
        (h % u64::from(self.width)) as u8
    }
}

impl Model for RandomDag {
    type State = (u8, u8);
    type Action = u8;

    fn init_states(&self) -> Vec<(u8, u8)> {
        vec![(0, 0)]
    }

    fn actions(&self, state: &(u8, u8), out: &mut Vec<u8>) {
        if state.0 < self.levels {
            let fanout = 1 + (mix(self.seed ^ u64::from(state.0) ^ (u64::from(state.1) << 8)) % 3);
            for a in 0..fanout as u8 {
                out.push(a);
            }
        }
    }

    fn next_state(&self, state: &(u8, u8), action: &u8) -> Option<(u8, u8)> {
        Some((state.0 + 1, self.branch(state.0, state.1, *action)))
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property::never("forbidden-node", |m: &RandomDag, s: &(u8, u8)| {
                s.0 == m.forbid_level && s.1 == m.forbid_id
            }),
            Property::eventually("goal-parity-at-bottom", |m: &RandomDag, s: &(u8, u8)| {
                s.0 == m.levels && s.1 % 2 == m.goal_parity
            }),
        ]
    }

    fn components(&self, state: &(u8, u8), out: &mut Vec<Vec<u8>>) -> bool {
        out.clear();
        out.push(vec![state.0]);
        out.push(vec![state.1]);
        true
    }

    fn reassemble(&self, comps: &[Vec<u8>]) -> Option<(u8, u8)> {
        if comps.len() != 2 || comps[0].len() != 1 || comps[1].len() != 1 {
            return None;
        }
        Some((comps[0][0], comps[1][0]))
    }
}

/// What each engine reported; the fields the engines must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    unique_states: u64,
    terminal_states: u64,
    complete: bool,
    violated: Vec<&'static str>,
}

fn outcome(model: RandomDag, strategy: SearchStrategy) -> Outcome {
    let checker = Checker::new(model).strategy(strategy);
    let result = checker.run();
    // Whatever the verdicts, every reported witness must replay.
    for v in &result.violations {
        let mut state = *v.path.init_state();
        for action in v.path.actions() {
            state = checker
                .model()
                .next_state(&state, action)
                .expect("witness action must apply");
        }
    }
    let mut violated: Vec<&'static str> = result.violations.iter().map(|v| v.property).collect();
    violated.sort_unstable();
    Outcome {
        unique_states: result.stats.unique_states,
        terminal_states: result.stats.terminal_states,
        complete: result.complete,
        violated,
    }
}

#[test]
fn engines_agree_on_random_dags() {
    for seed in 0..32u64 {
        let reference = outcome(RandomDag::from_seed(seed), SearchStrategy::Bfs);
        assert!(reference.complete, "seed {seed}: BFS must exhaust the DAG");
        for strategy in [
            SearchStrategy::Dfs,
            SearchStrategy::ParallelBfs { workers: 2 },
            SearchStrategy::ParallelBfs { workers: 4 },
        ] {
            let got = outcome(RandomDag::from_seed(seed), strategy);
            assert_eq!(
                got, reference,
                "seed {seed}: {strategy:?} disagrees with BFS"
            );
        }
    }
}

/// Like [`outcome`], but with an explicit visited-store mode, also
/// collecting per-property witness lengths (comparable only across runs of
/// the *same* strategy: DFS counterexamples are legitimately longer).
fn outcome_with_store(
    model: RandomDag,
    strategy: SearchStrategy,
    store: mck::StoreMode,
) -> (Outcome, Vec<(&'static str, usize)>) {
    let checker = Checker::new(model).strategy(strategy).store(store);
    let result = checker.run();
    let mut lens: Vec<(&'static str, usize)> = result
        .violations
        .iter()
        .map(|v| (v.property, v.path.len()))
        .collect();
    lens.sort_unstable();
    let mut violated: Vec<&'static str> = result.violations.iter().map(|v| v.property).collect();
    violated.sort_unstable();
    (
        Outcome {
            unique_states: result.stats.unique_states,
            terminal_states: result.stats.terminal_states,
            complete: result.complete,
            violated,
        },
        lens,
    )
}

#[test]
fn stores_agree_with_hash_compact_across_engines() {
    // The exact and collapse stores must change nothing observable next to
    // the fingerprint store: same coverage, same verdicts, and — within
    // each strategy — the same witness lengths.
    for seed in 0..12u64 {
        for strategy in [
            SearchStrategy::Bfs,
            SearchStrategy::Dfs,
            SearchStrategy::ParallelBfs { workers: 2 },
        ] {
            let (reference, ref_lens) = outcome_with_store(
                RandomDag::from_seed(seed),
                strategy,
                mck::StoreMode::HashCompact,
            );
            for store in [mck::StoreMode::Exact, mck::StoreMode::Collapse] {
                let (got, lens) = outcome_with_store(RandomDag::from_seed(seed), strategy, store);
                assert_eq!(
                    got, reference,
                    "seed {seed}: {strategy:?} × {store:?} disagrees with hash-compact"
                );
                assert_eq!(
                    lens, ref_lens,
                    "seed {seed}: {strategy:?} × {store:?} witness lengths drifted"
                );
            }
        }
    }
}

#[test]
fn engines_agree_under_truncation() {
    // With a unified discovery budget, even *truncated* runs agree on how
    // many unique nodes were admitted.
    for seed in [3u64, 11, 19] {
        let cap = 12;
        for strategy in [
            SearchStrategy::Bfs,
            SearchStrategy::Dfs,
            SearchStrategy::ParallelBfs { workers: 4 },
        ] {
            let checker = Checker::new(RandomDag::from_seed(seed))
                .strategy(strategy)
                .max_states(cap);
            let result = checker.run();
            if !result.complete {
                assert_eq!(
                    result.stats.unique_states, cap,
                    "seed {seed}: {strategy:?} truncated elsewhere than the budget"
                );
            }
        }
    }
}
