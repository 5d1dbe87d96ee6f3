//! State-space exploration engines.
//!
//! Three strategies are provided:
//!
//! * [`SearchStrategy::Bfs`] — breadth-first; counterexamples for safety
//!   properties are shortest. `Eventually` properties are checked against
//!   terminal and boundary states (paths that provably end).
//! * [`SearchStrategy::Dfs`] — depth-first; additionally detects **lassos**
//!   (cycles on which an `Eventually` property never holds), the finite-state
//!   reading of a request delayed forever — this is how the paper's S3
//!   "stuck in 3G" and S4 "HOL blocking" manifest.
//! * [`SearchStrategy::ParallelBfs`] — multi-worker breadth-first for large
//!   state spaces, built on a lock-free CAS-insert fingerprint table and
//!   per-worker node arenas. It checks the same property classes as `Bfs`,
//!   including `Eventually` via the product construction; like `Bfs` it does
//!   not detect lassos (use `Dfs` for those).
//!
//! All strategies use the *product construction* for `Eventually`: a node is
//! a `(state, ebits)` pair where `ebits` records which eventually-properties
//! have already held along the path. Revisiting a state with new `ebits` is a
//! fresh node, so satisfaction on one path never masks a violation on
//! another.

mod bfs;
mod dfs;
mod parallel;

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use crate::model::Model;
use crate::path::Path;
use crate::property::{Expectation, Property};
use crate::stats::CheckStats;
use crate::store::StoreMode;

/// Worker count used when a caller asks for "as many workers as the host
/// offers": `available_parallelism`, falling back to **4** when the host
/// cannot report its CPU count (containers without cpuset information,
/// exotic platforms). Four workers keep the layer-merge overhead negligible
/// while still exercising the concurrent code paths, which is why both this
/// crate's parallel engine and downstream screening fan-outs share this one
/// definition instead of each hard-coding a fallback.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Which exploration algorithm [`Checker::run`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Breadth-first search (shortest safety counterexamples).
    Bfs,
    /// Depth-first search (detects liveness lassos).
    Dfs,
    /// Lock-free layer-synchronous parallel BFS with the given worker count
    /// (0 = number of available CPUs). Checks safety and `Eventually`
    /// properties with the same semantics as [`SearchStrategy::Bfs`].
    ParallelBfs {
        /// Worker thread count; 0 picks `available_parallelism`.
        workers: usize,
    },
}

impl SearchStrategy {
    /// Human-readable label, used by benches and reports so strategies
    /// self-describe instead of being hard-coded strings at call sites.
    pub fn label(&self) -> String {
        match self {
            SearchStrategy::Bfs => "bfs".into(),
            SearchStrategy::Dfs => "dfs".into(),
            SearchStrategy::ParallelBfs { workers } => {
                if *workers == 0 {
                    "parallel-bfs(workers=auto)".into()
                } else {
                    format!("parallel-bfs(workers={workers})")
                }
            }
        }
    }
}

/// A property violation with its counterexample.
pub struct Violation<M: Model> {
    /// Name of the violated property.
    pub property: &'static str,
    /// The property's quantifier.
    pub expectation: Expectation,
    /// Witness path from an initial state to the violating state (for
    /// safety) or to the state closing the lasso / the terminal state (for
    /// liveness).
    pub path: Path<M::State, M::Action>,
    /// For liveness violations: whether the witness ends by closing a cycle
    /// (`true`) or in a terminal/boundary state (`false`).
    pub lasso: bool,
}

impl<M: Model> Clone for Violation<M> {
    fn clone(&self) -> Self {
        Self {
            property: self.property,
            expectation: self.expectation,
            path: self.path.clone(),
            lasso: self.lasso,
        }
    }
}

impl<M: Model> fmt::Debug for Violation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Violation")
            .field("property", &self.property)
            .field("expectation", &self.expectation)
            .field("steps", &self.path.len())
            .field("lasso", &self.lasso)
            .finish()
    }
}

/// Whether a run exhausted the reachable space or stopped early, and why.
///
/// `Incomplete` is a first-class answer, not an error: a screening pass that
/// ran out of its state or time budget still learned something (`explored`
/// nodes held the properties), and reports surface that instead of silently
/// pretending the space was exhausted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable node (within the configured bounds) was checked.
    Complete,
    /// The run stopped before exhausting the reachable space.
    Incomplete {
        /// Unique nodes checked before stopping.
        explored: u64,
        /// Human-readable cause ("state budget exhausted", "time budget
        /// exhausted", "bitstate store (possible omissions)", ...).
        reason: String,
    },
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Complete => write!(f, "complete"),
            Verdict::Incomplete { explored, reason } => {
                write!(f, "incomplete after {explored} states ({reason})")
            }
        }
    }
}

/// The outcome of a checking run.
pub struct CheckResult<M: Model> {
    /// Exploration counters.
    pub stats: CheckStats,
    /// At most one violation per property (the first one found).
    pub violations: Vec<Violation<M>>,
    /// True when the reachable space (within bounds) was exhausted.
    pub complete: bool,
    /// Why the run stopped early, when it did (`None` when `complete`).
    pub stop_reason: Option<&'static str>,
}

impl<M: Model> CheckResult<M> {
    /// Look up the violation of a property by name.
    pub fn violation(&self, property: &str) -> Option<&Violation<M>> {
        self.violations.iter().find(|v| v.property == property)
    }

    /// True when no property was violated **and** the space was exhausted.
    pub fn holds(&self) -> bool {
        self.complete && self.violations.is_empty()
    }

    /// Completeness as a reportable verdict.
    pub fn verdict(&self) -> Verdict {
        if self.complete {
            Verdict::Complete
        } else {
            Verdict::Incomplete {
                explored: self.stats.unique_states,
                reason: self.stop_reason.unwrap_or("bounds reached").to_string(),
            }
        }
    }
}

impl<M: Model> fmt::Debug for CheckResult<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckResult")
            .field("stats", &self.stats)
            .field("violations", &self.violations)
            .field("complete", &self.complete)
            .finish()
    }
}

/// Builder/driver for a verification run.
pub struct Checker<M: Model> {
    pub(crate) model: M,
    pub(crate) strategy: SearchStrategy,
    pub(crate) max_depth: usize,
    pub(crate) max_states: u64,
    pub(crate) time_budget: Option<Duration>,
    pub(crate) store: StoreMode,
    pub(crate) por: bool,
    pub(crate) spill: Option<(usize, Option<PathBuf>)>,
    pub(crate) track_paths: bool,
}

impl<M: Model> Checker<M> {
    /// A checker over `model` with BFS, a 10k-step depth bound and a
    /// 50M-node bound (effectively unbounded for this crate's users).
    pub fn new(model: M) -> Self {
        Self {
            model,
            strategy: SearchStrategy::Bfs,
            max_depth: 10_000,
            max_states: 50_000_000,
            time_budget: None,
            store: StoreMode::HashCompact,
            por: false,
            spill: None,
            track_paths: true,
        }
    }

    /// Select the exploration strategy.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Bound the exploration depth (nodes deeper are treated like boundary
    /// nodes).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Bound the number of unique nodes explored.
    pub fn max_states(mut self, states: u64) -> Self {
        self.max_states = states;
        self
    }

    /// Bound the wall-clock time of the run. When the budget is exhausted
    /// the engines stop, mark the result incomplete, and record
    /// `"time budget exhausted"` as the stop reason; everything explored up
    /// to that point is still checked and reported. `None` (the default)
    /// means unbounded.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Select the visited-state store ([`StoreMode::HashCompact`] by
    /// default). Exact/collapse need the model to implement
    /// [`Model::components`]; without it they downgrade to hash-compact and
    /// record the downgrade in `CheckStats::store.mode`. A bitstate run
    /// never reports `complete` — its Bloom store can silently prune states,
    /// so the result carries an omission probability instead.
    pub fn store(mut self, mode: StoreMode) -> Self {
        self.store = mode;
        self
    }

    /// Enable ample-set partial-order reduction (off by default). Requires
    /// the model to implement [`Model::reduced_actions`] (no-op otherwise)
    /// and applies to the BFS engines; DFS ignores it because its lasso
    /// detection needs every interleaving. The engines enforce the cycle
    /// proviso: an ample set all of whose successors are already visited is
    /// re-expanded in full, so no action is ignored forever.
    pub fn por(mut self, yes: bool) -> Self {
        self.por = yes;
        self
    }

    /// Spill the BFS frontier to disk in segments of `segment_nodes`,
    /// keeping at most two segments resident (see the
    /// [`frontier`](crate::frontier) module docs for the format). Requires a
    /// componentized model; ignored otherwise, and by DFS/parallel engines.
    pub fn spill(mut self, segment_nodes: usize) -> Self {
        let dir = self.spill.and_then(|(_, d)| d);
        self.spill = Some((segment_nodes, dir));
        self
    }

    /// Directory for frontier spill segments (defaults to the system temp
    /// directory).
    pub fn spill_dir(mut self, dir: PathBuf) -> Self {
        let segment = self.spill.map(|(s, _)| s).unwrap_or(1 << 20);
        self.spill = Some((segment, Some(dir)));
        self
    }

    /// Keep per-node provenance for counterexample paths (on by default).
    /// Turning it off drops the parent arena — the right trade at 10⁸ states
    /// when only reachability counts are wanted; violations then carry a
    /// single-state path (the violating state) instead of a full trace.
    pub fn track_paths(mut self, yes: bool) -> Self {
        self.track_paths = yes;
        self
    }

    /// Describe this run's engine configuration (strategy + store + search
    /// reductions) for benches and reports.
    pub fn describe_config(&self) -> String {
        let mut s = format!("{} + {} store", self.strategy.label(), self.store.label());
        if self.por {
            s.push_str(" + por");
        }
        if let Some((segment, _)) = &self.spill {
            s.push_str(&format!(" + spill({segment})"));
        }
        s
    }

    /// Borrow the model under check.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Run the verification.
    ///
    /// The `Sync`/`Send` bounds exist for the parallel strategy; every model
    /// in this workspace is plain data plus `fn` pointers and satisfies them
    /// automatically.
    pub fn run(&self) -> CheckResult<M>
    where
        M: Sync,
        M::State: Send + Sync,
        M::Action: Send + Sync,
    {
        match self.strategy {
            SearchStrategy::Bfs => bfs::run(self),
            SearchStrategy::Dfs => dfs::run(self),
            SearchStrategy::ParallelBfs { workers } => parallel::run(self, workers),
        }
    }
}

/// Partition of a model's properties into the groups each engine needs.
pub(crate) struct PropertySets<M: Model> {
    pub safety: Vec<Property<M>>,
    pub eventually: Vec<Property<M>>,
}

pub(crate) fn split_properties<M: Model>(model: &M) -> PropertySets<M> {
    let mut safety = Vec::new();
    let mut eventually = Vec::new();
    for p in model.properties() {
        match p.expectation {
            Expectation::Always | Expectation::Never => safety.push(p),
            Expectation::Eventually => eventually.push(p),
        }
    }
    assert!(
        eventually.len() <= 32,
        "at most 32 Eventually properties supported (ebits is a u32)"
    );
    PropertySets { safety, eventually }
}

/// Compute the eventually-bits of a state: bit i set ⇔ eventually-property i
/// holds in `state` (merged with the bits inherited from the path).
pub(crate) fn ebits_for<M: Model>(
    model: &M,
    props: &[Property<M>],
    state: &M::State,
    inherited: u32,
) -> u32 {
    let mut bits = inherited;
    for (i, p) in props.iter().enumerate() {
        if (p.condition)(model, state) {
            bits |= 1 << i;
        }
    }
    bits
}

#[cfg(test)]
pub(crate) mod testmodels {
    //! Shared toy models for engine tests.

    use crate::model::Model;
    use crate::property::Property;

    /// Counts 0..=max by +1/+2; properties configurable via flags.
    pub struct Counter {
        pub max: u8,
        pub forbid: Option<u8>,
        pub must_reach: Option<u8>,
    }

    impl Model for Counter {
        type State = u8;
        type Action = u8;

        fn init_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn actions(&self, state: &u8, out: &mut Vec<u8>) {
            for step in [1u8, 2] {
                if state.saturating_add(step) <= self.max {
                    out.push(step);
                }
            }
        }

        fn next_state(&self, state: &u8, action: &u8) -> Option<u8> {
            Some(state + action)
        }

        fn properties(&self) -> Vec<Property<Self>> {
            let mut props = Vec::new();
            if self.forbid.is_some() {
                props.push(Property::never("forbidden", |m: &Counter, s| {
                    Some(*s) == m.forbid
                }));
            }
            if self.must_reach.is_some() {
                props.push(Property::eventually("reached", |m: &Counter, s| {
                    Some(*s) == m.must_reach
                }));
            }
            props
        }
    }

    /// Two independent monotone counters on a `side × side` grid — the
    /// minimal componentized model. The axes are the two components
    /// ([`Model::components`]), x-moves and y-moves commute, and property
    /// visibility is configurable: a `forbid` cell watches both axes (so no
    /// reduction is sound and [`Model::reduced_actions`] refuses), while a
    /// `watch_y` limit watches only y, leaving x-moves invisible and ample.
    pub struct Grid {
        pub side: u8,
        pub forbid: Option<(u8, u8)>,
        pub watch_y: Option<u8>,
    }

    impl Model for Grid {
        type State = (u8, u8);
        type Action = u8; // 0 = x+1, 1 = y+1

        fn init_states(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }

        fn actions(&self, state: &(u8, u8), out: &mut Vec<u8>) {
            if state.0 + 1 < self.side {
                out.push(0);
            }
            if state.1 + 1 < self.side {
                out.push(1);
            }
        }

        fn next_state(&self, state: &(u8, u8), action: &u8) -> Option<(u8, u8)> {
            Some(match action {
                0 => (state.0 + 1, state.1),
                _ => (state.0, state.1 + 1),
            })
        }

        fn properties(&self) -> Vec<Property<Self>> {
            let mut props = Vec::new();
            if self.forbid.is_some() {
                props.push(Property::never("forbidden-cell", |m: &Grid, s| {
                    Some(*s) == m.forbid
                }));
            }
            if self.watch_y.is_some() {
                props.push(Property::never("y-limit", |m: &Grid, s| {
                    Some(s.1) == m.watch_y
                }));
            }
            props
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

        fn reduced_actions(&self, state: &(u8, u8), out: &mut Vec<u8>) -> bool {
            out.clear();
            if self.forbid.is_some() {
                // A full-cell property reads both axes: every move is
                // visible, so no ample subset exists.
                return false;
            }
            if state.0 + 1 < self.side {
                // The x process is independent of y and invisible to a
                // y-only property: its enabled moves form an ample set.
                out.push(0);
                return true;
            }
            false
        }
    }

    /// A two-state cycle `0 -> 1 -> 0` plus an exit `1 -> 2`; property:
    /// eventually reach 2. DFS must find the `0 -> 1 -> 0` lasso.
    pub struct CycleEscape;

    impl Model for CycleEscape {
        type State = u8;
        type Action = &'static str;

        fn init_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn actions(&self, state: &u8, out: &mut Vec<&'static str>) {
            match state {
                0 => out.push("go"),
                1 => {
                    out.push("back");
                    out.push("exit");
                }
                _ => {}
            }
        }

        fn next_state(&self, state: &u8, action: &&'static str) -> Option<u8> {
            Some(match (state, *action) {
                (0, "go") => 1,
                (1, "back") => 0,
                (1, "exit") => 2,
                _ => return None,
            })
        }

        fn properties(&self) -> Vec<Property<Self>> {
            vec![Property::eventually("escapes", |_, s| *s == 2)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testmodels::Counter;
    use super::*;

    #[test]
    fn split_properties_partitions() {
        let m = Counter {
            max: 5,
            forbid: Some(3),
            must_reach: Some(5),
        };
        let sets = split_properties(&m);
        assert_eq!(sets.safety.len(), 1);
        assert_eq!(sets.eventually.len(), 1);
    }

    #[test]
    fn ebits_accumulate_monotonically() {
        let m = Counter {
            max: 5,
            forbid: None,
            must_reach: Some(2),
        };
        let props = split_properties(&m).eventually;
        let bits0 = ebits_for(&m, &props, &0, 0);
        assert_eq!(bits0, 0);
        let bits2 = ebits_for(&m, &props, &2, bits0);
        assert_eq!(bits2, 1);
        // Inherited bits survive even when the condition no longer holds.
        let bits3 = ebits_for(&m, &props, &3, bits2);
        assert_eq!(bits3, 1);
    }

    #[test]
    fn holds_requires_completeness() {
        let r: CheckResult<Counter> = CheckResult {
            stats: CheckStats::default(),
            violations: Vec::new(),
            complete: false,
            stop_reason: None,
        };
        assert!(!r.holds());
    }

    #[test]
    fn verdict_reflects_completeness_and_reason() {
        let done: CheckResult<Counter> = CheckResult {
            stats: CheckStats::default(),
            violations: Vec::new(),
            complete: true,
            stop_reason: None,
        };
        assert_eq!(done.verdict(), Verdict::Complete);

        let cut: CheckResult<Counter> = CheckResult {
            stats: CheckStats {
                unique_states: 42,
                ..Default::default()
            },
            violations: Vec::new(),
            complete: false,
            stop_reason: Some("state budget exhausted"),
        };
        match cut.verdict() {
            Verdict::Incomplete { explored, reason } => {
                assert_eq!(explored, 42);
                assert_eq!(reason, "state budget exhausted");
            }
            Verdict::Complete => panic!("truncated run must not be complete"),
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
