//! Lock-free layer-synchronous parallel breadth-first exploration.
//!
//! The engine is built around three shared-nothing/lock-free pieces:
//!
//! * **Visited set** — pluggable by [`StoreMode`] ([`ParVisited`]). The
//!   default hash-compact mode is a fixed-slot open-addressed table of
//!   `AtomicU64` fingerprints ([`FpTable`]): insertion is a linear probe
//!   ending in a single CAS, the Spin/TLC hash-compaction structure.
//!   `fp == 0` marks an empty slot, so a real zero fingerprint is remapped
//!   to a substitute constant. The table starts small and doubles at layer
//!   barriers (when no worker is running), sized for the worst case the
//!   coming layer can insert (frontier width × widest fanout seen), up to
//!   the capacity implied by [`Checker::max_states`]; if a probe ever
//!   exhausts its bound the node is dropped and the run is reported
//!   incomplete, never wrong. Bitstate mode swaps in a lock-free atomic
//!   Bloom array; exact/collapse wrap the sequential store in a mutex.
//! * **Arenas** — each worker appends discovered nodes to its own arena and
//!   names them with a packed `(worker, index)` reference, so there is no
//!   global arena lock. Frontier items carry their state inline, which means
//!   a worker never reads another worker's arena; arenas are touched again
//!   only after the workers have joined, to rebuild counterexample paths.
//! * **Scheduling** — workers claim grain-sized slices of the current layer
//!   from an atomic cursor, so one expensive slice no longer idles the rest
//!   of the pool at the layer barrier.
//!
//! `Eventually` properties are supported with the same product construction
//! as the sequential engines: a node is a `(state, ebits)` pair and a
//! maximal path (terminal or boundary end) with unsatisfied bits violates
//! the corresponding properties. Like sequential BFS — and unlike DFS — the
//! parallel engine does not detect lassos; use
//! [`SearchStrategy::Dfs`](crate::SearchStrategy::Dfs) when a liveness
//! violation may hide in a cycle.
//!
//! Exploration order inside a layer is nondeterministic, but the *set* of
//! reachable nodes — and therefore every count and verdict — is not.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::checker::{ebits_for, split_properties, CheckResult, Checker, PropertySets, Violation};
use crate::fingerprint::{bloom_fingerprint, fingerprint_with_ebits};
use crate::model::Model;
use crate::path::Path;
use crate::stats::{CheckStats, StoreKind, StoreStats};
use crate::store::{AtomicBitSet, SeqStore, StoreMode};

/// Longest linear probe before an insert gives up and the run is marked
/// incomplete. Growth at layer barriers keeps the load factor low enough
/// that hitting this bound is effectively impossible.
const MAX_PROBE: usize = 128;

/// Stand-in for a genuine zero fingerprint (slot value 0 means "empty").
const ZERO_FP_SUBSTITUTE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Node references pack the owning worker into the top bits.
const WORKER_SHIFT: u32 = 56;

fn nonzero_fp(fp: u64) -> u64 {
    if fp == 0 {
        ZERO_FP_SUBSTITUTE
    } else {
        fp
    }
}

fn pack(worker: usize, index: usize) -> u64 {
    debug_assert!(worker < (1 << (64 - WORKER_SHIFT)) as usize);
    debug_assert!((index as u64) < (1u64 << WORKER_SHIFT));
    ((worker as u64) << WORKER_SHIFT) | index as u64
}

fn unpack(node: u64) -> (usize, usize) {
    (
        (node >> WORKER_SHIFT) as usize,
        (node & ((1u64 << WORKER_SHIFT) - 1)) as usize,
    )
}

enum Insert {
    /// The fingerprint was not present and is now recorded.
    New,
    /// The fingerprint was already present.
    Known,
    /// The probe bound was exhausted; the caller must mark the run
    /// incomplete.
    Full,
}

/// Open-addressed CAS-insert fingerprint set (power-of-two slot count).
struct FpTable {
    slots: Vec<AtomicU64>,
    mask: u64,
}

impl FpTable {
    fn with_slots(slots: u64) -> Self {
        let slots = slots.next_power_of_two().max(1024);
        FpTable {
            slots: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            mask: slots - 1,
        }
    }

    fn slot_count(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Lock-free insert: probe linearly from the fingerprint's home slot,
    /// claiming the first empty slot with a CAS.
    fn insert(&self, fp: u64) -> Insert {
        let mut i = (fp & self.mask) as usize;
        for _ in 0..MAX_PROBE {
            let cur = self.slots[i].load(Ordering::Relaxed);
            if cur == fp {
                return Insert::Known;
            }
            if cur == 0 {
                match self.slots[i].compare_exchange(0, fp, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return Insert::New,
                    Err(actual) if actual == fp => return Insert::Known,
                    Err(_) => {} // lost the slot to another fingerprint; keep probing
                }
            }
            i = (i + 1) & self.mask as usize;
        }
        Insert::Full
    }

    /// Double the table. Only called at layer barriers, when no worker holds
    /// a reference, hence `&mut self` and plain relaxed stores.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let new_slots: Vec<AtomicU64> = (0..new_len).map(|_| AtomicU64::new(0)).collect();
        let mask = new_len as u64 - 1;
        for slot in &self.slots {
            let fp = slot.load(Ordering::Relaxed);
            if fp == 0 {
                continue;
            }
            let mut i = (fp & mask) as usize;
            while new_slots[i].load(Ordering::Relaxed) != 0 {
                i = (i + 1) & mask as usize;
            }
            new_slots[i].store(fp, Ordering::Relaxed);
        }
        self.slots = new_slots;
        self.mask = mask;
    }
}

/// The parallel engine's visited set, by [`StoreMode`]:
///
/// * hash-compact keeps the historical lock-free CAS fingerprint table;
/// * bitstate uses a lock-free atomic Bloom array (`fetch_or` bit claims);
/// * exact/collapse wrap the sequential store in a mutex — correctness
///   first: these modes exist for definitive runs, and on the 1-CPU hosts
///   this workload targets the lock is not the bottleneck.
enum ParVisited {
    Fp(FpTable),
    Bits(AtomicBitSet),
    Locked(Mutex<SeqStore>),
}

impl ParVisited {
    fn insert<M: Model>(&self, model: &M, state: &M::State, ebits: u32) -> Insert {
        match self {
            ParVisited::Fp(table) => table.insert(nonzero_fp(fingerprint_with_ebits(state, ebits))),
            ParVisited::Bits(bits) => {
                if bits.insert(bloom_fingerprint(state, ebits)) {
                    Insert::New
                } else {
                    Insert::Known
                }
            }
            ParVisited::Locked(inner) => {
                if inner
                    .lock()
                    .expect("store mutex poisoned")
                    .insert(model, state, ebits)
                {
                    Insert::New
                } else {
                    Insert::Known
                }
            }
        }
    }

    fn is_bitstate(&self) -> bool {
        match self {
            ParVisited::Bits(_) => true,
            ParVisited::Locked(inner) => inner.lock().expect("store mutex poisoned").is_bitstate(),
            ParVisited::Fp(_) => false,
        }
    }

    fn stats(&self) -> StoreStats {
        match self {
            ParVisited::Fp(table) => StoreStats {
                kind: StoreKind::HashCompact,
                mode: "hash-compact",
                store_bytes: table.slot_count() * 8,
                ..StoreStats::default()
            },
            ParVisited::Bits(bits) => StoreStats {
                kind: StoreKind::Bitstate,
                mode: "bitstate",
                store_bytes: bits.bit_slots() / 8,
                bit_slots: bits.bit_slots(),
                bit_hashes: u32::from(bits.hashes()),
                bits_set: bits.count_set(),
                ..StoreStats::default()
            },
            ParVisited::Locked(inner) => inner.lock().expect("store mutex poisoned").stats(),
        }
    }
}

struct Node<M: Model> {
    state: M::State,
    parent: Option<(u64, M::Action)>,
}

/// A frontier entry. The state and ebits ride along so the expanding worker
/// never dereferences into another worker's arena.
struct WorkItem<M: Model> {
    state: M::State,
    ebits: u32,
    node: u64,
}

/// Everything a worker produced from one layer, merged single-threaded at
/// the barrier (no result-side locks).
struct WorkerOut<M: Model> {
    next: Vec<WorkItem<M>>,
    /// `(property slot, witness node)` — safety properties first, then
    /// `Eventually` properties, matching the order in `first_hit`.
    candidates: Vec<(usize, u64)>,
    transitions: u64,
    terminal: u64,
    boundary: u64,
    inserted: u64,
    /// Widest action set expanded; sizes the next layer's table growth.
    max_fanout: u64,
}

fn rebuild_path<M: Model>(arenas: &[Vec<Node<M>>], node: u64) -> Path<M::State, M::Action> {
    let mut rev: Vec<(M::Action, M::State)> = Vec::new();
    let (mut w, mut i) = unpack(node);
    loop {
        let n = &arenas[w][i];
        match &n.parent {
            Some((pnode, action)) => {
                rev.push((action.clone(), n.state.clone()));
                let (pw, pi) = unpack(*pnode);
                w = pw;
                i = pi;
            }
            None => {
                let mut path = Path::new(n.state.clone());
                for (a, s) in rev.into_iter().rev() {
                    path.push(a, s);
                }
                return path;
            }
        }
    }
}

struct Shared<'a, M: Model> {
    checker: &'a Checker<M>,
    props: &'a PropertySets<M>,
    all_ebits: u32,
    visited: &'a ParVisited,
    budget: &'a AtomicI64,
    truncated: &'a AtomicBool,
    /// Wall-clock cutoff from [`Checker::time_budget`], if any.
    deadline: Option<Instant>,
    /// Set when a worker observed the deadline: every worker stops, and the
    /// stop reason reads "time budget exhausted".
    timed_out: &'a AtomicBool,
    /// Bit per property slot (capped at 64): set once a witness exists, so
    /// later layers stop accumulating redundant candidates.
    found_mask: &'a AtomicU64,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<M: Model + Sync>(
    shared: &Shared<'_, M>,
    wid: usize,
    arena: &mut Vec<Node<M>>,
    layer: &[WorkItem<M>],
    cursor: &AtomicUsize,
    grain: usize,
    depth: usize,
) -> WorkerOut<M> {
    let model = &shared.checker.model;
    let mut out = WorkerOut {
        next: Vec::new(),
        candidates: Vec::new(),
        transitions: 0,
        terminal: 0,
        boundary: 0,
        inserted: 0,
        max_fanout: 0,
    };
    let mut actions: Vec<M::Action> = Vec::new();

    let record = |out: &mut WorkerOut<M>, slot: usize, node: u64| {
        if slot < 64 {
            if shared.found_mask.load(Ordering::Relaxed) & (1 << slot) != 0 {
                return;
            }
            shared.found_mask.fetch_or(1 << slot, Ordering::Relaxed);
        }
        out.candidates.push((slot, node));
    };

    'steal: loop {
        if shared.timed_out.load(Ordering::Relaxed) {
            break;
        }
        if let Some(dl) = shared.deadline {
            if Instant::now() >= dl {
                shared.timed_out.store(true, Ordering::Relaxed);
                break;
            }
        }
        let begin = cursor.fetch_add(grain, Ordering::Relaxed);
        if begin >= layer.len() {
            break;
        }
        let end = (begin + grain).min(layer.len());
        for item in &layer[begin..end] {
            if shared.timed_out.load(Ordering::Relaxed) {
                break 'steal;
            }

            for (pi, p) in shared.props.safety.iter().enumerate() {
                if p.violated_at(model, &item.state) {
                    record(&mut out, pi, item.node);
                }
            }

            let within = model.within_boundary(&item.state) && depth < shared.checker.max_depth;
            if !within {
                out.boundary += 1;
            }

            actions.clear();
            let mut reduced = false;
            if within {
                if shared.checker.por {
                    reduced = model.reduced_actions(&item.state, &mut actions);
                    if reduced && actions.is_empty() {
                        reduced = false; // empty ample set: contract breach, recover
                    }
                }
                if !reduced {
                    actions.clear();
                    model.actions(&item.state, &mut actions);
                }
                out.max_fanout = out.max_fanout.max(actions.len() as u64);
            }
            if actions.is_empty() {
                if within {
                    out.terminal += 1;
                }
                // A maximal (or truncated) path: every unsatisfied
                // Eventually property is violated along it.
                let missing = shared.all_ebits & !item.ebits;
                if missing != 0 {
                    for i in 0..shared.props.eventually.len() {
                        if missing & (1 << i) != 0 {
                            record(&mut out, shared.props.safety.len() + i, item.node);
                        }
                    }
                }
                continue;
            }

            let any_new = expand(shared, wid, arena, &mut out, item, &actions);
            if reduced && !any_new {
                // Cycle proviso, enforced post hoc (races with concurrent
                // inserts only ever *add* full expansions, never lose them):
                // an ample set none of whose successors was new could
                // postpone the other processes forever around a cycle, so
                // re-expand this node with the full action set.
                actions.clear();
                model.actions(&item.state, &mut actions);
                out.max_fanout = out.max_fanout.max(actions.len() as u64);
                expand(shared, wid, arena, &mut out, item, &actions);
            }
        }
    }
    out
}

/// Apply `actions` to one frontier item, inserting successors into the
/// shared visited set and this worker's arena. Returns whether any
/// successor was genuinely new (the POR proviso signal).
fn expand<M: Model + Sync>(
    shared: &Shared<'_, M>,
    wid: usize,
    arena: &mut Vec<Node<M>>,
    out: &mut WorkerOut<M>,
    item: &WorkItem<M>,
    actions: &[M::Action],
) -> bool {
    let model = &shared.checker.model;
    let mut any_new = false;
    for action in actions {
        out.transitions += 1;
        let Some(next) = model.next_state(&item.state, action) else {
            continue;
        };
        let ebits = ebits_for(model, &shared.props.eventually, &next, item.ebits);
        // Claim a unit of the unique-node budget before inserting;
        // refund it when the node turns out to be known (or lost).
        if shared.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
            shared.budget.fetch_add(1, Ordering::Relaxed);
            shared.truncated.store(true, Ordering::Relaxed);
            continue;
        }
        match shared.visited.insert(model, &next, ebits) {
            Insert::New => {
                any_new = true;
                let node = pack(wid, arena.len());
                arena.push(Node {
                    state: next.clone(),
                    parent: Some((item.node, action.clone())),
                });
                out.inserted += 1;
                out.next.push(WorkItem {
                    state: next,
                    ebits,
                    node,
                });
            }
            Insert::Known => {
                shared.budget.fetch_add(1, Ordering::Relaxed);
            }
            Insert::Full => {
                shared.budget.fetch_add(1, Ordering::Relaxed);
                shared.truncated.store(true, Ordering::Relaxed);
            }
        }
    }
    any_new
}

pub(crate) fn run<M: Model + Sync>(checker: &Checker<M>, workers: usize) -> CheckResult<M>
where
    M::State: Send + Sync,
    M::Action: Send + Sync,
{
    let workers = if workers == 0 {
        crate::checker::default_workers()
    } else {
        workers
    }
    .min(1 << (64 - WORKER_SHIFT)); // worker id must fit the packed ref

    let model = &checker.model;
    let props = split_properties(model);
    let all_ebits: u32 = if props.eventually.is_empty() {
        0
    } else {
        (1u32 << props.eventually.len()) - 1
    };

    let start = Instant::now();
    let deadline = checker.time_budget.map(|b| start + b);
    // Slots needed to hold max_states at <= 50% load, reached by doubling at
    // layer barriers so small models never allocate the worst case up front.
    let cap_slots: u64 = checker
        .max_states
        .saturating_mul(2)
        .max(1024)
        .checked_next_power_of_two()
        .unwrap_or(1 << 63);
    let mut visited = match checker.store {
        StoreMode::HashCompact => ParVisited::Fp(FpTable::with_slots(cap_slots.min(1 << 16))),
        StoreMode::Bitstate { log2_bits, hashes } => {
            ParVisited::Bits(AtomicBitSet::new(log2_bits, hashes))
        }
        StoreMode::Exact | StoreMode::Collapse => {
            let probe = model.init_states().into_iter().next();
            ParVisited::Locked(Mutex::new(SeqStore::new(
                checker.store,
                model,
                probe.as_ref(),
            )))
        }
    };

    let budget = AtomicI64::new(i64::try_from(checker.max_states).unwrap_or(i64::MAX));
    let truncated = AtomicBool::new(false);
    let timed_out = AtomicBool::new(false);
    let found_mask = AtomicU64::new(0);

    let mut arenas: Vec<Vec<Node<M>>> = (0..workers).map(|_| Vec::new()).collect();
    let mut frontier: Vec<WorkItem<M>> = Vec::new();
    let mut discovered: u64 = 0;

    for init in model.init_states() {
        let ebits = ebits_for(model, &props.eventually, &init, 0);
        if budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
            budget.fetch_add(1, Ordering::Relaxed);
            truncated.store(true, Ordering::Relaxed);
            continue;
        }
        match visited.insert(model, &init, ebits) {
            Insert::New => {
                let node = pack(0, arenas[0].len());
                arenas[0].push(Node {
                    state: init.clone(),
                    parent: None,
                });
                discovered += 1;
                frontier.push(WorkItem {
                    state: init,
                    ebits,
                    node,
                });
            }
            Insert::Known => {
                budget.fetch_add(1, Ordering::Relaxed);
            }
            Insert::Full => {
                budget.fetch_add(1, Ordering::Relaxed);
                truncated.store(true, Ordering::Relaxed);
            }
        }
    }

    let n_props = props.safety.len() + props.eventually.len();
    let mut first_hit: Vec<Option<u64>> = vec![None; n_props];
    let mut transitions = 0u64;
    let mut terminal = 0u64;
    let mut boundary = 0u64;
    let mut peak_frontier = frontier.len();
    let mut max_depth_seen = 0usize;
    // Widest action set expanded so far. The pre-layer growth sizes the
    // table for everything the coming layer *could* insert (frontier ×
    // fanout), since a single wide layer can discover several times the
    // running total and mid-layer growth is impossible (workers hold shared
    // references to the table).
    let mut max_fanout: u64 = 1;

    let mut depth = 0usize;
    while !frontier.is_empty() && !timed_out.load(Ordering::Relaxed) {
        max_depth_seen = depth;
        peak_frontier = peak_frontier.max(frontier.len());
        if let ParVisited::Fp(table) = &mut visited {
            let upcoming = (frontier.len() as u64).saturating_mul(max_fanout);
            let needed = discovered.saturating_add(upcoming);
            while needed.saturating_mul(2) >= table.slot_count() && table.slot_count() < cap_slots {
                table.grow();
            }
        }

        let layer = std::mem::take(&mut frontier);
        let cursor = AtomicUsize::new(0);
        let grain = (layer.len() / (workers * 4)).clamp(1, 1024);
        let shared = Shared {
            checker,
            props: &props,
            all_ebits,
            visited: &visited,
            budget: &budget,
            truncated: &truncated,
            deadline,
            timed_out: &timed_out,
            found_mask: &found_mask,
        };

        let outs: Vec<WorkerOut<M>> = std::thread::scope(|scope| {
            let handles: Vec<_> = arenas
                .iter_mut()
                .enumerate()
                .map(|(wid, arena)| {
                    let shared = &shared;
                    let layer = &layer;
                    let cursor = &cursor;
                    scope
                        .spawn(move || worker_loop(shared, wid, arena, layer, cursor, grain, depth))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel BFS worker panicked"))
                .collect()
        });

        let mut layer_candidates: Vec<(usize, u64)> = Vec::new();
        for out in outs {
            transitions += out.transitions;
            terminal += out.terminal;
            boundary += out.boundary;
            discovered += out.inserted;
            max_fanout = max_fanout.max(out.max_fanout);
            layer_candidates.extend(out.candidates);
            frontier.extend(out.next);
        }
        // Earliest layer wins per property; within a layer pick the smallest
        // packed reference so the merge itself is order-independent.
        layer_candidates.sort_unstable();
        for (slot, node) in layer_candidates {
            if first_hit[slot].is_none() {
                first_hit[slot] = Some(node);
            }
        }
        depth += 1;
    }

    let mut violations: Vec<Violation<M>> = Vec::new();
    for (pi, p) in props.safety.iter().enumerate() {
        if let Some(node) = first_hit[pi] {
            violations.push(Violation {
                property: p.name,
                expectation: p.expectation,
                path: rebuild_path(&arenas, node),
                lasso: false,
            });
        }
    }
    for (i, p) in props.eventually.iter().enumerate() {
        if let Some(node) = first_hit[props.safety.len() + i] {
            violations.push(Violation {
                property: p.name,
                expectation: p.expectation,
                path: rebuild_path(&arenas, node),
                lasso: false,
            });
        }
    }

    let stats = CheckStats {
        unique_states: discovered,
        transitions,
        max_depth: max_depth_seen,
        boundary_hits: boundary,
        terminal_states: terminal,
        peak_frontier,
        duration: start.elapsed(),
        store: visited.stats(),
    };
    let mut stop_reason = if timed_out.load(Ordering::Relaxed) {
        Some("time budget exhausted")
    } else if truncated.load(Ordering::Relaxed) {
        Some("state budget exhausted")
    } else {
        None
    };
    let mut complete = stop_reason.is_none();
    if visited.is_bitstate() && complete {
        // A Bloom filter can merge distinct states, silently pruning their
        // successors: a clean bitstate sweep is evidence, not proof.
        complete = false;
        stop_reason = Some("bitstate store (possible omissions)");
    }
    CheckResult {
        stats,
        violations,
        complete,
        stop_reason,
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::testmodels::Counter;
    use crate::checker::{Checker, SearchStrategy};

    fn par(model: Counter, workers: usize) -> Checker<Counter> {
        Checker::new(model).strategy(SearchStrategy::ParallelBfs { workers })
    }

    #[test]
    fn matches_sequential_state_count() {
        let p = par(
            Counter {
                max: 60,
                forbid: None,
                must_reach: None,
            },
            4,
        )
        .run();
        let s = Checker::new(Counter {
            max: 60,
            forbid: None,
            must_reach: None,
        })
        .run();
        assert_eq!(p.stats.unique_states, s.stats.unique_states);
        assert_eq!(p.stats.terminal_states, s.stats.terminal_states);
    }

    #[test]
    fn finds_safety_violation_with_valid_path() {
        let result = par(
            Counter {
                max: 40,
                forbid: Some(17),
                must_reach: None,
            },
            4,
        )
        .run();
        let v = result.violation("forbidden").expect("must violate");
        assert_eq!(*v.path.last_state(), 17);
        // Path must be a real execution: replay it.
        let model = Counter {
            max: 40,
            forbid: Some(17),
            must_reach: None,
        };
        let mut cur = *v.path.init_state();
        for (a, s) in v.path.steps() {
            use crate::Model;
            cur = model.next_state(&cur, a).unwrap();
            assert_eq!(cur, *s);
        }
    }

    #[test]
    fn zero_workers_picks_default() {
        let result = par(
            Counter {
                max: 10,
                forbid: None,
                must_reach: None,
            },
            0,
        )
        .run();
        assert!(result.holds());
    }

    #[test]
    fn eventually_violation_matches_bfs() {
        // The all-+2 path 0,2,..,10 never passes 9, so "reached" is violated
        // on a terminal path — exactly what sequential BFS reports.
        let result = par(
            Counter {
                max: 10,
                forbid: None,
                must_reach: Some(9),
            },
            4,
        )
        .run();
        let v = result.violation("reached").expect("must violate");
        assert!(!v.lasso);
        assert!(!v.path.any_state(|s| *s == 9));
    }

    #[test]
    fn eventually_holds_when_all_paths_pass() {
        // Every maximal path from 0 with steps {1,2} and max 2 ends in 2.
        let result = par(
            Counter {
                max: 2,
                forbid: None,
                must_reach: Some(2),
            },
            4,
        )
        .run();
        assert!(result.holds(), "violations: {:?}", result.violations);
    }

    #[test]
    fn max_states_bounds_discovered_nodes_exactly() {
        let result = par(
            Counter {
                max: 200,
                forbid: None,
                must_reach: None,
            },
            4,
        )
        .max_states(10)
        .run();
        assert!(!result.complete);
        assert_eq!(result.stats.unique_states, 10);
        assert_eq!(result.stop_reason, Some("state budget exhausted"));
    }

    #[test]
    fn zero_time_budget_reports_timeout() {
        let result = par(
            Counter {
                max: 200,
                forbid: None,
                must_reach: None,
            },
            4,
        )
        .time_budget(std::time::Duration::ZERO)
        .run();
        assert!(!result.complete);
        assert_eq!(result.stop_reason, Some("time budget exhausted"));
    }

    /// Octal tree: every value `1..=cap` has the unique parent `(v-1)/8`,
    /// so the state count is exactly `cap + 1`.
    struct WideTree {
        cap: u32,
    }

    impl crate::Model for WideTree {
        type State = u32;
        type Action = u32;

        fn init_states(&self) -> Vec<u32> {
            vec![0]
        }

        fn actions(&self, state: &u32, out: &mut Vec<u32>) {
            for a in 1..=8u32 {
                if state.saturating_mul(8).saturating_add(a) <= self.cap {
                    out.push(a);
                }
            }
        }

        fn next_state(&self, state: &u32, action: &u32) -> Option<u32> {
            Some(state * 8 + action)
        }

        fn properties(&self) -> Vec<crate::Property<Self>> {
            Vec::new()
        }
    }

    #[test]
    fn table_growth_keeps_counts_exact() {
        // 80k+ nodes forces the initially small fingerprint table to double
        // at a layer barrier; counts must stay exact across the rehash.
        let result = Checker::new(WideTree { cap: 80_000 })
            .strategy(SearchStrategy::ParallelBfs { workers: 8 })
            .run();
        assert!(result.complete);
        assert_eq!(result.stats.unique_states, 80_001);
    }

    #[test]
    fn peak_frontier_is_reported() {
        let p = par(
            Counter {
                max: 60,
                forbid: None,
                must_reach: None,
            },
            4,
        )
        .run();
        assert!(p.stats.peak_frontier >= 2);
    }

    #[test]
    fn locked_stores_match_hash_compact_exploration() {
        use crate::checker::testmodels::Grid;
        use crate::store::StoreMode;
        let grid = || Grid {
            side: 12,
            forbid: Some((9, 4)),
            watch_y: None,
        };
        let base = par_grid(grid(), 4, StoreMode::HashCompact).run();
        for mode in [StoreMode::Exact, StoreMode::Collapse] {
            let r = par_grid(grid(), 4, mode).run();
            assert_eq!(r.stats.unique_states, base.stats.unique_states);
            assert_eq!(r.stats.transitions, base.stats.transitions);
            assert_eq!(r.violations.len(), base.violations.len());
            assert_eq!(
                r.violations[0].path.len(),
                base.violations[0].path.len(),
                "parallel BFS still finds a shortest witness under {mode:?}"
            );
            assert_eq!(r.stats.store.mode, mode.label());
        }
    }

    #[test]
    fn parallel_bitstate_is_never_complete() {
        use crate::checker::testmodels::Grid;
        use crate::store::StoreMode;
        let run = |workers| {
            par_grid(
                Grid {
                    side: 6,
                    forbid: None,
                    watch_y: None,
                },
                workers,
                StoreMode::Bitstate {
                    log2_bits: 20,
                    hashes: 3,
                },
            )
            .run()
        };
        // 36 states in 2^20 bits: the Bloom array is effectively empty, so
        // one worker discovers every state exactly once.
        assert_eq!(run(1).stats.unique_states, 36);
        // Several workers may each report the same fingerprint as new
        // (`AtomicBitSet::insert`), so their count is only bounded below.
        let r = run(4);
        assert!(!r.complete);
        assert_eq!(r.stop_reason, Some("bitstate store (possible omissions)"));
        assert!(r.stats.unique_states >= 36, "got {}", r.stats.unique_states);
        let p = r.stats.omission_probability();
        assert!(p > 0.0 && p < 1e-9, "got {p}");
    }

    #[test]
    fn overfilled_one_worker_bitstate_counts_are_pinned() {
        // The lock-free Bloom array probes exactly where the sequential one
        // does; one worker makes the insertion order, and so the counts,
        // deterministic.
        use crate::checker::testmodels::Grid;
        use crate::store::StoreMode;
        let r = par_grid(
            Grid {
                side: 200,
                forbid: None,
                watch_y: None,
            },
            1,
            StoreMode::Bitstate {
                log2_bits: 16,
                hashes: 3,
            },
        )
        .run();
        let s = &r.stats;
        assert_eq!(
            (s.unique_states, s.transitions, s.store.bits_set),
            (25_433, 50_782, 50_014)
        );
    }

    #[test]
    fn parallel_por_agrees_with_full_exploration() {
        use crate::checker::testmodels::Grid;
        let grid = || Grid {
            side: 10,
            forbid: None,
            watch_y: Some(8),
        };
        let full = Checker::new(grid())
            .strategy(SearchStrategy::ParallelBfs { workers: 4 })
            .run();
        let reduced = Checker::new(grid())
            .strategy(SearchStrategy::ParallelBfs { workers: 4 })
            .por(true)
            .run();
        assert_eq!(full.stats.unique_states, 100);
        assert!(
            reduced.stats.unique_states < full.stats.unique_states / 2,
            "ample sets should collapse the interleaving diamond: {} vs {}",
            reduced.stats.unique_states,
            full.stats.unique_states
        );
        assert_eq!(full.violations.len(), 1);
        assert_eq!(reduced.violations.len(), 1);
        assert_eq!(reduced.violations[0].property, "y-limit");
        assert!(full.complete && reduced.complete);
    }

    fn par_grid(
        grid: crate::checker::testmodels::Grid,
        workers: usize,
        mode: crate::store::StoreMode,
    ) -> Checker<crate::checker::testmodels::Grid> {
        Checker::new(grid)
            .strategy(SearchStrategy::ParallelBfs { workers })
            .store(mode)
    }
}
