//! The `check_nue` workload: one exhaustive sequential BFS over the
//! N-UE population model with the collapse store and a spilling frontier,
//! paths off — the configuration of the 10⁸-state sweep, at 10⁶ states.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

use cnetverifier::models::nue::NUeModel;
use mck::store::CollapseSet;
use mck::{CheckResult, Checker, Model, SearchStrategy, StoreMode};

use crate::measure::{median, secs, Ledger, Rep};
use crate::oracle::Checks;
use crate::timed::{Timed, TimerCost};
use crate::Size;

/// Frontier segment size of the sweep configuration, at 10⁶ states.
const SPILL_SEGMENT: u64 = 16_384;

/// The sweep's segment scaled with the state count, so the smaller models
/// of the smoke test and the probes spill in the same proportion.
fn spill_segment(model: &NUeModel) -> usize {
    (SPILL_SEGMENT * model.state_count() / 1_000_000).max(8) as usize
}

/// The model at `size`: 10 context phases per UE, `cⁿ` states.
pub fn model(size: Size) -> NUeModel {
    match size {
        Size::Full => NUeModel::trimmed(),
        Size::Smoke => NUeModel {
            ues: 4,
            contexts: 10,
        },
    }
}

/// Spill segments go under the working directory, never the system temp
/// directory, and are removed when the run ends.
struct SpillDir(PathBuf);

impl SpillDir {
    fn new(tag: &str) -> Self {
        let dir = PathBuf::from(".cnvbench").join(format!("spill-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the frontier spill directory");
        Self(dir)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn check_run<M>(model: M, segment: usize, spill: &SpillDir) -> (CheckResult<M>, f64)
where
    M: Model + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
{
    let checker = Checker::new(model)
        .strategy(SearchStrategy::Bfs)
        .store(StoreMode::Collapse)
        .spill(segment)
        .spill_dir(spill.0.clone())
        .track_paths(false);
    let t = Instant::now();
    let result = checker.run();
    (result, secs(t))
}

/// Structural checks and the fingerprint of one run.
fn check<M: Model>(model: &NUeModel, result: &CheckResult<M>) -> (Vec<String>, String) {
    let mut c = Checks::default();
    let states = model.state_count();
    c.check(result.complete, || "run did not exhaust the space".into());
    c.check(result.violations.is_empty(), || {
        format!("unexpected violation of {}", result.violations[0].property)
    });
    c.eq("unique states", result.stats.unique_states, states);
    c.eq(
        "transitions",
        result.stats.transitions,
        states * model.ues as u64,
    );
    let s = &result.stats;
    let fp = format!(
        "states={} transitions={} depth={} store_bytes={} interned={} spill_segments={} spilled_bytes={}",
        s.unique_states,
        s.transitions,
        s.max_depth,
        s.store.store_bytes,
        s.store.interned_components,
        s.store.spill_segments,
        s.store.spilled_bytes,
    );
    c.pinned(&format!("check_nue/n{}c{}", model.ues, model.contexts), &fp);
    (c.into_errs(), fp)
}

/// One untraced rep.
pub fn rep(size: Size, t_main: Instant) -> Rep {
    let model = model(size);
    let spill = SpillDir::new("rep");
    let setup_s = secs(t_main);
    let (result, wall) = check_run(model.clone(), spill_segment(&model), &spill);
    let mut rep = Rep {
        setup_s,
        wall_s: wall,
        ops: result.stats.unique_states,
        ..Rep::default()
    };
    rep.extra(
        "states_per_s",
        "1/s",
        result.stats.unique_states as f64 / wall,
    );
    rep.extra("bytes_per_state", "B", result.stats.bytes_per_state());
    let (errs, fp) = check(&model, &result);
    rep.fingerprint = fp;
    rep.record_op(errs);
    rep
}

/// Per-insert cost of the collapse store: the model's successor stream,
/// in the order the engine's FIFO frontier produces it, replayed through
/// `CollapseSet::insert` with only the inserts timed. Returns the cost in
/// ns (the timer's inside share removed) and the states the set ends with.
fn store_replay(model: &NUeModel, timer: TimerCost) -> (f64, u64) {
    let mut comps = Vec::new();
    let mut set: Option<CollapseSet> = None;
    let mut queue: VecDeque<Box<[u8]>> = VecDeque::new();
    let (mut ns, mut inserts) = (0u128, 0u64);
    let mut insert = |state: Box<[u8]>, queue: &mut VecDeque<Box<[u8]>>| {
        model.components(&state, &mut comps);
        let set = set.get_or_insert_with(|| CollapseSet::new(comps.len()));
        let t = Instant::now();
        let fresh = set.insert(&comps, 0);
        ns += t.elapsed().as_nanos();
        inserts += 1;
        if fresh {
            queue.push_back(state);
        }
    };
    for init in model.init_states() {
        insert(init, &mut queue);
    }
    let mut actions = Vec::new();
    while let Some(state) = queue.pop_front() {
        actions.clear();
        model.actions(&state, &mut actions);
        for a in &actions {
            if let Some(next) = model.next_state(&state, a) {
                insert(next, &mut queue);
            }
        }
    }
    let per_insert = ns as f64 / inserts.max(1) as f64 - timer.inside * 1e9;
    (per_insert, set.map_or(0, |s| s.len()))
}

/// Rounds in a traced rep. Each round runs the checker untraced, then with
/// the model wrapped, then the store replay; each quantity's median over
/// the rounds is kept, so a slow stretch of the host lands on all alike.
const ROUNDS: usize = 2;

/// A traced rep over `model`: [`ROUNDS`] rounds of an untraced run, a run
/// whose model calls are counted and sampled for time, and the store
/// replay. The engine's self time is what the untraced run leaves after
/// the model, property and store layers.
pub fn traced(model: NUeModel, t_main: Instant) -> Rep {
    let spill = SpillDir::new("traced");
    let mut rep = Rep {
        setup_s: secs(t_main),
        ..Rep::default()
    };
    let timer = TimerCost::measure();
    let (mut walls_u, mut walls_t, mut stores) = (Vec::new(), Vec::new(), Vec::new());
    // Per boundary (actions, next_state, components, reassemble, props):
    // ns per call with the timer's inside share removed, per round.
    let mut per_call: [Vec<f64>; 5] = Default::default();
    let mut last = None;
    for _ in 0..ROUNDS {
        let (result, wall) = check_run(model.clone(), spill_segment(&model), &spill);
        walls_u.push(wall);
        let (errs, fp) = check(&model, &result);
        rep.fingerprint = fp;
        rep.record_op(errs);
        let (timed, times) = Timed::new(model.clone());
        let (result_t, wall) = check_run(timed, spill_segment(&model), &spill);
        walls_t.push(wall);
        let (mut errs, fp_t) = check(&model, &result_t);
        if fp_t != rep.fingerprint {
            errs.push(format!(
                "traced run fingerprint {fp_t:?} differs from {:?}",
                rep.fingerprint
            ));
        }
        for (v, (_, c)) in per_call.iter_mut().zip(times.boundaries()) {
            v.push(c.ns_per_call() - timer.inside * 1e9);
        }
        let (store_ns, stored) = store_replay(&model, timer);
        stores.push(store_ns);
        if stored != result.stats.unique_states {
            errs.push(format!("the store replay kept {stored} states"));
        }
        rep.record_op(errs);
        last = Some((result, times));
    }
    let (result, times) = last.expect("ROUNDS > 0");
    let (wall_u, wall_t, store_ns) = (median(&walls_u), median(&walls_t), median(&stores));
    rep.wall_s = wall_u;
    rep.ops = result.stats.unique_states;

    let s = &result.stats;
    let states = s.unique_states as f64;
    let boundaries: Vec<(&str, f64, u64)> = times
        .boundaries()
        .iter()
        .zip(&per_call)
        .map(|((name, c), ns)| (*name, median(ns), c.calls()))
        .collect();
    let total = |ns: f64, calls: u64| ns * calls as f64 * 1e-9;
    // Every successor (and the initial state) goes through one store insert.
    let store_s = store_ns * (s.transitions + 1) as f64 * 1e-9;
    let timed_s: f64 = boundaries
        .iter()
        .map(|&(_, ns, calls)| total(ns, calls))
        .sum();
    let engine_s = wall_u - timed_s - store_s;

    let mut ledger = Ledger {
        traced_wall_s: wall_t,
        untraced_wall_s: wall_u,
        ..Ledger::default()
    };
    ledger.row("mck engine", engine_s, "residual of the untraced runs");
    for &(name, ns, calls) in &boundaries {
        let layer = if name == "props" {
            "prop".to_string()
        } else {
            format!("model.{name}")
        };
        ledger.row(&layer, total(ns, calls), "sampled");
    }
    ledger.row("store", store_s, "replay");
    ledger.row("tracing", timer.of(&times), "timer calls");

    rep.layer("mck.states", "count", states);
    rep.layer("mck.transitions", "count", s.transitions as f64);
    rep.layer("mck.peak_frontier", "count", s.peak_frontier as f64);
    for &(name, ns, calls) in &boundaries {
        if name == "props" {
            rep.layer("prop.ns_per_state", "ns", total(ns, calls) * 1e9 / states);
        } else {
            rep.layer(&format!("model.{name}_ns"), "ns", ns);
            rep.layer(&format!("model.{name}_calls"), "count", calls as f64);
        }
    }
    rep.layer(
        "mck.engine_self_ns_per_state",
        "ns",
        engine_s * 1e9 / states,
    );
    rep.layer("store.insert_ns", "ns", store_ns);
    rep.layer("store.bytes_per_state", "B", s.bytes_per_state());
    rep.layer(
        "store.interned_components",
        "count",
        s.store.interned_components as f64,
    );
    rep.layer(
        "frontier.spill_segments",
        "count",
        s.store.spill_segments as f64,
    );
    rep.layer("frontier.spilled_bytes", "B", s.store.spilled_bytes as f64);
    rep.ledger = Some(ledger);
    rep
}
