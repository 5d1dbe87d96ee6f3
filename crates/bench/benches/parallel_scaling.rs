//! Worker-count scaling of the lock-free parallel BFS engine, plus the
//! visited-store mode comparison on the N-UE population model.
//!
//! The scaling model is a synthetic octal tree with a bit over 10^6 nodes —
//! wide, shallow and property-free, so the run time is dominated by the
//! engine itself (fingerprint-table inserts, arena appends, layer
//! scheduling) and not by model evaluation. The store comparison runs the
//! trimmed 10^6-state `NUeModel` through every store mode under the
//! spillable frontier — the configuration the 10^8-state sweep uses.
//!
//! The run rewrites `BENCH_parallel.json` in the workspace root (worker
//! arms + store-mode rows with bytes/state, compression ratio and peak RSS)
//! and appends the headline numbers to the longitudinal `BENCH_trend.json`.
//! Strategy, engine and model strings all come from the engine
//! configuration itself (`SearchStrategy::label`,
//! `Checker::describe_config`, `Model::describe`), never from string
//! literals at the call site.
//!
//! Run with `cargo bench -p cnv-bench --bench parallel_scaling` (about a
//! minute).

use cnetverifier::models::nue::NUeModel;
use mck::{Checker, Model, SearchStrategy, StoreMode};
use serde_json::Value;

/// Nodes are `0..=CAP`: node `s` has children `s*8 + 1 ..= s*8 + 8` while
/// they stay `<= CAP`, so the space has exactly `CAP + 1` unique states.
const CAP: u32 = 1_000_000;

struct OctalTree;

impl Model for OctalTree {
    type State = u32;
    type Action = u8;

    fn init_states(&self) -> Vec<u32> {
        vec![0]
    }

    fn actions(&self, state: &u32, out: &mut Vec<u8>) {
        for a in 1..=8u8 {
            if state * 8 + u32::from(a) <= CAP {
                out.push(a);
            }
        }
    }

    fn next_state(&self, state: &u32, action: &u8) -> Option<u32> {
        Some(state * 8 + u32::from(*action))
    }

    fn describe(&self) -> String {
        format!("octal tree, {} unique states", u64::from(CAP) + 1)
    }
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn explore(workers: usize) -> mck::CheckResult<OctalTree> {
    let result = Checker::new(OctalTree)
        .strategy(SearchStrategy::ParallelBfs { workers })
        .run();
    assert!(result.complete, "scaling model must be exhausted");
    assert_eq!(result.stats.unique_states, u64::from(CAP) + 1);
    result
}

/// One store-mode row on the trimmed N-UE model: engine config string,
/// coverage, bytes/state and throughput, measured under the spillable
/// frontier with path tracking off. Also returns bytes/state, states/s and
/// whether the run used the exact store.
fn store_mode_row(store: StoreMode, por: bool) -> (Value, f64, f64, bool) {
    let model = NUeModel::trimmed();
    let checker = Checker::new(model.clone())
        .strategy(SearchStrategy::Bfs)
        .store(store)
        .por(por)
        .spill(1 << 16)
        .track_paths(false);
    let engine = checker.describe_config();
    let t0 = std::time::Instant::now();
    let r = checker.run();
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let bps = r.stats.bytes_per_state();
    let sps = r.stats.unique_states as f64 / secs;
    println!(
        "baseline: {engine} -> {} states, {bps:.1} B/state, {sps:.0} states/s",
        r.stats.unique_states
    );
    let row = Value::Map(vec![
        ("engine".into(), Value::Str(engine)),
        ("unique_states".into(), Value::U64(r.stats.unique_states)),
        ("complete".into(), Value::Bool(r.complete)),
        (
            "bytes_per_state".into(),
            Value::F64((bps * 10.0).round() / 10.0),
        ),
        ("states_per_sec".into(), Value::F64(sps.round())),
        (
            "omission_probability".into(),
            Value::F64(r.stats.omission_probability()),
        ),
        (
            "spill_segments".into(),
            Value::U64(r.stats.store.spill_segments),
        ),
    ]);
    (
        row,
        bps,
        sps,
        matches!(r.stats.store.kind, mck::StoreKind::Exact),
    )
}

/// Measure each arm (best of 3, to shed scheduler noise) and rewrite the
/// committed baseline; then append the headline numbers to `BENCH_trend.json`.
fn main() {
    let mut best_1worker = 0.0f64;
    let arms: Vec<Value> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut best = 0.0f64;
            let mut engine = String::new();
            for _ in 0..3 {
                let r = explore(workers);
                best = best.max(r.stats.states_per_sec());
                engine = Checker::new(OctalTree)
                    .strategy(SearchStrategy::ParallelBfs { workers })
                    .describe_config();
            }
            if workers == 1 {
                best_1worker = best;
            }
            println!("baseline: {engine} -> {best:.0} states/s");
            Value::Map(vec![
                ("workers".into(), Value::U64(workers as u64)),
                ("engine".into(), Value::Str(engine)),
                ("states_per_sec".into(), Value::F64(best.round())),
            ])
        })
        .collect();

    // Store-mode comparison rows on the N-UE model.
    let mode_arms: Vec<(StoreMode, bool)> = vec![
        (StoreMode::HashCompact, false),
        (StoreMode::Exact, false),
        (StoreMode::Collapse, false),
        (StoreMode::Collapse, true),
        (
            StoreMode::Bitstate {
                log2_bits: 24,
                hashes: 3,
            },
            false,
        ),
    ];
    let mut modes = Vec::new();
    let (mut exact_bps, mut exact_sps) = (0.0f64, 0.0f64);
    let (mut collapse_bps, mut collapse_sps) = (0.0f64, 0.0f64);
    for (store, por) in mode_arms {
        let (row, bps, sps, is_exact) = store_mode_row(store, por);
        if is_exact && !por {
            (exact_bps, exact_sps) = (bps, sps);
        }
        if matches!(store, StoreMode::Collapse) && !por {
            (collapse_bps, collapse_sps) = (bps, sps);
        }
        modes.push(row);
    }
    let compression = if collapse_bps > 0.0 {
        exact_bps / collapse_bps
    } else {
        0.0
    };
    println!("baseline: collapse compression vs exact: {compression:.1}x");
    assert!(
        compression >= 4.0,
        "collapse must stay >=4x smaller than exact per state, got {compression:.1}x"
    );

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let rss_mb = cnv_bench::peak_rss_bytes().map_or(0, |b| b / (1024 * 1024));
    let doc = Value::Map(vec![
        ("bench".into(), Value::Str("parallel_scaling".into())),
        ("model".into(), Value::Str(OctalTree.describe())),
        (
            "strategy".into(),
            Value::Str(SearchStrategy::ParallelBfs { workers: 0 }.label()),
        ),
        ("unique_states".into(), Value::U64(u64::from(CAP) + 1)),
        // Speedup over the 1-worker arm is bounded by this: on a 1-CPU
        // host every arm necessarily measures engine overhead, not scaling.
        ("host_cpus".into(), Value::U64(host_cpus)),
        ("arms".into(), Value::Seq(arms)),
        (
            "store_model".into(),
            Value::Str(NUeModel::trimmed().describe()),
        ),
        (
            "collapse_compression_vs_exact".into(),
            Value::F64((compression * 10.0).round() / 10.0),
        ),
        ("peak_rss_mb".into(), Value::U64(rss_mb)),
        ("store_modes".into(), Value::Seq(modes)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("baseline serializes");
    // cargo runs benches with the *package* dir as cwd; anchor the baseline
    // at the workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, text + "\n").expect("write BENCH_parallel.json");

    cnv_bench::append_trend(
        "parallel_scaling",
        vec![
            (
                "states_per_sec_1worker".into(),
                Value::F64(best_1worker.round()),
            ),
            (
                "collapse_states_per_sec".into(),
                Value::F64(collapse_sps.round()),
            ),
            ("exact_states_per_sec".into(), Value::F64(exact_sps.round())),
            (
                "exact_bytes_per_state".into(),
                Value::F64((exact_bps * 10.0).round() / 10.0),
            ),
            (
                "collapse_bytes_per_state".into(),
                Value::F64((collapse_bps * 10.0).round() / 10.0),
            ),
            (
                "collapse_compression_vs_exact".into(),
                Value::F64((compression * 10.0).round() / 10.0),
            ),
            ("peak_rss_mb".into(), Value::U64(rss_mb)),
        ],
    )
    .expect("append BENCH_trend.json");
}
