//! Fleet-size scaling of the multi-UE carrier simulation: rewrites the
//! committed `BENCH_fleet.json` baseline and appends a `BENCH_trend.json`
//! row.
//!
//! Each arm runs [`cnv_bench::uniform_week`] — a uniform OP-II fleet
//! (typical 4G behaviour) for one simulated week on one shard, with
//! ring-bounded traces (32 entries/UE) — at UEs ∈ {1, 20, 200, 2000, 20k,
//! 200k, 1M}. `repro --exp fleet` runs the same configuration, so CI's
//! throughput floor and this baseline measure one thing. The interesting
//! shape is events/sec versus fleet size: the timing-wheel + arena kernel
//! streams the fleet through fixed-size lane blocks, so throughput must
//! stay ≥ flat from the 20-UE arm to the 1M arm while resident bytes/UE
//! stay bounded. The baseline records events/sec, kernel bytes/UE, and
//! process peak RSS per fleet size on the machine that produced it.
//!
//! Run with `cargo bench -p cnv-bench --bench fleet_scaling` (about five
//! minutes). `FLEET_ARMS=20,1000000` re-measures just those arms and
//! prints them without rewriting either file.

use std::time::Instant;

use netsim::{FleetSim, KernelStats};
use serde_json::Value;

const FLEET_SIZES: [usize; 7] = [1, 20, 200, 2_000, 20_000, 200_000, 1_000_000];
const SEED: u64 = 4204;

/// The trend row's headline arm: big enough to be steady, small enough to
/// re-run anywhere.
const HEADLINE_UES: usize = 20_000;

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Optional arm selection: `FLEET_ARMS=20,1000000` re-measures just
/// those baseline arms. Used to probe single arms back-to-back without a
/// full sweep; a filtered run never rewrites the committed baseline.
fn arm_filter() -> Option<Vec<usize>> {
    let spec = std::env::var("FLEET_ARMS").ok()?;
    Some(
        spec.split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
    )
}

/// One measured arm. The kernel is seed-deterministic, so every rep
/// yields the same events and kernel stats; only the wall time varies.
struct Arm {
    ues: usize,
    events: u64,
    kernel: KernelStats,
    reps: u32,
    best_ms: f64,
    events_per_sec: f64,
    /// Process high-water RSS right after this arm (`VmHWM`). Monotone
    /// over the process lifetime and arms run smallest-first, so the
    /// reading upper-bounds this arm's own peak.
    peak_rss_bytes: Option<u64>,
}

/// Measure one arm. The rate is aggregate events / aggregate wall across
/// the arm's reps — for the sub-millisecond arms a best-of-N estimator
/// just samples upward scheduler noise, so small arms instead repeat until
/// they have measured ≥ 8M events (≥ 3 reps, ≤ 1500), putting every arm's
/// rate on the same denominator scale. The ≥ 200k arms run single-shot:
/// one rep already averages tens of seconds.
fn measure(ues: usize) -> Arm {
    let mut total_events = 0u128;
    let mut total_secs = 0.0f64;
    let mut reps = 0u32;
    let mut best_ms = f64::INFINITY;
    let (events, kernel) = loop {
        let t0 = Instant::now();
        let r = FleetSim::new(cnv_bench::uniform_week(SEED, ues)).run();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(r.agg.ues as usize, ues);
        assert!(r.total_events > 0);
        reps += 1;
        total_events += u128::from(r.total_events);
        total_secs += secs;
        best_ms = best_ms.min(secs * 1_000.0);
        if ues >= 200_000 || reps >= 1_500 || (reps >= 3 && total_events >= 8_000_000) {
            break (r.total_events, r.kernel);
        }
    };
    let arm = Arm {
        ues,
        events,
        kernel,
        reps,
        best_ms,
        events_per_sec: (total_events as f64 / total_secs).round(),
        peak_rss_bytes: cnv_bench::peak_rss_bytes(),
    };
    println!(
        "baseline: {ues} UE(s) -> {events} events, {:.0} events/s \
         ({reps} reps), {} kernel bytes/UE, \
         {} wheel cascades (peak len {}), peak RSS {} MB",
        arm.events_per_sec,
        kernel.bytes_per_ue,
        kernel.wheel_cascades,
        kernel.wheel_peak_len,
        arm.peak_rss_bytes.map_or(0, |b| b / (1024 * 1024))
    );
    arm
}

fn arm_json(a: &Arm) -> Value {
    let mut arm = vec![
        ("ues".into(), Value::U64(a.ues as u64)),
        ("events".into(), Value::U64(a.events)),
        ("reps".into(), Value::U64(u64::from(a.reps))),
        (
            "wall_ms".into(),
            Value::F64((a.best_ms * 10.0).round() / 10.0),
        ),
        ("events_per_sec".into(), Value::F64(a.events_per_sec)),
        (
            "kernel_bytes_per_ue".into(),
            Value::U64(a.kernel.bytes_per_ue as u64),
        ),
        ("wheel_cascades".into(), Value::U64(a.kernel.wheel_cascades)),
        (
            "wheel_peak_len".into(),
            Value::U64(a.kernel.wheel_peak_len as u64),
        ),
    ];
    if let Some(b) = a.peak_rss_bytes {
        arm.push(("peak_rss_bytes".into(), Value::U64(b)));
    }
    Value::Map(arm)
}

/// Measure every arm, rewrite the committed baseline, and append the
/// headline arm's row to `BENCH_trend.json`.
fn main() {
    let filter = arm_filter();
    let arms: Vec<Arm> = FLEET_SIZES
        .iter()
        .copied()
        .filter(|ues| match &filter {
            Some(keep) => keep.contains(ues),
            None => true,
        })
        .map(measure)
        .collect();
    if filter.is_some() {
        return; // probe run: print the arms, keep the committed baseline
    }
    let cfg = cnv_bench::uniform_week(SEED, 0);
    let doc = Value::Map(vec![
        ("bench".into(), Value::Str("fleet_scaling".into())),
        (
            "model".into(),
            Value::Str(format!(
                "uniform OP-II fleet, typical 4G behaviour, {} simulated days, \
                 {}-entry trace rings",
                cfg.days,
                cfg.trace_capacity.expect("the arm bounds its trace rings")
            )),
        ),
        (
            "strategy".into(),
            Value::Str(
                "block-striped timing-wheel kernel, SoA lane arena, streaming fold \
                 (seed-deterministic)"
                    .into(),
            ),
        ),
        ("host_cpus".into(), Value::U64(host_cpus() as u64)),
        ("shards".into(), Value::U64(cfg.threads as u64)),
        (
            "arms".into(),
            Value::Seq(arms.iter().map(arm_json).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("baseline serializes");
    // cargo runs benches with the *package* dir as cwd; anchor the baseline
    // at the workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, text + "\n").expect("write BENCH_fleet.json");

    // Longitudinal trend entry, from the headline arm's own sweep reading.
    let a = arms
        .iter()
        .find(|a| a.ues == HEADLINE_UES)
        .expect("the unfiltered sweep runs the headline arm");
    let mut fields = vec![
        ("ues".to_string(), Value::U64(a.ues as u64)),
        ("events_per_sec".to_string(), Value::F64(a.events_per_sec)),
        (
            "kernel_bytes_per_ue".to_string(),
            Value::U64(a.kernel.bytes_per_ue as u64),
        ),
        (
            "wheel_cascades".to_string(),
            Value::U64(a.kernel.wheel_cascades),
        ),
        (
            "wheel_peak_len".to_string(),
            Value::U64(a.kernel.wheel_peak_len as u64),
        ),
        (
            "arena_bytes_peak".to_string(),
            Value::U64(a.kernel.arena_bytes_peak as u64),
        ),
        ("blocks".to_string(), Value::U64(a.kernel.blocks)),
        (
            "trace_evicted".to_string(),
            Value::U64(a.kernel.trace_evicted),
        ),
    ];
    if let Some(b) = a.peak_rss_bytes {
        fields.push(("peak_rss_bytes".to_string(), Value::U64(b)));
    }
    let trend = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trend.json");
    cnv_bench::append_trend(trend.as_ref(), "fleet_scaling", fields)
        .expect("append BENCH_trend.json");
}
