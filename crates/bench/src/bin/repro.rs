//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--exp NAME] [--seed N] [--trace unbounded|count-only|CAP]
//! ```
//!
//! [`EXPERIMENTS`] names every experiment: it drives dispatch, `--help` and
//! the unknown-name error, and `--exp all` (the default) runs the entries
//! it marks, in table order. Each experiment prints the measured series
//! next to the values the paper reports, so the *shape* comparison (who
//! wins, by what factor, where the crossovers fall) is visible at a glance.
//! EXPERIMENTS.md records a full run.

use cellstack::UpdateKind;
use cnetverifier::report;
use cnv_bench as bench;

/// The command line's shape, printed with every usage error.
const USAGE: &str = "usage: repro [--exp NAME] [--seed N] [--trace unbounded|count-only|CAP]";

/// Reject the command line: name what is wrong, print the usage line, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// What the command line and the environment configure, all checked
/// before any experiment runs.
struct Opts {
    seed: u64,
    /// Trace retention for `--exp live`: the experiment's output must be
    /// identical whichever mode is chosen (CI runs it twice to prove it).
    trace: Option<usize>,
    /// `STATESPACE_FULL`: `1` runs `--exp statespace`'s 10^8 arm, `0` or
    /// unset its trimmed 10^6 arm.
    full_arm: bool,
    /// `STATESPACE_RSS_BUDGET_MB`: the peak-RSS bound `--exp statespace`
    /// enforces after its sweep.
    rss_budget_mb: Option<u64>,
}

/// One `--exp` entry: name, one-liner (worded after the section header the
/// experiment prints), whether `--exp all` runs it, and the experiment.
type Experiment = (&'static str, &'static str, bool, fn(&Opts));

/// Every experiment `--exp` accepts, in the order `--exp all` runs them.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("screen", "Screening phase — S1-S4 via model checking (paper Section 3.2/4)", true, |_| screening()),
    ("statespace", "Hyper-scale state-space engine — store modes × POR, then POR on every shipped spec (golden-diffed; STATESPACE_FULL=1 for the 10^8 arm)", true, |o| statespace(o.full_arm, o.rss_budget_mb)),
    ("spec", "specl cross-check — compiled specs vs hand-written Rust models (golden-diffed)", true, |_| spec_check()),
    ("faults", "Fault-injection campaign + 3GPP retransmission timers (golden-diffed)", true, |o| faults(o.seed)),
    ("t1", "Table 1 — Finding summary", true, |_| titled("Table 1 — Finding summary", report::table1())),
    ("t2", "Table 2 — Studied protocols", true, |_| titled("Table 2 — Studied protocols", report::table2())),
    ("f6", "Figure 6 analog — CSFB/RRC state graph (Graphviz)", true, |_| figure6()),
    ("t3", "Table 3 — PDP context deactivation causes", true, |_| titled("Table 3 — PDP context deactivation causes", report::table3())),
    ("t4", "Table 4 — Scenarios triggering location/routing area update", true, |_| titled("Table 4 — Scenarios triggering location/routing area update", report::table4())),
    ("valid", "Validation phase over simulated carriers (paper Section 3.3/5/6)", true, |o| validation(o.seed)),
    ("diagnose", "Diagnosis matrix — monitor verdicts over OP-I / OP-II (golden-diffed)", true, |o| diagnose(o.seed)),
    ("f4", "Figure 4 — Recovery time from the detached event", true, |o| figure4(o.seed)),
    ("f7", "Figure 7 — Call setup time and RSSI on Route-1 (OP-I)", true, |o| figure7(o.seed)),
    ("f8", "Figure 8 — CDF of location/routing area update durations", true, |o| figure8(o.seed)),
    ("f9", "Figure 9 — Data speed with/without CS calls by time of day", true, |o| figure9(o.seed)),
    ("f10", "Figure 10 — Example protocol trace (64QAM disabled during CS call, OP-I)", true, |o| figure10(o.seed)),
    ("t5", "Table 5 — User study: occurrence of S1-S6 (20 users, 2 weeks)", true, |o| table5(o.seed)),
    ("t6", "Table 6 — Duration in 3G after the CSFB call ends", true, |o| table6(o.seed)),
    ("study", "Tables 5 and 6 together — the user-study matrix (golden-diffed)", false, |o| { table5(o.seed); table6(o.seed) }),
    ("fleet", "Fleet scaling — timing-wheel kernel throughput and health, 1 to 20k UEs", false, |o| fleet_scaling(o.seed)),
    ("fleetdigest", "Fleet digest — streaming report (golden-diffed)", false, |o| fleet_digest(o.seed)),
    ("live", "Live fleet verdicts — in-line monitoring under a fault campaign (golden-diffed; --trace sets retention)", false, |o| live(o.seed, o.trace)),
    ("remedies", "Differential remedy matrix — base vs remedied screening, spec overlays, fleet rollout (golden-diffed)", false, |o| remedies_exp(o.seed)),
    ("fivegs", "5G NR / NSA corpus — timing-lattice screening, S7-S10 diagnosis, witnesses (golden-diffed)", false, |_| fivegs()),
    ("f12l", "Figure 12 (left) — Detaches vs signal drop rate, with/without the shim", true, |o| figure12_left(o.seed)),
    ("f12r", "Figure 12 (right) — Call delay vs location-update time, with/without parallel MM", true, |_| figure12_right()),
    ("f13", "Figure 13 — VoIP + data speeds, coupled vs decoupled channels", true, |_| figure13()),
    ("s93", "Section 9.3 — Cross-system coordination remedies", true, |o| section93(o.seed)),
    ("alt-sharing", "Section 6.2 proposal — alternative shared-channel organizations", true, |_| alt_sharing()),
    ("insights", "Insights 1-6 and the Section-11 lessons", true, |_| insights()),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut exp = "all".to_string();
    let mut opts = Opts {
        seed: 2014,
        trace: Some(0),
        full_arm: false,
        rss_budget_mb: None,
    };
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag {
            "--exp" => exp = value().to_string(),
            "--seed" => {
                let v = value();
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed takes a number, not `{v}`")));
            }
            "--trace" => {
                opts.trace = match value() {
                    "unbounded" => None,
                    "count-only" => Some(0),
                    n => Some(n.parse().unwrap_or_else(|_| {
                        usage_error("--trace takes unbounded, count-only, or a ring size")
                    })),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}\n");
                print_experiments();
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 2;
    }
    opts.full_arm = std::env::var_os("STATESPACE_FULL").is_some_and(|v| match v.to_str() {
        Some("0") => false,
        Some("1") => true,
        _ => usage_error(&format!(
            "STATESPACE_FULL takes 0 or 1, not `{}`",
            v.to_string_lossy()
        )),
    });
    opts.rss_budget_mb = std::env::var_os("STATESPACE_RSS_BUDGET_MB").map(|v| {
        let v = v.to_string_lossy();
        v.parse().unwrap_or_else(|_| {
            usage_error(&format!(
                "STATESPACE_RSS_BUDGET_MB takes a whole number of MB, not `{v}`"
            ))
        })
    });

    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|&&(name, _, in_all, _)| if exp == "all" { in_all } else { name == exp })
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {exp}\n");
        print_experiments();
        std::process::exit(2);
    }
    for (_, _, _, run) in selected {
        run(&opts);
    }
}

fn print_experiments() {
    let skipped: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|&&(_, _, in_all, _)| !in_all)
        .map(|&(name, ..)| name)
        .collect();
    println!("experiments (--exp NAME):");
    println!(
        "  {:<12} every experiment below, in this order, except {}",
        "all",
        skipped.join(", ")
    );
    for (name, about, _, _) in EXPERIMENTS {
        println!("  {name:<12} {about}");
    }
}

fn section(title: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("==============================================================");
}

/// A section whose whole body is one pre-rendered table.
fn titled(title: &str, body: String) {
    section(title);
    println!("{body}");
}

fn figure6() {
    section("Figure 6 analog — CSFB/RRC state graph (Graphviz)");
    println!("// cell-reselection carrier (OP-II); stuck states highlighted");
    println!(
        "{}",
        report::figure6_dot(cellstack::SwitchMechanism::CellReselection)
    );
}

fn insights() {
    section("Insights 1-6 and the Section-11 lessons");
    for ins in cnetverifier::INSIGHTS {
        println!("Insight {} ({}): {}", ins.number, ins.instance, ins.text);
    }
    println!();
    for lesson in cnetverifier::LESSONS {
        println!("[{}] {}", lesson.dimension, lesson.text);
    }
}

fn screening() {
    section("Screening phase (S1-S4 via model checking, paper Section 3.2/4)");
    let report = cnetverifier::run_screening_deterministic();
    for run in &report.runs {
        println!(
            "model {:<34} {} ({:.0} states/s)",
            run.model_name,
            run.stats,
            run.stats.states_per_sec()
        );
        for f in &run.findings {
            println!(
                "  -> {}: {} [{}; {} steps{}]",
                f.instance,
                f.instance.problem(),
                f.property,
                f.steps,
                if f.lasso { "; lasso" } else { "" }
            );
            for (i, step) in f.witness.iter().enumerate() {
                println!("       {:>2}. {step}", i + 1);
            }
        }
    }
    let remedied = cnetverifier::run_screening_remedied();
    println!(
        "\nwith the Section-8 remedies applied: {} finding(s) across {} models (expected 0)",
        remedied.findings().count(),
        remedied.runs.len()
    );
}

/// `--exp spec` — the specl front-end cross-check. Compiles every model
/// under `specs/`, screens it with deterministic sequential BFS, and diffs
/// its verdict/state-count/witness-length against the hand-written Rust
/// counterpart. Output is fully deterministic (no wall-clock, no absolute
/// paths), so CI diffs it against `crates/bench/golden/spec_agreement.txt`.
fn spec_check() {
    section("specl cross-check — compiled specs vs hand-written Rust models");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");

    let rows = match cnetverifier::spec_agreement(&dir) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("spec cross-check failed:\n{e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:<17} {:<25} {:<5} {:<17} {:<19} {:>15} {:>9}  agree",
        "spec", "file", "inst", "property", "verdict spec/hand", "states", "witness"
    );
    let side = |violated: bool| if violated { "violated" } else { "holds" };
    let steps = |w: Option<usize>| w.map_or_else(|| "-".to_string(), |n| n.to_string());
    for r in &rows {
        println!(
            "{:<17} {:<25} {:<5} {:<17} {:<19} {:>15} {:>9}  {}",
            r.name,
            r.file,
            r.instance.to_string(),
            r.property,
            format!("{}/{}", side(r.spec_violated), side(r.hand_violated)),
            format!("{}/{}", r.spec_states, r.hand_states),
            format!("{}/{}", steps(r.spec_witness), steps(r.hand_witness)),
            if r.agree() { "yes" } else { "NO" },
        );
    }
    let agreeing = rows.iter().filter(|r| r.agree()).count();
    println!(
        "\nagreement: {agreeing}/{} specs match their Rust counterparts exactly",
        rows.len()
    );

    // The spec-side screening report, witnesses included: BFS over the
    // compiled models replays the paper's counterexamples with the specs'
    // own edge labels.
    let report = match cnetverifier::run_spec_screening(&dir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("spec screening failed:\n{e}");
            std::process::exit(1);
        }
    };
    for run in &report.runs {
        println!(
            "\nmodel {} [{}]: {} unique states, {} transitions",
            run.model_name, run.engine, run.stats.unique_states, run.stats.transitions
        );
        for f in &run.findings {
            println!("  -> {}: {} [{} steps]", f.instance, f.property, f.steps);
            for (i, step) in f.witness.iter().enumerate() {
                println!("       {:>2}. {step}", i + 1);
            }
        }
        if run.findings.is_empty() {
            println!("  -> clean (all properties hold)");
        }
    }
    if agreeing != rows.len() {
        eprintln!("\nspec/hand disagreement — see table above");
        std::process::exit(1);
    }
}

/// `--exp statespace` — the hyper-scale state-space engine walkthrough.
///
/// Sweeps the parameterized N-UE population model through every visited-set
/// store mode (hash-compact fingerprints, exact serialized states, COLLAPSE
/// component interning, bitstate/Bloom) plus an ample-set POR arm, all
/// under the disk-spillable frontier with path tracking off — the exact
/// configuration the 10⁸-state run uses. Everything on stdout is engine
/// output that is a pure function of the model (state counts, transition
/// counts, spill segments, omission probabilities), so CI diffs it against
/// `crates/bench/golden/statespace_smoke.txt`. Wall-clock, bytes/state
/// (allocator-capacity dependent) and peak RSS go to stderr.
///
/// Environment knobs:
/// * `STATESPACE_FULL=1` (`full_arm`, parsed before any experiment runs;
///   `0` or unset selects the trimmed arm) — run the 22⁶ ≈ 1.13 × 10⁸-state
///   arm (collapse + bitstate only) instead of the trimmed 10⁶ arm. Not
///   golden-diffed.
/// * `STATESPACE_RSS_BUDGET_MB=N` (`rss_budget_mb`, parsed before any
///   experiment runs) — exit 1 if the process high-water RSS exceeds `N`
///   MB at the end of the experiment (the CI memory gate), or if the
///   platform reports no high-water RSS to check.
fn statespace(full_arm: bool, rss_budget_mb: Option<u64>) {
    use cnetverifier::models::nue::NUeModel;
    use mck::{Checker, Model, SearchStrategy, StoreMode};

    section("Hyper-scale state-space engine — store modes × POR (N-UE population)");
    let model = if full_arm {
        NUeModel::full()
    } else {
        NUeModel::trimmed()
    };
    // Segments sized so even the trimmed arm's widest BFS layer (~6 % of
    // the space) overflows into disk segments — the golden must prove the
    // spill path runs, not just that it compiles.
    let segment = if full_arm { 1 << 20 } else { 1 << 14 };
    println!(
        "model {}: {} reachable states; `phase-overflow` must hold over every one\n",
        model.describe(),
        model.state_count()
    );

    let arms: Vec<(StoreMode, bool)> = if full_arm {
        vec![
            (StoreMode::Collapse, false),
            (
                StoreMode::Bitstate {
                    log2_bits: 30,
                    hashes: 3,
                },
                false,
            ),
        ]
    } else {
        vec![
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
        ]
    };

    println!(
        "{:<52} {:>12} {:>12} {:>6} {:>10} {:>11}  complete",
        "engine", "states", "transitions", "depth", "spill-segs", "omission-p"
    );
    let mut exact_bps = None;
    let mut collapse_bps = None;
    for (store, por) in arms {
        let checker = Checker::new(model.clone())
            .strategy(SearchStrategy::Bfs)
            .store(store)
            .por(por)
            .spill(segment)
            .track_paths(false)
            // The 10^8 full arm must not trip the safety default (50M).
            .max_states(model.state_count() + 1);
        let engine = checker.describe_config();
        let t0 = std::time::Instant::now();
        let r = checker.run();
        let wall = t0.elapsed();
        println!(
            "{:<52} {:>12} {:>12} {:>6} {:>10} {:>11}  {}",
            engine,
            r.stats.unique_states,
            r.stats.transitions,
            r.stats.max_depth,
            r.stats.store.spill_segments,
            format!("{:.1e}", r.stats.omission_probability()),
            if r.complete { "yes" } else { "no" },
        );
        assert!(
            r.violations.is_empty(),
            "{engine}: phase-overflow is unreachable yet was reported"
        );
        let lossless = !matches!(
            r.stats.store.kind,
            mck::StoreKind::HashCompact | mck::StoreKind::Bitstate
        );
        if lossless && !por {
            assert!(r.complete, "{engine}: exhaustive arm must complete");
            assert_eq!(
                r.stats.unique_states,
                model.state_count(),
                "{engine}: exact-store arm must cover the full cross product"
            );
        }
        match (r.stats.store.kind, por) {
            (mck::StoreKind::Exact, false) => exact_bps = Some(r.stats.bytes_per_state()),
            (mck::StoreKind::Collapse, false) => collapse_bps = Some(r.stats.bytes_per_state()),
            _ => {}
        }
        eprintln!(
            "  {engine}: {:.1} B/state, {:.2}s wall, {:.0} states/s, {} spilled nodes ({} bytes)",
            r.stats.bytes_per_state(),
            wall.as_secs_f64(),
            r.stats.unique_states as f64 / wall.as_secs_f64().max(1e-9),
            r.stats.store.spilled_nodes,
            r.stats.store.spilled_bytes,
        );
    }
    if let (Some(e), Some(c)) = (exact_bps, collapse_bps) {
        let ratio = e / c.max(1e-9);
        // The ratio itself depends on allocator capacity growth, so only
        // the acceptance bar (a wide margin) goes to the golden stdout.
        println!(
            "\ncollapse >=4x smaller than exact per state: {}",
            if ratio >= 4.0 { "yes" } else { "NO" }
        );
        eprintln!("  compression: {ratio:.1}x (exact {e:.1} B/state, collapse {c:.1} B/state)");
    }

    section("Partial-order reduction — full vs reduced on every shipped spec");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut specs = match cnetverifier::load_specs(&dir) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("spec loading failed:\n{e}");
            std::process::exit(1);
        }
    };
    // The 5G corpus rides along: its timer fires serialize through the
    // priority cell, so it exercises the ample-set filter differently from
    // the message-only Table-1 specs.
    match cnetverifier::load_specs(&dir.join("fivegs")) {
        Ok(more) => specs.extend(more),
        Err(e) => {
            eprintln!("fivegs spec loading failed:\n{e}");
            std::process::exit(1);
        }
    }
    println!(
        "{:<28} {:>11} {:>11} {:>11} {:>11} {:>9}  verdicts-agree",
        "file", "full-states", "por-states", "full-trans", "por-trans", "trans-cut"
    );
    let mut all_agree = true;
    for spec in &specs {
        let full = Checker::new(spec.model.clone())
            .strategy(SearchStrategy::Bfs)
            .run();
        let red = Checker::new(spec.model.clone())
            .strategy(SearchStrategy::Bfs)
            .por(true)
            .run();
        let verdicts = |r: &mck::CheckResult<specl::SpecModel>| {
            let mut v: Vec<&'static str> = r.violations.iter().map(|v| v.property).collect();
            v.sort_unstable();
            v
        };
        let agree = full.complete == red.complete && verdicts(&full) == verdicts(&red);
        all_agree &= agree;
        // POR effectiveness: the share of full-exploration transitions the
        // ample sets eliminated.
        let cut =
            100.0 * (1.0 - red.stats.transitions as f64 / full.stats.transitions.max(1) as f64);
        println!(
            "{:<28} {:>11} {:>11} {:>11} {:>11} {:>9}  {}",
            spec.file,
            full.stats.unique_states,
            red.stats.unique_states,
            full.stats.transitions,
            red.stats.transitions,
            format!("{cut:.0}%"),
            if agree { "yes" } else { "NO" },
        );
    }
    println!(
        "\nPOR soundness: reduced and full exploration agree on every shipped spec: {}",
        if all_agree { "yes" } else { "NO" }
    );

    let rss_mb = bench::peak_rss_bytes().map(|b| b / (1024 * 1024));
    if let Some(mb) = rss_mb {
        eprintln!("peak RSS: {mb} MB");
    }
    if let Some(budget) = rss_budget_mb {
        let Some(mb) = rss_mb else {
            eprintln!(
                "STATESPACE_RSS_BUDGET_MB={budget} is set, but this platform reports no \
                 peak RSS (VmHWM in /proc/self/status) to check it against"
            );
            std::process::exit(1);
        };
        if mb > budget {
            eprintln!("peak RSS {mb} MB exceeds the {budget} MB budget");
            std::process::exit(1);
        }
        eprintln!("peak RSS within the {budget} MB budget");
    }
    if !all_agree {
        std::process::exit(1);
    }
}

/// `--exp faults` — the fault-campaign smoke experiment. Everything printed
/// here is deterministic for a given `--seed` (no wall-clock, no explored
/// counts), so CI can diff the output against a checked-in golden report.
fn faults(seed: u64) {
    use cellstack::{MsgClass, RatSystem};
    use netsim::{
        Campaign, Ev, FaultPhase, FaultPolicy, NodeId, PolicyRule, SimTime, World, WorldConfig,
    };

    section("Fault-injection campaign + 3GPP retransmission timers");

    // Phase plan: a lossy/reordering/corrupting stretch aimed at mobility
    // signaling, then an MME outage with restart, then a full partition.
    let campaign = Campaign::new("smoke", seed)
        .with_phase(FaultPhase::new(
            "lossy-mobility",
            5_000,
            60_000,
            vec![
                PolicyRule::on_class(
                    MsgClass::Mobility,
                    FaultPolicy {
                        drop_rate: 0.2,
                        reorder_rate: 0.2,
                        corrupt_rate: 0.1,
                        reorder_hold_ms: 400,
                        ..FaultPolicy::default()
                    },
                ),
                PolicyRule::any(FaultPolicy::dropping(0.1)),
            ],
        ))
        .with_phase(FaultPhase::outage(
            "mme-outage",
            70_000,
            80_000,
            vec![NodeId::Mme],
        ))
        .with_phase(FaultPhase::partition("partition", 90_000, 95_000));

    let mut cfg = WorldConfig::new(netsim::op_i(), seed);
    cfg.campaign = Some(campaign);
    cfg.nas_retx = true;
    cfg.nas_timer_scale = 0.1;
    let mut w = World::new(cfg);
    w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
    for i in 1..13u64 {
        w.schedule_in(i * 9_000, Ev::TriggerUpdate(UpdateKind::TrackingArea));
    }
    w.run_until(SimTime::from_secs(130));

    let report = w.campaign_report().expect("campaign configured");
    println!("{}", report.to_json());
    println!(
        "\nend state: serving={} in_service={} implicit_detaches={}",
        w.stack.serving,
        !w.stack.out_of_service(),
        w.metrics.implicit_detaches
    );

    // Screening with the TS 24.301 timers modeled: the S2 wedge is gone,
    // the S1/S6 design defects are not.
    let sr = cnetverifier::run_screening_with_retries();
    println!();
    for run in &sr.runs {
        println!(
            "screen {:<40} finding={:<5} verdict={}",
            run.model_name,
            !run.findings.is_empty(),
            run.verdict
        );
    }
}

fn validation(seed: u64) {
    section("Validation phase over simulated carriers (paper Section 3.3/5/6)");
    for v in cnetverifier::validate_all(seed) {
        println!(
            "{} on {:>5}: {:<12} {}",
            v.instance,
            v.operator,
            v.verdict.to_string(),
            v.evidence
        );
    }
}

/// `--exp diagnose` — the S1-S6 x {OP-I, OP-II} diagnosis matrix from the
/// runtime-verification monitors, with the matched event span backing every
/// verdict. Screening runs its deterministic (sequential-engine) variant and
/// the monitor replay is a pure function of the seed, so for a fixed
/// `--seed` this output is byte-stable and CI diffs it against a golden.
fn diagnose(seed: u64) {
    section("Diagnosis matrix — monitor verdicts over OP-I / OP-II");
    let diagnoses = cnetverifier::diagnose(seed);
    println!(
        "{:<4} {:>12} {:>12} {:>10} {:>13}  classification",
        "inst", "OP-I", "OP-II", "screening", "witness-sig"
    );
    for d in &diagnoses {
        let witness = d
            .witness_verdict
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<4} {:>12} {:>12} {:>10} {:>13}  {}",
            d.instance.to_string(),
            d.outcomes[0].verdict.to_string(),
            d.outcomes[1].verdict.to_string(),
            if d.predicted_by_screening {
                "predicted"
            } else {
                "-"
            },
            witness,
            d.class
        );
    }
    for d in &diagnoses {
        println!();
        for o in &d.outcomes {
            println!(
                "{} on {:>5}: {:<12} {}",
                o.instance,
                o.operator,
                o.verdict.to_string(),
                o.evidence
            );
            for line in o.span_lines() {
                println!("    {line}");
            }
            if let Some(r) = &o.refutation {
                println!("    refuted by: {r}");
            }
        }
    }
}

fn figure4(seed: u64) {
    section("Figure 4 — Recovery time from the detached event");
    println!("paper: 2.4 s to 24.7 s across both carriers (median gap < 0.5 s between phones)");
    for op in bench::carriers() {
        let times = bench::figure4_recovery_times(op, 40, seed);
        let s = bench::series_stats(&times);
        println!(
            "{:<6} n={:<3} min={:.1}s median={:.1}s max={:.1}s mean={:.1}s",
            op.name, s.n, s.min_s, s.median_s, s.max_s, s.mean_s
        );
    }
}

fn figure7(seed: u64) {
    section("Figure 7 — Call setup time and RSSI on Route-1 (OP-I)");
    println!("paper: average setup 11.4 s; 19.7 s when dialed during a location update;");
    println!("       RSSI within [-51, -95] dBm; updates at miles 9.5 and 13.2\n");
    let (calls, rssi) = bench::figure7_route1(seed);
    let mut plain = Vec::new();
    let mut during = Vec::new();
    println!("{:>6}  {:>9}  during-update", "mile", "setup(s)");
    for c in &calls {
        println!(
            "{:>6.1}  {:>9.1}  {}",
            c.mile,
            c.setup_s,
            if c.during_update { "YES" } else { "" }
        );
        if c.during_update {
            during.push(c.setup_s);
        } else {
            plain.push(c.setup_s);
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "\naverage setup: {:.1} s plain, {:.1} s during update (paper: 11.4 vs 19.7)",
        avg(&plain),
        avg(&during)
    );
    let (min_rssi, max_rssi) = rssi.iter().fold((0.0f64, -999.0f64), |(mn, mx), &(_, d)| {
        (mn.min(d), mx.max(d))
    });
    println!("RSSI range along the route: [{min_rssi:.0}, {max_rssi:.0}] dBm");
}

fn figure8(seed: u64) {
    section("Figure 8 — CDF of location/routing area update durations");
    let probs = [0.10, 0.25, 0.50, 0.75, 0.90];
    println!("paper 8(a): OP-I all >2 s, avg ~3 s; OP-II 72% in 1.2-2.1 s, avg 1.9 s");
    println!("paper 8(b): OP-I ~75% in 1-3.6 s; OP-II 90% in 1.6-4.1 s\n");
    for (kind, name) in [
        (UpdateKind::LocationArea, "(a) location area update (CS)"),
        (UpdateKind::RoutingArea, "(b) routing area update (PS)"),
    ] {
        println!("{name}:");
        for op in bench::carriers() {
            let s = bench::figure8_durations(op, kind, 200, seed);
            let cdf = bench::cdf_points(&s, &probs);
            let pts = cdf
                .iter()
                .map(|(p, v)| format!("p{:02.0}={v:.1}s", p * 100.0))
                .collect::<Vec<_>>()
                .join("  ");
            let mean = s.iter().sum::<u64>() as f64 / s.len() as f64 / 1_000.0;
            println!("  {:<6} {pts}  mean={mean:.1}s", op.name);
        }
    }
}

fn figure9(seed: u64) {
    section("Figure 9 — Data speed with/without CS calls by time of day");
    println!("paper: downlink drop 73.9% (OP-I) / 74.8% (OP-II); uplink drop 51.1% (OP-I) / 96.1% (OP-II)\n");
    for (uplink, dir) in [(false, "downlink"), (true, "uplink")] {
        for op in bench::carriers() {
            println!("{dir} ({}):", op.name);
            println!(
                "  {:>6} {:>10} {:>10} {:>8}",
                "hours", "w/ call", "w/o call", "drop"
            );
            let bins = bench::figure9(op, uplink, seed);
            let mut tot_with = 0.0;
            let mut tot_without = 0.0;
            for b in &bins {
                let drop = 100.0 * (1.0 - b.with_call_mbps / b.without_call_mbps);
                println!(
                    "  {:>6} {:>9.2}M {:>9.2}M {:>7.1}%",
                    b.label, b.with_call_mbps, b.without_call_mbps, drop
                );
                tot_with += b.with_call_mbps;
                tot_without += b.without_call_mbps;
            }
            println!(
                "  overall drop: {:.1}%",
                100.0 * (1.0 - tot_with / tot_without)
            );
        }
    }
}

fn figure10(seed: u64) {
    section("Figure 10 — Example protocol trace (64QAM disabled during CS call, OP-I)");
    let trace = bench::figure10_trace(seed);
    let mut shown = 0;
    for line in trace.lines() {
        let interesting = line.contains("64QAM")
            || line.contains("call")
            || line.contains("CM Service")
            || line.contains("Setup")
            || line.contains("Connect")
            || line.contains("Disconnect");
        if interesting {
            println!("{line}");
            shown += 1;
        }
    }
    if shown == 0 {
        println!("{trace}");
    }
}

fn table5(seed: u64) {
    section("Table 5 — User study: occurrence of S1-S6 (20 users, 2 weeks)");
    println!("paper: S1 3.1% (4/129)  S2 0.0% (0/30)  S3 62.1% (64/103)");
    println!("       S4 7.6% (6/79)   S5 77.4% (113/146)  S6 2.6% (5/190)\n");
    let r = userstudy::run_study(seed);
    println!("{}", userstudy::table5(&r));
    println!(
        "events: {} CSFB calls, {} CS calls, {} switches, {} attaches (paper: 190/146/436/30)",
        r.csfb_calls, r.cs_calls_3g, r.switches, r.attaches
    );
    let avg_kb = r.s5_affected_kb.iter().sum::<f64>() / r.s5_affected_kb.len().max(1) as f64;
    println!("S5 affected volume: avg {avg_kb:.0} KB (paper: 368 KB)");
}

fn table6(seed: u64) {
    section("Table 6 — Duration in 3G after the CSFB call ends");
    println!("paper: OP-I  min 1.1  med 2.3  max 52.6  p90 13.7 avg 6.2 (s)");
    println!("       OP-II min 14.7 med 24.3 max 253.9 p90 34.7 avg 39.6 (s)\n");
    let r = userstudy::run_study(seed);
    println!("user-study population:\n{}", userstudy::table6(&r));
    println!("directed simulator episodes:");
    for op in bench::carriers() {
        let s = bench::table6_stuck_durations(op, 12, seed);
        let st = bench::series_stats(&s);
        println!(
            "{:<6} n={:<3} min={:.1}s median={:.1}s max={:.1}s p90={:.1}s avg={:.1}s",
            op.name, st.n, st.min_s, st.median_s, st.max_s, st.p90_s, st.mean_s
        );
    }
}

/// `--exp fleet` — the `fleet_scaling` baseline's arm ([`bench::uniform_week`])
/// at 1 to 20k UEs. The arm runs on one shard on every host, so the
/// events/s column compares across machines; the `threads` column stays so
/// the fifth field is still events/s, which CI's throughput floor reads.
fn fleet_scaling(seed: u64) {
    section("Fleet scaling — timing-wheel kernel throughput and health");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "UEs", "threads", "events", "wall ms", "events/s", "bytes/UE", "cascades", "evicted"
    );
    for n in [1usize, 20, 200, 2_000, 20_000] {
        let cfg = bench::uniform_week(seed, n);
        let threads = cfg.threads;
        let t0 = std::time::Instant::now();
        let report = netsim::FleetSim::new(cfg).run();
        let wall = t0.elapsed();
        let per_sec = report.total_events as f64 / wall.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>8} {:>12} {:>12.1} {:>12.0} {:>10} {:>12} {:>10}",
            n,
            threads,
            report.total_events,
            wall.as_secs_f64() * 1_000.0,
            per_sec,
            report.kernel.bytes_per_ue,
            report.kernel.wheel_cascades,
            report.kernel.trace_evicted,
        );
        if n == 20_000 {
            println!("\n20k-UE arm kernel detail:\n{}", report.kernel.summary());
        }
    }
}

/// `n` phones alternating OP-I and OP-II, every fifth one 3G-only: the mix
/// the fleet digest and the live-monitoring runs share.
fn mixed_roster(n: u32) -> netsim::Roster {
    (0..n)
        .map(|i| netsim::UeSpec {
            op: if i % 2 == 0 {
                netsim::op_i()
            } else {
                netsim::op_ii()
            },
            behavior: if i % 5 == 0 {
                netsim::BehaviorProfile::typical_3g()
            } else {
                netsim::BehaviorProfile::typical_4g()
            },
        })
        .collect()
}

/// The golden-diffed fleet digest: a mixed-carrier, mixed-class fleet with
/// ring-bounded traces, rendered through the streaming report. Everything
/// printed is a pure function of the seed — no wall-clock, no thread
/// counts (the run uses 4 shards; any count yields the same bytes, which
/// is the property the determinism tests pin).
fn fleet_digest(seed: u64) {
    section("Fleet digest — streaming report (byte-stable across hosts and thread counts)");
    let mut cfg = netsim::FleetConfig::new(seed, 3, 4, mixed_roster(40));
    cfg.trace_capacity = Some(64);
    let report = netsim::FleetSim::new(cfg).run();
    print!("{}", report.digest());
}

/// Per-fleet-run roll-up of the in-line verdict tallies: sums over every
/// lane's [`netsim::LiveCounts`], plus the sampled settle events for the
/// tail. Everything here is a pure per-lane function of the event stream,
/// so it is identical whichever trace-retention mode and thread count the
/// fleet ran with.
#[derive(Default)]
struct LiveAgg {
    confirmed: Vec<u64>,
    refuted: Vec<u64>,
    dropped: u64,
    poisoned: u64,
    /// `(ue id, sampled settle events)` — collected per lane, globally
    /// ordered later.
    sampled: Vec<(u32, Vec<netsim::VerdictEvent>)>,
}

fn live_run(
    seed: u64,
    trace: Option<usize>,
    sigs: &[netsim::Signature],
    campaign: Option<netsim::Campaign>,
    nas_retx: bool,
) -> LiveAgg {
    let mut cfg = netsim::FleetConfig::new(seed, 1, 4, mixed_roster(20_000));
    cfg.trace_capacity = trace;
    cfg.campaign = campaign;
    cfg.nas_retx = nas_retx;
    let mut live = netsim::LiveConfig::new(sigs.to_vec());
    live.verdict_cap = 4; // exercise the backpressure cap; tallies stay exact
    cfg.live = Some(live);
    let n = sigs.len();
    let (_, shards) = netsim::FleetSim::new(cfg).run_fold(LiveAgg::default, |acc, u| {
        if acc.confirmed.is_empty() {
            acc.confirmed = vec![0; n];
            acc.refuted = vec![0; n];
        }
        if let Some(l) = &u.live {
            for k in 0..n {
                acc.confirmed[k] += u64::from(l.confirmed[k]);
                acc.refuted[k] += u64::from(l.refuted[k]);
            }
            acc.dropped += l.stream.dropped;
            acc.poisoned += u64::from(l.poisoned);
            if !l.stream.events.is_empty() {
                acc.sampled.push((u.id, l.stream.events.clone()));
            }
        }
    });
    let mut total = LiveAgg {
        confirmed: vec![0; n],
        refuted: vec![0; n],
        ..LiveAgg::default()
    };
    for s in shards {
        if s.confirmed.is_empty() {
            continue;
        }
        for k in 0..n {
            total.confirmed[k] += s.confirmed[k];
            total.refuted[k] += s.refuted[k];
        }
        total.dropped += s.dropped;
        total.poisoned += s.poisoned;
        total.sampled.extend(s.sampled);
    }
    // Shard-independent global order: by UE id, then (stably) by time.
    total.sampled.sort_by_key(|(id, _)| *id);
    total
}

/// `--exp live` — tail the fleet's in-line verdict stream: a 20 000-UE
/// day with the study signatures evaluated inside the step loop, under a
/// fault campaign (lossy mobility signaling, then an MSC outage), with
/// and without the TS 24.301 NAS retransmission timers. Every number
/// printed is a pure function of `--seed` and *independent of the trace
/// retention mode* — CI runs this in `--trace count-only` and
/// `--trace unbounded` and diffs both against the same golden file.
fn live(seed: u64, trace: Option<usize>) {
    use cellstack::MsgClass;
    use netsim::{Campaign, FaultPhase, FaultPolicy, NodeId, PolicyRule};

    section("Live fleet verdicts — in-line monitoring under a fault campaign");
    let mode = match trace {
        None => "unbounded".to_string(),
        Some(0) => "count-only".to_string(),
        Some(n) => format!("ring-{n}"),
    };
    // The retention mode goes to stderr: stdout must be byte-identical
    // across modes so CI can diff every mode against the same golden.
    eprintln!("trace retention: {mode}");
    println!("20000 UEs x 1 day (output is retention-invariant)\n");

    let campaign = Campaign::new("live-smoke", seed)
        .with_phase(FaultPhase::new(
            "lossy-mobility",
            7_200_000,  // 02:00
            21_600_000, // 06:00
            vec![
                PolicyRule::on_class(MsgClass::Mobility, FaultPolicy::dropping(0.25)),
                PolicyRule::any(FaultPolicy::dropping(0.05)),
            ],
        ))
        .with_phase(FaultPhase::outage(
            "msc-outage",
            36_000_000, // 10:00
            43_200_000, // 12:00
            vec![NodeId::Msc],
        ));
    for p in &campaign.phases {
        println!(
            "phase {:<16} {} .. {}  rules={} down={:?}",
            p.name,
            netsim::SimTime::from_millis(p.start_ms).hhmmss(),
            netsim::SimTime::from_millis(p.end_ms).hhmmss(),
            p.rules.len(),
            p.down,
        );
    }

    let sigs = userstudy::study_signatures();
    let baseline = live_run(seed, trace, &sigs, None, false);
    let faulted = live_run(seed, trace, &sigs, Some(campaign.clone()), false);
    let retried = live_run(seed, trace, &sigs, Some(campaign), true);

    println!("\nconfirmed occurrences per signature (confirmed/refuted):");
    print!("{:<24}", "run");
    for s in &sigs {
        print!(" {:>16}", s.name);
    }
    println!();
    for (label, agg) in [
        ("baseline", &baseline),
        ("campaign", &faulted),
        ("campaign+nas-retx", &retried),
    ] {
        print!("{label:<24}");
        for k in 0..sigs.len() {
            print!(
                " {:>16}",
                format!("{}/{}", agg.confirmed[k], agg.refuted[k])
            );
        }
        println!();
    }

    println!(
        "\ncampaign run: settle samples kept={} dropped-past-cap={} quarantined-lanes={}",
        faulted
            .sampled
            .iter()
            .map(|(_, e)| e.len() as u64)
            .sum::<u64>(),
        faulted.dropped,
        faulted.poisoned,
    );

    // The verdict tail: the last sampled settle events of the campaign
    // run in global (time, ue, signature) order.
    let mut tail: Vec<(netsim::SimTime, u32, usize, netsim::Verdict)> = faulted
        .sampled
        .iter()
        .flat_map(|(id, evs)| evs.iter().map(|e| (e.ts, *id, e.sig, e.verdict)))
        .collect();
    tail.sort_by_key(|&(ts, id, sig, _)| (ts, id, sig));
    println!("\nverdict tail (last 12 sampled settles):");
    for (ts, id, sig, verdict) in tail.iter().rev().take(12).rev() {
        println!(
            "{}  ue={:<6} {:<10} {}",
            ts.hhmmss(),
            id,
            sigs[*sig].name,
            verdict
        );
    }
}

/// `--exp remedies` — differential remedy verification, three layers deep:
///
/// 1. the base-vs-remedied screening matrix over every scenario family
///    and fault campaign (exhaustive sequential engines for the printed
///    numbers, a parallel engine cross-checking every non-lasso verdict);
/// 2. the spec-level overlays under `specs/remedies/` merged onto their
///    base specs and cross-checked against their references;
/// 3. a 20 000-UE fleet rollout of the remedied OP-I profile, diffing the
///    live Table 5 occurrence rates.
///
/// Everything printed is a pure function of `--seed` (the matrix and
/// overlay sections do not even depend on it), so CI diffs this output
/// against `crates/bench/golden/remedy_matrix.txt`.
fn remedies_exp(seed: u64) {
    section("Differential remedy matrix — base vs remedied screening (Section 8)");
    let rows = cnetverifier::diff_matrix();
    print!("{}", cnetverifier::render_matrix(&rows));

    section("Spec-level remedy overlays — specs/remedies/ merged onto base specs");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    match cnetverifier::overlay_agreement(&root) {
        Ok(checks) => print!("{}", cnetverifier::render_overlay_agreement(&checks)),
        Err(e) => {
            eprintln!("overlay agreement failed: {e}");
            std::process::exit(1);
        }
    }

    section("Fleet rollout — remedied OP-I at 20 000 UEs, live Table 5 rates");
    let report = userstudy::run_rollout(seed, 20_000, 1, 4, netsim::op_i());
    print!("{}", userstudy::render_rollout(&report));
    println!(
        "\nremedied profile: device bundle (bearer reactivation, parallel MM) \
         plus MME LU-failure recovery;\nS1/S4/S6 rates must drop; S3/S5 stay \
         (their remedies — CSFB tag, channel decoupling — are not in this rollout)."
    );
}

fn figure12_left(seed: u64) {
    section("Figure 12 (left) — Detaches vs signal drop rate, with/without the shim");
    println!("paper: detaches grow linearly with drop rate without the solution; zero with it\n");
    let (with, without) = remedies::figure12_left(seed);
    println!("{:>9} {:>12} {:>12}", "drop", "w/o shim", "w/ shim");
    for ((rate, d_without), (_, d_with)) in without.iter().zip(with.iter()) {
        println!("{:>8.0}% {:>12} {:>12}", rate, d_without, d_with);
    }

    // The same sweep under the generalized adversary: at x% the uplink
    // drops x%, reorders x% and corrupts x/2 % of frames.
    println!("\nunder the reorder+corrupt adversary (drop x%, reorder x%, corrupt x/2%):");
    let (awith, awithout) = remedies::figure12_left_adversarial(seed);
    println!("{:>9} {:>12} {:>12}", "faults", "w/o shim", "w/ shim");
    for ((rate, d_without), (_, d_with)) in awithout.iter().zip(awith.iter()) {
        println!("{:>8.0}% {:>12} {:>12}", rate, d_without, d_with);
    }
}

fn figure12_right() {
    section("Figure 12 (right) — Call delay vs location-update time, with/without parallel MM");
    println!("paper: delay grows linearly with LU processing time; zero with the solution\n");
    let (with, without) = remedies::figure12_right();
    println!("{:>8} {:>12} {:>12}", "LU(s)", "w/o sol(s)", "w/ sol(s)");
    for (w, wo) in with.iter().zip(without.iter()) {
        println!(
            "{:>8.1} {:>12.1} {:>12.1}",
            wo.lu_time_s, wo.delay_s, w.delay_s
        );
    }
}

fn figure13() {
    section("Figure 13 — VoIP + data speeds, coupled vs decoupled channels");
    println!(
        "paper: decoupling improves data ~1.6x both directions; voice keeps its robust channel\n"
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12}",
        "direction", "config", "VoIP(Mbps)", "Data(Mbps)"
    );
    for row in remedies::figure13() {
        println!(
            "{:>10} {:>10} {:>12.2} {:>12.2}",
            if row.uplink { "uplink" } else { "downlink" },
            if row.coupled { "coupled" } else { "decoupled" },
            row.voip_mbps,
            row.data_mbps
        );
    }
    println!(
        "\ndata improvement: downlink {:.2}x, uplink {:.2}x (paper: ~1.6x)",
        remedies::decoupling_gain(false),
        remedies::decoupling_gain(true)
    );
}

fn alt_sharing() {
    section("Section 6.2 proposal — alternative shared-channel organizations");
    println!("paper: \"cluster PS sessions from multiple devices ... while CS sessions are");
    println!("grouped together\", or \"allow CS and PS to adopt their own modulation scheme\"\n");
    println!(
        "{:<24} {:>14} {:>14} {:>12}",
        "scheme", "data (Mbps)", "per-flow", "voice ok"
    );
    for (scheme, out) in remedies::sharing_comparison(12, 3) {
        println!(
            "{:<24} {:>14.1} {:>14.2} {:>11.0}%",
            format!("{scheme:?}"),
            out.data_mbps_total,
            out.data_mbps_per_flow,
            out.voice_satisfied * 100.0
        );
    }
}

fn section93(seed: u64) {
    section("Section 9.3 — Cross-system coordination remedies");
    println!(
        "paper: remedied switch 0.1-0.4 s (median 0.27); without remedy 0.3-1.3 s (median 0.9)\n"
    );
    let (with, without) = remedies::section93_switch_experiment(400, seed);
    let w = bench::series_stats(&with);
    let wo = bench::series_stats(&without);
    println!(
        "with remedy    min={:.2}s median={:.2}s max={:.2}s",
        w.min_s, w.median_s, w.max_s
    );
    println!(
        "without remedy min={:.2}s median={:.2}s max={:.2}s",
        wo.min_s, wo.median_s, wo.max_s
    );
    println!(
        "bearer reactivation verified on FSMs: {}",
        remedies::verify_bearer_reactivation()
    );
    println!(
        "MME LU-failure recovery verified on FSMs: {}",
        remedies::verify_mme_lu_recovery()
    );
}

/// `--exp fivegs` — the 5G NR / NSA scenario corpus under the timing
/// lattice. Every spec in `specs/fivegs/` is swept across the `{1,4}^n`
/// product of per-timer scale stretches with one exhaustive sequential BFS
/// per timer order: a property violated at *every* point is a candidate design
/// defect (no retuning of timers closes it), one violated only at *some*
/// points is a timing-induced operational slip. The lattice tables, the
/// S7-S10 candidate-defect summary, the replayable witnesses, and the
/// dual-engine conformance table are all pure functions of the specs, so
/// CI diffs stdout against `crates/bench/golden/fivegs_smoke.txt`.
fn fivegs() {
    use cnetverifier::{Instance, LatticeDiagnosis};

    section("5G NR / NSA corpus — timing-lattice screening (specs/fivegs)");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/fivegs");
    let lattices =
        match cnetverifier::sweep_timer_scales(&dir, cnetverifier::ScreenBudget::default()) {
            Ok(lattices) => lattices,
            Err(e) => {
                eprintln!("timing-lattice sweep failed:\n{e}");
                std::process::exit(1);
            }
        };
    for l in &lattices {
        println!(
            "\nspec {} <{}> — {} against {}",
            l.name, l.file, l.instance, l.property
        );
        println!(
            "  {:<24} {:>9} {:>9} {:>8}",
            "scale point", "states", "verdict", "witness"
        );
        for p in &l.points {
            println!(
                "  {:<24} {:>9} {:>9} {:>8}",
                p.label,
                p.states,
                if p.violated { "violated" } else { "holds" },
                p.witness.map_or_else(|| "-".to_string(), |n| n.to_string()),
            );
        }
        println!(
            "  -> {}/{} lattice points violated: {}",
            l.violated_points(),
            l.points.len(),
            l.diagnosis()
        );
    }

    section("Candidate defects beyond Table 1 — S7-S10 diagnosis");
    let mut ordered: Vec<_> = lattices.iter().collect();
    ordered.sort_by_key(|l| l.instance);
    println!(
        "{:<5} {:<21} {:<25} {:<20}  problem",
        "inst", "property", "protocols", "diagnosis"
    );
    for l in &ordered {
        let protocols = match l.instance {
            Instance::S7 => "5GMM, NR-RRC",
            Instance::S8 => "LTE-RRC anchor, NR SCG",
            Instance::S9 => "5GMM, EMM",
            Instance::S10 => "EMM, RRC",
            _ => "-",
        };
        println!(
            "{:<5} {:<21} {:<25} {:<20}  {}",
            l.instance.to_string(),
            l.property,
            protocols,
            l.diagnosis().to_string(),
            l.instance.problem(),
        );
    }
    let timing = ordered
        .iter()
        .filter(|l| l.diagnosis() == LatticeDiagnosis::TimingInduced)
        .count();
    let design = ordered
        .iter()
        .filter(|l| l.diagnosis() == LatticeDiagnosis::DesignDefect)
        .count();
    println!(
        "\n{timing} timing-induced operational slip(s), {design} scale-independent candidate design defect(s)"
    );

    section("Replayable witnesses — first violated lattice point per spec");
    for l in &ordered {
        match &l.finding {
            Some(f) => {
                let point = l
                    .points
                    .iter()
                    .find(|p| p.violated)
                    .expect("a pinned finding implies a violated point");
                println!(
                    "\n{} <{}> at {}: {} [{} steps{}]",
                    l.instance,
                    l.file,
                    point.label,
                    f.property,
                    f.steps,
                    if f.lasso { "; lasso" } else { "" }
                );
                for (i, step) in f.witness.iter().enumerate() {
                    println!("  {:>2}. {step}", i + 1);
                }
            }
            None => println!(
                "\n{} <{}>: clean at every lattice point",
                l.instance, l.file
            ),
        }
    }

    section("Corpus conformance — canonical fixpoint, BFS vs parallel BFS");
    let rows = match cnetverifier::fiveg_corpus_check(&dir) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("corpus conformance check failed:\n{e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:<19} {:<27} {:<5} {:>8} {:>15} {:<19}  agree",
        "spec", "file", "inst", "fixpoint", "states bfs/par", "verdict bfs/par"
    );
    let side = |violated: bool| if violated { "violated" } else { "holds" };
    let mut all_agree = true;
    for r in &rows {
        all_agree &= r.agree();
        println!(
            "{:<19} {:<27} {:<5} {:>8} {:>15} {:<19}  {}",
            r.name,
            r.file,
            r.instance.to_string(),
            if r.canonical_fixpoint { "yes" } else { "NO" },
            format!("{}/{}", r.bfs_states, r.par_states),
            format!("{}/{}", side(r.bfs_violated), side(r.par_violated)),
            if r.agree() { "yes" } else { "NO" },
        );
    }
    println!(
        "\nconformance: {}/{} specs parse, canonical-print to a fixpoint, and screen identically under both engines",
        rows.iter().filter(|r| r.agree()).count(),
        rows.len()
    );
    if timing < 2 {
        eprintln!("expected >= 2 timing-induced candidates, found {timing}");
        std::process::exit(1);
    }
    if !all_agree {
        std::process::exit(1);
    }
}
