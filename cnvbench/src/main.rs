//! `cnvbench` — one benchmark for the fleet kernel and the model checker.
//!
//! ```text
//! cnvbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out PATH]
//! ```
//!
//! Without `--workload` every workload runs, reps interleaved round-robin.
//! Each rep is a fresh child process (this binary with `--child`), pinned
//! to one CPU with `taskset` when it is available; reps repeat until the
//! workload has measured for `--seconds`. Every rep's output is checked
//! against the oracles; the parent prints every metric by name and unit,
//! writes the full result (quartiles and raw per-rep values) as JSON, and
//! ends its output with one JSON line carrying the metrics `BENCHMARK.json`
//! lists: its `end_to_end` metrics, or with `--trace 1` its `per_layer`
//! ones. Any failed check makes the exit code nonzero. See README.md.

mod check;
mod fleet;
mod measure;
mod oracle;
mod screen;
mod timed;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use cnetverifier::models::nue::NUeModel;
use serde_json::Value;

use fleet::Fleet;
use measure::{field, percentile, quartiles, seq, Ledger, Rep};

/// Workload size: the benchmark's own, or about 1/100 of it for the smoke
/// test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// About 1/100 of the work, same code and oracles.
    Smoke,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    FleetWeek,
    FleetLive,
    CheckNue,
    ScreenCorpus,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FleetWeek,
        Workload::FleetLive,
        Workload::CheckNue,
        Workload::ScreenCorpus,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetWeek => "fleet_week",
            Workload::FleetLive => "fleet_live",
            Workload::CheckNue => "check_nue",
            Workload::ScreenCorpus => "screen_corpus",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// What `ops_per_s` counts.
    fn op(self) -> &'static str {
        match self {
            Workload::FleetWeek | Workload::FleetLive => "simulated events",
            Workload::CheckNue => "stored states",
            Workload::ScreenCorpus => "screening passes",
        }
    }

    /// One untraced rep, in this process.
    fn rep(self, size: Size, seed: u64, t_main: Instant) -> Rep {
        match self {
            Workload::FleetWeek => fleet::rep(Fleet::Week, size, seed, t_main),
            Workload::FleetLive => fleet::rep(Fleet::Live, size, seed, t_main),
            Workload::CheckNue => check::rep(size, t_main),
            Workload::ScreenCorpus => screen::rep(screen::passes(size), t_main),
        }
    }

    /// One traced rep, in this process. Layers the workload does not
    /// exercise are measured on small probe inputs afterwards, so every
    /// traced rep reports every layer; the ledger is the workload's own.
    fn traced(self, size: Size, seed: u64, t_main: Instant) -> Rep {
        let mut rep = match self {
            Workload::FleetWeek => fleet::traced(Fleet::Week, seed, Fleet::Week.ues(size), t_main),
            Workload::FleetLive => fleet::traced(Fleet::Live, seed, Fleet::Live.ues(size), t_main),
            Workload::CheckNue => check::traced(check::model(size), t_main),
            Workload::ScreenCorpus => screen::traced(screen::passes(size), t_main),
        };
        if let Some(l) = &rep.ledger {
            let (unattributed, overhead) = (l.unattributed_pct(), l.overhead_pct());
            rep.layer("ledger.unattributed_pct", "%", unattributed);
            rep.layer("ledger.tracing_overhead_pct", "%", overhead);
        }
        let probe = |full, smoke| if size == Size::Full { full } else { smoke };
        let mut probes = Vec::new();
        if self != Workload::FleetLive {
            probes.push(fleet::traced(Fleet::Live, seed, probe(2_048, 256), t_main));
        }
        if self != Workload::CheckNue {
            let model = NUeModel {
                ues: probe(5, 3),
                contexts: 10,
            };
            probes.push(check::traced(model, t_main));
        }
        if self != Workload::ScreenCorpus {
            probes.push(screen::traced(probe(8, 1), t_main));
        }
        for p in probes {
            rep.attempted += p.attempted;
            rep.failed += p.failed;
            rep.failures.extend(p.failures);
            for m in p.layers {
                if !rep.layers.iter().any(|l| l.name == m.name) {
                    rep.layers.push(m);
                }
            }
        }
        rep
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    child: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2014,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        child: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} takes a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Marks the child's result line on its standard output.
const REP_TAG: &str = "cnvbench-rep ";

fn main() -> ExitCode {
    let t_main = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cnvbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let w = args
            .workload
            .expect("the parent always names the child's workload");
        let mut rep = if args.trace {
            w.traced(args.size, args.seed, t_main)
        } else {
            w.rep(args.size, args.seed, t_main)
        };
        rep.peak_rss_mb = measure::peak_rss_mb();
        println!("{REP_TAG}{}", rep.to_json());
        return ExitCode::SUCCESS;
    }
    match parent(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cnvbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The CPU children are pinned to (the last one this process may use), if
/// `taskset` is present and works.
fn pin_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = list
        .trim()
        .rsplit([',', '-'])
        .next()
        .filter(|c| c.parse::<u32>().is_ok())?
        .to_string();
    let ok = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    ok.then_some(cpu)
}

/// Run one rep in a fresh child process and wait for it.
fn spawn_rep(w: Workload, args: &Args, cpu: Option<&str>) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = match cpu {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(&exe);
            c
        }
        None => Command::new(&exe),
    };
    cmd.args([
        "--child",
        "--workload",
        w.name(),
        "--seed",
        &args.seed.to_string(),
    ])
    .args(["--trace", if args.trace { "1" } else { "0" }])
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if args.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a rep: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = None;
    for l in BufReader::new(stdout).lines() {
        let l = l.map_err(|e| format!("reading a rep's output: {e}"))?;
        if let Some(json) = l.strip_prefix(REP_TAG) {
            line = Some(json.to_string());
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a rep: {e}"))?;
    match (status.success(), line) {
        (true, Some(json)) => Rep::from_json(&json),
        _ => Err(format!(
            "{} rep exited with {status} without a result",
            w.name()
        )),
    }
}

/// The metric lists of `BENCHMARK.json`: `(name, unit)` pairs.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    seq(field(&v, key))
        .iter()
        .map(|m| match (field(m, "name"), field(m, "unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("BENCHMARK.json: malformed {key} entry")),
        })
        .collect()
}

/// One metric aggregated over a workload's reps.
struct Agg {
    name: String,
    unit: String,
    value: f64,
    q1: f64,
    q3: f64,
    raw: Vec<f64>,
}

impl Agg {
    fn of(name: &str, unit: &str, raw: Vec<f64>) -> Self {
        let (q1, value, q3) = quartiles(&raw);
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            q1,
            q3,
            raw,
        }
    }

    fn to_json(&self) -> Value {
        Value::Map(vec![
            ("value".into(), Value::F64(self.value)),
            ("unit".into(), Value::Str(self.unit.clone())),
            ("q1".into(), Value::F64(self.q1)),
            ("q3".into(), Value::F64(self.q3)),
            (
                "raw".into(),
                Value::Seq(self.raw.iter().map(|&v| Value::F64(v)).collect()),
            ),
        ])
    }
}

/// Everything the parent reports for one workload.
struct Summary {
    workload: Workload,
    metrics: Vec<Agg>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    reps: usize,
}

/// Medians (with quartiles and raw values) over a workload's reps, and
/// the oracle tally including the cross-rep agreement check.
fn summarize(w: Workload, reps: &[Rep], crashed: Vec<String>) -> Summary {
    let mut metrics = vec![
        Agg::of("setup_s", "s", reps.iter().map(|r| r.setup_s).collect()),
        Agg::of(
            "ops_per_s",
            "1/s",
            reps.iter().map(|r| r.ops as f64 / r.wall_s).collect(),
        ),
        Agg::of(
            "peak_rss_mb",
            "MB",
            reps.iter().map(|r| r.peak_rss_mb).collect(),
        ),
    ];
    for list in [
        reps.first().map(|r| &r.extras),
        reps.first().map(|r| &r.layers),
    ]
    .into_iter()
    .flatten()
    {
        for m in list {
            let raw = reps
                .iter()
                .filter_map(|r| {
                    r.extras
                        .iter()
                        .chain(&r.layers)
                        .find(|x| x.name == m.name)
                        .map(|x| x.value)
                })
                .collect();
            metrics.push(Agg::of(&m.name, &m.unit, raw));
        }
    }
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.samples_ms.iter().copied())
        .collect();
    if !pooled.is_empty() {
        let n = pooled.len() as f64;
        metrics.push(Agg::of(
            "pass_ms_p50",
            "ms",
            vec![percentile(&pooled, 50.0)],
        ));
        metrics.push(Agg::of(
            "pass_ms_p95",
            "ms",
            vec![percentile(&pooled, 95.0)],
        ));
        metrics.push(Agg::of("pass_samples", "count", vec![n]));
    }
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let mut attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    if let Some(first) = reps.first() {
        for (i, r) in reps.iter().enumerate().skip(1) {
            if r.fingerprint != first.fingerprint {
                failed += 1;
                failures.push(format!(
                    "rep {i} output {:?} differs from rep 0 {:?}",
                    r.fingerprint, first.fingerprint
                ));
            }
        }
    }
    attempted += crashed.len() as u64;
    failed += crashed.len() as u64;
    failures.extend(crashed);
    Summary {
        workload: w,
        metrics,
        attempted,
        failed,
        failures,
        reps: reps.len(),
    }
}

fn parent(args: &Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let listed = listed_metrics(args.trace)?;
    let cpu = pin_cpu();
    let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); workloads.len()];
    let mut crashed: Vec<Vec<String>> = vec![Vec::new(); workloads.len()];
    let start = Instant::now();
    let budget = args.seconds * workloads.len() as f64;
    // Round-robin: one rep of each workload per round, until the run has
    // measured for `--seconds` per workload or a rep died.
    while crashed.iter().all(Vec::is_empty) {
        for (i, &w) in workloads.iter().enumerate() {
            match spawn_rep(w, args, cpu.as_deref()) {
                Ok(r) => reps[i].push(r),
                Err(e) => crashed[i].push(e),
            }
        }
        if start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }

    let summaries: Vec<Summary> = workloads
        .iter()
        .zip(reps.iter().zip(crashed))
        .map(|(&w, (r, c))| summarize(w, r, c))
        .collect();
    for (s, r) in summaries.iter().zip(&reps) {
        print_summary(s, r, args, cpu.as_deref());
    }
    write_results(args, &summaries, &reps, cpu.as_deref())?;

    let attempted: u64 = summaries.iter().map(|s| s.attempted).sum();
    let failed: u64 = summaries.iter().map(|s| s.failed).sum();
    let mut out = Vec::new();
    for s in &summaries {
        for (name, unit) in &listed {
            let m = s.metrics.iter().find(|m| &m.name == name).ok_or(format!(
                "{}: BENCHMARK.json metric {name} was not measured",
                s.workload.name()
            ))?;
            if &m.unit != unit {
                return Err(format!(
                    "{name}: measured in {}, BENCHMARK.json says {unit}",
                    m.unit
                ));
            }
            let key = if summaries.len() == 1 {
                name.clone()
            } else {
                format!("{}/{name}", s.workload.name())
            };
            out.push((
                key,
                Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]),
            ));
        }
    }
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(out)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("a Value always serializes")
    );
    Ok(failed == 0 && attempted > 0)
}

fn print_summary(s: &Summary, reps: &[Rep], args: &Args, cpu: Option<&str>) {
    let w = s.workload;
    println!(
        "\n== {} (seed {}, {:?} size, {} rep(s), {}, {})",
        w.name(),
        args.seed,
        args.size,
        s.reps,
        match cpu {
            Some(c) => format!("pinned to CPU {c}"),
            None => "not pinned".to_string(),
        },
        if args.trace { "traced" } else { "untraced" },
    );
    for m in &s.metrics {
        let note = if m.name == "ops_per_s" {
            format!("  [{} per host second]", w.op())
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16} {:<6} q1 {:<12} q3 {:<12}{note}",
            m.name,
            fmt(m.value),
            m.unit,
            fmt(m.q1),
            fmt(m.q3)
        );
    }
    let ratio = s.failed as f64 / s.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16} {:<6} ({} of {} checked operations failed)",
        "fail_ratio",
        fmt(ratio),
        "ratio",
        s.failed,
        s.attempted
    );
    for f in &s.failures {
        println!("  FAILED: {f}");
    }
    for (i, l) in reps.iter().filter_map(|r| r.ledger.as_ref()).enumerate() {
        println!("  ledger (traced rep {i}):");
        for row in &l.rows {
            println!(
                "    {:<22} {:>10.4} s  {:>6.1}%  {}",
                row.layer,
                row.seconds,
                100.0 * row.seconds / l.traced_wall_s,
                row.source
            );
        }
        println!(
            "    {:<22} {:>10.4} s  {:>6.1}%  (traced wall {:.4} s, untraced {:.4} s)",
            "unattributed",
            l.unattributed_s(),
            100.0 * l.unattributed_s() / l.traced_wall_s,
            l.traced_wall_s,
            l.untraced_wall_s
        );
        println!("    tracing overhead       {:>+9.1}%", l.overhead_pct());
        if l.unattributed_pct() > 10.0 {
            println!(
                "  WARNING: layer self times miss the traced wall by {:.1}% (> 10%)",
                l.unattributed_pct()
            );
        }
    }
}

/// A number with its significant digits and no trailing noise.
fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn write_results(
    args: &Args,
    summaries: &[Summary],
    reps: &[Vec<Rep>],
    cpu: Option<&str>,
) -> Result<(), String> {
    let path = args.out.clone().unwrap_or_else(|| {
        PathBuf::from(".cnvbench").join(format!(
            "result-{}-seed{}-trace{}.json",
            args.workload.map_or("all", Workload::name),
            args.seed,
            u8::from(args.trace)
        ))
    });
    let workloads = summaries
        .iter()
        .zip(reps)
        .map(|(s, reps)| {
            let ledgers = reps
                .iter()
                .filter_map(|r| r.ledger.as_ref())
                .map(Ledger::to_value)
                .collect();
            (
                s.workload.name().to_string(),
                Value::Map(vec![
                    ("reps".into(), Value::U64(s.reps as u64)),
                    (
                        "metrics".into(),
                        Value::Map(
                            s.metrics
                                .iter()
                                .map(|m| (m.name.clone(), m.to_json()))
                                .collect(),
                        ),
                    ),
                    ("attempted".into(), Value::U64(s.attempted)),
                    ("failed".into(), Value::U64(s.failed)),
                    (
                        "failures".into(),
                        Value::Seq(s.failures.iter().cloned().map(Value::Str).collect()),
                    ),
                    (
                        "fingerprints".into(),
                        Value::Seq(
                            reps.iter()
                                .map(|r| Value::Str(r.fingerprint.clone()))
                                .collect(),
                        ),
                    ),
                    ("ledgers".into(), Value::Seq(ledgers)),
                ]),
            )
        })
        .collect();
    let doc = Value::Map(vec![
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "size".into(),
            Value::Str(format!("{:?}", args.size).to_lowercase()),
        ),
        (
            "pinned_cpu".into(),
            cpu.map_or(Value::Null, |c| Value::Str(c.to_string())),
        ),
        (
            "host_cpus".into(),
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).expect("a Value always serializes");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nfull result: {}", path.display());
    Ok(())
}
