//! The `screen_corpus` workload: the paper's screening phase as a user
//! runs it, many small checker runs back to back. One pass is the four
//! public screening entry points in sequence; every pass is checked.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cnetverifier::models::attach::AttachModel;
use cnetverifier::models::crosssys_lu::CrossSysLuModel;
use cnetverifier::screening::{
    load_specs, run_screening_deterministic, run_spec_screening, spec_agreement,
    sweep_timer_scales, LatticeDiagnosis, ScreenBudget, ScreeningReport, SpecAgreement,
    TimingLattice,
};
use mck::{Checker, Model, SearchStrategy};

use crate::measure::{median, secs, Ledger, Rep};
use crate::oracle::Checks;
use crate::timed::{Timed, TimerCost};
use crate::Size;

/// Passes per rep at `size`.
pub fn passes(size: Size) -> usize {
    match size {
        Size::Full => 100,
        Size::Smoke => 1,
    }
}

/// The shipped spec corpus, found from the benchmark's own location so the
/// working directory does not matter.
fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../specs")
}

/// Everything one pass produces.
struct Pass {
    rust_models: ScreeningReport,
    spec_screening: ScreeningReport,
    lattices: Vec<TimingLattice>,
    agreement: Vec<SpecAgreement>,
}

/// Names of the pass's four phases, in call order.
const PHASES: [&str; 4] = [
    "screen.rust_models",
    "screen.spec_screening",
    "screen.timing_lattice",
    "screen.spec_agreement",
];

/// Run `f`, recording its wall (s) in `spans[i]` when spans are kept.
fn phase<T>(spans: &mut Option<&mut [f64; 4]>, i: usize, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => {
            let t = Instant::now();
            let out = f();
            spans[i] = secs(t);
            out
        }
        None => f(),
    }
}

/// Run one pass over the corpus at `base` (and its `fivegs` lattice
/// corpus); `spans`, when given, receives each phase's wall.
fn pass(base: &Path, fivegs: &Path, mut spans: Option<&mut [f64; 4]>) -> Result<Pass, String> {
    let rust_models = phase(&mut spans, 0, run_screening_deterministic);
    let spec_screening = phase(&mut spans, 1, || run_spec_screening(base))?;
    let lattices = phase(&mut spans, 2, || {
        sweep_timer_scales(fivegs, ScreenBudget::default())
    })?;
    let agreement = phase(&mut spans, 3, || spec_agreement(base))?;
    Ok(Pass {
        rust_models,
        spec_screening,
        lattices,
        agreement,
    })
}

fn findings(report: &ScreeningReport) -> String {
    report
        .runs
        .iter()
        .map(|r| {
            let found: Vec<String> = r
                .findings
                .iter()
                .map(|f| {
                    format!(
                        "{}:{}{}",
                        f.instance,
                        f.steps,
                        if f.lasso { "L" } else { "" }
                    )
                })
                .collect();
            let found = if found.is_empty() {
                "clean".to_string()
            } else {
                found.join(",")
            };
            format!("{found}@{}", r.stats.unique_states)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Structural checks and the fingerprint of one pass.
fn check(p: &Pass) -> (Vec<String>, String) {
    let mut c = Checks::default();
    use cnetverifier::Instance;
    for inst in [Instance::S1, Instance::S2, Instance::S3, Instance::S4] {
        match p.rust_models.finding(inst) {
            Some(f) => c.eq(
                &format!("{inst} property"),
                f.property.as_str(),
                inst.property(),
            ),
            None => c.check(false, || format!("{inst} not found by screening")),
        }
    }
    c.check(p.rust_models.complete(), || {
        "Rust-model screening incomplete".into()
    });
    c.check(p.spec_screening.complete(), || {
        "spec screening incomplete".into()
    });
    let count = |d: LatticeDiagnosis| p.lattices.iter().filter(|l| l.diagnosis() == d).count();
    c.eq(
        "timing-induced S7-S10",
        count(LatticeDiagnosis::TimingInduced),
        2,
    );
    c.eq(
        "design-defect S7-S10",
        count(LatticeDiagnosis::DesignDefect),
        2,
    );
    for row in &p.agreement {
        c.check(row.agree(), || {
            format!("spec {} disagrees with its Rust model", row.name)
        });
    }
    // Per spec: violated/points, then each point's states and witness length.
    let lattice: Vec<String> = p
        .lattices
        .iter()
        .map(|l| {
            let points: Vec<String> = l
                .points
                .iter()
                .map(|pt| match pt.witness {
                    Some(w) => format!("{}:{w}", pt.states),
                    None => pt.states.to_string(),
                })
                .collect();
            let (violated, n) = (l.violated_points(), l.points.len());
            format!("{}={violated}/{n}[{}]", l.instance, points.join(","))
        })
        .collect();
    let agree = p.agreement.iter().filter(|r| r.agree()).count();
    let fp = format!(
        "rust {} | spec {} | lattice {} | agree {agree}/{}",
        findings(&p.rust_models),
        findings(&p.spec_screening),
        lattice.join(" "),
        p.agreement.len()
    );
    c.pinned("screen_corpus/pass", &fp);
    (c.into_errs(), fp)
}

/// Run and check one pass; returns its wall (s) and its output.
fn checked_pass(
    rep: &mut Rep,
    dirs: &(PathBuf, PathBuf),
    spans: Option<&mut [f64; 4]>,
) -> (f64, Option<Pass>) {
    let t = Instant::now();
    let out = pass(&dirs.0, &dirs.1, spans);
    let wall = secs(t);
    match out {
        Ok(p) => {
            let (mut errs, fp) = check(&p);
            if rep.fingerprint.is_empty() {
                rep.fingerprint = fp.clone();
            }
            if fp != rep.fingerprint {
                errs.push(format!(
                    "pass fingerprint {fp:?} differs from the first pass"
                ));
            }
            rep.record_op(errs);
            (wall, Some(p))
        }
        Err(e) => {
            rep.record_op(vec![e]);
            (wall, None)
        }
    }
}

fn corpus() -> (PathBuf, PathBuf) {
    let base = specs_dir();
    let fivegs = base.join("fivegs");
    (base, fivegs)
}

/// One untraced rep of `n` passes.
pub fn rep(n: usize, t_main: Instant) -> Rep {
    let dirs = corpus();
    let mut rep = Rep {
        setup_s: secs(t_main),
        ops: n as u64,
        ..Rep::default()
    };
    for _ in 0..n {
        let (wall, _) = checked_pass(&mut rep, &dirs, None);
        rep.wall_s += wall;
        rep.samples_ms.push(wall * 1e3);
    }
    rep
}

/// Median wall of `specl::compile` per base spec, summed over the base
/// specs, ms.
fn compile_ms() -> Result<f64, String> {
    const REPS: usize = 20;
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .map_err(|e| format!("cannot read the spec corpus: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "specl"))
        .collect();
    files.sort();
    let mut total = 0.0;
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut ms = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let t = Instant::now();
            let compiled = specl::compile(&src);
            ms.push(secs(t) * 1e3);
            compiled.map_err(|_| format!("{} does not compile", path.display()))?;
        }
        total += median(&ms);
    }
    Ok(total)
}

/// Mean `next_state` cost of the compiled specs and of their hand-written
/// counterparts (the pairs `spec_agreement` proves equal), in ns per call
/// with the timer's inside share removed.
fn spec_vs_hand(timer: TimerCost) -> Result<(f64, f64), String> {
    /// The tiny models are run this often so each side makes ~10⁵ calls.
    const REPS: usize = 60;
    let (mut spec_ns, mut spec_calls, mut hand_ns, mut hand_calls) = (0.0, 0.0, 0.0, 0.0);
    fn bfs<M: Model + Sync + 'static>(m: M) -> (f64, f64)
    where
        M::State: Send + Sync,
        M::Action: Send + Sync,
    {
        let (timed, times) = Timed::new(m);
        Checker::new(timed).strategy(SearchStrategy::Bfs).run();
        let c = &times.next_state;
        (c.ns_per_call() * c.sampled() as f64, c.sampled() as f64)
    }
    for spec in load_specs(&specs_dir())? {
        for _ in 0..REPS {
            let (ns, calls) = bfs(spec.model.clone());
            spec_ns += ns;
            spec_calls += calls;
            let (ns, calls) = match spec.name.as_str() {
                "attach" => bfs(AttachModel::paper()),
                "attach_reliable" => bfs(AttachModel::with_reliable_transport()),
                "crosssys_lu" => bfs(CrossSysLuModel::paper()),
                other => return Err(format!("spec `{other}` has no hand-written counterpart")),
            };
            hand_ns += ns;
            hand_calls += calls;
        }
    }
    let per_call = |ns: f64, calls: f64| ns / calls.max(1.0) - timer.inside * 1e9;
    Ok((per_call(spec_ns, spec_calls), per_call(hand_ns, hand_calls)))
}

/// Lattice points, states summed over points, and the share of a point's
/// states also reached at another point of the same spec — the headroom
/// for reusing visited states across timer scales.
fn lattice_sharing(lattices: &[TimingLattice]) -> Result<(usize, usize, f64), String> {
    let specs = load_specs(&specs_dir().join("fivegs"))?;
    let (mut points, mut states, mut shared) = (0, 0, 0);
    for l in lattices {
        let spec = specs
            .iter()
            .find(|s| s.name == l.name)
            .ok_or_else(|| format!("lattice spec {} not in the corpus", l.name))?;
        let mut seen: HashMap<specl::SpecState, usize> = HashMap::new();
        let mut point_states = Vec::new();
        for pt in &l.points {
            let mut model = spec.model.clone();
            for (t, &s) in spec.model.program.timers.iter().zip(&pt.scales) {
                if s != 1 {
                    model = model
                        .with_timer_scale(&t.name, s)
                        .ok_or_else(|| format!("{}: cannot scale timer {}", l.name, t.name))?;
                }
            }
            let graph = mck::explore(&model, 1_000_000);
            if !graph.complete {
                return Err(format!(
                    "{}: lattice point {} not exhausted",
                    l.name, pt.label
                ));
            }
            for s in &graph.states {
                *seen.entry(s.clone()).or_default() += 1;
            }
            point_states.push(graph.states);
        }
        for point in point_states {
            points += 1;
            states += point.len();
            shared += point.iter().filter(|s| seen[*s] > 1).count();
        }
    }
    Ok((points, states, shared as f64 / states.max(1) as f64))
}

/// A traced rep: `n` untraced passes interleaved with `n` passes that
/// keep a span per phase, then the compile, spec-vs-hand and
/// lattice-sharing probes.
pub fn traced(n: usize, t_main: Instant) -> Rep {
    let dirs = corpus();
    let mut rep = Rep {
        setup_s: secs(t_main),
        ops: n as u64,
        ..Rep::default()
    };
    let timer = TimerCost::measure();
    let (mut wall_t, mut totals, mut last) = (0.0, [0.0; 4], None);
    for _ in 0..n {
        rep.wall_s += checked_pass(&mut rep, &dirs, None).0;
        let mut spans = [0.0; 4];
        let (wall, out) = checked_pass(&mut rep, &dirs, Some(&mut spans));
        wall_t += wall;
        for (tot, s) in totals.iter_mut().zip(spans) {
            *tot += s;
        }
        last = out.or(last);
    }

    // The phases are the pass's children: its own time is what the
    // untraced passes leave after them.
    let mut ledger = Ledger {
        traced_wall_s: wall_t,
        untraced_wall_s: rep.wall_s,
        ..Ledger::default()
    };
    let passes = n as f64;
    let phases: Vec<f64> = totals.iter().map(|s| s - passes * timer.inside).collect();
    ledger.row(
        "pass (self)",
        rep.wall_s - phases.iter().sum::<f64>(),
        "residual of the untraced passes",
    );
    for (name, s) in PHASES.iter().zip(&phases) {
        ledger.row(name, *s, "timed");
        rep.layer(&format!("{name}_ms"), "ms", s * 1e3 / passes);
    }
    ledger.row("tracing", 4.0 * passes * timer.full, "timer calls");
    rep.ledger = Some(ledger);

    match compile_ms() {
        Ok(ms) => rep.layer("specl.compile_ms", "ms", ms),
        Err(e) => rep.record_op(vec![e]),
    }
    match spec_vs_hand(timer) {
        Ok((spec, hand)) => {
            rep.layer("spec.next_state_ns", "ns", spec);
            rep.layer("hand.next_state_ns", "ns", hand);
            rep.layer("spec_vs_hand.ns_ratio", "ratio", spec / hand);
        }
        Err(e) => rep.record_op(vec![e]),
    }
    match last.map(|p| lattice_sharing(&p.lattices)) {
        Some(Ok((points, states, ratio))) => {
            rep.layer("lattice.points", "count", points as f64);
            rep.layer("lattice.states", "count", states as f64);
            rep.layer("lattice.shared_state_ratio", "ratio", ratio);
        }
        Some(Err(e)) => rep.record_op(vec![e]),
        None => rep.record_op(vec!["no pass completed".into()]),
    }
    rep
}
