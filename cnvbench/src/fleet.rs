//! The fleet workloads, `fleet_week` and `fleet_live`.
//!
//! The kernel is timed from outside only: the fold closure is the
//! benchmark's own; the wheel, trace, fold, monitor and post-hoc costs come
//! from replaying the first eight blocks of UEs, captured with unbounded
//! traces, through the public `TimingWheel`, `TraceCollector`,
//! `MetricsRegistry`, `FleetAgg`, `LaneBank` and `count_signature`; and the
//! simulation's own self time comes from runs with traces and monitors
//! configured away (count-only traces, no monitors).

use std::time::Instant;

use cellstack::MsgClass;
use netsim::{
    count_signature, op_i, op_ii, BehaviorProfile, Campaign, Ev, FaultPhase, FaultPolicy, FleetAgg,
    FleetConfig, FleetReport, FleetSim, LaneBank, LiveConfig, MetricsRegistry, NodeId, PolicyRule,
    SimTime, TimingWheel, TraceCollector, TraceEntry, TraceEvent, UeId, UeOutcome, UeSpec,
};

use crate::measure::{fnv1a, median, secs, Ledger, Rep};
use crate::oracle::Checks;
use crate::timed::TimerCost;
use crate::Size;

/// Which fleet workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fleet {
    /// Uniform OP-II, 7 days, ring-32 traces, no monitors, no campaign.
    Week,
    /// The `repro --exp live` mix for 1 day: count-only traces, the study
    /// signatures in-line, the `live-smoke` fault campaign.
    Live,
}

impl Fleet {
    fn name(self) -> &'static str {
        match self {
            Fleet::Week => "fleet_week",
            Fleet::Live => "fleet_live",
        }
    }

    /// Fleet size at `size`.
    pub fn ues(self, size: Size) -> usize {
        match (self, size) {
            (Fleet::Week, Size::Full) => 5_000,
            (Fleet::Week, Size::Smoke) => 50,
            (Fleet::Live, Size::Full) => 50_000,
            (Fleet::Live, Size::Smoke) => 500,
        }
    }

    fn days(self) -> u32 {
        match self {
            Fleet::Week => 7,
            Fleet::Live => 1,
        }
    }
}

/// Lanes per kernel block (the kernel's own constant).
const BLOCK: usize = 64;

/// UEs captured, traces unbounded, for the layer replays: eight blocks.
const CAPTURE: usize = 8 * BLOCK;

/// The `live-smoke` campaign of `repro --exp live`: lossy mobility
/// signaling 02:00–06:00, an MSC outage 10:00–12:00.
fn live_smoke(seed: u64) -> Campaign {
    Campaign::new("live-smoke", seed)
        .with_phase(FaultPhase::new(
            "lossy-mobility",
            7_200_000,
            21_600_000,
            vec![
                PolicyRule::on_class(MsgClass::Mobility, FaultPolicy::dropping(0.25)),
                PolicyRule::any(FaultPolicy::dropping(0.05)),
            ],
        ))
        .with_phase(FaultPhase::outage(
            "msc-outage",
            36_000_000,
            43_200_000,
            vec![NodeId::Msc],
        ))
}

/// The workload's fleet of `ues` phones, one simulation thread.
pub fn config(fleet: Fleet, seed: u64, ues: usize) -> FleetConfig {
    match fleet {
        Fleet::Week => {
            let spec = UeSpec {
                op: op_ii(),
                behavior: BehaviorProfile::typical_4g(),
            };
            let mut cfg = FleetConfig::uniform(seed, fleet.days(), 1, ues, spec);
            cfg.trace_capacity = Some(32);
            cfg
        }
        Fleet::Live => {
            let specs = (0..ues)
                .map(|i| UeSpec {
                    op: if i % 2 == 0 { op_i() } else { op_ii() },
                    behavior: if i % 5 == 0 {
                        BehaviorProfile::typical_3g()
                    } else {
                        BehaviorProfile::typical_4g()
                    },
                })
                .collect();
            let mut cfg = FleetConfig::new(seed, fleet.days(), 1, specs);
            cfg.trace_capacity = Some(0);
            cfg.campaign = Some(live_smoke(seed));
            let mut live = LiveConfig::new(userstudy::study_signatures());
            live.verdict_cap = 4;
            cfg.live = Some(live);
            cfg
        }
    }
}

fn horizon(days: u32) -> SimTime {
    SimTime::from_millis(u64::from(days) * 86_400_000 + 900_000)
}

/// What the benchmark's fold closure keeps per shard.
#[derive(Default)]
struct Acc {
    ues: u64,
    events: u64,
    confirmed: Vec<u64>,
    refuted: Vec<u64>,
    dropped: u64,
    poisoned: u64,
    /// Nanoseconds inside the closure (traced runs only).
    fold_ns: u64,
}

impl Acc {
    fn observe(&mut self, u: &UeOutcome) {
        self.ues += 1;
        self.events += u.events;
        if let Some(l) = &u.live {
            if self.confirmed.is_empty() {
                self.confirmed = vec![0; l.confirmed.len()];
                self.refuted = vec![0; l.refuted.len()];
            }
            for (k, (&c, &r)) in l.confirmed.iter().zip(&l.refuted).enumerate() {
                self.confirmed[k] += u64::from(c);
                self.refuted[k] += u64::from(r);
            }
            self.dropped += l.stream.dropped;
            self.poisoned += u64::from(l.poisoned);
        }
    }

    fn merge(mut self, o: Acc) -> Acc {
        if self.confirmed.is_empty() {
            self.confirmed = vec![0; o.confirmed.len()];
            self.refuted = vec![0; o.refuted.len()];
        }
        for (k, (&c, &r)) in o.confirmed.iter().zip(&o.refuted).enumerate() {
            self.confirmed[k] += c;
            self.refuted[k] += r;
        }
        self.ues += o.ues;
        self.events += o.events;
        self.dropped += o.dropped;
        self.poisoned += o.poisoned;
        self.fold_ns += o.fold_ns;
        self
    }
}

/// One fleet run through `run_fold`; `timed` times the closure body,
/// including dropping the outcome it was handed.
fn run(sim: &FleetSim, timed: bool) -> (FleetReport, Acc, f64) {
    let t = Instant::now();
    let (report, accs) = sim.run_fold(Acc::default, |acc, u| {
        if timed {
            let t = Instant::now();
            acc.observe(&u);
            drop(u);
            acc.fold_ns += t.elapsed().as_nanos() as u64;
        } else {
            acc.observe(&u);
        }
    });
    let wall = secs(t);
    let acc = accs.into_iter().fold(Acc::default(), Acc::merge);
    (report, acc, wall)
}

/// Structural checks and the fingerprint of one fleet run.
fn check(
    fleet: Fleet,
    seed: u64,
    cfg: &FleetConfig,
    report: &FleetReport,
    acc: &Acc,
) -> (Vec<String>, String) {
    let mut c = Checks::default();
    let n = cfg.n_ues() as u64;
    c.eq("UEs folded", acc.ues, n);
    c.eq("UEs in the aggregate", report.agg.ues, n);
    c.eq("per-UE events summed", acc.events, report.total_events);
    c.check(report.total_events > 0, || "no events simulated".into());
    let samples = report.metrics.snapshot().samples;
    let by_kind: u64 = samples
        .iter()
        .filter(|s| s.name == "fleet_events_total")
        .map(|s| s.value)
        .sum();
    c.eq("fleet_events_total", by_kind, report.total_events);
    c.eq("quarantined lanes", report.kernel.monitor_quarantined, 0);
    c.check(
        report.agg.trace_evicted <= report.agg.trace_recorded,
        || "more trace entries evicted than recorded".into(),
    );
    let mut fp = format!(
        "events={} digest={:016x}",
        report.total_events,
        fnv1a(report.digest().as_bytes())
    );
    if let Some(live) = &cfg.live {
        c.eq("poisoned lanes", acc.poisoned, 0);
        for (k, sig) in live.signatures.iter().enumerate() {
            for (verdict, tally) in [("confirmed", &acc.confirmed), ("refuted", &acc.refuted)] {
                let registry: u64 = samples
                    .iter()
                    .filter(|s| {
                        s.name == "fleet_verdicts_total"
                            && s.labels.contains(&("sig".into(), sig.name.clone()))
                            && s.labels.contains(&("verdict".into(), verdict.into()))
                    })
                    .map(|s| s.value)
                    .sum();
                c.eq(
                    &format!("{} {verdict}: registry vs lane tallies", sig.name),
                    registry,
                    tally.get(k).copied().unwrap_or(0),
                );
            }
        }
        fp.push_str(&format!(
            " confirmed={:?} refuted={:?}",
            acc.confirmed, acc.refuted
        ));
    }
    c.pinned(&format!("{}/{}ues/{seed}", fleet.name(), n), &fp);
    (c.into_errs(), fp)
}

/// One untraced rep: build the fleet, run it once, check the output.
pub fn rep(fleet: Fleet, size: Size, seed: u64, t_main: Instant) -> Rep {
    let cfg = config(fleet, seed, fleet.ues(size));
    let sim = FleetSim::new(cfg.clone());
    let setup_s = secs(t_main);
    let (report, acc, wall) = run(&sim, false);
    let mut rep = Rep {
        setup_s,
        wall_s: wall,
        ops: report.total_events,
        ..Rep::default()
    };
    rep.extra("events_per_s", "1/s", report.total_events as f64 / wall);
    let (errs, fp) = check(fleet, seed, &cfg, &report, &acc);
    rep.fingerprint = fp;
    rep.record_op(errs);
    rep
}

/// A replay measurement loops over the captured data until it has timed at
/// least this long, seconds.
const MIN_SECS: f64 = 0.1;

/// ns per operation of `pass`, which performs `ops` operations and returns
/// the seconds it timed (so untimed preparation inside a pass is left out).
fn ns_per_op(ops: usize, mut pass: impl FnMut() -> f64) -> f64 {
    let (mut timed, mut passes) = (0.0, 0);
    while passes == 0 || timed < MIN_SECS {
        timed += pass();
        passes += 1;
    }
    timed * 1e9 / (passes * ops.max(1)) as f64
}

/// The captured lanes: outcomes (traces unbounded) grouped in kernel
/// blocks, and each lane's trace entries.
struct Capture {
    blocks: Vec<Vec<UeOutcome>>,
    streams: Vec<Vec<Vec<TraceEntry>>>,
    /// Injected faults traced by the captured lanes.
    faults: usize,
}

impl Capture {
    fn new(cfg: &FleetConfig) -> Self {
        let mut cfg = cfg.clone();
        cfg.trace_capacity = None;
        let (_, outcomes) = FleetSim::new(cfg).run_collect();
        let mut blocks: Vec<Vec<UeOutcome>> = Vec::new();
        for u in outcomes {
            match blocks.last_mut() {
                Some(b) if b.len() < BLOCK => b.push(u),
                _ => blocks.push(vec![u]),
            }
        }
        let streams = blocks
            .iter()
            .map(|b| b.iter().map(|u| u.trace.entries().to_vec()).collect())
            .collect();
        let faults = blocks
            .iter()
            .flatten()
            .map(|u| u.trace.faults().count())
            .sum();
        Self {
            blocks,
            streams,
            faults,
        }
    }

    fn ues(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    fn entries(&self) -> usize {
        self.streams.iter().flatten().map(Vec::len).sum()
    }
}

/// Takes an entry's owned fields by value, as `record_event` does, and
/// drops them: the baseline the emission replay is measured against.
#[inline(never)]
fn sink(desc: String, event: TraceEvent) {
    std::hint::black_box((&desc, &event));
}

/// Per-entry costs of emitting the captured entries into fresh per-UE
/// collectors retaining what `cfg` retains, in ns: building each entry's
/// owned fields, and `record_event` itself with the building subtracted.
/// The monitoring tap, armed when `cfg` runs monitors, is drained after
/// every entry as the step loop drains it after every event.
fn trace_ns(cap: &Capture, cfg: &FleetConfig) -> (f64, f64) {
    let (capacity, tap) = (cfg.trace_capacity, cfg.live.is_some());
    // The kernel renders a description only when the collector keeps
    // entries: `"<what>: <name>"` lines through one `format!` argument,
    // fixed lines by copying a static string.
    let desc = |e: &TraceEntry| {
        if capacity == Some(0) {
            String::new()
        } else if e.desc.contains(": ") {
            // Through the formatter on purpose, as the kernel's lines go.
            #[allow(clippy::useless_format)]
            let rendered = format!("{}", e.desc);
            rendered
        } else {
            e.desc.as_str().to_owned()
        }
    };
    let streams = || cap.streams.iter().flatten();
    let build = || {
        let t = Instant::now();
        for e in streams().flatten() {
            sink(desc(e), e.event.clone());
        }
        secs(t)
    };
    let emit = || {
        let t = Instant::now();
        for s in streams() {
            let mut col = TraceCollector::with_capacity(capacity);
            if tap {
                col.arm_tap();
            }
            for e in s {
                col.record_event(
                    e.ts,
                    e.trace_type,
                    e.system,
                    e.module,
                    desc(e),
                    e.event.clone(),
                );
                if let Some(tap) = col.tap_mut() {
                    tap.clear();
                }
            }
            std::hint::black_box(&col);
        }
        secs(t)
    };
    // Building and emitting alternate pass by pass so their difference
    // sees one host state.
    let (mut b, mut e, mut passes) = (0.0, 0.0, 0);
    while passes == 0 || b + e < 2.0 * MIN_SECS {
        b += build();
        e += emit();
        passes += 1;
    }
    let per_entry = |s: f64| s * 1e9 / (passes * cap.entries().max(1)) as f64;
    (per_entry(b), per_entry(e - b))
}

/// Per-UE cost of the kernel's own fold of a finished lane, in ns: its
/// per-lane metrics-registry series (per carrier; per signature and
/// verdict with a nonzero tally when `live` monitors run), written through
/// `MetricsRegistry` with the kernel's labels, and `FleetAgg::observe_ue`,
/// which hashes the lane's retained trace — cut here to `capacity`.
fn kernel_fold_ns(cap: &mut Capture, capacity: Option<usize>, live: Option<&LiveConfig>) -> f64 {
    // Bounded copies of the traces stand in for the lanes' own during the
    // replay; the unbounded ones go back afterwards.
    let unbounded: Vec<TraceCollector> = cap
        .blocks
        .iter_mut()
        .flatten()
        .map(|u| {
            let mut bounded = u.trace.clone();
            bounded.set_capacity(capacity);
            std::mem::replace(&mut u.trace, bounded)
        })
        .collect();
    let ues = cap.ues();
    let ns = ns_per_op(ues, || {
        let t = Instant::now();
        let mut r = MetricsRegistry::new();
        let mut agg = FleetAgg::default();
        for u in cap.blocks.iter().flatten() {
            let op = || vec![("op", u.op_name.to_string())];
            let m = &u.metrics;
            r.count("fleet_ue_total", op(), 1);
            r.count("fleet_lane_events_total", op(), u.events);
            r.count("fleet_calls_total", op(), m.call_setups.len() as u64);
            r.count("fleet_s1_total", op(), u64::from(m.s1_events));
            r.count("fleet_s6_total", op(), u64::from(m.s6_events));
            r.count("fleet_blocked_total", op(), u64::from(m.blocked_requests));
            r.count("fleet_trace_evicted_total", Vec::new(), u.trace.evicted());
            r.observe("fleet_lane_events", Vec::new(), u.events);
            if let (Some(cfg), Some(counts)) = (live, &u.live) {
                for (k, sig) in cfg.signatures.iter().enumerate() {
                    for (verdict, n) in [
                        ("confirmed", counts.confirmed[k]),
                        ("refuted", counts.refuted[k]),
                    ] {
                        if n > 0 {
                            let labels = vec![
                                ("sig", sig.name.clone()),
                                ("op", u.op_name.to_string()),
                                ("verdict", verdict.to_string()),
                            ];
                            r.count("fleet_verdicts_total", labels, u64::from(n));
                        }
                    }
                }
                if counts.stream.dropped > 0 {
                    r.count(
                        "fleet_verdicts_dropped_total",
                        Vec::new(),
                        counts.stream.dropped,
                    );
                }
            }
            agg.observe_ue(u);
        }
        std::hint::black_box((r, agg));
        secs(t)
    });
    for (u, trace) in cap.blocks.iter_mut().flatten().zip(unbounded) {
        u.trace = trace;
    }
    ns
}

/// Per-op cost of the timing wheel, replaying each captured block's trace
/// timestamps: a lane keeps one pending entry, scheduling its next when the
/// current one pops, as the kernel's lanes hold a handful between
/// activities. Ops are schedules plus pops.
fn wheel_ns_per_op(cap: &Capture) -> f64 {
    let ops = 2 * cap.entries();
    ns_per_op(ops, || {
        let t = Instant::now();
        for streams in &cap.streams {
            let mut wheel: TimingWheel<(UeId, Ev)> = TimingWheel::new();
            let mut next = vec![0usize; streams.len()];
            for (i, s) in streams.iter().enumerate() {
                if let Some(e) = s.first() {
                    wheel.schedule(e.ts, (UeId(i as u32), Ev::Dial));
                }
            }
            while let Some((_, (id, ev))) = wheel.pop() {
                let i = id.0 as usize;
                next[i] += 1;
                if let Some(e) = streams[i].get(next[i]) {
                    wheel.schedule(e.ts, (id, ev));
                }
            }
        }
        secs(t)
    })
}

/// One block's captured entries as the step loop hands them to the
/// monitors: one chunk per event (an event's entries share its timestamp),
/// description dropped as the tap drops it, lanes interleaved in
/// simulated-time order as the kernel steps a block's lanes together. Each
/// chunk carries its lane.
fn event_chunks(streams: &[Vec<TraceEntry>]) -> Vec<(usize, Vec<TraceEntry>)> {
    let mut chunks: Vec<(usize, Vec<TraceEntry>)> = Vec::new();
    for (lane, stream) in streams.iter().enumerate() {
        for e in stream {
            let tapped = TraceEntry {
                desc: String::new(),
                ..e.clone()
            };
            match chunks.last_mut() {
                Some((l, c)) if *l == lane && c[0].ts == e.ts => c.push(tapped),
                _ => chunks.push((lane, vec![tapped])),
            }
        }
    }
    chunks.sort_by_key(|(lane, c)| (c[0].ts, *lane));
    chunks
}

/// The in-line monitors over the capture: ns per entry fed through
/// `LaneBank::feed_all` (each lane's closing `finish` included), and the
/// confirmed tallies the replay reached, per captured UE.
fn live_ns(cap: &Capture, live: &LiveConfig, end: SimTime) -> (f64, Vec<Vec<u32>>) {
    let mut tallies = Vec::new();
    let feed = ns_per_op(cap.entries(), || {
        let mut timed = 0.0;
        tallies.clear();
        for (streams, block) in cap.streams.iter().zip(&cap.blocks) {
            let mut chunks = event_chunks(streams);
            let mut banks: Vec<LaneBank> =
                block.iter().map(|u| LaneBank::new(live, u.id)).collect();
            let t = Instant::now();
            for (lane, c) in chunks.iter_mut() {
                banks[*lane].feed_all(live, c);
            }
            for b in banks.iter_mut() {
                b.finish(live, end);
            }
            timed += secs(t);
            tallies.extend(banks.into_iter().map(|b| b.into_counts().confirmed));
        }
        timed
    });
    (feed, tallies)
}

/// Per-entry cost of the post-hoc scanner over every signature, and its
/// counts per captured UE.
fn posthoc_ns(cap: &Capture, live: &LiveConfig, end: SimTime) -> (f64, Vec<Vec<u32>>) {
    let mut counts = Vec::new();
    let ns = ns_per_op(cap.entries(), || {
        let t = Instant::now();
        counts = cap
            .streams
            .iter()
            .flatten()
            .map(|s| {
                live.signatures
                    .iter()
                    .map(|sig| count_signature(sig, s, end) as u32)
                    .collect()
            })
            .collect();
        secs(t)
    });
    (ns, counts)
}

/// Rounds in a traced rep. Each round runs the workload untraced,
/// instrumented and stripped, and takes one sample of every replay; each
/// quantity's median over the rounds is kept, so a slow stretch of the host
/// lands on every quantity alike.
const ROUNDS: usize = 5;

/// One round's replay samples, ns per op.
#[derive(Default)]
struct Replays {
    wheel: Vec<f64>,
    build: Vec<f64>,
    record: Vec<f64>,
    build0: Vec<f64>,
    record0: Vec<f64>,
    kfold: Vec<f64>,
    kfold0: Vec<f64>,
    feed: Vec<f64>,
    posthoc: Vec<f64>,
}

/// A traced rep. The first [`CAPTURE`] UEs are captured with unbounded
/// traces; then, for [`ROUNDS`] rounds, the workload runs untraced (its
/// output checked), instrumented (the fold closure timed), and stripped of
/// traces and monitors (count-only traces, no monitors), and every layer
/// replay is sampled once. The ledger adds the layers up against the
/// instrumented runs' wall: the simulation's own time is what the stripped
/// runs leave after their replayed layers, and the monitors, whose in-situ
/// cost their isolated replay does not reach, are charged the in-situ
/// difference.
pub fn traced(fleet: Fleet, seed: u64, ues: usize, t_main: Instant) -> Rep {
    let cfg = config(fleet, seed, ues);
    let mut stripped = cfg.clone();
    stripped.trace_capacity = Some(0);
    stripped.live = None;
    let (sim, sim_0) = (FleetSim::new(cfg.clone()), FleetSim::new(stripped.clone()));
    let mut rep = Rep {
        setup_s: secs(t_main),
        ..Rep::default()
    };
    let timer = TimerCost::measure();
    let mut cap = Capture::new(&config(fleet, seed, CAPTURE.min(ues)));
    let end = horizon(fleet.days());
    let (mut walls_u, mut walls_t, mut walls_0) = (vec![], vec![], vec![]);
    let (mut fold_t, mut fold_0, mut r, mut last) = (vec![], vec![], Replays::default(), None);
    let (mut fed, mut scanned) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (report, acc, wall) = run(&sim, false);
        walls_u.push(wall);
        let (errs, fp) = check(fleet, seed, &cfg, &report, &acc);
        rep.fingerprint = fp;
        rep.record_op(errs);
        let (report_t, acc_t, wall) = run(&sim, true);
        walls_t.push(wall);
        fold_t.push(acc_t.fold_ns as f64 * 1e-9);
        let (mut errs, fp_t) = check(fleet, seed, &cfg, &report_t, &acc_t);
        if fp_t != rep.fingerprint {
            errs.push(format!(
                "traced run fingerprint {fp_t:?} differs from {:?}",
                rep.fingerprint
            ));
        }
        rep.record_op(errs);
        let (report_0, acc_0, wall) = run(&sim_0, true);
        walls_0.push(wall);
        fold_0.push(acc_0.fold_ns as f64 * 1e-9);
        last = Some((report, acc, report_0));

        r.wheel.push(wheel_ns_per_op(&cap));
        let (build, record) = trace_ns(&cap, &cfg);
        r.build.push(build);
        r.record.push(record);
        let (build, record) = trace_ns(&cap, &stripped);
        r.build0.push(build);
        r.record0.push(record);
        r.kfold.push(kernel_fold_ns(
            &mut cap,
            cfg.trace_capacity,
            cfg.live.as_ref(),
        ));
        r.kfold0
            .push(kernel_fold_ns(&mut cap, stripped.trace_capacity, None));
        if let Some(live) = &cfg.live {
            let (ns, tallies) = live_ns(&cap, live, end);
            r.feed.push(ns);
            fed = tallies;
            let (ns, counts) = posthoc_ns(&cap, live, end);
            r.posthoc.push(ns);
            scanned = counts;
        }
    }
    let (report, acc, report_0) = last.expect("ROUNDS > 0");
    rep.wall_s = median(&walls_u);
    rep.ops = report.total_events;
    let mut c = Checks::default();
    c.eq(
        "stripped-run events",
        report_0.total_events,
        report.total_events,
    );
    c.eq(
        "stripped-run wheel schedules",
        report_0.kernel.wheel_scheduled,
        report.kernel.wheel_scheduled,
    );
    let t = Instant::now();
    std::hint::black_box(report.digest());
    let digest_ms = secs(t) * 1e3;

    let (wall_t, wall_0) = (median(&walls_t), median(&walls_0));
    let n = acc.ues as f64;
    let events = report.total_events as f64;
    let recorded = report.agg.trace_recorded as f64;
    let (wheel_ns, rec_ns, kfold_ns) = (median(&r.wheel), median(&r.record), median(&r.kfold));
    let wheel_s = wheel_ns * 2.0 * report.kernel.wheel_scheduled as f64 * 1e-9;
    let (trace_s, trace0_s) = (
        (median(&r.build) + rec_ns) * recorded * 1e-9,
        (median(&r.build0) + median(&r.record0)) * recorded * 1e-9,
    );
    let (kfold_s, kfold0_s) = (kfold_ns * n * 1e-9, median(&r.kfold0) * n * 1e-9);
    let sim_s = wall_0 - wheel_s - trace0_s - kfold0_s - median(&fold_0);
    let mut ledger = Ledger {
        traced_wall_s: wall_t,
        untraced_wall_s: rep.wall_s,
        ..Ledger::default()
    };
    ledger.row("sim", sim_s, "residual of the stripped runs");
    ledger.row("wheel", wheel_s, "replay");
    ledger.row("trace", trace_s, "replay");
    if cfg.live.is_some() {
        let live_s = wall_t - wall_0 - (trace_s - trace0_s) - (kfold_s - kfold0_s);
        ledger.row("live", live_s, "in situ: monitors on minus off");
    }
    ledger.row("fold (kernel)", kfold_s, "replay");
    ledger.row("fold (closure)", median(&fold_t), "timed");
    ledger.row("tracing", n * timer.full, "timer calls");

    let k = &report.kernel;
    rep.layer("sim.events", "count", events);
    rep.layer("sim.ns_per_event", "ns", wall_t * 1e9 / events);
    rep.layer("sim.self_ns_per_event", "ns", sim_s * 1e9 / events);
    rep.layer("fold.ns_per_ue", "ns", kfold_ns + median(&fold_t) * 1e9 / n);
    rep.layer("digest.ms", "ms", digest_ms);
    rep.layer("wheel.scheduled", "count", k.wheel_scheduled as f64);
    rep.layer("wheel.cascades", "count", k.wheel_cascades as f64);
    rep.layer(
        "wheel.cascades_per_event",
        "ratio",
        k.wheel_cascades as f64 / events,
    );
    rep.layer("wheel.peak_len", "count", k.wheel_peak_len as f64);
    rep.layer("wheel.ns_per_op", "ns", wheel_ns);
    rep.layer("arena.bytes_per_ue", "B", k.bytes_per_ue as f64);
    rep.layer("arena.bytes_peak", "B", k.arena_bytes_peak as f64);
    rep.layer("arena.blocks", "count", k.blocks as f64);
    rep.layer("trace.entries_per_event", "ratio", recorded / events);
    rep.layer("trace.evicted", "count", report.agg.trace_evicted as f64);
    rep.layer("trace.record_ns", "ns", rec_ns);

    if let Some(live) = &cfg.live {
        for (u, (fed, scanned)) in cap.blocks.iter().flatten().zip(fed.iter().zip(&scanned)) {
            let inline = &u
                .live
                .as_ref()
                .expect("a monitored lane carries tallies")
                .confirmed;
            c.eq(
                &format!("ue {} replayed vs in-line tallies", u.id),
                fed,
                inline,
            );
            c.eq(
                &format!("ue {} post-hoc vs in-line tallies", u.id),
                scanned,
                inline,
            );
        }
        let stepped = live
            .signatures
            .iter()
            .filter(|s| !s.steps.is_empty())
            .count();
        let settles: u64 = acc.confirmed.iter().chain(&acc.refuted).sum();
        rep.layer("live.monitor_steps", "count", recorded * stepped as f64);
        rep.layer("live.settles", "count", settles as f64);
        rep.layer("live.verdicts_dropped", "count", acc.dropped as f64);
        rep.layer("live.feed_ns_per_entry", "ns", median(&r.feed));
        rep.layer(
            "live.insitu_ns_per_event",
            "ns",
            (wall_t - wall_0) * 1e9 / events,
        );
        rep.layer("posthoc.count_ns_per_entry", "ns", median(&r.posthoc));
        rep.layer("inject.faults", "count", cap.faults as f64);
    }
    rep.record_op(c.into_errs());
    rep.ledger = Some(ledger);
    rep
}
