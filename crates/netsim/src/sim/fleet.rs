//! Fleet-scale simulation: N phones against a shared carrier core.
//!
//! [`FleetSim`] runs many [`Ue`]s — each with its own seeded RNG stream,
//! behavior profile and trace log — against [`CarrierCore`]s whose
//! MSC/SGSN/MME machines are keyed per IMSI. A per-UE *scheduler* RNG
//! (separate from the UE's signaling RNG) plans each phone's days as
//! [`Activity`] lists (CSFB calls, 3G CS calls, coverage switches, power
//! cycles) and materializes them as [`Ev`] events; the shared executive in
//! `crate::sim::exec` then plays out all the signaling.
//!
//! # The million-UE kernel
//!
//! The hot path is built so memory and per-event cost are independent of
//! fleet size:
//!
//! * **Timing wheel.** Each worker steps a hierarchical
//!   [`TimingWheel`] — O(1) schedule/cancel, amortized-O(1) pop — instead
//!   of a binary heap (see [`crate::sim::wheel`]).
//! * **Block-striped lanes.** A shard processes its UEs in fixed-size
//!   blocks backed by a structure-of-arrays [`LaneArena`]
//!   ([`crate::sim::arena`]); only one block of phones is live per worker
//!   at any moment, so resident bytes scale with `threads × block`, not
//!   with the fleet.
//! * **Lazy plans.** The scheduler plans one day at a time and
//!   materializes one activity at a time (a control event leads each
//!   activity's earliest sub-event), so plans are never held whole.
//! * **Streaming report.** Finished lanes fold into a bounded
//!   [`FleetAgg`] and a labeled [`MetricsRegistry`]; the
//!   [`FleetReport`] never holds per-UE vectors. Callers that do need
//!   per-UE outcomes stream them through [`FleetSim::run_fold`].
//!
//! # Determinism under parallelism
//!
//! UEs interact with the core only through their own per-IMSI session, the
//! HSS admission check is read-only, and every random draw comes from a
//! per-UE stream seeded by `mix_seed(fleet_seed, ue_index)`. Per-UE
//! trajectories are therefore independent of how UEs are grouped into
//! blocks and shards, and every aggregate in the report folds with
//! commutative integer operations — so [`FleetReport::digest`] is
//! **byte-identical for any thread count**, the property the determinism
//! tests pin down. Kernel-health numbers that *do* depend on block
//! composition (wheel peaks, cascade counts, arena bytes) are quarantined
//! in [`KernelStats`], which the digest never includes.

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

use cellstack::{PdpDeactivationCause, RatSystem, UpdateKind};

use crate::fleetmetrics::MetricsRegistry;
use crate::inject::{Adversary, Campaign};
use crate::metrics::Metrics;
use crate::node::{CarrierCore, Ue, UeId};
use crate::operator::OperatorProfile;
use crate::rng::{rng_from_seed, sample_lognormal};
use crate::sim::agg::{FleetAgg, PlanSummary};
use crate::sim::arena::LaneArena;
use crate::sim::exec::{BlockEv, Exec};
use crate::sim::wheel::TimingWheel;
use crate::time::SimTime;
use crate::trace::{Fnv1a, TraceCollector};
use crate::verify::automaton::Signature;
use crate::verify::live::{LaneBank, LiveConfig, LiveCounts};
use crate::world::{Ev, WorldConfig};

/// Per-phone behavior rates, in events per simulated day, plus the
/// per-event probabilities the scheduler draws from. The user-study crate
/// derives these from its §7 participant population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BehaviorProfile {
    /// The phone camps on 3G only (no 4G plan).
    pub starts_on_3g: bool,
    /// CSFB voice calls per day (4G phones).
    pub csfb_calls_per_day: f64,
    /// Plain 3G CS voice calls per day (3G phones).
    pub cs_calls_per_day: f64,
    /// Coverage-driven 4G↔3G round trips per day.
    pub coverage_switches_per_day: f64,
    /// Detach/re-attach cycles per day (power off, airplane mode).
    pub power_cycles_per_day: f64,
    /// Probability a call/switch happens with an active data session.
    pub data_on_prob: f64,
    /// Probability a call is mobile-originated (vs. incoming).
    pub outgoing_call_prob: f64,
    /// Probability the network deactivates the PDP context during a 3G
    /// dwell (Table 3 causes — the S1 trigger).
    pub pdp_deactivation_prob: f64,
    /// Probability an outgoing 3G CS call races a location update (the S4
    /// trigger).
    pub lau_collision_prob: f64,
}

impl BehaviorProfile {
    /// A typical 4G subscriber (rates near the §7 study averages).
    pub fn typical_4g() -> Self {
        Self {
            starts_on_3g: false,
            csfb_calls_per_day: 1.13,
            cs_calls_per_day: 0.0,
            coverage_switches_per_day: 0.17,
            power_cycles_per_day: 0.107,
            data_on_prob: 0.65,
            outgoing_call_prob: 0.54,
            pdp_deactivation_prob: 0.031,
            lau_collision_prob: 0.076,
        }
    }

    /// A typical 3G-only subscriber.
    pub fn typical_3g() -> Self {
        Self {
            starts_on_3g: true,
            csfb_calls_per_day: 0.0,
            cs_calls_per_day: 1.30,
            coverage_switches_per_day: 0.0,
            power_cycles_per_day: 0.107,
            data_on_prob: 0.80,
            outgoing_call_prob: 0.54,
            pdp_deactivation_prob: 0.031,
            lau_collision_prob: 0.076,
        }
    }
}

/// One fleet member: which carrier it subscribes to and how it behaves.
/// The carrier's latency table is shared, not copied, so a spec is
/// 104 bytes on a 64-bit target. A fleet described per UE collects its
/// specs into a [`Roster`], never into a `Vec<UeSpec>`, so it holds each
/// distinct spec once rather than once per member.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UeSpec {
    /// Carrier profile (policies inline, latencies by reference).
    pub op: OperatorProfile,
    /// Behavior rates.
    pub behavior: BehaviorProfile,
}

/// Who is in a fleet: its distinct behavior classes, in first-seen order,
/// and the class of each member. A million UEs share a handful of
/// classes, so a roster collected from one spec per UE
/// (`(0..n).map(..).collect::<Roster>()`) costs a 2-byte class index per
/// member and never holds the specs themselves; [`Roster::uniform`] costs
/// nothing per member. Callers collect specs into a roster, never into a
/// `Vec<UeSpec>`.
#[derive(Clone, Debug)]
pub struct Roster {
    classes: Vec<UeSpec>,
    /// One index into `classes` per member; empty for a uniform roster,
    /// whose members are all class 0.
    members: Vec<u16>,
    len: usize,
}

impl Roster {
    /// `n` members, all of them `spec`.
    pub fn uniform(n: usize, spec: UeSpec) -> Self {
        Self {
            classes: vec![spec],
            members: Vec::new(),
            len: n,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the roster has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct behavior classes, in first-seen order.
    pub fn classes(&self) -> &[UeSpec] {
        &self.classes
    }

    /// The behavior class of member `i`: an index into [`Self::classes`].
    pub fn class_of(&self, i: usize) -> u16 {
        if self.members.is_empty() {
            0
        } else {
            self.members[i]
        }
    }
}

/// Collecting deduplicates as it goes: a spec equal to an earlier one
/// joins that spec's class, so class indices follow first-seen order.
impl FromIterator<UeSpec> for Roster {
    fn from_iter<I: IntoIterator<Item = UeSpec>>(specs: I) -> Self {
        let specs = specs.into_iter();
        let mut classes: Vec<UeSpec> = Vec::new();
        let mut members = Vec::with_capacity(specs.size_hint().0);
        for spec in specs {
            let class = match classes.iter().position(|c| *c == spec) {
                Some(i) => i,
                None => {
                    classes.push(spec);
                    classes.len() - 1
                }
            };
            members.push(u16::try_from(class).expect("more than 65536 behavior classes"));
        }
        Self {
            classes,
            len: members.len(),
            members,
        }
    }
}

/// Fleet run configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Fleet seed; per-UE streams are derived from it.
    pub seed: u64,
    /// Simulated days.
    pub days: u32,
    /// Worker threads (UEs are sharded round-robin). 0 or 1 = inline.
    pub threads: usize,
    /// Per-UE trace bound (`None` = unbounded, `Some(0)` = count-only).
    pub trace_capacity: Option<usize>,
    /// Retain each UE's full activity plan in its outcome (the user-study
    /// analysis wants it; the bounded-memory kernel default is off).
    pub keep_plan: bool,
    /// In-line monitoring: signatures evaluated per lane inside the step
    /// loop, verdict tallies independent of `trace_capacity`.
    pub live: Option<LiveConfig>,
    /// Fault-injection campaign applied fleet-wide. Each UE runs its own
    /// [`Adversary`] over the shared phase plan, seeded per UE, so the
    /// same outage/loss windows hit every phone with independent draws.
    pub campaign: Option<Campaign>,
    /// Model the TS 24.301 NAS retransmission timers (T3410 family) on
    /// every lane — the knob the campaign experiments flip to show
    /// retries masking injected signaling loss.
    pub nas_retx: bool,
    /// The fleet's behavior classes and each member's class.
    pub roster: Roster,
}

impl FleetConfig {
    /// Build a fleet from its roster: collect one spec per UE into a
    /// [`Roster`] (never into a `Vec<UeSpec>`), which deduplicates equal
    /// specs into shared classes. `trace_capacity` defaults to unbounded
    /// and `keep_plan` to off; set the fields directly to change them.
    pub fn new(seed: u64, days: u32, threads: usize, roster: Roster) -> Self {
        Self {
            seed,
            days,
            threads,
            trace_capacity: None,
            keep_plan: false,
            live: None,
            campaign: None,
            nas_retx: false,
            roster,
        }
    }

    /// A uniform fleet of `n` copies of `spec`.
    pub fn uniform(seed: u64, days: u32, threads: usize, n: usize, spec: UeSpec) -> Self {
        Self::new(seed, days, threads, Roster::uniform(n, spec))
    }

    /// Number of fleet members.
    pub fn n_ues(&self) -> usize {
        self.roster.len()
    }
}

/// What one scheduled activity is (with every random parameter already
/// drawn by the scheduler, so the plan itself is part of the deterministic
/// record).
#[derive(Clone, Copy, Debug)]
pub enum ActivityKind {
    /// A CSFB voice call from 4G (fallback → call → return).
    CsfbCall {
        /// A data session runs across the call.
        data_on: bool,
        /// Mobile-originated (vs. paged MT call).
        outgoing: bool,
        /// The network deactivates the PDP context mid-call.
        pdp_deact: bool,
        /// Talk time after connect, ms.
        call_ms: u64,
        /// The data session's demand while the call runs, kbps.
        demand_kbps: u64,
        /// How long the data session outlives the call, ms (drawn from
        /// the carrier's data-session lifetime — what keeps the
        /// reselection carrier stuck in 3G, Table 6).
        data_tail_ms: u64,
    },
    /// A plain 3G CS voice call.
    CsCall {
        /// A data session runs across the call.
        data_on: bool,
        /// Mobile-originated.
        outgoing: bool,
        /// `Some(offset_ms)`: a location update fires this long before
        /// the dial (the S4 race).
        lau_collision: Option<u64>,
        /// Talk time after connect, ms.
        call_ms: u64,
        /// Concurrent data demand, kbps.
        demand_kbps: u64,
    },
    /// A coverage-driven 4G→3G→4G round trip (no call).
    CoverageSwitch {
        /// A data session is active across the dwell.
        data_on: bool,
        /// The network deactivates the PDP context in 3G.
        pdp_deact: bool,
    },
    /// A detach/re-attach cycle.
    PowerCycle,
}

/// One scheduled activity for one UE.
#[derive(Clone, Copy, Debug)]
pub struct Activity {
    /// Anchor time of the activity (the dial / switch / detach moment).
    pub at: SimTime,
    /// What happens.
    pub kind: ActivityKind,
}

/// Everything one UE produced. In the streaming kernel this exists only
/// transiently — a finished lane's outcome is folded (into the report's
/// aggregate and any [`FleetSim::run_fold`] accumulator) and dropped.
pub struct UeOutcome {
    /// The UE's fleet index.
    pub id: u32,
    /// Carrier name the UE subscribed to.
    pub op_name: &'static str,
    /// Whether the UE is 3G-only.
    pub on_3g: bool,
    /// Streaming fold of the scheduler's plan (Table 5 denominators).
    pub plan: PlanSummary,
    /// The full plan — populated only under [`FleetConfig::keep_plan`].
    pub activities: Vec<Activity>,
    /// The per-UE trace stream (ring-bounded or count-only in big fleets).
    pub trace: TraceCollector,
    /// Per-UE measurements.
    pub metrics: Metrics,
    /// In-line monitoring verdict tallies (`None` when live monitoring
    /// was off for the run).
    pub live: Option<LiveCounts>,
    /// Simulation events the executive processed for this UE.
    pub events: u64,
}

impl UeOutcome {
    /// The UE's deterministic digest line: event count, plan size, hazard
    /// tallies, trace length/eviction counters and a hash of the full
    /// trace content.
    pub fn digest_line(&self) -> String {
        let mut line = String::new();
        self.write_digest_line(&mut line)
            .expect("writing to a String cannot fail");
        line
    }

    /// FNV-1a hash of [`Self::digest_line`] — the per-UE contribution to
    /// the report's order-independent digest mix. The line is hashed as it
    /// is formatted, never built.
    pub fn line_hash(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.write_digest_line(&mut h).expect("hashing cannot fail");
        h.finish()
    }

    fn write_digest_line(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "ue {:>4} {:<5} events={:<6} plan={:<3} calls={:<3} s1={} s6={} \
             detach={} blocked={} stuck={} trace_len={} evicted={} trace_fnv={:016x}",
            self.id,
            self.op_name,
            self.events,
            self.plan.total,
            self.metrics.call_setups.len(),
            self.metrics.s1_events,
            self.metrics.s6_events,
            self.metrics.detach_count,
            self.metrics.blocked_requests,
            self.metrics.stuck_in_3g_ms.len(),
            self.trace.len(),
            self.trace.evicted(),
            self.trace.content_hash(),
        )
    }
}

/// Kernel-health statistics for one fleet run. These numbers depend on
/// block composition (and therefore on the thread count), so they are
/// deliberately **not** part of [`FleetReport::digest`].
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Entries ever scheduled on the timing wheels.
    pub wheel_scheduled: u64,
    /// Entries moved down a wheel level by cascades.
    pub wheel_cascades: u64,
    /// Sum of per-shard wheel high-water marks.
    pub wheel_peak_len: usize,
    /// Lane blocks processed.
    pub blocks: u64,
    /// Distinct behavior classes.
    pub classes: usize,
    /// Peak concurrently-resident kernel bytes (arena + wheel, summed
    /// over shards).
    pub arena_bytes_peak: usize,
    /// `arena_bytes_peak` per concurrently-resident UE.
    pub bytes_per_ue: usize,
    /// Trace entries evicted by per-UE ring bounds.
    pub trace_evicted: u64,
    /// Lanes quarantined by monitor-panic containment: their automata
    /// panicked mid-feed, the lane kept simulating, and the UE's outcome
    /// is reported monitor-poisoned instead of aborting the shard.
    pub monitor_quarantined: u64,
}

impl KernelStats {
    /// One-line rendering for `repro --exp fleet`.
    pub fn summary(&self) -> String {
        format!(
            "kernel blocks={} classes={} wheel_scheduled={} wheel_cascades={} \
             wheel_peak={} arena_bytes_peak={} bytes_per_ue={} trace_evicted={} \
             monitor_quarantined={}",
            self.blocks,
            self.classes,
            self.wheel_scheduled,
            self.wheel_cascades,
            self.wheel_peak_len,
            self.arena_bytes_peak,
            self.bytes_per_ue,
            self.trace_evicted,
            self.monitor_quarantined,
        )
    }
}

/// The merged, deterministic result of a fleet run: bounded aggregates
/// only, O(1) in the fleet size.
pub struct FleetReport {
    /// Fleet seed.
    pub seed: u64,
    /// Simulated days.
    pub days: u32,
    /// Total simulation events processed across all UEs.
    pub total_events: u64,
    /// The streaming fold of every per-UE outcome.
    pub agg: FleetAgg,
    /// Kernel health (thread-count-dependent; excluded from the digest).
    pub kernel: KernelStats,
    /// The structured fleet-metrics registry (lane-derived, so
    /// thread-count-independent).
    pub metrics: MetricsRegistry,
}

impl FleetReport {
    /// A deterministic, byte-comparable digest of the whole run: the
    /// run header, the streaming aggregate (whose `mix` field is the
    /// wrapping sum of every UE's [`UeOutcome::line_hash`] — an
    /// order-independent pin on each UE's full observable record) and the
    /// metrics registry. Equal digests ⇒ the runs are observationally
    /// identical.
    pub fn digest(&self) -> String {
        let mut out = format!(
            "fleet seed={} days={} ues={} events={}\n",
            self.seed, self.days, self.agg.ues, self.total_events
        );
        out.push_str(&self.agg.summary());
        out.push_str(&self.metrics.render());
        out
    }
}

/// Derive the per-UE seed from the fleet seed and the UE index.
fn mix_seed(seed: u64, i: u32) -> u64 {
    seed ^ (u64::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The multi-UE carrier simulation.
pub struct FleetSim {
    cfg: FleetConfig,
}

/// Daily activity window: 07:00–19:00, as 24 half-hour slots.
const WINDOW_START_MS: u64 = 7 * 3_600_000;
const SLOT_MS: u64 = 1_800_000;
const SLOTS_PER_DAY: usize = 24;
/// Jitter within a slot, bounded so consecutive-slot activities can never
/// overlap (max activity span ≈ 15 min).
const JITTER_MS: u64 = 900_000;

/// Lanes per block: small enough that a block's arena and wheel stay
/// cache-resident, large enough to amortize per-block setup.
const BLOCK: usize = 64;

/// How far ahead of its anchor an activity is materialized — the largest
/// pre-anchor event offset any activity kind schedules.
const LEAD_MS: u64 = 3_000;

impl FleetSim {
    /// Build a fleet from its configuration.
    pub fn new(cfg: FleetConfig) -> Self {
        Self { cfg }
    }

    /// Run the whole fleet and return the streaming report. Same seed ⇒
    /// byte-identical [`FleetReport::digest`] at any `threads` value.
    pub fn run(&self) -> FleetReport {
        self.run_fold(|| (), |(), _| ()).0
    }

    /// Run the fleet, folding every finished UE into a per-shard
    /// accumulator as its lane completes — per-UE data is dropped right
    /// after the fold, so memory stays bounded no matter what the caller
    /// derives. Returns the report and the shard accumulators (in shard
    /// order; contents per UE are thread-count-independent, but which
    /// accumulator a UE lands in depends on sharding — order-sensitive
    /// callers should key by `UeOutcome::id`).
    pub fn run_fold<A, M, F>(&self, make: M, fold: F) -> (FleetReport, Vec<A>)
    where
        A: Send,
        M: Fn() -> A + Sync,
        F: Fn(&mut A, UeOutcome) + Sync,
    {
        let n = self.cfg.n_ues();
        let threads = self.cfg.threads.max(1).min(n.max(1));
        let horizon = SimTime::from_millis(u64::from(self.cfg.days) * 86_400_000 + 900_000);

        // One shared WorldConfig per behavior class: fleet lanes hang up
        // explicitly (scheduled), answer MT calls, and run the
        // fleet-calibrated OP-I LAU race so S6 lands at the §6.2 rate
        // instead of firing on every fast return.
        let cfgs: Vec<WorldConfig> = self
            .cfg
            .roster
            .classes()
            .iter()
            .map(|spec| {
                let mut cfg = WorldConfig::new(spec.op, self.cfg.seed);
                cfg.auto_hangup_after_ms = None;
                cfg.redirect_defers_to_lau = true;
                cfg.s6_conflict_prob = 0.015;
                cfg.trace_capacity = self.cfg.trace_capacity;
                cfg.nas_retx = self.cfg.nas_retx;
                cfg
            })
            .collect();

        let shards: Vec<ShardOut<A>> = if threads <= 1 {
            vec![run_shard(&self.cfg, &cfgs, 0, 1, horizon, &make, &fold)]
        } else {
            let fleet = &self.cfg;
            let cfgs = &cfgs;
            let make = &make;
            let fold = &fold;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            run_shard(fleet, cfgs, t as u32, threads, horizon, make, fold)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fleet shard panicked"))
                    .collect()
            })
        };

        let mut agg = FleetAgg::default();
        let mut registry = MetricsRegistry::new();
        let mut kernel = KernelStats {
            classes: cfgs.len(),
            ..KernelStats::default()
        };
        let mut total_events = 0u64;
        let mut accs = Vec::with_capacity(shards.len());
        for s in shards {
            agg.merge(&s.agg);
            registry.merge(&s.registry);
            kernel.wheel_scheduled += s.wheel_scheduled;
            kernel.wheel_cascades += s.wheel_cascades;
            kernel.wheel_peak_len += s.wheel_peak_len;
            kernel.blocks += s.blocks;
            kernel.arena_bytes_peak += s.arena_bytes_peak;
            kernel.monitor_quarantined += s.quarantined;
            total_events += s.events;
            accs.push(s.acc);
        }
        kernel.trace_evicted = agg.trace_evicted;
        let resident = n.min(threads * BLOCK).max(1);
        kernel.bytes_per_ue = kernel.arena_bytes_peak / resident;

        (
            FleetReport {
                seed: self.cfg.seed,
                days: self.cfg.days,
                total_events,
                agg,
                kernel,
                metrics: registry,
            },
            accs,
        )
    }

    /// Run the fleet and collect every per-UE outcome, ordered by UE id.
    /// O(n) memory — for tests and small studies, not million-UE runs.
    pub fn run_collect(&self) -> (FleetReport, Vec<UeOutcome>) {
        let (report, accs) = self.run_fold(Vec::new, |v: &mut Vec<UeOutcome>, u| v.push(u));
        let mut ues: Vec<UeOutcome> = accs.into_iter().flatten().collect();
        ues.sort_by_key(|u| u.id);
        (report, ues)
    }
}

/// What one shard hands back to the merge.
struct ShardOut<A> {
    agg: FleetAgg,
    registry: MetricsRegistry,
    wheel_scheduled: u64,
    wheel_cascades: u64,
    wheel_peak_len: usize,
    blocks: u64,
    arena_bytes_peak: usize,
    events: u64,
    quarantined: u64,
    acc: A,
}

/// Run shard `shard` of `threads` (round-robin membership: UE `i` belongs
/// to shard `i % threads`), block by block. The shard's UEs are its rows
/// `shard + row × threads`, walked by arithmetic, never listed.
fn run_shard<A, M, F>(
    fleet: &FleetConfig,
    cfgs: &[WorldConfig],
    shard: u32,
    threads: usize,
    horizon: SimTime,
    make: &M,
    fold: &F,
) -> ShardOut<A>
where
    M: Fn() -> A,
    F: Fn(&mut A, UeOutcome),
{
    let rows = fleet
        .n_ues()
        .saturating_sub(shard as usize)
        .div_ceil(threads);

    let mut acc = make();
    let mut agg = FleetAgg::default();
    let mut registry = MetricsRegistry::new();
    // Event-kind counters, attributed per behavior class so they flush
    // with the class's carrier label (classes are few; the array per
    // class is small and flat).
    let mut kind_counts = vec![[0u64; Ev::KIND_NAMES.len()]; cfgs.len()];
    // Lane-retirement counters, likewise per class and flushed once.
    let live = fleet.live.as_ref();
    let sigs = live.map_or(&[][..], |cfg| &cfg.signatures[..]);
    let mut tallies: Vec<ClassTally> = cfgs.iter().map(|_| ClassTally::new(sigs.len())).collect();
    let mut wheel: TimingWheel<(UeId, BlockEv)> = TimingWheel::new();
    let mut arena = LaneArena::new();
    let mut scratch: Vec<Activity> = Vec::new();
    let mut events_total = 0u64;
    let mut blocks = 0u64;
    let mut bytes_peak = 0usize;
    let mut quarantined = 0u64;

    for first_row in (0..rows).step_by(BLOCK) {
        blocks += 1;
        wheel.reset();
        arena.clear();
        // A fresh core per block: every carrier machine is keyed per IMSI
        // and blocks are disjoint, so this is observably identical to one
        // shared core — but its session table stays O(block).
        let mut carrier = CarrierCore::new();

        for row in first_row..rows.min(first_row + BLOCK) {
            let i = (shard as usize + row * threads) as u32;
            let class = fleet.roster.class_of(i as usize);
            let spec = &fleet.roster.classes()[class as usize];
            let imsi = 310_410_000_001 + u64::from(i);
            carrier.hss.provision(crate::hss::SubscriberRecord {
                imsi,
                subscription: crate::hss::Subscription::Active,
                lte_enabled: !spec.behavior.starts_on_3g,
            });
            // Seed the core session with the class's MME-side remedy
            // flag: blocks mix behavior classes on different carrier
            // profiles, so the remedy is rolled out per subscriber, not
            // per core. (Session creation order is irrelevant — the
            // table iterates in IMSI order.)
            carrier.provision_session(imsi, cfgs[class as usize].op.mme_lu_recovery);
            let mut ue = Ue::with_seed(
                UeId(i),
                imsi,
                &cfgs[class as usize],
                mix_seed(fleet.seed, i),
            );
            if let Some(campaign) = &fleet.campaign {
                // A per-UE fault stream over the shared phase plan, mixed
                // the same way the signaling seed is, so the adversary's
                // draws are independent of sharding.
                ue.adversary = Some(Adversary::with_seed(
                    campaign.clone(),
                    mix_seed(campaign.seed, i),
                ));
                // Phase-end restarts are part of the plan, scheduled up
                // front per lane.
                for (pi, end) in campaign.restart_ends() {
                    wheel.schedule(end, (UeId(i), BlockEv::Sim(Ev::FaultPhaseEnd(pi))));
                }
            }
            let bank = match live {
                Some(cfg) => {
                    ue.trace.arm_tap();
                    LaneBank::new(cfg, i)
                }
                None => LaneBank::default(),
            };
            // The scheduler RNG is a separate stream: planning draws never
            // perturb the signaling latency trajectories.
            let sched = rng_from_seed(mix_seed(fleet.seed, i) ^ 0x5EED_5CED_0DD5_EED5);
            let slot = arena.push_lane(i, class, ue, sched, spec.behavior.starts_on_3g, bank);
            let start_system = if spec.behavior.starts_on_3g {
                RatSystem::Utran3g
            } else {
                RatSystem::Lte4g
            };
            wheel.schedule(
                SimTime::from_millis(1_000),
                (UeId(i), BlockEv::Sim(Ev::PowerOn(start_system))),
            );
            refill_and_arm(fleet, &mut arena, slot, UeId(i), &mut wheel, &mut scratch);
        }

        // A block is a run of consecutive rows, so the block-local slot is
        // pure arithmetic too.
        let slot_of = |id: UeId| (id.0 - shard) as usize / threads - first_row;

        while let Some((at, (id, bev))) = wheel.pop() {
            if at > horizon {
                break;
            }
            let slot = slot_of(id);
            match bev {
                BlockEv::NextActivity => {
                    let a = arena.pending[slot]
                        .pop()
                        .expect("armed control event without a pending activity");
                    let home = if arena.on_3g[slot] {
                        RatSystem::Utran3g
                    } else {
                        RatSystem::Lte4g
                    };
                    materialize(&a, home, |at_ms, ev| {
                        wheel.schedule(SimTime::from_millis(at_ms), (id, BlockEv::Sim(ev)));
                    });
                    refill_and_arm(fleet, &mut arena, slot, id, &mut wheel, &mut scratch);
                }
                BlockEv::Sim(ev) => {
                    arena.events[slot] += 1;
                    let class = arena.class_of[slot] as usize;
                    kind_counts[class][ev.kind_index()] += 1;
                    let mut ex = Exec {
                        now: at,
                        cfg: &cfgs[class],
                        ue: &mut arena.ues[slot],
                        carrier: &mut carrier,
                        wheel: &mut wheel,
                    };
                    ex.handle(ev);
                    if let Some(cfg) = live {
                        // Drain the entries this event just traced into
                        // the lane's automata — O(1) amortized per entry,
                        // with panic containment quarantining the lane.
                        if let Some(tap) = arena.ues[slot].trace.tap_mut() {
                            if !tap.is_empty() && arena.banks[slot].feed_all(cfg, tap) {
                                quarantined += 1;
                            }
                        }
                    }
                }
            }
        }

        bytes_peak = bytes_peak.max(arena.resident_bytes() + wheel.resident_bytes());

        // Fold the finished lanes and drop them.
        let mut ues = std::mem::take(&mut arena.ues);
        let mut kept = std::mem::take(&mut arena.kept);
        let mut banks = std::mem::take(&mut arena.banks);
        for (slot, ((ue, kept_plan), mut bank)) in ues
            .drain(..)
            .zip(kept.drain(..))
            .zip(banks.drain(..))
            .enumerate()
        {
            let live_counts = live.map(|cfg| {
                // Close the lane's stream at the fleet horizon, settling
                // a final pending occurrence the way the post-hoc
                // scanner's trailing `finish` does.
                bank.finish(cfg, horizon);
                bank.into_counts()
            });
            let outcome = UeOutcome {
                id: arena.ids[slot],
                op_name: cfgs[arena.class_of[slot] as usize].op.name,
                on_3g: arena.on_3g[slot],
                plan: arena.plan_sum[slot],
                activities: kept_plan,
                trace: ue.trace,
                metrics: ue.metrics,
                live: live_counts,
                events: arena.events[slot],
            };
            events_total += outcome.events;
            tallies[arena.class_of[slot] as usize].observe(&outcome);
            registry.observe("fleet_lane_events", Vec::new(), outcome.events);
            agg.observe_ue(&outcome);
            fold(&mut acc, outcome);
        }
        // Hand the emptied (but allocated) arrays back for the next block.
        arena.ues = ues;
        arena.kept = kept;
        arena.banks = banks;
    }

    for (class, tally) in tallies.iter().enumerate() {
        tally.flush(&mut registry, cfgs[class].op.name, sigs);
    }
    for (class, counts) in kind_counts.iter().enumerate() {
        let op = cfgs[class].op.name;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                registry.count(
                    "fleet_events_total",
                    vec![
                        ("kind", Ev::KIND_NAMES[i].to_string()),
                        ("op", op.to_string()),
                    ],
                    c,
                );
            }
        }
    }

    ShardOut {
        agg,
        registry,
        wheel_scheduled: wheel.scheduled(),
        wheel_cascades: wheel.cascades(),
        wheel_peak_len: wheel.peak_len(),
        blocks,
        arena_bytes_peak: bytes_peak,
        events: events_total,
        quarantined,
        acc,
    }
}

/// One behavior class's lane-retirement counters, summed as integers per
/// retired lane and turned into labelled registry series once per shard.
/// The flush creates exactly the series a per-lane `count` would: the
/// unguarded counters whenever the class retired a lane (even at zero),
/// the guarded ones only when their sum is positive.
#[derive(Default)]
struct ClassTally {
    ues: u64,
    events: u64,
    calls: u64,
    s1: u64,
    s6: u64,
    blocked: u64,
    evicted: u64,
    /// `[confirmed, refuted]` per live signature.
    verdicts: Vec<[u64; 2]>,
    verdicts_dropped: u64,
    poisoned: u64,
}

impl ClassTally {
    fn new(n_sigs: usize) -> Self {
        Self {
            verdicts: vec![[0; 2]; n_sigs],
            ..Self::default()
        }
    }

    fn observe(&mut self, outcome: &UeOutcome) {
        self.ues += 1;
        self.events += outcome.events;
        self.calls += outcome.metrics.call_setups.len() as u64;
        self.s1 += u64::from(outcome.metrics.s1_events);
        self.s6 += u64::from(outcome.metrics.s6_events);
        self.blocked += u64::from(outcome.metrics.blocked_requests);
        self.evicted += outcome.trace.evicted();
        if let Some(counts) = &outcome.live {
            for (v, (&c, &r)) in self
                .verdicts
                .iter_mut()
                .zip(counts.confirmed.iter().zip(&counts.refuted))
            {
                v[0] += u64::from(c);
                v[1] += u64::from(r);
            }
            self.verdicts_dropped += counts.stream.dropped;
            self.poisoned += u64::from(counts.poisoned);
        }
    }

    fn flush(&self, registry: &mut MetricsRegistry, op: &str, sigs: &[Signature]) {
        if self.ues == 0 {
            return;
        }
        let op_label = || vec![("op", op.to_string())];
        registry.count("fleet_ue_total", op_label(), self.ues);
        registry.count("fleet_lane_events_total", op_label(), self.events);
        registry.count("fleet_calls_total", op_label(), self.calls);
        registry.count("fleet_s1_total", op_label(), self.s1);
        registry.count("fleet_s6_total", op_label(), self.s6);
        registry.count("fleet_blocked_total", op_label(), self.blocked);
        registry.count("fleet_trace_evicted_total", Vec::new(), self.evicted);
        // Per-lane verdict tallies are a pure function of the lane's
        // event stream, so these series are thread- and
        // trace-capacity-invariant and safe in the digest.
        for (sig, v) in sigs.iter().zip(&self.verdicts) {
            for (verdict, n) in ["confirmed", "refuted"].into_iter().zip(*v) {
                if n > 0 {
                    registry.count(
                        "fleet_verdicts_total",
                        vec![
                            ("sig", sig.name.clone()),
                            ("op", op.to_string()),
                            ("verdict", verdict.to_string()),
                        ],
                        n,
                    );
                }
            }
        }
        if self.verdicts_dropped > 0 {
            registry.count(
                "fleet_verdicts_dropped_total",
                Vec::new(),
                self.verdicts_dropped,
            );
        }
        if self.poisoned > 0 {
            registry.count("fleet_monitor_poisoned_total", op_label(), self.poisoned);
        }
    }
}

/// Top up a lane's pending-activity list (planning whole days lazily, in
/// the scheduler stream's original draw order) and arm the control event
/// for the soonest one.
fn refill_and_arm(
    fleet: &FleetConfig,
    arena: &mut LaneArena,
    slot: usize,
    id: UeId,
    wheel: &mut TimingWheel<(UeId, BlockEv)>,
    scratch: &mut Vec<Activity>,
) {
    while arena.pending[slot].is_empty() && arena.next_day[slot] < fleet.days {
        let day = arena.next_day[slot];
        arena.next_day[slot] += 1;
        let spec = &fleet.roster.classes()[arena.class_of[slot] as usize];
        scratch.clear();
        plan_day(spec, day, &mut arena.sched[slot], scratch);
        for a in scratch.iter() {
            arena.plan_sum[slot].observe(&a.kind);
        }
        if fleet.keep_plan {
            // Kept in original plan order (per-day draw order), matching
            // the pre-kernel `plan_activities` output.
            arena.kept[slot].extend_from_slice(scratch);
        }
        // Distinct half-hour slots ⇒ distinct anchors, so this sort is a
        // total order; reversed so `pop()` yields the soonest.
        scratch.sort_by_key(|a| a.at);
        let pending = &mut arena.pending[slot];
        pending.clear();
        pending.extend(scratch.iter().rev().copied());
    }
    if let Some(at) = arena.next_activity_at(slot) {
        wheel.schedule(
            SimTime::from_millis(at.as_millis() - LEAD_MS),
            (id, BlockEv::NextActivity),
        );
    }
}

/// Bernoulli-thinned daily count: 8 slots, each firing with `rate / 8` —
/// the same thinning the pre-fleet study used, so daily totals keep the
/// §7 event-rate calibration.
fn draw_count(rng: &mut StdRng, rate: f64) -> u32 {
    let p = (rate / 8.0).clamp(0.0, 1.0);
    (0..8).filter(|_| rng.gen::<f64>() < p).count() as u32
}

/// Plan one of a UE's days into `out`. Every random parameter an activity
/// needs is drawn here, from the scheduler stream, in a fixed order (the
/// same order the pre-kernel all-days planner used).
fn plan_day(spec: &UeSpec, day: u32, rng: &mut StdRng, out: &mut Vec<Activity>) {
    let b = &spec.behavior;
    let base = u64::from(day) * 86_400_000 + WINDOW_START_MS;
    let n_csfb = draw_count(rng, b.csfb_calls_per_day);
    let n_cs = draw_count(rng, b.cs_calls_per_day);
    let n_cov = draw_count(rng, b.coverage_switches_per_day);
    let n_pwr = draw_count(rng, b.power_cycles_per_day);
    let mut slots: Vec<u64> = (0..SLOTS_PER_DAY as u64).collect();
    let mut take_slot = |rng: &mut StdRng| -> Option<u64> {
        if slots.is_empty() {
            return None;
        }
        let j = rng.gen_range(0..slots.len());
        Some(slots.swap_remove(j))
    };
    for _ in 0..n_csfb {
        let Some(slot) = take_slot(rng) else { break };
        let at = SimTime::from_millis(base + slot * SLOT_MS + rng.gen_range(0..JITTER_MS));
        let data_on = rng.gen::<f64>() < b.data_on_prob;
        let outgoing = rng.gen::<f64>() < b.outgoing_call_prob;
        let pdp_deact = data_on && rng.gen::<f64>() < b.pdp_deactivation_prob;
        let call_ms = call_duration(rng);
        let demand_kbps = demand(rng);
        let data_tail_ms = spec.op.latencies.data_session_lifetime.sample_ms(rng);
        out.push(Activity {
            at,
            kind: ActivityKind::CsfbCall {
                data_on,
                outgoing,
                pdp_deact,
                call_ms,
                demand_kbps,
                data_tail_ms,
            },
        });
    }
    for _ in 0..n_cs {
        let Some(slot) = take_slot(rng) else { break };
        let at = SimTime::from_millis(base + slot * SLOT_MS + rng.gen_range(0..JITTER_MS));
        let data_on = rng.gen::<f64>() < b.data_on_prob;
        let outgoing = rng.gen::<f64>() < b.outgoing_call_prob;
        let lau_collision = if outgoing && rng.gen::<f64>() < b.lau_collision_prob {
            Some(rng.gen_range(1..1_200))
        } else {
            None
        };
        let call_ms = call_duration(rng);
        let demand_kbps = demand(rng);
        out.push(Activity {
            at,
            kind: ActivityKind::CsCall {
                data_on,
                outgoing,
                lau_collision,
                call_ms,
                demand_kbps,
            },
        });
    }
    for _ in 0..n_cov {
        let Some(slot) = take_slot(rng) else { break };
        let at = SimTime::from_millis(base + slot * SLOT_MS + rng.gen_range(0..JITTER_MS));
        let data_on = rng.gen::<f64>() < b.data_on_prob;
        let pdp_deact = data_on && rng.gen::<f64>() < b.pdp_deactivation_prob;
        out.push(Activity {
            at,
            kind: ActivityKind::CoverageSwitch { data_on, pdp_deact },
        });
    }
    for _ in 0..n_pwr {
        let Some(slot) = take_slot(rng) else { break };
        let at = SimTime::from_millis(base + slot * SLOT_MS + rng.gen_range(0..JITTER_MS));
        out.push(Activity {
            at,
            kind: ActivityKind::PowerCycle,
        });
    }
}

/// Talk time after connect: log-normal around ≈49 s, clamped to 10–480 s.
fn call_duration(rng: &mut StdRng) -> u64 {
    (sample_lognormal(rng, 10.8, 0.7).round().max(0.0) as u64).clamp(10_000, 480_000)
}

/// Concurrent data demand, kbps: log-normal around ≈25 kbps (light
/// background traffic with a heavy tail — §7: 109/113 affected calls
/// moved < 550 KB, max 18.5 MB), clamped to 8–2000.
fn demand(rng: &mut StdRng) -> u64 {
    (sample_lognormal(rng, 3.2, 1.0).round().max(0.0) as u64).clamp(8, 2_000)
}

/// Turn one planned activity into scheduled events for its UE.
fn materialize<F: FnMut(u64, Ev)>(a: &Activity, home: RatSystem, mut sched: F) {
    let t = a.at.as_millis();
    match a.kind {
        ActivityKind::CsfbCall {
            data_on,
            outgoing,
            pdp_deact,
            call_ms,
            data_tail_ms,
            ..
        } => {
            if data_on {
                sched(t - 2_000, Ev::DataStart { high_rate: true });
            }
            sched(t, if outgoing { Ev::Dial } else { Ev::IncomingCall });
            if pdp_deact {
                sched(
                    t + 6_000,
                    Ev::NetworkDeactivatePdp(PdpDeactivationCause::OperatorDeterminedBarring),
                );
            }
            if data_on {
                sched(t + 20_000, Ev::SpeedtestSample { uplink: false });
                sched(t + 20_500, Ev::SpeedtestSample { uplink: true });
            }
            let hangup = t + 15_000 + call_ms;
            sched(hangup, Ev::Hangup);
            if data_on {
                // The data session outlives the call (what keeps the
                // reselection carrier stuck in 3G — S3); the tail is
                // bounded so it drains well before the next slot.
                sched(hangup + data_tail_ms, Ev::DataSessionEnd);
            }
        }
        ActivityKind::CsCall {
            data_on,
            outgoing,
            lau_collision,
            call_ms,
            ..
        } => {
            if data_on {
                sched(t - 3_000, Ev::DataStart { high_rate: false });
            }
            if let Some(off) = lau_collision {
                sched(t - off, Ev::TriggerUpdate(UpdateKind::LocationArea));
            }
            sched(t, if outgoing { Ev::Dial } else { Ev::IncomingCall });
            if data_on {
                sched(t + 20_000, Ev::SpeedtestSample { uplink: false });
                sched(t + 20_500, Ev::SpeedtestSample { uplink: true });
            }
            let hangup = t + 15_000 + call_ms;
            sched(hangup, Ev::Hangup);
            if data_on {
                sched(hangup + 5_000, Ev::DataSessionEnd);
            }
        }
        ActivityKind::CoverageSwitch { data_on, pdp_deact } => {
            if data_on {
                sched(t - 2_000, Ev::DataStart { high_rate: false });
            }
            sched(t, Ev::CoverageEnter3g);
            if pdp_deact {
                sched(
                    t + 10_000,
                    Ev::NetworkDeactivatePdp(PdpDeactivationCause::IncompatiblePdpContext),
                );
            }
            sched(t + 60_000, Ev::CoverageReturn4g);
            if data_on {
                sched(t + 90_000, Ev::DataSessionEnd);
            }
        }
        ActivityKind::PowerCycle => {
            sched(t, Ev::Detach);
            sched(t + 20_000, Ev::PowerOn(home));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{op_i, op_ii};

    fn small_specs() -> [UeSpec; 3] {
        [
            UeSpec {
                op: op_i(),
                behavior: BehaviorProfile::typical_4g(),
            },
            UeSpec {
                op: op_ii(),
                behavior: BehaviorProfile::typical_4g(),
            },
            UeSpec {
                op: op_i(),
                behavior: BehaviorProfile::typical_3g(),
            },
        ]
    }

    fn small_roster() -> Roster {
        small_specs().into_iter().collect()
    }

    fn small_fleet(threads: usize) -> (FleetReport, Vec<UeOutcome>) {
        FleetSim::new(FleetConfig::new(2014, 2, threads, small_roster())).run_collect()
    }

    #[test]
    fn fleet_runs_and_produces_calls() {
        let (r, ues) = small_fleet(1);
        assert_eq!(r.agg.ues, 3);
        assert_eq!(ues.len(), 3);
        assert!(r.total_events > 0);
        assert!(
            r.agg.calls >= 1,
            "two days of three phones must produce calls"
        );
        // Each UE has its own trace stream.
        assert!(ues.iter().all(|u| !u.trace.is_empty()));
        // The registry counted every processed event by (kind, carrier).
        let by_kind: u64 = r
            .metrics
            .snapshot()
            .samples
            .iter()
            .filter(|s| s.name == "fleet_events_total")
            .map(|s| s.value)
            .sum();
        assert_eq!(by_kind, r.total_events);
        assert!(
            r.metrics
                .counter(
                    "fleet_events_total",
                    vec![("kind", "dial".to_string()), ("op", "OP-I".to_string())]
                )
                .is_some(),
            "kind counters carry the carrier label"
        );
    }

    #[test]
    fn sharding_does_not_change_outcomes() {
        let a = small_fleet(1).0.digest();
        let b = small_fleet(2).0.digest();
        let c = small_fleet(3).0.digest();
        assert_eq!(a, b, "1 vs 2 threads");
        assert_eq!(a, c, "1 vs 3 threads");
    }

    #[test]
    fn per_ue_streams_differ() {
        let (_, ues) = small_fleet(1);
        assert_ne!(
            ues[0].trace.to_jsonl(),
            ues[1].trace.to_jsonl(),
            "different UEs see different trajectories"
        );
    }

    #[test]
    fn line_hash_streams_exactly_the_digest_line() {
        use std::fmt::Write as _;
        let fnv = |s: &str| {
            let mut h = Fnv1a::default();
            h.write_str(s).unwrap();
            h.finish()
        };
        let (_, ues) = small_fleet(1);
        for u in &ues {
            let line = u.digest_line();
            assert!(line.ends_with(&format!("trace_fnv={:016x}", fnv(&u.trace.to_jsonl()))));
            assert_eq!(u.line_hash(), fnv(&line));
        }
    }

    #[test]
    fn config_dedupes_equal_specs_into_classes() {
        // Two more OP-I variants that share OP-I's latency table: the §8
        // rollout, and the switch-mechanism edit `figure7_drive` makes.
        let mut reselecting = op_i();
        reselecting.switch_mechanism = cellstack::SwitchMechanism::CellReselection;
        let variants = [op_i().remedied(), reselecting].map(|op| UeSpec {
            op,
            behavior: BehaviorProfile::typical_4g(),
        });
        let roster: Roster = small_specs()
            .into_iter()
            .chain(small_specs())
            .chain(variants)
            .collect();
        assert_eq!(
            roster.classes().len(),
            5,
            "eight specs, five distinct classes"
        );
        assert_eq!(roster.len(), 8);
        assert_eq!(roster.class_of(0), roster.class_of(3));
        assert_eq!(roster.class_of(2), roster.class_of(5));
        assert_ne!(roster.class_of(6), roster.class_of(0), "remedied OP-I");
        assert_ne!(roster.class_of(7), roster.class_of(0), "reselecting OP-I");
        assert_ne!(roster.class_of(6), roster.class_of(7));

        let uniform = Roster::uniform(BLOCK + 7, small_specs()[1]);
        assert_eq!(uniform.classes(), &small_specs()[1..2]);
        assert_eq!(uniform.len(), BLOCK + 7);
        assert!((0..uniform.len()).all(|i| uniform.class_of(i) == 0));
    }

    #[test]
    fn keep_plan_retains_activities_and_matches_the_summary() {
        let mut cfg = FleetConfig::new(2014, 2, 1, small_roster());
        cfg.keep_plan = true;
        let (_, ues) = FleetSim::new(cfg).run_collect();
        for u in &ues {
            assert_eq!(u.activities.len() as u64, u.plan.total);
        }
        // Default: plans are folded, not kept.
        let (_, lean) = small_fleet(1);
        assert!(lean.iter().all(|u| u.activities.is_empty()));
        assert_eq!(
            lean.iter().map(|u| u.plan.total).sum::<u64>(),
            ues.iter().map(|u| u.plan.total).sum::<u64>(),
        );
    }

    #[test]
    fn count_only_traces_keep_the_digest_thread_stable() {
        let run = |threads| {
            let mut cfg = FleetConfig::new(777, 2, threads, small_roster());
            cfg.trace_capacity = Some(0);
            FleetSim::new(cfg).run_collect()
        };
        let (r1, ues) = run(1);
        let (r3, _) = run(3);
        assert_eq!(r1.digest(), r3.digest());
        assert!(ues.iter().all(|u| u.trace.is_empty()));
        assert!(r1.agg.trace_evicted > 0, "count-only mode still counts");
    }

    #[test]
    fn live_counts_survive_eviction_and_match_the_posthoc_scan() {
        use crate::trace::CallPhase;
        use crate::verify::live::LiveConfig;
        use crate::verify::pattern::Pattern;
        use crate::verify::runner::count_signature;
        use crate::verify::Signature;

        let sig = Signature::new("call-episode")
            .step("connected", Pattern::call(CallPhase::Connected))
            .step("released", Pattern::call(CallPhase::Released));
        let horizon = SimTime::from_millis(2 * 86_400_000 + 900_000);

        let run = |capacity: Option<usize>| {
            let mut cfg = FleetConfig::new(2014, 2, 2, small_roster());
            cfg.trace_capacity = capacity;
            cfg.live = Some(LiveConfig::new(vec![sig.clone()]));
            FleetSim::new(cfg).run_collect()
        };

        // Unbounded traces: the post-hoc scan is the oracle.
        let (_, full) = run(None);
        let mut total = 0u32;
        for u in &full {
            let live = u.live.as_ref().expect("live monitoring on");
            assert_eq!(
                live.confirmed[0] as usize,
                count_signature(&sig, u.trace.entries(), horizon),
                "ue {}: in-line vs post-hoc",
                u.id
            );
            total += live.confirmed[0];
        }
        assert!(total > 0, "two days of calls must confirm episodes");

        // Ring-bounded and count-only traces: the scan has nothing left
        // to see, the in-line tallies are unchanged.
        for capacity in [Some(4), Some(0)] {
            let (_, bounded) = run(capacity);
            for (u, f) in bounded.iter().zip(full.iter()) {
                assert_eq!(
                    u.live.as_ref().unwrap().confirmed,
                    f.live.as_ref().unwrap().confirmed,
                    "ue {} at capacity {capacity:?}",
                    u.id
                );
            }
        }
    }

    #[test]
    fn poisoned_lane_is_quarantined_not_fatal() {
        use crate::verify::live::LiveConfig;

        let mut live = LiveConfig::new(vec![]);
        live.poison_ues = vec![1];
        let mut cfg = FleetConfig::new(2014, 1, 2, small_roster());
        cfg.live = Some(live);
        let (r, ues) = FleetSim::new(cfg).run_collect();
        assert_eq!(r.kernel.monitor_quarantined, 1);
        assert!(ues[1].live.as_ref().unwrap().poisoned);
        assert!(!ues[0].live.as_ref().unwrap().poisoned);
        assert!(!ues[2].live.as_ref().unwrap().poisoned);
        assert_eq!(
            r.metrics.counter(
                "fleet_monitor_poisoned_total",
                vec![("op", ues[1].op_name.to_string())]
            ),
            Some(1),
            "poisoning is a reported outcome, not a shard abort"
        );
        // The poisoned lane still simulated to completion.
        assert!(ues[1].events > 0);
    }

    #[test]
    fn campaign_gives_each_ue_its_own_fault_stream() {
        use crate::inject::{Campaign, FaultPhase, FaultPolicy, PolicyRule};

        let campaign = Campaign::new("lossy", 99).with_phase(FaultPhase::new(
            "lossy-all",
            1_000,
            86_400_000,
            vec![PolicyRule::any(FaultPolicy::dropping(0.3))],
        ));
        let mut cfg = FleetConfig::new(2014, 1, 1, small_roster());
        cfg.campaign = Some(campaign.clone());
        let (_, ues) = FleetSim::new(cfg).run_collect();
        assert!(
            ues.iter().any(|u| u.trace.faults().count() > 0),
            "a 30% drop campaign must injure someone"
        );

        // Same campaign, different thread counts: byte-identical.
        let run = |threads| {
            let mut cfg = FleetConfig::new(2014, 1, threads, small_roster());
            cfg.campaign = Some(campaign.clone());
            FleetSim::new(cfg).run().digest()
        };
        assert_eq!(run(1), run(3), "campaign fleets stay thread-invariant");
    }

    #[test]
    fn blocks_cover_fleets_larger_than_one_block() {
        let spec = UeSpec {
            op: op_ii(),
            behavior: BehaviorProfile::typical_4g(),
        };
        let mut cfg = FleetConfig::uniform(42, 1, 2, BLOCK + 7, spec);
        cfg.trace_capacity = Some(8);
        let (r, ues) = FleetSim::new(cfg).run_collect();
        assert_eq!(r.agg.ues as usize, BLOCK + 7);
        assert_eq!(ues.len(), BLOCK + 7);
        assert!(r.kernel.blocks >= 2, "must have split into blocks");
        assert!(r.kernel.bytes_per_ue > 0);
        let ids: Vec<u32> = ues.iter().map(|u| u.id).collect();
        assert_eq!(ids, (0..(BLOCK + 7) as u32).collect::<Vec<_>>());
    }
}
