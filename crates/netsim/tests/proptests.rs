//! Property-based tests for the simulator substrate: the timing wheel, the
//! distribution toolbox, the radio model, and whole-world determinism.

use std::collections::BTreeMap;

use proptest::prelude::*;

use netsim::rng::{rng_from_seed, DurationDist};
use netsim::{achievable_kbps, ChannelConfig, Injection, PathLoss, Rssi, SimTime, TimingWheel};

// ---------------------------------------------------------------------
// Timing wheel ≡ reference queue
// ---------------------------------------------------------------------

/// The reference event queue: entries keyed by `(time, insertion seq)`,
/// so iteration order *is* the determinism contract every simulation
/// relies on — earliest time first, ties in insertion order.
struct RefQueue<E> {
    entries: BTreeMap<(u64, u64), E>,
    next_seq: u64,
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) -> (u64, u64) {
        let key = (at.as_millis(), self.next_seq);
        self.next_seq += 1;
        self.entries.insert(key, payload);
        key
    }

    fn cancel(&mut self, key: (u64, u64)) -> bool {
        self.entries.remove(&key).is_some()
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let ((at, _), payload) = self.entries.pop_first()?;
        Some((SimTime::from_millis(at), payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.entries
            .keys()
            .next()
            .map(|&(at, _)| SimTime::from_millis(at))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One step of a random wheel workload.
#[derive(Clone, Copy, Debug)]
enum WheelOp {
    /// Schedule `delta` ms after the cursor (saturating at `u64::MAX`).
    After(u64),
    /// Schedule `back` ms before `u64::MAX`, or at the cursor if later.
    BelowMax(u64),
    Pop,
    /// Cancel handle `i % n` of the `n` taken so far, popped or not.
    Cancel(usize),
    Peek,
}

/// Wheel levels: 11 groups of 6 bits cover a `u64` millisecond.
const WHEEL_LEVELS: u32 = 11;

/// Schedules make up about half the steps. A delta drawn anywhere in one
/// level's span mostly lands alone in its slot; a small multiple of that
/// level's slot width mostly lands beside an earlier one.
fn wheel_op() -> impl Strategy<Value = WheelOp> {
    (0u32..32, 0u32..WHEEL_LEVELS, any::<u64>()).prop_map(|(kind, level, r)| {
        let bits = 6 * (level + 1);
        match kind {
            0..=7 => WheelOp::After(if bits >= 64 { r } else { r & ((1 << bits) - 1) }),
            8..=12 => WheelOp::After((r % 4) << (6 * level)),
            13 => WheelOp::After(0),
            14 => WheelOp::BelowMax(r % 4),
            15..=22 => WheelOp::Pop,
            23..=27 => WheelOp::Cancel(r as usize),
            _ => WheelOp::Peek,
        }
    })
}

proptest! {
    /// For any schedule + cancellation pattern, the hierarchical timing
    /// wheel pops the exact (time, payload) sequence of the reference
    /// queue on the executive's contract (no scheduling into the past).
    /// Half the times are drawn from the whole `u64` range, so the wheel's
    /// top levels are exercised too.
    #[test]
    fn wheel_pops_exactly_like_the_heap_queue(
        times in proptest::collection::vec(
            prop_oneof![0u64..700_000, any::<u64>()],
            0..200,
        ),
        cancel in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut q = RefQueue::new();
        let mut w: TimingWheel<usize> = TimingWheel::new();
        let mut qh = Vec::new();
        let mut wh = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_millis(t);
            qh.push(q.schedule(at, i));
            wh.push(w.schedule(at, i));
            if *cancel.get(i).unwrap_or(&false) && i > 0 {
                let j = (t % i as u64) as usize; // deterministic earlier victim
                prop_assert_eq!(q.cancel(qh[j]), w.cancel(wh[j]), "cancel {j}");
                // Double-cancel must agree too (both report failure).
                prop_assert_eq!(q.cancel(qh[j]), w.cancel(wh[j]));
            }
        }
        prop_assert_eq!(q.len(), w.len());
        loop {
            let a = q.pop();
            let b = w.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Interleaved schedule/pop batches (always scheduling at or after
    /// the current cursor, as the executive does) stay identical.
    #[test]
    fn wheel_matches_heap_across_interleaved_batches(
        batch1 in proptest::collection::vec(0u64..100_000, 1..80),
        batch2 in proptest::collection::vec(0u64..100_000, 0..80),
    ) {
        let mut q = RefQueue::new();
        let mut w: TimingWheel<u64> = TimingWheel::new();
        for (i, &t) in batch1.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i as u64);
            w.schedule(SimTime::from_millis(t), i as u64);
        }
        let mut now = SimTime::ZERO;
        for _ in 0..batch1.len() / 2 {
            let a = q.pop();
            let b = w.pop();
            prop_assert_eq!(a, b);
            if let Some((t, _)) = a {
                now = t;
            }
        }
        // Second wave lands relative to the current cursor.
        for (i, &dt) in batch2.iter().enumerate() {
            let at = SimTime::from_millis(now.as_millis() + dt);
            q.schedule(at, 1_000 + i as u64);
            w.schedule(at, 1_000 + i as u64);
        }
        loop {
            let a = q.pop();
            let b = w.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// One random interleaving of schedule, pop, cancel and peek, so
    /// entries are scheduled and cancelled right after every kind of
    /// cursor jump, at every level, alone in their slot or shared, up to
    /// `u64::MAX`. Every result and the length after every step match the
    /// reference queue, and `peek_time` matches its first key before every
    /// pop.
    #[test]
    fn wheel_matches_heap_under_random_interleavings(
        ops in proptest::collection::vec(wheel_op(), 0..400),
    ) {
        let mut q = RefQueue::new();
        let mut w: TimingWheel<usize> = TimingWheel::new();
        let mut handles = Vec::new();
        let mut now = 0u64;
        for (i, &op) in ops.iter().enumerate() {
            match op {
                WheelOp::After(delta) => {
                    let at = SimTime::from_millis(now.saturating_add(delta));
                    handles.push((q.schedule(at, i), w.schedule(at, i)));
                }
                WheelOp::BelowMax(back) => {
                    let at = SimTime::from_millis((u64::MAX - back).max(now));
                    handles.push((q.schedule(at, i), w.schedule(at, i)));
                }
                WheelOp::Pop => {
                    prop_assert_eq!(q.peek_time(), w.peek_time(), "peek before pop {i}");
                    let popped = q.pop();
                    prop_assert_eq!(popped, w.pop(), "pop {i}");
                    if let Some((at, _)) = popped {
                        now = at.as_millis();
                    }
                }
                WheelOp::Cancel(k) if !handles.is_empty() => {
                    let (key, handle) = handles[k % handles.len()];
                    prop_assert_eq!(q.cancel(key), w.cancel(handle), "cancel {i}");
                }
                WheelOp::Cancel(_) => {}
                WheelOp::Peek => {
                    prop_assert_eq!(q.peek_time(), w.peek_time(), "peek {i}");
                }
            }
            prop_assert_eq!(q.len(), w.len(), "len after {i}");
        }
    }
}

// ---------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------

proptest! {
    /// Every distribution respects its clamps for arbitrary parameters.
    #[test]
    fn duration_dists_respect_bounds(
        seed in any::<u64>(),
        mean in 1.0f64..10_000.0,
        sd in 0.0f64..5_000.0,
        lo in 0u64..1_000,
        span in 1u64..10_000,
    ) {
        let mut rng = rng_from_seed(seed);
        let hi = lo + span;
        let dists = [
            DurationDist::Fixed(lo),
            DurationDist::Uniform { lo, hi },
            DurationDist::Normal { mean_ms: mean, sd_ms: sd, min_ms: lo, max_ms: hi },
            DurationDist::LogNormal { mu: mean.ln(), sigma: 0.7, min_ms: lo, max_ms: hi },
        ];
        for d in dists {
            for _ in 0..50 {
                let v = d.sample_ms(&mut rng);
                prop_assert!(v >= lo.min(hi) && v <= hi, "{d:?} -> {v}");
            }
        }
    }

    /// Injection drop rates 0 and 1 behave exactly.
    #[test]
    fn injection_extremes(seed in any::<u64>()) {
        let mut rng = rng_from_seed(seed);
        prop_assert_eq!(Injection::none().fate(&mut rng), netsim::Fate::Deliver);
        prop_assert_eq!(Injection::dropping(1.0).fate(&mut rng), netsim::Fate::Drop);
    }
}

// ---------------------------------------------------------------------
// Radio model monotonicity
// ---------------------------------------------------------------------

proptest! {
    /// RSSI is monotonically nonincreasing in distance.
    #[test]
    fn rssi_monotone_in_distance(d1 in 1.0f64..20_000.0, d2 in 1.0f64..20_000.0) {
        let pl = PathLoss::default();
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(pl.rssi_at(near).0 >= pl.rssi_at(far).0);
    }

    /// Achievable rate is monotone in RSSI and never negative; the coupled
    /// call configuration never beats the call-free one.
    #[test]
    fn rate_monotone_and_coupling_costs(
        rssi_a in -130.0f64..-40.0,
        rssi_b in -130.0f64..-40.0,
        hour in 0u32..24,
        uplink in any::<bool>(),
        aggressive in any::<bool>(),
    ) {
        let free = ChannelConfig {
            modulation: cellstack::Modulation::Qam64,
            cs_sharing: false,
            decoupled: false,
        };
        let coupled = ChannelConfig {
            modulation: cellstack::Modulation::Qam16,
            cs_sharing: true,
            decoupled: false,
        };
        let (hi, lo) = if rssi_a >= rssi_b { (rssi_a, rssi_b) } else { (rssi_b, rssi_a) };
        let r_hi = achievable_kbps(free, uplink, Rssi(hi), hour, aggressive);
        let r_lo = achievable_kbps(free, uplink, Rssi(lo), hour, aggressive);
        prop_assert!(r_hi >= r_lo);
        prop_assert!(r_lo > 0.0);
        let r_coupled = achievable_kbps(coupled, uplink, Rssi(hi), hour, aggressive);
        prop_assert!(r_coupled < r_hi, "a shared call never speeds data up");
    }
}

// ---------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------

proptest! {
    /// hh:mm:ss.mmm formatting is faithful.
    #[test]
    fn simtime_formatting_faithful(ms in 0u64..86_400_000) {
        let t = SimTime::from_millis(ms);
        let s = t.hhmmss();
        let parts: Vec<&str> = s.split(&[':', '.'][..]).collect();
        prop_assert_eq!(parts.len(), 4);
        let h: u64 = parts[0].parse().unwrap();
        let m: u64 = parts[1].parse().unwrap();
        let sec: u64 = parts[2].parse().unwrap();
        let milli: u64 = parts[3].parse().unwrap();
        prop_assert_eq!(((h * 60 + m) * 60 + sec) * 1_000 + milli, ms);
        prop_assert!(m < 60 && sec < 60 && milli < 1_000);
    }

    /// since() is the inverse of plus on the happy path, and saturates.
    #[test]
    fn simtime_arithmetic(a in 0u64..1_000_000, d in 0u64..1_000_000) {
        let t = SimTime::from_millis(a);
        prop_assert_eq!(t.plus_millis(d).since(t), d);
        prop_assert_eq!(t.since(t.plus_millis(d + 1)), 0);
    }
}

// ---------------------------------------------------------------------
// Whole-world determinism for arbitrary scenario schedules
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two worlds with the same seed and the same (arbitrary) scenario are
    /// bit-identical in their metrics and traces.
    #[test]
    fn world_is_deterministic(
        seed in any::<u64>(),
        dial_at in 1u64..30_000,
        data_at in 1u64..30_000,
        deact_at in 1u64..60_000,
        hangup_after in 5_000u64..30_000,
    ) {
        use cellstack::{PdpDeactivationCause, RatSystem};
        use netsim::{op_ii, Ev, World, WorldConfig};
        let run = || {
            let mut w = World::new(WorldConfig::new(op_ii(), seed));
            w.cfg.auto_hangup_after_ms = Some(hangup_after);
            w.schedule_in(0, Ev::PowerOn(RatSystem::Lte4g));
            w.schedule_in(dial_at + 8_000, Ev::Dial);
            w.schedule_in(data_at + 8_000, Ev::DataStart { high_rate: true });
            w.schedule_in(
                deact_at + 8_000,
                Ev::NetworkDeactivatePdp(PdpDeactivationCause::RegularDeactivation),
            );
            w.schedule_in(120_000, Ev::DataSessionEnd);
            w.run_until(SimTime::from_secs(400));
            (
                w.metrics.detach_count,
                w.metrics.call_setups.len(),
                w.metrics.stuck_in_3g_ms.clone(),
                w.trace.len(),
                w.stack.serving,
            )
        };
        prop_assert_eq!(run(), run());
    }
}
