//! `Timed<M>`: a [`Model`] wrapper that times the calls the checker makes
//! into the model, from outside the checker.
//!
//! The checker has no spans of its own; wrapping the model is the one
//! boundary the benchmark can time without touching `mck`. Every call is
//! counted, and one call in [`SAMPLE`] is timed: timing all of them would
//! cost more than the ~10–100 ns calls being measured.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use mck::{Model, Property};

/// One call in `SAMPLE` is timed.
pub const SAMPLE: u64 = 16;

/// Call count and sampled nanoseconds of one timed boundary.
///
/// The counters are atomics because `Checker::run` requires `M: Sync`, but
/// they are updated with plain loads and stores: the sequential engines
/// the benchmark runs never call a model from two threads.
#[derive(Default)]
pub struct Counter {
    calls: AtomicU64,
    sampled: AtomicU64,
    ns: AtomicU64,
}

fn bump(a: &AtomicU64, by: u64) {
    a.store(a.load(Relaxed) + by, Relaxed);
}

impl Counter {
    /// Count a call; `true` when this call is one of the timed sample.
    fn tick(&self) -> bool {
        let n = self.calls.load(Relaxed);
        self.calls.store(n + 1, Relaxed);
        n.is_multiple_of(SAMPLE)
    }

    fn add(&self, since: Instant) {
        bump(&self.ns, since.elapsed().as_nanos() as u64);
        bump(&self.sampled, 1);
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Calls timed.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Relaxed)
    }

    /// Mean measured nanoseconds per timed call (0 before the first), the
    /// timer's own share included.
    pub fn ns_per_call(&self) -> f64 {
        self.ns.load(Relaxed) as f64 / self.sampled().max(1) as f64
    }
}

/// The timed boundaries of one wrapped model.
#[derive(Default)]
pub struct ModelTimes {
    /// `Model::actions`.
    pub actions: Counter,
    /// `Model::next_state`.
    pub next_state: Counter,
    /// `Model::components` (store inserts and frontier spill both call it).
    pub components: Counter,
    /// `Model::reassemble` (frontier segments read back from disk).
    pub reassemble: Counter,
    /// Every property condition the engine evaluates.
    pub props: Counter,
}

impl ModelTimes {
    /// The boundaries with their layer names.
    pub fn boundaries(&self) -> [(&'static str, &Counter); 5] {
        [
            ("actions", &self.actions),
            ("next_state", &self.next_state),
            ("components", &self.components),
            ("reassemble", &self.reassemble),
            ("props", &self.props),
        ]
    }
}

/// A model whose trait methods are counted, and sampled for time, on the
/// way through.
pub struct Timed<M> {
    inner: M,
    times: Arc<ModelTimes>,
}

impl<M: Model> Timed<M> {
    /// Wrap `inner`; read the counters through the returned handle.
    pub fn new(inner: M) -> (Self, Arc<ModelTimes>) {
        let times = Arc::new(ModelTimes::default());
        let timed = Self {
            inner,
            times: Arc::clone(&times),
        };
        (timed, times)
    }
}

/// What the benchmark's own timing costs, seconds per call.
#[derive(Clone, Copy, Debug)]
pub struct TimerCost {
    /// A timed call's whole overhead: two clock reads and the counter adds.
    pub full: f64,
    /// The part of `full` that falls inside the measured interval; timed
    /// layer self times are reported with it subtracted.
    pub inside: f64,
    /// An untimed call's overhead: the sampling tick alone.
    pub tick: f64,
}

impl TimerCost {
    /// Measure on this host, now.
    pub fn measure() -> Self {
        const N: u32 = 200_000;
        let c = Counter::default();
        let t = Instant::now();
        for _ in 0..N {
            c.add(Instant::now());
        }
        let full = t.elapsed().as_secs_f64() / f64::from(N);
        let inside = c.ns_per_call() * 1e-9;
        let t = Instant::now();
        for _ in 0..N {
            std::hint::black_box(c.tick());
        }
        let tick = t.elapsed().as_secs_f64() / f64::from(N);
        Self { full, inside, tick }
    }

    /// Overhead of a wrapped model's counting and sampled timing, seconds.
    pub fn of(&self, times: &ModelTimes) -> f64 {
        times
            .boundaries()
            .iter()
            .map(|(_, c)| c.sampled() as f64 * self.full + c.calls() as f64 * self.tick)
            .sum()
    }
}

/// Run `f`, timing it when `c` samples this call.
fn time<T>(c: &Counter, f: impl FnOnce() -> T) -> T {
    if c.tick() {
        let t = Instant::now();
        let out = f();
        c.add(t);
        out
    } else {
        f()
    }
}

impl<M: Model + 'static> Model for Timed<M> {
    type State = M::State;
    type Action = M::Action;

    fn init_states(&self) -> Vec<M::State> {
        self.inner.init_states()
    }

    fn actions(&self, state: &M::State, out: &mut Vec<M::Action>) {
        time(&self.times.actions, || self.inner.actions(state, out))
    }

    fn next_state(&self, state: &M::State, action: &M::Action) -> Option<M::State> {
        time(&self.times.next_state, || {
            self.inner.next_state(state, action)
        })
    }

    fn properties(&self) -> Vec<Property<Self>> {
        self.inner
            .properties()
            .into_iter()
            .map(|p| {
                let cond = p.condition;
                Property {
                    expectation: p.expectation,
                    name: p.name,
                    condition: Arc::new(move |m: &Self, s: &M::State| {
                        time(&m.times.props, || cond(&m.inner, s))
                    }),
                }
            })
            .collect()
    }

    fn within_boundary(&self, state: &M::State) -> bool {
        self.inner.within_boundary(state)
    }

    fn format_state(&self, state: &M::State) -> String {
        self.inner.format_state(state)
    }

    fn format_action(&self, action: &M::Action) -> String {
        self.inner.format_action(action)
    }

    fn components(&self, state: &M::State, out: &mut Vec<Vec<u8>>) -> bool {
        time(&self.times.components, || self.inner.components(state, out))
    }

    fn reassemble(&self, comps: &[Vec<u8>]) -> Option<M::State> {
        time(&self.times.reassemble, || self.inner.reassemble(comps))
    }

    fn reduced_actions(&self, state: &M::State, out: &mut Vec<M::Action>) -> bool {
        self.inner.reduced_actions(state, out)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}
