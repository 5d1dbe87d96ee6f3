//! Property-based tests for the model checker's data structures and
//! engines.

use proptest::prelude::*;

use mck::{Chan, ChanSemantics, Checker, DeliveryChoice, Model, Path, Property, SearchStrategy};

// ---------------------------------------------------------------------
// Channel invariants
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum ChanOp {
    Send(u8),
    Deliver(usize),
    Drop,
    Duplicate,
}

fn chan_op() -> impl Strategy<Value = ChanOp> {
    prop_oneof![
        any::<u8>().prop_map(ChanOp::Send),
        (0usize..6).prop_map(ChanOp::Deliver),
        Just(ChanOp::Drop),
        Just(ChanOp::Duplicate),
    ]
}

proptest! {
    /// A reliable channel delivers exactly the sent messages, in order.
    #[test]
    fn reliable_channel_is_fifo(sends in proptest::collection::vec(any::<u8>(), 0..20)) {
        let mut c = Chan::new(ChanSemantics::reliable(64));
        for &m in &sends {
            c.send(m).unwrap();
        }
        let mut delivered = Vec::new();
        while let Some(m) = c.apply(DeliveryChoice::DeliverAt(0)) {
            delivered.push(m);
        }
        prop_assert_eq!(delivered, sends);
    }

    /// Under arbitrary operations the queue never exceeds its capacity and
    /// never delivers a message that was not sent.
    #[test]
    fn channel_never_overflows_or_invents(
        ops in proptest::collection::vec(chan_op(), 0..60),
        cap in 1usize..8,
    ) {
        let mut c = Chan::new(ChanSemantics::adversarial(cap)).with_dup_budget(3);
        let mut sent = std::collections::HashMap::<u8, usize>::new();
        let mut delivered = std::collections::HashMap::<u8, usize>::new();
        for op in ops {
            prop_assert!(c.len() <= cap);
            match op {
                ChanOp::Send(m) => {
                    c.send(m).unwrap();
                    *sent.entry(m).or_default() += 1;
                }
                ChanOp::Deliver(i) => {
                    if let Some(m) = c.apply(DeliveryChoice::DeliverAt(i)) {
                        *delivered.entry(m).or_default() += 1;
                    }
                }
                ChanOp::Drop => {
                    c.apply(DeliveryChoice::DropFront);
                }
                ChanOp::Duplicate => {
                    if let Some(m) = c.apply(DeliveryChoice::DuplicateFront) {
                        *delivered.entry(m).or_default() += 1;
                    }
                }
            }
        }
        // Each value delivered at most sent + dup budget times.
        for (m, &n) in &delivered {
            let max = sent.get(m).copied().unwrap_or(0) + 3;
            prop_assert!(n <= max, "{m} delivered {n} > sent+dups {max}");
        }
    }

    /// `delivery_choices` only offers applicable choices.
    #[test]
    fn offered_choices_are_applicable(
        sends in proptest::collection::vec(any::<u8>(), 0..6),
        lossy in any::<bool>(),
        dup in any::<bool>(),
        reorder in any::<bool>(),
    ) {
        let sem = ChanSemantics {
            lossy,
            duplicating: dup,
            reordering: reorder,
            capacity: 8,
        };
        let mut c = Chan::new(sem);
        for &m in &sends {
            c.send(m).unwrap();
        }
        let mut choices = Vec::new();
        c.delivery_choices(&mut choices);
        for choice in choices {
            let mut c2 = c.clone();
            match choice {
                DeliveryChoice::DeliverAt(_) | DeliveryChoice::DuplicateFront => {
                    prop_assert!(c2.apply(choice).is_some(), "{choice:?} must deliver");
                }
                DeliveryChoice::DropFront => {
                    let before = c2.len();
                    c2.apply(choice);
                    prop_assert_eq!(c2.len(), before - 1);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Path invariants
// ---------------------------------------------------------------------

proptest! {
    /// Push/pop keeps the stack discipline; states() always starts at init.
    #[test]
    fn path_push_pop_discipline(steps in proptest::collection::vec((any::<u8>(), any::<u16>()), 0..30)) {
        let mut p: Path<u16, u8> = Path::new(0);
        for &(a, s) in &steps {
            p.push(a, s);
        }
        prop_assert_eq!(p.len(), steps.len());
        prop_assert_eq!(p.states().count(), steps.len() + 1);
        prop_assert_eq!(*p.states().next().unwrap(), 0);
        // Pop everything back in reverse order.
        for &(a, s) in steps.iter().rev() {
            prop_assert_eq!(p.pop(), Some((a, s)));
        }
        prop_assert!(p.is_empty());
        prop_assert_eq!(*p.last_state(), 0);
    }
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn fingerprint_deterministic(x in any::<(u64, String, bool)>()) {
        prop_assert_eq!(mck::fingerprint(&x), mck::fingerprint(&x));
    }

    #[test]
    fn fingerprint_separates_simple_values(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(mck::fingerprint(&a), mck::fingerprint(&b));
    }
}

// ---------------------------------------------------------------------
// Checker engines on randomized models
// ---------------------------------------------------------------------

/// A randomized bounded counter: steps are an arbitrary small set, the
/// forbidden value is arbitrary.
#[derive(Clone, Debug)]
struct RandCounter {
    steps: Vec<u8>,
    max: u16,
    forbid: u16,
}

impl Model for RandCounter {
    type State = u16;
    type Action = u8;

    fn init_states(&self) -> Vec<u16> {
        vec![0]
    }

    fn actions(&self, s: &u16, out: &mut Vec<u8>) {
        for &st in &self.steps {
            if st > 0 && s + u16::from(st) <= self.max {
                out.push(st);
            }
        }
    }

    fn next_state(&self, s: &u16, a: &u8) -> Option<u16> {
        Some(s + u16::from(*a))
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![Property::never("forbidden", |m: &RandCounter, s: &u16| {
            *s == m.forbid
        })]
    }
}

fn rand_counter() -> impl Strategy<Value = RandCounter> {
    (proptest::collection::vec(1u8..6, 1..4), 20u16..60, 0u16..60)
        .prop_map(|(steps, max, forbid)| RandCounter { steps, max, forbid })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BFS and DFS agree on whether the property holds, and both
    /// counterexamples replay to the forbidden state.
    #[test]
    fn bfs_dfs_agree_on_verdict(model in rand_counter()) {
        let bfs = Checker::new(model.clone()).strategy(SearchStrategy::Bfs).run();
        let dfs = Checker::new(model.clone()).strategy(SearchStrategy::Dfs).run();
        prop_assert_eq!(
            bfs.violation("forbidden").is_some(),
            dfs.violation("forbidden").is_some()
        );
        prop_assert_eq!(bfs.stats.unique_states, dfs.stats.unique_states);
        for result in [&bfs, &dfs] {
            if let Some(v) = result.violation("forbidden") {
                // Replay.
                let mut cur = *v.path.init_state();
                for (a, s) in v.path.steps() {
                    cur = model.next_state(&cur, a).unwrap();
                    prop_assert_eq!(cur, *s);
                }
                prop_assert_eq!(cur, model.forbid);
            }
        }
    }

    /// The BFS counterexample is no longer than the DFS one (shortest-path
    /// property of breadth-first search).
    #[test]
    fn bfs_counterexample_is_minimal(model in rand_counter()) {
        let bfs = Checker::new(model.clone()).strategy(SearchStrategy::Bfs).run();
        let dfs = Checker::new(model).strategy(SearchStrategy::Dfs).run();
        if let (Some(b), Some(d)) = (bfs.violation("forbidden"), dfs.violation("forbidden")) {
            prop_assert!(b.path.len() <= d.path.len());
        }
    }

    /// The parallel checker agrees with sequential BFS.
    #[test]
    fn parallel_agrees_with_sequential(model in rand_counter()) {
        let seq = Checker::new(model.clone()).run();
        let par = Checker::new(model)
            .strategy(SearchStrategy::ParallelBfs { workers: 3 })
            .run();
        prop_assert_eq!(seq.stats.unique_states, par.stats.unique_states);
        prop_assert_eq!(
            seq.violation("forbidden").is_some(),
            par.violation("forbidden").is_some()
        );
    }

    /// Random walks never report a violation the exhaustive checker
    /// disproves (soundness of sampling).
    #[test]
    fn sampling_is_sound(model in rand_counter(), seed in any::<u64>()) {
        let exhaustive = Checker::new(model.clone()).run();
        let walks = mck::RandomWalk::seeded(seed).walks(50).max_steps(80).run(&model);
        if exhaustive.holds() {
            prop_assert_eq!(walks.violations_of("forbidden"), 0);
        }
    }
}
