//! Driving monitors over trace feeds.

use crate::trace::TraceEntry;
use crate::SimTime;

use crate::verify::automaton::{MatchedEvent, Monitor, MonitorReport, Signature};
use crate::verify::verdict::Verdict;

/// Run one signature over a complete trace, closing it at `end`.
pub fn run_signature(sig: Signature, entries: &[TraceEntry], end: SimTime) -> MonitorReport {
    let mut m = Monitor::new(sig);
    for e in entries {
        if m.feed(e).is_definite() {
            break;
        }
    }
    m.finish(end);
    m.report()
}

/// Count how many times `sig` occurs across a long trace, closing it at
/// `end` — the fleet/user-study shape, where one 14-day stream contains
/// many independent episodes of the same hazard.
///
/// The automaton restarts whenever it settles: a `Confirmed` verdict
/// counts one occurrence and a fresh monitor (anchored at the settling
/// entry's timestamp) takes over from the *next* entry, so matched
/// episodes never overlap and a refuted prefix can never mask a later
/// genuine occurrence. A final occurrence still pending at `end` is
/// settled by [`Monitor::finish`].
pub fn count_signature(sig: &Signature, entries: &[TraceEntry], end: SimTime) -> usize {
    if sig.steps.is_empty() {
        // A stepless signature is vacuously confirmed; counting its
        // "occurrences" over a stream is meaningless.
        return 0;
    }
    let mut count = 0;
    let mut m = Monitor::new(sig.clone());
    for e in entries {
        if m.feed(e).is_definite() {
            if m.verdict() == Verdict::Confirmed {
                count += 1;
            }
            m.restart(e.ts);
        }
    }
    if m.finish(end) == Verdict::Confirmed {
        count += 1;
    }
    count
}

/// Collect every confirmed evidence span of `sig` across one long trace,
/// restarting exactly as [`count_signature`] does, so matched episodes
/// never overlap and a refuted prefix cannot mask a later occurrence.
/// (No trailing `finish`: closing a trace can refute but never confirm.)
pub fn collect_spans(sig: &Signature, entries: &[TraceEntry]) -> Vec<Vec<MatchedEvent>> {
    let mut spans = Vec::new();
    if sig.steps.is_empty() {
        return spans;
    }
    let mut m = Monitor::new(sig.clone());
    for e in entries {
        if m.feed(e).is_definite() {
            if m.verdict() == Verdict::Confirmed {
                spans.push(m.report().span);
            }
            m.restart(e.ts);
        }
    }
    spans
}

/// A bank of monitors evaluated online over one shared feed — the
/// streaming shape: each entry is offered to every still-undecided
/// monitor as it arrives.
#[derive(Clone, Debug, Default)]
pub struct Bank {
    monitors: Vec<Monitor>,
}

impl Bank {
    /// A bank over the given signatures.
    pub fn new(sigs: impl IntoIterator<Item = Signature>) -> Self {
        Self {
            monitors: sigs.into_iter().map(Monitor::new).collect(),
        }
    }

    /// Offer one entry to every monitor.
    pub fn feed(&mut self, entry: &TraceEntry) {
        for m in &mut self.monitors {
            m.feed(entry);
        }
    }

    /// Close the feed at `end`.
    pub fn finish(&mut self, end: SimTime) {
        for m in &mut self.monitors {
            m.finish(end);
        }
    }

    /// Whether every monitor has reached a definite verdict (the feed can
    /// stop early).
    pub fn all_definite(&self) -> bool {
        self.monitors.iter().all(|m| m.verdict().is_definite())
    }

    /// Reports of all monitors, in signature order.
    pub fn reports(&self) -> Vec<MonitorReport> {
        self.monitors.iter().map(Monitor::report).collect()
    }

    /// Joined verdict across all monitors in the bank (for trial
    /// replication of one signature).
    pub fn joined_verdict(&self) -> Verdict {
        self.monitors
            .iter()
            .fold(Verdict::Inconclusive, |acc, m| acc.join(m.verdict()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CallPhase, TraceCollector, TraceEvent, TraceType};
    use crate::verify::pattern::Pattern;
    use cellstack::{Protocol, RatSystem};

    fn record(t: &mut TraceCollector, at_ms: u64, event: TraceEvent) {
        t.record_event(
            SimTime::from_millis(at_ms),
            TraceType::State,
            RatSystem::Utran3g,
            Protocol::Rrc3g,
            "synthetic",
            event,
        );
    }

    /// connected → released, with a refutation arc on a 4G camp.
    fn call_sig() -> Signature {
        Signature::new("call")
            .step("connected", Pattern::call(CallPhase::Connected))
            .step("released", Pattern::call(CallPhase::Released))
            .forbid("left 3G mid-call", Pattern::camped_on(RatSystem::Lte4g))
    }

    #[test]
    fn counts_every_disjoint_episode() {
        let mut t = TraceCollector::new();
        for i in 0..5u64 {
            record(&mut t, i * 100_000, TraceEvent::Call(CallPhase::Connected));
            record(
                &mut t,
                i * 100_000 + 30_000,
                TraceEvent::Call(CallPhase::Released),
            );
        }
        let n = count_signature(&call_sig(), t.entries(), SimTime::from_secs(600));
        assert_eq!(n, 5);
    }

    #[test]
    fn refuted_prefix_does_not_mask_later_occurrences() {
        let mut t = TraceCollector::new();
        // First episode refutes (camped 4G mid-call)…
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        record(&mut t, 12_000, TraceEvent::CampedOn(RatSystem::Lte4g));
        record(&mut t, 14_000, TraceEvent::Call(CallPhase::Released));
        // …the second confirms.
        record(&mut t, 100_000, TraceEvent::Call(CallPhase::Connected));
        record(&mut t, 130_000, TraceEvent::Call(CallPhase::Released));
        let n = count_signature(&call_sig(), t.entries(), SimTime::from_secs(600));
        assert_eq!(n, 1);
    }

    #[test]
    fn final_pending_occurrence_is_settled_at_end() {
        let mut t = TraceCollector::new();
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        // Release never traced: the monitor is still pending at `end`,
        // and a two-step untimed signature cannot confirm from there.
        let n = count_signature(&call_sig(), t.entries(), SimTime::from_secs(600));
        assert_eq!(n, 0);
    }

    #[test]
    fn stepless_signature_counts_nothing() {
        let mut t = TraceCollector::new();
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        let n = count_signature(
            &Signature::new("empty"),
            t.entries(),
            SimTime::from_secs(60),
        );
        assert_eq!(n, 0);
    }
}
