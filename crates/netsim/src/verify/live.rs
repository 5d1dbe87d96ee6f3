//! In-line monitoring: signature automata evaluated inside the fleet
//! step loop, one bank per resident lane.
//!
//! The post-hoc scanner ([`crate::verify::runner::count_signature`])
//! needs the whole trace retained; at fleet scale the trace collectors
//! run ring-bounded or count-only, so detection must consume each entry
//! at emission time instead. A [`LaneBank`] holds one restartable
//! signature cursor per configured signature and replicates the
//! scanner's occurrence-counting semantics exactly: when a cursor
//! settles, a `Confirmed` verdict counts one occurrence, and the cursor
//! is reset in place, anchored at the settling entry's timestamp, for
//! the next entry. The signatures themselves stay in the shared
//! [`LiveConfig`]; stepping, settling and closing a lane never clones one
//! or formats a string. The per-lane confirmed/refuted tallies are
//! therefore a pure function of the lane's event stream — independent of
//! trace retention mode and of the shard/thread layout — and fold into
//! the fleet digest.
//!
//! Two things deliberately stay *out* of the digest: the bounded
//! [`VerdictStream`] sample (which entries survive the cap is a
//! tailing/debugging aid, not a statistic) and the poisoning state
//! (an automaton that panics mid-feed quarantines its own lane via
//! [`LaneBank::feed_all`]'s unwind containment — the shard survives and
//! the UE is reported as monitor-poisoned instead of silently dropped).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use serde::Serialize;

use crate::trace::TraceEntry;
use crate::verify::automaton::{Cursor, Fed, MatchedEvent, Signature};
use crate::verify::verdict::Verdict;
use crate::SimTime;

/// Fleet-level configuration for in-line monitoring.
#[derive(Clone, Debug, Default)]
pub struct LiveConfig {
    /// The signatures every lane evaluates, in a fixed order (verdict
    /// tallies are indexed by position in this list). Shared, not cloned
    /// per lane.
    pub signatures: Arc<Vec<Signature>>,
    /// Backpressure cap on the per-lane verdict sample stream: at most
    /// this many settle events are retained per UE (the tallies stay
    /// exact regardless; overflow only bumps [`VerdictStream::dropped`]).
    pub verdict_cap: usize,
    /// Retain the matched-event span of every confirmed occurrence
    /// (needed by the user study's S3 episode extraction; costs memory,
    /// so fleet-scale smoke runs leave it off).
    pub keep_spans: bool,
    /// Chaos hook for the containment tests: lanes whose UE index is in
    /// this list panic on their first fed entry.
    #[doc(hidden)]
    pub poison_ues: Vec<u32>,
}

impl LiveConfig {
    /// Live monitoring over `signatures` with the default 32-event
    /// per-lane verdict sample cap.
    pub fn new(signatures: Vec<Signature>) -> Self {
        Self {
            signatures: Arc::new(signatures),
            verdict_cap: 32,
            keep_spans: false,
            poison_ues: Vec::new(),
        }
    }
}

/// One monitor settle event, sampled into the bounded per-lane stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct VerdictEvent {
    /// When the monitor settled (the triggering entry's timestamp; the
    /// fleet horizon for end-of-trace settles).
    pub ts: SimTime,
    /// Index into [`LiveConfig::signatures`].
    pub sig: usize,
    /// The definite verdict reached.
    pub verdict: Verdict,
}

/// A bounded sample of settle events plus an exact overflow count.
#[derive(Clone, Debug, Default)]
pub struct VerdictStream {
    /// Retained settle events, oldest first, at most the configured cap.
    pub events: Vec<VerdictEvent>,
    /// Settle events dropped once the cap was reached. Deterministic per
    /// lane (the cap applies to one UE's stream, not a shared queue).
    pub dropped: u64,
    cap: usize,
}

impl VerdictStream {
    fn with_cap(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    fn push(&mut self, ev: VerdictEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// The per-lane result of in-line monitoring, carried on the UE outcome.
#[derive(Clone, Debug, Default)]
pub struct LiveCounts {
    /// Confirmed-occurrence count per signature (same order as
    /// [`LiveConfig::signatures`]). Equal to what
    /// [`crate::verify::runner::count_signature`] would report over the
    /// full trace.
    pub confirmed: Vec<u32>,
    /// Refuted-settle count per signature.
    pub refuted: Vec<u32>,
    /// Matched spans of confirmed occurrences, per signature (empty
    /// unless [`LiveConfig::keep_spans`]).
    pub spans: Vec<Vec<Vec<MatchedEvent>>>,
    /// The bounded settle-event sample.
    pub stream: VerdictStream,
    /// The lane's automata panicked and were quarantined; tallies cover
    /// only the prefix fed before the panic.
    pub poisoned: bool,
}

/// One lane's bank of restartable signature cursors.
#[derive(Clone, Debug, Default)]
pub struct LaneBank {
    cursors: Vec<Cursor>,
    /// Matched prefix of each signature's pending occurrence; empty
    /// (never filled) unless spans are kept.
    pending: Vec<Vec<MatchedEvent>>,
    counts: LiveCounts,
    keep_spans: bool,
    chaos_panic: bool,
}

impl LaneBank {
    /// A fresh bank over `cfg`'s signatures. `ue` is the lane's UE index,
    /// consulted only by the chaos poisoning hook.
    pub fn new(cfg: &LiveConfig, ue: u32) -> Self {
        let n = cfg.signatures.len();
        Self {
            cursors: cfg
                .signatures
                .iter()
                .map(|s| Cursor::new(s, SimTime::ZERO))
                .collect(),
            pending: if cfg.keep_spans {
                vec![Vec::new(); n]
            } else {
                Vec::new()
            },
            counts: LiveCounts {
                confirmed: vec![0; n],
                refuted: vec![0; n],
                spans: vec![Vec::new(); n],
                stream: VerdictStream::with_cap(cfg.verdict_cap),
                poisoned: false,
            },
            keep_spans: cfg.keep_spans,
            chaos_panic: cfg.poison_ues.contains(&ue),
        }
    }

    /// Whether the bank has been quarantined.
    pub fn poisoned(&self) -> bool {
        self.counts.poisoned
    }

    fn settle(&mut self, k: usize, ts: SimTime, verdict: Verdict) {
        match verdict {
            Verdict::Confirmed => {
                self.counts.confirmed[k] += 1;
                if self.keep_spans {
                    let span = std::mem::take(&mut self.pending[k]);
                    self.counts.spans[k].push(span);
                }
            }
            Verdict::Refuted => {
                self.counts.refuted[k] += 1;
                if self.keep_spans {
                    self.pending[k].clear();
                }
            }
            Verdict::Inconclusive => return,
        }
        self.counts.stream.push(VerdictEvent {
            ts,
            sig: k,
            verdict,
        });
    }

    /// Feed one entry to every cursor, restarting any that settles —
    /// the exact `count_signature` loop body, applied per signature.
    /// Stepless signatures are skipped (the scanner counts them as zero).
    fn feed(&mut self, sigs: &[Signature], entry: &TraceEntry) {
        if self.chaos_panic {
            panic!("chaos: injected monitor panic");
        }
        for (k, sig) in sigs.iter().enumerate() {
            if sig.steps.is_empty() {
                continue;
            }
            let cursor = &mut self.cursors[k];
            let fed = cursor.feed(sig, entry);
            let verdict = cursor.verdict();
            if let (true, Fed::Matched(step)) = (self.keep_spans, fed) {
                self.pending[k].push(MatchedEvent {
                    ts: entry.ts,
                    step: sig.steps[step].label.clone(),
                    desc: entry.desc.clone(),
                    event: entry.event.clone(),
                });
            }
            if verdict.is_definite() {
                self.cursors[k] = Cursor::new(sig, entry.ts);
                self.settle(k, entry.ts, verdict);
            }
        }
    }

    /// Drain `entries` through the bank with unwind containment: if an
    /// automaton panics, the lane is marked poisoned, the remaining
    /// entries are discarded, and every later call is a no-op — the
    /// shard's event loop never observes the panic. Returns `true` iff
    /// this call poisoned the lane.
    pub fn feed_all(&mut self, cfg: &LiveConfig, entries: &mut Vec<TraceEntry>) -> bool {
        if self.counts.poisoned {
            entries.clear();
            return false;
        }
        let sigs: &[Signature] = &cfg.signatures;
        let result = catch_unwind(AssertUnwindSafe(|| {
            for e in entries.iter() {
                self.feed(sigs, e);
            }
        }));
        entries.clear();
        if result.is_err() {
            self.counts.poisoned = true;
            true
        } else {
            false
        }
    }

    /// Close the lane's stream at `end` (the fleet horizon), settling the
    /// final pending occurrence exactly as the scanner's trailing
    /// `finish` does.
    pub fn finish(&mut self, cfg: &LiveConfig, end: SimTime) {
        if self.counts.poisoned {
            return;
        }
        let sigs: &[Signature] = &cfg.signatures;
        for (k, sig) in sigs.iter().enumerate() {
            if sig.steps.is_empty() {
                continue;
            }
            let cursor = &mut self.cursors[k];
            cursor.finish(sig, end);
            let verdict = cursor.verdict();
            self.settle(k, end, verdict);
        }
    }

    /// Extract the lane's tallies, consuming the bank.
    pub fn into_counts(self) -> LiveCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CallPhase, TraceCollector, TraceEvent, TraceType};
    use crate::verify::pattern::Pattern;
    use crate::verify::runner::count_signature;
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

    fn call_sig() -> Signature {
        Signature::new("call")
            .step("connected", Pattern::call(CallPhase::Connected))
            .step("released", Pattern::call(CallPhase::Released))
            .forbid("left 3G mid-call", Pattern::camped_on(RatSystem::Lte4g))
    }

    fn feed_trace(bank: &mut LaneBank, cfg: &LiveConfig, t: &TraceCollector, end: SimTime) {
        let mut buf = t.entries().to_vec();
        bank.feed_all(cfg, &mut buf);
        bank.finish(cfg, end);
    }

    #[test]
    fn live_counts_match_the_posthoc_scanner() {
        let mut t = TraceCollector::new();
        // Three clean episodes, one refuted by a 4G camp mid-call.
        for i in 0..3u64 {
            record(&mut t, i * 100_000, TraceEvent::Call(CallPhase::Connected));
            record(
                &mut t,
                i * 100_000 + 30_000,
                TraceEvent::Call(CallPhase::Released),
            );
        }
        record(&mut t, 400_000, TraceEvent::Call(CallPhase::Connected));
        record(&mut t, 410_000, TraceEvent::CampedOn(RatSystem::Lte4g));
        record(&mut t, 420_000, TraceEvent::Call(CallPhase::Released));

        let end = SimTime::from_secs(600);
        let cfg = LiveConfig::new(vec![call_sig(), Signature::new("stepless")]);
        let mut bank = LaneBank::new(&cfg, 0);
        feed_trace(&mut bank, &cfg, &t, end);
        let counts = bank.into_counts();

        assert_eq!(
            counts.confirmed[0] as usize,
            count_signature(&call_sig(), t.entries(), end)
        );
        assert_eq!(counts.confirmed[0], 3);
        assert_eq!(counts.refuted[0], 1);
        assert_eq!(counts.confirmed[1], 0, "stepless signatures count nothing");
        assert!(!counts.poisoned);
    }

    #[test]
    fn verdict_stream_caps_without_losing_tallies() {
        let mut t = TraceCollector::new();
        for i in 0..10u64 {
            record(&mut t, i * 100_000, TraceEvent::Call(CallPhase::Connected));
            record(
                &mut t,
                i * 100_000 + 30_000,
                TraceEvent::Call(CallPhase::Released),
            );
        }
        let mut cfg = LiveConfig::new(vec![call_sig()]);
        cfg.verdict_cap = 4;
        let mut bank = LaneBank::new(&cfg, 0);
        feed_trace(&mut bank, &cfg, &t, SimTime::from_secs(2_000));
        let counts = bank.into_counts();
        assert_eq!(counts.confirmed[0], 10, "tallies are exact past the cap");
        assert_eq!(counts.stream.events.len(), 4);
        assert_eq!(counts.stream.dropped, 6);
    }

    #[test]
    fn spans_are_kept_only_on_request() {
        let mut t = TraceCollector::new();
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        record(&mut t, 40_000, TraceEvent::Call(CallPhase::Released));
        let end = SimTime::from_secs(600);

        let plain = LiveConfig::new(vec![call_sig()]);
        let mut bank = LaneBank::new(&plain, 0);
        feed_trace(&mut bank, &plain, &t, end);
        assert!(bank.into_counts().spans[0].is_empty());

        let mut kept = LiveConfig::new(vec![call_sig()]);
        kept.keep_spans = true;
        let mut bank = LaneBank::new(&kept, 0);
        feed_trace(&mut bank, &kept, &t, end);
        let spans = bank.into_counts().spans;
        assert_eq!(spans[0].len(), 1);
        assert_eq!(spans[0][0].len(), 2);
        assert_eq!(spans[0][0][0].step, "connected");
        assert_eq!(spans[0][0][1].ts, SimTime::from_millis(40_000));
    }

    #[test]
    fn a_panicking_automaton_poisons_only_its_lane() {
        let mut t = TraceCollector::new();
        record(&mut t, 10_000, TraceEvent::Call(CallPhase::Connected));
        let mut cfg = LiveConfig::new(vec![call_sig()]);
        cfg.poison_ues = vec![7];

        let mut poisoned = LaneBank::new(&cfg, 7);
        let mut buf = t.entries().to_vec();
        assert!(poisoned.feed_all(&cfg, &mut buf), "first feed poisons");
        assert!(buf.is_empty(), "pending entries are discarded");
        let mut buf = t.entries().to_vec();
        assert!(
            !poisoned.feed_all(&cfg, &mut buf),
            "later feeds are contained no-ops"
        );
        poisoned.finish(&cfg, SimTime::from_secs(600));
        assert!(poisoned.into_counts().poisoned);

        let mut healthy = LaneBank::new(&cfg, 8);
        let mut buf = t.entries().to_vec();
        assert!(!healthy.feed_all(&cfg, &mut buf));
        assert!(!healthy.into_counts().poisoned);
    }
}
