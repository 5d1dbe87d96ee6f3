//! Signature automata and their online evaluation.
//!
//! A [`Signature`] is a deterministic matcher: an ordered list of
//! [`Step`]s plus negation arcs. A [`Cursor`] steps one signature
//! online — entries stream in via [`Cursor::feed`], the automaton
//! advances greedily on the first entry matching the awaited step, and
//! the verdict hardens to [`Verdict::Confirmed`] when the last step
//! matches, or to [`Verdict::Refuted`] the moment a forbidden pattern
//! fires or a timed step's deadline passes. [`Cursor::finish`] closes
//! the trace and settles anything still pending.
//!
//! The cursor is 24 bytes of plain data and allocates nothing; the
//! in-line lane banks ([`crate::verify::live`]) step it directly. A
//! [`Monitor`] owns a signature and a cursor and records the evidence:
//! the matched-event span and the refutation rendered as text.

use serde::{Deserialize, Serialize};

use crate::trace::{TraceEntry, TraceEvent};
use crate::SimTime;

use crate::verify::pattern::Pattern;
use crate::verify::verdict::Verdict;

/// One step of a signature automaton.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// Human-readable label, shown in evidence spans.
    pub label: String,
    /// What the step waits for.
    pub pattern: Pattern,
    /// Deadline relative to the previous step's match (trace start for the
    /// first step): if no match arrives within this many ms, the signature
    /// is refuted (timed-step expiry).
    pub within_ms: Option<u64>,
    /// Negation arcs active only while this step is awaited.
    pub forbidden: Vec<Pattern>,
}

/// A declarative signature automaton.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Signature name (e.g. `S3-hand`, `S2-compiled`).
    pub name: String,
    /// Ordered steps; all must match for `Confirmed`.
    pub steps: Vec<Step>,
    /// Labelled negation arcs active for the whole run.
    pub forbidden: Vec<(String, Pattern)>,
}

impl Signature {
    /// An empty signature with `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            steps: Vec::new(),
            forbidden: Vec::new(),
        }
    }

    /// Append an untimed step.
    pub fn step(mut self, label: impl Into<String>, pattern: Pattern) -> Self {
        self.steps.push(Step {
            label: label.into(),
            pattern,
            within_ms: None,
            forbidden: Vec::new(),
        });
        self
    }

    /// Append a step that must match within `within_ms` of the previous
    /// one.
    pub fn timed_step(
        mut self,
        label: impl Into<String>,
        pattern: Pattern,
        within_ms: u64,
    ) -> Self {
        self.steps.push(Step {
            label: label.into(),
            pattern,
            within_ms: Some(within_ms),
            forbidden: Vec::new(),
        });
        self
    }

    /// Add a negation arc to the most recently added step (active only
    /// while that step is awaited).
    ///
    /// # Panics
    /// Panics if no step has been added yet.
    pub fn forbid_while(mut self, pattern: Pattern) -> Self {
        self.steps
            .last_mut()
            .expect("forbid_while needs a preceding step")
            .forbidden
            .push(pattern);
        self
    }

    /// Add a signature-global negation arc.
    pub fn forbid(mut self, label: impl Into<String>, pattern: Pattern) -> Self {
        self.forbidden.push((label.into(), pattern));
        self
    }
}

/// One matched event of an evidence span.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchedEvent {
    /// When the event was observed.
    pub ts: SimTime,
    /// The step label it satisfied.
    pub step: String,
    /// The trace entry's description.
    pub desc: String,
    /// The typed payload.
    pub event: TraceEvent,
}

/// The full outcome of running one monitor over one trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Signature name.
    pub signature: String,
    /// Final verdict.
    pub verdict: Verdict,
    /// The matched event span (one entry per completed step; for refuted
    /// runs, the prefix matched before refutation).
    pub span: Vec<MatchedEvent>,
    /// Total number of steps in the signature.
    pub steps_total: usize,
    /// Why the signature was refuted, when it was.
    pub refutation: Option<String>,
}

/// Why a [`Cursor`] refuted. String-free: [`Monitor`] renders the reason
/// from the signature and the triggering entry only when it keeps
/// evidence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Why {
    /// Signature-global negation arc `i` fired.
    Forbidden(usize),
    /// A negation arc of the awaited step fired.
    ForbiddenWhile,
    /// The awaited step's deadline passed.
    Expired(SimTime),
}

/// What one [`Cursor::feed`] or [`Cursor::finish`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fed {
    /// Nothing changed (or the cursor was already definite).
    Pending,
    /// Step `k` matched; the cursor now awaits step `k + 1` (or is
    /// `Confirmed` if `k` was the last).
    Matched(usize),
    /// Refuted while awaiting step `k`.
    Refuted(usize, Why),
}

/// The bare automaton state of one signature run: which step is awaited,
/// the anchor its deadline counts from, and the verdict. Plain data —
/// the signature is passed to every call, so restarting a run is an
/// assignment, never a clone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cursor {
    next: usize,
    anchor: SimTime,
    verdict: Verdict,
}

impl Cursor {
    /// A cursor at the start of `sig`, with a timed first step measured
    /// from `anchor`.
    pub(crate) fn new(sig: &Signature, anchor: SimTime) -> Self {
        let verdict = if sig.steps.is_empty() {
            // Degenerate: nothing to wait for.
            Verdict::Confirmed
        } else {
            Verdict::Inconclusive
        };
        Self {
            next: 0,
            anchor,
            verdict,
        }
    }

    /// The current verdict.
    pub(crate) fn verdict(&self) -> Verdict {
        self.verdict
    }

    /// The awaited step's deadline. Saturating: an anchor near the end of
    /// time (a corrupted timestamp) gives a deadline that never passes
    /// rather than an overflow.
    fn deadline(&self, sig: &Signature) -> Option<SimTime> {
        sig.steps[self.next]
            .within_ms
            .map(|ms| SimTime(self.anchor.0.saturating_add(ms)))
    }

    fn refute(&mut self, why: Why) -> Fed {
        self.verdict = Verdict::Refuted;
        Fed::Refuted(self.next, why)
    }

    /// Feed one trace entry.
    ///
    /// Precedence per entry: signature-global negation arcs, then the
    /// awaited step's negation arcs, then timed-step expiry, then the
    /// awaited step's own pattern.
    pub(crate) fn feed(&mut self, sig: &Signature, entry: &TraceEntry) -> Fed {
        if self.verdict.is_definite() {
            return Fed::Pending;
        }
        if let Some(i) = sig.forbidden.iter().position(|(_, pat)| pat.matches(entry)) {
            return self.refute(Why::Forbidden(i));
        }
        let step = &sig.steps[self.next];
        if step.forbidden.iter().any(|pat| pat.matches(entry)) {
            return self.refute(Why::ForbiddenWhile);
        }
        if let Some(deadline) = self.deadline(sig) {
            if entry.ts > deadline {
                return self.refute(Why::Expired(deadline));
            }
        }
        if !step.pattern.matches(entry) {
            return Fed::Pending;
        }
        let k = self.next;
        self.anchor = entry.ts;
        self.next += 1;
        if self.next == sig.steps.len() {
            self.verdict = Verdict::Confirmed;
        }
        Fed::Matched(k)
    }

    /// Close the trace at time `end`: a pending timed step whose deadline
    /// lies before `end` is refuted; anything else pending stays
    /// `Inconclusive`.
    pub(crate) fn finish(&mut self, sig: &Signature, end: SimTime) -> Fed {
        if self.verdict.is_definite() {
            return Fed::Pending;
        }
        match self.deadline(sig) {
            Some(deadline) if end > deadline => self.refute(Why::Expired(deadline)),
            _ => Fed::Pending,
        }
    }
}

/// Online evaluator for one [`Signature`]: a [`Cursor`] plus the evidence
/// it produced — the matched-event span and the rendered refutation.
#[derive(Clone, Debug)]
pub struct Monitor {
    sig: Signature,
    cursor: Cursor,
    span: Vec<MatchedEvent>,
    refutation: Option<String>,
}

impl Monitor {
    /// A monitor at the start of `sig`, anchored at trace time zero.
    pub fn new(sig: Signature) -> Self {
        Self::new_anchored(sig, SimTime::ZERO)
    }

    /// A monitor at the start of `sig`, anchored at `anchor` instead of
    /// trace time zero — the restart shape used when counting repeated
    /// occurrences over one long stream, where "trace start" for a timed
    /// first step is the point the previous occurrence settled.
    pub fn new_anchored(sig: Signature, anchor: SimTime) -> Self {
        Self {
            cursor: Cursor::new(&sig, anchor),
            sig,
            span: Vec::new(),
            refutation: None,
        }
    }

    /// Reset to the start of the signature, anchored at `anchor`: the
    /// same state as [`Monitor::new_anchored`], without cloning the
    /// signature.
    pub fn restart(&mut self, anchor: SimTime) {
        self.cursor = Cursor::new(&self.sig, anchor);
        self.span.clear();
        self.refutation = None;
    }

    /// The current verdict.
    pub fn verdict(&self) -> Verdict {
        self.cursor.verdict()
    }

    /// The signature being evaluated.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// Feed one trace entry; returns the (possibly hardened) verdict.
    /// Precedence is [`Cursor::feed`]'s.
    pub fn feed(&mut self, entry: &TraceEntry) -> Verdict {
        match self.cursor.feed(&self.sig, entry) {
            Fed::Pending => {}
            Fed::Matched(k) => self.span.push(MatchedEvent {
                ts: entry.ts,
                step: self.sig.steps[k].label.clone(),
                desc: entry.desc.clone(),
                event: entry.event.clone(),
            }),
            Fed::Refuted(k, why) => {
                let at = entry.ts.hhmmss();
                let label = &self.sig.steps[k].label;
                self.refutation = Some(match why {
                    Why::Forbidden(i) => format!(
                        "forbidden event at {at}: {} ({})",
                        self.sig.forbidden[i].0, entry.desc
                    ),
                    Why::ForbiddenWhile => {
                        format!("forbidden while awaiting `{label}` at {at}: {}", entry.desc)
                    }
                    Why::Expired(deadline) => format!(
                        "step `{label}` expired at {at} (deadline {})",
                        deadline.hhmmss()
                    ),
                });
            }
        }
        self.verdict()
    }

    /// Close the trace at time `end`: a pending timed step whose deadline
    /// lies before `end` is refuted; anything else pending stays
    /// `Inconclusive`.
    pub fn finish(&mut self, end: SimTime) -> Verdict {
        if let Fed::Refuted(k, Why::Expired(deadline)) = self.cursor.finish(&self.sig, end) {
            self.refutation = Some(format!(
                "step `{}` still unmatched when the trace ended at {} (deadline {})",
                self.sig.steps[k].label,
                end.hhmmss(),
                deadline.hhmmss()
            ));
        }
        self.verdict()
    }

    /// Snapshot the outcome.
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            signature: self.sig.name.clone(),
            verdict: self.verdict(),
            span: self.span.clone(),
            steps_total: self.sig.steps.len(),
            refutation: self.refutation.clone(),
        }
    }
}

impl MonitorReport {
    /// Render the span as `hh:mm:ss.ms step — desc` lines.
    pub fn span_lines(&self) -> Vec<String> {
        self.span
            .iter()
            .map(|m| format!("{} {:<22} {}", m.ts.hhmmss(), m.step, m.desc))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_cursor_is_24_bytes_of_plain_data() {
        fn is_copy<T: Copy>() {}
        is_copy::<Cursor>();
        assert_eq!(std::mem::size_of::<Cursor>(), 24);
    }
}
