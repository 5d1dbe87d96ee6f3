//! The three-valued verdict lattice.
//!
//! LTL3-style: a finite trace either definitely exhibits the signature
//! (`Confirmed`), definitely cannot anymore (`Refuted` — a forbidden event
//! fired or a timed step expired), or ended before the automaton finished
//! (`Inconclusive`).

use serde::Serialize;

/// Monitor outcome over a finite trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Verdict {
    /// Every step of the signature matched, in order, within its deadline.
    Confirmed,
    /// A negation arc fired or a timed step expired: the signature can no
    /// longer match on any extension of this trace.
    Refuted,
    /// The trace ended with the automaton mid-way: no definite verdict.
    Inconclusive,
}

impl Verdict {
    /// Whether the verdict can no longer change as more events arrive.
    pub fn is_definite(self) -> bool {
        !matches!(self, Verdict::Inconclusive)
    }

    /// Lattice join for combining verdicts of the same signature over
    /// several runs (e.g. repeated trials on one carrier): `Inconclusive`
    /// is bottom; a definite sighting (`Confirmed`) dominates a refutation
    /// from another run, because one witnessed occurrence is enough to
    /// confirm an instance.
    pub fn join(self, other: Verdict) -> Verdict {
        match (self, other) {
            (Verdict::Confirmed, _) | (_, Verdict::Confirmed) => Verdict::Confirmed,
            (Verdict::Refuted, _) | (_, Verdict::Refuted) => Verdict::Refuted,
            _ => Verdict::Inconclusive,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Confirmed => "Confirmed",
            Verdict::Refuted => "Refuted",
            Verdict::Inconclusive => "Inconclusive",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_commutative_with_confirmed_top() {
        for v in [Verdict::Confirmed, Verdict::Refuted, Verdict::Inconclusive] {
            assert_eq!(v.join(Verdict::Confirmed), Verdict::Confirmed);
            assert_eq!(Verdict::Confirmed.join(v), Verdict::Confirmed);
            assert_eq!(v.join(v), v);
        }
        assert_eq!(
            Verdict::Refuted.join(Verdict::Inconclusive),
            Verdict::Refuted
        );
    }

    #[test]
    fn definiteness() {
        assert!(Verdict::Confirmed.is_definite());
        assert!(Verdict::Refuted.is_definite());
        assert!(!Verdict::Inconclusive.is_definite());
    }
}
