//! Exploration statistics.

use std::time::Duration;

/// Counters collected while exploring a state space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct `(state, eventually-bits)` nodes visited.
    pub unique_states: u64,
    /// Transitions generated (including ones leading to already-visited
    /// nodes and ones vetoed by `next_state`).
    pub transitions: u64,
    /// Deepest node expanded, in steps from an initial state.
    pub max_depth: usize,
    /// Nodes recorded but not expanded because `within_boundary` said no.
    pub boundary_hits: u64,
    /// Terminal nodes (no enabled action).
    pub terminal_states: u64,
    /// Largest exploration frontier observed: the widest BFS layer (queue)
    /// or the deepest DFS stack. A proxy for the engine's working-set size.
    pub peak_frontier: usize,
    /// Wall-clock time of the run.
    pub duration: Duration,
    /// Visited-set store statistics (mode, resident bytes, omission inputs).
    pub store: StoreStats,
}

impl CheckStats {
    /// Exploration throughput in unique states per second (0 when the run
    /// was too fast to measure).
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.unique_states as f64 / secs
    }

    /// Approximate visited-set bytes per stored node (0 when nothing was
    /// stored). The headline number compression modes are judged by.
    pub fn bytes_per_state(&self) -> f64 {
        if self.unique_states == 0 {
            return 0.0;
        }
        self.store.store_bytes as f64 / self.unique_states as f64
    }

    /// Expected number of states silently omitted by a lossy store over this
    /// run, given the observed `unique_states`.
    ///
    /// * **hash-compact** — each unordered pair of distinct states collides
    ///   on a 64-bit fingerprint with probability 2⁻⁶⁴ and each collision
    ///   prunes one genuinely new state, so the expectation is
    ///   `n(n−1)/2 · 2⁻⁶⁴` (≈ 2.7 × 10⁻⁴ at n = 10⁸, past 2 at n = 10¹⁰ —
    ///   quantified here instead of being assumed negligible).
    /// * **bitstate** — a new state is falsely "seen" when all `k` probe
    ///   bits are already set; using the *observed* final fill ratio `f`
    ///   the per-state probability is at most `f^k`, giving `n · f^k`.
    /// * **exact / collapse** — 0 by construction.
    pub fn expected_omissions(&self) -> f64 {
        let n = self.unique_states as f64;
        match self.store.kind {
            StoreKind::HashCompact => n * (n - 1.0).max(0.0) / 2.0 / 2f64.powi(64),
            StoreKind::Bitstate => {
                if self.store.bit_slots == 0 {
                    return 0.0;
                }
                let fill = self.store.bits_set as f64 / self.store.bit_slots as f64;
                n * fill.powi(i32::from(self.store.bit_hashes as u16))
            }
            StoreKind::Exact | StoreKind::Collapse => 0.0,
        }
    }

    /// Probability that this run omitted at least one state
    /// (`1 − exp(−E[omissions])`, the Poisson approximation of
    /// [`CheckStats::expected_omissions`]). 0 for exact stores.
    pub fn omission_probability(&self) -> f64 {
        let e = self.expected_omissions();
        if e <= 0.0 {
            0.0
        } else {
            -(-e).exp_m1()
        }
    }
}

/// Which store family produced a run's [`StoreStats`] — the dispatch tag for
/// the omission-probability math.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreKind {
    /// 64-bit fingerprints (lossy with quantified probability).
    #[default]
    HashCompact,
    /// Full serialized states (exact).
    Exact,
    /// Component-interned tuples (exact).
    Collapse,
    /// Bloom bit array (lossy by design).
    Bitstate,
}

/// Statistics about the visited-state store, embedded in [`CheckStats`].
/// All fields are integers or static labels so `CheckStats` stays `Eq`;
/// derived float quantities live on [`CheckStats`] methods.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Store family (drives the omission math).
    pub kind: StoreKind,
    /// Human-readable mode label, including any downgrade note (e.g. a
    /// collapse request on a model without a component split).
    pub mode: &'static str,
    /// Approximate resident bytes of the visited set.
    pub store_bytes: u64,
    /// Distinct interned components across all slots (collapse mode only).
    pub interned_components: u64,
    /// Bit-array size in bits (bitstate mode only).
    pub bit_slots: u64,
    /// Hash probes per state (bitstate mode only).
    pub bit_hashes: u32,
    /// Bits set at end of run (bitstate mode only; the observed fill).
    pub bits_set: u64,
    /// Frontier segments written to disk (spillable frontier only).
    pub spill_segments: u64,
    /// Frontier nodes that round-tripped through disk.
    pub spilled_nodes: u64,
    /// Bytes written to frontier segment files.
    pub spilled_bytes: u64,
}

impl std::fmt::Display for CheckStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth {}, {} terminal, {} boundary, peak frontier {}, {:.1?}",
            self.unique_states,
            self.transitions,
            self.max_depth,
            self.terminal_states,
            self.boundary_hits,
            self.peak_frontier,
            self.duration
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_per_sec_zero_duration() {
        let s = CheckStats::default();
        assert_eq!(s.states_per_sec(), 0.0);
    }

    #[test]
    fn states_per_sec_computes_rate() {
        let s = CheckStats {
            unique_states: 1000,
            duration: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((s.states_per_sec() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_peak_frontier() {
        let s = CheckStats {
            peak_frontier: 42,
            ..Default::default()
        };
        assert!(s.to_string().contains("peak frontier 42"));
    }

    #[test]
    fn hash_compact_omissions_match_birthday_bound() {
        // Birthday bound n(n−1)/2 · 2⁻⁶⁴: ≈ 2.7×10⁻⁴ at 10⁸ states —
        // negligible — but ≈ 2.7 at 10¹⁰, where hash compaction is no
        // longer trustworthy. Pin both regimes.
        let at = |n: u64| CheckStats {
            unique_states: n,
            ..Default::default()
        };
        let e8 = at(100_000_000).expected_omissions();
        assert!(e8 > 2.5e-4 && e8 < 3.0e-4, "expected ~2.7e-4, got {e8}");
        let e10 = at(10_000_000_000).expected_omissions();
        assert!(e10 > 2.5 && e10 < 3.0, "expected ~2.7, got {e10}");
        let p = at(10_000_000_000).omission_probability();
        assert!(p > 0.9 && p < 1.0, "P = 1 - exp(-2.7) ~ 0.93, got {p}");
        let p8 = at(100_000_000).omission_probability();
        assert!(p8 > 0.0 && p8 < e8);
    }

    #[test]
    fn exact_stores_report_zero_omissions() {
        for kind in [StoreKind::Exact, StoreKind::Collapse] {
            let s = CheckStats {
                unique_states: u64::MAX / 2,
                store: StoreStats {
                    kind,
                    ..Default::default()
                },
                ..Default::default()
            };
            assert_eq!(s.expected_omissions(), 0.0);
            assert_eq!(s.omission_probability(), 0.0);
        }
    }

    #[test]
    fn bitstate_omissions_use_observed_fill() {
        let s = CheckStats {
            unique_states: 1000,
            store: StoreStats {
                kind: StoreKind::Bitstate,
                bit_slots: 1 << 20,
                bit_hashes: 3,
                bits_set: 1 << 19, // half full
                ..Default::default()
            },
            ..Default::default()
        };
        let e = s.expected_omissions();
        assert!((e - 1000.0 * 0.125).abs() < 1e-9, "n * 0.5^3, got {e}");
    }

    #[test]
    fn bytes_per_state_divides_store_bytes() {
        let s = CheckStats {
            unique_states: 10,
            store: StoreStats {
                store_bytes: 250,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.bytes_per_state() - 25.0).abs() < 1e-9);
        assert_eq!(CheckStats::default().bytes_per_state(), 0.0);
    }

    #[test]
    fn display_mentions_counts() {
        let s = CheckStats {
            unique_states: 7,
            transitions: 12,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("7 states"));
        assert!(text.contains("12 transitions"));
    }
}
