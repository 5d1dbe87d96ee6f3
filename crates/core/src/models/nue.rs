//! A parameterized N-UE attach/location-update population — the
//! hyper-scale stress model.
//!
//! Real screening models (S1–S4) top out around 10⁴–10⁵ states; the
//! paper's scaling question (§3.2, "the state explosion problem") only
//! bites when a *population* of UEs is modeled at once. `NUeModel` is that
//! population distilled: `n` independent UEs, each cycling through `c`
//! NAS-context phases (attach → authenticate → secure → update → …), with
//! the full cross product `cⁿ` reachable. At `n = 6, c = 22` that is
//! 22⁶ ≈ 1.13 × 10⁸ distinct states — past the point where an exact
//! hash-set store or an in-RAM frontier survives on a laptop, which is
//! exactly what the collapse store and the disk-spilling frontier are for.
//!
//! Each UE carries a deterministic 20-byte "NAS context" blob (phase,
//! identity digits, derived key material), so a full state serializes to
//! `n × 20` bytes the way a real per-subscriber MME record would. The
//! blobs take only `c` distinct values per UE, which is the COLLAPSE
//! insight: interning per-component turns ~120 bytes of state into a few
//! small indices.

use mck::{Model, Property};

/// `n` UEs × `c` context phases, `cⁿ` reachable states.
#[derive(Clone, Debug)]
pub struct NUeModel {
    /// Number of UEs (`n`).
    pub ues: usize,
    /// Context phases per UE (`c`).
    pub contexts: u8,
}

impl NUeModel {
    /// The CI-sized arm: 10⁶ states (`10⁶ = 10⁶`), exhaustive in seconds.
    pub fn trimmed() -> Self {
        Self {
            ues: 6,
            contexts: 10,
        }
    }

    /// The 10⁸-state arm (22⁶ = 113 379 904): run it with the collapse
    /// store and a spillable frontier, and budget an afternoon.
    pub fn full() -> Self {
        Self {
            ues: 6,
            contexts: 22,
        }
    }

    /// Exact reachable-state count, `cⁿ`.
    pub fn state_count(&self) -> u64 {
        u64::from(self.contexts).pow(self.ues as u32)
    }

    /// The deterministic 20-byte NAS-context blob of `ue` at `phase`:
    /// phase byte + 19 bytes of splitmix-derived identity/key material.
    fn context_blob(&self, ue: usize, phase: u8) -> [u8; 20] {
        let mut blob = [0u8; 20];
        blob[0] = phase;
        let mut x = (ue as u64) << 8 | u64::from(phase) | 0xA11C_E000_0000_0000;
        for chunk in blob[1..17].chunks_exact_mut(8) {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            chunk.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        blob[17] = ue as u8;
        blob
    }
}

impl Model for NUeModel {
    /// One phase byte per UE.
    type State = Box<[u8]>;
    /// Index of the UE whose NAS procedure advances.
    type Action = u8;

    fn init_states(&self) -> Vec<Box<[u8]>> {
        vec![vec![0u8; self.ues].into_boxed_slice()]
    }

    fn actions(&self, _state: &Box<[u8]>, out: &mut Vec<u8>) {
        out.extend(0..self.ues as u8);
    }

    fn next_state(&self, state: &Box<[u8]>, action: &u8) -> Option<Box<[u8]>> {
        let ue = *action as usize;
        if ue >= self.ues {
            return None;
        }
        let mut next = state.clone();
        next[ue] = (next[ue] + 1) % self.contexts;
        Some(next)
    }

    fn properties(&self) -> Vec<Property<Self>> {
        // Unreachable by construction: phases stay below `c`. An honest
        // sanity net — the 10⁸-state sweep verifies it over every state.
        vec![Property::never("phase-overflow", |m: &Self, s: &_| {
            s.iter().any(|&p| p >= m.contexts)
        })]
    }

    fn format_state(&self, s: &Box<[u8]>) -> String {
        let phases: Vec<String> = s.iter().map(|p| p.to_string()).collect();
        format!("ue[{}]", phases.join(" "))
    }

    fn format_action(&self, a: &u8) -> String {
        format!("advance ue{a}")
    }

    fn components(&self, s: &Box<[u8]>, out: &mut Vec<Vec<u8>>) -> bool {
        out.resize_with(s.len(), Vec::new);
        for (ue, (&phase, c)) in s.iter().zip(out.iter_mut()).enumerate() {
            c.clear();
            c.extend_from_slice(&self.context_blob(ue, phase));
        }
        true
    }

    /// Ample set: advance UE 0 only. Every UE's advance commutes with every
    /// other's (disjoint phase bytes) and no property distinguishes
    /// interleavings (`phase-overflow` never fires, so all actions are
    /// invisible); the engines' cycle proviso re-expands any state whose
    /// ample successor is already visited, which keeps the reduction sound
    /// on this fully cyclic graph.
    fn reduced_actions(&self, _state: &Box<[u8]>, out: &mut Vec<u8>) -> bool {
        out.clear();
        out.push(0);
        self.ues > 1
    }

    fn reassemble(&self, comps: &[Vec<u8>]) -> Option<Box<[u8]>> {
        if comps.len() != self.ues {
            return None;
        }
        let mut phases = vec![0u8; self.ues];
        for (ue, c) in comps.iter().enumerate() {
            let &phase = c.first()?;
            if phase >= self.contexts || c[..] != self.context_blob(ue, phase) {
                return None;
            }
            phases[ue] = phase;
        }
        Some(phases.into_boxed_slice())
    }

    fn describe(&self) -> String {
        format!("nue(n={}, c={})", self.ues, self.contexts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mck::{Checker, SearchStrategy, StoreMode};

    #[test]
    fn reachable_space_is_the_full_cross_product() {
        let model = NUeModel {
            ues: 3,
            contexts: 4,
        };
        let r = Checker::new(model.clone())
            .strategy(SearchStrategy::Bfs)
            .run();
        assert!(r.complete);
        assert_eq!(r.stats.unique_states, model.state_count());
        assert_eq!(r.stats.unique_states, 64);
        assert!(r.violations.is_empty(), "phase-overflow is unreachable");
    }

    #[test]
    fn state_fingerprints_are_distinct_over_the_population() {
        // 10⁴ states under both eventually-masks: the hash-compact store
        // must key all 20 000 nodes apart.
        let model = NUeModel {
            ues: 4,
            contexts: 10,
        };
        let graph = mck::explore(&model, 20_000);
        assert!(graph.complete);
        assert_eq!(graph.states.len(), 10_000);
        let fps: std::collections::HashSet<u64> = graph
            .states
            .iter()
            .flat_map(|s| [0, 1].map(|ebits| mck::fingerprint::fingerprint_with_ebits(s, ebits)))
            .collect();
        assert_eq!(fps.len(), 20_000);
    }

    #[test]
    fn collapse_interning_roundtrips_context_blobs() {
        let model = NUeModel {
            ues: 4,
            contexts: 5,
        };
        let state: Box<[u8]> = vec![0, 3, 4, 1].into_boxed_slice();
        let mut comps = Vec::new();
        assert!(model.components(&state, &mut comps));
        assert_eq!(comps.len(), 4);
        assert!(comps.iter().all(|c| c.len() == 20));
        assert_eq!(model.reassemble(&comps).as_deref(), Some(&state[..]));
        // Buffers left over from a previous call, more of them than the
        // arity and each longer than any blob, are overwritten in place.
        let mut dirty = vec![vec![0xEE; 64]; comps.len() + 2];
        assert!(model.components(&state, &mut dirty));
        assert_eq!(dirty, comps);
        // A forged blob (phase byte rewritten, key material stale) is
        // rejected rather than silently accepted.
        comps[2][0] = 1;
        assert!(model.reassemble(&comps).is_none());
    }

    #[test]
    fn collapse_store_sweeps_the_trimmed_arm_cheaply() {
        // A miniature of the 10⁸ protocol: collapse + spill + no path
        // tracking, asserting exact coverage and real compression.
        let model = NUeModel {
            ues: 4,
            contexts: 8,
        }; // 4096 states
        let exact = Checker::new(model.clone())
            .strategy(SearchStrategy::Bfs)
            .store(StoreMode::Exact)
            .run();
        let collapsed = Checker::new(model.clone())
            .strategy(SearchStrategy::Bfs)
            .store(StoreMode::Collapse)
            .spill(256)
            .track_paths(false)
            .run();
        assert!(exact.complete && collapsed.complete);
        assert_eq!(exact.stats.unique_states, 4096);
        assert_eq!(collapsed.stats.unique_states, 4096);
        let exact_bps = exact.stats.bytes_per_state();
        let collapsed_bps = collapsed.stats.bytes_per_state();
        assert!(
            exact_bps >= 4.0 * collapsed_bps,
            "collapse must be ≥4× smaller: exact {exact_bps:.1} B/state vs \
             collapse {collapsed_bps:.1} B/state"
        );
        assert!(collapsed.stats.store.spill_segments > 0, "frontier spilled");
    }

    #[test]
    fn collapse_store_accounting_is_pinned() {
        // The smoke-size `check_nue` configuration of cnvbench, whose
        // `check_nue/n4c10` fingerprint these figures are: a change to the
        // interners, the tuple arena, the index or the spill format shows
        // up here in the tier-1 run.
        let r = Checker::new(NUeModel {
            ues: 4,
            contexts: 10,
        })
        .strategy(SearchStrategy::Bfs)
        .store(StoreMode::Collapse)
        .spill(163)
        .track_paths(false)
        .run();
        assert!(r.complete);
        let s = &r.stats;
        assert_eq!(
            (s.unique_states, s.transitions, s.max_depth),
            (10_000, 40_000, 36)
        );
        assert_eq!(
            (s.store.store_bytes, s.store.interned_components),
            (265_984, 40)
        );
        assert_eq!(
            (s.store.spill_segments, s.store.spilled_bytes),
            (56, 1_004_080)
        );
    }

    #[test]
    fn por_reduces_the_population_and_agrees_on_verdicts() {
        let model = NUeModel {
            ues: 4,
            contexts: 6,
        }; // 1296 states
        let full = Checker::new(model.clone())
            .strategy(SearchStrategy::Bfs)
            .run();
        let reduced = Checker::new(model.clone())
            .strategy(SearchStrategy::Bfs)
            .por(true)
            .run();
        assert!(full.complete && reduced.complete);
        assert_eq!(full.stats.unique_states, 1296);
        assert!(
            reduced.stats.transitions < full.stats.transitions,
            "ample sets must cut expansions: {} vs {}",
            reduced.stats.transitions,
            full.stats.transitions
        );
        assert!(full.violations.is_empty() && reduced.violations.is_empty());
    }
}
