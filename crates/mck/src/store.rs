//! Pluggable visited-state stores for the exploration engines.
//!
//! The checker historically kept one 64-bit fingerprint per visited node
//! (Spin's *hash-compact* mode). That is cheap but silently lossy: the
//! birthday bound over 2^64 puts the expected number of fingerprint
//! collisions — each of which prunes a genuinely new state — around
//! 2.7 × 10⁻⁴ at 10^8 states, and past 2 once runs reach the 10^10 range.
//! This module makes the store a first-class, selectable component
//! ([`StoreMode`]) with two exact modes and one deliberately lossy one:
//!
//! * **Hash-compact** ([`StoreMode::HashCompact`], the default) — the
//!   historical 64-bit fingerprint set. Omission probability is reported in
//!   [`CheckStats`](crate::CheckStats) instead of being hand-waved away.
//! * **Exact** ([`StoreMode::Exact`]) — stores the full serialized state
//!   vector (the concatenated [`Model::components`] bytes). Definitive and
//!   heaviest; the baseline other modes are measured against.
//! * **Collapse** ([`StoreMode::Collapse`]) — Spin's COLLAPSE idea: each
//!   state is split into components (per-process control+locals, per-channel
//!   queues, globals), every component is interned in its own table, and the
//!   visited set stores only the tuple of small component indices. Exact
//!   (tuples are compared, not hashed away) and reconstructible
//!   ([`CollapseSet::reconstruct`]), at a fraction of the bytes/state —
//!   protocol states repeat the same few thousand component values across
//!   hundreds of millions of combinations.
//! * **Bitstate** ([`StoreMode::Bitstate`]) — a Bloom filter over a sized
//!   bit array with `k` derived hashes. The cheapest store by far (a fraction
//!   of a *bit* of overhead per state at low fill), but one-sided: a hash
//!   collision makes a new state look visited and silently prunes it, so
//!   runs in this mode are always reported incomplete, with the expected
//!   omission probability computed from the actual fill ratio.
//!
//! Exact and Collapse need the model to expose a component split
//! ([`Model::components`] / [`Model::reassemble`]); models that do not are
//! transparently downgraded to hash-compact and the downgrade is recorded in
//! [`StoreStats::mode`] — a run never silently pretends to be exact.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

use crate::fingerprint::{bloom_fingerprint, fingerprint, fingerprint_with_ebits, splitmix64, Fx};
use crate::model::Model;
use crate::stats::{StoreKind, StoreStats};

/// Which visited-state representation an engine uses. Selected with
/// [`Checker::store`](crate::Checker::store); the default is
/// [`StoreMode::HashCompact`], the engine's historical behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreMode {
    /// One 64-bit fingerprint per node (Spin hash-compact). Tiny, fast, and
    /// lossy with probability ~`n²/2^65` over a whole run — quantified in
    /// [`CheckStats`](crate::CheckStats), not assumed negligible.
    HashCompact,
    /// Full serialized state vectors. Exact; the bytes/state baseline.
    Exact,
    /// COLLAPSE-style component interning: exact, reconstructible, and far
    /// smaller than [`StoreMode::Exact`] whenever components repeat.
    Collapse,
    /// Bloom-filter bitstate hashing over `2^log2_bits` bits with `hashes`
    /// derived probes per node. Never claims completeness.
    Bitstate {
        /// log₂ of the bit-array size (e.g. 30 ⇒ 2^30 bits = 128 MiB).
        log2_bits: u8,
        /// Number of derived hash probes per state (Spin's `-k`), ≥ 1.
        hashes: u8,
    },
}

impl StoreMode {
    /// Human-readable label, used by benches and reports so new modes
    /// self-describe instead of being hard-coded strings at call sites.
    pub fn label(&self) -> String {
        match self {
            StoreMode::HashCompact => "hash-compact".into(),
            StoreMode::Exact => "exact".into(),
            StoreMode::Collapse => "collapse".into(),
            StoreMode::Bitstate { log2_bits, hashes } => {
                format!("bitstate(m=2^{log2_bits}, k={hashes})")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Collapse: per-slot component interners + a flat tuple arena.
// ---------------------------------------------------------------------------

/// Interner for one component slot: component bytes → dense id, assigned
/// in first-seen order. The keys are component encodings the model
/// generates, so the map hashes with [`Fx`] rather than SipHash.
#[derive(Debug, Default)]
struct Interner {
    ids: HashMap<Box<[u8]>, u32, BuildHasherDefault<Fx>>,
    /// id → bytes, for [`CollapseSet::reconstruct`].
    items: Vec<Box<[u8]>>,
    bytes: u64,
}

impl Interner {
    fn intern(&mut self, comp: &[u8]) -> u32 {
        if let Some(&id) = self.ids.get(comp) {
            return id;
        }
        let id = self.items.len() as u32;
        let boxed: Box<[u8]> = comp.into();
        self.bytes += comp.len() as u64 + 16; // payload + one Box header
        self.ids.insert(boxed.clone(), id);
        self.items.push(boxed);
        id
    }
}

/// Empty marker for the open-addressed tuple index.
const EMPTY: u32 = u32::MAX;

/// The COLLAPSE visited set: component interners plus an exact set of
/// `(component-id tuple, ebits)` entries in a flat byte arena.
///
/// Entries are fixed-width: every component id is encoded in `width` bytes
/// (1, 2 or 4 — grown globally, with a one-time arena re-encode, the first
/// time any interner outgrows the current width) followed by the 4-byte
/// eventually-bits mask. Membership is exact: the index maps a hash to an
/// entry ordinal whose bytes are compared in full.
#[derive(Debug)]
pub struct CollapseSet {
    slots: Vec<Interner>,
    /// Bytes per component id (1, 2, or 4).
    width: usize,
    /// Entry length: `slots.len() * width + 4`.
    entry_len: usize,
    /// Fixed-width entries, ordinal-indexed.
    arena: Vec<u8>,
    /// Open-addressed hash index of entry ordinals.
    index: Vec<u32>,
    len: u64,
    /// The component ids of the tuple being inserted or looked up.
    ids: Vec<u32>,
    /// Its encoded entry.
    scratch: Vec<u8>,
}

impl CollapseSet {
    /// An empty set for states that split into `slots` components.
    pub fn new(slots: usize) -> Self {
        CollapseSet {
            slots: (0..slots).map(|_| Interner::default()).collect(),
            width: 1,
            entry_len: slots + 4,
            arena: Vec::new(),
            index: vec![EMPTY; 1024],
            len: 0,
            ids: Vec::with_capacity(slots),
            scratch: Vec::new(),
        }
    }

    /// Number of component slots per state.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Distinct `(tuple, ebits)` entries stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total distinct components across all slots.
    pub fn interned_components(&self) -> u64 {
        self.slots.iter().map(|s| s.items.len() as u64).sum()
    }

    /// Approximate resident bytes: tuple arena + index + interner payloads.
    pub fn approx_bytes(&self) -> u64 {
        let interner_bytes: u64 = self
            .slots
            .iter()
            .map(|s| s.bytes * 2 + s.items.len() as u64 * 24)
            .sum();
        self.arena.capacity() as u64 + self.index.capacity() as u64 * 4 + interner_bytes
    }

    /// Encode `self.ids` and `ebits` into `self.scratch` at the current width.
    fn encode(&mut self, ebits: u32) {
        self.scratch.clear();
        for &id in &self.ids {
            self.scratch
                .extend_from_slice(&id.to_le_bytes()[..self.width]);
        }
        self.scratch.extend_from_slice(&ebits.to_le_bytes());
    }

    fn entry(&self, ordinal: u32) -> &[u8] {
        let at = ordinal as usize * self.entry_len;
        &self.arena[at..at + self.entry_len]
    }

    /// Widen component ids and re-encode every stored entry. Rare: fires
    /// once when an interner crosses 256 (then 65536) distinct components.
    fn grow_width(&mut self, new_width: usize) {
        let old_width = self.width;
        let old_len = self.entry_len;
        let nslots = self.slots.len();
        let new_len = nslots * new_width + 4;
        let mut arena = Vec::with_capacity(self.arena.len() / old_len * new_len);
        for e in 0..self.len as usize {
            let src = &self.arena[e * old_len..(e + 1) * old_len];
            for s in 0..nslots {
                let mut id = [0u8; 4];
                id[..old_width].copy_from_slice(&src[s * old_width..(s + 1) * old_width]);
                arena.extend_from_slice(&id[..new_width]);
            }
            arena.extend_from_slice(&src[nslots * old_width..]); // ebits
        }
        self.arena = arena;
        self.width = new_width;
        self.entry_len = new_len;
        self.rebuild_index();
    }

    fn rebuild_index(&mut self) {
        let cap = self.index.len();
        for slot in self.index.iter_mut() {
            *slot = EMPTY;
        }
        for e in 0..self.len as usize {
            let h = fingerprint(&&self.arena[e * self.entry_len..(e + 1) * self.entry_len]);
            let mask = cap - 1;
            let mut i = (h as usize) & mask;
            while self.index[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.index[i] = e as u32;
        }
    }

    fn maybe_grow_index(&mut self) {
        if (self.len as usize) * 2 >= self.index.len() {
            self.index = vec![EMPTY; self.index.len() * 2];
            self.rebuild_index();
        }
    }

    /// Intern `comps` and insert the `(tuple, ebits)` entry. Returns `true`
    /// when the entry is new.
    ///
    /// # Panics
    ///
    /// When `comps` does not have the arity the set was created with: the
    /// fixed-width arena would otherwise store a misaligned entry.
    pub fn insert(&mut self, comps: &[Vec<u8>], ebits: u32) -> bool {
        assert_eq!(comps.len(), self.slots.len(), "component arity is fixed");
        self.ids.clear();
        let mut max_id = 0u32;
        for (slot, comp) in self.slots.iter_mut().zip(comps) {
            let id = slot.intern(comp);
            self.ids.push(id);
            max_id = max_id.max(id);
        }
        while self.width < 4 && u64::from(max_id) >= 1u64 << (8 * self.width) {
            let next = self.width * 2;
            self.grow_width(next);
        }
        self.encode(ebits);
        let Err(i) = self.probe() else {
            return false;
        };
        self.arena.extend_from_slice(&self.scratch);
        self.index[i] = self.len as u32;
        self.len += 1;
        self.maybe_grow_index();
        true
    }

    /// Membership query without inserting (used by the POR cycle proviso).
    /// Panics on a wrong arity, like [`CollapseSet::insert`].
    pub fn contains(&mut self, comps: &[Vec<u8>], ebits: u32) -> bool {
        assert_eq!(comps.len(), self.slots.len(), "component arity is fixed");
        self.ids.clear();
        for (slot, comp) in self.slots.iter().zip(comps) {
            match slot.ids.get(comp.as_slice()) {
                Some(&id) => self.ids.push(id),
                // An unseen component means an unseen state.
                None => return false,
            }
        }
        self.encode(ebits);
        self.probe().is_ok()
    }

    /// Look up the encoded entry in `self.scratch`: its ordinal when stored,
    /// else the empty index slot where it belongs.
    fn probe(&self) -> Result<u32, usize> {
        let entry = self.scratch.as_slice();
        let mask = self.index.len() - 1;
        let mut i = (fingerprint(&entry) as usize) & mask;
        loop {
            match self.index[i] {
                EMPTY => return Err(i),
                ord if self.entry(ord) == entry => return Ok(ord),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Decode entry `ordinal` back into its component byte vectors and
    /// eventually-bits — the inverse of [`CollapseSet::insert`], proving the
    /// interning is lossless (pinned by a proptest).
    pub fn reconstruct(&self, ordinal: u64) -> Option<(Vec<Vec<u8>>, u32)> {
        if ordinal >= self.len {
            return None;
        }
        let entry = self.entry(ordinal as u32);
        let mut comps = Vec::with_capacity(self.slots.len());
        for s in 0..self.slots.len() {
            let mut id = [0u8; 4];
            id[..self.width].copy_from_slice(&entry[s * self.width..(s + 1) * self.width]);
            let id = u32::from_le_bytes(id);
            comps.push(self.slots[s].items.get(id as usize)?.to_vec());
        }
        let ebits = u32::from_le_bytes(entry[self.slots.len() * self.width..].try_into().ok()?);
        Some((comps, ebits))
    }
}

// ---------------------------------------------------------------------------
// Bitstate: a plain (sequential) Bloom filter.
// ---------------------------------------------------------------------------

/// Sequential Bloom filter over `2^log2_bits` bits with `k` probes. Probe
/// `i` sits at `fp + i · (splitmix64(fp) | 1)` for the state's
/// [`bloom_fingerprint`] `fp`.
#[derive(Debug)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    mask: u64,
    k: u8,
    bits_set: u64,
}

impl BitSet {
    pub(crate) fn new(log2_bits: u8, hashes: u8) -> Self {
        let log2 = log2_bits.clamp(10, 40);
        let bits = 1u64 << log2;
        BitSet {
            words: vec![0u64; (bits / 64) as usize],
            mask: bits - 1,
            k: hashes.max(1),
            bits_set: 0,
        }
    }

    pub(crate) fn bit_slots(&self) -> u64 {
        self.mask + 1
    }

    pub(crate) fn bits_set(&self) -> u64 {
        self.bits_set
    }

    /// Insert by fingerprint; `true` when at least one probe bit was unset
    /// (i.e. the state is definitely new).
    pub(crate) fn insert(&mut self, fp: u64) -> bool {
        let h2 = splitmix64(fp) | 1;
        let mut new = false;
        let mut h = fp;
        for _ in 0..self.k {
            let bit = h & self.mask;
            let word = (bit / 64) as usize;
            let m = 1u64 << (bit % 64);
            if self.words[word] & m == 0 {
                self.words[word] |= m;
                self.bits_set += 1;
                new = true;
            }
            h = h.wrapping_add(h2);
        }
        new
    }

    /// Probe without inserting.
    pub(crate) fn contains(&self, fp: u64) -> bool {
        let h2 = splitmix64(fp) | 1;
        let mut h = fp;
        for _ in 0..self.k {
            let bit = h & self.mask;
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            h = h.wrapping_add(h2);
        }
        true
    }
}

/// Lock-free Bloom filter for the parallel engine: same probe sequence as
/// [`BitSet`], with `fetch_or` bit claims so workers never coordinate.
#[derive(Debug)]
pub(crate) struct AtomicBitSet {
    words: Vec<std::sync::atomic::AtomicU64>,
    mask: u64,
    k: u8,
}

impl AtomicBitSet {
    pub(crate) fn new(log2_bits: u8, hashes: u8) -> Self {
        use std::sync::atomic::AtomicU64;
        let log2 = log2_bits.clamp(10, 40);
        let bits = 1u64 << log2;
        AtomicBitSet {
            words: (0..bits / 64).map(|_| AtomicU64::new(0)).collect(),
            mask: bits - 1,
            k: hashes.max(1),
        }
    }

    pub(crate) fn bit_slots(&self) -> u64 {
        self.mask + 1
    }

    pub(crate) fn hashes(&self) -> u8 {
        self.k
    }

    /// Insert by fingerprint; `true` when at least one probe bit was unset.
    /// Two workers inserting the same fingerprint concurrently may *both*
    /// see a freshly-claimed bit and report "new" — a benign race that can
    /// double-expand a node within one layer. Bitstate coverage is
    /// probabilistic by design, and the duplicate work is bounded by the
    /// layer width; verdict soundness is unaffected (expanding a node twice
    /// checks the same properties twice).
    pub(crate) fn insert(&self, fp: u64) -> bool {
        use std::sync::atomic::Ordering;
        let h2 = splitmix64(fp) | 1;
        let mut new = false;
        let mut h = fp;
        for _ in 0..self.k {
            let bit = h & self.mask;
            let m = 1u64 << (bit % 64);
            let prev = self.words[(bit / 64) as usize].fetch_or(m, Ordering::Relaxed);
            if prev & m == 0 {
                new = true;
            }
            h = h.wrapping_add(h2);
        }
        new
    }

    /// Population count (end-of-run accounting; not cheap, not concurrent).
    pub(crate) fn count_set(&self) -> u64 {
        use std::sync::atomic::Ordering;
        self.words
            .iter()
            .map(|w| u64::from(w.load(Ordering::Relaxed).count_ones()))
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The sequential engines' store front-end.
// ---------------------------------------------------------------------------

/// Serialize a state's components into one length-prefixed byte vector (the
/// Exact-mode representation, and the frontier spill format's payload).
pub(crate) fn pack_components(comps: &[Vec<u8>], out: &mut Vec<u8>) {
    out.clear();
    for c in comps {
        out.extend_from_slice(&(c.len() as u32).to_le_bytes());
        out.extend_from_slice(c);
    }
}

/// The visited set used by the sequential engines (BFS and DFS), dispatching
/// on [`StoreMode`]. Exact/Collapse require [`Model::components`]; when the
/// model has none the store downgrades to hash-compact and says so in its
/// [`StoreStats::mode`] label.
pub(crate) struct SeqStore {
    inner: SeqStoreInner,
    mode_label: &'static str,
    comps: Vec<Vec<u8>>,
    packed: Vec<u8>,
}

enum SeqStoreInner {
    /// Finished 64-bit fingerprints: the set's hasher only has to place
    /// them, so it is the one-multiply [`Fx`] rather than SipHash.
    HashCompact(HashSet<u64, BuildHasherDefault<Fx>>),
    Exact {
        set: HashSet<(Box<[u8]>, u32)>,
        payload_bytes: u64,
    },
    Collapse(CollapseSet),
    Bitstate(BitSet),
}

impl SeqStore {
    /// Build the store for `model`, probing one state for component support.
    pub(crate) fn new<M: Model>(mode: StoreMode, model: &M, probe: Option<&M::State>) -> Self {
        let mut comps = Vec::new();
        let componentized = probe
            .map(|s| model.components(s, &mut comps))
            .unwrap_or(false);
        let arity = comps.len();
        let (inner, mode_label) = match mode {
            StoreMode::HashCompact => (
                SeqStoreInner::HashCompact(HashSet::default()),
                "hash-compact",
            ),
            StoreMode::Exact if componentized => (
                SeqStoreInner::Exact {
                    set: HashSet::new(),
                    payload_bytes: 0,
                },
                "exact",
            ),
            StoreMode::Collapse if componentized => {
                (SeqStoreInner::Collapse(CollapseSet::new(arity)), "collapse")
            }
            StoreMode::Exact | StoreMode::Collapse => (
                SeqStoreInner::HashCompact(HashSet::default()),
                "hash-compact (model has no component split; exact/collapse unavailable)",
            ),
            StoreMode::Bitstate { log2_bits, hashes } => (
                SeqStoreInner::Bitstate(BitSet::new(log2_bits, hashes)),
                "bitstate",
            ),
        };
        SeqStore {
            inner,
            mode_label,
            comps,
            packed: Vec::new(),
        }
    }

    /// True for bitstate mode, whose runs must never claim completeness.
    pub(crate) fn is_bitstate(&self) -> bool {
        matches!(self.inner, SeqStoreInner::Bitstate(_))
    }

    /// Record `(state, ebits)`; `true` when previously unseen.
    pub(crate) fn insert<M: Model>(&mut self, model: &M, state: &M::State, ebits: u32) -> bool {
        match &mut self.inner {
            SeqStoreInner::HashCompact(set) => set.insert(fingerprint_with_ebits(state, ebits)),
            SeqStoreInner::Bitstate(bits) => bits.insert(bloom_fingerprint(state, ebits)),
            SeqStoreInner::Exact { set, payload_bytes } => {
                assert!(
                    model.components(state, &mut self.comps),
                    "probed componentized"
                );
                pack_components(&self.comps, &mut self.packed);
                let key: Box<[u8]> = self.packed.as_slice().into();
                let bytes = key.len() as u64;
                if set.insert((key, ebits)) {
                    *payload_bytes += bytes;
                    true
                } else {
                    false
                }
            }
            SeqStoreInner::Collapse(collapse) => {
                assert!(
                    model.components(state, &mut self.comps),
                    "probed componentized"
                );
                collapse.insert(&self.comps, ebits)
            }
        }
    }

    /// Membership probe without inserting (POR cycle proviso). Bitstate may
    /// report false positives; that only makes the proviso more conservative
    /// (more full expansions), never less sound.
    pub(crate) fn contains<M: Model>(&mut self, model: &M, state: &M::State, ebits: u32) -> bool {
        match &mut self.inner {
            SeqStoreInner::HashCompact(set) => set.contains(&fingerprint_with_ebits(state, ebits)),
            SeqStoreInner::Bitstate(bits) => bits.contains(bloom_fingerprint(state, ebits)),
            SeqStoreInner::Exact { set, .. } => {
                assert!(
                    model.components(state, &mut self.comps),
                    "probed componentized"
                );
                pack_components(&self.comps, &mut self.packed);
                // Boxing just for the probe is fine: the proviso path is rare.
                let key: Box<[u8]> = self.packed.as_slice().into();
                set.contains(&(key, ebits))
            }
            SeqStoreInner::Collapse(collapse) => {
                assert!(
                    model.components(state, &mut self.comps),
                    "probed componentized"
                );
                collapse.contains(&self.comps, ebits)
            }
        }
    }

    /// Store-level statistics for [`CheckStats`](crate::CheckStats).
    pub(crate) fn stats(&self) -> StoreStats {
        match &self.inner {
            SeqStoreInner::HashCompact(set) => StoreStats {
                kind: StoreKind::HashCompact,
                mode: self.mode_label,
                store_bytes: set.capacity() as u64 * 9,
                ..StoreStats::default()
            },
            SeqStoreInner::Exact { set, payload_bytes } => StoreStats {
                kind: StoreKind::Exact,
                mode: self.mode_label,
                store_bytes: payload_bytes + set.capacity() as u64 * 29,
                ..StoreStats::default()
            },
            SeqStoreInner::Collapse(c) => StoreStats {
                kind: StoreKind::Collapse,
                mode: self.mode_label,
                store_bytes: c.approx_bytes(),
                interned_components: c.interned_components(),
                ..StoreStats::default()
            },
            SeqStoreInner::Bitstate(b) => StoreStats {
                kind: StoreKind::Bitstate,
                mode: self.mode_label,
                store_bytes: b.bit_slots() / 8,
                bit_slots: b.bit_slots(),
                bit_hashes: u32::from(b.k),
                bits_set: b.bits_set(),
                ..StoreStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_insert_rejects_duplicates() {
        let mut set = CollapseSet::new(2);
        let a = vec![vec![1, 2, 3], vec![9]];
        assert!(set.insert(&a, 0));
        assert!(!set.insert(&a, 0));
        assert!(set.insert(&a, 1), "different ebits is a different node");
        assert_eq!(set.len(), 2);
    }

    #[test]
    #[should_panic(expected = "component arity is fixed")]
    fn collapse_insert_rejects_a_wrong_arity() {
        let mut set = CollapseSet::new(2);
        set.insert(&[vec![1, 2, 3, 4, 5]], 0);
    }

    #[test]
    fn collapse_reconstruct_roundtrips() {
        let mut set = CollapseSet::new(3);
        let states = [
            (vec![vec![1], vec![2, 2], vec![]], 0u32),
            (vec![vec![1], vec![3, 3], vec![7]], 5u32),
            (vec![vec![4], vec![2, 2], vec![7]], 0u32),
        ];
        for (comps, ebits) in &states {
            assert!(set.insert(comps, *ebits));
        }
        for (i, (comps, ebits)) in states.iter().enumerate() {
            let (got, gotb) = set.reconstruct(i as u64).expect("stored");
            assert_eq!(&got, comps);
            assert_eq!(gotb, *ebits);
        }
    }

    #[test]
    fn collapse_width_growth_preserves_membership() {
        let mut set = CollapseSet::new(1);
        // 600 distinct components forces the id width from 1 to 2 bytes.
        for i in 0..600u32 {
            assert!(set.insert(&[i.to_le_bytes().to_vec()], 0));
        }
        assert_eq!(set.len(), 600);
        for i in 0..600u32 {
            assert!(
                !set.insert(&[i.to_le_bytes().to_vec()], 0),
                "still present after widening"
            );
            assert!(set.contains(&[i.to_le_bytes().to_vec()], 0));
        }
        let (comps, _) = set.reconstruct(42).unwrap();
        assert_eq!(comps[0], 42u32.to_le_bytes().to_vec());
    }

    #[test]
    fn collapse_contains_does_not_insert() {
        let mut set = CollapseSet::new(1);
        assert!(!set.contains(&[vec![1]], 0));
        assert!(set.insert(&[vec![1]], 0));
        assert!(set.contains(&[vec![1]], 0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn bitstate_insert_and_contains() {
        let mut bits = BitSet::new(16, 3);
        assert!(!bits.contains(12345));
        assert!(bits.insert(12345));
        assert!(bits.contains(12345));
        assert!(!bits.insert(12345), "second insert finds all bits set");
        assert_eq!(bits.bits_set(), 3);
    }

    #[test]
    fn bitstate_fill_is_bounded_by_k_times_n() {
        let mut bits = BitSet::new(20, 2);
        for i in 0..1000u64 {
            bits.insert(splitmix64(i));
        }
        assert!(bits.bits_set() <= 2000);
        assert!(
            bits.bits_set() > 1900,
            "collisions should be rare at this fill"
        );
    }

    #[test]
    fn mode_labels_self_describe() {
        assert_eq!(StoreMode::Collapse.label(), "collapse");
        assert_eq!(
            StoreMode::Bitstate {
                log2_bits: 30,
                hashes: 3
            }
            .label(),
            "bitstate(m=2^30, k=3)"
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Interning is lossless on arbitrary input: any batch of random
        /// component tuples reconstructs, in insertion order, to exactly the
        /// bytes that went in — across arena growth and index rehashes —
        /// and re-inserting a seen tuple is always rejected.
        #[test]
        fn collapse_intern_reconstruct_identity(
            tuples in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        proptest::collection::vec(any::<u8>(), 0..5),
                        3,
                    ),
                    0u32..8,
                ),
                1..120,
            )
        ) {
            let mut set = CollapseSet::new(3);
            let mut order: Vec<(Vec<Vec<u8>>, u32)> = Vec::new();
            for (comps, ebits) in &tuples {
                let fresh = !order.iter().any(|(c, e)| c == comps && e == ebits);
                prop_assert_eq!(set.insert(comps, *ebits), fresh);
                prop_assert!(set.contains(comps, *ebits));
                if fresh {
                    order.push((comps.clone(), *ebits));
                }
            }
            prop_assert_eq!(set.len(), order.len() as u64);
            for (i, (comps, ebits)) in order.iter().enumerate() {
                let (got, got_ebits) = set.reconstruct(i as u64).expect("stored ordinal");
                prop_assert_eq!(&got, comps);
                prop_assert_eq!(got_ebits, *ebits);
            }
        }
    }
}
