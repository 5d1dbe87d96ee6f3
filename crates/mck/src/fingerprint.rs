//! State fingerprinting.
//!
//! The checker stores one `u64` per visited `(state, eventually-bits)` pair
//! instead of the full state, the same memory-saving trick as Spin's
//! hash-compact mode. Deterministic hashers (not `RandomState`) keep runs
//! reproducible across processes.
//!
//! Two fingerprints exist. [`fingerprint_with_ebits`] keys the hash-compact
//! store, DFS's stack set and the parallel engine's CAS table: it folds the
//! state in one word at a time with `Fx` and finishes with `splitmix64`.
//! The bitstate Bloom probes instead start from the byte-at-a-time FNV-1a
//! `bloom_fingerprint`, so an over-filled bitstate run prunes the same
//! states it always has.

use std::hash::{Hash, Hasher};

/// A 64-bit FNV-1a hasher: one multiply per byte. Not cryptographic, but
/// stable across runs and platforms, unlike SipHash with `RandomState`. It
/// backs [`fingerprint`], the bitstate probes and the collapse store's
/// tuple index.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// rustc's Fx hasher: each word is folded in with `rotate_left(5) ^ word`
/// and a multiply, taking 8 bytes at a time, then 4, then single bytes.
/// Far cheaper than SipHash on short keys and deterministic, but with no
/// protection against crafted collisions, so it is for keys the program
/// generates itself (state fingerprints, the collapse store's component
/// interners), never for outside input.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Fx(u64);

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Fx {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for Fx {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut rest = words.remainder();
        if rest.len() >= 4 {
            let (w, tail) = rest.split_at(4);
            self.add(u64::from(u32::from_le_bytes(
                w.try_into().expect("4-byte chunk"),
            )));
            rest = tail;
        }
        for &b in rest {
            self.add(u64::from(b));
        }
    }

    /// One word, without `write`'s chunking: every byte-slice key hashes
    /// its length this way before its bytes.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// SplitMix64's finalizer: every input bit reaches every output bit. It
/// finishes [`fingerprint_with_ebits`], whose last Fx multiply leaves the
/// low bits (the ones a table index keeps) depending only on low input
/// bits, and it derives the Bloom probes' second hash stream.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fingerprint a hashable value deterministically.
pub fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut h = Fnv1a::default();
    value.hash(&mut h);
    h.finish()
}

/// Fingerprint a state together with the satisfied-`Eventually` bitmask.
///
/// Visiting the same state with *different* eventually-progress must be
/// treated as a new node, otherwise a path that has already satisfied ◇p
/// could mask a violating path through the same state. Mixing the mask into
/// the fingerprint gives the product construction implicitly.
///
/// 64-bit fingerprints are *not* collision-free at scale: over `n` visited
/// states the expected number of colliding pairs is `n(n−1)/2 · 2⁻⁶⁴`,
/// about 2.7 × 10⁻⁴ at 10⁸ states and ≈ 2.7 at 10¹⁰, and each collision
/// silently prunes a genuinely new state. Hash-compact runs therefore
/// report that figure as their omission probability in
/// [`CheckStats`](crate::CheckStats::omission_probability) instead of
/// assuming it away; the exact and collapse stores
/// ([`StoreMode`](crate::StoreMode)) avoid the issue by construction.
pub fn fingerprint_with_ebits<T: Hash>(value: &T, ebits: u32) -> u64 {
    let mut h = Fx::default();
    value.hash(&mut h);
    h.write_u32(ebits);
    splitmix64(h.finish())
}

/// The FNV-1a fingerprint of a state and its eventually-bits that the
/// bitstate stores derive their Bloom probes from. Where the probes land
/// decides which states an over-filled run prunes, so it stays the
/// byte-at-a-time hash those runs were pinned with.
pub(crate) fn bloom_fingerprint<T: Hash>(value: &T, ebits: u32) -> u64 {
    let mut h = Fnv1a::default();
    value.hash(&mut h);
    ebits.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let a = fingerprint(&("attach", 42u32, true));
        let b = fingerprint(&("attach", 42u32, true));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fingerprint(&1u32), fingerprint(&2u32));
        assert_ne!(fingerprint(&"a"), fingerprint(&"b"));
    }

    #[test]
    fn ebits_change_fingerprint() {
        let s = "same-state";
        assert_ne!(
            fingerprint_with_ebits(&s, 0b01),
            fingerprint_with_ebits(&s, 0b10)
        );
    }

    #[test]
    fn ebits_zero_still_mixes_mask() {
        // fingerprint() and fingerprint_with_ebits(.., 0) hash different
        // byte streams; both are fine as long as each is used consistently.
        let s = 7u64;
        assert_eq!(fingerprint_with_ebits(&s, 0), fingerprint_with_ebits(&s, 0));
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of empty input is the offset basis.
        let h = Fnv1a::default();
        assert_eq!(h.finish(), FNV_OFFSET);
    }

    #[test]
    fn fx_folds_words_then_halves_then_bytes() {
        // 13 bytes = one 8-byte word, one 4-byte word, one single byte.
        let bytes: Vec<u8> = (1..=13).collect();
        let mut expect = Fx::default();
        expect.add(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        expect.add(u64::from(u32::from_le_bytes(
            bytes[8..12].try_into().unwrap(),
        )));
        expect.add(13);
        let mut h = Fx::default();
        h.write(&bytes);
        assert_eq!(h.finish(), expect.finish());
        // One word from the empty state is the word times the seed.
        let mut one = Fx::default();
        one.write_usize(3);
        assert_eq!(one.finish(), 3u64.wrapping_mul(FX_SEED));
    }

    #[test]
    fn collision_free_over_small_range() {
        use std::collections::HashSet;
        let fps: HashSet<u64> = (0u32..100_000).map(|i| fingerprint(&i)).collect();
        assert_eq!(fps.len(), 100_000);
    }

    #[test]
    fn state_fingerprints_collision_free_over_small_range() {
        use std::collections::HashSet;
        let fps: HashSet<u64> = (0u32..100_000)
            .map(|i| fingerprint_with_ebits(&i, 0))
            .collect();
        assert_eq!(fps.len(), 100_000);
    }
}
