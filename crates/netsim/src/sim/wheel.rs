//! The simulator's hierarchical timing wheel.
//!
//! Every simulation in this crate — the single-phone [`crate::World`] and
//! each fleet shard — schedules its events here. [`TimingWheel`] is the
//! classic hashed hierarchical wheel (Varghese & Lauck): `LEVELS` levels of
//! 64 slots each, level `l` spanning `64^(l+1)` ms, with a 64-bit
//! occupancy bitmap per level so finding the next non-empty slot is a
//! `trailing_zeros`. Eleven levels cover all 64 bits of a [`SimTime`], so
//! every representable time is schedulable.
//!
//! * **schedule** is O(1): XOR the target time against the cursor, the
//!   highest differing 6-bit group is the level, the group value is the
//!   slot.
//! * **pop** is amortized O(1). Once the cursor's 64 ms window is empty,
//!   the earliest events sit in the lowest occupied slot of the lowest
//!   occupied level. A lone entry there is popped in place; a shared slot
//!   cascades to lower levels, and an entry cascades at most `l` times from
//!   level `l`, with `l ≤ 6` for any horizon under ~140 years of simulated
//!   milliseconds.
//! * **cancel** is exact (no lazy tombstones): the slot an event lives in
//!   is a pure function of its time and the cursor, so cancellation
//!   removes it in place with a short slot scan — no per-event hashing on
//!   the schedule/pop path at all.
//!
//! Determinism contract (pinned against a reference queue by the
//! equivalence property tests in `tests/proptests.rs`): events pop in
//! `(time, insertion seq)` order. Cascades drain slots front-to-back and
//! re-insert with `push_back`, which preserves insertion order among
//! same-time entries; a slot at level 0 holds exactly one millisecond, so
//! its VecDeque *is* the tie-break order. A lone upper-level entry has no
//! same-time mate (an equal time would share its slot), and popping it in
//! place leaves the state its cascades would have left (see
//! [`TimingWheel::pop`]).

use std::collections::VecDeque;

use crate::time::SimTime;

/// 6 bits per level: 64 slots.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels. 11 levels of 6 bits cover all 64 bits of a millisecond
/// timestamp, so no time needs an overflow list.
const LEVELS: usize = 11;

/// One scheduled entry.
#[derive(Clone, Debug)]
struct Entry<E> {
    at: u64,
    seq: u64,
    payload: E,
}

/// Handle to one scheduled event; cancellation recomputes the slot from
/// the wheel cursor and the stored time, so the handle is just `Copy`
/// data — no allocation, no hash-map entry behind it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WheelHandle {
    seq: u64,
    at: u64,
}

/// A hierarchical timing wheel keyed on [`SimTime`] milliseconds.
#[derive(Clone, Debug)]
pub struct TimingWheel<E> {
    /// The cursor: time of the most recently popped event (all pending
    /// events fire at `>= now`).
    now: u64,
    /// Live entries.
    len: usize,
    /// Insertion tie-break counter. It never restarts, so a handle taken
    /// before a [`Self::reset`] matches no later entry.
    next_seq: u64,
    /// `LEVELS * SLOTS` slots, level-major.
    slots: Vec<VecDeque<Entry<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Entries moved down a level by a cascade (kernel observability).
    cascades: u64,
    /// Total entries ever scheduled.
    scheduled: u64,
    /// High-water mark of `len`.
    peak_len: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        Self {
            now: 0,
            len: 0,
            next_seq: 0,
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; LEVELS],
            cascades: 0,
            scheduled: 0,
            peak_len: 0,
        }
    }

    /// Reset to the empty time-zero state, keeping slot allocations (the
    /// fleet reuses one wheel across its lane blocks).
    pub fn reset(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
        self.occupied = [0; LEVELS];
        self.now = 0;
        self.len = 0;
        // next_seq / cascades / scheduled / peak_len run on across blocks.
    }

    /// Level and slot for time `t` relative to the current cursor: the
    /// level is the highest 6-bit group where `t` differs from `now`.
    #[inline]
    fn locate(&self, t: u64) -> (usize, usize) {
        let d = t ^ self.now;
        let lvl = if d == 0 {
            0
        } else {
            ((63 - d.leading_zeros()) / SLOT_BITS) as usize
        };
        debug_assert!(lvl < LEVELS, "horizon exceeds the wheel span");
        let slot = ((t >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        (lvl, slot)
    }

    #[inline]
    fn push(&mut self, e: Entry<E>) {
        let (lvl, slot) = self.locate(e.at);
        self.slots[lvl * SLOTS + slot].push_back(e);
        self.occupied[lvl] |= 1 << slot;
    }

    /// Schedule `payload` at absolute time `at` (clamped to the cursor:
    /// the past is not schedulable). Returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> WheelHandle {
        debug_assert!(at.as_millis() >= self.now, "scheduling into the past");
        let at = at.as_millis().max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.push(Entry { at, seq, payload });
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        WheelHandle { seq, at }
    }

    /// Cancel a previously scheduled event. Returns true if it was still
    /// pending. Exact (the entry is removed in place, preserving the
    /// order of its slot-mates); costs a scan of one slot.
    pub fn cancel(&mut self, handle: WheelHandle) -> bool {
        if handle.at < self.now {
            return false; // already fired: nothing pends in the past
        }
        let (lvl, slot) = self.locate(handle.at);
        let q = &mut self.slots[lvl * SLOTS + slot];
        let Some(idx) = q.iter().position(|e| e.seq == handle.seq) else {
            return false;
        };
        q.remove(idx);
        if q.is_empty() {
            self.occupied[lvl] &= !(1 << slot);
        }
        self.len -= 1;
        true
    }

    /// Pop the front entry of `slot` at level `lvl` and move the cursor to
    /// its time.
    #[inline]
    fn take_front(&mut self, lvl: usize, slot: usize) -> (SimTime, E) {
        let q = &mut self.slots[lvl * SLOTS + slot];
        let e = q.pop_front().expect("occupied slot");
        if q.is_empty() {
            self.occupied[lvl] &= !(1 << slot);
        }
        self.len -= 1;
        self.now = e.at;
        (SimTime::from_millis(e.at), e.payload)
    }

    /// Pop the earliest pending event (ties in insertion order), if any.
    ///
    /// Once the level-0 window is empty, the lowest occupied slot of the
    /// lowest occupied level holds the earliest events. If it holds one
    /// entry, that entry is popped where it is: it is the strict minimum,
    /// since the slot's level-mates sit in later slots, higher levels
    /// differ from the cursor in a higher bit group, and an equal time
    /// would share its slot. Cascading it instead would carry it down level
    /// by level, touching no other slot, and pop it with the cursor at its
    /// time, so both paths leave the same cursor and the same slot
    /// contents; only the `cascades` count differs. A slot of two or more
    /// entries cascades one level down and the search repeats.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: slots at/after the cursor within the current
            // 64 ms window hold exact-millisecond queues.
            let cur = (self.now & (SLOTS as u64 - 1)) as u32;
            let m = self.occupied[0] & (!0u64 << cur);
            if m != 0 {
                return Some(self.take_front(0, m.trailing_zeros() as usize));
            }
            // Window exhausted: the lowest occupied slot of the lowest
            // occupied level holds the earliest events. Every resident of
            // level l differs from the cursor exactly in bit-group l (and
            // `t >= now`). Pop a lone entry in place; cascade a shared slot.
            let lvl = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
            let slot = self.occupied[lvl].trailing_zeros() as usize;
            if self.slots[lvl * SLOTS + slot].len() == 1 {
                return Some(self.take_front(lvl, slot));
            }
            let step = SLOT_BITS * lvl as u32;
            // Advance the cursor to the start of that slot's window.
            // At the top level the window spans all 64 bits (the shift
            // reaches 66) and no cursor bit is kept.
            let keep_mask = 1u64
                .checked_shl(step + SLOT_BITS)
                .map_or(0, |window| !(window - 1));
            self.now = (self.now & keep_mask) | ((slot as u64) << step);
            self.occupied[lvl] &= !(1 << slot);
            let mut q = std::mem::take(&mut self.slots[lvl * SLOTS + slot]);
            self.cascades += q.len() as u64;
            for e in q.drain(..) {
                self.push(e);
            }
            // Hand the (now empty but allocated) deque back for reuse.
            self.slots[lvl * SLOTS + slot] = q;
        }
    }

    /// Time of the earliest pending event, if any. Costs a scan of one
    /// slot (the lowest occupied slot of the lowest occupied level).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let cur = (self.now & (SLOTS as u64 - 1)) as u32;
        let m = self.occupied[0] & (!0u64 << cur);
        if m != 0 {
            let slot = m.trailing_zeros() as usize;
            return self.slots[slot].front().map(|e| SimTime::from_millis(e.at));
        }
        let lvl = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
        let slot = self.occupied[lvl].trailing_zeros() as usize;
        self.slots[lvl * SLOTS + slot]
            .iter()
            .map(|e| e.at)
            .min()
            .map(SimTime::from_millis)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries moved down a level by cascades so far (monotone; survives
    /// [`Self::reset`] — it is a whole-run kernel statistic).
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Total entries ever scheduled (monotone across resets).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// High-water mark of pending entries (monotone across resets).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Resident bytes of the wheel's own structures (slot headers, entry
    /// storage) — the kernel's bytes/UE accounting reads this.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .slots
                .iter()
                .map(|q| {
                    std::mem::size_of::<VecDeque<Entry<E>>>()
                        + q.capacity() * std::mem::size_of::<Entry<E>>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = TimingWheel::new();
        w.schedule(ms(30), "c");
        w.schedule(ms(10), "a");
        w.schedule(ms(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut w = TimingWheel::new();
        let t = ms(5);
        w.schedule(t, 1);
        w.schedule(t, 2);
        w.schedule(t, 3);
        assert_eq!(w.pop().unwrap().1, 1);
        assert_eq!(w.pop().unwrap().1, 2);
        assert_eq!(w.pop().unwrap().1, 3);
    }

    #[test]
    fn cascades_preserve_tie_order_across_levels() {
        let mut w = TimingWheel::new();
        // Far enough out to land at level >= 2, same millisecond.
        let t = ms(1_000_000);
        for i in 0..10 {
            w.schedule(t, i);
        }
        // An earlier event forces a pop first, then the cascade.
        w.schedule(ms(500), -1);
        assert_eq!(w.pop().unwrap().1, -1);
        for i in 0..10 {
            let (at, v) = w.pop().unwrap();
            assert_eq!(at, t);
            assert_eq!(v, i);
        }
        assert!(w.cascades() > 0, "the far batch must have cascaded");
    }

    #[test]
    fn cancellation_is_exact() {
        let mut w = TimingWheel::new();
        w.schedule(ms(1), "keep1");
        let h = w.schedule(ms(2), "drop");
        w.schedule(ms(3), "keep2");
        assert!(w.cancel(h));
        assert!(!w.cancel(h), "double-cancel is a no-op");
        assert_eq!(w.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["keep1", "keep2"]);
    }

    #[test]
    fn cancel_after_cascade_still_finds_the_entry() {
        let mut w = TimingWheel::new();
        let h = w.schedule(ms(100_000), "far");
        w.schedule(ms(99_000), "near");
        let (_, near) = w.pop().unwrap(); // cascades "far" downward
        assert_eq!(near, "near");
        assert!(w.cancel(h), "handle stays valid across cascades");
        assert!(w.pop().is_none());
    }

    #[test]
    fn lone_far_entry_pops_in_place() {
        let mut w = TimingWheel::new();
        // Alone at level 3, with a level-4 entry behind it.
        w.schedule(ms(1_000_000), "far");
        let farther = w.schedule(ms(20_000_000), "farther");
        assert_eq!(w.pop(), Some((ms(1_000_000), "far")));
        assert_eq!(w.cascades(), 0, "a lone entry pops where it is");
        // The level-4 handle still finds its entry from the new cursor.
        assert!(w.cancel(farther));
        assert!(w.is_empty());
        // Two entries sharing a level-4 slot still cascade, in time order.
        w.schedule(ms(30_000_001), "b");
        w.schedule(ms(30_000_000), "a");
        assert_eq!(w.pop(), Some((ms(30_000_000), "a")));
        assert!(w.cascades() > 0, "a shared slot cascades");
        assert_eq!(w.pop(), Some((ms(30_000_001), "b")));
    }

    #[test]
    fn handle_from_before_reset_cancels_nothing() {
        let mut w = TimingWheel::new();
        let old = w.schedule(ms(1_000), "old");
        w.reset();
        w.schedule(ms(1_000), "new");
        assert!(!w.cancel(old), "the old entry went with the reset");
        assert_eq!(w.pop(), Some((ms(1_000), "new")));
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut w = TimingWheel::new();
        for t in [86_400_000u64, 7, 12_345, 1_800_000] {
            w.schedule(ms(t), t);
        }
        while let Some(peek) = w.peek_time() {
            let (at, _) = w.pop().unwrap();
            assert_eq!(peek, at);
        }
    }

    #[test]
    fn empty_wheel_behaviour() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
        assert!(w.peek_time().is_none());
    }

    #[test]
    fn schedule_at_cursor_fires_after_queued_same_ms_events() {
        let mut w = TimingWheel::new();
        w.schedule(ms(10), "first");
        let (at, v) = w.pop().unwrap();
        assert_eq!((at, v), (ms(10), "first"));
        // The cursor sits at 10; new same-ms work fires in seq order.
        w.schedule(ms(10), "second");
        w.schedule(ms(10), "third");
        assert_eq!(w.pop().unwrap().1, "second");
        assert_eq!(w.pop().unwrap().1, "third");
    }

    #[test]
    fn week_horizon_stays_within_levels() {
        // A simulated fortnight in ms exercises levels up to 5.
        let mut w = TimingWheel::new();
        let times = [0u64, 1, 63, 64, 4_095, 4_096, 86_400_000, 1_209_600_000];
        for &t in &times {
            w.schedule(ms(t), t);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &t in &sorted {
            assert_eq!(w.pop().unwrap().0, ms(t));
        }
    }

    #[test]
    fn every_representable_time_is_schedulable() {
        let mut w = TimingWheel::new();
        let times = [u64::MAX, 1 << 62, 5, u64::MAX - 1, 1 << 45, 86_400_000];
        for &t in &times {
            w.schedule(ms(t), t);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &t in &sorted {
            assert_eq!(w.peek_time(), Some(ms(t)));
            assert_eq!(w.pop(), Some((ms(t), t)));
        }
        assert!(w.pop().is_none());
    }

    #[test]
    fn reset_reuses_allocations_and_keeps_counters() {
        let mut w = TimingWheel::new();
        for t in 0..1_000u64 {
            w.schedule(ms(t * 97), t);
        }
        while w.pop().is_some() {}
        let cascades = w.cascades();
        let scheduled = w.scheduled();
        w.reset();
        assert!(w.is_empty());
        assert_eq!(w.cascades(), cascades);
        assert_eq!(w.scheduled(), scheduled);
        w.schedule(ms(5), 1);
        assert_eq!(w.pop().unwrap().0, ms(5));
    }
}
