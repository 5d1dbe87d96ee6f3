//! Collecting a per-UE fleet into a `Roster` costs each member its 2-byte
//! class index, never a copy of its spec. This file is its own test
//! binary, so the counting allocator below sees only this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use netsim::{op_i, op_ii, BehaviorProfile, Roster, UeSpec};

/// Live heap bytes and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting into `LIVE` and `PEAK`.
struct Counting;

// SAFETY: every call forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees carry over; the
// counters only add and subtract sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// 100 000 specs of the `fleet_live` mix (OP-I and OP-II alternate, every
/// fifth phone 3G-only) raise the heap's high-water mark by at most 8 B
/// per member; a `Vec<UeSpec>` of them would need 104 B per member.
#[test]
fn collecting_a_roster_costs_its_class_index_per_member() {
    const N: usize = 100_000;
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let roster: Roster = (0..N)
        .map(|i| UeSpec {
            op: if i % 2 == 0 { op_i() } else { op_ii() },
            behavior: if i % 5 == 0 {
                BehaviorProfile::typical_3g()
            } else {
                BehaviorProfile::typical_4g()
            },
        })
        .collect();
    let grown = PEAK.load(Relaxed) - before;
    assert_eq!(roster.classes().len(), 4, "two carriers × two behaviors");
    assert_eq!(roster.len(), N);
    assert!(
        grown <= 8 * N,
        "collecting {N} specs raised the heap's high-water mark by {grown} B \
         ({} B per member)",
        grown / N
    );
}
