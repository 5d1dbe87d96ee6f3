//! `verify` — the in-line runtime-verification engine.
//!
//! The signature-automaton machinery (patterns over typed trace events,
//! timed steps, negation arcs, the LTL3-style verdict lattice) started
//! life in the `monitor` crate as a *post-hoc* scanner: run a world,
//! keep the full trace, then replay it through [`runner::run_signature`].
//! Fleet scale broke that model — the million-UE configuration runs the
//! trace collectors in count-only mode, so by the time a scan could run
//! there is nothing left to scan.
//!
//! The engine therefore lives here now, one layer below the traces it
//! consumes, so the fleet step loop can feed each entry to per-lane
//! automata *at emission time* ([`live`]). The `monitor` crate re-exports
//! every type from these modules unchanged and keeps only its compilers
//! (hand-declared S1–S6 signatures, mck witness lowering), so existing
//! consumers (`core::validation`, `userstudy`) are source-compatible.

pub mod automaton;
pub mod live;
pub mod pattern;
pub mod runner;
pub mod verdict;

pub use automaton::{MatchedEvent, Monitor, MonitorReport, Signature, Step};
pub use live::{LaneBank, LiveConfig, LiveCounts, VerdictEvent, VerdictStream};
pub use pattern::{FaultClass, Pattern};
pub use runner::{collect_spans, count_signature, run_signature, Bank};
pub use verdict::Verdict;
