//! `monitor` — runtime-verification trace diagnosis for the validation
//! phase.
//!
//! The paper's phase 2 confirms screening counterexamples by matching them
//! against phone-side modem traces (§3.3). Following the shape of runtime
//! verifiers like PHOENIX (NDSS 2021) and VeriFi, this crate turns that
//! matching into a reusable engine:
//!
//! * [`Signature`] — a **signature automaton**: an ordered list of
//!   [`Step`]s, each a [`Pattern`] over the typed [`netsim::TraceEvent`]
//!   payload, optionally with a **timed deadline** (`within_ms` of the
//!   previous match) and **negation arcs** (forbidden patterns, per-step
//!   or signature-global).
//! * Two compilation sources ([`compile`]): the mck counterexample paths
//!   emitted by the screening phase ([`compile::compile_witness`]), and
//!   hand-declared signatures for the six problematic instances
//!   ([`compile::s1`] … [`compile::s6`]).
//! * Online evaluation ([`Monitor::feed`] / [`runner`]): entries stream in
//!   one at a time, the automaton advances greedily, and the outcome is a
//!   three-valued **verdict lattice** ([`Verdict`]) plus the matched event
//!   span ([`MatchedEvent`]) as machine-readable evidence.
//!
//! The crate deliberately depends only on `cellstack` and `netsim` so the
//! diagnosis driver in `core::validation` can sit on top of it.
//!
//! Since the fleet gained *in-line* monitoring, the engine itself
//! (patterns, automata, verdict lattice, runners) lives in
//! [`netsim::verify`] — one layer below the traces it consumes, where
//! the fleet step loop can feed entries at emission time. This crate
//! re-exports those modules unchanged and keeps the compilers
//! ([`compile`]): hand-declared S1–S6 signatures and the mck
//! counterexample lowering, which sit naturally above both `mck` trace
//! shapes and the engine.

pub mod compile;

pub use netsim::verify::automaton;
pub use netsim::verify::pattern;
pub use netsim::verify::runner;
pub use netsim::verify::verdict;

pub use automaton::{MatchedEvent, Monitor, MonitorReport, Signature, Step};
pub use compile::{compile_witness, hand_signature, observable_for, CompiledWitness};
pub use pattern::{FaultClass, Pattern};
pub use runner::{collect_spans, count_signature, run_signature, Bank};
pub use verdict::Verdict;
