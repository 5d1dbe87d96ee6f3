//! `cnetverifier` — the paper's primary contribution: a two-phase diagnosis
//! tool for control-plane protocol interactions in cellular networks.
//!
//! *"Control-Plane Protocol Interactions in Cellular Networks"* (Tu, Li,
//! Peng, Li, Wang, Lu — SIGCOMM 2014) builds **CNetVerifier**, which
//!
//! 1. **screens** models of the 3G/4G control-plane protocols with a model
//!    checker, using three cellular-oriented properties
//!    ([`props::PACKET_SERVICE_OK`], [`props::CALL_SERVICE_OK`],
//!    [`props::MM_OK`]) and randomly sampled usage scenarios, producing
//!    counterexamples for candidate *design defects*; and
//! 2. **validates** each counterexample with experiments over operational
//!    networks, confirming design defects and uncovering *operational
//!    slips*.
//!
//! This crate reproduces both phases:
//!
//! * [`models`] — the screening compositions (device + network FSMs from
//!   `cellstack`, channels from `mck`), one per scenario family;
//! * [`scenario`] — the combined usage model and its random sampler
//!   (§3.2.1);
//! * [`screening`] — runs the checker and extracts [`findings::Finding`]s
//!   for S1–S4;
//! * [`validation`] — reproduces each counterexample scenario on the
//!   `netsim` simulated carriers (OP-I / OP-II), drives the `monitor`
//!   crate's signature automata over the typed traces, and uncovers the
//!   operational slips S5 and S6; [`validation::diagnose`] classifies
//!   every instance as design defect vs operational slip;
//! * [`report`] — renders the paper's Table 1/3/4.
//!
//! # Quickstart
//!
//! ```
//! use cnetverifier::{screening, findings::Instance};
//!
//! let report = screening::run_screening_deterministic();
//! // The four design defects the paper reports:
//! for inst in [Instance::S1, Instance::S2, Instance::S3, Instance::S4] {
//!     let finding = report.finding(inst).expect("found by screening");
//!     println!("{inst}: {} (witness: {} steps)", inst.problem(), finding.steps);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod findings;
pub mod insights;
pub mod models;
pub mod props;
pub mod remedydiff;
pub mod report;
pub mod scenario;
pub mod screening;
pub mod validation;

pub use findings::{Category, Finding, Instance, Phase};
pub use insights::{insight_for, lesson_for, Insight, Lesson, INSIGHTS, LESSONS};
pub use monitor::{MatchedEvent, Verdict};
pub use remedydiff::{
    diff_matrix, overlay_agreement, partial_reliable_shim, render_matrix, render_overlay_agreement,
    DiffRow, Edit, FaultCampaign, OverlayCheck, PropDiff,
};
pub use screening::{
    fiveg_corpus_check, load_specs, run_screening_deterministic, run_screening_remedied,
    run_screening_with_retries, run_spec_screening, spec_agreement, sweep_timer_scales,
    CorpusCheck, LatticeDiagnosis, LatticePoint, LoadedSpec, ModelRun, ScreenBudget,
    ScreeningReport, SpecAgreement, TimingLattice,
};
pub use validation::{
    diagnose, diagnose_against, validate_all, validate_instance, DefectClass, Diagnosis,
    ValidationOutcome,
};
