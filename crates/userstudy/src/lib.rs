//! `userstudy` — the paper's §7 user study, rebased on the fleet simulator.
//!
//! "To assess the real-world impact, we conduct \[a\] two-week user study
//! with 20 volunteers ... 12 people use 4G-capable phones, while others use
//! 3G-only phones. We observe 190 CSFB calls, 146 CS calls in 3G, 436
//! inter-system switches (380 switches are caused by 190 CSFB calls), and
//! 30 attaches."
//!
//! [`study::run_study`] translates that population into per-UE behaviour
//! specs, runs a real [`netsim::FleetSim`] for the two weeks, and detects
//! each instance S1–S6 on the resulting phone-side traces with signature
//! automata ([`detect`]) — producing the Table 5 occurrence probabilities
//! and the Table 6 stuck-in-3G quantiles (rendered by [`stats`]).
//!
//! # Example
//!
//! ```
//! let result = userstudy::run_study(2014);
//! // Event volume near the paper's: 190 CSFB calls observed.
//! assert!((150..=230).contains(&result.csfb_calls));
//! // S5 dominates, S2 is absent — the Table 5 ordering.
//! assert!(result.s5.probability() > result.s3.probability());
//! assert_eq!(result.s2.events, 0);
//! println!("{}", userstudy::table5(&result));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod population;
pub mod rollout;
pub mod stats;
pub mod study;

pub use detect::{episodes_from_spans, s5_overlap, s6_detach, StuckEpisode};
pub use population::{build_population, spec_for, Carrier, Participant, Persona, STUDY_DAYS};
pub use rollout::{render_rollout, run_rollout, RolloutArm, RolloutReport};
pub use stats::{table5, table6};
pub use study::{analyze, run_study, study_signatures, Occurrence, StudyResult};
