//! `remedies` — prototypes of the paper's §8 solution and the §9 evaluation.
//!
//! The solution has three modules (paper Figure 11), each evaluated by the
//! experiment the paper pairs with it:
//!
//! | Module | Remedy | Evaluation |
//! |---|---|---|
//! | [`shim`] (layer extension) | Reliable in-order shim between EMM and RRC — retransmission beats the lost *Attach Complete* (Fig. 5a), sequence numbers de-duplicate retransmitted *Attach Requests* (Fig. 5b) | Figure 12 left: detaches vs drop rate, with/without |
//! | [`parallel_mm`] (layer extension) | MM/GMM run location updates and service requests on parallel threads, the service request prioritized (it implicitly updates the location) | Figure 12 right: call delay vs LU time, with/without |
//! | [`decouple`] (domain decoupling) | Separate channels/modulations for CS and PS; BS-side CSFB tag unblocks the return switch | Figure 13: coupled vs decoupled VoIP/data speeds; switch-never-blocked check |
//! | [`crosssys`] (cross-system coordination) | Reactivate the EPS bearer instead of detaching after a context-less 3G→4G switch; MME recovers 3G LU failures in-core | §9.3: switch latency with/without; FSM-level verification of both remedies |
//!
//! The FSM-level remedy *mechanisms* live in `cellstack` behind opt-in
//! flags (`parallel_remedy`, `remedy_reactivate_bearer`,
//! `forward_lu_failure`, `remedy_keep_registration`); this crate adds the
//! shim transport (a genuinely new layer) and the experiment harnesses that
//! regenerate the paper's evaluation numbers.
//!
//! [`registry`] lists the six remedies as metadata only. The edit that
//! deploys a remedy is defined once, on the type it edits: a core-crate
//! screening model, or [`netsim::OperatorProfile::remedied`] for a
//! simulated carrier (see [`overlay`]).
//!
//! # Example: the shim delivers despite loss, exactly once
//!
//! ```
//! use remedies::{ShimEndpoint, ShimFrame};
//! use cellstack::NasMessage;
//!
//! let mut phone = ShimEndpoint::new();
//! let mut mme = ShimEndpoint::new();
//!
//! let frame = phone.send(NasMessage::AttachComplete);
//! drop(frame); // lost over the air (the Figure 5a hazard)
//!
//! let retransmit = phone.on_retransmit_timer().remove(0);
//! let (delivered, ack) = mme.on_receive(retransmit.clone());
//! assert_eq!(delivered, vec![NasMessage::AttachComplete]);
//!
//! // A late duplicate (the Figure 5b hazard) is suppressed.
//! let (dup, _) = mme.on_receive(retransmit);
//! assert!(dup.is_empty());
//! phone.on_receive(ack.unwrap());
//! assert_eq!(phone.unacked_len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosssys;
pub mod decouple;
pub mod overlay;
pub mod parallel_mm;
pub mod scheduler;
pub mod shim;

pub use crosssys::{
    section93_switch_experiment, verify_bearer_reactivation, verify_mme_lu_recovery,
};
pub use decouple::{csfb_switch_never_blocked, decoupling_gain, figure13, Fig13Row};
pub use overlay::{registry, remedy, RemedyClass, RemedyOverlay};
pub use parallel_mm::{figure12_right, measure_call_delay, CallDelayPoint};
pub use scheduler::{schedule, sharing_comparison, DeviceLoad, SchedulerOutcome, SharingScheme};
pub use shim::{
    figure12_left, figure12_left_adversarial, figure12_left_run, ShimEndpoint, ShimFrame,
};
