//! `cellstack` — pure 3GPP control-plane protocol state machines.
//!
//! This crate models the eight control-plane protocols studied by
//! *"Control-Plane Protocol Interactions in Cellular Networks"* (SIGCOMM
//! 2014, Table 2): CM/CC, SM and ESM (connectivity management), MM, GMM and
//! EMM (mobility management), and 3G/4G RRC (radio resource control) — each
//! as a device-side and a network-side finite state machine, plus the shared
//! session contexts (PDP / EPS bearer), cause-code taxonomies, message types
//! and mobility procedures they exchange.
//!
//! Every machine is **pure data**: `step(state, input) → (state', outputs)`
//! with `Clone + Hash + Eq` state. That single property lets the same code
//! serve both phases of the paper's methodology:
//!
//! * the **screening phase** wraps the machines in `mck` models and explores
//!   every interleaving exhaustively (crate `cnetverifier`);
//! * the **validation phase** executes them under time, radio conditions and
//!   operator policies (crate `netsim`).
//!
//! The crate holds only machines that one of those phases runs. The 5G NR
//! corpus (S7–S10) has no FSM here: it is screened from
//! `specs/fivegs/*.specl` alone.
//!
//! The defect behaviours the paper reports are implemented as the standards
//! describe them (they are *design* defects, after all), with the §8
//! remedies available behind explicit opt-in flags:
//!
//! | Instance | Where it lives | Remedy flag |
//! |---|---|---|
//! | S1 unprotected shared context | [`context`], [`emm`], [`stack`] | `EmmDevice::remedy_reactivate_bearer` |
//! | S2 out-of-sequence signaling | [`emm`] (+ `mck` lossy channels) | `remedies::shim` crate |
//! | S3 stuck in 3G | [`rrc3g`], [`csfb`] | `remedies::decouple` crate |
//! | S4 HOL blocking | [`mm`], [`gmm`] | `MmDevice::parallel_remedy` |
//! | S5 fate-sharing modulation | [`rrc3g`] | `Rrc3g::shared_channel_modulation(decoupled=true)` |
//! | S6 3G failure propagated to 4G | [`mm`], [`emm`] | `MmeEmm::forward_lu_failure = false` |
//!
//! # Example: reproducing S1 on the composed stack
//!
//! ```
//! use cellstack::{DeviceStack, Domain, NasMessage, PdpDeactivationCause, RatSystem};
//!
//! let mut stack = DeviceStack::new();
//! let mut ev = Vec::new();
//! // Attach to 4G.
//! stack.power_on(RatSystem::Lte4g, &mut ev);
//! stack.deliver_nas(RatSystem::Lte4g, Domain::Ps, NasMessage::AttachAccept, &mut ev);
//! assert!(!stack.out_of_service());
//!
//! // Switch to 3G (context migrates), lose the PDP context there...
//! stack.switch_4g_to_3g(&mut ev);
//! stack.deliver_nas(
//!     RatSystem::Utran3g,
//!     Domain::Ps,
//!     NasMessage::SessionDeactivate {
//!         cause: PdpDeactivationCause::OperatorDeterminedBarring,
//!         network_initiated: true,
//!     },
//!     &mut ev,
//! );
//! // ...and the return to 4G detaches the device: S1.
//! stack.switch_3g_to_4g(&mut ev);
//! assert!(stack.out_of_service());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causes;
pub mod cm;
pub mod context;
pub mod csfb;
pub mod emm;
pub mod esm;
pub mod gmm;
pub mod mm;
pub mod mobility;
pub mod msg;
pub mod rrc3g;
pub mod rrc4g;
pub mod session;
pub mod sm;
pub mod stack;
pub mod timers;
pub mod types;

pub use causes::{AttachRejectCause, EmmCause, MmCause, Originator, PdpDeactivationCause};
pub use context::{ContextState, EpsBearerContext, IpAddr, PdpContext, QosProfile};
pub use csfb::{CsfbCall, CsfbPhase, ReturnBehavior};
pub use mobility::UpdateTrigger;
pub use msg::{NasMessage, RrcMessage, SwitchMechanism, UpdateKind};
pub use rrc3g::{Modulation, Rrc3g, Rrc3gState};
pub use rrc4g::{DrxMode, Rrc4g, Rrc4gState};
pub use session::SessionTable;
pub use stack::{DeviceStack, StackEvent};
pub use timers::{NasTimer, MAX_NAS_RETRIES};
pub use types::{
    Dimension, Domain, IssueKind, MsgClass, Protocol, RatSystem, Registration, Sublayer,
};
