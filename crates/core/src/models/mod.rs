//! Screening models: the protocol compositions handed to the `mck` checker.
//!
//! Each model composes device-side and network-side FSMs from `cellstack`
//! around explicit message channels (where delivery semantics matter) or a
//! lockstep synchronous network (where ordering of *procedures*, not of
//! individual messages, is the point). One model per scenario family:
//!
//! | Model | Instance it exposes | Property violated |
//! |---|---|---|
//! | [`attach::AttachModel`] | S2 (lost/duplicate NAS over RRC) | `PacketService_OK` |
//! | [`switchctx::SwitchContextModel`] | S1 (context deleted across systems) | `PacketService_OK` |
//! | [`csfb_rrc::CsfbRrcModel`] | S3 (stuck in 3G, per switch mechanism) | `MM_OK` |
//! | [`holblock::HolBlockModel`] | S4 (update prioritized over requests) | `CallService_OK` |
//!
//! S5 and S6 are *operational* issues: the paper uncovers them during the
//! validation experiments (§4), and so does this reproduction — see
//! [`crate::validation`]. Two further models support the analysis:
//! [`crosssys_lu::CrossSysLuModel`] model-checks S6's double-update race
//! for root-cause analysis (§6.3), and
//! [`attach_retry::RetryAttachModel`] re-checks the S2 composition with the
//! TS 24.301 retransmission timers (T3410/T3430) enabled over a
//! lossy-but-fair channel — the standards' own remedy, under which
//! `PacketService_OK` holds while S1/S6 remain defective. Finally,
//! [`nue::NUeModel`] scales a UE *population* to 10⁸+ states to exercise
//! the compressed-store / spillable-frontier machinery (`--exp statespace`).

pub mod attach;
pub mod attach_retry;
pub mod crosssys_lu;
pub mod csfb_rrc;
pub mod env;
pub mod holblock;
pub mod nue;
pub mod switchctx;
