//! The simulation drivers: the per-event executive shared by the
//! single-UE facade and the fleet (`exec`), and the multi-UE carrier
//! simulation itself ([`fleet`]).

pub mod agg;
pub mod arena;
pub(crate) mod exec;
pub mod fleet;
pub mod wheel;

pub use agg::{FleetAgg, PlanSummary, SeriesAgg};
pub use fleet::{
    Activity, ActivityKind, BehaviorProfile, FleetConfig, FleetReport, FleetSim, KernelStats,
    Members, UeOutcome, UeSpec,
};
pub use wheel::{TimingWheel, WheelHandle};
