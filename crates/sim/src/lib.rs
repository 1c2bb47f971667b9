//! `teal-sim`: the evaluation harness — a uniform scheme interface, the
//! online TE control loop with staleness accounting (§5.1), the offline
//! setting (§5.6; [`run_offline`] is the one offline fold, returning each
//! matrix's `FlowStats`), failure replay (§5.3), and figure statistics.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]

pub mod metrics;
pub mod online;
pub mod schemes;

pub use online::{run_failure_interval, run_offline, run_online, IntervalRecord, OnlineResult};
pub use schemes::{
    FleischerScheme, LpAllScheme, LpTopScheme, NcflowScheme, PopScheme, Scheme, ShortestPathScheme,
    TealScheme, TeavarScheme,
};
