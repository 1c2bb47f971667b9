//! `teal-sim`: the evaluation harness — a uniform scheme interface, the
//! online TE control loop with staleness accounting (§5.1), the offline
//! setting (§5.6; [`run_offline`] is the one offline fold, returning each
//! matrix's `FlowStats`), failure replay (§5.3), and figure statistics.
//!
//! Every scheme is a [`Scheme`]. Teal is a [`TealScheme`] around a serving
//! engine; every baseline is one [`Baseline`], whose [`Solver`] variant
//! names what it runs (LP-all and LP-top carry their objective). There is
//! one way to build each: the paper's §5.1 settings — LP-top's α = 10%,
//! NCFlow's √n clusters, POP's per-topology replicas — are constants in
//! each solver's own module; `Baseline::allocate` passes none of them.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod metrics;
pub mod online;
pub mod schemes;

pub use online::{run_failure_interval, run_offline, run_online, IntervalRecord, OnlineResult};
pub use schemes::{Baseline, Scheme, Solver, TealScheme};
