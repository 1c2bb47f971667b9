//! `teal-baselines`: the TE schemes the paper compares Teal against (§5.1).
//!
//! * LP-all — the full path LP, provided by `teal_lp::solve_lp`;
//! * [`lp_top`] — demand pinning: LP over the top 10% of demands;
//! * [`ncflow`] — topology-partitioning decomposition (NCFlow-like);
//! * [`pop`] — capacity-split replicas (POP);
//! * [`teavar`] — scenario-robust allocation (TEAVAR*, B4 only);
//! * Fleischer's approximation lives in `teal_lp::fleischer`.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]

pub mod lp_top;
pub mod ncflow;
pub mod pop;
pub mod teavar;

pub use lp_top::solve_lp_top;
pub use ncflow::{partition, solve_ncflow, NcflowConfig};
pub use pop::{solve_pop, PopConfig};
pub use teavar::{solve_teavar, TeavarConfig};
