//! `teal-traffic`: synthetic traffic matrices replacing the SWAN trace.
//!
//! Generates heavy-tailed, temporally correlated demand series calibrated to
//! the statistics the paper reports (top 10% of demands ≈ 88.4% of volume),
//! plus the perturbation operators used by the robustness experiments.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod gen;
pub mod matrix;
pub mod perturb;

pub use gen::{SplitSpec, TrafficConfig, TrafficModel};
pub use matrix::{inter_interval_variance, TrafficMatrix};
pub use perturb::{spatial_redistribution, temporal_fluctuation};
