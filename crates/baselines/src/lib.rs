//! `teal-baselines`: the TE schemes the paper compares Teal against (§5.1).
//!
//! * LP-all — the full path LP, provided by `teal_lp::solve_lp`;
//! * [`lp_top`] — demand pinning: LP over the top 10% of demands;
//! * [`ncflow`] — topology-partitioning decomposition (NCFlow-like);
//! * [`pop`] — capacity-split replicas (POP);
//! * [`teavar`] — scenario-robust allocation (TEAVAR*, B4 only).
//!
//! Each solver runs at the one setting §5.1 evaluates it at, a constant in
//! its own module: LP-top's α = 10%, NCFlow's √n clusters and 3 rounds,
//! POP's replica count by topology family and its 0.25 client split,
//! TEAVAR*'s 0.5 risk price. Every LP here is `teal_lp::solve_lp` at its
//! fixed settings, and NCFlow and POP solve `TotalFlow`.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod lp_top;
pub mod ncflow;
pub mod pop;
pub mod teavar;

pub use lp_top::solve_lp_top;
pub use ncflow::solve_ncflow;
pub use pop::solve_pop;
pub use teavar::solve_teavar;
