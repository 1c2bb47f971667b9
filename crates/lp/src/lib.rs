//! `teal-lp`: TE optimization problem types and from-scratch solvers.
//!
//! Replaces the paper's Gurobi dependency with:
//! * an exact dense [`simplex`] solver for small instances,
//! * [`admm`] (Appendix C) usable both as Teal's 2–5-iteration fine-tuner
//!   and, run to convergence, as the large-instance "LP-all" substitute —
//!   its [`BatchArena`] holds lane rows per path, demand and crossed edge
//!   only (Appendix C's per-(path, edge) `z`/`λ4` are per-edge scalars
//!   there),
//! * [`pathlp`]: [`solve_lp`], LP-all itself, with three fixed settings —
//!   the simplex up to 1,200 variables plus constraints, ADMM at
//!   [`AdmmConfig::to_convergence`] above that, and 400 projected-subgradient
//!   iterations for the MLU objective,
//! * [`concurrent`]: per-configuration serial solve times from which
//!   Figure 2's marginal multicore speedup is derived,
//! * [`flow`]: the one proportional reconciliation (§3.3) — [`FlowSim`]
//!   scores every scheme ([`evaluate`]) and is COMA\*'s reward and
//!   counterfactual simulator.
//!
//! Every solver here runs on the calling thread: the crate spawns no
//! thread and holds no atomic, lock or raw pointer.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod admm;
pub mod concurrent;
pub mod flow;
pub mod pathlp;
pub mod problem;
pub mod simplex;

pub use admm::{AdmmBatchSolver, AdmmConfig, AdmmReport, AdmmSkeleton, BatchArena};
pub use flow::{evaluate, evaluate_with_gamma, objective_value, FlowSim, FlowStats};
pub use pathlp::solve_lp;
pub use problem::{Allocation, Objective, TeInstance};
