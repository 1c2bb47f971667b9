//! `teal-lp`: TE optimization problem types and from-scratch solvers.
//!
//! Replaces the paper's Gurobi dependency with:
//! * an exact dense [`simplex`] solver for small instances,
//! * [`admm`] (Appendix C) usable both as Teal's 2–5-iteration fine-tuner
//!   and, run to convergence, as the large-instance "LP-all" substitute —
//!   its [`BatchArena`] holds lane rows per path, demand and edge only
//!   (Appendix C's per-(path, edge) `z`/`λ4` are per-edge scalars there),
//! * a [`fleischer`] multiplicative-weights approximation (§2.1's
//!   combinatorial baseline),
//! * [`concurrent`]: per-configuration serial solve times from which
//!   Figure 2's marginal multicore speedup is derived,
//! * the [`flow`] module defining the feasible-flow semantics every scheme
//!   is scored under.
//!
//! Every solver here runs on the calling thread: the crate spawns no
//! thread and holds no atomic, lock or raw pointer.

#![forbid(unsafe_code)]

pub mod admm;
pub mod concurrent;
pub mod fleischer;
pub mod flow;
pub mod pathlp;
pub mod problem;
pub mod simplex;

pub use admm::{AdmmBatchSolver, AdmmConfig, AdmmReport, AdmmSkeleton, BatchArena};
pub use flow::{evaluate, evaluate_with_gamma, objective_value, FlowStats};
pub use pathlp::{solve_lp, solve_mlu, LpConfig, LpInfo, LpMethod};
pub use problem::{Allocation, Objective, TeInstance};
