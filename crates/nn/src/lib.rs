//! `teal-nn`: the neural-network substrate of the Teal reproduction.
//!
//! The original system runs FlowGNN and the policy network on PyTorch + GPU.
//! Neither is available here, so this crate implements the required machinery
//! from scratch:
//!
//! * [`tensor`] — dense row-major 2-D tensors and matmul kernels;
//! * [`sparse`] — pattern-only CSR matrices for FlowGNN's fixed path-edge
//!   incidence, and the [`Aggregate`] an SpMM applies over a row;
//! * [`graph`] — a tape-based reverse-mode autograd engine;
//! * [`module`] — parameter storage and `Linear` layers;
//! * [`optim`] — Adam, the paper's optimizer;
//! * [`pool`] — `teal-pool`, the workspace's one scoped fan-out standing in
//!   for the GPU's parallelism, re-exported at the path `teal-core`,
//!   `teal-serve` and the repo benchmark read: kernels here are serial, and
//!   the stage above them (a window's forward pass) submits the jobs;
//! * [`rng`] — seeded RNG and Box-Muller Gaussian sampling;
//! * [`checkpoint`] — save/load trained parameters (the paper's week-long
//!   training sessions need persistence).
//!
//! Everything is deterministic under a fixed seed, which the reproduction
//! relies on for regression tests.
//!
//! The crate is safe code throughout (`#![forbid(unsafe_code)]`), and so is
//! [`pool`], whose helpers borrow their tasks through `std::thread::scope`:
//! the compute side of the workspace has no `unsafe` — see the root crate's
//! "Unsafe inventory" docs.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod graph;
pub mod module;
pub mod optim;
pub mod rng;
pub mod sparse;
pub mod tensor;

pub use graph::{Graph, Var};
pub use module::{Linear, ParamId, ParamStore};
pub use optim::Adam;
pub use sparse::{Aggregate, Csr, CsrPair};
pub use teal_pool as pool;
pub use tensor::Tensor;
