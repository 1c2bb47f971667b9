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
//! * [`optim`] — Adam (the paper's optimizer) and SGD;
//! * [`pool`] — the scoped fan-out standing in for the GPU's parallelism:
//!   kernels here are serial, and the stage above them (a window's forward
//!   pass over its matrices) submits the jobs;
//! * [`rng`] — seeded RNG and Box-Muller Gaussian sampling;
//! * [`checkpoint`] — save/load trained parameters (the paper's week-long
//!   training sessions need persistence).
//!
//! Everything is deterministic under a fixed seed, which the reproduction
//! relies on for regression tests.
//!
//! The crate is safe code throughout (`#![forbid(unsafe_code)]`): [`pool`]
//! borrows its tasks through `std::thread::scope`, so the compute side of
//! the workspace has no `unsafe` left — see the root crate's "Unsafe
//! inventory" docs.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod graph;
pub mod module;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod sparse;
pub mod tensor;

pub use graph::{Graph, Var};
pub use module::{BoundLinear, Linear, ParamId, ParamStore};
pub use optim::{Adam, Sgd};
pub use sparse::{Aggregate, Csr, CsrPair};
pub use tensor::Tensor;
