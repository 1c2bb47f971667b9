//! `teal-nn`: the neural-network substrate of the Teal reproduction.
//!
//! The original system runs FlowGNN and the policy network on PyTorch + GPU.
//! Neither is available here, so this crate implements the required machinery
//! from scratch:
//!
//! * [`tensor`] — dense row-major 2-D tensors and matmul kernels;
//! * [`sparse`] — CSR matrices for FlowGNN's fixed path-edge incidence;
//! * [`graph`] — a tape-based reverse-mode autograd engine;
//! * [`module`] — parameter storage and `Linear` layers;
//! * [`optim`] — Adam (the paper's optimizer) and SGD;
//! * [`pool`] — the persistent worker pool standing in for the GPU's
//!   parallelism: kernels here are serial, and the stage above them (a
//!   window's forward pass over its matrices) submits the jobs;
//! * [`rng`] — seeded RNG and Box-Muller Gaussian sampling;
//! * [`checkpoint`] — save/load trained parameters (the paper's week-long
//!   training sessions need persistence).
//!
//! Everything is deterministic under a fixed seed, which the reproduction
//! relies on for regression tests.
//!
//! This crate is where the workspace's compute-side `unsafe` lives — the
//! lifetime-erased jobs of [`pool`]. Every block carries a
//! `// SAFETY:` comment (enforced by `cargo xtask lint`) and
//! `unsafe_op_in_unsafe_fn` is denied workspace-wide; see the root crate's
//! "Unsafe inventory" docs.

pub mod checkpoint;
pub mod graph;
pub mod module;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod sparse;
pub(crate) mod sync;
pub mod tensor;

pub use graph::{Graph, Var};
pub use module::{BoundLinear, Linear, ParamId, ParamStore};
pub use optim::{Adam, Sgd};
pub use sparse::{Csr, CsrPair};
pub use tensor::Tensor;
