//! `teal-core`: the paper's primary contribution — Teal, a learning-
//! accelerated WAN traffic engineering scheme (SIGCOMM 2023).
//!
//! Pipeline (Figure 3): traffic demands and link capacities enter
//! [`model::TealModel`]'s FlowGNN (§3.2), whose per-path embeddings feed a
//! shared per-demand policy network (§3.3) trained with the COMA* multi-
//! agent RL algorithm in [`coma`] (Appendix B); the resulting allocation is
//! fine-tuned by a few warm-started ADMM iterations in [`engine`] (§3.4).
//!
//! Supporting modules: [`env`] (per-topology context), [`flowsim`]
//! (incremental reward simulation for counterfactual advantages),
//! [`direct`] (the surrogate-loss ablation), [`ablation`] (naive DNN /
//! naive GNN / global-policy variants, §5.7) and [`tsne`] (Figure 16).
//!
//! # Batched serving architecture
//!
//! The paper's speed claim — "one fixed-cost batch of matrix
//! multiplications plus a few ADMM iterations" — is realized here as a
//! window of matrices served together: the forward pass once per matrix,
//! matrices spread over cores, then one batched ADMM sweep.
//!
//! * **Batch shapes.** [`Env::batch_input`] stacks a minibatch of traffic
//!   matrices as vertical per-matrix blocks: `path_init` is
//!   `[batch * num_paths, 1]` and `edge_init` is `[batch * num_edges, 1]`
//!   ([`ModelInput::batch`] records the count; `batch == 1` is exactly the
//!   single-matrix layout). Dense layers are row-wise and handle the stack
//!   unchanged; message passing applies the incidence operator
//!   block-diagonally (`spmm_batch`), and the per-demand reshape groups
//!   `batch * num_demands` rows. Training minibatches (and the repo
//!   benchmark's layer ledger) use the stack; [`mu_to_allocations`] turns
//!   its `[batch * D, k]` logits into per-matrix allocations equal, bit for
//!   bit, to per-matrix [`PolicyModel::allocate_deterministic`] outputs
//!   (every kernel is row-wise; property-tested). Serving does not stack.
//! * **ServingContext lifecycle.** [`ServingContext`] is built once per
//!   topology from a trained model plus an [`teal_lp::AdmmSkeleton`] (the
//!   path-edge incidence index, normalized capacities, and objective
//!   discounts — everything traffic-independent). Serving never rebuilds
//!   per-topology state: each window remints an O(batch × paths) solver
//!   from the shared skeleton (`allocate` is a window of one), and
//!   link-failure overrides swap only the capacity vector. All methods
//!   take `&self`, so one `Arc<ServingContext>` serves concurrent callers
//!   from many threads.
//! * **Throughput path.** [`ServingContext::allocate_batch`] runs the
//!   forward stage as one `teal_nn::pool` job whose index is the matrix:
//!   the matrices of a window commute and share no write, so one matrix is
//!   the unit of work, its tape-free forward pass
//!   ([`PolicyModel::allocate_deterministic`]) runs on serial kernels with
//!   its ≈ 200 KB of activations resident on one core, and matrices are the
//!   stage's only parallel axis (a window of one is single-core). The whole
//!   window is then fine-tuned by one batched ADMM sweep
//!   ([`teal_lp::AdmmBatchSolver`]): structure-of-arrays state minted from
//!   the shared skeleton, each iteration a single pass over the incidence
//!   index on the calling thread (the stage submits no pool job), with a
//!   per-matrix convergence mask for early stopping. A batch of B equals B
//!   batches of one bitwise (`teal-lp`'s `batch_equivalence` test pins it).
//!   [`ServingContext::try_allocate_batch`] surfaces malformed requests and
//!   a panicking ADMM stage as [`AllocError`] values for isolation. What a
//!   window costs is the `BENCHMARK.json` rows `lp.admm.run_batch_ms` and
//!   `core.engine.window_ms` on `wan1024_window`.
//! * **Training.** [`coma::train_coma`] consumes minibatches
//!   (`ComaConfig::batch_size`) with one batched forward/backward pass and
//!   one optimizer step per minibatch; validation scores per-matrix
//!   deterministic allocations.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]

pub mod ablation;
pub mod coma;
pub mod direct;
pub mod engine;
pub mod env;
pub mod flowsim;
pub mod model;
pub mod tsne;

pub use coma::{train_coma, validate, validate_reward, ComaConfig, TrainReport};
pub use direct::{train_direct, DirectConfig};
pub use engine::{AllocError, BatchScratch, EngineConfig, ServingContext, SolveReport};
pub use env::{Env, ModelInput};
pub use flowsim::FlowSim;
pub use flowsim::RewardKind;
pub use model::{mu_to_allocation, mu_to_allocations, Forward, PolicyModel, TealConfig, TealModel};
