//! `teal-core`: the paper's primary contribution — Teal, a learning-
//! accelerated WAN traffic engineering scheme (SIGCOMM 2023).
//!
//! Pipeline (Figure 3): traffic demands and link capacities enter
//! [`model::TealModel`]'s FlowGNN (§3.2), whose per-path embeddings feed a
//! shared per-demand policy network (§3.3) trained with the COMA* multi-
//! agent RL algorithm in [`coma`] (Appendix B); the resulting allocation is
//! fine-tuned by a few warm-started ADMM iterations in [`engine`] (§3.4).
//!
//! Supporting modules: [`env`](mod@env) (per-topology context), [`direct`] (the
//! surrogate-loss ablation), [`ablation`] (naive DNN / naive GNN /
//! global-policy variants, §5.7) and [`tsne`] (Figure 16). COMA\*'s reward
//! and counterfactual simulation is [`teal_lp::FlowSim`], the same
//! reconciliation every scheme is scored with.
//!
//! # Batched serving architecture
//!
//! The paper's speed claim — "one fixed-cost batch of matrix
//! multiplications plus a few ADMM iterations" — is realized here as a
//! window of matrices served together: the forward pass once per matrix,
//! matrices spread over cores, then one batched ADMM sweep.
//!
//! * **One matrix per unit of work.** Serving forwards each matrix on its
//!   own ([`Env::model_input`], `batch == 1`), and training records one
//!   tape per matrix. Only the pinned repo benchmark's layer ledger still
//!   stacks: [`Env::batch_input`] lays a window out as vertical per-matrix
//!   blocks (`path_init` is `[batch * num_paths, 1]`, `edge_init` is
//!   `[batch * num_edges, 1]`, [`ModelInput::batch`] records the count),
//!   which [`TealModel::infer_mu`] runs with the incidence operator applied
//!   block-diagonally, and [`mu_to_allocations`] turns the `[batch * D, k]`
//!   logits into per-matrix allocations equal, bit for bit, to per-matrix
//!   [`PolicyModel::allocate_deterministic`] outputs (every kernel is
//!   row-wise; property-tested). A recorded forward given a stacked input
//!   panics.
//! * **ServingContext lifecycle.** [`ServingContext`] is built once per
//!   topology from a trained model plus an [`teal_lp::AdmmSkeleton`] (the
//!   path-edge incidence index over the path set's shared arrays,
//!   normalized capacities, and, under `DelayPenalizedFlow` only, per-path
//!   latency discounts — everything traffic-independent). Serving never rebuilds
//!   per-topology state: each window remints an O(batch × paths) solver
//!   from the shared skeleton (`allocate` is a window of one), and
//!   link-failure overrides swap only the capacity vector. All methods
//!   take `&self`, so one `Arc<ServingContext>` serves concurrent callers
//!   from many threads.
//! * **Throughput path.** [`ServingContext::try_allocate_batch_with`] runs
//!   the forward stage as one `teal_nn::pool` job whose index is the matrix:
//!   the matrices of a window commute and share no write, so one matrix is
//!   the unit of work, its tape-free forward pass
//!   ([`PolicyModel::allocate_deterministic`]) runs on serial kernels with
//!   its three activation buffers ([`TealModel::infer_mu`]'s buffer plan,
//!   432,576 B at 1,024 nodes) resident on one core, and matrices are the
//!   stage's only parallel axis (a window of one is single-core). The whole
//!   window is then fine-tuned by one batched ADMM sweep
//!   ([`teal_lp::AdmmBatchSolver`]): structure-of-arrays state minted from
//!   the shared skeleton, each iteration a single pass over the incidence
//!   index on the calling thread and in its one ADMM arena (the stage
//!   submits no pool job); every lane runs the window's one iteration
//!   count. At the fixed count the paper fine-tunes with (`tol = 0`) a
//!   batch of B equals B batches of one bitwise (`teal-lp`'s
//!   `batch_equivalence` test pins it).
//!   [`ServingContext::try_allocate_batch`] surfaces a malformed request or
//!   override topology as an [`AllocError`] value before any compute; a
//!   panic in either stage reaches the caller unchanged. What a
//!   window costs is the `BENCHMARK.json` rows `lp.admm.run_batch_ms` and
//!   `core.engine.window_ms` on `wan1024_window`.
//! * **Training.** [`coma::train_coma`] steps once per minibatch of
//!   `ComaConfig::batch_size` matrices: one tape per matrix, forward and
//!   backward, the gradients summed into the store in matrix order, then
//!   one clip and one Adam step. Validation scores per-matrix deterministic
//!   allocations.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod ablation;
pub mod coma;
pub mod direct;
pub mod engine;
pub mod env;
pub mod model;
pub mod tsne;

pub use coma::{train_coma, validate, validate_reward, ComaConfig, TrainReport};
pub use direct::{train_direct, DirectConfig};
pub use engine::{AllocError, BatchScratch, EngineConfig, ServingContext, SolveReport};
pub use env::{Env, ModelInput};
pub use model::{mu_to_allocation, mu_to_allocations, Forward, PolicyModel, TealConfig, TealModel};
