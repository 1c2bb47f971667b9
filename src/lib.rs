//! # teal — Learning-Accelerated WAN Traffic Engineering
//!
//! A from-scratch Rust reproduction of *Teal: Learning-Accelerated
//! Optimization of WAN Traffic Engineering* (SIGCOMM 2023): a flow-centric
//! graph neural network (FlowGNN) feeding a shared per-demand policy network
//! trained with multi-agent reinforcement learning (COMA*), fine-tuned by a
//! few parallel ADMM iterations.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`nn`] — tensors, autograd, optimizers (the PyTorch/GPU substitute),
//!   and `nn::pool`, the workspace's one parallel substrate (`teal-pool`);
//! * [`topology`] — WAN graphs, generators, k-shortest paths;
//! * [`traffic`] — synthetic heavy-tailed traffic matrices;
//! * [`lp`] — the TE problem, simplex and ADMM solvers, and feasible-flow
//!   semantics;
//! * [`core`] — Teal itself: FlowGNN, COMA*, the deployment engine;
//! * [`baselines`] — LP-top, NCFlow, POP, TEAVAR*;
//! * [`sim`] — the online/offline evaluation harness;
//! * [`serve`] — the multi-topology serving daemon (micro-batching
//!   coalescer, hot model-weight swap, latency telemetry).
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use teal::core::{train_coma, ComaConfig, Env, EngineConfig, ServingContext, TealConfig, TealModel};
//! use teal::topology::b4;
//! use teal::traffic::{TrafficConfig, TrafficModel};
//!
//! // 1. Topology + candidate paths.
//! let env = Arc::new(Env::for_topology(b4()));
//! // 2. Traffic.
//! let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 0);
//! traffic.calibrate(env.topo(), env.paths());
//! let train = traffic.series(0, 32);
//! let val = traffic.series(32, 8);
//! // 3. Train.
//! let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
//! train_coma(&mut model, &train, &val, &ComaConfig::default());
//! // 4. Deploy: one forward pass + 2 ADMM iterations per traffic matrix.
//! let engine = ServingContext::new(model, EngineConfig::paper_default(12));
//! let tm = traffic.series(40, 1).remove(0);
//! let (allocation, elapsed) = engine.allocate(&tm);
//! println!("allocated {} demands in {:?}", allocation.num_demands(), elapsed);
//! ```
//!
//! ## Unsafe inventory & correctness tooling
//!
//! The workspace's shipped `unsafe` is confined to one file, in
//! `teal-serve` (the two others allowed it are `vendor/loom`'s `Mutex` shim
//! and `teal-meter`, the dev-only counting allocator every allocation-floor
//! test installs; CI's "Unsafe inventory" step fails on a fourth):
//!
//! * **epoll/eventfd FFI** (`teal_serve::net::sys`): the four syscalls std
//!   lacks (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`; the
//!   crates registry is unreachable, so no `libc`) in five `unsafe` blocks,
//!   behind safe wrappers. Every fd they create is an `OwnedFd` from the
//!   moment its syscall returns, they take fds as `impl AsFd`, and no raw
//!   fd leaves the module. The workspace denies `unsafe_code` and this one
//!   module opts back in, with a `// SAFETY:` comment per site.
//!
//! The compute side has none: `teal-pool` (re-exported as `teal_nn::pool`)
//! fans out every parallel stage — a window's forward pass, KSP, the
//! traffic series, NCFlow's clusters and POP's replicas — through one claim
//! loop over `std::thread::scope`, which lets the helpers borrow the
//! caller's stack in safe code, and each unit writes its own result slot,
//! so no buffer is ever split between threads by hand.
//!
//! Everything else forbids `unsafe` outright (`#![forbid(unsafe_code)]` in
//! `teal-pool`, `teal-nn`, `teal-topology`, `teal-traffic`, `teal-lp`, `teal-core`,
//! `teal-baselines`, `teal-sim`, `teal-bench` and this crate), and
//! `unsafe_op_in_unsafe_fn` is denied workspace-wide.
//!
//! Two layers of tooling keep this inventory honest:
//!
//! 1. **rustc and clippy** (`cargo clippy --workspace --all-targets -- -D
//!    warnings`, CI's one lint step). The workspace lints deny
//!    `unsafe_code` (so `net/sys.rs` is the one module that calls FFI) and
//!    unsafe blocks or impls without a `// SAFETY:` comment. `teal-serve`,
//!    `teal-core` and `teal-lp` deny `unwrap`/`expect` outside tests.
//!    `teal-serve`'s `clippy.toml` keeps the clock behind
//!    `telemetry::now()`, raw fds in `net/sys.rs`, and std's locks,
//!    atomics, threads and channels in its `crate::sync` facade, whose
//!    atomics take no `Ordering` (SeqCst by type). The root `clippy.toml`
//!    (repeated in `teal-nn`'s) bans starting a thread outside
//!    `teal-pool`, and `teal-nn`'s keeps `teal_pool::run` out of its serial
//!    kernels.
//! 2. **Model checking** (`vendor/loom` + `RUSTFLAGS="--cfg teal_loom"
//!    cargo test -p teal-serve --test model_check`) — a miniature
//!    loom-style checker (token-passing scheduler, exhaustive DFS over
//!    interleavings, bounded preemptions, seed-replayable failing
//!    schedules) that exhaustively explores the serving stack's real race
//!    protocols: submit-vs-shutdown, the client's register-before-send
//!    slot protocol, the shutdown sweep of straggling requests and the
//!    event loop's completion doorbell. Each model test also runs a seeded
//!    mutant of its protocol and asserts the checker kills it.

// This umbrella crate only re-exports; the audited unsafe lives in
// `teal-serve`'s `net/sys.rs` per the inventory above.
#![forbid(unsafe_code)]

pub use teal_baselines as baselines;
pub use teal_core as core;
pub use teal_lp as lp;
pub use teal_nn as nn;
pub use teal_serve as serve;
pub use teal_sim as sim;
pub use teal_topology as topology;
pub use teal_traffic as traffic;
