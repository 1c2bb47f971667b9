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
//! * [`nn`] — tensors, autograd, optimizers (the PyTorch/GPU substitute);
//! * [`topology`] — WAN graphs, generators, k-shortest paths;
//! * [`traffic`] — synthetic heavy-tailed traffic matrices;
//! * [`lp`] — the TE problem, simplex / ADMM / Fleischer solvers, and
//!   feasible-flow semantics;
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
//! The workspace's `unsafe` is confined to one file, in `teal-serve`:
//!
//! * **epoll/eventfd FFI** (`teal_serve::net::sys`): hand-rolled bindings
//!   (the crates registry is unreachable, so no `libc`) behind safe
//!   wrappers that own their fds. The crate root denies `unsafe_code` and
//!   this one module opts back in, with a `// SAFETY:` comment per site.
//!
//! The compute side has none: `teal_nn::pool` fans a window's forward pass
//! out over `std::thread::scope`, which lets the helpers borrow the
//! caller's stack in safe code, and each matrix writes its own result
//! slot, so no buffer is ever split between threads by hand.
//!
//! Everything else forbids `unsafe` outright (`#![forbid(unsafe_code)]` in
//! `teal-nn`, `teal-topology`, `teal-traffic`, `teal-lp`, `teal-core`,
//! `teal-baselines`, `teal-sim`, `teal-bench` and this crate), and
//! `unsafe_op_in_unsafe_fn` is denied workspace-wide.
//!
//! Two layers of tooling keep this inventory honest:
//!
//! 1. **`cargo xtask lint`** — an offline source pass over the workspace
//!    (no network, no nightly): every `unsafe` block/impl must carry a
//!    `// SAFETY:` comment; non-test `teal-serve` code may not call
//!    `unwrap()`/`expect()` (the `crate::sync` facade returns guards
//!    directly) or read the clock outside `telemetry::now()`; modules
//!    marked `// teal-lint: checked-sync` may not import `std::sync`
//!    directly; and zero-unsafe crates must keep their `forbid` attribute.
//!    The allowlist (`xtask-lint-allow.txt`) ships empty and is expected
//!    to stay that way.
//! 2. **Model checking** (`vendor/loom` + `RUSTFLAGS="--cfg teal_loom"
//!    cargo test -p teal-serve --test model_check`) — a miniature
//!    loom-style checker (token-passing scheduler, exhaustive DFS over
//!    interleavings, bounded preemptions, seed-replayable failing
//!    schedules) that exhaustively explores the serving stack's real race
//!    protocols: WFQ one-ahead reservation, submit-vs-shutdown, and the
//!    client's register-before-send slot protocol. Each model test also
//!    runs a seeded mutant of its protocol and asserts the checker kills
//!    it.

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
