//! `teal-bench`: the benchmark harness regenerating every table and figure
//! of the paper (`src/bin/expts.rs` lists the experiment ids).
//!
//! Run `cargo run -p teal-bench --bin expts --release -- all` to reproduce
//! everything; individual experiments run via their id (e.g. `fig6`).
//! Results are printed and persisted under `results/`.
// No raw-pointer or FFI work belongs in this crate; the workspace's
// audited unsafe lives in `teal-serve`'s `net/sys.rs` only (see the root
// crate's unsafe inventory docs).
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod testbed;

pub use experiments::Harness;
pub use testbed::{train_teal_engine, Testbed, TestbedSpec, TrainBudget};
