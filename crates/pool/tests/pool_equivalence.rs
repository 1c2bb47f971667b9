//! The pool under real helpers: jobs submitted from many threads at once
//! must run every index exactly once and produce what the serial loop does.
//!
//! Kernels are serial (the row-chunk helpers this suite used to pin are
//! gone); what runs on the pool is a stage's job — a window's forward pass
//! indexed by matrix — so that is the shape exercised here.
//!
//! CI containers expose one CPU, where the pool would stay empty and these
//! tests would trivially pass through the inline path — so this binary
//! pins `TEAL_NN_THREADS=4` before the first job (the cap is read once per
//! process). Every test funnels through one `Once`, so `set_var` runs
//! exactly once, before any other thread can be reading the environment
//! (tests run in parallel; concurrent getenv/setenv races are what made
//! `set_var` unsafe in edition 2024).

// Concurrent submitters are the fixture, so the test starts their threads.
#![allow(clippy::disallowed_methods)]

use std::sync::{Barrier, OnceLock};
use teal_nn::rng::seeded;
use teal_nn::tensor::{matmul, Tensor};
use teal_pool as pool;

/// Force a 4-thread pool before any job runs (see module docs).
fn force_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        std::env::set_var("TEAL_NN_THREADS", "4");
        // Freeze the cap (reads the env var) while every other test thread
        // is still blocked on this `Once` — no concurrent getenv.
        assert_eq!(pool::max_threads(), 4, "thread cap already frozen");
    });
    assert_eq!(pool::max_threads(), 4);
    assert_eq!(pool::worker_count(), 3);
}

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rand::Rng::gen::<f32>(&mut rng) - 0.5)
            .collect(),
    )
}

/// Six submitters released together, eight jobs each, every job a "window"
/// of independent serial matmuls landing in per-index slots: each index is
/// hit exactly once and each slot holds the serial loop's bits.
#[test]
fn concurrent_kernel_callers_agree_with_serial() {
    force_pool();
    const SUBMITTERS: usize = 6;
    const WINDOW: usize = 9;
    let b = random_tensor(64, 80, 2);
    let inputs: Vec<Tensor> = (0..WINDOW)
        .map(|i| random_tensor(24 + i, 64, 10 + i as u64))
        .collect();
    let want: Vec<Tensor> = inputs.iter().map(|a| matmul(a, &b)).collect();
    let start = Barrier::new(SUBMITTERS);
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            s.spawn(|| {
                start.wait();
                for _ in 0..8 {
                    let slots: Vec<OnceLock<Tensor>> =
                        (0..WINDOW).map(|_| OnceLock::new()).collect();
                    pool::run(WINDOW, &|i| {
                        // A second claim of `i` would find the slot full.
                        let first = slots[i].set(matmul(&inputs[i], &b)).is_ok();
                        assert!(first, "index {i} ran twice");
                    });
                    for (i, slot) in slots.iter().enumerate() {
                        assert_eq!(slot.get(), Some(&want[i]), "slot {i} missed or diverged");
                    }
                }
            });
        }
    });
}
