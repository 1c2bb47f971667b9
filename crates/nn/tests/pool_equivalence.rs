//! Property tests: the persistent-pool kernels must match the
//! single-threaded kernels (≤ 1e-6, and bit-for-bit where chunking
//! preserves accumulation order).
//!
//! CI containers expose one CPU, where the pool would stay empty and these
//! tests would trivially pass through the serial path — so this binary
//! pins `TEAL_NN_THREADS=4` before the first kernel call (the cap is read
//! once per process). Every test funnels through one `Once`, so `set_var`
//! runs exactly once, before any other thread can be reading the
//! environment (tests run in parallel; concurrent getenv/setenv races are
//! what made `set_var` unsafe in edition 2024).

use proptest::prelude::*;
use teal_nn::par::{par_row_chunks_mut, pmatmul};
use teal_nn::rng::seeded;
use teal_nn::tensor::{matmul, Tensor};
use teal_nn::Csr;

/// Force a 4-thread pool before any kernel runs (see module docs).
fn force_pool() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        std::env::set_var("TEAL_NN_THREADS", "4");
        // Freeze the cap (reads the env var) while every other test thread
        // is still blocked on this `Once` — no concurrent getenv.
        assert_eq!(teal_nn::par::max_threads(), 4, "thread cap already frozen");
    });
    assert_eq!(teal_nn::par::max_threads(), 4);
    assert_eq!(teal_nn::pool::worker_count(), 3);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pool matmul ≡ serial matmul on sizes large enough to cross the
    /// parallel threshold (2^18 FLOPs). Row-chunked workers reproduce the
    /// serial accumulation order per row, so the match is bit-exact; we
    /// assert the satellite's 1e-6 bar via exact equality.
    #[test]
    fn pooled_matmul_matches_serial(m in 64usize..200, k in 48usize..96, n in 48usize..96, seed in 0u64..1000) {
        force_pool();
        prop_assume!(m * k * n >= (1 << 18)); // stay on the pooled path
        let a = random_tensor(m, k, seed);
        let b = random_tensor(k, n, seed ^ 0xabcd);
        let pooled = pmatmul(&a, &b);
        let serial = matmul(&a, &b);
        for (i, (x, y)) in pooled.data().iter().zip(serial.data()).enumerate() {
            prop_assert!(x.to_bits() == y.to_bits() || (x - y).abs() <= 1e-6,
                "element {} differs: pooled {} vs serial {}", i, x, y);
        }
    }

    /// Sparse row-parallel SpMM ≡ the same kernel forced serial.
    #[test]
    fn pooled_spmm_matches_serial(rows in 96usize..192, cols in 48usize..96, d in 8usize..24, seed in 0u64..1000) {
        force_pool();
        let mut rng = seeded(seed);
        // ~25% dense random CSR.
        let mut entries: Vec<(usize, usize, f32)> = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rand::Rng::gen::<f32>(&mut rng) < 0.25 {
                    entries.push((r, c, rand::Rng::gen::<f32>(&mut rng) - 0.5));
                }
            }
        }
        prop_assume!(!entries.is_empty());
        let csr = Csr::from_triplets(rows, cols, &entries);
        let x = random_tensor(cols, d, seed ^ 0x5eed);
        let pooled = csr.spmm(&x);
        // Serial reference: dense matmul against the materialized matrix.
        let mut dense = Tensor::zeros(rows, cols);
        for &(r, c, v) in &entries {
            dense.data_mut()[r * cols + c] += v;
        }
        let serial = matmul(&dense, &x);
        for (i, (a, b)) in pooled.data().iter().zip(serial.data()).enumerate() {
            prop_assert!((a - b).abs() <= 1e-4,
                "spmm element {} differs: pooled {} vs dense {}", i, a, b);
        }
    }

    /// Row-aligned chunking never splits a row and covers everything.
    #[test]
    fn pooled_row_chunks_cover_all(rows in 1usize..300, width in 1usize..32) {
        force_pool();
        let mut data = vec![0u32; rows * width];
        // Huge `work` forces the pooled path regardless of size.
        par_row_chunks_mut_u32(&mut data, width, |row0, chunk| {
            assert_eq!(chunk.len() % width, 0, "chunk split a row");
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (row0 * width + i) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            prop_assert_eq!(*v, i as u32);
        }
    }
}

/// `par_row_chunks_mut` is `f32`-typed; mirror its row-aligned chunking for
/// a `u32` coverage check by round-tripping through bit patterns.
fn par_row_chunks_mut_u32<F>(data: &mut [u32], width: usize, f: F)
where
    F: Fn(usize, &mut [u32]) + Sync,
{
    let mut floats: Vec<f32> = data.iter().map(|&v| f32::from_bits(v)).collect();
    par_row_chunks_mut(&mut floats, width, usize::MAX, |row0, chunk| {
        let mut ints: Vec<u32> = chunk.iter().map(|v| v.to_bits()).collect();
        f(row0, &mut ints);
        for (slot, v) in chunk.iter_mut().zip(ints) {
            *slot = f32::from_bits(v);
        }
    });
    for (slot, v) in data.iter_mut().zip(floats) {
        *slot = v.to_bits();
    }
}

/// Kernels stay correct when hammered from many threads at once (the
/// serving daemon's dispatcher races training and other callers).
#[test]
fn concurrent_kernel_callers_agree_with_serial() {
    force_pool();
    let a = random_tensor(96, 64, 1);
    let b = random_tensor(64, 80, 2);
    let want = matmul(&a, &b);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let (a, b, want) = (&a, &b, &want);
            s.spawn(move || {
                for _ in 0..8 {
                    let got = pmatmul(a, b);
                    assert!(got.approx_eq(want, 1e-6), "concurrent pmatmul diverged");
                }
            });
        }
    });
}
