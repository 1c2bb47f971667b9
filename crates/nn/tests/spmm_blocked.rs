//! Property tests: [`Csr::spmm_batch`] ≡ the scalar reference walk —
//! bitwise for `d >= 2`, to 1e-6 for the `d == 1` gather.
//!
//! The production kernel takes two shapes — a four-lane unrolled gather
//! for `d == 1` (which reassociates the row sum) and the plain streaming
//! walk otherwise (which has [`Csr::spmm_batch_reference`]'s per-row order
//! exactly). Both are pinned against that single-threaded reference on
//! random incidence structures and batch sizes; CI runs the suite under
//! `TEAL_NN_THREADS=1` and `=4`, so thread-count independence is pinned
//! too. Random inputs come in two flavors: genuinely random sparse
//! matrices, including ones wide and dense enough (`cols > 1024`,
//! `nnz >= 4096`) that they took the column-blocked walk this file is named
//! after until it was measured slower and deleted, and real path-edge
//! incidence structures from random generated topologies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_nn::sparse::Csr;
use teal_nn::tensor::Tensor;
use teal_topology::{gravity_pairs, large_wan, PathSet};

const TOL: f32 = 1e-6;

/// `Σ |v| · |x|` per output element — the magnitude actually accumulated.
/// Reassociated f32 sums agree to ~ULP of this, not of the (possibly
/// cancelled) final value, so the 1e-6 budget is taken relative to it.
fn abs_bound(a: &Csr, x: &Tensor, batch: usize) -> Tensor {
    let d = x.cols();
    let mut out = Tensor::zeros(a.rows() * batch, d);
    for b in 0..batch {
        for r in 0..a.rows() {
            for (c, v) in a.row_entries(r) {
                for j in 0..d {
                    let acc =
                        out.get(b * a.rows() + r, j) + v.abs() * x.get(b * a.cols() + c, j).abs();
                    out.set(b * a.rows() + r, j, acc);
                }
            }
        }
    }
    out
}

/// For `d >= 2` the kernel must equal the scalar reference bitwise. The
/// `d == 1` gather reassociates f32 sums; there each element must match
/// within `1e-6 * max(1, Σ|v·x|)`.
fn assert_close(a: &Csr, x: &Tensor, batch: usize) -> Result<(), String> {
    let got = a.spmm_batch(x, batch);
    let want = a.spmm_batch_reference(x, batch);
    prop_assert_eq!(got.shape(), want.shape());
    if x.cols() >= 2 {
        for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
            prop_assert!(
                g.to_bits() == w.to_bits(),
                "element {} (d = {}): kernel {} vs reference {} differ bitwise",
                i,
                x.cols(),
                g,
                w
            );
        }
        return Ok(());
    }
    let bound = abs_bound(a, x, batch);
    for (i, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        let scale = 1.0f32.max(bound.data()[i]);
        prop_assert!(
            (g - w).abs() <= TOL * scale,
            "element {}: gather {} vs reference {} (bound {})",
            i,
            g,
            w,
            scale
        );
    }
    Ok(())
}

/// A random CSR with about `nnz` non-zeros (duplicate coordinates merge).
fn random_csr(rng: &mut StdRng, rows: usize, cols: usize, nnz: usize) -> Csr {
    let mut triplets = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        let v = rng.gen_range(-2.0f64..2.0) as f32;
        triplets.push((r, c, v));
    }
    Csr::from_triplets(rows, cols, &triplets)
}

fn random_x(rng: &mut StdRng, rows: usize, d: usize) -> Tensor {
    Tensor::from_vec(
        rows,
        d,
        (0..rows * d)
            .map(|_| rng.gen_range(-1.0f64..1.0) as f32)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Wide random matrices (cols > 1024, nnz >= 4096), the shape that used
    /// to take the blocked tile walk: the plain walk and, at d == 1, the
    /// unrolled gather, against the scalar oracle.
    #[test]
    fn blocked_kernel_matches_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(40..160);
        let cols = rng.gen_range(1200..3000);
        let nnz = rng.gen_range(4200..9000);
        let a = random_csr(&mut rng, rows, cols, nnz);
        for &d in &[1usize, 2, 5, 6] {
            for &batch in &[1usize, 2, 5] {
                let x = random_x(&mut rng, cols * batch, d);
                assert_close(&a, &x, batch)?;
            }
        }
    }

    /// Small/narrow matrices: same two kernels, same oracle.
    #[test]
    fn unblocked_kernel_matches_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let rows = rng.gen_range(5..80);
        let cols = rng.gen_range(3..200);
        let nnz = rng.gen_range(1..600);
        let a = random_csr(&mut rng, rows, cols, nnz);
        for &d in &[1usize, 3, 6] {
            for &batch in &[1usize, 4] {
                let x = random_x(&mut rng, cols * batch, d);
                assert_close(&a, &x, batch)?;
            }
        }
    }

    /// Real FlowGNN structure: path-edge incidence of a random generated
    /// WAN, in both message-passing directions, across batch sizes.
    #[test]
    fn incidence_kernels_match_reference(seed in 0u64..1_000_000, n in 64usize..128) {
        let topo = large_wan(n, seed);
        let pairs = gravity_pairs(&topo, 3 * n, seed ^ 1);
        let paths = PathSet::compute(&topo, &pairs, 4);
        let trips = paths.incidence_triplets();
        let fwd = Csr::from_triplets(paths.num_paths(), topo.num_edges(), &trips);
        let bwd = fwd.transposed();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        for a in [&fwd, &bwd] {
            for &d in &[1usize, 4] {
                for &batch in &[1usize, 3] {
                    let x = random_x(&mut rng, a.cols() * batch, d);
                    assert_close(a, &x, batch)?;
                }
            }
        }
    }
}

/// Batched call ≡ stacked per-block calls, bitwise, on a wide matrix — the
/// kernel a row takes must never depend on batch.
#[test]
fn blocked_batch_equals_per_block_bitwise() {
    let mut rng = StdRng::seed_from_u64(99);
    let a = random_csr(&mut rng, 96, 2048, 6000);
    for &d in &[2usize, 6] {
        let x0 = random_x(&mut rng, 2048, d);
        let x1 = random_x(&mut rng, 2048, d);
        let mut stacked = x0.data().to_vec();
        stacked.extend_from_slice(x1.data());
        let x = Tensor::from_vec(2 * 2048, d, stacked);
        let y = a.spmm_batch(&x, 2);
        let y0 = a.spmm_batch(&x0, 1);
        let y1 = a.spmm_batch(&x1, 1);
        for r in 0..96 {
            assert_eq!(y.row(r), y0.row(r), "d={d} block 0 row {r}");
            assert_eq!(y.row(r + 96), y1.row(r), "d={d} block 1 row {r}");
        }
    }
}
