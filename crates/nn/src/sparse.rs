//! Compressed sparse row (CSR) matrices and sparse-dense products.
//!
//! FlowGNN's message passing is a fixed bipartite incidence structure
//! (paths x edges), so the sparse pattern never changes between forward
//! passes. We pre-build a CSR matrix together with its transpose once per
//! topology and reuse the pair for every forward/backward pass: the backward
//! pass of `y = A x` needs `A^T dy`, which is just another SpMM with the
//! stored transpose.
//!
//! # Why there is no column blocking
//!
//! [`Csr::spmm_batch`] has two shapes: a plain row walk, and a four-lane
//! gather for the `d == 1` right-hand sides of the first GNN layer (f32
//! lanes recombined once per row, which reassociates within the 1e-6 budget
//! the `spmm_blocked` suite pins against [`Csr::spmm_batch_reference`]; for
//! `d >= 2` the walk has the reference's per-row order and is bitwise equal
//! to it). A per-row column-block pointer arena with a tiled walk over
//! L1-sized blocks of `x` used to sit beside them for wide matrices. Timed
//! alone on the 1,024-node incidence (one call at batch 4 and model width,
//! the repo benchmark's `nn.sparse.spmm_batch_{fwd,bwd}_ms` on
//! `wan1024_window`, ten alternating runs, outputs bitwise equal) it was
//! 2.3x *slower* than the plain walk — 2.48 vs 1.07 ms forward, 2.34 vs
//! 0.98 ms transposed: a path crosses about four edges, so the five to
//! nine block-pointer loads per row cost more than the `x` reuse they buy.
//! It was deleted rather than tuned.

use crate::tensor::Tensor;
use std::sync::Arc;

/// A CSR sparse matrix with `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row start offsets, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, one per non-zero.
    col_idx: Vec<u32>,
    /// Non-zero values parallel to `col_idx`.
    values: Vec<f32>,
}

impl Csr {
    /// Build from COO triplets. Duplicate coordinates are summed.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds {rows}x{cols}"
            );
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<u32> = merged.iter().map(|&(_, c, _)| c as u32).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();

        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Adopt CSR arrays as they stand, for a caller that already holds its
    /// rows in order: no triplet list, no sort. Panics unless `row_ptr` is
    /// `rows + 1` non-decreasing offsets from 0 to `col_idx.len()` and every
    /// row's columns are strictly ascending and below `cols` — what
    /// [`Csr::from_triplets`] would have produced from the same entries.
    pub fn from_sorted_rows(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(row_ptr[rows], col_idx.len(), "row_ptr must end at nnz");
        assert_eq!(values.len(), col_idx.len(), "one value per column index");
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr must not decrease");
            let row = &col_idx[w[0]..w[1]];
            assert!(
                row.windows(2).all(|c| c[0] < c[1]),
                "row columns must be strictly ascending"
            );
            assert!(
                row.last().is_none_or(|&c| (c as usize) < cols),
                "column out of bounds"
            );
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over `(col, value)` entries of one row.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(self.values[lo..hi].iter())
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Csr {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        Csr::from_triplets(self.cols, self.rows, &triplets)
    }

    /// Sparse-dense product `out = self * x` where `x` is `cols x d`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        self.spmm_batch(x, 1)
    }

    /// Block-diagonal batched product: `x` stacks `batch` matrices of shape
    /// `[cols, d]` vertically, and the result stacks the `batch` products
    /// `self * x_b` the same way. Equivalent to `(I_batch ⊗ self) * x`
    /// without materializing the Kronecker structure; a training minibatch
    /// routes every traffic matrix through one call. One serial row walk —
    /// callers that want a second core split work above the kernel.
    pub fn spmm_batch(&self, x: &Tensor, batch: usize) -> Tensor {
        assert!(batch >= 1, "spmm_batch requires batch >= 1");
        assert_eq!(
            x.rows(),
            self.cols * batch,
            "spmm_batch shape mismatch: x has {} rows, expected {} x {}",
            x.rows(),
            batch,
            self.cols
        );
        let d = x.cols();
        let mut out = Tensor::zeros(self.rows * batch, d);
        let rows = self.rows;
        let xd = x.data();
        if d == 1 {
            // First-layer embeddings: a pure gather. Four independent
            // f32 lanes over the non-zeros of each row, recombined once.
            for (gr, out_row) in out.data_mut().iter_mut().enumerate() {
                let (b, r) = (gr / rows, gr % rows);
                let x_off = b * self.cols;
                let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
                let mut s0 = 0.0f32;
                let mut s1 = 0.0f32;
                let mut s2 = 0.0f32;
                let mut s3 = 0.0f32;
                let mut e = lo;
                while e + 4 <= hi {
                    s0 += self.values[e] * xd[x_off + self.col_idx[e] as usize];
                    s1 += self.values[e + 1] * xd[x_off + self.col_idx[e + 1] as usize];
                    s2 += self.values[e + 2] * xd[x_off + self.col_idx[e + 2] as usize];
                    s3 += self.values[e + 3] * xd[x_off + self.col_idx[e + 3] as usize];
                    e += 4;
                }
                let mut s = (s0 + s1) + (s2 + s3);
                while e < hi {
                    s += self.values[e] * xd[x_off + self.col_idx[e] as usize];
                    e += 1;
                }
                *out_row = s;
            }
        } else if d > 1 {
            for (gr, out_row) in out.data_mut().chunks_mut(d).enumerate() {
                let (b, r) = (gr / rows, gr % rows);
                let x_off = b * self.cols;
                let lo = self.row_ptr[r];
                let hi = self.row_ptr[r + 1];
                for e in lo..hi {
                    let c = self.col_idx[e] as usize;
                    let v = self.values[e];
                    let x_row = &xd[(x_off + c) * d..(x_off + c + 1) * d];
                    for (o, &xv) in out_row.iter_mut().zip(x_row.iter()) {
                        *o += v * xv;
                    }
                }
            }
        }
        out
    }

    /// Scalar reference SpMM: the plain single-threaded walk with no
    /// unrolled lanes. This is the oracle the `spmm_blocked` proptest suite
    /// pins [`Csr::spmm_batch`] against (bitwise for `d >= 2`, 1e-6 for the
    /// `d == 1` gather).
    pub fn spmm_batch_reference(&self, x: &Tensor, batch: usize) -> Tensor {
        assert!(batch >= 1, "spmm_batch requires batch >= 1");
        assert_eq!(x.rows(), self.cols * batch, "reference shape mismatch");
        let d = x.cols();
        let mut out = Tensor::zeros(self.rows * batch, d);
        for b in 0..batch {
            for r in 0..self.rows {
                for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let c = self.col_idx[e] as usize;
                    let v = self.values[e];
                    for j in 0..d {
                        let acc = out.get(b * self.rows + r, j) + v * x.get(b * self.cols + c, j);
                        out.set(b * self.rows + r, j, acc);
                    }
                }
            }
        }
        out
    }

    /// Dense representation, for tests and small problems.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }
}

/// A CSR matrix paired with its pre-computed transpose.
///
/// Shareable across forward passes via `Arc`; the autograd graph stores a
/// clone of the `Arc` in each SpMM node so backward can run `A^T * dy`
/// without rebuilding anything.
#[derive(Clone, Debug)]
pub struct CsrPair {
    /// The forward matrix `A`.
    pub fwd: Arc<Csr>,
    /// `A^T`.
    pub bwd: Arc<Csr>,
}

impl CsrPair {
    /// Build both directions from COO triplets for `A` (`rows x cols`).
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let fwd = Csr::from_triplets(rows, cols, triplets);
        let bwd = fwd.transposed();
        CsrPair {
            fwd: Arc::new(fwd),
            bwd: Arc::new(bwd),
        }
    }

    /// The pair for `A^T` (swaps the two directions).
    pub fn transposed(&self) -> CsrPair {
        CsrPair {
            fwd: Arc::clone(&self.bwd),
            bwd: Arc::clone(&self.fwd),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::matmul;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0],
        //  [0, 5, 6]]
        Csr::from_triplets(
            4,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (2, 0, 3.0),
                (2, 1, 4.0),
                (3, 1, 5.0),
                (3, 2, 6.0),
            ],
        )
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample();
        let d = a.to_dense();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(d.get(3, 2), 6.0);
        assert_eq!(a.nnz(), 6);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = Csr::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.to_dense().item(), 3.5);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = sample();
        let x = Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, 3.0, 0.0]);
        let sparse = a.spmm(&x);
        let dense = matmul(&a.to_dense(), &x);
        assert!(sparse.approx_eq(&dense, 1e-6));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = sample();
        let at = a.transposed();
        assert!(at.to_dense().approx_eq(&a.to_dense().transposed(), 1e-6));
    }

    #[test]
    fn pair_directions_consistent() {
        let p = CsrPair::from_triplets(4, 3, &[(0, 1, 1.0), (2, 2, 2.0)]);
        assert_eq!(p.fwd.rows(), 4);
        assert_eq!(p.bwd.rows(), 3);
        let t = p.transposed();
        assert_eq!(t.fwd.rows(), 3);
    }

    #[test]
    fn spmm_batch_matches_per_block_spmm() {
        let a = sample();
        // Two stacked [3, 2] blocks with distinct values.
        let x0 = Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, 3.0, 0.0]);
        let x1 = Tensor::from_vec(3, 2, vec![-2.0, 4.0, 1.5, 0.0, -1.0, 2.5]);
        let mut stacked = x0.data().to_vec();
        stacked.extend_from_slice(x1.data());
        let x = Tensor::from_vec(6, 2, stacked);
        let y = a.spmm_batch(&x, 2);
        assert_eq!(y.shape(), (8, 2));
        let y0 = a.spmm(&x0);
        let y1 = a.spmm(&x1);
        for r in 0..4 {
            assert_eq!(y.row(r), y0.row(r), "block 0 row {r}");
            assert_eq!(y.row(r + 4), y1.row(r), "block 1 row {r}");
        }
    }

    #[test]
    fn spmm_wide_rhs_matches_dense() {
        let mut triplets = Vec::new();
        for r in 0..300 {
            triplets.push((r, r % 7, 1.0 + r as f32 * 0.01));
            triplets.push((r, (r * 3) % 7, -0.5));
        }
        let a = Csr::from_triplets(300, 7, &triplets);
        let x = Tensor::from_vec(
            7,
            96,
            (0..7 * 96).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let sparse = a.spmm(&x);
        let dense = matmul(&a.to_dense(), &x);
        assert!(sparse.approx_eq(&dense, 1e-4));
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = Csr::from_triplets(3, 3, &[]);
        let x = Tensor::full(3, 2, 1.0);
        assert_eq!(a.spmm(&x).sum(), 0.0);
    }
}
