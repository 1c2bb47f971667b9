//! Pattern-only compressed sparse row (CSR) matrices and sparse-dense
//! products.
//!
//! FlowGNN's message passing is a fixed bipartite incidence structure
//! (paths x edges) whose every entry is 1, so a [`Csr`] stores the pattern
//! alone — row offsets and column ids, both `u32`, both shared `Arc<[u32]>`
//! — and an SpMM names how it combines a row's entries ([`Aggregate`]):
//! `Sum` is the 0/1 matrix's product, `Mean` the row-normalised one. A
//! pattern-only `Sum` computes `Σ x` where a valued one computed `Σ 1.0·x`;
//! `1.0 * x == x` exactly in IEEE arithmetic, so dropping the values moved
//! no bit.
//!
//! A [`CsrPair`] holds the operator and its transpose, because the backward
//! pass of `y = A x` needs `Aᵀ dy`, which is just another SpMM. For the
//! path-edge incidence neither direction is a build of this module:
//! `teal_core::Env` adopts the path set's edge→path arena (its offsets and
//! path ids, the same `Arc`s) as `Aᵀ`, and gives `A` the path set's
//! path-major offsets plus one sorted copy of each path's edge ids. That
//! copy is the only incidence array the pair owns: the `d >= 2` row walk's
//! summation order is the column order, and it is pinned bitwise.
//!
//! # One row walk
//!
//! Every product here is one function, [`Csr::aggregate_row`]: row `r` of
//! `agg(A) x` into a caller's row. [`Csr::spmm`] walks it over its output
//! rows, and the tape-free FlowGNN layer (`teal_core`) calls it per path or
//! edge row into a stack row that goes straight into the dense layer, so
//! no message tensor is built for inference. It has two shapes: a four-lane
//! gather for the `d == 1` right-hand sides of the first GNN layer (f32
//! lanes recombined once per row, which reassociates within the 1e-6 budget
//! the `spmm_blocked` suite pins against [`Csr::spmm_batch_reference`]),
//! and for `d >= 2` a walk in the reference's per-row order, bitwise equal
//! to it.
//!
//! # Why there is no column blocking
//!
//! A per-row column-block pointer arena with a tiled walk over L1-sized
//! blocks of `x` used to sit beside the walk for wide matrices. Timed
//! alone on the 1,024-node incidence (one call at batch 4 and model width,
//! the repo benchmark's `nn.sparse.spmm_batch_{fwd,bwd}_ms` on
//! `wan1024_window`, ten alternating runs, outputs bitwise equal) it was
//! 2.3x *slower* than the plain walk — 2.48 vs 1.07 ms forward, 2.34 vs
//! 0.98 ms transposed: a path crosses about four edges, so the five to
//! nine block-pointer loads per row cost more than the `x` reuse they buy.
//! It was deleted rather than tuned.

use crate::tensor::Tensor;
use std::sync::Arc;

/// How an SpMM combines the entries of one row of its pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// `y_r = Σ_{c ∈ row r} x_c`: the product with the 0/1 matrix.
    Sum,
    /// `y_r = (Σ_{c ∈ row r} x_c) / |row r|`: the row sum, then one f32
    /// divide by the row's length (read off the offsets, so nothing is
    /// stored). An empty row stays 0.
    Mean,
}

/// A pattern-only CSR matrix: every stored entry is 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    cols: usize,
    /// Row start offsets, length `rows + 1`.
    row_ptr: Arc<[u32]>,
    /// Column indices, one per non-zero, ascending within a row.
    col_idx: Arc<[u32]>,
}

impl Csr {
    /// Build from `(row, col)` entries in any order. A repeated coordinate
    /// is stored once.
    pub fn from_pattern(rows: usize, cols: usize, entries: &[(usize, usize)]) -> Self {
        assert!(
            rows.max(cols).max(entries.len()) <= u32::MAX as usize,
            "a pattern's rows, columns and non-zeros are u32"
        );
        for &(r, c) in entries {
            assert!(
                r < rows && c < cols,
                "entry ({r},{c}) out of bounds {rows}x{cols}"
            );
        }
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut row_ptr = vec![0u32; rows + 1];
        for &(r, _) in &sorted {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx: Vec<u32> = sorted.iter().map(|&(_, c)| c as u32).collect();
        Csr::from_sorted_rows(cols, row_ptr.into(), col_idx.into())
    }

    /// Adopt CSR arrays as they stand — shared, not copied — for a caller
    /// that already holds its rows in order. Panics unless `row_ptr` is
    /// non-decreasing offsets from 0 to `col_idx.len()` and every row's
    /// columns are strictly ascending and below `cols` — what
    /// [`Csr::from_pattern`] would have produced from the same entries.
    pub fn from_sorted_rows(cols: usize, row_ptr: Arc<[u32]>, col_idx: Arc<[u32]>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr holds rows + 1 offsets");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            row_ptr[row_ptr.len() - 1] as usize,
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        for w in row_ptr.windows(2) {
            assert!(w[0] <= w[1], "row_ptr must not decrease");
            let row = &col_idx[w[0] as usize..w[1] as usize];
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
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The columns of row `r`, ascending.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// The shared arrays: `rows + 1` offsets and the column ids they index.
    pub fn pattern(&self) -> (&Arc<[u32]>, &Arc<[u32]>) {
        (&self.row_ptr, &self.col_idx)
    }

    /// The transpose's pattern.
    pub fn transposed(&self) -> Csr {
        let entries: Vec<(usize, usize)> = (0..self.rows())
            .flat_map(|r| self.row(r).iter().map(move |&c| (c as usize, r)))
            .collect();
        Csr::from_pattern(self.cols, self.rows(), &entries)
    }

    /// Block-diagonal batched product under `agg`: `x` stacks `batch`
    /// matrices of shape `[cols, d]` vertically, and the result stacks the
    /// `batch` products `self * x_b` the same way. Equivalent to
    /// `(I_batch ⊗ self) * x` without materializing the Kronecker
    /// structure. One serial walk of [`Csr::aggregate_row`] over the output
    /// rows — callers that want a second core split work above the kernel.
    pub fn spmm(&self, x: &Tensor, batch: usize, agg: Aggregate) -> Tensor {
        assert!(batch >= 1, "spmm requires batch >= 1");
        let rows = self.rows();
        assert_eq!(
            x.rows(),
            self.cols * batch,
            "spmm shape mismatch: x has {} rows, expected {} x {}",
            x.rows(),
            batch,
            self.cols
        );
        let d = x.cols();
        let mut out = Tensor::zeros(rows * batch, d);
        if d > 0 {
            let block = self.cols * d;
            for (gr, out_row) in out.data_mut().chunks_exact_mut(d).enumerate() {
                let b = gr / rows;
                let x_b = &x.data()[b * block..(b + 1) * block];
                self.aggregate_row(gr % rows, x_b, agg, out_row);
            }
        }
        out
    }

    /// [`Csr::spmm`] under [`Aggregate::Sum`].
    pub fn spmm_batch(&self, x: &Tensor, batch: usize) -> Tensor {
        self.spmm(x, batch, Aggregate::Sum)
    }

    /// Row `r` of `agg(self) * x` into `out`, where `x` holds one block's
    /// `[cols, d]` rows and `d == out.len()`: the row walk of every SpMM
    /// here, and of the tape-free FlowGNN layer, which sums each message
    /// into a stack row and hands it straight to its dense layer. At
    /// `d == 1` (the first GNN layer) it is a pure gather: four
    /// independent f32 lanes over the row's non-zeros, recombined once.
    /// Otherwise each `x` row is added in column order onto zeros (the
    /// first as `0.0 + x`, which spares a per-row zero fill). `Mean`
    /// then divides every element by the row's length, in f32.
    #[inline(always)]
    pub fn aggregate_row(&self, r: usize, x: &[f32], agg: Aggregate, out: &mut [f32]) {
        let cols = self.row(r);
        let d = out.len();
        if d == 1 {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let mut quads = cols.chunks_exact(4);
            for q in &mut quads {
                s0 += x[q[0] as usize];
                s1 += x[q[1] as usize];
                s2 += x[q[2] as usize];
                s3 += x[q[3] as usize];
            }
            let mut s = (s0 + s1) + (s2 + s3);
            for &c in quads.remainder() {
                s += x[c as usize];
            }
            out[0] = s;
        } else if let Some((&first, rest)) = cols.split_first() {
            // `0.0 + x`, not a copy: the sum starts on zeros, so a -0.0
            // input reads +0.0, as in the reference walk.
            let first = first as usize;
            for (o, &xv) in out.iter_mut().zip(&x[first * d..(first + 1) * d]) {
                *o = 0.0 + xv;
            }
            for &c in rest {
                let c = c as usize;
                for (o, &xv) in out.iter_mut().zip(&x[c * d..(c + 1) * d]) {
                    *o += xv;
                }
            }
        } else {
            out.fill(0.0);
        }
        if agg == Aggregate::Mean {
            self.divide_row_by_len(r, out);
        }
    }

    /// `Mean`'s per-row step: one f32 divide of every element of `row` by
    /// row `r`'s length; an empty row is left as it is.
    #[inline(always)]
    fn divide_row_by_len(&self, r: usize, row: &mut [f32]) {
        let len = self.row_ptr[r + 1] - self.row_ptr[r];
        if len > 0 {
            let n = len as f32;
            for v in row {
                *v /= n;
            }
        }
    }

    /// [`Csr::divide_row_by_len`] on every row of `y` (of each stacked
    /// block). The autograd SpMM applies it to `dy` before the transposed
    /// `Sum`, which makes its backward the exact transpose of the forward.
    pub(crate) fn divide_rows_by_len(&self, y: &mut Tensor) {
        let rows = self.rows();
        let d = y.cols();
        if d == 0 {
            return;
        }
        for (gr, out_row) in y.data_mut().chunks_mut(d).enumerate() {
            self.divide_row_by_len(gr % rows, out_row);
        }
    }

    /// Scalar reference `Sum` SpMM: the plain single-threaded walk with no
    /// unrolled lanes. This is the oracle the `spmm_blocked` proptest suite
    /// pins [`Csr::spmm_batch`] against (bitwise for `d >= 2`, 1e-6 for the
    /// `d == 1` gather).
    pub fn spmm_batch_reference(&self, x: &Tensor, batch: usize) -> Tensor {
        assert!(batch >= 1, "spmm requires batch >= 1");
        assert_eq!(x.rows(), self.cols * batch, "reference shape mismatch");
        let (rows, d) = (self.rows(), x.cols());
        let mut out = Tensor::zeros(rows * batch, d);
        for b in 0..batch {
            for r in 0..rows {
                for &c in self.row(r) {
                    let c = c as usize;
                    for j in 0..d {
                        let acc = out.get(b * rows + r, j) + x.get(b * self.cols + c, j);
                        out.set(b * rows + r, j, acc);
                    }
                }
            }
        }
        out
    }

    /// Dense 0/1 representation, for tests and small problems.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows(), self.cols);
        for r in 0..self.rows() {
            for &c in self.row(r) {
                out.set(r, c as usize, 1.0);
            }
        }
        out
    }
}

/// A pattern paired with its transpose.
///
/// Shareable across forward passes via `Arc`; the autograd graph stores a
/// clone of the pair in each SpMM node so backward can run `Aᵀ dy` without
/// rebuilding anything.
#[derive(Clone, Debug)]
pub struct CsrPair {
    /// The forward matrix `A`.
    pub fwd: Arc<Csr>,
    /// `Aᵀ`.
    pub bwd: Arc<Csr>,
}

impl CsrPair {
    /// Build both directions from the `(row, col)` entries of `A`
    /// (`rows x cols`).
    pub fn from_pattern(rows: usize, cols: usize, entries: &[(usize, usize)]) -> Self {
        let fwd = Csr::from_pattern(rows, cols, entries);
        let bwd = fwd.transposed();
        CsrPair {
            fwd: Arc::new(fwd),
            bwd: Arc::new(bwd),
        }
    }

    /// The pair for `Aᵀ` (swaps the two directions).
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
        // [[1, 0, 1],
        //  [0, 0, 0],
        //  [1, 1, 0],
        //  [0, 1, 1]]
        Csr::from_pattern(4, 3, &[(0, 0), (0, 2), (2, 0), (2, 1), (3, 1), (3, 2)])
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample();
        let d = a.to_dense();
        assert_eq!(d.get(0, 2), 1.0);
        assert_eq!(d.get(1, 1), 0.0);
        assert_eq!(d.get(3, 2), 1.0);
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.row(2), &[0, 1]);
    }

    #[test]
    fn duplicates_are_stored_once() {
        let a = Csr::from_pattern(1, 1, &[(0, 0), (0, 0)]);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.to_dense().item(), 1.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = sample();
        let x = Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, 3.0, 0.0]);
        let sparse = a.spmm(&x, 1, Aggregate::Sum);
        let dense = matmul(&a.to_dense(), &x);
        assert!(sparse.approx_eq(&dense, 1e-6));
    }

    /// `Mean` is the dense row-normalised matrix's product; the empty row
    /// stays 0.
    #[test]
    fn mean_matches_row_normalised_dense() {
        let a = sample();
        let mut m = a.to_dense();
        for r in 0..a.rows() {
            let n = a.row(r).len().max(1) as f32;
            for c in 0..a.cols() {
                m.set(r, c, m.get(r, c) / n);
            }
        }
        let x = Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 2.0, 3.0, 0.0]);
        let mean = a.spmm(&x, 1, Aggregate::Mean);
        assert!(mean.approx_eq(&matmul(&m, &x), 1e-6));
        assert_eq!(mean.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let a = sample();
        let at = a.transposed();
        assert_eq!(at.to_dense(), a.to_dense().transposed());
        assert_eq!(at.transposed(), a);
    }

    #[test]
    fn pair_directions_consistent() {
        let p = CsrPair::from_pattern(4, 3, &[(0, 1), (2, 2)]);
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
        for agg in [Aggregate::Sum, Aggregate::Mean] {
            let y = a.spmm(&x, 2, agg);
            assert_eq!(y.shape(), (8, 2));
            let y0 = a.spmm(&x0, 1, agg);
            let y1 = a.spmm(&x1, 1, agg);
            for r in 0..4 {
                assert_eq!(y.row(r), y0.row(r), "{agg:?} block 0 row {r}");
                assert_eq!(y.row(r + 4), y1.row(r), "{agg:?} block 1 row {r}");
            }
        }
    }

    #[test]
    fn spmm_wide_rhs_matches_dense() {
        let mut entries = Vec::new();
        for r in 0..300 {
            entries.push((r, r % 7));
            entries.push((r, (r * 3) % 7));
        }
        let a = Csr::from_pattern(300, 7, &entries);
        let x = Tensor::from_vec(
            7,
            96,
            (0..7 * 96).map(|i| (i as f32 * 0.37).sin()).collect(),
        );
        let sparse = a.spmm(&x, 1, Aggregate::Sum);
        let dense = matmul(&a.to_dense(), &x);
        assert!(sparse.approx_eq(&dense, 1e-4));
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = Csr::from_pattern(3, 3, &[]);
        let x = Tensor::full(3, 2, 1.0);
        assert_eq!(a.spmm(&x, 1, Aggregate::Sum).sum(), 0.0);
        assert_eq!(a.spmm(&x, 1, Aggregate::Mean).sum(), 0.0);
    }
}
