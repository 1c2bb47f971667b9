//! Dense 2-D tensor used throughout the Teal reproduction.
//!
//! All neural-network state in this project is two-dimensional (batches of
//! embeddings, weight matrices, column vectors), so the tensor type is a flat
//! row-major `Vec<f32>` with an explicit `(rows, cols)` shape. Keeping the
//! representation this simple makes the autograd kernels in
//! [`crate::graph`] easy to audit and easy to parallelize.

use std::fmt;

/// A dense, row-major matrix of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from raw parts. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// A tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// A 1 x 1 tensor holding a scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(1, 1, vec![value])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable slice of one row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The scalar value of a 1 x 1 tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshaped(&self, rows: usize, cols: usize) -> Tensor {
        assert_eq!(
            rows * cols,
            self.len(),
            "reshape must preserve element count"
        );
        Tensor {
            rows,
            cols,
            data: self.data.clone(),
        }
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * *b;
        }
    }

    /// In-place scaling by a constant.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Elementwise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

/// Dense matrix multiply `out = a * b`, single-threaded kernel.
///
/// Uses an i-k-j loop order so the inner loop streams through contiguous rows
/// of `b`, which is the cache-friendly order for row-major data.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.cols, b.rows,
        "matmul shape mismatch: {}x{} * {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let (m, k) = a.shape();
    let n = b.cols;
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (kk, &a_ik) in a_row.iter().enumerate().take(k) {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * bv;
            }
        }
    }
    out
}

/// Fused dense layer kernel: `out = leaky(a * w + bias)` computed row by
/// row, touching each output row exactly once while it is cache-resident.
/// `slope == 1.0` makes the activation the identity (no-activation layers).
/// Avoids the two intermediate tensors (and four extra memory passes) a
/// matmul / bias-add / activation op chain would allocate — the difference
/// between cache-resident and RAM-bound on wide batched inputs. This is
/// [`linear2_act_into`] with an empty second operand.
pub fn linear_act_into(a: &[f32], k: usize, w: &Tensor, bias: &[f32], slope: f32, out: &mut [f32]) {
    linear2_act_into(a, k, &[], 0, w, bias, slope, out);
}

/// Fused two-input dense layer kernel: `out = leaky([a | b] * w + bias)`
/// without materializing the column concatenation. `w`'s first `a_cols`
/// rows apply to `a`, the rest to `b`. This is [`Dense::rows_into`].
#[allow(clippy::too_many_arguments)]
pub fn linear2_act_into(
    a: &[f32],
    a_cols: usize,
    b: &[f32],
    b_cols: usize,
    w: &Tensor,
    bias: &[f32],
    slope: f32,
    out: &mut [f32],
) {
    Dense::new(w, bias, slope).rows_into(a, a_cols, b, b_cols, out);
}

/// One dense layer `y = leaky([a | b] w + bias)` borrowed from its
/// parameters, applied one row at a time. `w`'s rows are consumed in order
/// — `a`'s then `b`'s — and exact-zero inputs are skipped, so splitting an
/// input row between `a` and `b` anywhere never changes a bit.
#[derive(Clone, Copy, Debug)]
pub struct Dense<'a> {
    w: &'a [f32],
    bias: &'a [f32],
    slope: f32,
}

impl<'a> Dense<'a> {
    /// The layer `leaky(x w + bias)`; `slope == 1.0` is no activation.
    pub fn new(w: &'a Tensor, bias: &'a [f32], slope: f32) -> Self {
        assert_eq!(bias.len(), w.cols, "bias width equals w.cols");
        Dense {
            w: &w.data,
            bias,
            slope,
        }
    }

    /// Output width.
    pub fn width(&self) -> usize {
        self.bias.len()
    }

    /// `acc = leaky([a | b] w + bias)` for one row; `acc` is
    /// [`Dense::width`] wide and `a.len() + b.len()` is `w`'s row count.
    #[inline(always)]
    pub fn row(&self, a: &[f32], b: &[f32], acc: &mut [f32]) {
        acc.copy_from_slice(self.bias);
        linear2_row(acc, a, b, self.w, self.slope);
    }

    /// [`Dense::row`] over every row of `[a | b]` (`a_cols` and `b_cols`
    /// wide) into `out`, with the accumulator [`run_at_width`] picks.
    pub fn rows_into(&self, a: &[f32], a_cols: usize, b: &[f32], b_cols: usize, out: &mut [f32]) {
        struct Rows<'a> {
            dense: Dense<'a>,
            a: &'a [f32],
            a_cols: usize,
            b: &'a [f32],
            b_cols: usize,
            out: &'a mut [f32],
        }
        impl RowPass for Rows<'_> {
            fn run<B: RowBuf>(self, mut acc: B) {
                let n = acc.as_ref().len();
                for (i, out_row) in self.out.chunks_exact_mut(n).enumerate() {
                    let a_row = &self.a[i * self.a_cols..(i + 1) * self.a_cols];
                    let b_row = &self.b[i * self.b_cols..(i + 1) * self.b_cols];
                    self.dense.row(a_row, b_row, acc.as_mut());
                    out_row.copy_from_slice(acc.as_ref());
                }
            }
        }
        let m = out.len() / self.width();
        debug_assert_eq!(a.len(), m * a_cols);
        debug_assert_eq!(b.len(), m * b_cols);
        debug_assert_eq!((a_cols + b_cols) * self.width(), self.w.len());
        run_at_width::<1, 24>(
            self.width(),
            Rows {
                dense: *self,
                a,
                a_cols,
                b,
                b_cols,
                out,
            },
        );
    }
}

/// A row buffer of one width: `[f32; N]` or a heap row (see
/// [`run_at_width`]).
pub trait RowBuf: Clone + AsRef<[f32]> + AsMut<[f32]> {}

impl<T: Clone + AsRef<[f32]> + AsMut<[f32]>> RowBuf for T {}

/// A row-at-a-time pass whose row buffers all have one width. The pass
/// makes every buffer it needs by cloning the zeroed row it is handed.
pub trait RowPass {
    /// Run the pass; `zero` is a zeroed row of the dispatched width.
    fn run<B: RowBuf>(self, zero: B);
}

/// Run `pass` on zeroed rows `n` wide. The widths the default model
/// produces (1–6, 8, 12, 16, 20, 24) that are multiples of `LO` in
/// `LO..=HI` get an `[f32; N]`, which the optimizer keeps in registers and
/// unrolls over — 2.6–5.3x faster on the 1,024-node window's layer shapes,
/// each timed alone, than the same loop over a runtime-width row. Any other
/// width (Figure 15 sweeps, ablation models) runs the same arithmetic on a
/// heap row, so the choice never changes a bit of the output. A pass names
/// its smallest default width and its largest, and its default widths are
/// multiples of the smallest, so no row kernel is compiled for a width it
/// never takes: each one is kilobytes of unrolled code, and the binary's
/// mapped pages count in the process's resident set.
pub fn run_at_width<const LO: usize, const HI: usize>(n: usize, pass: impl RowPass) {
    macro_rules! fixed_width {
        ($($width:literal)*) => {
            match n {
                $($width if LO <= $width && $width <= HI && $width % LO == 0 => {
                    pass.run([0.0f32; $width])
                })*
                _ => pass.run(vec![0.0f32; n]),
            }
        };
    }
    fixed_width!(1 2 3 4 5 6 8 12 16 20 24);
}

/// One output row: `acc = leaky(acc + [a_row | b_row] * w)`, rows of `w`
/// consumed in order, exact-zero inputs skipped.
#[inline(always)]
fn linear2_row(acc: &mut [f32], a_row: &[f32], b_row: &[f32], w: &[f32], slope: f32) {
    let n = acc.len();
    let (wa, wb) = w.split_at(a_row.len() * n);
    for (x_row, w_rows) in [(a_row, wa), (b_row, wb)] {
        for (&v, w_row) in x_row.iter().zip(w_rows.chunks_exact(n)) {
            if v == 0.0 {
                continue;
            }
            for (o, &wv) in acc.iter_mut().zip(w_row) {
                *o += v * wv;
            }
        }
    }
    if slope != 1.0 {
        for o in acc.iter_mut() {
            if *o < 0.0 {
                *o *= slope;
            }
        }
    }
}

/// `out = a^T * b` without materializing the transpose of `a`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows, b.rows, "matmul_at_b shape mismatch");
    let (k, m) = a.shape();
    let n = b.cols;
    let mut out = Tensor::zeros(m, n);
    for r in 0..k {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &a_ri) in a_row.iter().enumerate().take(m) {
            if a_ri == 0.0 {
                continue;
            }
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ri * bv;
            }
        }
    }
    out
}

/// `out = a * b^T` without materializing the transpose of `b`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.cols, "matmul_a_bt shape mismatch");
    let (m, k) = a.shape();
    let n = b.rows;
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate().take(n) {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a_row[kk] * b_row[kk];
            }
            *o = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn zeros_full_scalar() {
        assert_eq!(Tensor::zeros(2, 2).sum(), 0.0);
        assert_eq!(Tensor::full(2, 2, 3.0).sum(), 12.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let tt = t.transposed();
        assert_eq!(tt.shape(), (3, 2));
        assert_eq!(tt.get(2, 1), 6.0);
        assert_eq!(tt.transposed(), t);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transposed_variants_agree() {
        let a = Tensor::from_vec(3, 2, vec![1.0, -2.0, 0.5, 3.0, 2.0, 1.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|i| i as f32 * 0.3).collect());
        let direct = matmul(&a.transposed(), &b);
        let fused = matmul_at_b(&a, &b);
        assert!(direct.approx_eq(&fused, 1e-5));

        let c = Tensor::from_vec(4, 2, (0..8).map(|i| 1.0 - i as f32).collect());
        let direct2 = matmul(&a, &c.transposed());
        let fused2 = matmul_a_bt(&a, &c);
        assert!(direct2.approx_eq(&fused2, 1e-5));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(1, 3, 1.0);
        let b = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshaped(3, 2);
        assert_eq!(r.get(2, 1), 6.0);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn norms_and_finiteness() {
        let t = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!(t.all_finite());
        let bad = Tensor::from_vec(1, 1, vec![f32::NAN]);
        assert!(!bad.all_finite());
    }
}
