//! Reverse-mode automatic differentiation on a tape ("define-by-run").
//!
//! A [`Graph`] records every operation executed during a forward pass as a
//! node on a tape. Because nodes are appended in execution order, the tape is
//! already topologically sorted and the backward pass is a single reverse
//! sweep. This mirrors how PyTorch (the paper's substrate) drives training.
//! The tape has only the operators something records: FlowGNN, the policy
//! network, COMA*'s policy-gradient loss, the surrogate-loss trainer and the
//! §5.7 ablation models. One tape holds one traffic matrix; a training
//! minibatch is one tape per matrix.
//!
//! Gradient correctness for every operator is cross-checked against central
//! finite differences in this module's tests and in property tests.

use crate::sparse::{Aggregate, CsrPair};
use crate::tensor::{matmul, matmul_a_bt, matmul_at_b, Dense, Tensor};
use std::sync::Arc;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Operator tag stored per tape node; parents are recorded inline.
enum Op {
    /// Constant input or trainable parameter (leaf node).
    Leaf,
    MatMul(Var, Var),
    /// Fixed-pattern sparse times dense: `y = A x` under an [`Aggregate`].
    SpMM(CsrPair, Aggregate, Var),
    /// Fused dense layer `y = leaky(x w + b)` (slope 0 = ReLU, slope 1 =
    /// identity). One output buffer instead of the three a
    /// matmul/add_row/leaky chain allocates; the backward recovers the
    /// activation mask from the sign of `y`.
    LinearAct {
        x: Var,
        w: Var,
        b: Var,
        slope: f32,
    },
    Sub(Var, Var),
    Mul(Var, Var),
    /// `a [m,n] + b [1,n]`, broadcasting `b` over rows (bias add).
    AddRow(Var, Var),
    /// `a [m,n] * b [1,n]`, broadcasting `b` over rows.
    MulRow(Var, Var),
    Scale(Var, f32),
    LeakyRelu(Var, f32),
    Exp(Var),
    SoftmaxRows(Var),
    /// Shape change over the same row-major buffer.
    Reshape(Var),
    /// `[a | b]` column-wise concatenation.
    ConcatCols(Var, Var),
    /// Select rows of the parent by index; backward scatter-adds.
    GatherRows(Var, Arc<Vec<usize>>),
    /// `[m,n] -> [m,1]` row sums.
    SumRows(Var),
    /// `[m,n] -> [1,1]` total sum.
    SumAll(Var),
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    needs_grad: bool,
    op: Op,
}

/// The autograd tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Fresh, empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            needs_grad,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Record a constant input (no gradient).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, false)
    }

    /// Record a trainable parameter (gradient tracked).
    pub fn param(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf, true)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Graph::backward`]; zeros if it never
    /// received a contribution.
    pub fn grad(&self, v: Var) -> Tensor {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }

    // ---- operators -------------------------------------------------------

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul(self.value(a), self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Sparse (fixed-pattern) times dense product under `agg`. The
    /// backward is the exact transpose of what the forward applied: for
    /// `Mean`, `dy` is divided by the *forward* rows' lengths and then
    /// summed over `Aᵀ`'s pattern (`Aᵀ` normalised by its own row lengths
    /// would be a different operator).
    pub fn spmm(&mut self, a: &CsrPair, x: Var, agg: Aggregate) -> Var {
        let v = a.fwd.spmm(self.value(x), 1, agg);
        let ng = self.needs(x);
        self.push(v, Op::SpMM(a.clone(), agg, x), ng)
    }

    /// Fused dense layer: `leaky(x w + b)` with negative-side `slope`
    /// (`0.0` = plain ReLU, `1.0` = no activation). `b` is a `[1, n]` bias
    /// row. Requires `slope >= 0` so the backward pass can recover the
    /// activation mask from the output's sign.
    pub fn linear_leaky(&mut self, x: Var, w: Var, b: Var, slope: f32) -> Var {
        assert!(
            slope >= 0.0,
            "linear_leaky requires slope >= 0 (0.0 = ReLU, 1.0 = identity)"
        );
        let tx = self.value(x);
        let tw = self.value(w);
        let tb = self.value(b);
        assert_eq!(tx.cols(), tw.rows(), "linear_leaky shape mismatch");
        assert_eq!(tb.rows(), 1, "linear_leaky bias must be a row vector");
        assert_eq!(tb.cols(), tw.cols(), "linear_leaky bias width mismatch");
        let (m, k) = tx.shape();
        let n = tw.cols();
        let mut out = Tensor::zeros(m, n);
        Dense::new(tw, tb.data(), slope).rows_into(tx.data(), k, &[], 0, out.data_mut());
        let ng = self.needs(x) || self.needs(w) || self.needs(b);
        self.push(out, Op::LinearAct { x, w, b, slope }, ng)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut v = self.value(a).clone();
        v.axpy(-1.0, self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let tb = self.value(b);
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let data = ta
            .data()
            .iter()
            .zip(tb.data())
            .map(|(x, y)| x * y)
            .collect();
        let v = Tensor::from_vec(ta.rows(), ta.cols(), data);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Mul(a, b), ng)
    }

    /// Row-broadcast addition: `a [m,n] + b [1,n]`.
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let tb = self.value(b);
        assert_eq!(tb.rows(), 1, "add_row bias must be a row vector");
        assert_eq!(ta.cols(), tb.cols(), "add_row width mismatch");
        let mut v = ta.clone();
        for r in 0..v.rows() {
            for (o, &x) in v.row_mut(r).iter_mut().zip(tb.data()) {
                *o += x;
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::AddRow(a, b), ng)
    }

    /// Row-broadcast product: `a [m,n] * b [1,n]`.
    pub fn mul_row(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let tb = self.value(b);
        assert_eq!(tb.rows(), 1, "mul_row scale must be a row vector");
        assert_eq!(ta.cols(), tb.cols(), "mul_row width mismatch");
        let mut v = ta.clone();
        for r in 0..v.rows() {
            for (o, &x) in v.row_mut(r).iter_mut().zip(tb.data()) {
                *o *= x;
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MulRow(a, b), ng)
    }

    /// Multiply every element by a constant.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let mut v = self.value(a).clone();
        v.scale_assign(k);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, k), ng)
    }

    /// Leaky ReLU with the given negative-side slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let mut v = self.value(a).clone();
        for x in v.data_mut() {
            if *x < 0.0 {
                *x *= slope;
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::LeakyRelu(a, slope), ng)
    }

    /// Standard ReLU (leaky with slope 0).
    pub fn relu(&mut self, a: Var) -> Var {
        self.leaky_relu(a, 0.0)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        for x in v.data_mut() {
            *x = x.exp();
        }
        let ng = self.needs(a);
        self.push(v, Op::Exp(a), ng)
    }

    /// Numerically stable softmax over each row.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let ta = self.value(a);
        let mut v = ta.clone();
        for r in 0..v.rows() {
            softmax_row_inplace(v.row_mut(r));
        }
        let ng = self.needs(a);
        self.push(v, Op::SoftmaxRows(a), ng)
    }

    /// Reinterpret the buffer with a different shape.
    pub fn reshape(&mut self, a: Var, rows: usize, cols: usize) -> Var {
        let v = self.value(a).reshaped(rows, cols);
        let ng = self.needs(a);
        self.push(v, Op::Reshape(a), ng)
    }

    /// Column-wise concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let ta = self.value(a);
        let tb = self.value(b);
        assert_eq!(ta.rows(), tb.rows(), "concat_cols row mismatch");
        let (m, na) = ta.shape();
        let nb = tb.cols();
        let mut data = Vec::with_capacity(m * (na + nb));
        for r in 0..m {
            data.extend_from_slice(ta.row(r));
            data.extend_from_slice(tb.row(r));
        }
        let v = Tensor::from_vec(m, na + nb, data);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng)
    }

    /// Select rows by index (duplicates allowed).
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<usize>>) -> Var {
        let ta = self.value(a);
        let n = ta.cols();
        let mut data = Vec::with_capacity(idx.len() * n);
        for &i in idx.iter() {
            data.extend_from_slice(ta.row(i));
        }
        let v = Tensor::from_vec(idx.len(), n, data);
        let ng = self.needs(a);
        self.push(v, Op::GatherRows(a, idx), ng)
    }

    /// Row sums: `[m,n] -> [m,1]`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let ta = self.value(a);
        let data = (0..ta.rows()).map(|r| ta.row(r).iter().sum()).collect();
        let v = Tensor::from_vec(ta.rows(), 1, data);
        let ng = self.needs(a);
        self.push(v, Op::SumRows(a), ng)
    }

    /// Total sum as a 1x1 tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        let ng = self.needs(a);
        self.push(v, Op::SumAll(a), ng)
    }

    // ---- backward --------------------------------------------------------

    fn accumulate(&mut self, v: Var, delta: Tensor) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Run the reverse sweep from a scalar loss node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let dy = match &self.nodes[i].grad {
                Some(g) => g.clone(),
                None => continue,
            };
            // Borrow of self.nodes[i] ends here; ops are cheap to match on.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs(a) {
                        let da = matmul_a_bt(&dy, self.value(b));
                        self.accumulate(a, da);
                    }
                    if self.needs(b) {
                        let db = matmul_at_b(self.value(a), &dy);
                        self.accumulate(b, db);
                    }
                }
                Op::SpMM(csr, agg, x) => {
                    let x = *x;
                    let mut dy = dy;
                    if *agg == Aggregate::Mean {
                        csr.fwd.divide_rows_by_len(&mut dy);
                    }
                    let dx = csr.bwd.spmm(&dy, 1, Aggregate::Sum);
                    self.accumulate(x, dx);
                }
                Op::LinearAct { x, w, b, slope } => {
                    let (x, w, b, slope) = (*x, *w, *b, *slope);
                    // Pre-activation gradient: the activation mask is the
                    // sign of the output. For slope 0 (ReLU) negative
                    // pre-activations produce y == 0, so the mask is
                    // `y <= 0`; for slope > 0 it is `y < 0`.
                    let y = &self.nodes[i].value;
                    let mut dpre = dy;
                    if slope == 0.0 {
                        for (g, &yv) in dpre.data_mut().iter_mut().zip(y.data()) {
                            if yv <= 0.0 {
                                *g = 0.0;
                            }
                        }
                    } else if slope != 1.0 {
                        for (g, &yv) in dpre.data_mut().iter_mut().zip(y.data()) {
                            if yv < 0.0 {
                                *g *= slope;
                            }
                        }
                    }
                    if self.needs(x) {
                        let dx = matmul_a_bt(&dpre, self.value(w));
                        self.accumulate(x, dx);
                    }
                    if self.needs(w) {
                        let dw = matmul_at_b(self.value(x), &dpre);
                        self.accumulate(w, dw);
                    }
                    if self.needs(b) {
                        self.accumulate(b, col_sums(&dpre));
                    }
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, dy.clone());
                    let mut n = dy;
                    n.scale_assign(-1.0);
                    self.accumulate(b, n);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs(a) {
                        let da = hadamard(&dy, self.value(b));
                        self.accumulate(a, da);
                    }
                    if self.needs(b) {
                        let db = hadamard(&dy, self.value(a));
                        self.accumulate(b, db);
                    }
                }
                Op::AddRow(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, dy.clone());
                    if self.needs(b) {
                        self.accumulate(b, col_sums(&dy));
                    }
                }
                Op::MulRow(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs(a) {
                        let tb = self.value(b);
                        let mut da = dy.clone();
                        for r in 0..da.rows() {
                            for (o, &s) in da.row_mut(r).iter_mut().zip(tb.data()) {
                                *o *= s;
                            }
                        }
                        self.accumulate(a, da);
                    }
                    if self.needs(b) {
                        let prod = hadamard(&dy, self.value(a));
                        self.accumulate(b, col_sums(&prod));
                    }
                }
                Op::Scale(a, k) => {
                    let (a, k) = (*a, *k);
                    let mut da = dy;
                    da.scale_assign(k);
                    self.accumulate(a, da);
                }
                Op::LeakyRelu(a, slope) => {
                    let (a, slope) = (*a, *slope);
                    let ta = self.value(a);
                    let mut da = dy;
                    for (g, &x) in da.data_mut().iter_mut().zip(ta.data()) {
                        if x < 0.0 {
                            *g *= slope;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::Exp(a) => {
                    let a = *a;
                    let ty = &self.nodes[i].value;
                    let da = hadamard(&dy, ty);
                    self.accumulate(a, da);
                }
                Op::SoftmaxRows(a) => {
                    let a = *a;
                    let y = &self.nodes[i].value;
                    let mut da = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let yr = y.row(r);
                        let gr = dy.row(r);
                        let dot: f32 = yr.iter().zip(gr).map(|(yv, gv)| yv * gv).sum();
                        for ((o, &yv), &gv) in da.row_mut(r).iter_mut().zip(yr).zip(gr) {
                            *o = yv * (gv - dot);
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::Reshape(a) => {
                    let a = *a;
                    let (r, c) = self.value(a).shape();
                    self.accumulate(a, dy.reshaped(r, c));
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let na = self.value(a).cols();
                    let nb = self.value(b).cols();
                    let m = dy.rows();
                    let mut da = Tensor::zeros(m, na);
                    let mut db = Tensor::zeros(m, nb);
                    for r in 0..m {
                        let row = dy.row(r);
                        da.row_mut(r).copy_from_slice(&row[..na]);
                        db.row_mut(r).copy_from_slice(&row[na..]);
                    }
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::GatherRows(a, idx) => {
                    let a = *a;
                    let idx = Arc::clone(idx);
                    let (r, c) = self.value(a).shape();
                    let mut da = Tensor::zeros(r, c);
                    for (out_r, &src_r) in idx.iter().enumerate() {
                        let g = dy.row(out_r).to_vec();
                        for (o, gv) in da.row_mut(src_r).iter_mut().zip(g) {
                            *o += gv;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::SumRows(a) => {
                    let a = *a;
                    let (r, c) = self.value(a).shape();
                    let mut da = Tensor::zeros(r, c);
                    for rr in 0..r {
                        let g = dy.get(rr, 0);
                        for o in da.row_mut(rr) {
                            *o = g;
                        }
                    }
                    self.accumulate(a, da);
                }
                Op::SumAll(a) => {
                    let a = *a;
                    let (r, c) = self.value(a).shape();
                    self.accumulate(a, Tensor::full(r, c, dy.item()));
                }
            }
        }
    }
}

/// Numerically stable in-place softmax of one row.
pub fn softmax_row_inplace(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

fn hadamard(a: &Tensor, b: &Tensor) -> Tensor {
    debug_assert_eq!(a.shape(), b.shape());
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x * y).collect();
    Tensor::from_vec(a.rows(), a.cols(), data)
}

fn col_sums(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(1, t.cols());
    for r in 0..t.rows() {
        for (o, &v) in out.data_mut().iter_mut().zip(t.row(r)) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    /// Central finite-difference check of `d loss / d param` for a closure
    /// that builds a scalar loss from a parameter tensor.
    fn check_grad<F>(param: &Tensor, build: F, tol: f32)
    where
        F: Fn(&mut Graph, Var) -> Var,
    {
        let mut g = Graph::new();
        let p = g.param(param.clone());
        let loss = build(&mut g, p);
        g.backward(loss);
        let analytic = g.grad(p);

        let eps = 1e-2f32;
        for i in 0..param.len() {
            let mut plus = param.clone();
            plus.data_mut()[i] += eps;
            let mut minus = param.clone();
            minus.data_mut()[i] -= eps;
            let f = |t: &Tensor| {
                let mut g2 = Graph::new();
                let p2 = g2.param(t.clone());
                let l = build(&mut g2, p2);
                g2.value(l).item()
            };
            let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn rand_tensor(rng: &mut impl Rng, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(
            r,
            c,
            (0..r * c).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect(),
        )
    }

    #[test]
    fn grad_matmul() {
        let mut rng = seeded(1);
        let w = rand_tensor(&mut rng, 3, 4);
        let x = rand_tensor(&mut rng, 2, 3);
        check_grad(
            &w,
            |g, p| {
                let xi = g.input(x.clone());
                let y = g.matmul(xi, p);
                g.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_spmm() {
        let mut rng = seeded(2);
        let x = rand_tensor(&mut rng, 3, 2);
        let a = CsrPair::from_pattern(4, 3, &[(0, 0), (1, 2), (3, 1), (2, 0), (2, 2)]);
        for agg in [Aggregate::Sum, Aggregate::Mean] {
            check_grad(
                &x,
                |g, p| {
                    let y = g.spmm(&a, p, agg);
                    let y2 = g.mul(y, y);
                    g.sum_all(y2)
                },
                1e-2,
            );
        }
    }

    /// `Mean`'s gradient is the dense row-normalised matrix's transpose
    /// applied to `dy`. The rows of `A` (lengths 3, 1, 0, 2) and of `Aᵀ`
    /// (2, 2, 2) differ, so normalising by `Aᵀ`'s own lengths would fail.
    #[test]
    fn grad_spmm_mean_is_the_row_normalised_transpose() {
        let mut rng = seeded(3);
        let x = rand_tensor(&mut rng, 3, 2);
        let w = rand_tensor(&mut rng, 4, 2);
        let a = CsrPair::from_pattern(4, 3, &[(0, 0), (0, 1), (0, 2), (1, 1), (3, 0), (3, 2)]);
        let mut m = a.fwd.to_dense();
        for r in 0..4 {
            let n = a.fwd.row(r).len().max(1) as f32;
            for c in 0..3 {
                m.set(r, c, m.get(r, c) / n);
            }
        }
        let mut g = Graph::new();
        let p = g.param(x.clone());
        let y = g.spmm(&a, p, Aggregate::Mean);
        assert!(g.value(y).approx_eq(&matmul(&m, &x), 1e-6));
        let wi = g.input(w.clone());
        let yw = g.mul(y, wi);
        let loss = g.sum_all(yw);
        g.backward(loss);
        // d(Σ w ⊙ M x)/dx = Mᵀ w.
        assert!(g.grad(p).approx_eq(&matmul(&m.transposed(), &w), 1e-6));
    }

    #[test]
    fn grad_linear_leaky() {
        let mut rng = seeded(14);
        let w = rand_tensor(&mut rng, 3, 4);
        let x = rand_tensor(&mut rng, 5, 3);
        let bias = rand_tensor(&mut rng, 1, 4);
        // Gradient w.r.t. the weight matrix.
        check_grad(
            &w,
            |g, p| {
                let xi = g.input(x.clone());
                let bi = g.input(bias.clone());
                let y = g.linear_leaky(xi, p, bi, 0.1);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
        // Gradient w.r.t. the input, with identity activation (slope 1).
        check_grad(
            &x,
            |g, p| {
                let wi = g.input(w.clone());
                let bi = g.input(bias.clone());
                let y = g.linear_leaky(p, wi, bi, 1.0);
                g.sum_all(y)
            },
            1e-2,
        );
        // Gradient w.r.t. the bias.
        check_grad(
            &bias,
            |g, p| {
                let xi = g.input(x.clone());
                let wi = g.input(w.clone());
                let y = g.linear_leaky(xi, wi, p, 0.1);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_linear_leaky_relu_slope_zero() {
        let mut rng = seeded(16);
        let w = rand_tensor(&mut rng, 3, 4);
        let x = rand_tensor(&mut rng, 5, 3);
        let bias = rand_tensor(&mut rng, 1, 4);
        check_grad(
            &w,
            |g, p| {
                let xi = g.input(x.clone());
                let bi = g.input(bias.clone());
                let y = g.linear_leaky(xi, p, bi, 0.0);
                let sq = g.mul(y, y);
                g.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn linear_leaky_matches_op_chain() {
        let mut rng = seeded(15);
        let w = rand_tensor(&mut rng, 4, 3);
        let x = rand_tensor(&mut rng, 6, 4);
        let bias = rand_tensor(&mut rng, 1, 3);
        let mut g = Graph::new();
        let (xi, wi, bi) = (
            g.input(x.clone()),
            g.input(w.clone()),
            g.input(bias.clone()),
        );
        let fused = g.linear_leaky(xi, wi, bi, 0.1);
        let xw = g.matmul(xi, wi);
        let pre = g.add_row(xw, bi);
        let chained = g.leaky_relu(pre, 0.1);
        assert!(g.value(fused).approx_eq(g.value(chained), 1e-6));
    }

    #[test]
    fn grad_elementwise_chain() {
        let mut rng = seeded(3);
        let x = rand_tensor(&mut rng, 2, 3);
        check_grad(
            &x,
            |g, p| {
                let a = g.leaky_relu(p, 0.1);
                let b = g.scale(a, 2.0);
                let c = g.mul(b, b);
                g.sum_all(c)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        let mut rng = seeded(4);
        let x = rand_tensor(&mut rng, 3, 4);
        // Weighted sum of softmax outputs exercises the full Jacobian.
        let w = rand_tensor(&mut rng, 3, 4);
        check_grad(
            &x,
            |g, p| {
                let s = g.softmax_rows(p);
                let wi = g.input(w.clone());
                let prod = g.mul(s, wi);
                g.sum_all(prod)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_broadcast_ops() {
        let mut rng = seeded(5);
        let b = rand_tensor(&mut rng, 1, 4);
        let x = rand_tensor(&mut rng, 3, 4);
        check_grad(
            &b,
            |g, p| {
                let xi = g.input(x.clone());
                let y = g.add_row(xi, p);
                let z = g.mul_row(y, p);
                let zz = g.mul(z, z);
                g.sum_all(zz)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_concat_reshape_gather() {
        let mut rng = seeded(6);
        let x = rand_tensor(&mut rng, 4, 2);
        let idx = Arc::new(vec![0usize, 2, 2, 3]);
        check_grad(
            &x,
            |g, p| {
                let c = g.concat_cols(p, p);
                let r = g.reshape(c, 2, 8);
                let r2 = g.reshape(r, 4, 4);
                let gth = g.gather_rows(r2, Arc::clone(&idx));
                let sq = g.mul(gth, gth);
                let rs = g.sum_rows(sq);
                g.sum_all(rs)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_exp_sub() {
        let mut rng = seeded(7);
        let x = rand_tensor(&mut rng, 2, 2);
        let y = rand_tensor(&mut rng, 2, 2);
        check_grad(
            &x,
            |g, p| {
                let yi = g.input(y.clone());
                let d = g.sub(p, yi);
                let e = g.exp(d);
                g.sum_all(e)
            },
            2e-2,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]));
        let s = g.softmax_rows(x);
        let v = g.value(s);
        for r in 0..2 {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(v.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn no_grad_through_inputs() {
        let mut g = Graph::new();
        let x = g.input(Tensor::scalar(2.0));
        let p = g.param(Tensor::scalar(3.0));
        let y = g.mul(x, p);
        g.backward(y);
        assert_eq!(g.grad(p).item(), 2.0);
        assert_eq!(g.grad(x).item(), 0.0);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        let mut g = Graph::new();
        let p = g.param(Tensor::scalar(3.0));
        let y = g.mul(p, p); // y = p^2, dy/dp = 2p = 6
        g.backward(y);
        assert!((g.grad(p).item() - 6.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let p = g.param(Tensor::zeros(2, 2));
        g.backward(p);
    }
}
