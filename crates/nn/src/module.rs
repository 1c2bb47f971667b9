//! Parameter storage and layer building blocks.
//!
//! A [`ParamStore`] owns the persistent tensors of a model (weights, biases,
//! log-std vectors). Each forward pass binds the stored tensors onto a fresh
//! autograd [`Graph`], and the tape notes which parameter each binding is.
//! After `backward`, [`ParamStore::absorb`] adds every bound parameter's
//! gradient into the store, where the optimizer consumes it: no caller keeps
//! a list of its bindings. The tape keeps no cross-iteration state.

use crate::graph::{Graph, Var};
use crate::rng::fill_normal;
use crate::tensor::{Dense, Tensor};
use rand::Rng;

/// Index of a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(usize);

/// Owns model parameters and their accumulated gradients.
#[derive(Clone, Default)]
pub struct ParamStore {
    params: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `ParamId` of the `i`-th registered parameter (registration order).
    pub fn id_at(&self, i: usize) -> ParamId {
        assert!(i < self.params.len(), "parameter index out of range");
        ParamId(i)
    }

    /// Register a parameter tensor under a debug name.
    pub fn register(&mut self, name: impl Into<String>, t: Tensor) -> ParamId {
        let (r, c) = t.shape();
        self.params.push(t);
        self.grads.push(Tensor::zeros(r, c));
        self.names.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Register with Xavier/Glorot-normal initialization.
    pub fn register_xavier<R: Rng>(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut R,
    ) -> ParamId {
        let std_dev = (2.0 / (rows + cols) as f64).sqrt();
        let mut t = Tensor::zeros(rows, cols);
        fill_normal(rng, t.data_mut(), std_dev);
        self.register(name, t)
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (the model's "size").
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|t| t.len()).sum()
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0]
    }

    /// Mutable access (used by optimizers and tests).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.params[id.0]
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Debug name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Bind a stored parameter onto a tape as a gradient-tracked leaf; the
    /// tape notes the binding for [`ParamStore::absorb`].
    pub fn bind(&self, g: &mut Graph, id: ParamId) -> Var {
        let var = g.param(self.params[id.0].clone());
        g.bound.push((id, var));
        var
    }

    /// After `g.backward`, add the gradient of every parameter bound on `g`
    /// into the store, in binding order: a parameter bound twice receives
    /// both uses' gradients. Every binding on `g` must come from this store.
    ///
    /// The gradients are read in place, and a binding that received none
    /// is skipped: adding its zeros would move no bit, because a gradient
    /// zeroed to +0.0 and then only added to never becomes −0.0.
    pub fn absorb(&mut self, g: &Graph) {
        for &(id, var) in &g.bound {
            if let Some(grad) = g.grad_ref(var) {
                self.grads[id.0].add_assign(grad);
            }
        }
    }

    /// Reset all accumulated gradients to zero.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Iterate over `(param, grad)` pairs mutably — for optimizers.
    pub(crate) fn pairs_mut(&mut self) -> impl Iterator<Item = (&mut Tensor, &Tensor)> {
        self.params.iter_mut().zip(self.grads.iter())
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.norm().powi(2))
            .sum::<f32>()
            .sqrt()
    }

    /// Scale all gradients so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let n = self.grad_norm();
        if n > max_norm && n > 0.0 {
            let s = max_norm / n;
            for g in &mut self.grads {
                g.scale_assign(s);
            }
        }
    }

    /// Snapshot all parameter tensors (for checkpointing / best-model keeping).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params.clone()
    }

    /// Restore from a snapshot taken with [`ParamStore::snapshot`].
    pub fn restore(&mut self, snap: &[Tensor]) {
        assert_eq!(snap.len(), self.params.len(), "snapshot arity mismatch");
        for (p, s) in self.params.iter_mut().zip(snap) {
            assert_eq!(p.shape(), s.shape(), "snapshot shape mismatch");
            *p = s.clone();
        }
    }
}

/// A dense layer `y = act(x W + b)` whose parameters live in a store.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Create a layer with Xavier-initialized weights and zero bias.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.register_xavier(format!("{name}.w"), in_dim, out_dim, rng);
        let b = store.register(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Bind parameters onto a tape and apply the affine map.
    pub fn forward(&self, store: &ParamStore, g: &mut Graph, x: Var) -> Var {
        let w = store.bind(g, self.w);
        let b = store.bind(g, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }

    /// The layer's stored parameters as a tape-free [`Dense`] row kernel
    /// `leaky(x W + b)` (`slope == 1.0` for no activation): deployment
    /// forwards stream their rows through it, recording nothing.
    pub fn dense<'s>(&self, store: &'s ParamStore, slope: f32) -> Dense<'s> {
        Dense::new(store.get(self.w), store.get(self.b).data(), slope)
    }

    /// Bind parameters and apply the fused affine + leaky-ReLU kernel
    /// (`slope == 1.0` for no activation). One tape node and one output
    /// buffer instead of three — the hot-path variant for wide batched
    /// forwards.
    pub fn forward_act(&self, store: &ParamStore, g: &mut Graph, x: Var, slope: f32) -> Var {
        let w = store.bind(g, self.w);
        let b = store.bind(g, self.b);
        g.linear_leaky(x, w, b, slope)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(2, 2, 1.0));
        assert_eq!(store.get(id).sum(), 4.0);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.num_scalars(), 4);
    }

    #[test]
    fn xavier_scale_reasonable() {
        let mut store = ParamStore::new();
        let mut rng = seeded(11);
        let id = store.register_xavier("w", 100, 100, &mut rng);
        let t = store.get(id);
        let var = t.data().iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / t.len() as f64;
        // Xavier-normal for 100x100: var = 2/200 = 0.01.
        assert!((var - 0.01).abs() < 0.002, "var {var}");
    }

    #[test]
    fn linear_forward_and_grads() {
        let mut store = ParamStore::new();
        let mut rng = seeded(2);
        let layer = Linear::new(&mut store, "l", 3, 2, &mut rng);

        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]));
        let y = layer.forward(&store, &mut g, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        store.absorb(&g);

        // Bias gradient of sum loss is the number of rows per column.
        let bias_grad = store.grad(ParamId(1));
        assert!(bias_grad.data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn absorb_sums_every_binding_and_skips_unbound_parameters() {
        // `loss = sum(2·p − 3·p)`: `p` is bound twice and must receive
        // both uses' gradients (2 − 3 = −1 per entry); `q` is registered
        // but never bound, and `r` is bound but never read, so both keep
        // their +0.0 gradients.
        let mut store = ParamStore::new();
        let p = store.register("p", Tensor::full(2, 3, 1.0));
        let q = store.register("q", Tensor::full(1, 3, 1.0));
        let r = store.register("r", Tensor::full(1, 2, 1.0));
        let mut g = Graph::new();
        let first = store.bind(&mut g, p);
        let _unread = store.bind(&mut g, r);
        let second = store.bind(&mut g, p);
        let a = g.scale(first, 2.0);
        let b = g.scale(second, 3.0);
        let sum = g.sub(a, b);
        let loss = g.sum_all(sum);
        g.backward(loss);
        store.absorb(&g);
        assert!(store.grad(p).data().iter().all(|&v| v == -1.0));
        assert!(store.grad(q).data().iter().all(|&v| v == 0.0));
        assert!(store.grad(r).data().iter().all(|v| v.to_bits() == 0));
        // A second tape's gradients add to the first's: −1 + 3.
        let mut g = Graph::new();
        let once = store.bind(&mut g, p);
        let tripled = g.scale(once, 3.0);
        let loss = g.sum_all(tripled);
        g.backward(loss);
        store.absorb(&g);
        assert!(store.grad(p).data().iter().all(|&v| v == 2.0));
        assert!(store.grad(q).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn grad_clipping() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(1, 2));
        store.grads[id.0] = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::full(1, 2, 5.0));
        let snap = store.snapshot();
        store.get_mut(id).scale_assign(0.0);
        assert_eq!(store.get(id).sum(), 0.0);
        store.restore(&snap);
        assert_eq!(store.get(id).sum(), 10.0);
    }
}
