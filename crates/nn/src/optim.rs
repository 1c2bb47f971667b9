//! Optimizers. The paper trains with Adam at learning rate 1e-4 (§4).

use crate::module::ParamStore;
use crate::tensor::Tensor;

/// Adam optimizer (Kingma & Ba, 2014) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    /// First-moment estimates, lazily sized to the store on first step.
    m: Vec<Tensor>,
    /// Second-moment estimates.
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the paper's defaults (lr as given, betas 0.9/0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Apply one update using the gradients accumulated in the store, then
    /// leave the gradients untouched (call `zero_grads` separately).
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);

        // Lazily initialize moment buffers.
        if self.m.is_empty() {
            for (p, _) in store.pairs_mut() {
                let (r, c) = p.shape();
                self.m.push(Tensor::zeros(r, c));
                self.v.push(Tensor::zeros(r, c));
            }
        }

        for (i, (p, g)) in store.pairs_mut().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((pv, &gv), (mv, vv)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mv = b1 * *mv + (1.0 - b1) * gv;
                *vv = b2 * *vv + (1.0 - b2) * gv * gv;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *pv -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::module::ParamStore;

    /// Minimize (p - 3)^2 with Adam and return where it lands.
    fn quadratic_descent() -> f32 {
        let mut store = ParamStore::new();
        let id = store.register("p", Tensor::scalar(0.0));
        let mut adam = Adam::new(0.1);
        for _ in 0..200 {
            store.zero_grads();
            let mut g = Graph::new();
            let p = store.bind(&mut g, id);
            let target = g.input(Tensor::scalar(3.0));
            let d = g.sub(p, target);
            let loss = g.mul(d, d);
            g.backward(loss);
            store.absorb(&g);
            adam.step(&mut store);
        }
        store.get(id).item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let p = quadratic_descent();
        assert!((p - 3.0).abs() < 0.05, "adam converged to {p}");
    }
}
