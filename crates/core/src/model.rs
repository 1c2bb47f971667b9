//! Teal's neural model: FlowGNN (§3.2) + shared per-demand policy network
//! (§3.3), plus the `PolicyModel` trait that the ablation variants (§5.7)
//! implement so the same COMA* trainer drives all of them.

use crate::env::{Env, ModelInput};
use std::sync::Arc;
use teal_lp::Allocation;
use teal_nn::graph::softmax_row_inplace;
use teal_nn::tensor as tensor_ops;
use teal_nn::{BoundLinear, Graph, Linear, ParamId, ParamStore, Tensor, Var};

/// Hyperparameters of the full Teal model (§4 defaults).
#[derive(Clone, Copy, Debug)]
pub struct TealConfig {
    /// Number of GNN layers (interleaved with the same number of DNN
    /// layers). The final embedding dimension equals this value: the first
    /// layer starts from 1-element embeddings and each following layer
    /// appends the initialization value (§4's dimension-growth trick).
    pub gnn_layers: usize,
    /// Hidden width of the policy network (24 in the paper).
    pub policy_hidden: usize,
    /// Number of hidden (dense) layers in the policy network (1 in §4;
    /// swept in Figure 15c).
    pub policy_hidden_layers: usize,
    /// Negative-side slope of leaky ReLU activations.
    pub leaky_slope: f32,
    /// Initial log standard deviation of the Gaussian exploration policy.
    pub init_logstd: f32,
    /// How many initialization columns each layer appends (1 in the paper;
    /// Figure 15b sweeps larger embedding dimensions). The final embedding
    /// dimension is `1 + (gnn_layers - 1) * embed_growth`.
    pub embed_growth: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for TealConfig {
    fn default() -> Self {
        TealConfig {
            gnn_layers: 6,
            policy_hidden: 24,
            policy_hidden_layers: 1,
            leaky_slope: 0.1,
            init_logstd: -1.0,
            embed_growth: 1,
            seed: 0,
        }
    }
}

/// Tape bindings produced by one forward pass.
pub struct Forward {
    /// Per-demand Gaussian means in logit space, `[num_demands, k]`.
    pub mu: Var,
    /// Final PathNode embeddings `[num_paths, embed_dim]` (for Figure 16).
    pub embeddings: Option<Var>,
    /// Bound log-std row vector `[1, k]`.
    pub logstd: Var,
    bounds: Vec<BoundLinear>,
    logstd_id: ParamId,
}

impl Forward {
    /// Assemble a forward result (used by model implementations).
    pub fn new(
        mu: Var,
        embeddings: Option<Var>,
        logstd: Var,
        bounds: Vec<BoundLinear>,
        logstd_id: ParamId,
    ) -> Self {
        Forward {
            mu,
            embeddings,
            logstd,
            bounds,
            logstd_id,
        }
    }

    /// The bound layers of this pass.
    pub fn bounds(&self) -> &[BoundLinear] {
        &self.bounds
    }

    /// Consume, returning the bound layers.
    pub fn into_bounds(self) -> Vec<BoundLinear> {
        self.bounds
    }

    /// Store id of the log-std parameter.
    pub fn logstd_id(&self) -> ParamId {
        self.logstd_id
    }
}

/// Interface shared by Teal and its ablation variants: map a traffic matrix
/// to per-demand logits under trainable parameters. `Send + Sync` because a
/// serving window's forward pass borrows the model from pool helper threads,
/// one matrix per task.
pub trait PolicyModel: Send + Sync {
    /// Human-readable variant name.
    fn name(&self) -> &str;

    /// The environment the model was built for.
    fn env(&self) -> &Arc<Env>;

    /// Run the forward pass on a fresh tape.
    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward;

    /// Parameter store (for the optimizer).
    fn store(&self) -> &ParamStore;

    /// Mutable parameter store.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Pull this pass's parameter gradients from the tape into the store.
    fn absorb(&mut self, g: &Graph, fwd: &Forward) {
        for b in &fwd.bounds {
            b.absorb(self.store_mut(), g);
        }
        let logstd_id = fwd.logstd_id;
        let logstd_var = fwd.logstd;
        self.store_mut().absorb_grad(g, logstd_id, logstd_var);
    }

    /// Deterministic allocation: softmax of the mean logits (deployment
    /// mode, Appendix B — "the mean value of the Gaussian is directly used
    /// as the action during deployment").
    fn allocate_deterministic(&self, input: &ModelInput) -> Allocation {
        assert_eq!(
            input.batch, 1,
            "allocate_deterministic takes a single-matrix input"
        );
        let mut g = Graph::new();
        let fwd = self.forward(&mut g, input);
        mu_to_allocation(g.value(fwd.mu))
    }
}

/// Convert a `[D, k]` logit tensor to a softmax allocation.
pub fn mu_to_allocation(mu: &Tensor) -> Allocation {
    mu_to_allocations(mu, 1).pop().expect("batch of one")
}

/// Split a `[batch * D, k]` logit tensor into per-matrix softmax allocations.
pub fn mu_to_allocations(mu: &Tensor, batch: usize) -> Vec<Allocation> {
    let (rows, k) = mu.shape();
    assert!(
        batch >= 1 && rows % batch == 0,
        "logit rows {rows} not divisible by batch {batch}"
    );
    let d = rows / batch;
    let mut out = Vec::with_capacity(batch);
    // One k-wide f32 row reused for every demand: softmax stays in f32 and
    // is widened afterwards, with no allocation per row.
    let mut row = vec![0.0f32; k];
    for b in 0..batch {
        let mut splits = Vec::with_capacity(d * k);
        for r in b * d..(b + 1) * d {
            row.copy_from_slice(mu.row(r));
            softmax_row_inplace(&mut row);
            splits.extend(row.iter().map(|&v| v as f64));
        }
        out.push(Allocation::from_splits(k, splits));
    }
    out
}

/// FlowGNN: alternating bipartite GNN layers (capacity constraints) and
/// per-demand DNN layers (demand constraints), per §3.2 / Figure 4.
#[derive(Clone)]
struct FlowGnn {
    /// Per layer: transform for PathNodes, `[2d -> d]`.
    path_layers: Vec<Linear>,
    /// Per layer: transform for EdgeNodes, `[2d -> d]`.
    edge_layers: Vec<Linear>,
    /// Per layer: the demand-coordination DNN, `[k*d -> k*d]`.
    dnn_layers: Vec<Linear>,
    k: usize,
    slope: f32,
    growth: usize,
}

impl FlowGnn {
    fn new(
        store: &mut ParamStore,
        k: usize,
        layers: usize,
        growth: usize,
        slope: f32,
        rng: &mut impl rand::Rng,
    ) -> Self {
        assert!(growth >= 1);
        let mut path_layers = Vec::new();
        let mut edge_layers = Vec::new();
        let mut dnn_layers = Vec::new();
        let mut d = 1usize;
        for l in 0..layers {
            path_layers.push(Linear::new(store, &format!("gnn{l}.path"), 2 * d, d, rng));
            edge_layers.push(Linear::new(store, &format!("gnn{l}.edge"), 2 * d, d, rng));
            dnn_layers.push(Linear::new(
                store,
                &format!("gnn{l}.dnn"),
                k * d,
                k * d,
                rng,
            ));
            if l + 1 < layers {
                d += growth;
            }
        }
        FlowGnn {
            path_layers,
            edge_layers,
            dnn_layers,
            k,
            slope,
            growth,
        }
    }

    /// Final embedding dimension: `1 + (layers - 1) * growth`.
    fn out_dim(&self) -> usize {
        1 + (self.path_layers.len() - 1) * self.growth
    }

    /// Tape-free inference forward: the same arithmetic as
    /// [`FlowGnn::forward`] on plain tensors, with every intermediate freed
    /// as soon as the next layer has consumed it. Deployment runs this, one
    /// matrix per call; training uses the recorded variant.
    fn infer(&self, store: &ParamStore, env: &Env, input: &ModelInput) -> Tensor {
        let a = env.incidence();
        let batch = input.batch;
        let path_init = &input.path_init;
        let edge_init = &input.edge_init;
        let mut p = path_init.clone();
        let mut e = edge_init.clone();
        let num_demands = env.num_demands();
        let k = self.k;
        let layers = self.path_layers.len();
        for l in 0..layers {
            let msg_to_path = a.fwd.spmm_batch(&e, batch);
            let msg_to_edge = a.bwd.spmm_batch(&p, batch);
            // Fused [x | msg] * W: the concat buffer is never materialized.
            let p_act = self.path_layers[l].infer_act2(store, &p, &msg_to_path, self.slope);
            drop(msg_to_path);
            let e_new = self.edge_layers[l].infer_act2(store, &e, &msg_to_edge, self.slope);
            drop(msg_to_edge);
            e = e_new;
            let d = self.path_layers[l].out_dim();
            let grouped = p_act.into_reshaped(batch * num_demands, k * d);
            let dnn_act = self.dnn_layers[l].infer_act(store, &grouped, self.slope);
            p = dnn_act.into_reshaped(batch * num_demands * k, d);
            if l + 1 < layers {
                for _ in 0..self.growth {
                    p = tensor_ops::concat_cols(&p, path_init);
                    e = tensor_ops::concat_cols(&e, edge_init);
                }
            }
        }
        p
    }

    /// Forward: returns PathNode embeddings `[batch * P, out_dim]`. The
    /// batch dimension rides along as vertically stacked per-matrix blocks:
    /// dense layers are row-wise and need no change, and message passing
    /// applies the incidence operator block-diagonally via `spmm_batch`.
    fn forward(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        env: &Env,
        input: &ModelInput,
        bounds: &mut Vec<BoundLinear>,
    ) -> Var {
        let a = env.incidence(); // paths x edges
        let at = a.transposed();
        let batch = input.batch;
        let path_init = g.input(input.path_init.clone());
        let edge_init = g.input(input.edge_init.clone());
        let mut p = path_init;
        let mut e = edge_init;
        let num_demands = env.num_demands();
        let k = self.k;
        let layers = self.path_layers.len();
        for l in 0..layers {
            // GNN sublayer: bipartite message passing (capacity constraints).
            let msg_to_path = g.spmm_batch(a, e, batch); // [B*P, d]
            let msg_to_edge = g.spmm_batch(&at, p, batch); // [B*E, d]
            let p_cat = g.concat_cols(p, msg_to_path);
            let (p_act, b1) = self.path_layers[l].forward_act(store, g, p_cat, self.slope);
            bounds.push(b1);
            let e_cat = g.concat_cols(e, msg_to_edge);
            let (e_act, b2) = self.edge_layers[l].forward_act(store, g, e_cat, self.slope);
            bounds.push(b2);
            // DNN sublayer: coordinate the k PathNodes of each demand
            // (demand constraints).
            let d = self.path_layers[l].out_dim();
            let grouped = g.reshape(p_act, batch * num_demands, k * d);
            let (dnn_act, b3) = self.dnn_layers[l].forward_act(store, g, grouped, self.slope);
            bounds.push(b3);
            p = g.reshape(dnn_act, batch * num_demands * k, d);
            e = e_act;
            // Dimension growth: re-append the initialization values (§4).
            if l + 1 < layers {
                for _ in 0..self.growth {
                    p = g.concat_cols(p, path_init);
                    e = g.concat_cols(e, edge_init);
                }
            }
        }
        p
    }
}

/// The shared per-demand policy network (§3.3): `k * embed_dim` inputs, a
/// small dense stack, `k` output logits.
#[derive(Clone)]
struct PolicyNet {
    layers: Vec<Linear>,
    slope: f32,
}

impl PolicyNet {
    fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        hidden_layers: usize,
        k: usize,
        slope: f32,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let mut layers = Vec::new();
        let mut d = in_dim;
        for l in 0..hidden_layers {
            layers.push(Linear::new(store, &format!("policy.h{l}"), d, hidden, rng));
            d = hidden;
        }
        layers.push(Linear::new(store, "policy.out", d, k, rng));
        PolicyNet { layers, slope }
    }

    fn forward(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        x: Var,
        bounds: &mut Vec<BoundLinear>,
    ) -> Var {
        let mut h = x;
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            // Slope 1.0 = identity activation on the output layer.
            let slope = if i + 1 < n { self.slope } else { 1.0 };
            let (act, b) = layer.forward_act(store, g, h, slope);
            bounds.push(b);
            h = act;
        }
        h
    }

    /// Tape-free inference variant of [`PolicyNet::forward`].
    fn infer(&self, store: &ParamStore, x: Tensor) -> Tensor {
        let mut h = x;
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let slope = if i + 1 < n { self.slope } else { 1.0 };
            h = layer.infer_act(store, &h, slope);
        }
        h
    }
}

/// The full Teal model: FlowGNN + policy network + Gaussian log-std.
#[derive(Clone)]
pub struct TealModel {
    env: Arc<Env>,
    store: ParamStore,
    gnn: FlowGnn,
    policy: PolicyNet,
    logstd: ParamId,
    name: String,
}

impl TealModel {
    /// Construct with the paper's defaults (override via `cfg`).
    pub fn new(env: Arc<Env>, cfg: TealConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = teal_nn::rng::seeded(cfg.seed ^ 0x7ea1_c0de);
        let k = env.k();
        let gnn = FlowGnn::new(
            &mut store,
            k,
            cfg.gnn_layers,
            cfg.embed_growth,
            cfg.leaky_slope,
            &mut rng,
        );
        let policy = PolicyNet::new(
            &mut store,
            k * gnn.out_dim(),
            cfg.policy_hidden,
            cfg.policy_hidden_layers,
            k,
            cfg.leaky_slope,
            &mut rng,
        );
        let logstd = store.register("logstd", Tensor::full(1, k, cfg.init_logstd));
        TealModel {
            env,
            store,
            gnn,
            policy,
            logstd,
            name: "Teal".to_string(),
        }
    }

    /// Total trainable scalars (policy-network compactness is a §3.3 claim).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Tape-free inference: mean logits `[batch * D, k]` for a (batched)
    /// input. Identical arithmetic to the recorded forward pass, but no
    /// autograd bookkeeping and intermediates freed eagerly — the serving
    /// hot path.
    pub fn infer_mu(&self, input: &ModelInput) -> Tensor {
        let embed = self.gnn.infer(&self.store, &self.env, input);
        let k = self.env.k();
        let flat =
            embed.into_reshaped(input.batch * self.env.num_demands(), k * self.gnn.out_dim());
        self.policy.infer(&self.store, flat)
    }
}

impl PolicyModel for TealModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn env(&self) -> &Arc<Env> {
        &self.env
    }

    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward {
        let mut bounds = Vec::new();
        let embed = self
            .gnn
            .forward(&self.store, g, &self.env, input, &mut bounds);
        let k = self.env.k();
        let flat = g.reshape(
            embed,
            input.batch * self.env.num_demands(),
            k * self.gnn.out_dim(),
        );
        let mu = self.policy.forward(&self.store, g, flat, &mut bounds);
        let logstd = self.store.bind(g, self.logstd);
        Forward::new(mu, Some(embed), logstd, bounds, self.logstd)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Deployment override: tape-free inference (same math, no autograd).
    fn allocate_deterministic(&self, input: &ModelInput) -> Allocation {
        assert_eq!(
            input.batch, 1,
            "allocate_deterministic takes a single-matrix input"
        );
        mu_to_allocation(&self.infer_mu(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_topology::b4;
    use teal_traffic::TrafficMatrix;

    fn small_env() -> Arc<Env> {
        Arc::new(Env::for_topology(b4()))
    }

    #[test]
    fn forward_shapes() {
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
        let input = env.model_input(&tm, None);
        let mut g = Graph::new();
        let fwd = model.forward(&mut g, &input);
        assert_eq!(g.value(fwd.mu).shape(), (env.num_demands(), 4));
        let emb = fwd.embeddings.unwrap();
        assert_eq!(g.value(emb).shape(), (env.paths().num_paths(), 6));
        assert!(g.value(fwd.mu).all_finite());
    }

    #[test]
    fn deterministic_allocation_is_simplex_valid() {
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
        let alloc = model.allocate_deterministic(&env.model_input(&tm, None));
        assert!(alloc.demand_feasible(1e-5));
        for d in 0..env.num_demands() {
            let s: f64 = alloc.demand_splits(d).iter().sum();
            assert!(
                (s - 1.0).abs() < 1e-4,
                "softmax splits must sum to 1, got {s}"
            );
        }
    }

    #[test]
    fn tape_free_inference_matches_recorded_forward() {
        // The serving path (infer_mu) and the training path (forward on a
        // tape) must produce the same logits bit for bit: same kernels, same
        // accumulation order.
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tms: Vec<TrafficMatrix> = (0..2)
            .map(|i| TrafficMatrix::new(vec![3.0 + 9.0 * i as f64; env.num_demands()]))
            .collect();
        let input = env.batch_input(&tms, None);
        let mut g = Graph::new();
        let fwd = model.forward(&mut g, &input);
        let recorded = g.value(fwd.mu);
        let inferred = model.infer_mu(&input);
        assert_eq!(
            &inferred, recorded,
            "tape-free inference diverged from the recorded forward"
        );
    }

    #[test]
    fn batched_forward_shapes_and_equivalence() {
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tms: Vec<TrafficMatrix> = (0..3)
            .map(|i| TrafficMatrix::new(vec![2.0 + 3.0 * i as f64; env.num_demands()]))
            .collect();
        let input = env.batch_input(&tms, None);
        let mut g = Graph::new();
        let fwd = model.forward(&mut g, &input);
        assert_eq!(g.value(fwd.mu).shape(), (3 * env.num_demands(), 4));
        let emb = fwd.embeddings.unwrap();
        assert_eq!(g.value(emb).shape(), (3 * env.paths().num_paths(), 6));

        // The stacked input training and the benchmark still use, against
        // the per-matrix call serving makes: every kernel is row-wise, so
        // the two agree to the bit.
        let batched = mu_to_allocations(&model.infer_mu(&input), input.batch);
        assert_eq!(batched.len(), 3);
        for (tm, b) in tms.iter().zip(&batched) {
            let seq = model.allocate_deterministic(&env.model_input(tm, None));
            assert_eq!(b, &seq, "stacked forward diverged from per-matrix");
        }
    }

    #[test]
    fn policy_is_topology_size_agnostic() {
        // §3.3: the policy network's parameter count must not depend on the
        // number of demands. Compare B4 against a larger topology.
        let env_small = small_env();
        let m_small = TealModel::new(Arc::clone(&env_small), TealConfig::default());
        let topo_big = teal_topology::generate(teal_topology::TopoKind::Swan, 0.3, 7);
        let env_big = Arc::new(Env::for_topology(topo_big));
        let m_big = TealModel::new(Arc::clone(&env_big), TealConfig::default());
        assert_eq!(m_small.num_parameters(), m_big.num_parameters());
    }

    #[test]
    fn gradients_flow_end_to_end() {
        let env = small_env();
        let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
        let input = env.model_input(&tm, None);
        let mut g = Graph::new();
        let fwd = model.forward(&mut g, &input);
        let loss = g.sum_all(fwd.mu);
        g.backward(loss);
        model.absorb(&g, &fwd);
        // The first GNN layer's weights must receive gradient (end-to-end
        // backprop through policy + 6 GNN/DNN layers).
        assert!(model.store().grad_norm() > 0.0);
    }

    #[test]
    fn forward_depends_on_capacities() {
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
        let base = model.allocate_deterministic(&env.model_input(&tm, None));
        let failed = env.topo().with_failed_link(0, 1);
        let after = model.allocate_deterministic(&env.model_input(&tm, Some(&failed)));
        assert_ne!(base, after, "failing a link must change the model output");
    }

    #[test]
    fn variable_layer_counts() {
        let env = small_env();
        for layers in [4usize, 6, 8] {
            let cfg = TealConfig {
                gnn_layers: layers,
                ..TealConfig::default()
            };
            let model = TealModel::new(Arc::clone(&env), cfg);
            let tm = TrafficMatrix::new(vec![1.0; env.num_demands()]);
            let input = env.model_input(&tm, None);
            let mut g = Graph::new();
            let fwd = model.forward(&mut g, &input);
            let emb = fwd.embeddings.unwrap();
            assert_eq!(g.value(emb).cols(), layers);
        }
    }
}
