//! Teal's neural model: FlowGNN (§3.2) + shared per-demand policy network
//! (§3.3), plus the `PolicyModel` trait that the ablation variants (§5.7)
//! implement so the same COMA* trainer drives all of them.

use crate::env::{Env, ModelInput};
use std::sync::Arc;
use teal_lp::Allocation;
use teal_nn::graph::softmax_row_inplace;
use teal_nn::tensor::{run_at_width, Dense, RowBuf, RowPass};
use teal_nn::{Aggregate, BoundLinear, CsrPair, Graph, Linear, ParamId, ParamStore, Tensor, Var};

/// Negative-side slope of every leaky ReLU in Teal and in the §5.7 arms.
pub(crate) const LEAKY_SLOPE: f32 = 0.1;

/// Initial log standard deviation of the Gaussian exploration policy, in
/// Teal and in the §5.7 arms.
pub(crate) const INIT_LOGSTD: f32 = -1.0;

/// Hyperparameters of the full Teal model (§4 defaults).
#[derive(Clone, Copy, Debug)]
pub struct TealConfig {
    /// Number of GNN layers (interleaved with the same number of DNN
    /// layers). The first layer starts from 1-element embeddings and each
    /// following layer appends `embed_growth` initialization columns
    /// (§4's dimension-growth trick); see [`TealConfig::embed_dim`].
    pub gnn_layers: usize,
    /// Hidden width of the policy network (24 in the paper). Every caller
    /// keeps 24; it stays settable because width 13 in
    /// `tape_free_inference_matches_recorded_forward` is the only input
    /// that reaches the policy head's runtime-width rows.
    pub policy_hidden: usize,
    /// Number of hidden (dense) layers in the policy network (1 in §4;
    /// swept in Figure 15c).
    pub policy_hidden_layers: usize,
    /// How many initialization columns each layer appends (1 in the paper;
    /// Figure 15b sweeps larger embedding dimensions).
    pub embed_growth: usize,
    /// RNG seed for weight initialization. Every caller keeps 0; it stays
    /// settable so a training recipe can pin its own seed.
    pub seed: u64,
}

impl Default for TealConfig {
    fn default() -> Self {
        TealConfig {
            gnn_layers: 6,
            policy_hidden: 24,
            policy_hidden_layers: 1,
            embed_growth: 1,
            seed: 0,
        }
    }
}

impl TealConfig {
    /// FlowGNN's final embedding width, `1 + (gnn_layers - 1) * embed_growth`.
    pub fn embed_dim(&self) -> usize {
        1 + (self.gnn_layers - 1) * self.embed_growth
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

    /// Run the forward pass of one traffic matrix on a fresh tape. A stacked
    /// input panics: training records one tape per matrix, and only
    /// tape-free inference takes a stack.
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
        let mut g = Graph::new();
        let fwd = self.forward(&mut g, input);
        mu_to_allocation(g.value(fwd.mu))
    }
}

/// Panic unless `input` holds one traffic matrix: every recorded forward
/// starts here.
pub(crate) fn assert_single_matrix(input: &ModelInput) {
    assert_eq!(
        input.batch, 1,
        "a recorded forward takes a single-matrix input"
    );
}

/// Convert a `[D, k]` logit tensor to a softmax allocation.
pub fn mu_to_allocation(mu: &Tensor) -> Allocation {
    rows_to_allocation(mu, 0..mu.rows(), &mut vec![0.0f32; mu.cols()])
}

/// Split a `[batch * D, k]` logit tensor into per-matrix softmax allocations.
pub fn mu_to_allocations(mu: &Tensor, batch: usize) -> Vec<Allocation> {
    let (rows, k) = mu.shape();
    assert!(
        batch >= 1 && rows % batch == 0,
        "logit rows {rows} not divisible by batch {batch}"
    );
    let d = rows / batch;
    let mut row = vec![0.0f32; k];
    (0..batch)
        .map(|b| rows_to_allocation(mu, b * d..(b + 1) * d, &mut row))
        .collect()
}

/// Softmax the logit rows `rows` of `mu` into one allocation. `row` is one
/// k-wide f32 buffer reused for every demand: softmax stays in f32 and is
/// widened afterwards, with no allocation per row.
fn rows_to_allocation(mu: &Tensor, rows: std::ops::Range<usize>, row: &mut [f32]) -> Allocation {
    let k = mu.cols();
    let mut splits = Vec::with_capacity(rows.len() * k);
    for r in rows {
        row.copy_from_slice(mu.row(r));
        softmax_row_inplace(row);
        splits.extend(row.iter().map(|&v| v as f64));
    }
    Allocation::from_splits(k, splits)
}

/// How FlowGNN's message passing combines the embeddings on the far side of
/// the incidence, in both directions and in both the recorded and the
/// tape-free forward: a PathNode sums its edges', an EdgeNode the paths
/// crossing it. Every model starts from it ([`FlowGnn`]'s private `agg`).
const FLOWGNN_AGGREGATE: Aggregate = Aggregate::Sum;

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
    growth: usize,
    /// Final embedding width, [`TealConfig::embed_dim`].
    dim: usize,
    /// Message aggregation, [`FLOWGNN_AGGREGATE`]; tests flip it to pin
    /// both aggregations' tape-free forward against the recorded one.
    agg: Aggregate,
}

impl FlowGnn {
    fn new(store: &mut ParamStore, k: usize, cfg: &TealConfig, rng: &mut impl rand::Rng) -> Self {
        let (layers, growth) = (cfg.gnn_layers, cfg.embed_growth);
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
            growth,
            dim: cfg.embed_dim(),
            agg: FLOWGNN_AGGREGATE,
        }
    }

    /// Tape-free inference forward: the same arithmetic as
    /// [`FlowGnn::forward`], bit for bit, in three buffers sized at the
    /// final width `D` — `p` (`[batch·P, D]`), `e` and `e_next` (each
    /// `[batch·E, D]`) — each layer holding its width-`d` rows densely at
    /// the front. Layer `l`:
    /// - its edge half reads the old `p` and `e` and writes `e_next`, with
    ///   the next layer's `edge_init` growth columns already in place;
    /// - its path half then updates `p` in place;
    /// - its per-demand DNN runs in place from the last demand group down,
    ///   so each path row lands at its grown width with its `path_init`
    ///   columns written.
    ///
    /// A message is one [`teal_nn::Csr::aggregate_row`] into a stack row,
    /// handed straight to the dense row kernel: no `[P, d]` or `[E, d]`
    /// message tensor and no concatenation exist. The last layer's edge
    /// half is skipped: nothing reads its output. Training's recorded
    /// forward still computes it, as one dense product per step whose
    /// gradient is zero, so that tape and the training goldens built on it
    /// stay as they are. Returns `p` as `[batch·P, D]`; the edge pair is
    /// freed on return. A stacked input runs the incidence
    /// block-diagonally, bit-identical per block.
    fn infer(&self, store: &ParamStore, env: &Env, input: &ModelInput) -> Tensor {
        let width = self.dim;
        let (path_init, edge_init) = (input.path_init.data(), input.edge_init.data());
        let mut p = vec![0.0f32; path_init.len() * width];
        let mut e = vec![0.0f32; edge_init.len() * width];
        let mut e_next = vec![0.0f32; edge_init.len() * width];
        p[..path_init.len()].copy_from_slice(path_init);
        e[..edge_init.len()].copy_from_slice(edge_init);
        let layers = self.path_layers.len();
        for l in 0..layers {
            let d = self.path_layers[l].out_dim();
            let last = l + 1 == layers;
            let grown = if last { d } else { d + self.growth };
            // Compile-time rows for the default widths only: `d` up to 6,
            // and for the DNN `k·d` with k = 4, the multiples of 4 to 24.
            run_at_width::<1, 6>(
                d,
                GnnLayer {
                    incidence: env.incidence(),
                    agg: self.agg,
                    path: self.path_layers[l].dense(store, LEAKY_SLOPE),
                    edge: (!last).then(|| self.edge_layers[l].dense(store, LEAKY_SLOPE)),
                    p: &mut p[..path_init.len() * d],
                    e: &e[..edge_init.len() * d],
                    e_next: &mut e_next[..edge_init.len() * grown],
                    edge_init,
                    grown,
                },
            );
            run_at_width::<4, 24>(
                self.k * d,
                DemandDnn {
                    dnn: self.dnn_layers[l].dense(store, LEAKY_SLOPE),
                    p: &mut p[..path_init.len() * grown],
                    path_init,
                    d,
                    grown,
                },
            );
            if !last {
                std::mem::swap(&mut e, &mut e_next);
            }
        }
        Tensor::from_vec(path_init.len(), width, p)
    }

    /// Recorded forward of one matrix: returns PathNode embeddings
    /// `[P, dim]`.
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
        let path_init = g.input(input.path_init.clone());
        let edge_init = g.input(input.edge_init.clone());
        let mut p = path_init;
        let mut e = edge_init;
        let num_demands = env.num_demands();
        let k = self.k;
        let layers = self.path_layers.len();
        for l in 0..layers {
            // GNN sublayer: bipartite message passing (capacity constraints).
            let msg_to_path = g.spmm(a, e, self.agg); // [P, d]
            let msg_to_edge = g.spmm(&at, p, self.agg); // [E, d]
            let p_cat = g.concat_cols(p, msg_to_path);
            let (p_act, b1) = self.path_layers[l].forward_act(store, g, p_cat, LEAKY_SLOPE);
            bounds.push(b1);
            let e_cat = g.concat_cols(e, msg_to_edge);
            let (e_act, b2) = self.edge_layers[l].forward_act(store, g, e_cat, LEAKY_SLOPE);
            bounds.push(b2);
            // DNN sublayer: coordinate the k PathNodes of each demand
            // (demand constraints).
            let d = self.path_layers[l].out_dim();
            let grouped = g.reshape(p_act, num_demands, k * d);
            let (dnn_act, b3) = self.dnn_layers[l].forward_act(store, g, grouped, LEAKY_SLOPE);
            bounds.push(b3);
            p = g.reshape(dnn_act, num_demands * k, d);
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

/// One tape-free GNN layer at width `d` (the row width [`run_at_width`]
/// dispatches): the edge half, unless this is the last layer, then the path
/// half in place. Block `b` of a stacked input reads block `b` of the other
/// side.
struct GnnLayer<'a> {
    incidence: &'a CsrPair,
    agg: Aggregate,
    path: Dense<'a>,
    edge: Option<Dense<'a>>,
    /// `[batch·P, d]`, updated in place.
    p: &'a mut [f32],
    /// `[batch·E, d]`, the layer's input edge rows.
    e: &'a [f32],
    /// `[batch·E, grown]`: the edge half's output, then `edge_init` in
    /// each growth column.
    e_next: &'a mut [f32],
    edge_init: &'a [f32],
    grown: usize,
}

impl RowPass for GnnLayer<'_> {
    fn run<B: RowBuf>(self, zero: B) {
        let d = zero.as_ref().len();
        let (mut msg, mut acc) = (zero.clone(), zero);
        let (a, at) = (&*self.incidence.fwd, &*self.incidence.bwd);
        let (p_block, e_block) = (a.rows() * d, at.rows() * d);
        if let Some(edge) = self.edge {
            let rows = self
                .e
                .chunks_exact(d)
                .zip(self.e_next.chunks_exact_mut(self.grown));
            for (i, (old, next)) in rows.enumerate() {
                let (b, r) = (i / at.rows(), i % at.rows());
                let p_b = &self.p[b * p_block..(b + 1) * p_block];
                at.aggregate_row(r, p_b, self.agg, msg.as_mut());
                edge.row(old, msg.as_ref(), acc.as_mut());
                let (head, growth) = next.split_at_mut(d);
                head.copy_from_slice(acc.as_ref());
                growth.fill(self.edge_init[i]);
            }
        }
        for (i, row) in self.p.chunks_exact_mut(d).enumerate() {
            let (b, r) = (i / a.rows(), i % a.rows());
            let e_b = &self.e[b * e_block..(b + 1) * e_block];
            a.aggregate_row(r, e_b, self.agg, msg.as_mut());
            self.path.row(row, msg.as_ref(), acc.as_mut());
            row.copy_from_slice(acc.as_ref());
        }
    }
}

/// One tape-free per-demand DNN at row width `k·d`, in place: demand group
/// `g`'s `k` path rows are read at width `d` and written back at the grown
/// width with `path_init` in each growth column. Groups run from the last
/// down, so no write reaches a group not yet read.
struct DemandDnn<'a> {
    dnn: Dense<'a>,
    /// `[batch·P, grown]`; the layer's input is its `[batch·P, d]` front.
    p: &'a mut [f32],
    path_init: &'a [f32],
    d: usize,
    grown: usize,
}

impl RowPass for DemandDnn<'_> {
    fn run<B: RowBuf>(self, mut acc: B) {
        let (d, grown, kd) = (self.d, self.grown, acc.as_ref().len());
        let k = kd / d;
        for g in (0..self.path_init.len() / k).rev() {
            self.dnn
                .row(&self.p[g * kd..(g + 1) * kd], &[], acc.as_mut());
            let out = &mut self.p[g * k * grown..(g + 1) * k * grown];
            let inits = &self.path_init[g * k..(g + 1) * k];
            for ((row, emb), &init) in out
                .chunks_exact_mut(grown)
                .zip(acc.as_ref().chunks_exact(d))
                .zip(inits)
            {
                let (head, growth) = row.split_at_mut(d);
                head.copy_from_slice(emb);
                growth.fill(init);
            }
        }
    }
}

/// The shared per-demand policy network (§3.3): `k * embed_dim` inputs, a
/// small dense stack, `k` output logits.
#[derive(Clone)]
struct PolicyNet {
    layers: Vec<Linear>,
}

impl PolicyNet {
    fn new(
        store: &mut ParamStore,
        in_dim: usize,
        hidden: usize,
        hidden_layers: usize,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let mut layers = Vec::new();
        let mut d = in_dim;
        for l in 0..hidden_layers {
            layers.push(Linear::new(store, &format!("policy.h{l}"), d, hidden, rng));
            d = hidden;
        }
        layers.push(Linear::new(store, "policy.out", d, k, rng));
        PolicyNet { layers }
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
            let slope = if i + 1 < n { LEAKY_SLOPE } else { 1.0 };
            let (act, b) = layer.forward_act(store, g, h, slope);
            bounds.push(b);
            h = act;
        }
        h
    }

    /// Tape-free inference variant of [`PolicyNet::forward`]: `x` holds
    /// `[rows, in_dim]` demand rows, and each runs the whole stack alone,
    /// its hidden activations in two stack rows, so no `[rows, hidden]`
    /// tensor exists. Returns the `[rows, k]` logits.
    fn infer(&self, store: &ParamStore, x: &[f32], in_dim: usize) -> Tensor {
        let (hidden, out) = self.layers.split_at(self.layers.len() - 1);
        let mut logits = Tensor::zeros(x.len() / in_dim, out[0].out_dim());
        let out = out[0].dense(store, 1.0);
        match hidden.split_first() {
            None => out.rows_into(x, in_dim, &[], 0, logits.data_mut()),
            // Compile-time rows for the default hidden width only.
            Some((first, rest)) => run_at_width::<24, 24>(
                first.out_dim(),
                PolicyRows {
                    first: first.dense(store, LEAKY_SLOPE),
                    rest: rest.iter().map(|l| l.dense(store, LEAKY_SLOPE)),
                    out,
                    x,
                    in_dim,
                    logits: logits.data_mut(),
                },
            ),
        }
        logits
    }
}

/// [`PolicyNet::infer`]'s demand rows, at the hidden width.
struct PolicyRows<'a, H> {
    first: Dense<'a>,
    rest: H,
    out: Dense<'a>,
    x: &'a [f32],
    in_dim: usize,
    logits: &'a mut [f32],
}

impl<'a, H: Iterator<Item = Dense<'a>> + Clone> RowPass for PolicyRows<'a, H> {
    fn run<B: RowBuf>(self, zero: B) {
        let (mut h, mut h_next) = (zero.clone(), zero);
        let width = h.as_ref().len();
        let rows = self.x.chunks_exact(self.in_dim);
        for (x, logits) in rows.zip(self.logits.chunks_exact_mut(self.out.width())) {
            self.first.row(x, &[], h.as_mut());
            for layer in self.rest.clone() {
                layer.row(h.as_ref(), &[], h_next.as_mut());
                std::mem::swap(&mut h, &mut h_next);
            }
            self.out.rows_into(h.as_ref(), width, &[], 0, logits);
        }
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
        let gnn = FlowGnn::new(&mut store, k, &cfg, &mut rng);
        let policy = PolicyNet::new(
            &mut store,
            k * gnn.dim,
            cfg.policy_hidden,
            cfg.policy_hidden_layers,
            k,
            &mut rng,
        );
        let logstd = store.register("logstd", Tensor::full(1, k, INIT_LOGSTD));
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
    /// input, bit-identical to the recorded forward pass — the serving hot
    /// path. Buffer plan (f32s, `P` paths, `E` edges, `D` the embedding width):
    /// FlowGNN runs in `p` (`batch·P·D`) and the edge pair `e`, `e_next`
    /// (`batch·E·D` each), allocated once per call; the edge pair is freed
    /// before the policy head allocates the `[batch * D, k]` logits and
    /// runs one demand row at a time on the stack. So the call's peak is
    /// its input plus `4·batch·(P·D + 2·E·D)` bytes whenever the logits
    /// fit in the freed edge pair (`tests/footprint.rs` pins it).
    pub fn infer_mu(&self, input: &ModelInput) -> Tensor {
        let embed = self.gnn.infer(&self.store, &self.env, input);
        let k = self.env.k();
        self.policy
            .infer(&self.store, embed.data(), k * self.gnn.dim)
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
        assert_single_matrix(input);
        let mut bounds = Vec::new();
        let embed = self
            .gnn
            .forward(&self.store, g, &self.env, input, &mut bounds);
        let k = self.env.k();
        let flat = g.reshape(embed, self.env.num_demands(), k * self.gnn.dim);
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

    /// A `large_wan(64)` environment over 128 gravity pairs, and a link
    /// its paths cross.
    fn wan64_env() -> (Arc<Env>, (usize, usize)) {
        let wan = teal_topology::large_wan(64, 7);
        let pairs = teal_topology::gravity_pairs(&wan, 128, 7);
        let paths = teal_topology::PathSet::compute(&wan, &pairs, 4);
        let env = Env::new(wan, paths);
        let crossed = (0..env.topo().num_edges())
            .find(|&e| !env.paths().paths_on_edge(e).is_empty())
            .expect("a crossed edge");
        let link = &env.topo().edges()[crossed];
        let link = (link.src, link.dst);
        (Arc::new(env), link)
    }

    #[test]
    fn tape_free_inference_matches_recorded_forward() {
        // The serving path (infer_mu, three row-fused buffers) and the
        // training path (one tape per matrix, whole-tensor ops) must
        // produce the same logits bit for bit, under both aggregations, at
        // every layer count, growth and policy depth, alone and stacked, on
        // two topologies with and without a failed link. Growth 2 and the
        // two-layer policy's hidden width 13 take the runtime-width rows.
        // Block b of a stacked inference is matrix b's tape.
        let mut configs = Vec::new();
        for gnn_layers in [1, 4, 6, 8] {
            for embed_growth in [1, 2] {
                for (policy_hidden_layers, policy_hidden) in [(1, 24), (2, 13)] {
                    configs.push(TealConfig {
                        gnn_layers,
                        embed_growth,
                        policy_hidden_layers,
                        policy_hidden,
                        ..TealConfig::default()
                    });
                }
            }
        }
        for (env, (src, dst)) in [(small_env(), (0, 1)), wan64_env()] {
            let failed = env.topo().with_failed_link(src, dst);
            let nd = env.num_demands();
            let tms: Vec<TrafficMatrix> = (0..3)
                .map(|b| {
                    TrafficMatrix::new(
                        (0..nd)
                            .map(|d| 1.0 + ((d * 7 + b * 5) % 13) as f64)
                            .collect(),
                    )
                })
                .collect();
            let block = nd * env.k();
            for (topo, agg, &cfg) in [None, Some(&failed)]
                .into_iter()
                .flat_map(|t| [(t, Aggregate::Sum), (t, Aggregate::Mean)])
                .flat_map(|(t, agg)| configs.iter().map(move |cfg| (t, agg, cfg)))
            {
                let mut model = TealModel::new(Arc::clone(&env), cfg);
                model.gnn.agg = agg;
                let what = format!(
                    "{} paths, failed link {}, {agg:?}, {cfg:?}",
                    env.paths().num_paths(),
                    topo.is_some()
                );
                let stacked = model.infer_mu(&env.batch_input(&tms, topo));
                for (b, tm) in tms.iter().enumerate() {
                    let input = env.model_input(tm, topo);
                    let mut g = Graph::new();
                    let mu = model.forward(&mut g, &input).mu;
                    let recorded = g.value(mu).data();
                    assert_eq!(
                        model.infer_mu(&input).data(),
                        recorded,
                        "inference diverged from the recorded forward: {what}"
                    );
                    assert_eq!(
                        &stacked.data()[b * block..(b + 1) * block],
                        recorded,
                        "stacked block {b} diverged from its recorded forward: {what}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "single-matrix input")]
    fn recorded_forward_refuses_a_stacked_input() {
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tm = TrafficMatrix::new(vec![1.0; env.num_demands()]);
        let input = env.batch_input(&[tm.clone(), tm], None);
        let _ = model.forward(&mut Graph::new(), &input);
    }

    #[test]
    fn batched_forward_shapes_and_equivalence() {
        let env = small_env();
        let model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let tms: Vec<TrafficMatrix> = (0..3)
            .map(|i| TrafficMatrix::new(vec![2.0 + 3.0 * i as f64; env.num_demands()]))
            .collect();
        let input = env.batch_input(&tms, None);
        let mu = model.infer_mu(&input);
        assert_eq!(mu.shape(), (3 * env.num_demands(), 4));

        // The stacked input the benchmark still uses, against the
        // per-matrix call serving makes: every kernel is row-wise, so the
        // two agree to the bit.
        let batched = mu_to_allocations(&mu, input.batch);
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
