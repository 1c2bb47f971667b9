//! Ablation model variants from §5.7 / Figure 14.
//!
//! * [`NaiveDnnModel`] — "Teal w/ naive DNN": a plain fully-connected stack
//!   that maps the whole traffic matrix to all split logits, ignoring the
//!   WAN structure entirely.
//! * [`NaiveGnnModel`] — "Teal w/ naive GNN": a GNN over the WAN *nodes*
//!   (sites), which sees connectivity but cannot represent flows; per-demand
//!   logits come from the endpoints' node embeddings.
//! * [`GlobalPolicyModel`] — "Teal w/ global policy": FlowGNN features feed
//!   one gigantic policy network that emits every demand's splits jointly;
//!   its parameter count grows with the topology (the §3.3 objection).
//!
//! All variants implement [`PolicyModel`] so the COMA* and direct-loss
//! trainers drive them unchanged.

use crate::env::{Env, ModelInput};
use crate::model::{Forward, PolicyModel};
use std::sync::Arc;
use teal_nn::{CsrPair, Graph, Linear, ParamId, ParamStore, Tensor};

/// "Teal w/ naive DNN": traffic matrix in, all split logits out.
pub struct NaiveDnnModel {
    env: Arc<Env>,
    store: ParamStore,
    layers: Vec<Linear>,
    logstd: ParamId,
    /// Indices of each demand's first path slot (to extract the demand
    /// vector from `path_init`).
    demand_rows: Arc<Vec<usize>>,
    slope: f32,
}

impl NaiveDnnModel {
    /// Build with `depth` dense layers of width `hidden` (the paper uses 6
    /// layers).
    pub fn new(env: Arc<Env>, hidden: usize, depth: usize, seed: u64) -> Self {
        assert!(depth >= 2);
        let mut store = ParamStore::new();
        let mut rng = teal_nn::rng::seeded(seed ^ 0xab1a_0001);
        let nd = env.num_demands();
        let k = env.k();
        let mut layers = Vec::new();
        let mut din = nd;
        for l in 0..depth - 1 {
            layers.push(Linear::new(
                &mut store,
                &format!("dnn.h{l}"),
                din,
                hidden,
                &mut rng,
            ));
            din = hidden;
        }
        layers.push(Linear::new(&mut store, "dnn.out", din, nd * k, &mut rng));
        let logstd = store.register("logstd", Tensor::full(1, k, -1.0));
        let demand_rows = Arc::new((0..nd).map(|d| d * k).collect());
        NaiveDnnModel {
            env,
            store,
            layers,
            logstd,
            demand_rows,
            slope: 0.1,
        }
    }
}

impl PolicyModel for NaiveDnnModel {
    fn name(&self) -> &str {
        "Teal w/ naive DNN"
    }

    fn env(&self) -> &Arc<Env> {
        &self.env
    }

    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward {
        let nd = self.env.num_demands();
        let k = self.env.k();
        let batch = input.batch;
        let mut bounds = Vec::new();
        // Demand vector from the per-path initialization (slot 0 per demand,
        // repeated per batch block).
        let paths = g.input(input.path_init.clone());
        let demands = if batch == 1 {
            g.gather_rows(paths, Arc::clone(&self.demand_rows)) // [D,1]
        } else {
            let per = nd * k;
            let idx: Vec<usize> = (0..batch)
                .flat_map(|b| self.demand_rows.iter().map(move |&r| b * per + r))
                .collect();
            g.gather_rows(paths, Arc::new(idx)) // [B*D,1]
        };
        let mut h = g.reshape(demands, batch, nd);
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let (lin, b) = layer.forward(&self.store, g, h);
            bounds.push(b);
            h = if i + 1 < n {
                g.leaky_relu(lin, self.slope)
            } else {
                lin
            };
        }
        let mu = g.reshape(h, batch * nd, k);
        let logstd = self.store.bind(g, self.logstd);
        Forward::new(mu, None, logstd, bounds, self.logstd)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// "Teal w/ naive GNN": message passing over WAN sites, per-demand head on
/// the endpoint embeddings.
pub struct NaiveGnnModel {
    env: Arc<Env>,
    store: ParamStore,
    /// Node-adjacency operator (row-normalized), `N x N`.
    adjacency: CsrPair,
    /// Per-layer node transform `[2h -> h]` (or `[feat -> h]` for layer 0).
    gnn_layers: Vec<Linear>,
    /// Demand head: `[2h -> k]` logits from (src, dst) embeddings.
    head: Vec<Linear>,
    logstd: ParamId,
    src_idx: Arc<Vec<usize>>,
    dst_idx: Arc<Vec<usize>>,
    slope: f32,
    hidden: usize,
}

impl NaiveGnnModel {
    /// Build with `layers` rounds of node message passing at width `hidden`.
    pub fn new(env: Arc<Env>, hidden: usize, layers: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = teal_nn::rng::seeded(seed ^ 0xab1a_0002);
        let n = env.topo().num_nodes();
        let k = env.k();
        // Row-normalized adjacency (mean aggregation).
        let mut triplets = Vec::new();
        for node in 0..n {
            let nbrs = env.topo().neighbors(node);
            if nbrs.is_empty() {
                continue;
            }
            let w = 1.0 / nbrs.len() as f32;
            for &(m, _) in nbrs {
                triplets.push((node, m, w));
            }
        }
        let adjacency = CsrPair::from_triplets(n, n, &triplets);
        let mut gnn_layers = Vec::new();
        // Node features: [out_volume, in_volume] (2 dims).
        let mut din = 2usize;
        for l in 0..layers {
            gnn_layers.push(Linear::new(
                &mut store,
                &format!("ngnn.l{l}"),
                2 * din,
                hidden,
                &mut rng,
            ));
            din = hidden;
        }
        let head = vec![
            Linear::new(&mut store, "ngnn.head0", 2 * hidden, hidden, &mut rng),
            Linear::new(&mut store, "ngnn.head1", hidden, k, &mut rng),
        ];
        let logstd = store.register("logstd", Tensor::full(1, k, -1.0));
        let pairs = env.paths().pairs().to_vec();
        let src_idx = Arc::new(pairs.iter().map(|&(s, _)| s).collect());
        let dst_idx = Arc::new(pairs.iter().map(|&(_, t)| t).collect());
        NaiveGnnModel {
            env,
            store,
            adjacency,
            gnn_layers,
            head,
            logstd,
            src_idx,
            dst_idx,
            slope: 0.1,
            hidden,
        }
    }

    fn node_features(&self, input: &ModelInput) -> Tensor {
        let n = self.env.topo().num_nodes();
        let k = self.env.k();
        let per = self.env.paths().num_paths();
        let mut feats = Tensor::zeros(input.batch * n, 2);
        for b in 0..input.batch {
            for (d, &(s, t)) in self.env.paths().pairs().iter().enumerate() {
                let v = input.path_init.get(b * per + d * k, 0);
                feats.set(b * n + s, 0, feats.get(b * n + s, 0) + v);
                feats.set(b * n + t, 1, feats.get(b * n + t, 1) + v);
            }
        }
        feats
    }
}

impl PolicyModel for NaiveGnnModel {
    fn name(&self) -> &str {
        "Teal w/ naive GNN"
    }

    fn env(&self) -> &Arc<Env> {
        &self.env
    }

    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward {
        let batch = input.batch;
        let mut bounds = Vec::new();
        let mut h = g.input(self.node_features(input));
        for layer in &self.gnn_layers {
            let msg = g.spmm_batch(&self.adjacency, h, batch);
            let cat = g.concat_cols(h, msg);
            let (lin, b) = layer.forward(&self.store, g, cat);
            bounds.push(b);
            h = g.leaky_relu(lin, self.slope);
        }
        let (src, dst) = if batch == 1 {
            (
                g.gather_rows(h, Arc::clone(&self.src_idx)),
                g.gather_rows(h, Arc::clone(&self.dst_idx)),
            )
        } else {
            let n = self.env.topo().num_nodes();
            let offset = |idx: &[usize]| -> Arc<Vec<usize>> {
                Arc::new(
                    (0..batch)
                        .flat_map(|b| idx.iter().map(move |&i| b * n + i))
                        .collect(),
                )
            };
            let src_idx = offset(&self.src_idx);
            let dst_idx = offset(&self.dst_idx);
            (g.gather_rows(h, src_idx), g.gather_rows(h, dst_idx))
        };
        let pair = g.concat_cols(src, dst); // [B*D, 2h]
        let (h0, b0) = self.head[0].forward(&self.store, g, pair);
        bounds.push(b0);
        let a0 = g.leaky_relu(h0, self.slope);
        let (mu, b1) = self.head[1].forward(&self.store, g, a0);
        bounds.push(b1);
        let _ = self.hidden;
        let logstd = self.store.bind(g, self.logstd);
        Forward::new(mu, None, logstd, bounds, self.logstd)
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

/// "Teal w/ global policy": FlowGNN embeddings concatenated into a single
/// giant input; one network emits all demands' logits jointly.
pub struct GlobalPolicyModel {
    inner: crate::model::TealModel,
    store2: ParamStore,
    giant: Vec<Linear>,
    logstd: ParamId,
    slope: f32,
}

impl GlobalPolicyModel {
    /// Build from a Teal config; `hidden` is the giant network's width.
    /// Returns `Err` if the parameter count would exceed `max_params`
    /// (modeling the paper's "not feasible on ASN due to memory errors").
    pub fn new(
        env: Arc<Env>,
        cfg: crate::model::TealConfig,
        hidden: usize,
        max_params: usize,
    ) -> Result<Self, String> {
        let nd = env.num_demands();
        let k = env.k();
        let embed = cfg.gnn_layers;
        let in_dim = env.paths().num_paths() * embed;
        let out_dim = nd * k;
        let params = in_dim * hidden + hidden * out_dim;
        if params > max_params {
            return Err(format!(
                "global policy needs {params} parameters (> {max_params}): infeasible, \
                 as the paper reports for large topologies"
            ));
        }
        let inner = crate::model::TealModel::new(Arc::clone(&env), cfg);
        let mut store2 = ParamStore::new();
        let mut rng = teal_nn::rng::seeded(cfg.seed ^ 0xab1a_0003);
        let giant = vec![
            Linear::new(&mut store2, "global.h", in_dim, hidden, &mut rng),
            Linear::new(&mut store2, "global.out", hidden, out_dim, &mut rng),
        ];
        let logstd = store2.register("logstd", Tensor::full(1, k, -1.0));
        Ok(GlobalPolicyModel {
            inner,
            store2,
            giant,
            logstd,
            slope: 0.1,
        })
    }

    /// Parameter count of the giant head alone.
    pub fn giant_params(&self) -> usize {
        self.store2.num_scalars()
    }
}

impl PolicyModel for GlobalPolicyModel {
    fn name(&self) -> &str {
        "Teal w/ global policy"
    }

    fn env(&self) -> &Arc<Env> {
        self.inner.env()
    }

    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward {
        // Reuse FlowGNN from the inner model, then the giant joint head.
        // NOTE: the inner model's policy network output is discarded; only
        // its FlowGNN embeddings are consumed, as in the ablation.
        let inner_fwd = self.inner.forward(g, input);
        let embed = inner_fwd
            .embeddings
            .expect("TealModel always yields embeddings");
        let nd = self.env().num_demands();
        let k = self.env().k();
        let batch = input.batch;
        let (rows, d) = g.value(embed).shape();
        let flat = g.reshape(embed, batch, (rows / batch) * d);
        let mut bounds = inner_fwd.into_bounds();
        let (h, b0) = self.giant[0].forward(&self.store2, g, flat);
        bounds.push(b0);
        let a = g.leaky_relu(h, self.slope);
        let (out, b1) = self.giant[1].forward(&self.store2, g, a);
        bounds.push(b1);
        let mu = g.reshape(out, batch * nd, k);
        let logstd = self.store2.bind(g, self.logstd);
        Forward::new(mu, None, logstd, bounds, self.logstd)
    }

    // The giant head's parameters live in `store2`; the FlowGNN's in the
    // inner store. For simplicity the trainer optimizes the giant head and
    // the inner FlowGNN jointly through `absorb` below, but Adam state keys
    // off one store, so we expose the giant head's store (the inner FlowGNN
    // stays at initialization — a faithful handicap of this ablation's
    // joint-output architecture at our scale).
    fn store(&self) -> &ParamStore {
        &self.store2
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store2
    }

    fn absorb(&mut self, g: &Graph, fwd: &Forward) {
        // Only the giant head's bound layers exist in store2; the inner
        // model's bounds came first in the list. Absorb just the last two.
        let bounds = fwd.bounds();
        let n = bounds.len();
        for b in &bounds[n - 2..] {
            b.absorb(&mut self.store2, g);
        }
        self.store2.absorb_grad(g, fwd.logstd_id(), fwd.logstd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coma::{train_coma, validate, ComaConfig};
    use crate::model::{mu_to_allocations, TealConfig};
    use teal_topology::{PathSet, Topology};
    use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

    fn tiny_env() -> Arc<Env> {
        let mut t = Topology::new("tiny", 5);
        t.add_link(0, 1, 60.0, 1.0);
        t.add_link(1, 4, 60.0, 1.0);
        t.add_link(0, 2, 60.0, 1.2);
        t.add_link(2, 4, 60.0, 1.2);
        t.add_link(0, 3, 40.0, 1.4);
        t.add_link(3, 4, 40.0, 1.4);
        t.add_link(1, 2, 50.0, 1.0);
        let pairs = t.all_pairs();
        let paths = PathSet::compute(&t, &pairs, 4);
        Arc::new(Env::new(t, paths))
    }

    fn traffic(env: &Env, n: usize, seed: u64) -> Vec<TrafficMatrix> {
        let mut m = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), seed);
        m.calibrate(env.topo(), env.paths());
        m.series(0, n)
    }

    #[test]
    fn naive_dnn_forward_and_train() {
        let env = tiny_env();
        let mut model = NaiveDnnModel::new(Arc::clone(&env), 32, 3, 1);
        let tms = traffic(&env, 3, 9);
        let alloc = model.allocate_deterministic(&env.model_input(&tms[0], None));
        assert!(alloc.demand_feasible(1e-5));
        let cfg = ComaConfig {
            epochs: 2,
            ..ComaConfig::default()
        };
        let rep = train_coma(&mut model, &tms, &tms, &cfg);
        assert_eq!(rep.history.len(), 2);
    }

    #[test]
    fn naive_gnn_forward_and_train() {
        let env = tiny_env();
        let mut model = NaiveGnnModel::new(Arc::clone(&env), 16, 2, 2);
        let tms = traffic(&env, 3, 10);
        let alloc = model.allocate_deterministic(&env.model_input(&tms[0], None));
        assert!(alloc.demand_feasible(1e-5));
        let v = validate(&model, &env, &tms);
        assert!(v > 0.0 && v <= 100.0);
        let cfg = ComaConfig {
            epochs: 2,
            ..ComaConfig::default()
        };
        let _ = train_coma(&mut model, &tms, &tms, &cfg);
    }

    #[test]
    fn global_policy_feasibility_guard() {
        let env = tiny_env();
        let ok = GlobalPolicyModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
            32,
            10_000_000,
        );
        assert!(ok.is_ok());
        let too_big = GlobalPolicyModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
            32,
            100,
        );
        assert!(
            too_big.is_err(),
            "size guard must reject oversized policies"
        );
    }

    #[test]
    fn global_policy_forward_and_train() {
        let env = tiny_env();
        let mut model = GlobalPolicyModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 2,
                ..TealConfig::default()
            },
            16,
            10_000_000,
        )
        .unwrap();
        let tms = traffic(&env, 2, 11);
        let alloc = model.allocate_deterministic(&env.model_input(&tms[0], None));
        assert!(alloc.demand_feasible(1e-5));
        assert!(model.giant_params() > 0);
        let cfg = ComaConfig {
            epochs: 1,
            ..ComaConfig::default()
        };
        let _ = train_coma(&mut model, &tms, &tms, &cfg);
    }

    #[test]
    fn ablation_models_batch_equals_sequential() {
        let env = tiny_env();
        let tms = traffic(&env, 3, 14);
        let models: Vec<Box<dyn PolicyModel>> = vec![
            Box::new(NaiveDnnModel::new(Arc::clone(&env), 16, 3, 5)),
            Box::new(NaiveGnnModel::new(Arc::clone(&env), 12, 2, 6)),
            Box::new(
                GlobalPolicyModel::new(
                    Arc::clone(&env),
                    TealConfig {
                        gnn_layers: 2,
                        ..TealConfig::default()
                    },
                    16,
                    10_000_000,
                )
                .unwrap(),
            ),
        ];
        for model in &models {
            // The stacked tape forward training uses, against the
            // per-matrix call deployment makes.
            let input = env.batch_input(&tms, None);
            let mut g = Graph::new();
            let fwd = model.forward(&mut g, &input);
            let batched = mu_to_allocations(g.value(fwd.mu), input.batch);
            assert_eq!(batched.len(), tms.len(), "{}", model.name());
            for (tm, b) in tms.iter().zip(&batched) {
                let seq = model.allocate_deterministic(&env.model_input(tm, None));
                assert_eq!(
                    b,
                    &seq,
                    "{}: stacked diverged from sequential",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn naive_dnn_ignores_capacity_changes() {
        // The naive DNN sees only the traffic matrix — a failed link cannot
        // change its output (one reason it underperforms in Figure 14).
        let env = tiny_env();
        let model = NaiveDnnModel::new(Arc::clone(&env), 16, 3, 4);
        let tm = traffic(&env, 1, 12).remove(0);
        let base = model.allocate_deterministic(&env.model_input(&tm, None));
        let failed = env.topo().with_failed_link(0, 1);
        let after = model.allocate_deterministic(&env.model_input(&tm, Some(&failed)));
        assert_eq!(base, after);
    }
}
