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
use crate::model::{assert_single_matrix, FlowGnn, Forward, PolicyModel, INIT_LOGSTD, LEAKY_SLOPE};
use std::sync::Arc;
use teal_nn::{Aggregate, CsrPair, Graph, Linear, ParamId, ParamStore, Tensor};

/// "Teal w/ naive DNN": traffic matrix in, all split logits out.
pub struct NaiveDnnModel {
    env: Arc<Env>,
    store: ParamStore,
    layers: Vec<Linear>,
    logstd: ParamId,
    /// Indices of each demand's first path slot (to extract the demand
    /// vector from `path_init`).
    demand_rows: Arc<Vec<usize>>,
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
        let logstd = store.register("logstd", Tensor::full(1, k, INIT_LOGSTD));
        let demand_rows = Arc::new((0..nd).map(|d| d * k).collect());
        NaiveDnnModel {
            env,
            store,
            layers,
            logstd,
            demand_rows,
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
        assert_single_matrix(input);
        let nd = self.env.num_demands();
        let k = self.env.k();
        // Demand vector from the per-path initialization (slot 0 per demand).
        let paths = g.input(input.path_init.clone());
        let demands = g.gather_rows(paths, Arc::clone(&self.demand_rows)); // [D,1]
        let mut h = g.reshape(demands, 1, nd);
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let lin = layer.forward(&self.store, g, h);
            h = if i + 1 < n {
                g.leaky_relu(lin, LEAKY_SLOPE)
            } else {
                lin
            };
        }
        let mu = g.reshape(h, nd, k);
        let logstd = self.store.bind(g, self.logstd);
        Forward { mu, logstd }
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
    /// Node-adjacency pattern, `N x N`, applied under `Aggregate::Mean`
    /// (the row-normalised adjacency).
    adjacency: CsrPair,
    /// Per-layer node transform `[2h -> h]` (or `[feat -> h]` for layer 0).
    gnn_layers: Vec<Linear>,
    /// Demand head: `[2h -> k]` logits from (src, dst) embeddings.
    head: Vec<Linear>,
    logstd: ParamId,
    src_idx: Arc<Vec<usize>>,
    dst_idx: Arc<Vec<usize>>,
}

impl NaiveGnnModel {
    /// Build with `layers` rounds of node message passing at width `hidden`.
    pub fn new(env: Arc<Env>, hidden: usize, layers: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = teal_nn::rng::seeded(seed ^ 0xab1a_0002);
        let n = env.topo().num_nodes();
        let k = env.k();
        // The adjacency pattern; `forward` averages over it.
        let mut entries = Vec::new();
        for node in 0..n {
            entries.extend(env.topo().neighbors(node).iter().map(|&(m, _)| (node, m)));
        }
        let adjacency = CsrPair::from_pattern(n, n, &entries);
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
        let logstd = store.register("logstd", Tensor::full(1, k, INIT_LOGSTD));
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
        }
    }

    fn node_features(&self, input: &ModelInput) -> Tensor {
        let n = self.env.topo().num_nodes();
        let k = self.env.k();
        let mut feats = Tensor::zeros(n, 2);
        for (d, &(s, t)) in self.env.paths().pairs().iter().enumerate() {
            let v = input.path_init.get(d * k, 0);
            feats.set(s, 0, feats.get(s, 0) + v);
            feats.set(t, 1, feats.get(t, 1) + v);
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
        assert_single_matrix(input);
        let mut h = g.input(self.node_features(input));
        for layer in &self.gnn_layers {
            let msg = g.spmm(&self.adjacency, h, Aggregate::Mean);
            let cat = g.concat_cols(h, msg);
            let lin = layer.forward(&self.store, g, cat);
            h = g.leaky_relu(lin, LEAKY_SLOPE);
        }
        let src = g.gather_rows(h, Arc::clone(&self.src_idx));
        let dst = g.gather_rows(h, Arc::clone(&self.dst_idx));
        let pair = g.concat_cols(src, dst); // [D, 2h]
        let h0 = self.head[0].forward(&self.store, g, pair);
        let a0 = g.leaky_relu(h0, LEAKY_SLOPE);
        let mu = self.head[1].forward(&self.store, g, a0);
        let logstd = self.store.bind(g, self.logstd);
        Forward { mu, logstd }
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
    env: Arc<Env>,
    /// The untrained FlowGNN that embeds each matrix, and its parameters.
    gnn: FlowGnn,
    gnn_store: ParamStore,
    /// The giant head's and the log-std's parameters: the trained ones.
    store: ParamStore,
    giant: Vec<Linear>,
    logstd: ParamId,
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
        let in_dim = env.paths().num_paths() * cfg.embed_dim();
        let out_dim = nd * k;
        let params = in_dim * hidden + hidden * out_dim;
        if params > max_params {
            return Err(format!(
                "global policy needs {params} parameters (> {max_params}): infeasible, \
                 as the paper reports for large topologies"
            ));
        }
        // Teal's own FlowGNN, left untrained.
        let (gnn, gnn_store, _) = FlowGnn::seeded(k, &cfg);
        let mut store = ParamStore::new();
        let mut rng = teal_nn::rng::seeded(cfg.seed ^ 0xab1a_0003);
        let giant = vec![
            Linear::new(&mut store, "global.h", in_dim, hidden, &mut rng),
            Linear::new(&mut store, "global.out", hidden, out_dim, &mut rng),
        ];
        let logstd = store.register("logstd", Tensor::full(1, k, INIT_LOGSTD));
        Ok(GlobalPolicyModel {
            env,
            gnn,
            gnn_store,
            store,
            giant,
            logstd,
        })
    }

    /// Parameter count of the giant head alone.
    pub fn giant_params(&self) -> usize {
        self.store.num_scalars()
    }
}

impl PolicyModel for GlobalPolicyModel {
    fn name(&self) -> &str {
        "Teal w/ global policy"
    }

    fn env(&self) -> &Arc<Env> {
        &self.env
    }

    fn forward(&self, g: &mut Graph, input: &ModelInput) -> Forward {
        // The FlowGNN stays at its initialization (its store is not this
        // model's), so its embeddings enter the tape as a constant and
        // only the giant head and the log-std are bound.
        assert_single_matrix(input);
        let embed = self.gnn.infer(&self.gnn_store, &self.env, input);
        let flat = g.input(embed.reshaped(1, embed.len()));
        let h = self.giant[0].forward(&self.store, g, flat);
        let a = g.leaky_relu(h, LEAKY_SLOPE);
        let out = self.giant[1].forward(&self.store, g, a);
        let mu = g.reshape(out, self.env.num_demands(), self.env.k());
        let logstd = self.store.bind(g, self.logstd);
        Forward { mu, logstd }
    }

    /// The giant head's store: the trainers optimise the head and the
    /// log-std, and the FlowGNN stays at initialization, a faithful
    /// handicap of this ablation's joint-output architecture at our scale.
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coma::{train_coma, validate, ComaConfig};
    use crate::model::TealConfig;
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
    fn global_policy_head_takes_the_grown_embedding_width() {
        // With `embed_growth` 2, FlowGNN's embeddings are 1 + 2·2 = 5 wide,
        // not `gnn_layers` = 3: the giant head must be sized for them.
        let env = tiny_env();
        let cfg = TealConfig {
            gnn_layers: 3,
            embed_growth: 2,
            ..TealConfig::default()
        };
        let model = GlobalPolicyModel::new(Arc::clone(&env), cfg, 8, 10_000_000).unwrap();
        let in_dim = env.paths().num_paths() * cfg.embed_dim();
        let out_dim = env.num_demands() * env.k();
        assert!(model.giant_params() >= in_dim * 8 + 8 * out_dim);
        let tm = traffic(&env, 1, 13).remove(0);
        let alloc = model.allocate_deterministic(&env.model_input(&tm, None));
        assert!(alloc.demand_feasible(1e-5));
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
