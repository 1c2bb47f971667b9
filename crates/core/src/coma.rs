//! COMA* — the multi-agent RL trainer of §3.3 / Appendix B.
//!
//! Every demand is an agent; all agents share the policy network and observe
//! only their own flow embeddings. Training is centralized: after all agents
//! act we simulate the joint allocation, obtain the global reward (total
//! feasible flow — used directly, no differentiability needed), and compute
//! each agent's *counterfactual advantage*
//!
//! `A_i(s, a) = R(s, a) − Σ_{a'_i} π(a'_i|s_i) R(s, (a_-i, a'_i))`
//!
//! with Monte Carlo samples for the counterfactual baseline (Eq. 2). The
//! one-step property of TE (allocations do not affect future traffic) lets
//! the expected return collapse to the single-step reward — the "*" in
//! COMA*. The policy gradient (Eq. 3) is applied end-to-end through the
//! policy network *and* FlowGNN.

use crate::direct::GRAD_CLIP;
use crate::env::Env;
use crate::model::{mu_to_allocation, Forward, PolicyModel};
use rand::Rng;
use teal_lp::{evaluate, objective_value, Allocation, FlowSim, Objective, TeInstance};
use teal_nn::graph::softmax_row_inplace;
use teal_nn::{rng, Adam, Graph, Tensor};
use teal_traffic::TrafficMatrix;

/// Monte Carlo samples per agent for the counterfactual baseline.
const COUNTERFACTUAL_SAMPLES: usize = 3;

/// Traffic matrices per optimizer step. Each matrix records its own tape
/// (forward and backward); their gradients are summed in matrix order
/// before the one clip and Adam step.
const BATCH_SIZE: usize = 4;

/// Trainer hyperparameters. Advantages are always standardized across each
/// matrix's selected agents.
#[derive(Clone, Copy, Debug)]
pub struct ComaConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate (1e-4 in §4; larger values converge faster on the
    /// scaled-down CPU instances). It stays settable for learning-rate
    /// probes.
    pub lr: f32,
    /// Fraction of agents receiving a counterfactual evaluation per step
    /// (subsampling keeps large topologies affordable; unselected agents get
    /// zero advantage for that step).
    pub agent_fraction: f64,
    /// Global gradient-norm clip (0 disables). Every caller keeps the
    /// default; it stays settable because the pinned
    /// `tests/data/coma_step_b4.txt` records gradients taken unclipped.
    pub grad_clip: f32,
    /// RNG seed for sampling. Every caller keeps 0; it stays settable so a
    /// training recipe can pin its own seed.
    pub seed: u64,
    /// The TE objective whose value is the reward — §5.5's flexibility.
    pub objective: Objective,
}

impl Default for ComaConfig {
    fn default() -> Self {
        ComaConfig {
            epochs: 12,
            lr: 2e-3,
            agent_fraction: 1.0,
            grad_clip: GRAD_CLIP,
            seed: 0,
            objective: Objective::TotalFlow,
        }
    }
}

/// Training history entry.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean sampled-action reward on the training set, as a fraction of
    /// total demand.
    pub train_reward_frac: f64,
    /// Mean deterministic satisfied-demand percentage on the validation set.
    pub val_satisfied_pct: f64,
}

/// Result of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Best validation satisfied-demand percentage (the restored weights).
    pub best_val_satisfied_pct: f64,
}

/// Train `model` with COMA* on `train`, validating on `val`; the model is
/// left holding the best-validation weights.
pub fn train_coma(
    model: &mut dyn PolicyModel,
    train: &[TrafficMatrix],
    val: &[TrafficMatrix],
    cfg: &ComaConfig,
) -> TrainReport {
    assert!(!train.is_empty(), "empty training set");
    let env = std::sync::Arc::clone(model.env());
    let mut opt = Adam::new(cfg.lr);
    let mut sampler = rng::seeded(cfg.seed ^ 0xc0a_a517);
    let mut history = Vec::new();
    // Model selection uses the configured objective: satisfied % for total
    // flow, the mean objective value otherwise.
    let score = |model: &dyn PolicyModel| match cfg.objective {
        Objective::TotalFlow => validate(model, &env, val),
        objective => validate_reward(model, &env, val, objective),
    };
    // The initial weights are a model-selection candidate too: if no epoch
    // beats them on validation, training must not regress the deployed model.
    let mut best_val = score(model);
    let mut best_snap = model.store().snapshot();

    for epoch in 0..cfg.epochs {
        let mut reward_acc = 0.0f64;
        for chunk in train.chunks(BATCH_SIZE) {
            let frac = train_step(model, &env, chunk, cfg, &mut opt, &mut sampler);
            reward_acc += frac * chunk.len() as f64;
        }
        let train_reward_frac = reward_acc / train.len() as f64;
        let val_satisfied_pct = score(model);
        history.push(EpochStats {
            epoch,
            train_reward_frac,
            val_satisfied_pct,
        });
        // Ties go to the most recent (trained) weights.
        if val_satisfied_pct >= best_val {
            best_val = val_satisfied_pct;
            best_snap = model.store().snapshot();
        }
    }
    model.store_mut().restore(&best_snap);
    TrainReport {
        history,
        best_val_satisfied_pct: best_val,
    }
}

/// Mean deterministic satisfied-demand percentage over a set of matrices.
pub fn validate(model: &dyn PolicyModel, env: &Env, tms: &[TrafficMatrix]) -> f64 {
    mean_score(model, env, tms, |inst, alloc| {
        evaluate(inst, alloc).satisfied_pct()
    })
}

/// Mean value of the deterministic policy under an arbitrary objective.
pub fn validate_reward(
    model: &dyn PolicyModel,
    env: &Env,
    tms: &[TrafficMatrix],
    objective: Objective,
) -> f64 {
    mean_score(model, env, tms, |inst, alloc| {
        clamp_reward(objective_value(inst, alloc, objective))
    })
}

/// Mean of `score` over the deterministic policy's allocations (0 for an
/// empty set).
fn mean_score(
    model: &dyn PolicyModel,
    env: &Env,
    tms: &[TrafficMatrix],
    score: impl Fn(&TeInstance, &Allocation) -> f64,
) -> f64 {
    if tms.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for tm in tms {
        let alloc = model.allocate_deterministic(&env.model_input(tm, None));
        acc += score(&env.instance(tm), &alloc);
    }
    acc / tms.len() as f64
}

/// One policy-gradient step on a minibatch of traffic matrices: one tape
/// per matrix, per-matrix reward simulation and counterfactual advantages,
/// then each tape's backward pass absorbed into the store in matrix order
/// and one optimizer step for the whole minibatch. Returns the mean sampled
/// reward as a fraction of total demand.
fn train_step(
    model: &mut dyn PolicyModel,
    env: &Env,
    tms: &[TrafficMatrix],
    cfg: &ComaConfig,
    opt: &mut Adam,
    sampler: &mut rand::rngs::StdRng,
) -> f64 {
    let batch = tms.len();
    let nd = env.num_demands();
    let k = env.k();
    let tapes: Vec<(Graph, Forward)> = tms
        .iter()
        .map(|tm| {
            let mut g = Graph::new();
            let fwd = model.forward(&mut g, &env.model_input(tm, None));
            (g, fwd)
        })
        .collect();
    let logstd = tapes[0].0.value(tapes[0].1.logstd);
    let sigma: Vec<f32> = logstd.data().iter().map(|v| v.exp()).collect();

    // Sample the joint action in logit space for every matrix, matrix-major
    // and before any counterfactual draw: the sampler's stream does not
    // depend on the unit of work.
    let actions: Vec<Tensor> = tapes
        .iter()
        .map(|(g, fwd)| {
            let mu = g.value(fwd.mu); // [D, k]
            let mut a = Tensor::zeros(nd, k);
            for r in 0..nd {
                for (j, &sig) in sigma.iter().enumerate().take(k) {
                    let eps = rng::normal(sampler) as f32;
                    a.set(r, j, mu.get(r, j) + sig * eps);
                }
            }
            a
        })
        .collect();

    // Per-matrix rewards and counterfactual advantages (Eq. 2). Advantage
    // normalization stays within each matrix's selected agents.
    let mut advantages = vec![0.0f64; batch * nd];
    let mut selected_total = 0usize;
    let mut reward_frac_acc = 0.0f64;
    let mut splits_buf = vec![0.0f64; k];
    for (b, tm) in tms.iter().enumerate() {
        let row0 = b * nd;
        let mu = tapes[b].0.value(tapes[b].1.mu);
        let alloc = mu_to_allocation(&actions[b]);

        let mut sim = FlowSim::new(env.instance(tm), cfg.objective);
        let reward = clamp_reward(sim.full_reward(&alloc));
        // Advantage normalizer: total demand for flow-valued rewards; MLU is
        // already O(1)-scaled.
        let total = match cfg.objective {
            Objective::MinMaxLinkUtil => 1.0,
            _ => tm.total().max(1e-12),
        };

        let mut selected = Vec::with_capacity(nd);
        for d in 0..nd {
            if cfg.agent_fraction >= 1.0 || sampler.gen::<f64>() < cfg.agent_fraction {
                selected.push(d);
            }
        }
        for &d in &selected {
            let mut baseline = 0.0f64;
            for _ in 0..COUNTERFACTUAL_SAMPLES {
                let mut logits = vec![0.0f32; k];
                for (j, l) in logits.iter_mut().enumerate() {
                    let eps = rng::normal(sampler) as f32;
                    *l = mu.get(d, j) + sigma[j] * eps;
                }
                softmax_row_inplace(&mut logits);
                for (buf, &l) in splits_buf.iter_mut().zip(&logits) {
                    *buf = l as f64;
                }
                baseline += clamp_reward(sim.counterfactual_reward(d, &splits_buf));
            }
            baseline /= COUNTERFACTUAL_SAMPLES as f64;
            advantages[row0 + d] = (reward - baseline) / total;
        }
        if selected.len() > 1 {
            let n = selected.len() as f64;
            let mean: f64 = selected.iter().map(|&d| advantages[row0 + d]).sum::<f64>() / n;
            let var: f64 = selected
                .iter()
                .map(|&d| (advantages[row0 + d] - mean).powi(2))
                .sum::<f64>()
                / n;
            let std = var.sqrt().max(1e-8);
            for &d in &selected {
                advantages[row0 + d] = (advantages[row0 + d] - mean) / std;
            }
        }
        selected_total += selected.len();
        reward_frac_acc += reward / total;
    }

    // Policy-gradient loss, one tape per matrix:
    //   log π(a|s) = Σ_j [ -0.5 ((a_j - μ_j)/σ_j)^2 - logσ_j ] + const
    //   loss_b = -(1/|S|) Σ_{i in b} A_i log π(a_i|s_i)
    // with |S| the agents selected across the whole minibatch, so the
    // tapes' losses sum to the minibatch loss. Their gradients accumulate
    // in the store in ascending matrix order.
    model.store_mut().zero_grads();
    let scale = -1.0 / selected_total.max(1) as f32;
    for (b, ((mut g, fwd), a)) in tapes.into_iter().zip(actions).enumerate() {
        let a_const = g.input(a);
        let diff = g.sub(a_const, fwd.mu);
        let neg_logstd = g.scale(fwd.logstd, -1.0);
        let inv_sigma = g.exp(neg_logstd);
        let scaled = g.mul_row(diff, inv_sigma);
        let sq = g.mul(scaled, scaled);
        let half = g.scale(sq, -0.5);
        let with_logstd = g.add_row(half, neg_logstd);
        let logprob = g.sum_rows(with_logstd); // [D, 1]
        let adv = advantages[b * nd..(b + 1) * nd].iter().map(|&a| a as f32);
        let adv = g.input(Tensor::from_vec(nd, 1, adv.collect()));
        let weighted = g.mul(logprob, adv);
        let total_w = g.sum_all(weighted);
        let loss = g.scale(total_w, scale);
        g.backward(loss);
        model.absorb(&g, &fwd);
    }
    if cfg.grad_clip > 0.0 {
        model.store_mut().clip_grad_norm(cfg.grad_clip);
    }
    opt.step(model.store_mut());

    reward_frac_acc / batch as f64
}

/// Guard against infinities (e.g. MLU with zero-capacity links loaded).
fn clamp_reward(r: f64) -> f64 {
    r.clamp(-1e9, 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{TealConfig, TealModel};
    use std::sync::Arc;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::{TrafficConfig, TrafficModel};

    /// A small contended topology where naive allocation loses traffic.
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
        let mut model = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), seed);
        let paths = env.paths().clone();
        model.calibrate(env.topo(), &paths);
        model.series(0, n)
    }

    #[test]
    fn training_improves_validation_reward() {
        let env = tiny_env();
        let mut model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let train = traffic(&env, 6, 11);
        let val = traffic(&env, 3, 99);
        let before = validate(&model, &env, &val);
        let cfg = ComaConfig {
            epochs: 10,
            lr: 5e-3,
            ..ComaConfig::default()
        };
        let report = train_coma(&mut model, &train, &val, &cfg);
        let after = validate(&model, &env, &val);
        assert!(
            after >= before - 1e-6,
            "validation must not regress: before {before:.2}%, after {after:.2}%"
        );
        assert_eq!(report.history.len(), 10);
        assert!((report.best_val_satisfied_pct - after).abs() < 1e-6);
    }

    #[test]
    fn per_matrix_step_matches_the_stacked_step() {
        // One step on four B4 matrices, with the Adam step a no-op (lr 0)
        // and no clipping, against the reward fraction and the gradients
        // the stacked single-tape step produced for the same seeds
        // (`tests/data/coma_step_b4.txt`: a `reward_frac` line, then one
        // line per parameter in registration order). The sampled actions
        // and advantages are the same bits, so the reward is exact; the
        // gradients sum the same terms in another order.
        let golden = include_str!("../tests/data/coma_step_b4.txt");
        let mut lines = golden.lines().map(|l| l.split_whitespace());
        let env = Arc::new(Env::for_topology(teal_topology::b4()));
        let mut model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let cfg = ComaConfig {
            grad_clip: 0.0,
            lr: 0.0,
            ..ComaConfig::default()
        };
        let tms = traffic(&env, 4, 31);
        let (mut opt, mut sampler) = (Adam::new(cfg.lr), rng::seeded(17));
        let frac = train_step(&mut model, &env, &tms, &cfg, &mut opt, &mut sampler);
        let mut head = lines.next().unwrap();
        assert_eq!(head.next(), Some("reward_frac"));
        assert_eq!(frac, head.next().unwrap().parse::<f64>().unwrap());

        let store = model.store();
        for i in 0..store.len() {
            let id = store.id_at(i);
            let mut want = lines.next().unwrap();
            assert_eq!(want.next(), Some(store.name(id)));
            let got = store.grad(id).data();
            let want: Vec<f32> = want.map(|v| v.parse().unwrap()).collect();
            assert_eq!(got.len(), want.len(), "{}", store.name(id));
            for (j, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                    "{}[{j}]: per-matrix {g} vs stacked {w}",
                    store.name(id)
                );
            }
        }
        assert!(lines.next().is_none(), "golden has more parameters");
    }

    #[test]
    fn advantages_move_the_policy() {
        let env = tiny_env();
        let mut model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 2,
                ..TealConfig::default()
            },
        );
        let train = traffic(&env, 2, 5);
        let snap = model.store().snapshot();
        let cfg = ComaConfig {
            epochs: 1,
            ..ComaConfig::default()
        };
        // Empty validation set: every epoch scores 0.0, ties keep the
        // trained weights, so restoration cannot mask the parameter update.
        let _ = train_coma(&mut model, &train, &[], &cfg);
        // At least one parameter must have changed.
        let moved = snap
            .iter()
            .zip(model.store().snapshot().iter())
            .any(|(a, b)| !a.approx_eq(b, 0.0));
        assert!(moved, "training step left every parameter untouched");
    }

    #[test]
    fn agent_subsampling_runs() {
        let env = tiny_env();
        let mut model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 2,
                ..TealConfig::default()
            },
        );
        let train = traffic(&env, 2, 6);
        let cfg = ComaConfig {
            epochs: 1,
            agent_fraction: 0.3,
            ..ComaConfig::default()
        };
        let report = train_coma(&mut model, &train, &train, &cfg);
        assert_eq!(report.history.len(), 1);
    }

    #[test]
    fn validate_handles_empty_set() {
        let env = tiny_env();
        let model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 2,
                ..TealConfig::default()
            },
        );
        assert_eq!(validate(&model, &env, &[]), 0.0);
    }
}
