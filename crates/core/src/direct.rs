//! Direct loss minimization — the "Teal w/ direct loss" ablation (§3.3,
//! §5.7).
//!
//! The total feasible flow is non-differentiable (reconciliation zeroes the
//! gradient), so this trainer optimizes the surrogate from Appendix A
//! instead: the total *intended* flow minus total link overuse,
//!
//! `Σ_d Σ_p F_d(p)·d − Σ_e max(0, Σ_{p∋e} Σ_d F_d(p)·d − c(e))`,
//!
//! which is piecewise-differentiable and can be pushed through the autograd
//! tape directly (splits = softmax(μ), loads via SpMM with the transposed
//! incidence).

use crate::env::Env;
use crate::model::PolicyModel;
use teal_nn::{Adam, Aggregate, Graph, Tensor};
use teal_traffic::TrafficMatrix;

/// Global gradient-norm clip of both trainers: every direct-loss step, and
/// [`crate::ComaConfig`]'s default.
pub(crate) const GRAD_CLIP: f32 = 5.0;

/// Direct-loss trainer hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct DirectConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate. It stays settable for learning-rate probes.
    pub lr: f32,
}

/// Train by gradient descent on the surrogate loss; the model is left
/// holding the best-validation weights. Returns per-epoch validation
/// satisfied-demand percentages.
pub fn train_direct(
    model: &mut dyn PolicyModel,
    train: &[TrafficMatrix],
    val: &[TrafficMatrix],
    cfg: &DirectConfig,
) -> Vec<f64> {
    assert!(!train.is_empty(), "empty training set");
    let env = std::sync::Arc::clone(model.env());
    let mut opt = Adam::new(cfg.lr);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_snap = model.store().snapshot();
    let mut history = Vec::new();

    for _ in 0..cfg.epochs {
        for tm in train {
            step(model, &env, tm, &mut opt);
        }
        let val_pct = crate::coma::validate(model, &env, val);
        history.push(val_pct);
        if val_pct > best_val {
            best_val = val_pct;
            best_snap = model.store().snapshot();
        }
    }
    model.store_mut().restore(&best_snap);
    history
}

fn step(model: &mut dyn PolicyModel, env: &Env, tm: &TrafficMatrix, opt: &mut Adam) {
    let input = env.model_input(tm, None);
    let mut g = Graph::new();
    let fwd = model.forward(&mut g, &input);

    let nd = env.num_demands();
    let k = env.k();
    let inv = 1.0 / env.mean_cap();

    // splits = softmax(μ) rows; intended per-path flow = split * volume.
    let splits = g.softmax_rows(fwd.mu); // [D, k]
    let flat = g.reshape(splits, nd * k, 1); // [P, 1]
    let vols: Vec<f32> = (0..nd)
        .flat_map(|d| std::iter::repeat_n((tm.demand(d) * inv) as f32, k))
        .collect();
    let vol_const = g.input(Tensor::from_vec(nd * k, 1, vols));
    let flows = g.mul(flat, vol_const); // [P, 1]

    // Per-edge loads via the transposed incidence (E x P): a load is a
    // sum of flows, whatever FlowGNN aggregates.
    let at = env.incidence().transposed();
    let loads = g.spmm(&at, flows, Aggregate::Sum); // [E, 1]
    let caps: Vec<f32> = env
        .topo()
        .edges()
        .iter()
        .map(|e| (e.capacity * inv) as f32)
        .collect();
    let cap_const = g.input(Tensor::from_vec(caps.len(), 1, caps));
    let over = g.sub(loads, cap_const);
    let overuse = g.relu(over);

    let intended = g.sum_all(flows);
    let penalty = g.sum_all(overuse);
    let surrogate = g.sub(intended, penalty);
    // Normalize by total demand so the lr is topology-independent.
    let norm = (tm.total() * inv).max(1e-9) as f32;
    let loss = g.scale(surrogate, -1.0 / norm);
    g.backward(loss);

    model.store_mut().zero_grads();
    model.store_mut().absorb(&g);
    model.store_mut().clip_grad_norm(GRAD_CLIP);
    opt.step(model.store_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coma::validate;
    use crate::model::{TealConfig, TealModel};
    use std::sync::Arc;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::{TrafficConfig, TrafficModel};

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
        model.calibrate(env.topo(), env.paths());
        model.series(0, n)
    }

    #[test]
    fn direct_training_does_not_regress() {
        let env = tiny_env();
        let mut model = TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                ..TealConfig::default()
            },
        );
        let train = traffic(&env, 6, 21);
        let val = traffic(&env, 3, 77);
        let before = validate(&model, &env, &val);
        let hist = train_direct(
            &mut model,
            &train,
            &val,
            &DirectConfig {
                epochs: 8,
                lr: 5e-3,
            },
        );
        let after = validate(&model, &env, &val);
        assert_eq!(hist.len(), 8);
        assert!(
            after >= before - 1e-6,
            "before {before:.2}% after {after:.2}%"
        );
    }
}
