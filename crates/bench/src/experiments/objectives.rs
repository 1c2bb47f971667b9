//! Figures 11 and 12 — alternative TE objectives (§5.5).
//!
//! Teal is retrained per objective by swapping the RL reward; ADMM is
//! omitted for these objectives as in the paper ("we opt to omit ADMM in
//! these experiments as the neural network model already exhibits
//! satisfactory performance"). NCFlow and POP are excluded, matching the
//! paper ("adapting the codebases of NCFlow and POP to other objectives is
//! challenging").

use super::Harness;
use crate::table::{emit, emit_csv, Table};
use crate::testbed::Testbed;
use std::sync::Arc;
use teal_core::{
    train_coma, ComaConfig, EngineConfig, RewardKind, ServingContext, TealConfig, TealModel,
};
use teal_lp::{evaluate_with_gamma, Objective, TeInstance};
use teal_sim::{metrics, LpAllScheme, LpTopScheme, Scheme, TealScheme};
use teal_topology::TopoKind;

/// Matrices per batched allocation chunk (Teal's batched serving path).
const OBJECTIVE_BATCH: usize = 8;

/// Train a Teal model on a testbed for a non-default reward.
fn train_for(
    budget: crate::testbed::TrainBudget,
    bed: &Testbed,
    reward: RewardKind,
    objective: Objective,
) -> ServingContext<TealModel> {
    let mut model = TealModel::new(Arc::clone(&bed.env), TealConfig::default());
    let nd = bed.env.num_demands().max(1);
    let cfg = ComaConfig {
        epochs: budget.epochs,
        lr: budget.lr,
        agent_fraction: (budget.max_agents_per_step as f64 / nd as f64).min(1.0),
        reward,
        ..ComaConfig::default()
    };
    let _ = train_coma(&mut model, &bed.train, &bed.val, &cfg);
    ServingContext::new(model, EngineConfig::without_admm(objective))
}

/// Figure 11: minimize max link utilization on Kdl & ASN.
pub fn fig11(h: &mut Harness) {
    let mut t = Table::new(
        "Figure 11: max link utilization (MLU) vs computation time",
        &["topology", "scheme", "avg comp time", "avg MLU"],
    );
    let mut rows_csv = Vec::new();
    for kind in [TopoKind::Kdl, TopoKind::Asn] {
        // Ensure the testbed exists, then train the MLU model.
        let budget = h.budget();
        let (env, tms, bed_name, engine) = {
            let bed = h.bed(kind);
            let engine = train_for(
                budget,
                bed,
                RewardKind::NegMaxUtil,
                Objective::MinMaxLinkUtil,
            );
            (Arc::clone(&bed.env), bed.test.clone(), bed.name(), engine)
        };
        let mut schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(LpAllScheme::new(
                Arc::clone(&env),
                Objective::MinMaxLinkUtil,
            )),
            Box::new(LpTopScheme::new(
                Arc::clone(&env),
                Objective::MinMaxLinkUtil,
            )),
            Box::new(TealScheme::new(engine)),
        ];
        for s in &mut schemes {
            let mut mlus = Vec::new();
            let mut total_time = 0.0f64;
            for chunk in tms.chunks(OBJECTIVE_BATCH) {
                let (allocs, dt) = s.allocate_batch(env.topo(), chunk);
                total_time += dt.as_secs_f64();
                for (tm, alloc) in chunk.iter().zip(&allocs) {
                    let inst = TeInstance::new(env.topo(), env.paths(), tm);
                    mlus.push(evaluate_with_gamma(&inst, alloc, 0.5).max_link_util);
                }
            }
            let mean_time = total_time / tms.len().max(1) as f64;
            t.row(vec![
                bed_name.clone(),
                s.name().to_string(),
                metrics::fmt_secs(mean_time),
                format!("{:.3}", metrics::mean(&mlus)),
            ]);
            rows_csv.push(format!(
                "{},{},{:.6},{:.4}",
                bed_name,
                s.name(),
                mean_time,
                metrics::mean(&mlus)
            ));
        }
    }
    emit("fig11", &t.render());
    emit_csv("fig11", "topology,scheme,comp_time_s,mlu", &rows_csv);
}

/// Figure 12: maximize latency-penalized total flow on Kdl & ASN (LP-all is
/// skipped on ASN as in the paper).
pub fn fig12(h: &mut Harness) {
    let gamma = 0.5;
    let mut t = Table::new(
        "Figure 12: normalized max flow with delay penalties vs computation time",
        &[
            "topology",
            "scheme",
            "avg comp time",
            "normalized penalized flow",
        ],
    );
    let mut rows_csv = Vec::new();
    for kind in [TopoKind::Kdl, TopoKind::Asn] {
        let budget = h.budget();
        let (env, tms, bed_name, engine) = {
            let bed = h.bed(kind);
            let engine = train_for(
                budget,
                bed,
                RewardKind::DelayPenalized(gamma),
                Objective::DelayPenalizedFlow(gamma),
            );
            (Arc::clone(&bed.env), bed.test.clone(), bed.name(), engine)
        };
        let mut schemes: Vec<Box<dyn Scheme>> = Vec::new();
        if kind != TopoKind::Asn {
            schemes.push(Box::new(LpAllScheme::new(
                Arc::clone(&env),
                Objective::DelayPenalizedFlow(gamma),
            )));
        }
        schemes.push(Box::new(LpTopScheme::new(
            Arc::clone(&env),
            Objective::DelayPenalizedFlow(gamma),
        )));
        schemes.push(Box::new(TealScheme::new(engine)));
        for s in &mut schemes {
            let mut vals = Vec::new();
            let mut total_time = 0.0f64;
            for chunk in tms.chunks(OBJECTIVE_BATCH) {
                let (allocs, dt) = s.allocate_batch(env.topo(), chunk);
                total_time += dt.as_secs_f64();
                for (tm, alloc) in chunk.iter().zip(&allocs) {
                    let inst = TeInstance::new(env.topo(), env.paths(), tm);
                    vals.push(
                        evaluate_with_gamma(&inst, alloc, gamma).delay_penalized_flow
                            / tm.total().max(1e-12),
                    );
                }
            }
            let mean_time = total_time / tms.len().max(1) as f64;
            t.row(vec![
                bed_name.clone(),
                s.name().to_string(),
                metrics::fmt_secs(mean_time),
                format!("{:.3}", metrics::mean(&vals)),
            ]);
            rows_csv.push(format!(
                "{},{},{:.6},{:.4}",
                bed_name,
                s.name(),
                mean_time,
                metrics::mean(&vals)
            ));
        }
    }
    emit("fig12", &t.render());
    emit_csv(
        "fig12",
        "topology,scheme,comp_time_s,penalized_flow",
        &rows_csv,
    );
}
