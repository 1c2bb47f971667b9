//! Figures 11 and 12 — alternative TE objectives (§5.5).
//!
//! Teal is retrained per objective by swapping the RL reward; ADMM is
//! omitted for these objectives as in the paper ("we opt to omit ADMM in
//! these experiments as the neural network model already exhibits
//! satisfactory performance"). NCFlow and POP are excluded, matching the
//! paper ("adapting the codebases of NCFlow and POP to other objectives is
//! challenging").

use super::{offline_means, Harness};
use crate::table::{emit, emit_csv, Table};
use std::sync::Arc;
use teal_core::{train_coma, ComaConfig, EngineConfig, ServingContext, TealConfig, TealModel};
use teal_lp::flow::DELAY_GAMMA;
use teal_lp::{FlowStats, Objective};
use teal_sim::{metrics, Baseline, Scheme, Solver, TealScheme};
use teal_topology::TopoKind;

/// Figure 11: minimize max link utilization on Kdl & ASN.
pub fn fig11(h: &mut Harness) {
    objective_figure(
        h,
        "fig11",
        "Figure 11: max link utilization (MLU) vs computation time",
        ("avg MLU", "mlu"),
        Objective::MinMaxLinkUtil,
        true,
        |st| st.max_link_util,
    );
}

/// Figure 12: maximize latency-penalized total flow on Kdl & ASN (LP-all is
/// skipped on ASN as in the paper), at the γ `evaluate` scores with.
pub fn fig12(h: &mut Harness) {
    objective_figure(
        h,
        "fig12",
        "Figure 12: normalized max flow with delay penalties vs computation time",
        ("normalized penalized flow", "penalized_flow"),
        Objective::DelayPenalizedFlow(DELAY_GAMMA),
        false,
        |st| st.delay_penalized_flow / st.total_demand,
    );
}

/// One §5.5 figure on Kdl & ASN. The schemes are LP-all (skipped on ASN
/// unless `lp_all_on_asn`), LP-top, and Teal retrained for `objective` and
/// served without ADMM. Each row is a scheme's mean computation time and
/// mean `metric` off the offline fold. `column` is the metric's (table,
/// CSV) header.
fn objective_figure(
    h: &mut Harness,
    id: &str,
    title: &str,
    column: (&str, &str),
    objective: Objective,
    lp_all_on_asn: bool,
    metric: fn(&FlowStats) -> f64,
) {
    let mut t = Table::new(title, &["topology", "scheme", "avg comp time", column.0]);
    let mut rows_csv = Vec::new();
    for kind in [TopoKind::Kdl, TopoKind::Asn] {
        let budget = h.budget();
        let bed = h.bed(kind);
        let env = Arc::clone(&bed.env);
        let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let cfg = ComaConfig {
            objective,
            ..budget.coma(&env)
        };
        let _ = train_coma(&mut model, &bed.train, &bed.val, &cfg);
        let engine = ServingContext::new(model, EngineConfig::without_admm(objective));
        let mut schemes: Vec<Box<dyn Scheme>> = Vec::new();
        if kind != TopoKind::Asn || lp_all_on_asn {
            schemes.push(Box::new(Baseline::new(
                Arc::clone(&env),
                Solver::LpAll(objective),
            )));
        }
        schemes.push(Box::new(Baseline::new(
            Arc::clone(&env),
            Solver::LpTop(objective),
        )));
        schemes.push(Box::new(TealScheme::new(engine)));
        for s in &mut schemes {
            let (mean_time, value) = offline_means(&env, &bed.test, s.as_mut(), metric);
            t.row(vec![
                bed.name(),
                s.name().to_string(),
                metrics::fmt_secs(mean_time),
                format!("{value:.3}"),
            ]);
            rows_csv.push(format!(
                "{},{},{mean_time:.6},{value:.4}",
                bed.name(),
                s.name()
            ));
        }
    }
    emit(id, &t.render());
    emit_csv(
        id,
        &format!("topology,scheme,comp_time_s,{}", column.1),
        &rows_csv,
    );
}
