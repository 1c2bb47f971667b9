//! Figures 14, 15, 16 — ablations, hyperparameter sensitivity, and the
//! flow-embedding visualization.

use super::{offline_means, Harness};
use crate::table::{emit, emit_csv, Table};
use crate::testbed::{train_teal_engine, Testbed};
use std::sync::Arc;
use teal_core::ablation::{GlobalPolicyModel, NaiveDnnModel, NaiveGnnModel};
use teal_core::{
    train_coma, train_direct, DirectConfig, EngineConfig, PolicyModel, ServingContext, TealConfig,
    TealModel,
};
use teal_lp::{solve_lp, FlowStats, Objective};
use teal_sim::TealScheme;
use teal_topology::TopoKind;

/// Mean offline satisfied % of one arm on the test set: the arm is served
/// by the deployed engine, as a `TealScheme`, and scored by the one
/// offline fold.
fn arm_pct<M: PolicyModel>(bed: &Testbed, engine: ServingContext<M>) -> f64 {
    let mut scheme = TealScheme::new(engine);
    offline_means(&bed.env, &bed.test, &mut scheme, FlowStats::satisfied_pct).1
}

/// Figure 14: ablation of Teal's key features on SWAN and ASN testbeds.
pub fn fig14(h: &mut Harness) {
    let mut t = Table::new(
        "Figure 14: ablation study — satisfied demand (%)",
        &["variant", "SWAN", "ASN"],
    );
    let mut results: Vec<(String, Vec<String>)> = vec![
        ("Teal".into(), vec![]),
        ("Teal w/o ADMM".into(), vec![]),
        ("Teal w/ direct loss".into(), vec![]),
        ("Teal w/ global policy".into(), vec![]),
        ("Teal w/ naive GNN".into(), vec![]),
        ("Teal w/ naive DNN".into(), vec![]),
    ];
    for kind in [TopoKind::Swan, TopoKind::Asn] {
        // Full Teal (cached in the harness).
        let teal = h.teal_engine(kind);
        let budget = h.budget();
        let bed = h.bed(kind);
        let env = Arc::clone(&bed.env);
        let cfg = budget.coma(&env);
        let admm = EngineConfig::paper_default(env.topo().num_nodes());
        let no_admm = EngineConfig::without_admm(Objective::TotalFlow);
        let pct = |v: f64| format!("{v:.1}");

        // Teal and Teal w/o ADMM share the trained model.
        let plain = ServingContext::new(teal.model().clone(), no_admm);
        results[0].1.push(pct(arm_pct(bed, teal)));
        results[1].1.push(pct(arm_pct(bed, plain)));

        // Direct loss.
        let mut direct = TealModel::new(Arc::clone(&env), TealConfig::default());
        let d_cfg = DirectConfig {
            epochs: budget.epochs,
            lr: budget.lr,
        };
        let _ = train_direct(&mut direct, &bed.train, &bed.val, &d_cfg);
        results[2]
            .1
            .push(pct(arm_pct(bed, ServingContext::new(direct, admm))));

        // Global policy: infeasible beyond a parameter budget, as in §5.7.
        let max_params = 40_000_000usize;
        match GlobalPolicyModel::new(Arc::clone(&env), TealConfig::default(), 64, max_params) {
            Ok(mut gp) => {
                let _ = train_coma(&mut gp, &bed.train, &bed.val, &cfg);
                results[3]
                    .1
                    .push(pct(arm_pct(bed, ServingContext::new(gp, no_admm))));
            }
            Err(_) => results[3].1.push("infeasible (memory)".into()),
        }

        // Naive GNN.
        let mut ng = NaiveGnnModel::new(Arc::clone(&env), 16, 4, 3);
        let _ = train_coma(&mut ng, &bed.train, &bed.val, &cfg);
        results[4]
            .1
            .push(pct(arm_pct(bed, ServingContext::new(ng, no_admm))));

        // Naive DNN.
        let mut ndn = NaiveDnnModel::new(Arc::clone(&env), 64, 6, 3);
        let _ = train_coma(&mut ndn, &bed.train, &bed.val, &cfg);
        results[5]
            .1
            .push(pct(arm_pct(bed, ServingContext::new(ndn, no_admm))));
    }
    let mut rows_csv = Vec::new();
    for (name, cells) in results {
        rows_csv.push(format!("{},{}", name, cells.join(",")));
        let mut row = vec![name];
        row.extend(cells);
        t.row(row);
    }
    emit("fig14", &t.render());
    emit_csv("fig14", "variant,swan,asn", &rows_csv);
}

/// Figure 15: hyperparameter sensitivity (layers, embedding dims, policy
/// depth) on the ASN testbed.
pub fn fig15(h: &mut Harness) {
    let kind = TopoKind::Asn;
    let budget = h.budget();
    let train_and_score = |h: &mut Harness, cfg: TealConfig| -> f64 {
        let bed = h.bed(kind);
        arm_pct(bed, train_teal_engine(bed, cfg, budget))
    };

    let mut t = Table::new(
        "Figure 15: sensitivity analysis on ASN — satisfied demand (%)",
        &["sweep", "setting", "satisfied (%)"],
    );
    let mut rows_csv = Vec::new();
    // (a) FlowGNN layers.
    let layer_choices: &[usize] = if h.fast() { &[4, 6] } else { &[4, 6, 8, 10] };
    for &layers in layer_choices {
        let v = train_and_score(
            h,
            TealConfig {
                gnn_layers: layers,
                ..TealConfig::default()
            },
        );
        t.row(vec![
            "gnn layers".into(),
            layers.to_string(),
            format!("{v:.1}"),
        ]);
        rows_csv.push(format!("layers,{layers},{v:.2}"));
    }
    // (b) Embedding dimension (via per-layer growth: 1 -> 6 dims, 2 -> 11,
    //     4 -> 21; the nearest realizable analogs of the paper's 6/12/24).
    let growth_choices: &[usize] = if h.fast() { &[1] } else { &[1, 2, 4] };
    for &growth in growth_choices {
        let cfg = TealConfig {
            embed_growth: growth,
            ..TealConfig::default()
        };
        let dim = cfg.embed_dim();
        let v = train_and_score(h, cfg);
        t.row(vec![
            "embedding dim".into(),
            dim.to_string(),
            format!("{v:.1}"),
        ]);
        rows_csv.push(format!("embed,{dim},{v:.2}"));
    }
    // (c) Policy dense layers.
    let dense_choices: &[usize] = if h.fast() { &[1] } else { &[1, 2, 4] };
    for &dense in dense_choices {
        let v = train_and_score(
            h,
            TealConfig {
                policy_hidden_layers: dense,
                ..TealConfig::default()
            },
        );
        t.row(vec![
            "dense layers".into(),
            dense.to_string(),
            format!("{v:.1}"),
        ]);
        rows_csv.push(format!("dense,{dense},{v:.2}"));
    }
    emit("fig15", &t.render());
    emit_csv("fig15", "sweep,setting,satisfied_pct", &rows_csv);
}

/// Figure 16: t-SNE of the trained FlowGNN's flow embeddings on the SWAN
/// testbed, labeled by LP-all's busy paths, with the cluster-separation
/// score quantifying the visual claim.
pub fn fig16(h: &mut Harness) {
    use teal_core::tsne::{busy_path_labels, separation_score, tsne};
    let kind = TopoKind::Swan;
    let engine: ServingContext<TealModel> = h.teal_engine(kind);
    let fast = h.fast();
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let tm = bed.test[0].clone();

    // FlowGNN's embeddings of the matrix.
    let embed = engine.model().embeddings(&env.model_input(&tm, None));

    // Reference optimal allocation.
    let inst = env.instance(&tm);
    let reference = solve_lp(&inst, Objective::TotalFlow);
    let labels = busy_path_labels(&reference);

    // Subsample paths for t-SNE tractability (balanced between classes).
    let max_points = if fast { 150 } else { 500 };
    let mut idx: Vec<usize> = (0..embed.rows()).collect();
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(16);
    idx.shuffle(&mut rng);
    idx.truncate(max_points);
    let mut data = Vec::with_capacity(idx.len() * embed.cols());
    let mut sub_labels = Vec::with_capacity(idx.len());
    for &i in &idx {
        data.extend_from_slice(embed.row(i));
        sub_labels.push(labels[i]);
    }
    let sub = teal_nn::Tensor::from_vec(idx.len(), embed.cols(), data);
    let pts = tsne(&sub);
    let sep = separation_score(&pts, &sub_labels);

    let busy = sub_labels.iter().filter(|&&b| b).count();
    let mut t = Table::new(
        "Figure 16: t-SNE of FlowGNN flow embeddings (SWAN)",
        &["metric", "value"],
    );
    t.row(vec!["paths projected".into(), pts.len().to_string()]);
    t.row(vec![
        "busy paths (largest LP-all split)".into(),
        busy.to_string(),
    ]);
    t.row(vec!["cluster separation score".into(), format!("{sep:.2}")]);
    t.row(vec![
        "interpretation".into(),
        "score >> 0 : busy paths form a distinct cluster (paper's Figure 16)".into(),
    ]);
    emit("fig16", &t.render());
    let rows: Vec<String> = pts
        .iter()
        .zip(&sub_labels)
        .map(|((x, y), &b)| format!("{x:.4},{y:.4},{}", if b { 1 } else { 0 }))
        .collect();
    emit_csv("fig16", "tsne_x,tsne_y,busy", &rows);
}
