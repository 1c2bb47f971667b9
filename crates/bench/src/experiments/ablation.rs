//! Figures 14, 15, 16 — ablations, hyperparameter sensitivity, and the
//! flow-embedding visualization.

use super::Harness;
use crate::table::{emit, emit_csv, Table};
use crate::testbed::Testbed;
use std::sync::Arc;
use teal_core::ablation::{GlobalPolicyModel, NaiveDnnModel, NaiveGnnModel};
use teal_core::{
    train_coma, train_direct, validate, ComaConfig, DirectConfig, EngineConfig, Env, PolicyModel,
    ServingContext, TealConfig, TealModel,
};
use teal_lp::{evaluate, solve_lp, LpConfig, Objective};
use teal_topology::TopoKind;

fn coma_cfg(budget: crate::testbed::TrainBudget, env: &Env) -> ComaConfig {
    ComaConfig {
        epochs: budget.epochs,
        lr: budget.lr,
        agent_fraction: (budget.max_agents_per_step as f64 / env.num_demands().max(1) as f64)
            .min(1.0),
        ..ComaConfig::default()
    }
}

/// Satisfied % of a model (with optional ADMM) on the test set: one forward
/// pass per matrix and a shared per-topology ADMM skeleton, as the
/// deployment engine serves it.
fn score(bed: &Testbed, model: &dyn PolicyModel, with_admm: bool) -> f64 {
    let skeleton = with_admm
        .then(|| teal_lp::AdmmSkeleton::new(bed.env.topo(), bed.env.paths(), Objective::TotalFlow));
    let admm_cfg = teal_lp::AdmmConfig::fine_tune(bed.env.topo().num_nodes());
    let mut acc = 0.0;
    for tm in &bed.test {
        let mut alloc = model.allocate_deterministic(&bed.env.model_input(tm, None));
        if let Some(skel) = &skeleton {
            alloc = skel.solve(tm, &alloc, admm_cfg).0;
        }
        acc += evaluate(&bed.env.instance(tm), &alloc).satisfied_pct();
    }
    acc / bed.test.len().max(1) as f64
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
        let _ = h.teal_engine(kind);
        let budget = h.budget();
        let bed = h.bed(kind);
        let env = Arc::clone(&bed.env);
        let cfg = coma_cfg(budget, &env);

        // Teal and Teal w/o ADMM share the trained model.
        let teal_model = {
            let engine = h.teal_engine(kind);
            engine.model().clone()
        };
        let bed = h.bed(kind);
        results[0]
            .1
            .push(format!("{:.1}", score(bed, &teal_model, true)));
        results[1]
            .1
            .push(format!("{:.1}", score(bed, &teal_model, false)));

        // Direct loss.
        let mut direct = TealModel::new(Arc::clone(&env), TealConfig::default());
        let d_cfg = DirectConfig {
            epochs: cfg.epochs,
            lr: cfg.lr,
            grad_clip: 5.0,
        };
        let _ = train_direct(&mut direct, &bed.train, &bed.val, &d_cfg);
        results[2]
            .1
            .push(format!("{:.1}", score(bed, &direct, true)));

        // Global policy: infeasible beyond a parameter budget, as in §5.7.
        let max_params = 40_000_000usize;
        match GlobalPolicyModel::new(Arc::clone(&env), TealConfig::default(), 64, max_params) {
            Ok(mut gp) => {
                let _ = train_coma(&mut gp, &bed.train, &bed.val, &cfg);
                results[3].1.push(format!("{:.1}", score(bed, &gp, false)));
            }
            Err(_) => results[3].1.push("infeasible (memory)".into()),
        }

        // Naive GNN.
        let mut ng = NaiveGnnModel::new(Arc::clone(&env), 16, 4, 3);
        let _ = train_coma(&mut ng, &bed.train, &bed.val, &cfg);
        results[4].1.push(format!("{:.1}", score(bed, &ng, false)));

        // Naive DNN.
        let mut ndn = NaiveDnnModel::new(Arc::clone(&env), 64, 6, 3);
        let _ = train_coma(&mut ndn, &bed.train, &bed.val, &cfg);
        results[5].1.push(format!("{:.1}", score(bed, &ndn, false)));
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
    let cfg_rl = {
        let bed = h.bed(kind);
        coma_cfg(budget, &bed.env)
    };
    let train_and_score = |h: &mut Harness, cfg: TealConfig| -> f64 {
        let bed = h.bed(kind);
        let mut model = TealModel::new(Arc::clone(&bed.env), cfg);
        let _ = train_coma(&mut model, &bed.train, &bed.val, &cfg_rl);
        score(bed, &model, true)
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
        let dim = 1 + 5 * growth;
        let v = train_and_score(
            h,
            TealConfig {
                embed_growth: growth,
                ..TealConfig::default()
            },
        );
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
    use teal_core::tsne::{busy_path_labels, separation_score, tsne, TsneConfig};
    let kind = TopoKind::Swan;
    let engine: ServingContext<TealModel> = h.teal_engine(kind);
    let fast = h.fast();
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let tm = bed.test[0].clone();

    // Embeddings from a forward pass.
    let mut g = teal_nn::Graph::new();
    let fwd = engine.model().forward(&mut g, &env.model_input(&tm, None));
    let embed = g
        .value(fwd.embeddings.expect("Teal yields embeddings"))
        .clone();

    // Reference optimal allocation.
    let inst = env.instance(&tm);
    let (reference, _) = solve_lp(&inst, Objective::TotalFlow, &LpConfig::default());
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
    let pts = tsne(&sub, &TsneConfig::default());
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

    let _ = validate(engine.model(), &env, &bed.val);
    let _ = EngineConfig::paper_default(1);
}
