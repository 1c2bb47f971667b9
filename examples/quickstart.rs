//! Quickstart: train Teal on Google's B4 topology and allocate live traffic.
//!
//! Walks the full pipeline of the paper's Figure 3 — FlowGNN feature
//! learning, COMA* multi-agent RL training, and ADMM fine-tuning — end to
//! end on the smallest evaluation network, then compares the result against
//! the exact LP optimum.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use teal::core::{
    train_coma, validate, ComaConfig, EngineConfig, Env, ServingContext, TealConfig, TealModel,
};
use teal::lp::{evaluate, solve_lp, LpConfig, Objective};
use teal::topology::b4;
use teal::traffic::{TrafficConfig, TrafficModel};

fn main() {
    // --- 1. Topology and candidate paths (4 shortest per demand, §2).
    let topo = b4();
    println!(
        "topology: {} nodes, {} directed edges",
        topo.num_nodes(),
        topo.num_edges()
    );
    let env = Arc::new(Env::for_topology(topo));
    println!(
        "candidate paths: {} demands x {} paths",
        env.num_demands(),
        env.k()
    );

    // --- 2. Synthetic SWAN-like traffic, calibrated so the network is
    //        contended (the regime where TE matters).
    let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 7);
    traffic.calibrate(env.topo(), env.paths());
    let train = traffic.series(0, 48);
    let val = traffic.series(48, 8);
    let test = traffic.series(56, 8);

    // --- 3. Train FlowGNN + policy network end to end with COMA*.
    let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
    println!("model parameters: {}", model.num_parameters());
    let before = validate(&model, &env, &test);
    let cfg = ComaConfig {
        epochs: 12,
        lr: 3e-3,
        ..ComaConfig::default()
    };
    let report = train_coma(&mut model, &train, &val, &cfg);
    println!("untrained satisfied demand: {before:.1}%");
    for e in report.history.iter().step_by(3) {
        println!(
            "  epoch {:>2}: sampled reward {:.1}% of demand, val satisfied {:.1}%",
            e.epoch,
            100.0 * e.train_reward_frac,
            e.val_satisfied_pct
        );
    }

    // --- 4. Deploy: one forward pass + 2 ADMM iterations per matrix (§4).
    let engine = ServingContext::new(model, EngineConfig::paper_default(12));
    let mut teal_sat = 0.0;
    let mut lp_sat = 0.0;
    let mut teal_time = 0.0;
    for tm in &test {
        let (alloc, dt) = engine.allocate(tm);
        let inst = env.instance(tm);
        teal_sat += 100.0 * evaluate(&inst, &alloc).realized_flow / tm.total();
        teal_time += dt.as_secs_f64();
        let (opt, _) = solve_lp(&inst, Objective::TotalFlow, &LpConfig::default());
        lp_sat += 100.0 * evaluate(&inst, &opt).realized_flow / tm.total();
    }
    let n = test.len() as f64;
    println!("---");
    println!(
        "Teal:   {:.1}% satisfied demand, {:.1} ms per allocation",
        teal_sat / n,
        1e3 * teal_time / n
    );
    println!(
        "LP-all: {:.1}% satisfied demand (exact optimum)",
        lp_sat / n
    );
}
