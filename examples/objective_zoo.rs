//! Objective flexibility (§5.5): retrain Teal for different TE objectives by
//! swapping the RL reward — no architectural change.
//!
//! Trains three models on the same SWAN-like testbed: maximize total flow,
//! minimize max link utilization (MLU), and maximize latency-penalized flow,
//! then cross-evaluates each model under all three metrics to show each
//! specializes to its own objective.
//!
//! Run with: `cargo run --release --example objective_zoo`

use std::sync::Arc;
use teal::core::{
    train_coma, ComaConfig, EngineConfig, Env, RewardKind, ServingContext, TealConfig, TealModel,
};
use teal::lp::{evaluate_with_gamma, Objective};
use teal::topology::{generate, TopoKind};
use teal::traffic::{TrafficConfig, TrafficModel};

fn main() {
    let topo = generate(TopoKind::Swan, 0.35, 5);
    println!("topology: SWAN-like, {} nodes", topo.num_nodes());
    let env = Arc::new(Env::for_topology(topo));
    let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 5);
    traffic.calibrate(env.topo(), env.paths());
    let train = traffic.series(0, 24);
    let val = traffic.series(24, 4);
    let test = traffic.series(28, 6);

    let gamma = 0.5;
    let objectives: [(&str, RewardKind, Objective); 3] = [
        (
            "max total flow",
            RewardKind::TotalFlow,
            Objective::TotalFlow,
        ),
        ("min MLU", RewardKind::NegMaxUtil, Objective::MinMaxLinkUtil),
        (
            "max delay-penalized",
            RewardKind::DelayPenalized(gamma),
            Objective::DelayPenalizedFlow(gamma),
        ),
    ];

    println!(
        "\n{:<22} {:>12} {:>8} {:>18}",
        "trained for", "satisfied%", "MLU", "penalized flow%"
    );
    for (name, reward, obj) in objectives {
        let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let cfg = ComaConfig {
            epochs: 8,
            lr: 3e-3,
            reward,
            ..ComaConfig::default()
        };
        let _ = train_coma(&mut model, &train, &val, &cfg);
        // ADMM is used for the linear flow objective only, as in §5.5.
        let engine_cfg = if matches!(obj, Objective::TotalFlow) {
            EngineConfig::paper_default(env.topo().num_nodes())
        } else {
            EngineConfig::without_admm(obj)
        };
        let engine = ServingContext::new(model, engine_cfg);

        let (mut sat, mut mlu, mut pen) = (0.0, 0.0, 0.0);
        for tm in &test {
            let (alloc, _) = engine.allocate(tm);
            let inst = env.instance(tm);
            let stats = evaluate_with_gamma(&inst, &alloc, gamma);
            sat += stats.satisfied_pct();
            mlu += stats.max_link_util;
            pen += 100.0 * stats.delay_penalized_flow / tm.total();
        }
        let n = test.len() as f64;
        println!(
            "{:<22} {:>11.1}% {:>8.2} {:>17.1}%",
            name,
            sat / n,
            mlu / n,
            pen / n
        );
    }
    println!(
        "\nEach model optimizes its own column — the MLU-trained model trades \
         throughput for headroom, the delay-penalized one shifts traffic onto \
         short paths."
    );
}
