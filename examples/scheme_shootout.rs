//! Scheme shootout: the paper's headline comparison (§5.2) in miniature.
//!
//! Builds a Kdl-like testbed, trains Teal briefly, then runs Teal, LP-all,
//! LP-top, NCFlow and POP through the *online* control loop, where slow
//! schemes serve live traffic with stale routes. Prints a Figure-6-style
//! table: average computation time and online satisfied demand per scheme.
//!
//! Run with: `cargo run --release --example scheme_shootout`

use std::sync::Arc;
use std::time::Duration;
use teal::core::{
    train_coma, ComaConfig, EngineConfig, Env, ServingContext, TealConfig, TealModel,
};
use teal::lp::Objective;
use teal::sim::{run_online, Baseline, Scheme, Solver, TealScheme};
use teal::topology::{generate, PathSet, TopoKind};
use teal::traffic::{TrafficConfig, TrafficModel};

fn main() {
    // A scaled Kdl (chain-like carrier WAN) with a few hundred demands.
    let topo = generate(TopoKind::Kdl, 0.08, 11);
    println!(
        "topology: Kdl-like, {} nodes, {} edges",
        topo.num_nodes(),
        topo.num_edges()
    );
    let mut pairs = topo.all_pairs();
    pairs.truncate(900);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut traffic = TrafficModel::new(&pairs, TrafficConfig::default(), 11);
    traffic.calibrate(&topo, &paths);
    let env = Arc::new(Env::new(topo, paths));
    let train = traffic.series(0, 20);
    let val = traffic.series(20, 4);
    let test = traffic.series(24, 10);

    // Brief training run (the paper trains for a week on GPUs; the
    // satisfied-demand column printed below shows what this budget reaches).
    let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let cfg = ComaConfig {
        epochs: 5,
        lr: 3e-3,
        agent_fraction: 0.5,
        ..ComaConfig::default()
    };
    eprintln!("training Teal ({} demands)...", env.num_demands());
    let _ = train_coma(&mut model, &train, &val, &cfg);
    let engine = ServingContext::new(model, EngineConfig::paper_default(env.topo().num_nodes()));

    // TE interval chosen so LP-all stands in the same runtime-to-interval
    // ratio as the paper measured on Kdl (585 s against a 300 s budget).
    let mut probe = Baseline::new(Arc::clone(&env), Solver::LpAll(Objective::TotalFlow));
    let (_, lp_dt) = probe.allocate(env.topo(), &test[0]);
    let interval = Duration::from_secs_f64(lp_dt.as_secs_f64() / 1.95);
    println!(
        "LP-all solve: {:.2}s -> TE interval set to {:.2}s (paper's Kdl ratio)\n",
        lp_dt.as_secs_f64(),
        interval.as_secs_f64()
    );

    let mut schemes: Vec<Box<dyn Scheme>> = Vec::new();
    for solver in [
        Solver::LpAll(Objective::TotalFlow),
        Solver::LpTop(Objective::TotalFlow),
        Solver::Ncflow,
        Solver::Pop,
    ] {
        schemes.push(Box::new(Baseline::new(Arc::clone(&env), solver)));
    }
    schemes.push(Box::new(TealScheme::new(engine)));

    println!(
        "{:<12} {:>16} {:>22}",
        "scheme", "avg comp time", "online satisfied (%)"
    );
    for s in &mut schemes {
        let res = run_online(&env, env.topo(), &test, s.as_mut(), interval);
        println!(
            "{:<12} {:>14.1}ms {:>21.1}%",
            s.name(),
            1e3 * res.mean_comp_time_s(),
            res.mean_satisfied_pct()
        );
    }
    println!(
        "\nSlow schemes lose demand to stale routes; Teal's fixed-cost forward \
         pass keeps it inside the TE budget (the paper's Figure 6)."
    );
}
