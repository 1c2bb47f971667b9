//! Failure recovery (§5.3): Teal reacts to link failures *without
//! retraining* by recomputing allocations on the altered topology (failed
//! links get zero capacity).
//!
//! The example fails links on B4 one at a time, showing (a) the loss if the
//! stale pre-failure routes kept serving, and (b) what Teal recovers within
//! one sub-second recomputation.
//!
//! Run with: `cargo run --release --example failure_recovery`

use std::sync::Arc;
use teal::core::{
    train_coma, ComaConfig, EngineConfig, Env, ServingContext, TealConfig, TealModel,
};
use teal::lp::evaluate;
use teal::topology::b4;
use teal::traffic::{TrafficConfig, TrafficModel};

fn main() {
    let env = Arc::new(Env::for_topology(b4()));
    let mut traffic = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), 21);
    traffic.calibrate(env.topo(), env.paths());
    let train = traffic.series(0, 32);
    let val = traffic.series(32, 6);
    let tm = traffic.series(40, 1).remove(0);

    let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let cfg = ComaConfig {
        epochs: 8,
        lr: 3e-3,
        ..ComaConfig::default()
    };
    let _ = train_coma(&mut model, &train, &val, &cfg);
    let engine = ServingContext::new(model, EngineConfig::paper_default(12));

    // Pre-failure allocation on the intact topology.
    let (pre, _) = engine.allocate(&tm);
    let intact = env.instance(&tm);
    let base_pct = evaluate(&intact, &pre).satisfied_pct();
    println!("no failure: {base_pct:.1}% satisfied\n");
    println!(
        "{:<12} {:>14} {:>16} {:>12}",
        "failed link", "stale routes", "Teal recomputed", "recompute"
    );

    // Fail each of the first 6 bidirectional links in turn.
    let mut seen = std::collections::HashSet::new();
    let mut shown = 0;
    for e in env.topo().edges() {
        let key = (e.src.min(e.dst), e.src.max(e.dst));
        if !seen.insert(key) || shown >= 6 {
            continue;
        }
        shown += 1;
        let failed = env.topo().with_failed_link(e.src, e.dst);
        let failed_inst = env.instance_on(&failed, &tm);
        // (a) Stale routes keep dropping everything crossing the dead link.
        let stale_pct = evaluate(&failed_inst, &pre).satisfied_pct();
        // (b) Teal recomputes on the failed topology — no retraining.
        let (mut fresh, dt) = engine
            .try_allocate_batch_on(&failed, std::slice::from_ref(&tm))
            .expect("failed-link window");
        let fresh = fresh.remove(0);
        let fresh_pct = evaluate(&failed_inst, &fresh).satisfied_pct();
        println!(
            "{:<12} {:>13.1}% {:>15.1}% {:>9.1} ms",
            format!("{}-{}", e.src, e.dst),
            stale_pct,
            fresh_pct,
            1e3 * dt.as_secs_f64()
        );
        assert!(
            fresh_pct >= stale_pct - 5.0,
            "recomputation should not be materially worse than stale routes"
        );
    }
    println!(
        "\nFast recomputation shrinks the window during which flows traverse dead \
         links — the effect behind Figures 8 and 9."
    );
}
