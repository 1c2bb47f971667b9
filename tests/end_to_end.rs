//! Cross-crate integration tests: the full Teal pipeline against the
//! baselines on real (small) instances.

use std::sync::Arc;
use teal::core::PolicyModel;
use teal::core::{
    train_coma, validate, ComaConfig, EngineConfig, Env, ServingContext, TealConfig, TealModel,
};
use teal::lp::{evaluate, solve_lp, Allocation, LpConfig, Objective};
use teal::topology::b4;
use teal::traffic::{TrafficConfig, TrafficModel};

fn b4_env() -> Arc<Env> {
    Arc::new(Env::for_topology(b4()))
}

fn traffic(env: &Env, start: usize, n: usize, seed: u64) -> Vec<teal::traffic::TrafficMatrix> {
    let mut model = TrafficModel::new(&env.topo().all_pairs(), TrafficConfig::default(), seed);
    model.calibrate(env.topo(), env.paths());
    model.series(start, n)
}

#[test]
fn train_then_allocate_beats_untrained() {
    let env = b4_env();
    let train = traffic(&env, 0, 16, 3);
    let val = traffic(&env, 16, 4, 3);
    let test = traffic(&env, 20, 4, 3);

    let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let untrained = validate(&model, &env, &test);
    let cfg = ComaConfig {
        epochs: 8,
        lr: 3e-3,
        ..ComaConfig::default()
    };
    let _ = train_coma(&mut model, &train, &val, &cfg);
    let trained = validate(&model, &env, &test);
    assert!(
        trained >= untrained - 1.0,
        "training regressed: untrained {untrained:.1}%, trained {trained:.1}%"
    );

    // Deployment engine produces feasible allocations quickly.
    let engine = ServingContext::new(model, EngineConfig::paper_default(12));
    for tm in &test {
        let (alloc, dt) = engine.allocate(tm);
        assert!(alloc.demand_feasible(1e-6));
        assert!(dt.as_secs_f64() < 5.0, "B4 allocation took {dt:?}");
    }
}

#[test]
fn scheme_quality_ordering_holds() {
    // On a fixed contended instance: LP-all >= LP-top >= shortest-path, and
    // nothing beats the exact optimum.
    let env = b4_env();
    let tm = traffic(&env, 0, 1, 9).remove(0);
    let inst = env.instance(&tm);
    let cfg = LpConfig::default();

    let flow = |alloc: &Allocation| evaluate(&inst, alloc).realized_flow;

    let (lp_all, _) = solve_lp(&inst, Objective::TotalFlow, &cfg);
    let lp_top = teal::baselines::solve_lp_top(&inst, Objective::TotalFlow, 0.10, &cfg);
    let ncflow = teal::baselines::solve_ncflow(
        &inst,
        Objective::TotalFlow,
        &teal::baselines::NcflowConfig {
            clusters: 3,
            rounds: 2,
            lp: cfg,
        },
    );
    let pop = teal::baselines::solve_pop(
        &inst,
        Objective::TotalFlow,
        &teal::baselines::PopConfig {
            replicas: 2,
            split_threshold: 0.25,
            seed: 1,
            lp: cfg,
        },
    );
    let sp = Allocation::shortest_path(inst.num_demands(), inst.k());

    let f_all = flow(&lp_all);
    assert!(flow(&lp_top) <= f_all + 1e-6);
    assert!(flow(&ncflow) <= f_all + 1e-6);
    assert!(flow(&pop) <= f_all + 1e-6);
    assert!(flow(&sp) <= f_all + 1e-6);
    assert!(
        flow(&lp_top) >= flow(&sp) - 1e-6,
        "LP-top must not lose to pure shortest path"
    );
}

#[test]
fn training_is_deterministic_under_seed() {
    let env = b4_env();
    let train = traffic(&env, 0, 4, 5);
    let val = traffic(&env, 4, 2, 5);
    let run = || {
        let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
        let cfg = ComaConfig {
            epochs: 2,
            seed: 77,
            ..ComaConfig::default()
        };
        let rep = train_coma(&mut model, &train, &val, &cfg);
        (rep.best_val_satisfied_pct, model.store().snapshot())
    };
    let (v1, s1) = run();
    let (v2, s2) = run();
    assert_eq!(v1, v2, "validation scores differ between identical runs");
    for (a, b) in s1.iter().zip(&s2) {
        assert!(a.approx_eq(b, 0.0), "weights differ between identical runs");
    }
}

#[test]
fn admm_fine_tuning_never_ruins_demand_feasibility() {
    let env = b4_env();
    let model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let engine = ServingContext::new(model, EngineConfig::paper_default(12));
    for seed in 0..5 {
        let tm = traffic(&env, 0, 1, seed).remove(0);
        let (alloc, _) = engine.allocate(&tm);
        assert!(
            alloc.demand_feasible(1e-6),
            "seed {seed} produced infeasible splits"
        );
    }
}

#[test]
fn failure_recovery_without_retraining() {
    let env = b4_env();
    let train = traffic(&env, 0, 12, 2);
    let val = traffic(&env, 12, 3, 2);
    let tm = traffic(&env, 15, 1, 2).remove(0);
    let mut model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let cfg = ComaConfig {
        epochs: 5,
        lr: 3e-3,
        ..ComaConfig::default()
    };
    let _ = train_coma(&mut model, &train, &val, &cfg);
    let engine = ServingContext::new(model, EngineConfig::paper_default(12));

    let (pre, _) = engine.allocate(&tm);
    let failed = env.topo().with_failed_link(0, 1);
    let failed_inst = env.instance_on(&failed, &tm);
    let stale = evaluate(&failed_inst, &pre).realized_flow;
    let (fresh, _) = engine.allocate_on(&failed, &tm);
    let recovered = evaluate(&failed_inst, &fresh).realized_flow;
    // Recomputation must roughly match or beat stale routes (which keep
    // sending into the dead link).
    assert!(
        recovered >= stale * 0.95,
        "recomputed {recovered} vs stale {stale}"
    );
}
