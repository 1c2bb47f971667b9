//! Tables 1-3, Figure 2 (LP multicore speedup), and Figure 17 (routable
//! demands per edge).

use crate::table::{emit, Cell, Table};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use teal_core::Env;
use teal_lp::{concurrent, Objective};
use teal_sim::{metrics, Baseline, Solver};
use teal_topology::{generate, stats, PathSet, TopoKind};
use teal_traffic::{TrafficConfig, TrafficModel};

/// Table 1: node/edge counts of the five evaluation topologies (full scale).
pub fn table1() {
    let mut t = Table::text(
        "Table 1: network topologies (full-scale synthetic reproductions)",
        &["topology", "# of nodes", "# of edges (directed)"],
    );
    for kind in TopoKind::all() {
        let topo = generate(kind, 1.0, 42);
        t.row(vec![
            kind.name().into(),
            topo.num_nodes().to_string().into(),
            topo.num_edges().to_string().into(),
        ]);
    }
    emit("table1", &t);
}

/// Table 2: computation-time breakdown per scheme (descriptive; components
/// measured on the B4 testbed are reported alongside).
pub fn table2() {
    let mut t = Table::text(
        "Table 2: computation-time breakdown per scheme",
        &["algorithm", "computation time"],
    );
    for (algorithm, time) in [
        (
            "Teal",
            "forward pass + fixed ADMM iterations (GPU-parallel)",
        ),
        ("LP-all", "full LP solve (simplex / ADMM-to-convergence)"),
        ("LP-top", "LP solve + per-interval model rebuilding"),
        ("NCFlow", "parallel cluster LPs + contracted LP + merge"),
        ("POP", "parallel replica LPs"),
        ("TEAVAR*", "scenario-robust LP (small topologies only)"),
    ] {
        t.row(vec![algorithm.into(), time.into()]);
    }
    emit("table2", &t);
}

/// Table 3: mean shortest-path length and hop diameter (full scale; SWAN is
/// included since our SWAN is synthetic, unlike the paper's private one).
pub fn table3() {
    let mut t = Table::text(
        "Table 3: topology details",
        &["topology", "avg shortest-path length", "network diameter"],
    );
    for kind in [
        TopoKind::B4,
        TopoKind::Swan,
        TopoKind::UsCarrier,
        TopoKind::Kdl,
        TopoKind::Asn,
    ] {
        let topo = generate(kind, 1.0, 42);
        t.row(vec![
            kind.name().into(),
            format!("{:.1}", stats::mean_shortest_path(&topo)).into(),
            stats::hop_diameter(&topo).to_string().into(),
        ]);
    }
    emit("table3", &t);
}

/// Figure 2: marginal speedup of concurrent-racing LP solving as threads
/// increase (the mechanism behind Gurobi's sublinear multicore scaling).
///
/// Each racing configuration (a serial ADMM instance with a different ρ) is
/// timed once; the race's wall clock with `t` dedicated cores is the minimum
/// over the first `t` configurations. This measured simulation is exact on a
/// multi-core machine and remains faithful on the 1-core boxes this
/// reproduction targets (where literally racing threads would only
/// time-share a single core).
pub fn fig2(fast: bool) {
    // A mid-size contended instance so the solve takes long enough to time.
    let kind = TopoKind::Kdl;
    let scale = if fast { 0.05 } else { 0.10 };
    let topo = generate(kind, scale, 7);
    let mut pairs = topo.all_pairs();
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    pairs.shuffle(&mut rng);
    pairs.truncate(if fast { 300 } else { 1200 });
    pairs.sort_unstable();
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 7);
    model.calibrate(&topo, &paths);
    let tm = model.series(0, 1).remove(0);
    let env = Env::new(topo, paths);
    let inst = env.instance(&tm);

    let mut t = Table::new(
        "Figure 2: concurrent-racing LP speedup vs. threads (marginal, as in Gurobi)",
        &[
            ("threads", "threads"),
            ("time (s)", "time_s"),
            ("speedup", "speedup"),
        ],
    );
    let racer_times = concurrent::measure_racers(&inst, Objective::TotalFlow, 8, 1e-3);
    let base = concurrent::race_time_with_threads(&racer_times, 1).as_secs_f64();
    for threads in [1usize, 2, 4, 8, 16] {
        let secs = concurrent::race_time_with_threads(&racer_times, threads).as_secs_f64();
        let speedup = base / secs.max(1e-12);
        t.row(vec![
            threads.to_string().into(),
            Cell::Pair(format!("{secs:.3}"), format!("{secs:.6}")),
            Cell::Pair(format!("{speedup:.2}x"), format!("{speedup:.4}")),
        ]);
    }
    emit("fig2", &t);
}

/// Figure 17: percentage of demands routable on each edge, per topology.
/// Full-scale graphs with demand pairs sampled (Yen over the full ASN mesh
/// is out of CPU budget; sampling is unbiased for this per-edge share).
pub fn fig17(fast: bool) {
    let sample = if fast { 400 } else { 2000 };
    let mut t = Table::text(
        "Figure 17: routable demands on each edge (%), distribution summary",
        &["topology", "mean", "p25", "p50", "p75", "max"],
    );
    for kind in [
        TopoKind::B4,
        TopoKind::UsCarrier,
        TopoKind::Kdl,
        TopoKind::Asn,
    ] {
        let scale = if kind == TopoKind::Asn && fast {
            0.3
        } else {
            1.0
        };
        let topo = generate(kind, scale, 42);
        let mut pairs = topo.all_pairs();
        if pairs.len() > sample {
            let mut rng = rand::rngs::StdRng::seed_from_u64(17);
            pairs.shuffle(&mut rng);
            pairs.truncate(sample);
        }
        let paths = PathSet::compute(&topo, &pairs, 4);
        let share = stats::routable_demand_share(&topo, &paths);
        let q = |p| Cell::from(format!("{:.2}", metrics::percentile(&share, p)));
        t.row(vec![
            kind.name().into(),
            format!("{:.2}", metrics::mean(&share)).into(),
            q(0.25),
            q(0.50),
            q(0.75),
            q(1.0),
        ]);
    }
    emit("fig17", &t);
}

/// Table 2's measured column on B4: each scheme's warm per-allocation cost,
/// the median over 21 calls of the time `Scheme::allocate` reports (the
/// time every other figure reads), after one warm-up call.
pub fn table2_measured() {
    use std::sync::Arc;
    use teal_core::{EngineConfig, ServingContext, TealConfig, TealModel};
    const REPEATS: usize = 21;
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let tm = teal_traffic::TrafficMatrix::new(vec![20.0; env.num_demands()]);
    let mut t = Table::text(
        format!("Table 2 (measured on B4): median of {REPEATS} warm allocations per scheme"),
        &["algorithm", "measured time"],
    );
    let model = TealModel::new(Arc::clone(&env), TealConfig::default());
    let engine = ServingContext::new(model, EngineConfig::paper_default(env.topo().num_nodes()));
    let mut schemes: Vec<Box<dyn teal_sim::Scheme>> =
        vec![Box::new(teal_sim::TealScheme::new(engine))];
    for solver in [
        Solver::LpAll(Objective::TotalFlow),
        Solver::LpTop(Objective::TotalFlow),
        Solver::Ncflow,
        Solver::Pop,
        Solver::Teavar,
    ] {
        schemes.push(Box::new(Baseline::new(Arc::clone(&env), solver)));
    }
    for s in &mut schemes {
        let _ = s.allocate(env.topo(), &tm);
        let times: Vec<f64> = (0..REPEATS)
            .map(|_| s.allocate(env.topo(), &tm).1.as_secs_f64())
            .collect();
        t.row(vec![
            s.name().into(),
            Cell::Secs(metrics::percentile(&times, 0.5)),
        ]);
    }
    emit("table2_measured", &t);
}
