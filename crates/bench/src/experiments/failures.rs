//! Figures 8 and 9 — reaction to link failures.

use super::Harness;
use crate::table::{emit, emit_csv, Table};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use teal_lp::Objective;
use teal_sim::{metrics, run_failure_interval, run_offline, Baseline, Scheme, Solver, TealScheme};
use teal_topology::{EdgeId, TopoKind, Topology};

/// Sample `n` distinct bidirectional links and return their directed edge
/// ids (both directions).
fn sample_failed_edges(topo: &Topology, n: usize, seed: u64) -> Vec<EdgeId> {
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for e in topo.edges() {
        let key = (e.src.min(e.dst), e.src.max(e.dst));
        if seen.insert(key) {
            links.push(key);
        }
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfa11);
    links.shuffle(&mut rng);
    links
        .iter()
        .take(n)
        .flat_map(|&(a, b)| topo.link_edges(a, b))
        .collect()
}

/// Run one failure scenario: with no failed link, the offline satisfied
/// demand; otherwise compute the pre-failure allocation on the intact
/// topology, fail links, and measure the interval-weighted satisfied demand
/// while the scheme recomputes.
fn failure_pct(
    env: &teal_core::Env,
    scheme: &mut dyn Scheme,
    tm: &teal_traffic::TrafficMatrix,
    failed: &[EdgeId],
    interval: std::time::Duration,
) -> f64 {
    if failed.is_empty() {
        let (stats, _) = run_offline(env, env.topo(), std::slice::from_ref(tm), scheme, 1);
        return stats[0].satisfied_pct();
    }
    let (pre, _) = scheme.allocate(env.topo(), tm);
    let failed_topo = env.topo().with_failed_edges(failed);
    run_failure_interval(env, &failed_topo, tm, scheme, &pre, interval)
}

/// Figure 8: satisfied demand with 0/1/2 link failures on B4 (including
/// TEAVAR*, which is only viable on this size).
pub fn fig8(h: &mut Harness) {
    let kind = TopoKind::B4;
    let interval = h.online_interval(kind);
    let trials = if h.fast() { 2 } else { 5 };
    let engine = h.teal_engine(kind);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let tm = bed.test[0].clone();

    let baseline = |solver| Box::new(Baseline::new(Arc::clone(&env), solver));
    let mut schemes: Vec<Box<dyn Scheme>> = vec![
        baseline(Solver::Teavar),
        baseline(Solver::Ncflow),
        Box::new(TealScheme::new(engine)),
        baseline(Solver::LpTop(Objective::TotalFlow)),
        baseline(Solver::Pop),
        baseline(Solver::LpAll(Objective::TotalFlow)),
    ];

    let mut t = Table::new(
        "Figure 8: satisfied demand (%) with 0/1/2 link failures on B4",
        &["scheme", "no failure", "1 link failure", "2 link failures"],
    );
    let mut rows_csv = Vec::new();
    for s in &mut schemes {
        let mut cells = vec![s.name().to_string()];
        let mut csv = s.name().to_string();
        for nf in [0usize, 1, 2] {
            let mut vals = Vec::new();
            for trial in 0..trials {
                let failed = sample_failed_edges(env.topo(), nf, trial as u64);
                vals.push(failure_pct(&env, s.as_mut(), &tm, &failed, interval));
            }
            let m = metrics::mean(&vals);
            cells.push(format!("{m:.1}"));
            csv.push_str(&format!(",{m:.2}"));
        }
        t.row(cells);
        rows_csv.push(csv);
    }
    emit("fig8", &t.render());
    emit_csv(
        "fig8",
        "scheme,no_failure,one_failure,two_failures",
        &rows_csv,
    );
}

/// Figure 9: many simultaneous failures on the ASN testbed. The paper
/// injects 50/100/200 failures into the 1,739-node ASN; we scale the counts
/// by the testbed's topology scale.
pub fn fig9(h: &mut Harness) {
    let kind = TopoKind::Asn;
    let interval = h.online_interval(kind);
    let trials = if h.fast() { 1 } else { 3 };
    let engine = h.teal_engine(kind);
    let bed = h.bed(kind);
    let env = Arc::clone(&bed.env);
    let tm = bed.test[0].clone();
    let scale = bed.spec.scale;
    let counts: Vec<usize> = [0usize, 50, 100, 200]
        .iter()
        .map(|&c| (c as f64 * scale).round() as usize)
        .collect();

    let baseline = |solver| Box::new(Baseline::new(Arc::clone(&env), solver));
    let mut schemes: Vec<Box<dyn Scheme>> = vec![
        baseline(Solver::Ncflow),
        baseline(Solver::Pop),
        baseline(Solver::LpTop(Objective::TotalFlow)),
        Box::new(TealScheme::new(engine)),
    ];

    let mut t = Table::new(
        format!(
            "Figure 9: satisfied demand (%) under mass failures on ASN \
             (counts scaled x{scale:.2} from 0/50/100/200)"
        ),
        &[
            "scheme",
            "no failure",
            "~50 failures",
            "~100 failures",
            "~200 failures",
        ],
    );
    let mut rows_csv = Vec::new();
    for s in &mut schemes {
        let mut cells = vec![s.name().to_string()];
        let mut csv = s.name().to_string();
        for (ci, &nf) in counts.iter().enumerate() {
            let mut vals = Vec::new();
            for trial in 0..trials {
                let failed = sample_failed_edges(env.topo(), nf, (ci * 10 + trial) as u64);
                vals.push(failure_pct(&env, s.as_mut(), &tm, &failed, interval));
            }
            let m = metrics::mean(&vals);
            cells.push(format!("{m:.1}"));
            csv.push_str(&format!(",{m:.2}"));
        }
        t.row(cells);
        rows_csv.push(csv);
    }
    emit("fig9", &t.render());
    emit_csv("fig9", "scheme,f0,f50,f100,f200", &rows_csv);
}
