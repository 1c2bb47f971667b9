//! Figures 8 and 9 — reaction to link failures.

use super::{scheme_by_condition, Harness};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;
use teal_lp::Objective;
use teal_sim::{metrics, run_failure_interval, run_offline, Baseline, Scheme, Solver, TealScheme};
use teal_topology::{EdgeId, TopoKind, Topology};

/// Per seed in `seeds`, a sample of `n` distinct bidirectional links, as
/// their directed edge ids (both directions).
fn failure_samples(topo: &Topology, n: usize, seeds: Range<u64>) -> Vec<Vec<EdgeId>> {
    let mut links: Vec<(usize, usize)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for e in topo.edges() {
        let key = (e.src.min(e.dst), e.src.max(e.dst));
        if seen.insert(key) {
            links.push(key);
        }
    }
    let sample = |seed: u64| {
        let mut links = links.clone();
        links.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xfa11));
        let failed = links.iter().take(n);
        failed.flat_map(|&(a, b)| topo.link_edges(a, b)).collect()
    };
    seeds.map(sample).collect()
}

/// The mean satisfied demand of `scheme` over the failure samples `trials`.
/// A sample with no failed link scores the offline satisfied demand;
/// otherwise the scheme computes the pre-failure allocation on the intact
/// topology, the links fail, and the sample scores the interval-weighted
/// satisfied demand while the scheme recomputes.
fn failure_pct(
    env: &teal_core::Env,
    scheme: &mut dyn Scheme,
    tm: &teal_traffic::TrafficMatrix,
    trials: &[Vec<EdgeId>],
    interval: std::time::Duration,
) -> f64 {
    let score = |failed: &Vec<EdgeId>| {
        if failed.is_empty() {
            let (stats, _) = run_offline(env, env.topo(), std::slice::from_ref(tm), scheme, 1);
            return stats[0].satisfied_pct();
        }
        let (pre, _) = scheme.allocate(env.topo(), tm);
        let failed_topo = env.topo().with_failed_edges(failed);
        run_failure_interval(env, &failed_topo, tm, scheme, &pre, interval)
    };
    metrics::mean(&trials.iter().map(score).collect::<Vec<_>>())
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
    let schemes: Vec<Box<dyn Scheme>> = vec![
        baseline(Solver::Teavar),
        baseline(Solver::Ncflow),
        Box::new(TealScheme::new(engine)),
        baseline(Solver::LpTop(Objective::TotalFlow)),
        baseline(Solver::Pop),
        baseline(Solver::LpAll(Objective::TotalFlow)),
    ];
    let samples = |nf| failure_samples(env.topo(), nf, 0..trials);
    let conditions = [
        (("no failure", "no_failure"), samples(0)),
        (("1 link failure", "one_failure"), samples(1)),
        (("2 link failures", "two_failures"), samples(2)),
    ];
    scheme_by_condition(
        "fig8",
        "Figure 8: satisfied demand (%) with 0/1/2 link failures on B4",
        &conditions,
        schemes,
        |s, trials| failure_pct(&env, s, &tm, trials, interval),
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

    let baseline = |solver| Box::new(Baseline::new(Arc::clone(&env), solver));
    let schemes: Vec<Box<dyn Scheme>> = vec![
        baseline(Solver::Ncflow),
        baseline(Solver::Pop),
        baseline(Solver::LpTop(Objective::TotalFlow)),
        Box::new(TealScheme::new(engine)),
    ];
    let samples = |count: f64, seed: u64| {
        let nf = (count * scale).round() as usize;
        failure_samples(env.topo(), nf, seed..seed + trials)
    };
    let conditions = [
        (("no failure", "f0"), samples(0.0, 0)),
        (("~50 failures", "f50"), samples(50.0, 10)),
        (("~100 failures", "f100"), samples(100.0, 20)),
        (("~200 failures", "f200"), samples(200.0, 30)),
    ];
    scheme_by_condition(
        "fig9",
        &format!(
            "Figure 9: satisfied demand (%) under mass failures on ASN \
             (counts scaled x{scale:.2} from 0/50/100/200)"
        ),
        &conditions,
        schemes,
        |s, trials| failure_pct(&env, s, &tm, trials, interval),
    );
}
