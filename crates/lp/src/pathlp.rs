//! High-level TE LP solving — the "LP-all" role from the paper.
//!
//! The paper's LP-all runs Gurobi on the full path LP. Our substitute picks
//! a method by instance size, and every setting is a constant:
//!
//! * **small instances** — at most `SIMPLEX_BUDGET` = 1,200 variables plus
//!   constraints: the exact dense [`crate::simplex`] solver (certified
//!   optimal; used for ground truth in tests and on B4-scale networks);
//! * **large instances** — cold-started [`crate::admm`] run to convergence
//!   ([`AdmmConfig::to_convergence`]), which is near-optimal and whose
//!   iterative runtime scales with problem size, reproducing the paper's
//!   "LP solvers get slow at scale" behaviour.
//!
//! The min-max-link-utilization objective (§5.5), which routes *all* demand
//! while minimizing peak utilization, is solved by `MLU_ITERS` = 400 steps
//! of projected subgradient descent over the per-demand probability
//! simplices.

use crate::admm::{AdmmConfig, AdmmSkeleton};
use crate::problem::{Allocation, Objective, TeInstance};
use crate::simplex::{self, Row, SimplexStatus};

/// Instances with at most this many variables plus constraints go to the
/// exact simplex; larger ones to ADMM run to convergence.
const SIMPLEX_BUDGET: usize = 1200;

/// Subgradient iterations [`solve_lp`] spends on the MLU objective.
const MLU_ITERS: usize = 400;

/// Build the simplex rows of the path LP (demand rows then capacity rows).
fn build_rows(inst: &TeInstance) -> Vec<Row> {
    let k = inst.k();
    let mut rows = Vec::with_capacity(inst.num_demands() + inst.topo.num_edges());
    for d in 0..inst.num_demands() {
        rows.push(Row {
            coeffs: (0..k).map(|j| (d * k + j, 1.0)).collect(),
            rhs: 1.0,
        });
    }
    for e in 0..inst.topo.num_edges() {
        let plist = inst.paths.paths_on_edge(e);
        if plist.is_empty() {
            continue;
        }
        let coeffs: Vec<(usize, f64)> = plist
            .iter()
            .map(|&p| {
                // Duplicate (padded) path slots contribute multiple terms on
                // the same variable; simplex rows sum duplicate columns when
                // the same index repeats, so emit one term per slot.
                (p as usize, inst.tm.demand(p as usize / k))
            })
            .collect();
        rows.push(Row {
            coeffs,
            rhs: inst.topo.edge(e).capacity,
        });
    }
    rows
}

/// Solve the TE LP, choosing a backend by objective and size (see the
/// module docs).
pub fn solve_lp(inst: &TeInstance, obj: Objective) -> Allocation {
    match obj {
        Objective::MinMaxLinkUtil => solve_mlu(inst),
        _ => {
            let k = inst.k();
            let nvars = inst.paths.num_paths();
            let ncons = inst.num_demands() + inst.topo.num_edges();
            if nvars + ncons <= SIMPLEX_BUDGET {
                let c = inst.value_coefficients(obj);
                let rows = build_rows(inst);
                let r = simplex::solve(&c, &rows, 200_000);
                debug_assert_ne!(r.status, SimplexStatus::Unbounded);
                let mut alloc = Allocation::from_splits(k, r.x);
                alloc.project_demand_constraints();
                alloc
            } else {
                let init = Allocation::zeros(inst.num_demands(), k);
                AdmmSkeleton::new(inst.topo, inst.paths, obj)
                    .solve(inst.tm, &init, AdmmConfig::to_convergence())
                    .0
            }
        }
    }
}

/// Minimize max link utilization subject to routing *all* demand:
/// `min_F max_e load_e(F)/c_e` with `F_d ∈ Δ_k` (full simplex per demand).
///
/// Projected subgradient: at each of [`MLU_ITERS`] steps, find the argmax
/// edge, push the splits of paths crossing it downward, and re-project onto
/// the simplex.
fn solve_mlu(inst: &TeInstance) -> Allocation {
    let k = inst.k();
    let nd = inst.num_demands();
    let mut alloc = Allocation::shortest_path(nd, k);
    if nd == 0 {
        return alloc;
    }
    let mut best = alloc.clone();
    let mut best_mlu = mlu_of(inst, &alloc);
    for t in 0..MLU_ITERS {
        // Compute loads.
        let mut loads = vec![0.0f64; inst.topo.num_edges()];
        for d in 0..nd {
            let vol = inst.tm.demand(d);
            if vol <= 0.0 {
                continue;
            }
            for (j, &s) in alloc.demand_splits(d).iter().enumerate() {
                if s > 0.0 {
                    for &e in &inst.paths.paths_for(d)[j].edges {
                        loads[e] += s * vol;
                    }
                }
            }
        }
        // Argmax utilization edge.
        let (emax, util) = loads
            .iter()
            .enumerate()
            .filter(|(e, _)| inst.topo.edge(*e).capacity > 0.0)
            .map(|(e, &l)| (e, l / inst.topo.edge(e).capacity))
            .fold((0, 0.0), |acc, cur| if cur.1 > acc.1 { cur } else { acc });
        if util < best_mlu {
            best_mlu = util;
            best = alloc.clone();
        }
        if util <= 1e-12 {
            break;
        }
        // Subgradient step on the splits of paths crossing the max edge.
        let step = 0.25 / (1.0 + t as f64).sqrt();
        let cap = inst.topo.edge(emax).capacity;
        for &p in inst.paths.paths_on_edge(emax) {
            let p = p as usize;
            let d = p / k;
            let vol = inst.tm.demand(d);
            if vol <= 0.0 {
                continue;
            }
            let j = p % k;
            let g = vol / cap;
            alloc.demand_splits_mut(d)[j] -= step * g / (1.0 + g);
        }
        // Re-project each touched demand's splits onto the full simplex.
        let mut touched: Vec<usize> = inst
            .paths
            .paths_on_edge(emax)
            .iter()
            .map(|&p| p as usize / k)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for d in touched {
            let row = alloc.demand_splits_mut(d);
            project_simplex(row);
        }
    }
    best
}

fn mlu_of(inst: &TeInstance, alloc: &Allocation) -> f64 {
    crate::flow::evaluate(inst, alloc).max_link_util
}

/// Euclidean projection of a vector onto the probability simplex
/// `{x ≥ 0, Σx = 1}` (Held-Wolfe-Crowder / sort-based algorithm).
pub fn project_simplex(x: &mut [f64]) {
    let mut u: Vec<f64> = x.to_vec();
    u.sort_by(|a, b| b.total_cmp(a));
    let mut css = 0.0;
    let mut theta = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        css += ui;
        let candidate = (css - 1.0) / (i + 1) as f64;
        if ui - candidate > 0.0 {
            theta = candidate;
        }
    }
    for v in x.iter_mut() {
        *v = (*v - theta).max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::evaluate;
    use teal_topology::{b4, PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    fn parallel_pair() -> Topology {
        // Two disjoint 2-hop routes of equal capacity between 0 and 3.
        let mut t = Topology::new("p", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.1);
        t.add_link(2, 3, 10.0, 1.1);
        t
    }

    #[test]
    fn project_simplex_basics() {
        let mut x = vec![0.5, 0.5, 0.5];
        project_simplex(&mut x);
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(x.iter().all(|v| (*v - 1.0 / 3.0).abs() < 1e-9));

        let mut y = vec![2.0, -1.0];
        project_simplex(&mut y);
        assert!((y[0] - 1.0).abs() < 1e-9);
        assert!(y[1].abs() < 1e-9);
    }

    #[test]
    fn small_instance_uses_simplex_and_is_optimal() {
        let topo = parallel_pair();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![25.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = solve_lp(&inst, Objective::TotalFlow);
        // Both routes saturated: 20 of 25 delivered.
        let flow = evaluate(&inst, &alloc).realized_flow;
        assert!((flow - 20.0).abs() < 1e-6, "flow {flow}");
    }

    #[test]
    fn mlu_splits_evenly_on_symmetric_routes() {
        let topo = parallel_pair();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![10.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = solve_lp(&inst, Objective::MinMaxLinkUtil);
        let mlu = evaluate(&inst, &alloc).max_link_util;
        // Optimal MLU = 10 / (10 + 10) = 0.5.
        assert!(mlu < 0.56, "mlu {mlu}, optimal 0.5");
        // All demand still routed.
        let s: f64 = alloc.demand_splits(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn mlu_beats_shortest_path_on_b4() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![3.0; pairs.len()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let sp_mlu = evaluate(&inst, &Allocation::shortest_path(pairs.len(), 4)).max_link_util;
        let alloc = solve_lp(&inst, Objective::MinMaxLinkUtil);
        let got = evaluate(&inst, &alloc).max_link_util;
        assert!(got < sp_mlu, "mlu {got} should beat shortest-path {sp_mlu}");
    }

    #[test]
    fn delay_penalized_prefers_short_paths() {
        let topo = parallel_pair();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![5.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = solve_lp(&inst, Objective::DelayPenalizedFlow(0.9));
        // With light load and a strong penalty, everything goes on path 0.
        assert!(
            alloc.demand_splits(0)[0] > 0.9,
            "splits {:?}",
            alloc.demand_splits(0)
        );
    }
}
