//! LP-top — the "demand pinning" heuristic (§5.1, citing Namyar et al.).
//!
//! "It allocates the top α% of demands using an LP solver and assigns the
//! remaining demands to the shortest paths. ... we set α = 10 after testing
//! multiple values. In our traffic trace, the top 10% of demands account
//! for a vast majority (88.4%) of the total volume."
//!
//! The LP model must be rebuilt every interval because the top-decile set
//! changes with the traffic matrix — the "model rebuilding time" charged to
//! LP-top in Table 2 (and the reason LP-all can be *faster* than LP-top on
//! the MLU objective, §5.5).

use teal_lp::{solve_lp, Allocation, Objective, TeInstance};
use teal_traffic::TrafficMatrix;

/// α: the fraction of demands, largest first, that the LP allocates.
const ALPHA: f64 = 0.10;

/// Compute the LP-top allocation: LP over the top `ALPHA` = 10% of
/// demands (with everything else pinned to its shortest path and consuming
/// capacity there), shortest path for the rest.
pub fn solve_lp_top(inst: &TeInstance, obj: Objective) -> Allocation {
    let k = inst.k();
    let nd = inst.num_demands();
    let top: Vec<usize> = inst.tm.top_indices(ALPHA);
    let top_set: std::collections::HashSet<usize> = top.iter().copied().collect();

    // Start from shortest-path routing for everyone.
    let mut alloc = Allocation::shortest_path(nd, k);

    // Residual capacities after pinning the non-top demands: the LP for the
    // top demands must respect what the pinned demands already consume.
    let mut residual = inst.topo.capacities();
    for d in 0..nd {
        if top_set.contains(&d) {
            continue;
        }
        let vol = inst.tm.demand(d);
        if vol <= 0.0 {
            continue;
        }
        for &e in &inst.paths.paths_for(d)[0].edges {
            residual[e] = (residual[e] - vol).max(0.0);
        }
    }

    // Build a reduced instance containing only the top demands ("model
    // rebuilding" — this work recurs every interval). The reduced topology
    // carries the residual capacities left by the pinned demands.
    let reduced_topo = inst.topo.with_capacities(&residual);
    let top_vols: Vec<f64> = top.iter().map(|&d| inst.tm.demand(d)).collect();
    // The top demands keep their candidate paths: no KSP runs here.
    let top_paths = inst.paths.select(&top);
    let top_tm = TrafficMatrix::new(top_vols);
    let top_inst = TeInstance::new(&reduced_topo, &top_paths, &top_tm);
    let top_alloc = solve_lp(&top_inst, obj);

    for (i, &d) in top.iter().enumerate() {
        alloc.set_demand_splits(d, top_alloc.demand_splits(i));
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_lp::evaluate;
    use teal_topology::{b4, PathSet};

    #[test]
    fn lp_top_close_to_lp_all_under_heavy_tail() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        // Heavy-tailed demands: a few dominate.
        let demands: Vec<f64> = (0..pairs.len())
            .map(|i| if i % 13 == 0 { 120.0 } else { 0.8 })
            .collect();
        let tm = TrafficMatrix::new(demands);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let full = solve_lp(&inst, Objective::TotalFlow);
        let top = solve_lp_top(&inst, Objective::TotalFlow);
        let f_full = evaluate(&inst, &full).realized_flow;
        let f_top = evaluate(&inst, &top).realized_flow;
        assert!(
            f_top > 0.85 * f_full,
            "lp-top {f_top} too far below lp-all {f_full} on heavy-tailed traffic"
        );
    }

    #[test]
    fn non_top_demands_are_pinned_to_shortest() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        // Every tenth demand is large: 14 of the 132, which is the top
        // ceil(10%) exactly.
        let big = |d: usize| d.is_multiple_of(10);
        let demands: Vec<f64> = (0..pairs.len())
            .map(|d| if big(d) { 300.0 } else { 1.0 })
            .collect();
        let tm = TrafficMatrix::new(demands);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = solve_lp_top(&inst, Objective::TotalFlow);
        let mut top = tm.top_indices(ALPHA);
        top.sort_unstable();
        assert_eq!(
            top,
            (0..pairs.len()).filter(|&d| big(d)).collect::<Vec<_>>()
        );
        let mut rerouted = 0;
        for d in 0..pairs.len() {
            let s = alloc.demand_splits(d);
            if big(d) {
                rerouted += usize::from(s[1..].iter().any(|&v| v > 0.0));
            } else {
                assert_eq!(s[0], 1.0, "demand {d} not pinned");
                assert!(s[1..].iter().all(|&v| v == 0.0));
            }
        }
        // The LP moves some top demand off its shortest path.
        assert!(rerouted > 0, "no top demand left its shortest path");
    }

    #[test]
    fn respects_demand_feasibility() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![10.0; pairs.len()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = solve_lp_top(&inst, Objective::TotalFlow);
        assert!(alloc.demand_feasible(1e-6));
    }
}
