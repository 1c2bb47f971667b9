//! TEAVAR* — the failure-aware baseline of §5.3 (Figure 8).
//!
//! TEAVAR (Bogle et al., SIGCOMM 2019) "balances link utilization with
//! operator-defined availability requirements"; the paper compares against
//! TEAVAR*, NCFlow's adaptation that maximizes total flow. Both hedge
//! against probabilistic link failures at allocation time, trading peak
//! utilization for availability — which is why TEAVAR* satisfies less
//! demand than the other schemes when no failure occurs (Figure 8).
//!
//! Our implementation keeps TEAVAR's essence — penalizing the value-at-risk
//! of failure-induced traffic loss — as a compact LP:
//!
//! `max Σ_p v_p x_p − κ·L`
//! `s.t.` demand rows, no-failure capacity rows, and per-scenario loss rows
//! `Σ_{p crossing link(s)} d_p x_p ≤ L` (the flow stranded if link `s`
//! fails is bounded by the variable `L`, whose price κ encodes the
//! operator's availability requirement).
//!
//! Minimizing the worst-case stranded flow makes the allocation spread
//! demands across disjoint routes. Scenario rows grow with the link count,
//! so — like TEAVAR in the paper — this is only viable on small networks
//! such as B4.

use teal_lp::simplex::{self, Row};
use teal_lp::{Allocation, Objective, TeInstance};

/// Price κ of worst-case stranded flow: 0 would disable hedging, 0.5 is a
/// balanced setting, and large values forfeit substantial utilization.
const RISK_PENALTY: f64 = 0.5;

/// Solve the VaR-penalized robust LP at risk price κ = 0.5.
pub fn solve_teavar(inst: &TeInstance) -> Allocation {
    let k = inst.k();
    let nd = inst.num_demands();
    let ne = inst.topo.num_edges();
    let nx = nd * k;

    // Bidirectional links (failure units): groups of directed edge ids.
    let mut links: Vec<Vec<usize>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, e) in inst.topo.edges().iter().enumerate() {
        let key = (e.src.min(e.dst), e.src.max(e.dst));
        if seen.insert(key) {
            let mut ids = vec![i];
            if let Some(rev) = inst.topo.find_edge(e.dst, e.src) {
                ids.push(rev);
            }
            links.push(ids);
        }
    }

    // Variables: x (nx splits) then the scalar worst-case loss L.
    let nvars = nx + 1;
    let l_var = nx;
    let mut c = vec![0.0f64; nvars];
    c[..nx].copy_from_slice(&inst.value_coefficients(Objective::TotalFlow));
    c[l_var] = -RISK_PENALTY;

    let mut rows = Vec::new();
    for d in 0..nd {
        rows.push(Row {
            coeffs: (0..k).map(|j| (d * k + j, 1.0)).collect(),
            rhs: 1.0,
        });
    }
    // No-failure capacity rows (hard).
    for e in 0..ne {
        let plist = inst.paths.paths_on_edge(e);
        if plist.is_empty() {
            continue;
        }
        let coeffs: Vec<(usize, f64)> = plist
            .iter()
            .map(|&p| (p as usize, inst.tm.demand(p as usize / k)))
            .collect();
        rows.push(Row {
            coeffs,
            rhs: inst.topo.edge(e).capacity,
        });
    }
    // Per-link loss rows: flow crossing the link minus L <= 0.
    for link in &links {
        let mut touched: Vec<usize> = link
            .iter()
            .flat_map(|&e| inst.paths.paths_on_edge(e).iter().map(|&p| p as usize))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            continue;
        }
        let mut coeffs: Vec<(usize, f64)> = touched
            .iter()
            .map(|&p| (p, inst.tm.demand(p / k)))
            .collect();
        coeffs.push((l_var, -1.0));
        rows.push(Row { coeffs, rhs: 0.0 });
    }

    let r = simplex::solve(&c, &rows, 500_000);
    let mut alloc = Allocation::from_splits(k, r.x[..nx].to_vec());
    alloc.project_demand_constraints();
    alloc
}

/// Realized flow in the worst single-bidirectional-link failure (helper for
/// Figure 8-style robustness comparisons).
pub fn worst_single_failure_flow(inst: &TeInstance, alloc: &Allocation) -> f64 {
    let mut worst = f64::INFINITY;
    let mut seen = std::collections::HashSet::new();
    for e in inst.topo.edges() {
        let key = (e.src.min(e.dst), e.src.max(e.dst));
        if !seen.insert(key) {
            continue;
        }
        let failed = inst.topo.with_failed_link(e.src, e.dst);
        let failed_inst = TeInstance::new(&failed, inst.paths, inst.tm);
        let f = teal_lp::evaluate(&failed_inst, alloc).realized_flow;
        worst = worst.min(f);
    }
    if worst.is_finite() {
        worst
    } else {
        teal_lp::evaluate(inst, alloc).realized_flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_lp::{evaluate, solve_lp};
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    fn diamond() -> Topology {
        let mut t = Topology::new("d", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.5);
        t.add_link(2, 3, 10.0, 1.5);
        t
    }

    fn instance(tm: &TrafficMatrix, topo: &Topology, paths: &PathSet) -> (Allocation, Allocation) {
        let inst = TeInstance::new(topo, paths, tm);
        let robust = solve_teavar(&inst);
        let lp = solve_lp(&inst, Objective::TotalFlow);
        (robust, lp)
    }

    #[test]
    fn teavar_never_beats_failure_oblivious_optimum() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![18.0]);
        let (robust, lp) = instance(&tm, &topo, &paths);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let f_r = evaluate(&inst, &robust).realized_flow;
        let f_lp = evaluate(&inst, &lp).realized_flow;
        assert!(f_r <= f_lp + 1e-6, "robust {f_r} vs optimum {f_lp}");
        assert!(f_r > 0.0);
    }

    #[test]
    fn teavar_spreads_across_disjoint_routes() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![12.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let robust = solve_teavar(&inst);
        // Flow through each physical route (slots may alias the same path).
        let mut route_flow = std::collections::HashMap::new();
        for (j, p) in paths.paths_for(0).iter().enumerate() {
            *route_flow.entry(p.edges.clone()).or_insert(0.0) += robust.demand_splits(0)[j] * 12.0;
        }
        let max_route = route_flow.values().cloned().fold(0.0f64, f64::max);
        let total: f64 = route_flow.values().sum();
        assert!(
            total > 10.0,
            "robust allocation should still route most demand"
        );
        assert!(
            max_route < 0.7 * total,
            "VaR hedging must spread flow, got max route {max_route} of {total}"
        );
    }

    #[test]
    fn teavar_survives_failures_better_than_lp() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![12.0]);
        let (robust, lp) = instance(&tm, &topo, &paths);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let worst_r = worst_single_failure_flow(&inst, &robust);
        let worst_lp = worst_single_failure_flow(&inst, &lp);
        assert!(
            worst_r >= worst_lp - 1e-6,
            "teavar worst-case {worst_r} must be at least LP's {worst_lp}"
        );
        assert!(
            worst_r > 4.0,
            "hedged allocation should keep >1/3 flow under failure"
        );
    }
}
