//! Flow-level evaluation of a TE allocation.
//!
//! Neural networks (and fast heuristics) can emit allocations that
//! oversubscribe links. Following §3.3 of the paper, infeasible intended
//! flows are reconciled "by proportionally dropping traffic from each flow":
//! every oversubscribed edge `e` scales the flows crossing it by
//! `r_e = c_e / load_e`, and a path's realized flow is its intended flow
//! times the most restrictive `r_e` along the path. The satisfied-demand
//! metric of §5.1 is realized flow normalized by total demand.

use crate::problem::{Allocation, Objective, TeInstance};
use teal_topology::PathSet;

/// Share of an edge's intended load that survives proportional
/// reconciliation: `min(1, capacity / load)`, and 0 on a dead link that
/// carries load.
pub fn survival_ratio(load: f64, capacity: f64) -> f64 {
    if load <= capacity || load <= 0.0 {
        1.0
    } else if capacity <= 0.0 {
        0.0
    } else {
        capacity / load
    }
}

/// Per-path latency discount of the delay-penalized objective (Figure 12),
/// indexed by path id: `(1 − γ·w/max_w).max(0)` for a path of weight `w`,
/// where `max_w` is the heaviest candidate path's weight.
pub fn latency_discounts(paths: &PathSet, gamma: f64) -> Vec<f64> {
    let max_w = paths
        .paths()
        .iter()
        .map(|p| p.weight)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    paths
        .paths()
        .iter()
        .map(|p| (1.0 - gamma * p.weight / max_w).max(0.0))
        .collect()
}

/// Evaluation results for one allocation against one traffic matrix.
#[derive(Clone, Debug)]
pub struct FlowStats {
    /// Flow the allocation intended to place (ignoring capacities).
    pub intended_flow: f64,
    /// Flow actually delivered after per-link proportional reconciliation.
    pub realized_flow: f64,
    /// Total demand volume in the matrix.
    pub total_demand: f64,
    /// Intended load per directed edge.
    pub edge_loads: Vec<f64>,
    /// Intended utilization per directed edge (load / capacity; +inf on
    /// failed zero-capacity links carrying load).
    pub max_link_util: f64,
    /// Realized flow discounted by normalized path latency (Figure 12's
    /// objective), using the penalty weight it was evaluated with.
    pub delay_penalized_flow: f64,
    /// Sum over links of load exceeding capacity (the surrogate-loss
    /// penalty term from Appendix A).
    pub total_overuse: f64,
}

impl FlowStats {
    /// Percentage of demand satisfied (the paper's headline metric).
    pub fn satisfied_pct(&self) -> f64 {
        if self.total_demand <= 0.0 {
            100.0
        } else {
            100.0 * self.realized_flow / self.total_demand
        }
    }
}

/// Evaluate an allocation: reconcile capacity violations and compute every
/// metric used in the paper's figures. `delay_gamma` sets the latency
/// penalty weight used for `delay_penalized_flow`.
pub fn evaluate_with_gamma(inst: &TeInstance, alloc: &Allocation, delay_gamma: f64) -> FlowStats {
    let k = inst.k();
    assert_eq!(alloc.k(), k, "allocation k mismatch");
    assert_eq!(
        alloc.num_demands(),
        inst.num_demands(),
        "allocation size mismatch"
    );

    let num_edges = inst.topo.num_edges();
    let mut loads = vec![0.0f64; num_edges];
    let mut intended = 0.0f64;

    // Pass 1: intended per-edge loads.
    for d in 0..inst.num_demands() {
        let vol = inst.tm.demand(d);
        if vol <= 0.0 {
            continue;
        }
        for (j, &s) in alloc.demand_splits(d).iter().enumerate() {
            if s <= 0.0 {
                continue;
            }
            let f = s * vol;
            intended += f;
            for &e in &inst.paths.paths_for(d)[j].edges {
                loads[e] += f;
            }
        }
    }

    let ratios: Vec<f64> = loads
        .iter()
        .zip(inst.topo.edges())
        .map(|(&l, e)| survival_ratio(l, e.capacity))
        .collect();

    let mut max_util = 0.0f64;
    let mut overuse = 0.0f64;
    for (&l, e) in loads.iter().zip(inst.topo.edges()) {
        if e.capacity > 0.0 {
            max_util = max_util.max(l / e.capacity);
        } else if l > 0.0 {
            max_util = f64::INFINITY;
        }
        overuse += (l - e.capacity).max(0.0);
    }

    // Pass 2: realized flow per path.
    let discounts = latency_discounts(inst.paths, delay_gamma);
    let mut realized = 0.0f64;
    let mut delay_pen = 0.0f64;
    for d in 0..inst.num_demands() {
        let vol = inst.tm.demand(d);
        if vol <= 0.0 {
            continue;
        }
        for (j, &s) in alloc.demand_splits(d).iter().enumerate() {
            if s <= 0.0 {
                continue;
            }
            let path = &inst.paths.paths_for(d)[j];
            let r = path.edges.iter().map(|&e| ratios[e]).fold(1.0f64, f64::min);
            let f = s * vol * r;
            realized += f;
            delay_pen += f * discounts[d * k + j];
        }
    }

    FlowStats {
        intended_flow: intended,
        realized_flow: realized,
        total_demand: inst.tm.total(),
        edge_loads: loads,
        max_link_util: max_util,
        delay_penalized_flow: delay_pen,
        total_overuse: overuse,
    }
}

/// Evaluate with the default latency penalty weight (0.5).
pub fn evaluate(inst: &TeInstance, alloc: &Allocation) -> FlowStats {
    evaluate_with_gamma(inst, alloc, 0.5)
}

/// The scalar objective value of an allocation under `obj` (higher is
/// better; MLU is negated so all objectives are maximized).
pub fn objective_value(inst: &TeInstance, alloc: &Allocation, obj: Objective) -> f64 {
    match obj {
        Objective::TotalFlow => evaluate(inst, alloc).realized_flow,
        Objective::MinMaxLinkUtil => -evaluate(inst, alloc).max_link_util,
        Objective::DelayPenalizedFlow(g) => {
            evaluate_with_gamma(inst, alloc, g).delay_penalized_flow
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    /// Two parallel two-hop routes between 0 and 3 plus a direct link.
    fn diamond() -> Topology {
        let mut t = Topology::new("d", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.5);
        t.add_link(2, 3, 10.0, 1.5);
        t.add_link(0, 3, 5.0, 4.0);
        t
    }

    #[test]
    fn within_capacity_everything_realized() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![8.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = Allocation::shortest_path(1, 4);
        let stats = evaluate(&inst, &alloc);
        assert!((stats.realized_flow - 8.0).abs() < 1e-9);
        assert!((stats.satisfied_pct() - 100.0).abs() < 1e-9);
        assert!((stats.max_link_util - 0.8).abs() < 1e-9);
        assert_eq!(stats.total_overuse, 0.0);
    }

    #[test]
    fn oversubscription_drops_proportionally() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        // 20 units over a 10-capacity shortest path -> half survives.
        let tm = TrafficMatrix::new(vec![20.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = Allocation::shortest_path(1, 4);
        let stats = evaluate(&inst, &alloc);
        assert!((stats.intended_flow - 20.0).abs() < 1e-9);
        assert!((stats.realized_flow - 10.0).abs() < 1e-9);
        assert!((stats.satisfied_pct() - 50.0).abs() < 1e-9);
        assert!((stats.max_link_util - 2.0).abs() < 1e-9);
        assert!(stats.total_overuse > 0.0);
    }

    #[test]
    fn bottleneck_is_path_minimum() {
        // Force flow through a path whose second hop is the bottleneck.
        let mut topo = Topology::new("line", 3);
        topo.add_link(0, 1, 100.0, 1.0);
        topo.add_link(1, 2, 10.0, 1.0);
        let pairs = vec![(0usize, 2usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![40.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = Allocation::shortest_path(1, 4);
        let stats = evaluate(&inst, &alloc);
        assert!((stats.realized_flow - 10.0).abs() < 1e-9);
    }

    #[test]
    fn failed_link_drops_all_its_flow() {
        let topo = diamond().with_failed_link(0, 1);
        let pairs = vec![(0usize, 3usize)];
        // Paths computed on the *original* topology (stale routes).
        let orig = diamond();
        let paths = PathSet::compute(&orig, &pairs, 4);
        let tm = TrafficMatrix::new(vec![8.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = Allocation::shortest_path(1, 4);
        let stats = evaluate(&inst, &alloc);
        assert_eq!(stats.realized_flow, 0.0);
        assert!(stats.max_link_util.is_infinite());
    }

    #[test]
    fn splitting_beats_single_path_under_load() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![25.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let single = evaluate(&inst, &Allocation::shortest_path(1, 4));
        let mut spread = Allocation::zeros(1, 4);
        spread.set_demand_splits(0, &[0.4, 0.4, 0.2, 0.0]);
        let multi = evaluate(&inst, &spread);
        assert!(multi.realized_flow > single.realized_flow);
    }

    #[test]
    fn objective_values_consistent() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![8.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = Allocation::shortest_path(1, 4);
        assert!(objective_value(&inst, &alloc, Objective::TotalFlow) > 0.0);
        assert!(objective_value(&inst, &alloc, Objective::MinMaxLinkUtil) < 0.0);
        let dp = objective_value(&inst, &alloc, Objective::DelayPenalizedFlow(0.5));
        assert!(dp > 0.0 && dp <= 8.0);
    }
}
