//! Flow-level evaluation of a TE allocation: the one implementation of the
//! paper's reconciliation rule.
//!
//! Neural networks (and fast heuristics) can emit allocations that
//! oversubscribe links. Following §3.3 of the paper, infeasible intended
//! flows are reconciled "by proportionally dropping traffic from each flow":
//! every oversubscribed edge `e` scales the flows crossing it by
//! `r_e = c_e / load_e`, and a path's realized flow is its intended flow
//! times the most restrictive `r_e` along the path. The satisfied-demand
//! metric of §5.1 is realized flow normalized by total demand.
//!
//! [`FlowSim`] holds that state for one [`TeInstance`]: per-path intended
//! and realized flow, per-edge loads and survival ratios. Every scheme's
//! score ([`evaluate`], [`objective_value`]) is one
//! [`FlowSim::set_allocation`] plus reads of that state, and so is COMA\*'s
//! reward (Appendix B), whose counterfactual baselines re-evaluate only the
//! paths whose bottleneck can move ([`FlowSim::counterfactual_reward`]).
//! A failed link is a zero-capacity edge of the instance's topology.
//!
//! Ledger, in the form *guarantees X, assuming Y, enforced by test Z*:
//! * every [`FlowStats`] value keeps its bits, assuming paths are visited
//!   demand-major with each path's edges in path order (a path with no
//!   intended flow adds `+0.0`) — enforced by `tests/flow_stats_golden.rs`,
//!   which pins every scalar and a hash of the edge loads on B4, Swan and
//!   `large_wan(256)`, plain and with a failed link, at γ ∈ {0.5, 0.9};
//! * a counterfactual reward equals a full recompute of the changed
//!   allocation to 1e-9 relative, under every objective and on failed
//!   links, and leaves the simulator's state as it found it, assuming an
//!   edge ratio that moves by at most 1e-15 moves no other path's
//!   bottleneck (only paths on edges that moved more are re-read) —
//!   enforced by the `counterfactual_*` tests below and the root crate's
//!   `counterfactual_equals_full` property;
//! * realized flow never exceeds intended flow or total demand, and less
//!   load never lowers the satisfied share, assuming splits in the demand
//!   simplex — enforced by the root crate's `flow_semantics_bounds`.

use crate::problem::{Allocation, Objective, TeInstance};
use teal_topology::PathSet;

/// Share of an edge's intended load that survives proportional
/// reconciliation: `min(1, capacity / load)`, and 0 on a dead link that
/// carries load.
fn survival_ratio(load: f64, capacity: f64) -> f64 {
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
pub(crate) fn latency_discounts(paths: &PathSet, gamma: f64) -> Vec<f64> {
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
    /// objective), using the penalty weight it was evaluated with
    /// ([`DELAY_GAMMA`] under [`evaluate`]).
    pub delay_penalized_flow: f64,
    /// Sum over links of load exceeding capacity (the surrogate-loss
    /// penalty term from Appendix A).
    pub total_overuse: f64,
}

impl FlowStats {
    /// Percentage of demand satisfied (the paper's headline metric), 100 for
    /// an all-zero matrix. Clamped at 100: unprojected f32 softmax splits
    /// can sum to 1 + ~1e-7, which would otherwise read a hair above it.
    pub fn satisfied_pct(&self) -> f64 {
        if self.total_demand <= 0.0 {
            100.0
        } else {
            (100.0 * self.realized_flow / self.total_demand).min(100.0)
        }
    }
}

/// Reconciled flow state for one instance and one objective, with
/// incremental counterfactual evaluation.
///
/// COMA\* (Appendix B) needs, for every RL agent `i`, the reward the system
/// *would* have obtained had only agent `i` changed its action:
/// `R(s, (a_-i, a'_i))`. Recomputing from scratch per counterfactual costs
/// O(total paths); instead the sim keeps per-edge loads and survival ratios
/// and re-evaluates only the paths whose bottleneck ratios can change —
/// those crossing an edge whose ratio the perturbed demand moves.
pub struct FlowSim<'a> {
    inst: TeInstance<'a>,
    objective: Objective,
    /// Per-path value weight: the latency discount under
    /// `DelayPenalizedFlow`, 1 otherwise.
    weights: Vec<f64>,
    /// Current split ratios, demand-major (`num_paths` entries).
    splits: Vec<f64>,
    /// Intended flow per path slot.
    intended: Vec<f64>,
    /// Intended load per edge.
    loads: Vec<f64>,
    /// Survival ratio per edge.
    ratios: Vec<f64>,
    /// Realized flow per path slot.
    realized: Vec<f64>,
    /// Σ realized · weight (the reward for flow-valued objectives).
    value: f64,
}

impl<'a> FlowSim<'a> {
    /// The simulator for `inst` scoring `objective`, holding the all-zero
    /// allocation.
    pub fn new(inst: TeInstance<'a>, objective: Objective) -> Self {
        let num_paths = inst.paths.num_paths();
        let num_edges = inst.topo.num_edges();
        let weights = match objective {
            Objective::DelayPenalizedFlow(gamma) => latency_discounts(inst.paths, gamma),
            _ => vec![1.0; num_paths],
        };
        FlowSim {
            inst,
            objective,
            weights,
            splits: vec![0.0; num_paths],
            intended: vec![0.0; num_paths],
            loads: vec![0.0; num_edges],
            ratios: vec![1.0; num_edges],
            realized: vec![0.0; num_paths],
            value: 0.0,
        }
    }

    /// The objective's value (higher is better): weighted realized flow, or
    /// the negated max link utilization.
    pub fn reward(&self) -> f64 {
        match self.objective {
            Objective::MinMaxLinkUtil => -self.max_util(),
            _ => self.value,
        }
    }

    fn max_util(&self) -> f64 {
        let mut m = 0.0f64;
        for (&l, e) in self.loads.iter().zip(self.inst.topo.edges()) {
            if e.capacity > 0.0 {
                m = m.max(l / e.capacity);
            } else if l > 0.0 {
                return f64::INFINITY;
            }
        }
        m
    }

    /// Install a full allocation and recompute all state from scratch.
    pub fn set_allocation(&mut self, alloc: &Allocation) {
        let k = self.inst.k();
        assert_eq!(alloc.k(), k, "allocation k mismatch");
        assert_eq!(
            alloc.num_demands(),
            self.inst.num_demands(),
            "allocation size mismatch"
        );
        self.splits.copy_from_slice(alloc.splits());
        let vols = self.inst.tm.demands();
        let paths = self.inst.paths.paths();
        self.loads.fill(0.0);
        for (p, &s) in self.splits.iter().enumerate() {
            let f = s.max(0.0) * vols[p / k];
            self.intended[p] = f;
            if f > 0.0 {
                for &e in &paths[p].edges {
                    self.loads[e] += f;
                }
            }
        }
        let edges = self.inst.topo.edges();
        for ((r, &l), e) in self.ratios.iter_mut().zip(&self.loads).zip(edges) {
            *r = survival_ratio(l, e.capacity);
        }
        self.value = 0.0;
        for p in 0..self.splits.len() {
            self.realized[p] = self.intended[p] * self.path_ratio(p);
            self.value += self.realized[p] * self.weights[p];
        }
    }

    fn path_ratio(&self, p: usize) -> f64 {
        let mut r = 1.0f64;
        for &e in &self.inst.paths.paths()[p].edges {
            let re = self.ratios[e];
            if re < r {
                r = re;
            }
        }
        r
    }

    /// Reward if demand `d` used `new_splits` while all other demands kept
    /// their current splits. State is restored before returning.
    pub fn counterfactual_reward(&mut self, d: usize, new_splits: &[f64]) -> f64 {
        let k = self.inst.k();
        assert_eq!(new_splits.len(), k);
        let vol = self.inst.tm.demand(d);
        if vol <= 0.0 {
            return self.reward();
        }
        let paths = self.inst.paths;

        // 1. Apply load deltas on the demand's edges, remembering changes.
        let mut changed_edges: Vec<(usize, f64, f64)> = Vec::new(); // (e, old_load, old_ratio)
        for (j, &ns) in new_splits.iter().enumerate().take(k) {
            let p = d * k + j;
            let delta = (ns.max(0.0) - self.splits[p].max(0.0)) * vol;
            if delta == 0.0 {
                continue;
            }
            for &e in &paths.paths()[p].edges {
                if !changed_edges.iter().any(|&(ee, _, _)| ee == e) {
                    changed_edges.push((e, self.loads[e], self.ratios[e]));
                }
                self.loads[e] += delta;
            }
        }
        if changed_edges.is_empty() {
            return self.reward();
        }
        // MLU reward: the max utilization needs no per-path reconciliation —
        // scan the loads, then revert.
        if matches!(self.objective, Objective::MinMaxLinkUtil) {
            let r = -self.max_util();
            for &(e, old_load, old_ratio) in &changed_edges {
                self.loads[e] = old_load;
                self.ratios[e] = old_ratio;
            }
            return r;
        }
        // 2. Recompute ratios on changed edges; collect paths whose
        //    bottleneck may move.
        let mut affected: Vec<u32> = Vec::new();
        for &(e, _, old_ratio) in &changed_edges {
            self.ratios[e] = survival_ratio(self.loads[e], self.inst.topo.edge(e).capacity);
            if (self.ratios[e] - old_ratio).abs() > 1e-15 {
                affected.extend_from_slice(paths.paths_on_edge(e));
            }
        }
        affected.sort_unstable();
        affected.dedup();
        // The perturbed demand's own paths always need re-evaluation.
        for j in 0..k {
            let p = (d * k + j) as u32;
            if let Err(pos) = affected.binary_search(&p) {
                affected.insert(pos, p);
            }
        }

        // 3. Re-evaluate affected paths under the counterfactual splits.
        let mut total = self.value;
        for &p in &affected {
            let p = p as usize;
            let intended = if p / k == d {
                new_splits[p % k].max(0.0) * vol
            } else {
                self.intended[p]
            };
            let new_real = intended * self.path_ratio(p);
            total += (new_real - self.realized[p]) * self.weights[p];
        }

        // 4. Revert edge state.
        for &(e, old_load, old_ratio) in &changed_edges {
            self.loads[e] = old_load;
            self.ratios[e] = old_ratio;
        }
        total
    }

    /// Install `alloc` and return its reward (no incremental logic).
    pub fn full_reward(&mut self, alloc: &Allocation) -> f64 {
        self.set_allocation(alloc);
        self.reward()
    }
}

/// Evaluate an allocation: reconcile capacity violations and compute every
/// metric used in the paper's figures. `delay_gamma` sets the latency
/// penalty weight used for `delay_penalized_flow`.
pub fn evaluate_with_gamma(inst: &TeInstance, alloc: &Allocation, delay_gamma: f64) -> FlowStats {
    let mut sim = FlowSim::new(*inst, Objective::DelayPenalizedFlow(delay_gamma));
    sim.set_allocation(alloc);
    let sum = |v: &[f64]| v.iter().fold(0.0f64, |acc, &x| acc + x);
    let total_overuse = sim
        .loads
        .iter()
        .zip(inst.topo.edges())
        .fold(0.0f64, |acc, (&l, e)| acc + (l - e.capacity).max(0.0));
    FlowStats {
        intended_flow: sum(&sim.intended),
        realized_flow: sum(&sim.realized),
        total_demand: inst.tm.total(),
        max_link_util: sim.max_util(),
        delay_penalized_flow: sim.value,
        total_overuse,
        edge_loads: sim.loads,
    }
}

/// The latency penalty weight γ that [`evaluate`] scores
/// `delay_penalized_flow` with, and Figure 12 trains and reports at.
pub const DELAY_GAMMA: f64 = 0.5;

/// Evaluate with the default latency penalty weight, [`DELAY_GAMMA`].
pub fn evaluate(inst: &TeInstance, alloc: &Allocation) -> FlowStats {
    evaluate_with_gamma(inst, alloc, DELAY_GAMMA)
}

/// The scalar objective value of an allocation under `obj` (higher is
/// better; MLU is negated so all objectives are maximized).
pub fn objective_value(inst: &TeInstance, alloc: &Allocation, obj: Objective) -> f64 {
    FlowSim::new(*inst, obj).full_reward(alloc)
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

    /// The diamond's every ordered pair on four paths each.
    fn diamond_paths(topo: &Topology) -> PathSet {
        PathSet::compute(topo, &topo.all_pairs(), 4)
    }

    fn uniform_alloc(paths: &PathSet) -> Allocation {
        let k = paths.k();
        Allocation::from_splits(k, vec![1.0 / k as f64; paths.num_paths()])
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
    fn satisfied_pct_is_clamped_and_full_on_an_empty_matrix() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![1.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        // Splits summing past one, all within capacity.
        let over = Allocation::from_splits(4, vec![0.5, 0.5, 1e-7, 0.0]);
        assert!(evaluate(&inst, &over).realized_flow > 1.0);
        assert_eq!(evaluate(&inst, &over).satisfied_pct(), 100.0);
        let empty = TrafficMatrix::new(vec![0.0]);
        let inst = TeInstance::new(&topo, &paths, &empty);
        assert_eq!(evaluate(&inst, &over).satisfied_pct(), 100.0);
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

    #[test]
    fn counterfactual_matches_full_recompute() {
        let topo = diamond();
        let paths = diamond_paths(&topo);
        let nd = paths.num_demands();
        let tm = TrafficMatrix::new((0..nd).map(|d| 3.0 + (d % 5) as f64 * 2.0).collect());
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = uniform_alloc(&paths);
        let mut sim = FlowSim::new(inst, Objective::TotalFlow);
        sim.set_allocation(&alloc);
        let base = sim.reward();
        for d in 0..nd {
            let new_splits = vec![0.7, 0.3, 0.0, 0.0];
            let cf = sim.counterfactual_reward(d, &new_splits);
            // Reference: full recompute.
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &new_splits);
            let reference = FlowSim::new(inst, Objective::TotalFlow).full_reward(&changed);
            assert!(
                (cf - reference).abs() < 1e-9 * (1.0 + reference),
                "demand {d}: incremental {cf} vs full {reference}"
            );
            // State must be restored.
            assert!((sim.reward() - base).abs() < 1e-12 * (1.0 + base));
        }
    }

    #[test]
    fn counterfactual_with_failed_links() {
        let topo = diamond();
        let paths = diamond_paths(&topo);
        let failed = topo.with_failed_edges(&[0, 1]);
        let tm = TrafficMatrix::new(vec![6.0; paths.num_demands()]);
        let inst = TeInstance::new(&failed, &paths, &tm);
        let alloc = uniform_alloc(&paths);
        let mut sim = FlowSim::new(inst, Objective::TotalFlow);
        sim.set_allocation(&alloc);
        for d in 0..paths.num_demands().min(4) {
            let cf = sim.counterfactual_reward(d, &[0.0, 0.0, 0.5, 0.5]);
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &[0.0, 0.0, 0.5, 0.5]);
            let reference = FlowSim::new(inst, Objective::TotalFlow).full_reward(&changed);
            assert!((cf - reference).abs() < 1e-9 * (1.0 + reference));
        }
    }

    #[test]
    fn neg_max_util_counterfactual_matches_full() {
        let topo = diamond();
        let paths = diamond_paths(&topo);
        let tm = TrafficMatrix::new(vec![7.0; paths.num_demands()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = uniform_alloc(&paths);
        let mut sim = FlowSim::new(inst, Objective::MinMaxLinkUtil);
        sim.set_allocation(&alloc);
        let base = sim.reward();
        for d in 0..paths.num_demands().min(6) {
            let cf = sim.counterfactual_reward(d, &[1.0, 0.0, 0.0, 0.0]);
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &[1.0, 0.0, 0.0, 0.0]);
            let full = FlowSim::new(inst, Objective::MinMaxLinkUtil).full_reward(&changed);
            assert!((cf - full).abs() < 1e-9, "demand {d}: {cf} vs {full}");
            assert!((sim.reward() - base).abs() < 1e-12, "state not restored");
        }
    }

    #[test]
    fn delay_penalized_counterfactual_matches_full() {
        let topo = diamond();
        let paths = diamond_paths(&topo);
        let tm = TrafficMatrix::new(vec![11.0; paths.num_demands()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = uniform_alloc(&paths);
        let objective = Objective::DelayPenalizedFlow(0.5);
        let mut sim = FlowSim::new(inst, objective);
        sim.set_allocation(&alloc);
        for d in 0..paths.num_demands().min(6) {
            let cf = sim.counterfactual_reward(d, &[0.1, 0.2, 0.3, 0.4]);
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &[0.1, 0.2, 0.3, 0.4]);
            let full = FlowSim::new(inst, objective).full_reward(&changed);
            assert!(
                (cf - full).abs() < 1e-9 * (1.0 + full.abs()),
                "demand {d}: {cf} vs {full}"
            );
        }
    }

    #[test]
    fn delay_penalty_discounts_reward() {
        let topo = diamond();
        let paths = diamond_paths(&topo);
        let tm = TrafficMatrix::new(vec![5.0; paths.num_demands()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let alloc = uniform_alloc(&paths);
        let plain = FlowSim::new(inst, Objective::TotalFlow).full_reward(&alloc);
        let pen = FlowSim::new(inst, Objective::DelayPenalizedFlow(0.8)).full_reward(&alloc);
        assert!(pen < plain, "penalty must reduce reward");
        assert!(pen > 0.0);
    }

    #[test]
    fn zero_volume_demand_counterfactual_is_noop() {
        let topo = diamond();
        let paths = diamond_paths(&topo);
        let mut demands = vec![5.0; paths.num_demands()];
        demands[3] = 0.0;
        let tm = TrafficMatrix::new(demands);
        let mut sim = FlowSim::new(TeInstance::new(&topo, &paths, &tm), Objective::TotalFlow);
        sim.set_allocation(&uniform_alloc(&paths));
        let base = sim.reward();
        assert_eq!(sim.counterfactual_reward(3, &[1.0, 0.0, 0.0, 0.0]), base);
    }
}
