//! Fast flow-level reward simulation with incremental counterfactual
//! evaluation.
//!
//! COMA* (Appendix B) needs, for every RL agent `i`, the reward the system
//! *would* have obtained had only agent `i` changed its action:
//! `R(s, (a_-i, a'_i))`. Recomputing total feasible flow from scratch per
//! counterfactual costs O(total paths); instead [`FlowSim`] maintains
//! per-edge loads and survival ratios and re-evaluates only the paths whose
//! bottleneck ratios can change — those crossing an edge whose load the
//! perturbed demand touches.

use crate::env::Env;
use teal_lp::flow::{latency_discounts, survival_ratio};
use teal_lp::Allocation;
use teal_traffic::TrafficMatrix;

/// Which scalar reward the simulator reports (the RL objective of §5.5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RewardKind {
    /// Total feasible flow (the default objective).
    TotalFlow,
    /// Negated max link utilization (so that higher is better).
    NegMaxUtil,
    /// Feasible flow discounted by normalized path latency with weight γ.
    DelayPenalized(f64),
}

/// Mutable flow-level state for one `(env, traffic matrix)` pair.
pub struct FlowSim<'a> {
    env: &'a Env,
    /// Demand volumes (copied out of the matrix).
    vols: Vec<f64>,
    /// Capacities (possibly from a failed-topology override).
    caps: Vec<f64>,
    /// Current split ratios, demand-major (`num_paths` entries).
    splits: Vec<f64>,
    /// Intended flow per path slot.
    intended: Vec<f64>,
    /// Intended load per edge.
    loads: Vec<f64>,
    /// Survival ratio per edge: min(1, cap/load) (0 for dead loaded links).
    ratios: Vec<f64>,
    /// Realized flow per path slot.
    realized: Vec<f64>,
    /// Σ realized · weight (the reward for flow-valued objectives).
    total_realized: f64,
    /// Reward definition.
    kind: RewardKind,
    /// Per-path value weight (1 for total flow; latency discount for the
    /// delay-penalized objective).
    pweights: Vec<f64>,
}

impl<'a> FlowSim<'a> {
    /// Build the simulator for a traffic matrix, optionally overriding the
    /// capacities (link failures). Uses the total-flow reward.
    pub fn new(env: &'a Env, tm: &TrafficMatrix, caps_override: Option<&[f64]>) -> Self {
        Self::with_reward(env, tm, caps_override, RewardKind::TotalFlow)
    }

    /// Build with an explicit reward definition.
    pub fn with_reward(
        env: &'a Env,
        tm: &TrafficMatrix,
        caps_override: Option<&[f64]>,
        kind: RewardKind,
    ) -> Self {
        let num_edges = env.topo().num_edges();
        let caps = match caps_override {
            Some(c) => {
                assert_eq!(c.len(), num_edges);
                c.to_vec()
            }
            None => env.topo().capacities(),
        };
        let num_paths = env.paths().num_paths();
        let pweights = match kind {
            RewardKind::DelayPenalized(gamma) => latency_discounts(env.paths(), gamma),
            _ => vec![1.0; num_paths],
        };
        FlowSim {
            env,
            vols: tm.demands().to_vec(),
            caps,
            splits: vec![0.0; num_paths],
            intended: vec![0.0; num_paths],
            loads: vec![0.0; num_edges],
            ratios: vec![1.0; num_edges],
            realized: vec![0.0; num_paths],
            total_realized: 0.0,
            kind,
            pweights,
        }
    }

    /// The scalar reward under the configured [`RewardKind`]: weighted
    /// realized flow, or negated max link utilization.
    pub fn reward(&self) -> f64 {
        match self.kind {
            RewardKind::NegMaxUtil => -self.max_util(),
            _ => self.total_realized,
        }
    }

    fn max_util(&self) -> f64 {
        let mut m = 0.0f64;
        for (&l, &c) in self.loads.iter().zip(&self.caps) {
            if c > 0.0 {
                m = m.max(l / c);
            } else if l > 0.0 {
                return f64::INFINITY;
            }
        }
        m
    }

    /// Demand volume total.
    pub fn total_demand(&self) -> f64 {
        self.vols.iter().sum()
    }

    /// Install a full allocation and recompute all state from scratch.
    pub fn set_allocation(&mut self, alloc: &Allocation) {
        let k = self.env.k();
        assert_eq!(alloc.num_demands() * k, self.splits.len());
        self.splits.copy_from_slice(alloc.splits());
        self.loads.iter_mut().for_each(|l| *l = 0.0);
        for (p, &s) in self.splits.iter().enumerate() {
            let vol = self.vols[p / k];
            let f = s.max(0.0) * vol;
            self.intended[p] = f;
            if f > 0.0 {
                for &e in &self.env.paths().paths()[p].edges {
                    self.loads[e] += f;
                }
            }
        }
        for e in 0..self.loads.len() {
            self.ratios[e] = survival_ratio(self.loads[e], self.caps[e]);
        }
        self.total_realized = 0.0;
        for p in 0..self.splits.len() {
            self.realized[p] = self.intended[p] * self.path_ratio(p);
            self.total_realized += self.realized[p] * self.pweights[p];
        }
    }

    fn path_ratio(&self, p: usize) -> f64 {
        let mut r = 1.0f64;
        for &e in &self.env.paths().paths()[p].edges {
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
        let k = self.env.k();
        assert_eq!(new_splits.len(), k);
        let vol = self.vols[d];
        if vol <= 0.0 {
            return self.reward();
        }

        // 1. Apply load deltas on the demand's edges, remembering changes.
        let mut changed_edges: Vec<(usize, f64, f64)> = Vec::new(); // (e, old_load, old_ratio)
        for (j, &ns) in new_splits.iter().enumerate().take(k) {
            let p = d * k + j;
            let delta = (ns.max(0.0) - self.splits[p].max(0.0)) * vol;
            if delta == 0.0 {
                continue;
            }
            for &e in &self.env.paths().paths()[p].edges {
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
        if self.kind == RewardKind::NegMaxUtil {
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
            self.ratios[e] = survival_ratio(self.loads[e], self.caps[e]);
            if (self.ratios[e] - old_ratio).abs() > 1e-15 {
                affected.extend_from_slice(self.env.paths().paths_on_edge(e));
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
        let mut total = self.total_realized;
        for &p in &affected {
            let p = p as usize;
            let pd = p / k;
            let intended = if pd == d {
                new_splits[p % k].max(0.0) * vol
            } else {
                self.intended[p]
            };
            let new_real = intended * self.path_ratio(p);
            total += (new_real - self.realized[p]) * self.pweights[p];
        }

        // 4. Revert edge state.
        for &(e, old_load, old_ratio) in &changed_edges {
            self.loads[e] = old_load;
            self.ratios[e] = old_ratio;
        }
        total
    }

    /// Convenience for tests: exact recompute of the reward for an arbitrary
    /// allocation (no incremental logic).
    pub fn full_reward(&mut self, alloc: &Allocation) -> f64 {
        self.set_allocation(alloc);
        self.reward()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use teal_lp::{evaluate, Allocation, TeInstance};
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

    fn diamond_env() -> Env {
        let mut t = Topology::new("d", 4);
        t.add_link(0, 1, 10.0, 1.0);
        t.add_link(1, 3, 10.0, 1.0);
        t.add_link(0, 2, 10.0, 1.5);
        t.add_link(2, 3, 10.0, 1.5);
        t.add_link(0, 3, 5.0, 4.0);
        let pairs = t.all_pairs();
        let paths = PathSet::compute(&t, &pairs, 4);
        Env::new(t, paths)
    }

    fn uniform_alloc(env: &Env) -> Allocation {
        let k = env.k();
        let mut a = Allocation::zeros(env.num_demands(), k);
        for d in 0..env.num_demands() {
            for j in 0..k {
                a.demand_splits_mut(d)[j] = 1.0 / k as f64;
            }
        }
        a
    }

    #[test]
    fn reward_matches_flow_evaluate() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(vec![7.0; env.num_demands()]);
        let alloc = uniform_alloc(&env);
        let mut sim = FlowSim::new(&env, &tm, None);
        sim.set_allocation(&alloc);
        let inst = TeInstance::new(env.topo(), env.paths(), &tm);
        let reference = evaluate(&inst, &alloc).realized_flow;
        assert!(
            (sim.reward() - reference).abs() < 1e-9 * (1.0 + reference),
            "sim {} vs evaluate {}",
            sim.reward(),
            reference
        );
    }

    #[test]
    fn counterfactual_matches_full_recompute() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(
            (0..env.num_demands())
                .map(|d| 3.0 + (d % 5) as f64 * 2.0)
                .collect(),
        );
        let alloc = uniform_alloc(&env);
        let mut sim = FlowSim::new(&env, &tm, None);
        sim.set_allocation(&alloc);
        let base = sim.reward();
        let k = env.k();
        for d in 0..env.num_demands() {
            let new_splits = vec![0.7, 0.3, 0.0, 0.0];
            let cf = sim.counterfactual_reward(d, &new_splits);
            // Reference: full recompute.
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &new_splits);
            let mut sim2 = FlowSim::new(&env, &tm, None);
            let reference = sim2.full_reward(&changed);
            assert!(
                (cf - reference).abs() < 1e-9 * (1.0 + reference),
                "demand {d}: incremental {cf} vs full {reference}"
            );
            // State must be restored.
            assert!((sim.reward() - base).abs() < 1e-12 * (1.0 + base));
            let _ = k;
        }
    }

    #[test]
    fn counterfactual_with_failed_links() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(vec![6.0; env.num_demands()]);
        let mut caps = env.topo().capacities();
        caps[0] = 0.0;
        caps[1] = 0.0;
        let alloc = uniform_alloc(&env);
        let mut sim = FlowSim::new(&env, &tm, Some(&caps));
        sim.set_allocation(&alloc);
        for d in 0..env.num_demands().min(4) {
            let cf = sim.counterfactual_reward(d, &[0.0, 0.0, 0.5, 0.5]);
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &[0.0, 0.0, 0.5, 0.5]);
            let mut sim2 = FlowSim::new(&env, &tm, Some(&caps));
            let reference = sim2.full_reward(&changed);
            assert!((cf - reference).abs() < 1e-9 * (1.0 + reference));
        }
    }

    #[test]
    fn neg_max_util_reward_matches_evaluate() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(vec![9.0; env.num_demands()]);
        let alloc = uniform_alloc(&env);
        let mut sim = FlowSim::with_reward(&env, &tm, None, RewardKind::NegMaxUtil);
        sim.set_allocation(&alloc);
        let inst = TeInstance::new(env.topo(), env.paths(), &tm);
        let reference = -evaluate(&inst, &alloc).max_link_util;
        assert!(
            (sim.reward() - reference).abs() < 1e-9,
            "{} vs {}",
            sim.reward(),
            reference
        );
    }

    #[test]
    fn neg_max_util_counterfactual_matches_full() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(vec![7.0; env.num_demands()]);
        let alloc = uniform_alloc(&env);
        let mut sim = FlowSim::with_reward(&env, &tm, None, RewardKind::NegMaxUtil);
        sim.set_allocation(&alloc);
        let base = sim.reward();
        for d in 0..env.num_demands().min(6) {
            let cf = sim.counterfactual_reward(d, &[1.0, 0.0, 0.0, 0.0]);
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &[1.0, 0.0, 0.0, 0.0]);
            let mut sim2 = FlowSim::with_reward(&env, &tm, None, RewardKind::NegMaxUtil);
            let full = sim2.full_reward(&changed);
            assert!((cf - full).abs() < 1e-9, "demand {d}: {cf} vs {full}");
            assert!((sim.reward() - base).abs() < 1e-12, "state not restored");
        }
    }

    #[test]
    fn delay_penalized_counterfactual_matches_full() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(vec![11.0; env.num_demands()]);
        let alloc = uniform_alloc(&env);
        let kind = RewardKind::DelayPenalized(0.5);
        let mut sim = FlowSim::with_reward(&env, &tm, None, kind);
        sim.set_allocation(&alloc);
        for d in 0..env.num_demands().min(6) {
            let cf = sim.counterfactual_reward(d, &[0.1, 0.2, 0.3, 0.4]);
            let mut changed = alloc.clone();
            changed.set_demand_splits(d, &[0.1, 0.2, 0.3, 0.4]);
            let mut sim2 = FlowSim::with_reward(&env, &tm, None, kind);
            let full = sim2.full_reward(&changed);
            assert!(
                (cf - full).abs() < 1e-9 * (1.0 + full.abs()),
                "demand {d}: {cf} vs {full}"
            );
        }
    }

    #[test]
    fn delay_penalty_discounts_reward() {
        let env = diamond_env();
        let tm = TrafficMatrix::new(vec![5.0; env.num_demands()]);
        let alloc = uniform_alloc(&env);
        let mut plain = FlowSim::new(&env, &tm, None);
        plain.set_allocation(&alloc);
        let mut pen = FlowSim::with_reward(&env, &tm, None, RewardKind::DelayPenalized(0.8));
        pen.set_allocation(&alloc);
        assert!(pen.reward() < plain.reward(), "penalty must reduce reward");
        assert!(pen.reward() > 0.0);
    }

    #[test]
    fn zero_volume_demand_counterfactual_is_noop() {
        let env = diamond_env();
        let mut demands = vec![5.0; env.num_demands()];
        demands[3] = 0.0;
        let tm = TrafficMatrix::new(demands);
        let alloc = uniform_alloc(&env);
        let mut sim = FlowSim::new(&env, &tm, None);
        sim.set_allocation(&alloc);
        let base = sim.reward();
        assert_eq!(sim.counterfactual_reward(3, &[1.0, 0.0, 0.0, 0.0]), base);
    }
}
