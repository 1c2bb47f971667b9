//! The TE optimization problem (Appendix A) and its solution representation.
//!
//! The path formulation: each demand `d` is split over `k` precomputed paths
//! with ratios `F_d(p) ∈ [0,1]`, subject to `Σ_p F_d(p) ≤ 1` (demand
//! constraints) and `Σ_{p∋e} Σ_d F_d(p)·d ≤ c(e)` (capacity constraints).

use crate::flow::latency_discounts;
use teal_topology::{PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// The TE objectives evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Maximize total feasible flow (§5.2's default, Eq. 1).
    TotalFlow,
    /// Minimize the max link utilization while routing all demand (§5.5).
    MinMaxLinkUtil,
    /// Maximize total flow with per-path delay penalties (§5.5). The field is
    /// the penalty weight γ applied to normalized path latency.
    DelayPenalizedFlow(f64),
}

impl Objective {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::TotalFlow => "total_flow",
            Objective::MinMaxLinkUtil => "mlu",
            Objective::DelayPenalizedFlow(_) => "delay_penalized",
        }
    }
}

/// One TE problem instance: a topology, its precomputed path set, and the
/// traffic matrix to allocate.
#[derive(Clone, Copy)]
pub struct TeInstance<'a> {
    /// The WAN graph.
    pub topo: &'a Topology,
    /// Candidate paths, aligned with the traffic matrix's demand order.
    pub paths: &'a PathSet,
    /// The demands to allocate.
    pub tm: &'a TrafficMatrix,
}

impl<'a> TeInstance<'a> {
    /// Bundle an instance, validating alignment.
    pub fn new(topo: &'a Topology, paths: &'a PathSet, tm: &'a TrafficMatrix) -> Self {
        assert_eq!(
            paths.num_demands(),
            tm.len(),
            "traffic matrix has {} demands but path set has {}",
            tm.len(),
            paths.num_demands()
        );
        TeInstance { topo, paths, tm }
    }

    /// Number of demands.
    pub fn num_demands(&self) -> usize {
        self.tm.len()
    }

    /// Paths per demand.
    pub fn k(&self) -> usize {
        self.paths.k()
    }

    /// Per-path objective coefficient: the increase in objective value per
    /// unit of split ratio on path `p` of demand `d` (before capacity
    /// reconciliation). For `TotalFlow` this is the demand volume; for
    /// `DelayPenalizedFlow` the volume discounted by normalized latency.
    /// (`MinMaxLinkUtil` is not a linear-in-F maximization; callers use
    /// dedicated solvers for it.)
    pub fn value_coefficients(&self, obj: Objective) -> Vec<f64> {
        let k = self.k();
        let vols = self.tm.demands();
        match obj {
            Objective::TotalFlow | Objective::MinMaxLinkUtil => {
                (0..self.paths.num_paths()).map(|p| vols[p / k]).collect()
            }
            Objective::DelayPenalizedFlow(gamma) => latency_discounts(self.paths, gamma)
                .iter()
                .enumerate()
                .map(|(p, w)| vols[p / k] * w)
                .collect(),
        }
    }
}

/// A TE solution: split ratios per (demand, candidate path), demand-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    k: usize,
    splits: Vec<f64>,
}

impl Allocation {
    /// All-zero allocation for `num_demands` demands with `k` paths each.
    pub fn zeros(num_demands: usize, k: usize) -> Self {
        Allocation {
            k,
            splits: vec![0.0; num_demands * k],
        }
    }

    /// Wrap a raw split vector (length must be a multiple of `k`).
    pub fn from_splits(k: usize, splits: Vec<f64>) -> Self {
        assert_eq!(
            splits.len() % k,
            0,
            "split vector length not a multiple of k"
        );
        Allocation { k, splits }
    }

    /// Route everything on the first (shortest) candidate path.
    pub fn shortest_path(num_demands: usize, k: usize) -> Self {
        let mut a = Allocation::zeros(num_demands, k);
        for d in 0..num_demands {
            a.splits[d * k] = 1.0;
        }
        a
    }

    /// Paths per demand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of demands.
    pub fn num_demands(&self) -> usize {
        self.splits.len() / self.k
    }

    /// Raw split vector, demand-major.
    pub fn splits(&self) -> &[f64] {
        &self.splits
    }

    /// Mutable raw splits.
    pub fn splits_mut(&mut self) -> &mut [f64] {
        &mut self.splits
    }

    /// Split ratios of one demand.
    pub fn demand_splits(&self, d: usize) -> &[f64] {
        &self.splits[d * self.k..(d + 1) * self.k]
    }

    /// Mutable split ratios of one demand.
    pub fn demand_splits_mut(&mut self, d: usize) -> &mut [f64] {
        &mut self.splits[d * self.k..(d + 1) * self.k]
    }

    /// Overwrite one demand's splits.
    pub fn set_demand_splits(&mut self, d: usize, s: &[f64]) {
        assert_eq!(s.len(), self.k);
        self.demand_splits_mut(d).copy_from_slice(s);
    }

    /// Project every demand's splits onto `{x ≥ 0, Σx ≤ 1}` (clamp negatives,
    /// rescale if the sum exceeds one). Guarantees the demand constraints.
    pub fn project_demand_constraints(&mut self) {
        let k = self.k;
        for d in 0..self.num_demands() {
            let row = &mut self.splits[d * k..(d + 1) * k];
            let mut sum = 0.0;
            for v in row.iter_mut() {
                if !v.is_finite() || *v < 0.0 {
                    *v = 0.0;
                }
                sum += *v;
            }
            if sum > 1.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// True when every demand satisfies `x ≥ 0` and `Σx ≤ 1 + tol`.
    pub fn demand_feasible(&self, tol: f64) -> bool {
        let k = self.k;
        (0..self.num_demands()).all(|d| {
            let row = &self.splits[d * k..(d + 1) * k];
            row.iter().all(|v| *v >= -tol) && row.iter().sum::<f64>() <= 1.0 + tol
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_topology::{b4, PathSet};

    #[test]
    fn instance_alignment_checked() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![1.0; pairs.len()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        assert_eq!(inst.num_demands(), pairs.len());
        assert_eq!(inst.k(), 4);
    }

    #[test]
    #[should_panic(expected = "demands")]
    fn misaligned_instance_panics() {
        let topo = b4();
        let paths = PathSet::compute(&topo, &topo.all_pairs(), 4);
        let tm = TrafficMatrix::new(vec![1.0; 3]);
        let _ = TeInstance::new(&topo, &paths, &tm);
    }

    #[test]
    fn value_coefficients_total_flow() {
        let topo = b4();
        let pairs = vec![(0usize, 5usize), (3usize, 9usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![10.0, 20.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let c = inst.value_coefficients(Objective::TotalFlow);
        assert_eq!(c.len(), 8);
        assert!(c[..4].iter().all(|&v| v == 10.0));
        assert!(c[4..].iter().all(|&v| v == 20.0));
    }

    #[test]
    fn delay_penalty_discounts_longer_paths() {
        let topo = b4();
        let pairs = vec![(0usize, 11usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![10.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let c = inst.value_coefficients(Objective::DelayPenalizedFlow(0.5));
        // Paths are weight-ordered, so coefficients must be non-increasing.
        for w in c.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(c[0] <= 10.0);
    }

    #[test]
    fn projection_enforces_demand_constraints() {
        let mut a = Allocation::from_splits(4, vec![0.5, 0.7, -0.2, 0.3, 0.1, 0.1, 0.1, 0.1]);
        a.project_demand_constraints();
        assert!(a.demand_feasible(1e-9));
        let s0: f64 = a.demand_splits(0).iter().sum();
        assert!((s0 - 1.0).abs() < 1e-9);
        // Second demand was already feasible and must be untouched.
        assert_eq!(a.demand_splits(1), &[0.1, 0.1, 0.1, 0.1]);
    }

    #[test]
    fn shortest_path_allocation() {
        let a = Allocation::shortest_path(3, 4);
        assert_eq!(a.demand_splits(1), &[1.0, 0.0, 0.0, 0.0]);
        assert!(a.demand_feasible(0.0));
    }
}
