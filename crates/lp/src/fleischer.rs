//! Fleischer-style (Garg-Könemann) approximation of the max-multicommodity
//! flow over precomputed paths.
//!
//! §2.1 of the paper discusses combinatorial approximation algorithms as a
//! TE-acceleration candidate and observes that "these algorithms remain
//! iterative in nature ... which often results in an excess of iterations to
//! terminate". This implementation exists to reproduce that comparison: it
//! is asymptotically cheaper than an LP solve but needs many multiplicative-
//! weights iterations for tight guarantees.
//!
//! Demand caps are handled with the standard pseudo-edge trick: each demand
//! contributes a private "edge" of capacity equal to its volume that all of
//! its candidate paths cross, turning the demand constraint into one more
//! capacity constraint.

use crate::problem::{Allocation, TeInstance};

/// Result metadata for a Fleischer run.
#[derive(Clone, Copy, Debug)]
pub struct FleischerReport {
    /// Multiplicative-weights routing steps executed.
    pub steps: usize,
    /// Approximation parameter ε used.
    pub epsilon: f64,
}

/// Approximate max total flow with accuracy parameter `epsilon` (smaller is
/// more accurate and slower). `max_steps` bounds the run time.
pub fn solve(inst: &TeInstance, epsilon: f64, max_steps: usize) -> (Allocation, FleischerReport) {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    let k = inst.k();
    let nd = inst.num_demands();
    let ne = inst.topo.num_edges();

    // Capacities: real edges then one pseudo-edge per demand.
    let caps: Vec<f64> = inst
        .topo
        .edges()
        .iter()
        .map(|e| e.capacity)
        .chain((0..nd).map(|d| inst.tm.demand(d)))
        .collect();
    let m = caps.len();
    let delta = (1.0 + epsilon) / ((1.0 + epsilon) * m as f64).powf(1.0 / epsilon);

    // Length (dual) per capacity entity.
    let mut length: Vec<f64> = caps
        .iter()
        .map(|&c| if c > 0.0 { delta / c } else { f64::INFINITY })
        .collect();
    // Raw (unscaled) flow routed per path slot.
    let mut raw = vec![0.0f64; inst.paths.num_paths()];

    let path_cost = |p: usize, length: &[f64]| -> f64 {
        let d = p / k;
        let mut cost = length[ne + d];
        for &e in &inst.paths.paths()[p].edges {
            cost += length[e];
        }
        cost
    };
    let path_min_cap = |p: usize| -> f64 {
        let d = p / k;
        let mut c = inst.tm.demand(d);
        for &e in &inst.paths.paths()[p].edges {
            c = c.min(inst.topo.edge(e).capacity);
        }
        c
    };

    let mut steps = 0usize;
    // Phase over demands (Fleischer's round-robin) until every demand's
    // cheapest candidate path has length >= 1.
    let mut progress = true;
    while progress && steps < max_steps {
        progress = false;
        for d in 0..nd {
            if inst.tm.demand(d) <= 0.0 {
                continue;
            }
            loop {
                if steps >= max_steps {
                    break;
                }
                // Cheapest candidate path for this demand.
                let Some((pbest, cost)) = (0..k)
                    .map(|j| {
                        let p = d * k + j;
                        (p, path_cost(p, &length))
                    })
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                else {
                    unreachable!("a path set holds k ≥ 1 candidates per demand");
                };
                if cost >= 1.0 || !cost.is_finite() {
                    break;
                }
                progress = true;
                steps += 1;
                let amount = path_min_cap(pbest);
                if amount <= 0.0 {
                    break;
                }
                raw[pbest] += amount;
                // Multiplicative length updates along the path + pseudo-edge.
                for &e in &inst.paths.paths()[pbest].edges {
                    let c = inst.topo.edge(e).capacity;
                    if c > 0.0 {
                        length[e] *= 1.0 + epsilon * amount / c;
                    }
                }
                let dc = inst.tm.demand(d);
                length[ne + d] *= 1.0 + epsilon * amount / dc;
            }
        }
    }

    // Scale raw flows down by log_{1+eps}(1/delta) to restore feasibility,
    // then convert to split ratios and clamp into the demand simplex.
    let scale = (1.0 / delta).ln() / (1.0 + epsilon).ln();
    let mut splits = vec![0.0f64; raw.len()];
    for (p, &f) in raw.iter().enumerate() {
        let d = p / k;
        let vol = inst.tm.demand(d);
        if vol > 0.0 && scale > 0.0 {
            splits[p] = f / scale / vol;
        }
    }
    let mut alloc = Allocation::from_splits(k, splits);
    alloc.project_demand_constraints();
    (alloc, FleischerReport { steps, epsilon })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::evaluate;
    use crate::pathlp::solve_lp;
    use crate::problem::Objective;
    use teal_topology::{PathSet, Topology};
    use teal_traffic::TrafficMatrix;

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
    fn approximates_lp_optimum() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize), (1usize, 2usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![30.0, 8.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let opt_alloc = solve_lp(&inst, Objective::TotalFlow);
        let opt = evaluate(&inst, &opt_alloc).realized_flow;
        let (fl_alloc, report) = solve(&inst, 0.05, 1_000_000);
        let fl = evaluate(&inst, &fl_alloc).realized_flow;
        assert!(
            fl > 0.8 * opt,
            "fleischer {fl} vs optimal {opt} ({report:?})"
        );
        assert!(fl_alloc.demand_feasible(1e-9));
    }

    #[test]
    fn more_accuracy_needs_more_steps() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![30.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (_, coarse) = solve(&inst, 0.4, 1_000_000);
        let (_, fine) = solve(&inst, 0.05, 1_000_000);
        assert!(
            fine.steps > coarse.steps,
            "fine {} vs coarse {} steps",
            fine.steps,
            coarse.steps
        );
    }

    #[test]
    fn zero_demand_handled() {
        let topo = diamond();
        let pairs = vec![(0usize, 3usize)];
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![0.0]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let (alloc, _) = solve(&inst, 0.1, 1000);
        assert!(alloc.splits().iter().all(|&v| v == 0.0));
    }
}
