//! POP — Partitioned Optimization Problems (Narayanan et al., SOSP 2021),
//! as used in the paper's evaluation (§5.1):
//!
//! "POP replicates the entire topology k times, with each replica having
//! 1/k of the original link capacities. The traffic demands are randomly
//! distributed to these replicas, and each subproblem is solved in parallel
//! with an LP solver. ... Client splitting threshold is set to 0.25 to
//! break down large demands."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teal_lp::{solve_lp, Allocation, Objective, TeInstance};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

/// Client-splitting threshold: a demand larger than this fraction of a
/// replica's mean link capacity is split into equal virtual sub-demands.
const SPLIT_THRESHOLD: f64 = 0.25;

/// Solve the TotalFlow problem with POP at the paper's replica count for
/// the topology's family (k = 1 for B4/SWAN, 4 for UsCarrier, 128 for
/// Kdl/ASN, the last reduced to 8 on our scaled testbeds so each replica
/// still holds a meaningful number of demands).
pub fn solve_pop(inst: &TeInstance) -> Allocation {
    let name = inst.topo.name();
    let replicas = if name.contains("Kdl") || name.contains("ASN") {
        8
    } else if name.contains("UsCarrier") {
        4
    } else {
        1
    };
    solve_replicated(inst, replicas)
}

/// [`solve_pop`] on `replicas` replicas: partition (split) demands over
/// the capacity-scaled replicas, solve each replica in parallel, and merge
/// the split ratios by demand-volume weighting.
fn solve_replicated(inst: &TeInstance, replicas: usize) -> Allocation {
    let k_paths = inst.k();
    let nd = inst.num_demands();
    if replicas == 1 {
        return solve_lp(inst, Objective::TotalFlow);
    }
    // The demand-to-replica assignment's stream.
    let mut rng = StdRng::seed_from_u64(0x909_0001);

    // Client splitting: volume shares per (demand, replica).
    let mean_cap = inst.topo.total_capacity() / inst.topo.num_edges().max(1) as f64;
    let replica_cap_unit = mean_cap / replicas as f64;
    let mut shares = vec![vec![0.0f64; nd]; replicas];
    #[allow(clippy::needless_range_loop)]
    for d in 0..nd {
        let vol = inst.tm.demand(d);
        if vol <= 0.0 {
            continue;
        }
        let parts = if vol > SPLIT_THRESHOLD * replica_cap_unit {
            // Split into enough virtual clients that each fits under the
            // threshold, capped at the replica count.
            ((vol / (SPLIT_THRESHOLD * replica_cap_unit)).ceil() as usize).clamp(2, replicas)
        } else {
            1
        };
        for _ in 0..parts {
            let r = rng.gen_range(0..replicas);
            shares[r][d] += vol / parts as f64;
        }
    }

    // Replica topology: every capacity divided by k.
    let mut replica_topo: Topology = inst.topo.clone();
    replica_topo.scale_capacities(1.0 / replicas as f64);

    // Solve replicas in parallel, one part per replica.
    let replica_allocs = teal_pool::map(replicas, shares.iter().collect(), &|share| {
        let tm_r = TrafficMatrix::new(share.clone());
        if tm_r.total() <= 0.0 {
            return None;
        }
        let inst_r = TeInstance::new(&replica_topo, inst.paths, &tm_r);
        Some(solve_lp(&inst_r, Objective::TotalFlow))
    });

    // Merge: a demand's final split ratio is the volume-weighted average of
    // its per-replica split ratios (each replica allocated its own share).
    let mut merged = Allocation::zeros(nd, k_paths);
    #[allow(clippy::needless_range_loop)]
    for d in 0..nd {
        let vol = inst.tm.demand(d);
        if vol <= 0.0 {
            continue;
        }
        let row = merged.demand_splits_mut(d);
        for (r, alloc) in replica_allocs.iter().enumerate() {
            let Some(alloc) = alloc else { continue };
            let w = shares[r][d] / vol;
            if w <= 0.0 {
                continue;
            }
            for (j, &s) in alloc.demand_splits(d).iter().enumerate() {
                row[j] += w * s;
            }
        }
    }
    merged.project_demand_constraints();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_lp::evaluate;
    use teal_topology::{b4, PathSet};
    use teal_traffic::{TrafficConfig, TrafficModel};

    fn b4_instance(vols: f64) -> (Topology, PathSet, TrafficMatrix) {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![vols; pairs.len()]);
        (topo, paths, tm)
    }

    #[test]
    fn single_replica_equals_lp_all() {
        let (topo, paths, tm) = b4_instance(6.0);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let pop = solve_pop(&inst);
        let lp = solve_lp(&inst, Objective::TotalFlow);
        let fp = evaluate(&inst, &pop).realized_flow;
        let fl = evaluate(&inst, &lp).realized_flow;
        assert!((fp - fl).abs() < 1e-6 * (1.0 + fl));
    }

    #[test]
    fn multi_replica_feasible_and_reasonable() {
        let (topo, paths, tm) = b4_instance(10.0);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let pop = solve_replicated(&inst, 4);
        assert!(pop.demand_feasible(1e-6));
        let lp = solve_lp(&inst, Objective::TotalFlow);
        let fp = evaluate(&inst, &pop).realized_flow;
        let fl = evaluate(&inst, &lp).realized_flow;
        // POP trades quality for speed but should stay in the ballpark.
        assert!(fp > 0.6 * fl, "pop {fp} vs lp {fl}");
        assert!(fp <= fl + 1e-6, "pop cannot beat the exact optimum");
    }

    #[test]
    fn replicas_stay_below_lp_all_on_calibrated_traffic() {
        // Heavy-tailed demands from the calibrated traffic model, on two
        // replicas: feasible, and never above the exact optimum.
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 9);
        model.calibrate(&topo, &paths);
        let tm = model.series(0, 1).remove(0);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let pop = solve_replicated(&inst, 2);
        assert!(pop.demand_feasible(1e-6));
        let fp = evaluate(&inst, &pop).realized_flow;
        let fl = evaluate(&inst, &solve_lp(&inst, Objective::TotalFlow)).realized_flow;
        assert!(fp > 0.0);
        assert!(fp <= fl + 1e-6, "pop {fp} above lp {fl}");
    }

    #[test]
    fn client_splitting_spreads_large_demands() {
        let (topo, paths, _) = b4_instance(1.0);
        let mut demands = vec![0.5; paths.num_demands()];
        demands[0] = 400.0; // enormous single demand
        let tm = TrafficMatrix::new(demands);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let pop = solve_replicated(&inst, 4);
        // The big demand must receive a nonzero allocation (it was split
        // across replicas rather than starving in a single 1/4-capacity one).
        let s: f64 = pop.demand_splits(0).iter().sum();
        assert!(s > 0.0);
    }
}
