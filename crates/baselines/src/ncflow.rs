//! NCFlow-like decomposition (Abuzaid et al., NSDI 2021), per §5.1:
//!
//! "NCFlow partitions the topology into disjoint clusters and concurrently
//! solves the subproblem of TE optimization within each cluster using an LP
//! solver. The results obtained from each cluster are then merged in a
//! nontrivial fashion to generate a valid global allocation."
//!
//! This is a path-formulation adaptation of the algorithm's structure:
//!
//! 1. partition nodes into clusters (farthest-point seeding + BFS growth,
//!    standing in for NCFlow's "FMPartitioning");
//! 2. **intra-cluster phase (parallel)** — per cluster, an LP over demands
//!    whose candidate paths stay inside the cluster;
//! 3. **inter-cluster phase** — an LP on the *contracted* graph (clusters as
//!    supernodes, cut capacities summed) over aggregated cluster-pair
//!    demands, giving each crossing demand a flow budget;
//! 4. **merge** — budgets are distributed to member demands pro rata and
//!    realized on the original candidate paths subject to residual
//!    capacities (the conservative step that loses flow relative to LP-all,
//!    as the paper observes).

use teal_lp::{solve_lp, Allocation, Objective, TeInstance};
use teal_topology::{NodeId, PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// Reconciliation rounds: NCFlow "needs to iterate between LP optimization
/// and consolidation until a predefined accuracy threshold is reached"
/// (§5.2); each round re-runs the decomposition on the residual capacities.
const ROUNDS: usize = 3;

/// Partition nodes into `c` clusters: farthest-point seeds on hop distance,
/// then balanced BFS growth. Returns the cluster id per node.
fn partition(topo: &Topology, c: usize) -> Vec<usize> {
    let n = topo.num_nodes();
    let c = c.clamp(1, n);
    // Farthest-point seeding.
    let mut seeds = vec![0usize];
    while seeds.len() < c {
        let mut best = (0usize, 0usize); // (node, distance to nearest seed)
        for v in 0..n {
            if seeds.contains(&v) {
                continue;
            }
            let d = seeds
                .iter()
                .map(|&s| hop_distance(topo, s, v).unwrap_or(usize::MAX / 2))
                .fold(usize::MAX, usize::min);
            if d > best.1 {
                best = (v, d);
            }
        }
        seeds.push(best.0);
    }
    // Simultaneous BFS growth from all seeds.
    let mut cluster = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (ci, &s) in seeds.iter().enumerate() {
        cluster[s] = ci;
        queue.push_back(s);
    }
    while let Some(u) = queue.pop_front() {
        for &(v, _) in topo.neighbors(u) {
            if cluster[v] == usize::MAX {
                cluster[v] = cluster[u];
                queue.push_back(v);
            }
        }
    }
    // Unreached nodes (disconnected) join cluster 0.
    for cc in cluster.iter_mut() {
        if *cc == usize::MAX {
            *cc = 0;
        }
    }
    cluster
}

fn hop_distance(topo: &Topology, a: NodeId, b: NodeId) -> Option<usize> {
    teal_topology::paths::bfs_hops(topo, a)[b]
}

/// Solve the TotalFlow problem with the NCFlow-like decomposition at
/// roughly √n clusters, the order NCFlow uses, iterating the decomposition
/// over residual capacities for `ROUNDS` = 3 reconciliation rounds.
pub fn solve_ncflow(inst: &TeInstance) -> Allocation {
    let clusters = (inst.topo.num_nodes() as f64).sqrt().round().max(2.0) as usize;
    solve_clustered(inst, clusters)
}

/// [`solve_ncflow`] at `clusters` clusters.
fn solve_clustered(inst: &TeInstance, clusters: usize) -> Allocation {
    let k = inst.k();
    let nd = inst.num_demands();
    let mut total = Allocation::zeros(nd, k);
    // Fraction of each demand still unallocated.
    let mut remaining = vec![1.0f64; nd];
    let mut residual_caps = inst.topo.capacities();
    for _ in 0..ROUNDS {
        let round_topo = inst.topo.with_capacities(&residual_caps);
        let round_tm =
            TrafficMatrix::new((0..nd).map(|d| inst.tm.demand(d) * remaining[d]).collect());
        if round_tm.total() <= 1e-12 {
            break;
        }
        let round_inst = TeInstance::new(&round_topo, inst.paths, &round_tm);
        let round_alloc = ncflow_round(&round_inst, clusters);
        // Accumulate in original-demand units and update residual state.
        #[allow(clippy::needless_range_loop)]
        for d in 0..nd {
            let frac = remaining[d];
            if frac <= 0.0 {
                continue;
            }
            let vol = inst.tm.demand(d);
            let mut used = 0.0f64;
            for (j, &s) in round_alloc.demand_splits(d).iter().enumerate() {
                if s <= 0.0 {
                    continue;
                }
                let add = s * frac;
                total.demand_splits_mut(d)[j] += add;
                used += add;
                for &e in &inst.paths.paths_for(d)[j].edges {
                    residual_caps[e] = (residual_caps[e] - add * vol).max(0.0);
                }
            }
            remaining[d] = (frac - used).max(0.0);
        }
    }
    total.project_demand_constraints();
    total
}

/// One decomposition round on the given (residual) instance.
fn ncflow_round(inst: &TeInstance, clusters: usize) -> Allocation {
    let k = inst.k();
    let nd = inst.num_demands();
    let cluster = partition(inst.topo, clusters);
    let nc = cluster.iter().max().map(|&m| m + 1).unwrap_or(1);

    // Classify demands: intra (all candidate paths inside one cluster) vs
    // crossing.
    let mut intra: Vec<Vec<usize>> = vec![Vec::new(); nc];
    let mut crossing: Vec<usize> = Vec::new();
    for d in 0..nd {
        if inst.tm.demand(d) <= 0.0 {
            continue;
        }
        let (s, t) = inst.paths.pairs()[d];
        let same = cluster[s] == cluster[t]
            && inst
                .paths
                .paths_for(d)
                .iter()
                .all(|p| p.nodes(inst.topo).all(|v| cluster[v] == cluster[s]));
        if same {
            intra[cluster[s]].push(d);
        } else {
            crossing.push(d);
        }
    }

    let mut alloc = Allocation::zeros(nd, k);

    // --- Phase 1: parallel intra-cluster LPs over residual-free capacities,
    // one part per non-empty cluster.
    let clusters: Vec<&Vec<usize>> = intra.iter().filter(|d| !d.is_empty()).collect();
    let solved = teal_pool::map(clusters.len(), clusters, &|demands| {
        let pairs: Vec<(usize, usize)> = demands.iter().map(|&d| inst.paths.pairs()[d]).collect();
        let vols: Vec<f64> = demands.iter().map(|&d| inst.tm.demand(d)).collect();
        let sub_paths = PathSet::compute(inst.topo, &pairs, inst.paths.k());
        let sub_tm = TrafficMatrix::new(vols);
        let sub_inst = TeInstance::new(inst.topo, &sub_paths, &sub_tm);
        (demands, solve_lp(&sub_inst, Objective::TotalFlow))
    });
    for (demands, sub_alloc) in solved {
        for (i, &d) in demands.iter().enumerate() {
            alloc.set_demand_splits(d, sub_alloc.demand_splits(i));
        }
    }

    // Residual capacities after the intra phase.
    let mut residual = inst.topo.capacities();
    consume(&mut residual, inst, &alloc);

    // --- Phase 2: contracted-graph LP for crossing demands.
    // The contracted topology: one edge per cut cluster pair, carrying the
    // pair's summed residual cut capacity.
    let mut cut_caps = std::collections::HashMap::new();
    for (i, e) in inst.topo.edges().iter().enumerate() {
        let (cs, ct) = (cluster[e.src], cluster[e.dst]);
        if cs != ct {
            *cut_caps.entry((cs, ct)).or_insert(0.0) += residual[i];
        }
    }
    let mut contracted = Topology::new("contracted", nc);
    for ((cs, ct), cap) in &cut_caps {
        contracted.add_directed_edge(*cs, *ct, *cap, 1.0);
    }

    // Aggregate crossing demands per cluster pair.
    let mut agg: std::collections::HashMap<(usize, usize), f64> = std::collections::HashMap::new();
    for &d in &crossing {
        let (s, t) = inst.paths.pairs()[d];
        let key = (cluster[s], cluster[t]);
        if key.0 != key.1 {
            *agg.entry(key).or_insert(0.0) += inst.tm.demand(d);
        }
    }
    let mut budgets: std::collections::HashMap<(usize, usize), f64> =
        std::collections::HashMap::new();
    if !agg.is_empty() {
        let mut agg_pairs: Vec<(usize, usize)> = agg.keys().copied().collect();
        agg_pairs.sort_unstable();
        // Keep only pairs connected in the contracted graph.
        agg_pairs.retain(|&(a, b)| teal_topology::dijkstra(&contracted, a, b).is_some());
        if !agg_pairs.is_empty() {
            let agg_vols: Vec<f64> = agg_pairs.iter().map(|p| agg[p]).collect();
            let agg_paths = PathSet::compute(&contracted, &agg_pairs, 4);
            let agg_tm = TrafficMatrix::new(agg_vols);
            let agg_inst = TeInstance::new(&contracted, &agg_paths, &agg_tm);
            let agg_alloc = solve_lp(&agg_inst, Objective::TotalFlow);
            for (i, &pair) in agg_pairs.iter().enumerate() {
                let frac: f64 = agg_alloc.demand_splits(i).iter().sum();
                budgets.insert(pair, frac * agg_tm.demand(i));
            }
        }
    }

    // --- Phase 3 (merge): distribute budgets pro rata and realize each
    // crossing demand on its candidate paths via residual water-filling.
    // Process in decreasing volume for determinism.
    let mut ordered: Vec<usize> = crossing.clone();
    ordered.sort_by(|&a, &b| {
        inst.tm
            .demand(b)
            .partial_cmp(&inst.tm.demand(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &d in &ordered {
        let (s, t) = inst.paths.pairs()[d];
        let key = (cluster[s], cluster[t]);
        let vol = inst.tm.demand(d);
        let budget_frac = if key.0 == key.1 {
            1.0 // same-cluster demand whose paths wander outside: no budget cap
        } else {
            let total_pair: f64 = agg.get(&key).copied().unwrap_or(0.0);
            let b = budgets.get(&key).copied().unwrap_or(0.0);
            if total_pair > 0.0 {
                (b / total_pair).min(1.0)
            } else {
                0.0
            }
        };
        let mut remaining = vol * budget_frac;
        if remaining <= 0.0 {
            continue;
        }
        let mut splits = [0.0f64; 16];
        for (j, p) in inst.paths.paths_for(d).iter().enumerate() {
            if remaining <= 0.0 {
                break;
            }
            let cap = p
                .edges
                .iter()
                .map(|&e| residual[e])
                .fold(f64::INFINITY, f64::min);
            let send = cap.max(0.0).min(remaining);
            if send > 0.0 {
                splits[j] = send / vol;
                for &e in &p.edges {
                    residual[e] -= send;
                }
                remaining -= send;
            }
        }
        alloc.set_demand_splits(d, &splits[..k]);
    }
    alloc.project_demand_constraints();
    alloc
}

/// Subtract an allocation's intended loads from a residual-capacity vector.
fn consume(residual: &mut [f64], inst: &TeInstance, alloc: &Allocation) {
    for d in 0..inst.num_demands() {
        let vol = inst.tm.demand(d);
        if vol <= 0.0 {
            continue;
        }
        for (j, &s) in alloc.demand_splits(d).iter().enumerate() {
            if s > 0.0 {
                for &e in &inst.paths.paths_for(d)[j].edges {
                    residual[e] = (residual[e] - s * vol).max(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_lp::evaluate;
    use teal_topology::{b4, generate, TopoKind};

    #[test]
    fn partition_covers_all_nodes() {
        let topo = generate(TopoKind::Swan, 0.5, 3);
        let cl = partition(&topo, 5);
        assert_eq!(cl.len(), topo.num_nodes());
        let nc = cl.iter().max().unwrap() + 1;
        assert!(nc <= 5);
        // Every cluster non-empty.
        for c in 0..nc {
            assert!(cl.contains(&c), "cluster {c} empty");
        }
    }

    #[test]
    fn ncflow_feasible_and_below_optimal() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![8.0; pairs.len()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let nc = solve_ncflow(&inst);
        assert!(nc.demand_feasible(1e-6));
        let lp = solve_lp(&inst, Objective::TotalFlow);
        let f_nc = evaluate(&inst, &nc).realized_flow;
        let f_lp = evaluate(&inst, &lp).realized_flow;
        assert!(f_nc <= f_lp + 1e-6, "decomposition cannot beat the optimum");
        assert!(
            f_nc > 0.4 * f_lp,
            "ncflow {f_nc} vs lp {f_lp}: too much loss"
        );
    }

    #[test]
    fn ncflow_single_cluster_close_to_lp() {
        let topo = b4();
        let pairs = topo.all_pairs();
        let paths = PathSet::compute(&topo, &pairs, 4);
        let tm = TrafficMatrix::new(vec![5.0; pairs.len()]);
        let inst = TeInstance::new(&topo, &paths, &tm);
        let nc = solve_clustered(&inst, 1);
        let lp = solve_lp(&inst, Objective::TotalFlow);
        let f_nc = evaluate(&inst, &nc).realized_flow;
        let f_lp = evaluate(&inst, &lp).realized_flow;
        assert!(
            f_nc > 0.9 * f_lp,
            "single-cluster ncflow {f_nc} vs lp {f_lp}"
        );
    }
}
