//! Appendix C's ADMM written out literally — one traffic matrix, scalar
//! loops, an auxiliary `z_pe` and a multiplier `λ4_pe` stored for every
//! (path, edge) incidence entry, no tiling, no lanes. It is the
//! independent check of `AdmmBatchSolver`, which keeps `z`/`λ4` only as
//! per-edge scalars: `batch_equivalence.rs` drives both over the same
//! instances, and [`TwinRun::identity_gap`] measures the identity the
//! production solver relies on (per edge, `λ4_pe` and `z_pe − F_p·v_d` take
//! one value on every path) where it can actually be observed.

use teal_lp::{AdmmConfig, Allocation, Objective};
use teal_topology::{PathSet, Topology};
use teal_traffic::TrafficMatrix;

/// What one twin solve produced.
pub struct TwinRun {
    pub alloc: Allocation,
    pub iterations: usize,
    pub primal: f64,
    pub dual: f64,
    /// Largest per-edge spread of `λ4_pe` or `z_pe − F_p·v_d` seen after
    /// any iteration, relative to `max(1, largest magnitude on the edge)`.
    pub identity_gap: f64,
}

/// `(max − min) / max(1, max |x|)` of a non-empty sequence.
fn spread(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (hi - lo) / lo.abs().max(hi.abs()).max(1.0)
}

pub fn solve(
    topo: &Topology,
    paths: &PathSet,
    obj: Objective,
    tm: &TrafficMatrix,
    init: &Allocation,
    cfg: AdmmConfig,
) -> TwinRun {
    let (nd, k, ne, rho) = (paths.num_demands(), paths.k(), topo.num_edges(), cfg.rho);
    // Normalization and objective coefficients, as `AdmmSkeleton::new`.
    let mean_cap = topo.total_capacity() / ne.max(1) as f64;
    let alpha = if mean_cap > 0.0 { 1.0 / mean_cap } else { 1.0 };
    let cap: Vec<f64> = topo.edges().iter().map(|e| e.capacity * alpha).collect();
    let vol: Vec<f64> = tm.demands().iter().map(|v| v * alpha).collect();
    let max_w = paths.paths().iter().map(|p| p.weight).fold(0.0, f64::max);
    let coef: Vec<f64> = (paths.paths().iter().enumerate())
        .map(|(p, path)| match obj {
            Objective::DelayPenalizedFlow(gamma) => {
                vol[p / k] * (1.0 - gamma * path.weight / max_w.max(1e-12)).max(0.0)
            }
            _ => vol[p / k],
        })
        .collect();
    // Incidence entries `(path, edge)`, and each path's / edge's entry ids.
    let mut entries = Vec::new();
    let mut on_path = vec![Vec::new(); nd * k];
    let mut on_edge = vec![Vec::new(); ne];
    for (p, path) in paths.paths().iter().enumerate() {
        for &e in &path.edges {
            on_path[p].push(entries.len());
            on_edge[e].push(entries.len());
            entries.push((p, e));
        }
    }

    let mut start = init.clone();
    start.project_demand_constraints();
    let mut f = start.splits().to_vec();
    let mut z: Vec<f64> = entries.iter().map(|&(p, _)| f[p] * vol[p / k]).collect();
    let mut s1: Vec<f64> = (0..nd)
        .map(|d| (1.0 - f[d * k..(d + 1) * k].iter().sum::<f64>()).max(0.0))
        .collect();
    let mut s3: Vec<f64> = (0..ne)
        .map(|e| (cap[e] - on_edge[e].iter().map(|&i| z[i]).sum::<f64>()).max(0.0))
        .collect();
    let (mut l1, mut l3, mut l4) = (vec![0.0; nd], vec![0.0; ne], vec![0.0; entries.len()]);
    let mut run = TwinRun {
        alloc: start,
        iterations: 0,
        primal: f64::INFINITY,
        dual: f64::INFINITY,
        identity_gap: 0.0,
    };

    for _ in 0..cfg.max_iters {
        // F-update: per demand, (diag + ρ·11ᵀ) x = b by Sherman-Morrison.
        let mut step = 0.0f64;
        for d in 0..nd {
            let v = vol[d];
            let (mut b, mut diag) = (vec![0.0; k], vec![0.0; k]);
            for j in 0..k {
                let p = d * k + j;
                b[j] = coef[p] - l1[d] - rho * (s1[d] - 1.0);
                for &i in &on_path[p] {
                    b[j] += -l4[i] * v + rho * v * z[i];
                }
                diag[j] = rho * v * v * on_path[p].len() as f64;
            }
            let sum_binv: f64 = (0..k).map(|j| b[j] / diag[j]).sum();
            let sum_inv: f64 = (0..k).map(|j| 1.0 / diag[j]).sum();
            let corr = rho * sum_binv / (1.0 + rho * sum_inv);
            for j in 0..k {
                let x = if v <= 0.0 {
                    0.0
                } else {
                    ((b[j] - corr) / diag[j]).clamp(0.0, 1.0)
                };
                step = step.max((x - f[d * k + j]).abs());
                f[d * k + j] = x;
            }
        }
        // z-update: per edge, Hessian ρ(I + 11ᵀ), Sherman-Morrison again.
        for e in 0..ne {
            let n = on_edge[e].len() as f64;
            let b: Vec<f64> = (on_edge[e].iter())
                .map(|&i| {
                    let p = entries[i].0;
                    -l3[e] - rho * (s3[e] - cap[e]) + l4[i] + rho * f[p] * vol[p / k]
                })
                .collect();
            let corr = b.iter().sum::<f64>() / rho / (1.0 + n);
            for (&i, bv) in on_edge[e].iter().zip(&b) {
                let zi = bv / rho - corr;
                step = step.max((zi - z[i]).abs());
                z[i] = zi;
            }
        }
        // Slack projections, then dual ascent on all three families.
        let mut primal = 0.0f64;
        for d in 0..nd {
            let sum: f64 = f[d * k..(d + 1) * k].iter().sum();
            s1[d] = (1.0 - sum - l1[d] / rho).max(0.0);
            let g = sum + s1[d] - 1.0;
            l1[d] += rho * g;
            primal = primal.max(g.abs());
        }
        for e in 0..ne {
            let sum: f64 = on_edge[e].iter().map(|&i| z[i]).sum();
            s3[e] = (cap[e] - sum - l3[e] / rho).max(0.0);
            let g = sum + s3[e] - cap[e];
            l3[e] += rho * g;
            primal = primal.max(g.abs());
        }
        for (i, &(p, _)) in entries.iter().enumerate() {
            let g = f[p] * vol[p / k] - z[i];
            l4[i] += rho * g;
            primal = primal.max(g.abs());
        }

        for ids in on_edge.iter().filter(|ids| !ids.is_empty()) {
            let offsets = ids
                .iter()
                .map(|&i| z[i] - f[entries[i].0] * vol[entries[i].0 / k]);
            let gap = spread(ids.iter().map(|&i| l4[i])).max(spread(offsets));
            run.identity_gap = run.identity_gap.max(gap);
        }
        run.iterations += 1;
        (run.primal, run.dual) = (primal, rho * step);
        if cfg.tol > 0.0 && primal.max(rho * step) < cfg.tol {
            break;
        }
    }
    run.alloc = Allocation::from_splits(k, f);
    run.alloc.project_demand_constraints();
    run
}
