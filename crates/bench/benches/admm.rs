//! Criterion bench: ADMM iteration cost — fine-tuning (2/5 iters, §3.4) vs
//! solve-to-convergence (the LP-all substitute), the iteration-count
//! ablation behind §3.4's quality/latency knob, and the serving-window
//! comparison: one batched sweep ([`teal_lp::AdmmBatchSolver`])
//! fine-tuning a whole window against a loop of batch-of-1 solves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teal_lp::{AdmmConfig, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::{TrafficConfig, TrafficMatrix, TrafficModel};

fn instance(cap: usize) -> (teal_topology::Topology, PathSet, TrafficMatrix) {
    let topo = generate(TopoKind::Swan, 0.5, 42);
    let mut pairs = topo.all_pairs();
    pairs.truncate(cap);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 42);
    model.calibrate(&topo, &paths);
    let tm = model.series(0, 1).remove(0);
    (topo, paths, tm)
}

fn bench_admm(c: &mut Criterion) {
    let (topo, paths, tm) = instance(1200);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    let init = Allocation::shortest_path(tm.len(), 4);
    let mut group = c.benchmark_group("admm");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for iters in [2usize, 5, 20, 100] {
        group.bench_with_input(BenchmarkId::new("iters", iters), &iters, |b, &n| {
            let cfg = AdmmConfig {
                rho: 1.0,
                max_iters: n,
                tol: 0.0,
            };
            b.iter(|| skel.solve(&tm, &init, cfg))
        });
    }
    group.finish();
}

/// Serving-window fine-tuning: a loop of batch-of-1 solves mints one
/// solver per window entry (each run re-walking the incidence index); the
/// batched sweep repairs the whole window in one pass per iteration. Both
/// sides run 5 iterations (the ≥100-node fine-tune count) from the same
/// warm starts. On the 1-core CI container the win is the index-locality
/// one (no per-matrix re-walk); on multicore the demand/edge × batch tiles
/// also spread over the pool workers.
fn bench_fine_tune_window(c: &mut Criterion) {
    let topo = generate(TopoKind::Swan, 0.5, 42);
    let mut pairs = topo.all_pairs();
    pairs.truncate(1200);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let mut model = TrafficModel::new(&pairs, TrafficConfig::default(), 42);
    model.calibrate(&topo, &paths);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    let cfg = AdmmConfig {
        rho: 1.0,
        max_iters: 5,
        tol: 0.0,
    };
    let mut group = c.benchmark_group("admm_fine_tune_window");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for window in [4usize, 16] {
        let tms: Vec<TrafficMatrix> = model.series(0, window);
        let inits: Vec<Allocation> = tms
            .iter()
            .map(|tm| Allocation::shortest_path(tm.len(), 4))
            .collect();
        group.bench_with_input(BenchmarkId::new("looped", window), &window, |b, _| {
            b.iter(|| {
                tms.iter()
                    .zip(&inits)
                    .map(|(tm, init)| skel.solve(tm, init, cfg).0)
                    .collect::<Vec<_>>()
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", window), &window, |b, _| {
            // The serving steady state: solver reminted and arena reused
            // across windows, so iterations past the first allocate nothing
            // on the ADMM hot path.
            let mut solver = skel.batch_solver(&tms);
            let mut arena = BatchArena::new();
            let mut outs = Vec::new();
            let mut reports = Vec::new();
            b.iter(|| {
                skel.remint_batch_solver(&mut solver, &tms);
                solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
                outs.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_admm, bench_fine_tune_window);
criterion_main!(benches);
