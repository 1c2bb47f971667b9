//! The allocation-free steady-state guarantee, machine-checked: with a
//! retained [`BatchArena`] + output buffers and a reminted
//! [`AdmmBatchSolver`], the second and every later serving window performs
//! **zero heap allocations** on the batched ADMM hot path.
//!
//! A counting global allocator (`common/mod.rs`, shared with
//! `steady_state_alloc_on.rs`) wraps `System` and counts per thread; the
//! test snapshots its own thread's counter around each window, so neither
//! libtest's main thread nor a sibling test can pollute the count.
//!
//! The solver runs under `teal_nn::pool::with_thread_cap(1, …)` here: that
//! is the single-CPU container's native shape, and it keeps the
//! (separately exercised) worker pool's own bookkeeping out of the
//! measurement. The lane-independence and arena-reuse≡fresh suites in
//! `batch_equivalence.rs` cover the parallel schedule.

mod common;

use common::thread_allocs;
use teal_lp::{AdmmConfig, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::TrafficMatrix;

#[test]
fn steady_state_windows_allocate_nothing() {
    teal_nn::pool::with_thread_cap(1, steady_state_windows);
}

fn steady_state_windows() {
    // A real serving shape: SWAN topology, 16-matrix windows, the paper's
    // 5-iteration fine-tune.
    let topo = generate(TopoKind::Swan, 0.4, 7);
    let mut pairs = topo.all_pairs();
    pairs.truncate(60);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    let nd = paths.num_demands();
    let k = paths.k();
    let cfg = AdmmConfig {
        rho: 1.0,
        max_iters: 5,
        tol: 0.0,
    };

    const WINDOWS: usize = 6;
    const BATCH: usize = 16;
    // All windows' traffic and warm starts are minted up front (a serving
    // daemon receives them from clients; they are not part of the solver's
    // own steady state).
    let windows: Vec<Vec<TrafficMatrix>> = (0..WINDOWS)
        .map(|w| {
            (0..BATCH)
                .map(|b| {
                    TrafficMatrix::new(
                        (0..nd)
                            .map(|d| ((w * 31 + b * 7 + d) % 23) as f64 * 1.7)
                            .collect(),
                    )
                })
                .collect()
        })
        .collect();
    let inits: Vec<Allocation> = (0..BATCH)
        .map(|b| {
            Allocation::from_splits(k, (0..nd * k).map(|p| ((p + b) % 5) as f64 * 0.3).collect())
        })
        .collect();

    let mut arena = BatchArena::new();
    let mut outs = Vec::new();
    let mut reports = Vec::new();

    // Window 1 grows every buffer to its steady-state size.
    let mut solver = skel.batch_solver(&windows[0]);
    solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);

    // Vacuous-pass guard: the warm-up allocated, and this thread saw it.
    assert!(thread_allocs() > 0, "per-thread counter is dead");

    // Windows 2..: remint + solve must be allocation-free.
    for (w, tms) in windows.iter().enumerate().skip(1) {
        let before = thread_allocs();
        skel.remint_batch_solver(&mut solver, tms);
        solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
        let grew = thread_allocs() - before;
        assert_eq!(
            grew, 0,
            "window {w} performed {grew} heap allocations on the steady-state hot path"
        );
    }

    // The windows actually computed something (guard against a vacuous
    // pass from, say, an accidentally empty demand set).
    assert_eq!(outs.len(), BATCH);
    assert!(reports.iter().all(|r| r.iterations == 5));
    assert!(outs.iter().any(|a| a.splits().iter().any(|&v| v > 0.0)));
}
