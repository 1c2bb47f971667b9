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
//! The same allocator's byte counter pins the *first* window too: a fresh
//! arena + solver may allocate only per-path, per-demand and per-edge lane
//! rows — no buffer sized by the incidence non-zero count
//! (`first_window_footprint_has_no_per_entry_family`).

mod common;

use common::{thread_alloc_bytes, thread_allocs};
use teal_lp::{AdmmConfig, AdmmReport, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{generate, gravity_pairs, large_wan, PathSet, TopoKind};
use teal_traffic::TrafficMatrix;

#[test]
fn steady_state_windows_allocate_nothing() {
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

#[test]
fn first_window_footprint_has_no_per_entry_family() {
    // A generated WAN whose candidate paths are long: at least three
    // incidence non-zeros per path, so a single `[non-zero][lane]` family
    // would by itself equal the whole per-path allowance below.
    let topo = large_wan(96, 7);
    let pairs = gravity_pairs(&topo, 192, 7);
    let paths = PathSet::compute(&topo, &pairs, 3);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    let (np, nd, k, ne) = (
        paths.num_paths(),
        paths.num_demands(),
        paths.k(),
        topo.num_edges(),
    );
    let nnz: usize = paths.paths().iter().map(|p| p.edges.len()).sum();
    assert!(nnz >= 3 * np, "instance too shallow: nnz {nnz}, paths {np}");

    const BATCH: usize = 8;
    let tms: Vec<TrafficMatrix> = (0..BATCH)
        .map(|b| TrafficMatrix::new((0..nd).map(|d| ((b * 7 + d) % 23) as f64 * 1.7).collect()))
        .collect();
    let inits = vec![Allocation::shortest_path(nd, k); BATCH];
    let (mut outs, mut reports) = (Vec::new(), Vec::new());

    let before = thread_alloc_bytes();
    let mut arena = BatchArena::new();
    let solver = skel.batch_solver(&tms);
    solver.run_batch_into(
        &inits,
        AdmmConfig::fine_tune(1024),
        &mut arena,
        &mut outs,
        &mut reports,
    );
    let grew = thread_alloc_bytes() - before;

    // Lane rows: per path F, its last step and the output splits; per
    // demand s1, λ1 and the volumes; per edge s3, λ3, μ, δ, ν; the sweeps'
    // 2k + 4 working rows; the three step maxima, three residuals and the
    // iteration counts. Then, per lane, one mask byte and one entry in
    // each output `Vec`. Nothing else: the bound is met exactly today.
    let rows = 3 * np + 3 * nd + 5 * ne + (2 * k + 4) + 7;
    let out_entry = std::mem::size_of::<Allocation>() + std::mem::size_of::<AdmmReport>();
    let allowed = ((rows * 8 + 1 + out_entry) * BATCH) as u64;
    assert!(
        grew <= allowed,
        "first window allocated {grew} B, allowance {allowed} B \
         ({np} paths, {nd} demands, {ne} edges, {nnz} non-zeros, {BATCH} lanes)"
    );
    assert!(reports.iter().all(|r| r.iterations == 5));
}
