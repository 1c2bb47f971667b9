//! The allocation-free steady-state guarantee, machine-checked: with a
//! retained [`BatchArena`] + output buffers and a reminted
//! [`AdmmBatchSolver`], the second and every later serving window performs
//! **zero heap allocations** on the batched ADMM hot path, whether it
//! refines a retained set of allocations in place or copies warm starts
//! into retained outputs.
//!
//! A counting global allocator (`common/mod.rs`, shared with
//! `steady_state_alloc_on.rs`) wraps `System` and counts per thread; the
//! test snapshots its own thread's counter around each window, so neither
//! libtest's main thread nor a sibling test can pollute the count.
//!
//! The same allocator's byte counter pins the *first* window too, exactly:
//! a fresh arena + solver allocates only per-path, per-demand and
//! per-crossed-edge lane rows — no buffer sized by the incidence non-zero
//! count, no row for an edge no path crosses, no output copy, and one
//! per-path family only: the F-step lives in the window's allocations
//! (`first_window_footprint_has_no_per_entry_family`). Narrower windows,
//! whose lane count leaves F-step rows over for the arena's tail, reuse
//! the widest window's buffers (`narrower_windows_allocate_nothing`).

mod common;

use common::{thread_alloc_bytes, thread_allocs};
use teal_lp::{AdmmConfig, AdmmReport, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{b4, generate, gravity_pairs, large_wan, PathSet, TopoKind};
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

    // Two serving loops, each with its own retained solver, arena and
    // report buffer: one copies the warm starts into retained outputs
    // (`run_batch_into`), the other refines a retained set of allocations
    // in place, after copying each window's warm starts into it the way a
    // forward stage would write them.
    let mut arena = BatchArena::new();
    let mut outs = Vec::new();
    let mut reports = Vec::new();
    let mut arena_in_place = BatchArena::new();
    let mut allocs = inits.clone();
    let mut reports_in_place = Vec::new();

    // Window 1 grows every buffer to its steady-state size.
    let mut solver = skel.batch_solver(&windows[0]);
    solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
    let mut solver_in_place = skel.batch_solver(&windows[0]);
    solver_in_place.run_batch_in_place(
        &mut allocs,
        cfg,
        &mut arena_in_place,
        &mut reports_in_place,
    );

    // Vacuous-pass guard: the warm-up allocated, and this thread saw it.
    assert!(thread_allocs() > 0, "per-thread counter is dead");

    // Windows 2..: remint + solve must be allocation-free on both loops.
    for (w, tms) in windows.iter().enumerate().skip(1) {
        let before = thread_allocs();
        skel.remint_batch_solver(&mut solver, tms);
        solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
        let grew = thread_allocs() - before;
        assert_eq!(
            grew, 0,
            "window {w} performed {grew} heap allocations on the steady-state hot path"
        );

        let before = thread_alloc_bytes();
        for (alloc, init) in allocs.iter_mut().zip(&inits) {
            alloc.splits_mut().copy_from_slice(init.splits());
        }
        skel.remint_batch_solver(&mut solver_in_place, tms);
        solver_in_place.run_batch_in_place(
            &mut allocs,
            cfg,
            &mut arena_in_place,
            &mut reports_in_place,
        );
        let grew = thread_alloc_bytes() - before;
        assert_eq!(
            grew, 0,
            "window {w} allocated {grew} B refining its allocations in place"
        );
        assert_eq!(
            allocs, outs,
            "window {w}: in place and copied outputs differ"
        );
    }

    // The windows actually computed something (guard against a vacuous
    // pass from, say, an accidentally empty demand set).
    assert_eq!(outs.len(), BATCH);
    assert!(reports.iter().all(|r| r.iterations == 5));
    assert!(reports_in_place.iter().all(|r| r.iterations == 5));
    assert!(outs.iter().any(|a| a.splits().iter().any(|&v| v > 0.0)));
}

#[test]
fn first_window_footprint_has_no_per_entry_family() {
    // A generated WAN whose candidate paths are long (at least three
    // incidence non-zeros per path, so a single `[non-zero][lane]` family
    // would outweigh the per-path rows below) and which has edges no
    // candidate path crosses (which get no row).
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
    let crossed = (0..ne)
        .filter(|&e| !paths.paths_on_edge(e).is_empty())
        .count();
    assert!(crossed < ne, "every edge is crossed: no row to drop");

    const BATCH: usize = 8;
    let tms: Vec<TrafficMatrix> = (0..BATCH)
        .map(|b| TrafficMatrix::new((0..nd).map(|d| ((b * 7 + d) % 23) as f64 * 1.7).collect()))
        .collect();
    let mut allocs = vec![Allocation::shortest_path(nd, k); BATCH];
    let mut reports = Vec::new();

    let before = thread_alloc_bytes();
    let mut arena = BatchArena::new();
    let solver = skel.batch_solver(&tms);
    solver.run_batch_in_place(
        &mut allocs,
        AdmmConfig::fine_tune(1024),
        &mut arena,
        &mut reports,
    );
    let grew = thread_alloc_bytes() - before;

    // Lane rows: per path F; per demand s1, λ1 and the volumes; per crossed
    // edge s3, λ3, μ and δ (ν = ρδ − μ is recomputed); the sweeps' 2k + 4
    // working rows; the three step maxima. Then, per lane, one report. The
    // splits are written over the warm starts, so there is no output copy,
    // and until then they hold the F-step's rows, all but the `np mod
    // BATCH` left over, whose tail reserves BATCH² values. Nothing else.
    let rows = np + 3 * nd + 4 * crossed + (2 * k + 4) + 3;
    let tail = BATCH * BATCH * 8;
    let expected = ((rows * 8 + std::mem::size_of::<AdmmReport>()) * BATCH + tail) as u64;
    println!(
        "admm first window: {np} paths, {nd} demands, {crossed}/{ne} edges crossed, \
         {BATCH} lanes, {grew} B"
    );
    assert_eq!(
        grew, expected,
        "first window allocated {grew} B, expected {expected} B \
         ({np} paths, {nd} demands, {crossed}/{ne} edges crossed, {nnz} non-zeros, \
         {BATCH} lanes)"
    );
    assert!(reports.iter().all(|r| r.iterations == 5));
}

/// Serves `lanes`-wide windows in order on one retained arena, solver and
/// report buffer, and checks that every window after the first allocates
/// nothing and matches a cold arena bit for bit.
fn serve_widths(skel: &AdmmSkeleton, nd: usize, k: usize, lanes: &[usize]) {
    let cfg = AdmmConfig::fine_tune(1024);
    // Traffic and warm starts are minted up front, outside the counts.
    let windows: Vec<(Vec<TrafficMatrix>, Vec<Allocation>)> = lanes
        .iter()
        .enumerate()
        .map(|(w, &nb)| {
            let tms = (0..nb)
                .map(|b| {
                    TrafficMatrix::new(
                        (0..nd)
                            .map(|d| ((w * 31 + b * 7 + d) % 23) as f64 * 1.7)
                            .collect(),
                    )
                })
                .collect();
            let inits = (0..nb)
                .map(|b| {
                    Allocation::from_splits(
                        k,
                        (0..nd * k)
                            .map(|p| ((p + b + w) % 5) as f64 * 0.3)
                            .collect(),
                    )
                })
                .collect();
            (tms, inits)
        })
        .collect();
    let mut cold = windows
        .iter()
        .map(|(_, inits)| inits.clone())
        .collect::<Vec<_>>();
    for ((tms, _), allocs) in windows.iter().zip(&mut cold) {
        skel.batch_solver(tms).run_batch_in_place(
            allocs,
            cfg,
            &mut BatchArena::new(),
            &mut Vec::new(),
        );
    }

    let mut arena = BatchArena::new();
    let mut reports = Vec::new();
    let mut solver = skel.batch_solver(&windows[0].0);
    for (w, ((tms, mut allocs), cold)) in windows.into_iter().zip(&cold).enumerate() {
        let before = thread_alloc_bytes();
        skel.remint_batch_solver(&mut solver, &tms);
        solver.run_batch_in_place(&mut allocs, cfg, &mut arena, &mut reports);
        let grew = thread_alloc_bytes() - before;
        let nb = tms.len();
        if w > 0 {
            assert_eq!(grew, 0, "{nb}-lane window {w} allocated {grew} B");
        }
        assert_eq!(
            &allocs, cold,
            "{nb}-lane window {w} diverged from a cold arena"
        );
        assert_eq!(reports.len(), nb);
        assert!(reports.iter().all(|r| r.iterations == cfg.max_iters));
    }
}

#[test]
fn narrower_windows_allocate_nothing() {
    // 109 demands x 5 paths = 545 paths: 16, 7 and 3 lanes each leave rows
    // over for the tail (1, 6 and 2 of them), and the 7-lane tail is the
    // longest, so a tail sized to the window's own shape would grow there.
    let topo = generate(TopoKind::Swan, 0.4, 7);
    let mut pairs = topo.all_pairs();
    pairs.truncate(109);
    let paths = PathSet::compute(&topo, &pairs, 5);
    let np = paths.num_paths();
    assert!(
        [16, 7, 3].iter().all(|&nb| !np.is_multiple_of(nb)),
        "{np} paths leave no tail"
    );
    assert!(
        np % 7 * 7 > np % 16 * 16,
        "the 7-lane tail is not the longest"
    );
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    serve_widths(
        &skel,
        paths.num_demands(),
        paths.k(),
        &[16, 16, 7, 3, 1, 16],
    );

    // One B4 pair at 8 lanes: more lanes than paths, so every F-step row
    // lives in the tail.
    let topo = b4();
    let paths = PathSet::compute(&topo, &topo.all_pairs()[..1], 4);
    assert!(paths.num_paths() < 8);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    serve_widths(&skel, paths.num_demands(), paths.k(), &[8, 8]);
}
