//! The allocation-free steady state of the **failure path** (§5.3),
//! machine-checked: with the failure-overridden skeleton hoisted (one
//! `with_topology` per failure *scenario*, as the serving shard's
//! signature-grouped sub-batches do), repeated failure windows reminted
//! into a retained solver + [`BatchArena`] perform **zero heap
//! allocations** — even while *alternating* with plain windows on the same
//! retained state, the shard's actual serving pattern.
//!
//! Companion to `steady_state_alloc.rs` (which pins the plain path), on
//! the same per-thread counting allocator (`common/mod.rs`).

mod common;

use common::thread_allocs;
use teal_lp::{AdmmConfig, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::TrafficMatrix;

#[test]
fn failure_windows_allocate_nothing_in_steady_state() {
    // The serving shape of a failure burst: SWAN, 16-matrix windows, the
    // paper's 5-iteration fine-tune, one link failed (capacity zeroed).
    let topo = generate(TopoKind::Swan, 0.4, 7);
    let mut pairs = topo.all_pairs();
    pairs.truncate(60);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let skel = AdmmSkeleton::new(&topo, &paths, Objective::TotalFlow);
    // Hoisted once per failure scenario — the override skeleton shares the
    // incidence index and only reclones the capacity vector.
    let failed_topo = {
        let e = &topo.edges()[0];
        topo.with_failed_link(e.src, e.dst)
    };
    let skel_on = skel.with_topology(&failed_topo);
    let nd = paths.num_demands();
    let k = paths.k();
    let cfg = AdmmConfig {
        rho: 1.0,
        max_iters: 5,
        tol: 0.0,
    };

    const WINDOWS: usize = 8;
    const BATCH: usize = 16;
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

    // Warm-up: one plain and one failure window grow every buffer.
    let mut solver = skel.batch_solver(&windows[0]);
    solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
    skel_on.remint_batch_solver(&mut solver, &windows[1]);
    solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);

    // Vacuous-pass guard: the warm-up allocated, and this thread saw it.
    assert!(thread_allocs() > 0, "per-thread counter is dead");

    // Steady state: alternate failure and plain windows on the retained
    // solver/arena — exactly the shard's signature-grouped drain pattern.
    // Every remint + solve must be allocation-free.
    let mut failure_outputs = 0usize;
    for (w, tms) in windows.iter().enumerate().skip(2) {
        let on_failure = w % 2 == 0;
        let use_skel = if on_failure { &skel_on } else { &skel };
        let before = thread_allocs();
        use_skel.remint_batch_solver(&mut solver, tms);
        solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
        let grew = thread_allocs() - before;
        assert_eq!(
            grew,
            0,
            "window {w} ({} path) performed {grew} heap allocations in steady state",
            if on_failure { "failure" } else { "plain" }
        );
        if on_failure {
            failure_outputs += 1;
            // The override actually bit: no window serves with identical
            // splits to the plain skeleton on the same traffic.
            let mut plain = Vec::new();
            skel.batch_solver(tms).run_batch_into(
                &inits,
                cfg,
                &mut BatchArena::new(),
                &mut plain,
                &mut Vec::new(),
            );
            assert!(
                outs.iter()
                    .zip(plain.iter())
                    .any(|(a, b)| a.splits() != b.splits()),
                "window {w}: failure override did not change the solution"
            );
        }
    }

    assert!(failure_outputs >= 3, "too few failure windows exercised");
    assert_eq!(outs.len(), BATCH);
    assert!(reports.iter().all(|r| r.iterations == 5));
    assert!(outs.iter().any(|a| a.splits().iter().any(|&v| v > 0.0)));
}
