//! The allocation-free steady state of the **failure path** (§5.3),
//! machine-checked: with the failure-overridden skeleton hoisted (one
//! `with_topology` per failure *scenario*, as the serving shard's
//! signature-grouped sub-batches do), repeated failure windows reminted
//! into a retained solver + [`BatchArena`] perform **zero heap
//! allocations** — even while *alternating* with plain windows on the same
//! retained state, the shard's actual serving pattern.
//!
//! Companion to `steady_state_alloc.rs` (which pins the plain path); this
//! file holds exactly one `#[test]` for the same reason — the counting
//! global allocator must not see another test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use teal_lp::{AdmmConfig, AdmmSkeleton, Allocation, BatchArena, Objective};
use teal_topology::{generate, PathSet, TopoKind};
use teal_traffic::TrafficMatrix;

/// `System` plus an allocation counter (allocations only — frees are
/// irrelevant to the claim being tested).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: pure pass-through — the caller upholds GlobalAlloc's
        // contract, which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pass-through; `ptr`/`layout` came from this allocator,
        // i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: pass-through; caller's GlobalAlloc obligations forward
        // unchanged to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn failure_windows_allocate_nothing_in_steady_state() {
    // Cap 1 keeps the worker pool's own bookkeeping out of the measurement
    // (see `steady_state_alloc.rs`).
    teal_nn::pool::with_thread_cap(1, failure_windows);
}

fn failure_windows() {
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

    // Steady state: alternate failure and plain windows on the retained
    // solver/arena — exactly the shard's signature-grouped drain pattern.
    // Every remint + solve must be allocation-free.
    let mut failure_outputs = 0usize;
    for (w, tms) in windows.iter().enumerate().skip(2) {
        let on_failure = w % 2 == 0;
        let use_skel = if on_failure { &skel_on } else { &skel };
        let before = ALLOCS.load(Ordering::SeqCst);
        use_skel.remint_batch_solver(&mut solver, tms);
        solver.run_batch_into(&inits, cfg, &mut arena, &mut outs, &mut reports);
        let grew = ALLOCS.load(Ordering::SeqCst) - before;
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
