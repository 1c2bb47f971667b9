//! Heap allocations per serving window, pinned as a constant plus a
//! per-matrix term, on windows that alternate plain and failed-link.
//!
//! Per matrix, [`PER_MATRIX`] = 9:
//! - 3 for the model input: `path_init`, the edge block, `edge_init`;
//! - 4 for the forward pass: FlowGNN's three buffers and the logits;
//! - 2 for the softmax: its one k-wide row and the allocation's splits.
//!
//! The whole-tensor forward this replaced made 49 per matrix: one fresh
//! tensor per message, concatenation, growth column and layer output.
//! Per window, a plain window makes 2 more (the result slots and the reply
//! vector) and a failed-link window 6 (the skeleton's capacity override and
//! the dead-path list as well). ADMM makes none once the thread's arena is
//! warm.
//!
//! The count is taken on the calling thread with a per-thread counting
//! global allocator, under `TEAL_NN_THREADS=1` (set here, before the first
//! pool job, since the cap is read once per process), so every allocation
//! a window makes lands on the thread that reads the counter. The binary
//! holds this one `#[test]`. It prints one ledger line.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use teal_core::{BatchScratch, EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_topology::{gravity_pairs, large_wan, PathSet};
use teal_traffic::TrafficMatrix;

/// `System` plus a per-thread count of allocation calls.
struct CountingAlloc;

thread_local! {
    /// `alloc`, `alloc_zeroed` and `realloc` calls made by this thread.
    /// Const-initialized and destructor-free, so touching it from inside
    /// the allocator neither allocates nor outlives the thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with`: a thread being torn down may allocate after its locals.
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System`, so `System` upholds
// GlobalAlloc's contract; the counter touches no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: pure pass-through — the caller upholds GlobalAlloc's
        // contract, which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        // SAFETY: pass-through, as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pass-through; `ptr`/`layout` came from this allocator,
        // i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        // SAFETY: pass-through; caller's GlobalAlloc obligations forward
        // unchanged to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations per matrix of a window.
const PER_MATRIX: u64 = 9;
/// Allocations per plain window, whatever its size.
const PER_PLAIN_WINDOW: u64 = 2;
/// Allocations per failed-link window, whatever its size.
const PER_FAILED_WINDOW: u64 = 6;

/// A window of `nb` matrices over `nd` demands, distinct per `seed`.
fn window(nd: usize, nb: usize, seed: usize) -> Vec<TrafficMatrix> {
    (0..nb)
        .map(|b| {
            TrafficMatrix::new(
                (0..nd)
                    .map(|d| 2.0 + ((d * 7 + b * 13 + seed * 31) % 23) as f64)
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn window_allocations_are_a_constant_plus_a_per_matrix_term() {
    std::env::set_var("TEAL_NN_THREADS", "1");
    assert_eq!(teal_nn::pool::max_threads(), 1, "thread cap already frozen");

    let wan = large_wan(256, 7);
    let paths = PathSet::compute(&wan, &gravity_pairs(&wan, 512, 7), 4);
    let env = Arc::new(Env::new(wan, paths));
    let ctx = ServingContext::new(
        TealModel::new(Arc::clone(&env), TealConfig::default()),
        EngineConfig::paper_default(env.topo().num_nodes()),
    );
    let nd = env.num_demands();
    let link = (0..env.topo().num_edges())
        .find(|&e| !env.paths().paths_on_edge(e).is_empty())
        .map(|e| &env.topo().edges()[e])
        .expect("a crossed edge");
    let failed = env.topo().with_failed_link(link.src, link.dst);

    let mut scratch = BatchScratch::new();
    let mut calls = |seed: usize, nb: usize, on_failed: bool| {
        let tms = window(nd, nb, seed);
        let before = CALLS.with(Cell::get);
        let served = if on_failed {
            ctx.try_allocate_batch_on_with(&failed, &tms, &mut scratch)
        } else {
            ctx.try_allocate_batch_with(&tms, &mut scratch)
        };
        let calls = CALLS.with(Cell::get) - before;
        assert_eq!(served.expect("window").0.len(), nb);
        calls
    };
    // Warm the thread's ADMM arena at full width, on both kinds.
    calls(0, 8, false);
    calls(1, 8, true);

    let mut seen = Vec::new();
    for (w, nb) in [8, 8, 1, 1, 3, 3, 8, 8].into_iter().enumerate() {
        let on_failed = w % 2 == 1;
        seen.push((nb, on_failed, calls(w + 2, nb, on_failed)));
    }
    let line: Vec<String> = seen
        .iter()
        .map(|&(nb, on_failed, n)| {
            let kind = if on_failed { "failed-link" } else { "plain" };
            format!("{nb} x {kind} {n}")
        })
        .collect();
    println!(
        "window_allocations: large_wan(256), {} paths: {} (want {PER_MATRIX} per matrix + \
         {PER_PLAIN_WINDOW} per plain / {PER_FAILED_WINDOW} per failed-link window)",
        env.paths().num_paths(),
        line.join(", ")
    );
    for (nb, on_failed, n) in seen {
        let per_window = if on_failed {
            PER_FAILED_WINDOW
        } else {
            PER_PLAIN_WINDOW
        };
        assert_eq!(
            n,
            per_window + PER_MATRIX * nb as u64,
            "{nb}-matrix window (failed link: {on_failed})"
        );
    }
}
