//! Footprint ledger of the per-topology serving state: the live heap
//! `Env::new` and `ServingContext::new` add, byte for byte, against what the
//! `env.rs` and `admm.rs` docs say they store.
//!
//! * `Env::new` owns one incidence array: `A`'s sorted `u32` columns. `Aᵀ`
//!   is the path set's edge→path arena and `A`'s offsets are the path set's
//!   path-major offsets, both shared, and no `Csr` carries values — so a
//!   second copy of either direction, a values array or an offsets array
//!   shows up here as bytes no term accounts for.
//! * `ServingContext::new` builds the ADMM skeleton: per row (crossed edge)
//!   an `f64` capacity and two `u32`s, per non-zero one `u32` row id, and
//!   under `TotalFlow` nothing per path (no discounts, no offsets).
//!
//! * One `TealModel::infer_mu` call on a freshly built one-matrix input
//!   peaks at the documented buffer plan: the input (`P` path and `E` edge
//!   f32s), FlowGNN's three buffers `4·(P·D + 2·E·D)` bytes at the final
//!   width `D`, and nothing else — the `[demands, k]` logits are allocated
//!   after the edge pair is freed, and a message tensor, a concatenation, a
//!   policy hidden tensor or a spare per-layer tensor shows up as bytes no
//!   term accounts for. The whole-tensor forward it replaced peaked at
//!   218,360 B at `large_wan(256)` and 878,224 B at `large_wan(1024)`,
//!   against 120,056 B and 485,008 B now.
//!
//! The ledger line also prints every figure at `large_wan(1024, 7)` with
//! 2,048 gravity pairs (the repo benchmark's `wan1024_window` state), in
//! optimised builds only: its path search is too slow unoptimised. With a
//! valued, copied incidence `Env::new` added 620,652 B there.
//!
//! It counts live bytes (allocations minus frees) across *all* threads,
//! because `PathSet::compute` runs on scoped workers, so it is its own
//! binary with no test harness: nothing else runs while it measures.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicIsize, Ordering::SeqCst};
use std::sync::Arc;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_nn::Csr;
use teal_topology::{b4, gravity_pairs, large_wan, PathSet};
use teal_traffic::TrafficMatrix;

/// `System` plus one process-wide count of live bytes and its high-water
/// mark.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Add `delta` live bytes and raise the high-water mark to match.
fn add_live(delta: isize) {
    let live = LIVE.fetch_add(delta, SeqCst) + delta;
    PEAK.fetch_max(live, SeqCst);
}

// SAFETY: every method forwards to `System`, so `System` upholds
// GlobalAlloc's contract; the counter touches no allocated memory.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as isize);
        // SAFETY: pure pass-through — the caller upholds GlobalAlloc's
        // contract, which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, SeqCst);
        // SAFETY: pass-through; `ptr`/`layout` came from this allocator,
        // i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as isize - layout.size() as isize);
        // SAFETY: pass-through; caller's GlobalAlloc obligations forward
        // unchanged to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// `build()`'s result, still alive, and the live bytes it added.
fn measure<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(SeqCst);
    let built = build();
    (built, (LIVE.load(SeqCst) - before) as usize)
}

/// `run()`'s result and the most live bytes it added at any point.
fn measure_peak<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let out = run();
    (out, (PEAK.load(SeqCst) - before) as usize)
}

/// The heap block of an `Arc<T>`: two counts, then the value.
fn arc_of(value: Layout) -> usize {
    Layout::new::<[usize; 2]>()
        .extend(value)
        .unwrap()
        .0
        .pad_to_align()
        .size()
}

/// The heap block of an `Arc<[u32]>` of `n` ids.
fn arc_u32s(n: usize) -> usize {
    arc_of(Layout::array::<u32>(n).unwrap())
}

/// One topology's measured and documented bytes.
struct Ledger {
    nodes: usize,
    paths: usize,
    nnz: usize,
    rows: usize,
    env: usize,
    env_want: usize,
    ctx: usize,
    ctx_want: usize,
    edges: usize,
    width: usize,
    infer: usize,
    infer_want: usize,
}

fn ledger(nodes: usize) -> Ledger {
    let topo = large_wan(nodes, 7);
    let pairs = gravity_pairs(&topo, 2 * nodes, 6);
    let paths = PathSet::compute(&topo, &pairs, 4);
    let num_paths = paths.num_paths();
    let nnz = paths.edge_path_arena().1.len();
    let rows = (0..paths.num_edges())
        .filter(|&e| !paths.paths_on_edge(e).is_empty())
        .count();

    let (env, env_bytes) = measure(move || Env::new(topo, paths));
    // `A`'s sorted columns, and the two `Arc<Csr>` blocks.
    let env_want = arc_u32s(nnz) + 2 * arc_of(Layout::new::<Csr>());

    let env = Arc::new(env);
    let model_cfg = TealConfig::default();
    let model = TealModel::new(Arc::clone(&env), model_cfg);
    let tm = TrafficMatrix::new((0..env.num_demands()).map(|d| (d % 17) as f64).collect());
    let (mu, infer) = measure_peak(|| model.infer_mu(&env.model_input(&tm, None)));
    let width = 1 + (model_cfg.gnn_layers - 1) * model_cfg.embed_growth;
    let edges = env.topo().num_edges();
    let f32s = |n: usize| n * size_of::<f32>();
    let logits = f32s(mu.len());
    let gnn = f32s(num_paths * width + 2 * edges * width);
    assert!(
        logits <= f32s(2 * edges * width),
        "the logits fit in the freed edge pair"
    );
    let infer_want = f32s(num_paths + edges) + gnn;
    drop(mu);
    let cfg = EngineConfig::paper_default(nodes);
    let (ctx, ctx_bytes) = measure(move || ServingContext::new(model, cfg));
    // The index's fields: two shared `Arc<[u32]>` handles (the path set's
    // path-major offsets and `e2p`) and three owned `Vec<u32>`s.
    let index = Layout::new::<(Arc<[u32]>, Arc<[u32]>, Vec<u32>, Vec<u32>, Vec<u32>)>();
    let ctx_want = arc_of(Layout::new::<Vec<f64>>())
        + rows * size_of::<f64>()
        + arc_of(index)
        + (rows + 1) * size_of::<u32>()
        + rows * size_of::<u32>()
        + nnz * size_of::<u32>();
    drop(ctx);
    Ledger {
        nodes,
        paths: num_paths,
        nnz,
        rows,
        env: env_bytes,
        env_want,
        ctx: ctx_bytes,
        ctx_want,
        edges,
        width,
        infer,
        infer_want,
    }
}

fn main() {
    // The first scoped spawn allocates process-lifetime state (the main
    // thread's handle); a B4 path set with more than one claim spawns.
    drop(PathSet::compute(&b4(), &b4().all_pairs(), 4));

    let mut ledgers = vec![ledger(256)];
    if !cfg!(debug_assertions) {
        ledgers.push(ledger(1024));
    }
    let line: Vec<String> = ledgers
        .iter()
        .map(|l| {
            format!(
                "large_wan({}) {} paths, {} edges, {} non-zeros, {} crossed edges: \
                 Env::new {} B (want {}: columns + 2 Arc<Csr>), ServingContext::new {} B \
                 (want {}: per row 8 + 4 + 4, per non-zero 4, per path 0), infer_mu peak \
                 {} B (want {}: input 4·(P + E) + buffers 4·(P·D + 2·E·D), D = {})",
                l.nodes,
                l.paths,
                l.edges,
                l.nnz,
                l.rows,
                l.env,
                l.env_want,
                l.ctx,
                l.ctx_want,
                l.infer,
                l.infer_want,
                l.width
            )
        })
        .collect();
    println!("footprint: {}", line.join("; "));
    for l in &ledgers {
        assert_eq!(l.env, l.env_want, "Env::new at {} nodes", l.nodes);
        assert_eq!(
            l.ctx, l.ctx_want,
            "ServingContext::new at {} nodes",
            l.nodes
        );
        assert_eq!(l.infer, l.infer_want, "infer_mu peak at {} nodes", l.nodes);
    }
}
