//! One ADMM arena per thread: a one-shot window (`try_allocate_batch`, no
//! caller scratch) runs its ADMM stage in the same arena as the thread's
//! retained-scratch windows, so it requests exactly the bytes a retained
//! call does — no second arena — and serves the same bits. A warm arena
//! (after a different-shape window and a failed-link window) serves what a
//! cold one, on a freshly spawned thread, serves.
//!
//! Byte counts are the requested bytes that the workspace's metering
//! allocator (`teal-meter`) counts per thread, and the windows run inline
//! under `with_thread_cap(1, ..)`, so every byte a window requests lands on
//! the thread that reads the counter. It prints one ledger line.

// The cold arena is a freshly spawned thread's, so the test starts one.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use teal_core::{BatchScratch, EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_lp::Allocation;
use teal_meter::thread_bytes;
use teal_topology::{gravity_pairs, large_wan, PathSet};
use teal_traffic::TrafficMatrix;

#[global_allocator]
static METER: teal_meter::Meter = teal_meter::Meter;

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

/// Every split of every allocation, as bits.
fn bits(allocs: &[Allocation]) -> Vec<u64> {
    allocs
        .iter()
        .flat_map(|a| a.splits().iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn a_one_shot_window_reuses_the_threads_arena() {
    let wan = large_wan(256, 7);
    let paths = PathSet::compute(&wan, &gravity_pairs(&wan, 512, 7), 4);
    let env = Arc::new(Env::new(wan, paths));
    let ctx = ServingContext::new(
        TealModel::new(Arc::clone(&env), TealConfig::default()),
        EngineConfig::paper_default(env.topo().num_nodes()),
    );
    let nd = env.num_demands();
    let crossed: Vec<usize> = (0..env.topo().num_edges())
        .filter(|&e| !env.paths().paths_on_edge(e).is_empty())
        .collect();
    let link = &env.topo().edges()[crossed[0]];
    let failed = env.topo().with_failed_link(link.src, link.dst);
    let lanes = 8;
    let w8 = window(nd, lanes, 0);

    teal_nn::pool::with_thread_cap(1, || {
        let mut scratch = BatchScratch::new();
        ctx.try_allocate_batch_with(&w8, &mut scratch)
            .expect("warm-up window");

        let before = thread_bytes();
        let (retained, _) = ctx
            .try_allocate_batch_with(&w8, &mut scratch)
            .expect("retained window");
        let retained_bytes = thread_bytes() - before;
        let before = thread_bytes();
        let (one_shot, _) = ctx.try_allocate_batch(&w8).expect("one-shot window");
        let one_shot_bytes = thread_bytes() - before;

        // The arena's rows: per path F; per demand s1 and λ1; per crossed
        // edge s3, λ3, μ and δ; the sweeps' 2k + 4 working rows and the
        // three step maxima. Plus the F-step's tail, which reserves lanes²
        // values (its other rows live in the window's allocations).
        let k = env.paths().k();
        let arena_bytes = 8
            * ((env.paths().num_paths() + 2 * nd + 4 * crossed.len() + 2 * k + 7) * lanes
                + lanes * lanes);
        println!(
            "one_arena_per_thread: {lanes} x large_wan(256), {} paths, {nd} demands, \
             {} crossed edges: retained call {retained_bytes} B, one-shot call \
             {one_shot_bytes} B, arena 8 x ((paths + 2·demands + 4·crossed + 2k + 7) \
             x lanes + lanes²) = {arena_bytes} B",
            env.paths().num_paths(),
            crossed.len(),
        );
        assert_eq!(bits(&one_shot), bits(&retained), "one-shot window diverged");
        assert_eq!(
            one_shot_bytes,
            retained_bytes,
            "a one-shot window requested {} B more than a retained one: a second arena",
            one_shot_bytes as i64 - retained_bytes as i64
        );

        // Warm the arena on another shape and a failed-link window, then
        // serve a probe window here and on a cold thread.
        ctx.try_allocate_batch_with(&window(nd, 3, 1), &mut scratch)
            .expect("three-matrix window");
        ctx.try_allocate_batch_on_with(&failed, &window(nd, 5, 2), &mut scratch)
            .expect("failed-link window");
        let probe = window(nd, lanes, 3);
        let (warm, _) = ctx.try_allocate_batch(&probe).expect("warm probe");
        let cold = std::thread::scope(|s| {
            s.spawn(|| ctx.try_allocate_batch(&probe))
                .join()
                .expect("cold thread")
        });
        let (cold, _) = cold.expect("cold probe");
        assert_eq!(
            bits(&warm),
            bits(&cold),
            "warm arena diverged from a cold one"
        );
    });
}
