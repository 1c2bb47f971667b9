//! The thread-pair probe: whole serving windows, one thread against
//! whatever helpers the process has, alternating in one process — what a
//! window's fan-out buys at each size and what its spawn-and-join costs at
//! the small end. It prints; it gates no wall clock.
//!
//! `#[ignore]`d (release only, CI runs it with `--include-ignored
//! --nocapture`). Like `window_pool_jobs` the binary holds a single `#[test]`
//! and pins `TEAL_NN_THREADS=4` before the first job. Asserted: the two
//! columns serve the same bits, and helpers took chunks.

use std::sync::Arc;
use std::time::Instant;
use teal_core::{BatchScratch, EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_lp::Allocation;
use teal_topology::{b4, generate, gravity_pairs, large_wan, PathSet, TopoKind};
use teal_traffic::TrafficMatrix;

const ROUNDS: usize = 21;

fn context(env: Env) -> ServingContext<TealModel> {
    let env = Arc::new(env);
    let nodes = env.topo().num_nodes();
    let model = TealModel::new(Arc::clone(&env), TealConfig::default());
    ServingContext::new(model, EngineConfig::paper_default(nodes))
}

/// q1 / median / q3 of `ms`, in place.
fn quartiles(ms: &mut [f64]) -> [f64; 3] {
    ms.sort_by(f64::total_cmp);
    [ms.len() / 4, ms.len() / 2, ms.len() * 3 / 4].map(|i| ms[i])
}

#[test]
#[ignore = "release-only probe; CI runs it with --include-ignored --nocapture"]
fn window_thread_pairs() {
    std::env::set_var("TEAL_NN_THREADS", "4");
    assert_eq!(teal_nn::pool::max_threads(), 4, "thread cap already frozen");

    let wan = large_wan(256, 7);
    let wan_paths = PathSet::compute(&wan, &gravity_pairs(&wan, 512, 8), 4);
    let contexts = [
        context(Env::new(wan, wan_paths)),
        context(Env::for_topology(generate(TopoKind::Swan, 0.3, 7))),
        context(Env::for_topology(b4())),
    ];
    let [wan, swan, b4] = &contexts;
    let cells = [
        ("8 x large_wan(256)", wan, 8usize),
        ("16 x Swan(0.3)", swan, 16),
        ("16 x B4", b4, 16),
        ("4 x B4", b4, 4),
        ("2 x B4", b4, 2),
    ];
    println!(
        "window_thread_pairs: {} helper slots, {ROUNDS} alternating rounds, ms q1/median/q3",
        teal_nn::pool::worker_count()
    );
    let started = teal_nn::pool::stats();
    for (name, ctx, nb) in cells {
        let nd = ctx.env().num_demands();
        let tms: Vec<TrafficMatrix> = (0..nb)
            .map(|i| TrafficMatrix::new(vec![6.0 + 5.0 * i as f64; nd]))
            .collect();
        let mut scratch = BatchScratch::new();
        let mut window = || -> (Vec<Allocation>, f64) {
            let t = Instant::now();
            let (allocs, _) = ctx
                .try_allocate_batch_with(&tms, &mut scratch)
                .expect("window");
            (allocs, t.elapsed().as_secs_f64() * 1e3)
        };
        let (want, _) = window();
        let (mut one, mut all) = (Vec::new(), Vec::new());
        let before = teal_nn::pool::stats();
        for round in 0..ROUNDS {
            let (inline, ms) = teal_nn::pool::with_thread_cap(1, &mut window);
            one.push(ms);
            let (fanned, ms) = window();
            all.push(ms);
            assert_eq!(inline, want, "{name} round {round}: one thread diverged");
            assert_eq!(fanned, want, "{name} round {round}: fan-out diverged");
        }
        let after = teal_nn::pool::stats();
        let helper = after.helper_chunks - before.helper_chunks;
        let share = helper as f64 / (ROUNDS * nb) as f64;
        let ([a, b, c], [d, e, f]) = (quartiles(&mut one), quartiles(&mut all));
        println!(
            "  {name:<20} one thread {a:.3}/{b:.3}/{c:.3}  uncapped {d:.3}/{e:.3}/{f:.3}  \
             helper_chunks share {share:.2}"
        );
    }
    let helper = teal_nn::pool::stats().helper_chunks - started.helper_chunks;
    assert!(
        teal_nn::pool::worker_count() == 0 || helper > 0,
        "no helper took a chunk of any fanned-out window"
    );
}
