//! Release-mode scale smoke (scale PR): a 512-node generated WAN served
//! end-to-end through the TCP front end — KSP precompute, FlowGNN forward,
//! batched ADMM fine-tuning, wire round-trip — under a wall-clock cap, with
//! a separate cap on the KSP precompute.
//!
//! `#[ignore]`d by default: a debug build would blow the cap on the
//! precompute alone. CI runs it in release via
//! `cargo test -p teal-serve --release --test scale_smoke -- --ignored`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, TealClient, TealServer};
use teal_topology::{gravity_pairs, large_wan, PathSet};
use teal_traffic::TrafficMatrix;

/// Requests per serving window.
const WINDOW: usize = 8;

#[test]
#[ignore = "release-mode scale smoke; run with --ignored"]
fn serves_512_node_generated_wan_within_wall_clock_cap() {
    let total_start = Instant::now();

    // 512-node scale-free WAN with gravity-sampled demand pairs; the KSP
    // precompute runs once here, like a real serving deployment.
    const N: usize = 512;
    let topo = large_wan(N, 11);
    let pairs = gravity_pairs(&topo, 2 * N, 12);
    let paths = PathSet::compute(&topo, &pairs, 4);

    // The precompute's own cap, as CPU time so it reads the same on a 1-CPU
    // and an 8-CPU runner: best of three runs x the workers `compute` uses
    // (its policy is `available_parallelism().min(8)`). Goal-directed spur
    // searches need ~40 CPU-ms here; searches that flood the graph need
    // ~200, so a silent fall-back fails this rather than only the
    // benchmark. (`searches_stay_goal_directed` in teal-topology guards the
    // same thing as an exact heap-pop count.)
    let workers = std::thread::available_parallelism().map_or(1, |v| v.get().min(8));
    let ksp_wall = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(PathSet::compute(&topo, &pairs, 4));
            start.elapsed()
        })
        .min()
        .expect("three runs");
    let ksp_cpu = ksp_wall * workers as u32;
    assert!(
        ksp_cpu < Duration::from_millis(100),
        "512-node KSP precompute took {ksp_wall:?} on {workers} workers (cap 100 CPU-ms)"
    );

    let env = Arc::new(Env::new(topo, paths));
    let nd = env.num_demands();

    let ctx = ServingContext::new(
        TealModel::new(
            Arc::clone(&env),
            TealConfig {
                gnn_layers: 3,
                seed: 3,
                ..TealConfig::default()
            },
        ),
        EngineConfig::paper_default(env.topo().num_nodes()),
    );
    let registry = ModelRegistry::new();
    registry.insert("wan512", ctx);
    let daemon = Arc::new(ServeDaemon::start(registry, ServeConfig::default()));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let client = TealClient::connect(server.local_addr()).expect("connect");

    // One serving window of heterogeneous matrices over the wire.
    let window_start = Instant::now();
    for i in 0..WINDOW {
        let tm = TrafficMatrix::new((0..nd).map(|d| ((d + 3 * i) % 17) as f64 * 0.5).collect());
        let reply = client.allocate("wan512", tm).expect("allocate over wire");
        assert_eq!(reply.allocation.num_demands(), nd, "request {i} arity");
    }
    let window = window_start.elapsed();
    let stats = daemon.stats();
    assert_eq!(stats.queue_depth, 0, "window left queued work: {stats:?}");

    // Caps with generous margin for loaded CI runners: the window itself
    // benches sub-second locally; end-to-end includes the one-off KSP
    // precompute and model init.
    assert!(
        window < Duration::from_secs(30),
        "512-node serving window took {window:?} (cap 30s)"
    );
    assert!(
        total_start.elapsed() < Duration::from_secs(150),
        "end-to-end smoke took {:?} (cap 150s)",
        total_start.elapsed()
    );
}
