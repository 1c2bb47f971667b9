//! The epoll front end serves a mostly idle connection population on a
//! fixed thread budget: attaching 256 handshaken keepalive sockets adds no
//! server thread, and the total stays within shards + 3. A test binary of
//! its own, so no other test's server can pollute the thread count.
// The loom model-check build leaves `TealServer` out (`lib.rs`), so this
// socket test builds only without it, as `model_check.rs` builds only with it.
#![cfg(not(teal_loom))]

mod common;

use std::net::TcpStream;
use std::sync::Arc;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{ModelRegistry, ServeConfig, ServeDaemon, TealClient, TealServer};
use teal_topology::{generate, TopoKind};
use teal_traffic::TrafficMatrix;

/// Live threads whose `comm` starts with `teal-serve` — the epoll loop and
/// the shard dispatchers. `comm` truncates names to 15 bytes, which keeps
/// the prefix; client readers (`teal-client-*`) and nn pool helpers
/// (`teal-nn-*`) don't match.
fn serve_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("teal-serve"))
        .count()
}

#[test]
fn idle_connections_add_no_server_threads() {
    const IDLE_CONNS: usize = 256;

    let topos = [
        ("b4", teal_topology::b4()),
        ("swan", generate(TopoKind::Swan, 0.3, 7)),
    ];
    let envs = topos.map(|(id, topo)| (id, Arc::new(Env::for_topology(topo))));
    let registry = ModelRegistry::new();
    for (id, env) in &envs {
        let model = TealModel::new(Arc::clone(env), TealConfig::default());
        let engine = EngineConfig::paper_default(env.topo().num_nodes());
        registry.insert(*id, ServingContext::new(model, engine));
    }
    let daemon = Arc::new(ServeDaemon::start(registry, ServeConfig::default()));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    let client = TealClient::connect(addr).expect("active client connect");
    let serve = |i: usize| {
        let (id, env) = &envs[i % envs.len()];
        let tm = TrafficMatrix::new(vec![1.0 + i as f64; env.num_demands()]);
        let reply = client.allocate(*id, tm).expect("served");
        assert!(reply.allocation.demand_feasible(1e-6));
    };
    // Shard dispatchers spawn on a topology's first request: start both
    // before taking the baseline.
    serve(0);
    serve(1);
    let before = serve_thread_count();

    // Raw handshaken sockets that then sit there (not `TealClient`s, which
    // would each spawn a client-side reader).
    let idle: Vec<TcpStream> = (0..IDLE_CONNS)
        .map(|_| common::raw_handshake(addr))
        .collect();

    // The server still serves with the idle population attached.
    (0..6).for_each(serve);

    let after = serve_thread_count();
    assert_eq!(after, before, "idle connections changed the thread count");
    assert!(after <= envs.len() + 3, "{after} threads > shards + 3");
    drop(idle);
}
