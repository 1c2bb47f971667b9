//! The wire front end's acceptance test (ISSUE 5): a [`TealClient`] over
//! loopback TCP submits a mixed window — plain, deadline'd, and
//! failed-link requests — to a [`TealServer`] and gets allocations
//! **bitwise-equal** to direct [`ServingContext`] calls, with sheds and
//! expiries visible in the daemon's [`TelemetrySnapshot`].

mod common;

use std::sync::Arc;
use std::time::Duration;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{
    ModelRegistry, ServeConfig, ServeDaemon, ServeError, SubmitRequest, TealClient, TealServer,
};
use teal_topology::{generate, TopoKind};
use teal_traffic::TrafficMatrix;

fn model_cfg(seed: u64) -> TealConfig {
    TealConfig {
        gnn_layers: 3,
        seed,
        ..TealConfig::default()
    }
}

fn context(env: &Arc<Env>, seed: u64) -> ServingContext<TealModel> {
    ServingContext::new(
        TealModel::new(Arc::clone(env), model_cfg(seed)),
        EngineConfig::paper_default(env.topo().num_nodes()),
    )
}

#[test]
fn mixed_window_over_loopback_matches_direct_context_bitwise() {
    let env_b4 = Arc::new(Env::for_topology(teal_topology::b4()));
    let env_swan = Arc::new(Env::for_topology(generate(TopoKind::Swan, 0.3, 7)));
    // Reference contexts: same seeds as the registry's, never served.
    let ref_b4 = context(&env_b4, 0);
    let ref_swan = context(&env_swan, 5);

    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env_b4, 0));
    registry.insert("swan", context(&env_swan, 5));
    // Zero linger: each sequentially-awaited request forms a singleton
    // batch, so the daemon path runs the *identical* batched code the
    // direct `try_allocate_batch` reference runs — bitwise comparable.
    let daemon = Arc::new(ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    ));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let client = TealClient::connect(server.local_addr()).expect("connect");

    let tm_b4 = |i: usize| TrafficMatrix::new(vec![4.0 + 3.0 * i as f64; env_b4.num_demands()]);
    let tm_swan = |i: usize| TrafficMatrix::new(vec![2.0 + 5.0 * i as f64; env_swan.num_demands()]);
    let failed_b4 = env_b4.topo().with_failed_link(0, 1);

    // --- Plain requests, both topologies.
    for i in 0..4 {
        let reply = client.allocate("b4", tm_b4(i)).expect("plain b4");
        let (want, _) = ref_b4
            .try_allocate_batch(std::slice::from_ref(&tm_b4(i)))
            .expect("direct");
        assert_eq!(
            reply.allocation, want[0],
            "plain b4 request {i} not bitwise-equal to direct context call"
        );
        let reply = client.allocate("swan", tm_swan(i)).expect("plain swan");
        let (want, _) = ref_swan
            .try_allocate_batch(std::slice::from_ref(&tm_swan(i)))
            .expect("direct");
        assert_eq!(reply.allocation, want[0], "plain swan request {i}");
    }

    // --- Deadline'd requests with room to spare: must serve identically.
    for i in 4..8 {
        let reply = client
            .submit(&SubmitRequest::new("b4", tm_b4(i)).with_deadline(Duration::from_secs(30)))
            .wait()
            .expect("deadline'd request with budget must serve");
        let (want, _) = ref_b4
            .try_allocate_batch(std::slice::from_ref(&tm_b4(i)))
            .expect("direct");
        assert_eq!(reply.allocation, want[0], "deadline'd b4 request {i}");
    }

    // --- Failed-link requests: the §5.3 recovery path, end to end over
    // TCP, bitwise-equal to the direct failure-override call.
    for i in 8..12 {
        let reply = client
            .submit(&SubmitRequest::new("b4", tm_b4(i)).with_failed_link(0, 1))
            .wait()
            .expect("failure-override request");
        let (want, _) = ref_b4
            .try_allocate_batch_on(&failed_b4, std::slice::from_ref(&tm_b4(i)))
            .expect("direct override");
        assert_eq!(
            reply.allocation, want[0],
            "failed-link b4 request {i} not bitwise-equal to try_allocate_batch_on"
        );
        // The failure really changed the answer, or this proves nothing.
        let (plain, _) = ref_b4
            .try_allocate_batch(std::slice::from_ref(&tm_b4(i)))
            .expect("direct plain");
        assert_ne!(reply.allocation, plain[0], "override had no effect");
    }

    // --- Admission control, visible over the wire: a zero budget sheds...
    match client
        .submit(&SubmitRequest::new("b4", tm_b4(0)).with_deadline(Duration::ZERO))
        .wait()
    {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected shed DeadlineExceeded, got {other:?}"),
    }
    // ...and a nonexistent failed link is a typed BadRequest.
    match client
        .submit(&SubmitRequest::new("b4", tm_b4(0)).with_failed_link(0, 11))
        .wait()
    {
        Err(ServeError::BadRequest(msg)) => {
            assert!(msg.contains("failed link"), "wrong diagnosis: {msg}")
        }
        other => panic!("expected BadRequest for bogus link, got {other:?}"),
    }
    // Unknown topology over the wire, too.
    match client.allocate("nowhere", tm_b4(0)) {
        Err(ServeError::UnknownTopology(id)) => assert_eq!(id, "nowhere"),
        other => panic!("expected UnknownTopology, got {other:?}"),
    }

    let stats = daemon.stats();
    assert!(stats.shed >= 1, "shed counter not visible: {stats:?}");
    assert_eq!(stats.queue_depth, 0);
    // 8 plain + 4 deadline'd + 4 failure served, plus the shed (counted —
    // it was admitted to accounting). Submit-time rejects (bad link,
    // unknown topology) are answered without ever entering the daemon, so
    // like the pre-wire daemon they don't count as completed requests.
    assert_eq!(stats.completed, 17, "telemetry miscounted: {stats:?}");
}

#[test]
fn pipelined_concurrent_clients_match_direct_to_tolerance() {
    // Coalesced windows (nonzero linger) under concurrent pipelined wire
    // clients: batched-vs-singleton may differ in float association, so
    // compare to the direct path at the workspace's standard 1e-6.
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 16;
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let ref_ctx = context(&env, 3);
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 3));
    let daemon = Arc::new(ServeDaemon::with_defaults(registry));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");

    let tms: Vec<TrafficMatrix> = (0..CLIENTS * PER_CLIENT)
        .map(|i| TrafficMatrix::new(vec![1.0 + 2.0 * i as f64; env.num_demands()]))
        .collect();
    let direct: Vec<_> = tms.iter().map(|tm| ref_ctx.allocate(tm).0).collect();

    let addr = server.local_addr();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let tms = &tms;
            let direct = &direct;
            s.spawn(move || {
                // Each thread its own connection: connections must commute.
                let client = TealClient::connect(addr).expect("connect");
                let tickets: Vec<_> = (0..PER_CLIENT)
                    .map(|j| {
                        let i = c * PER_CLIENT + j;
                        (i, client.submit(&SubmitRequest::new("b4", tms[i].clone())))
                    })
                    .collect();
                for (i, t) in tickets {
                    let reply = t.wait().expect("pipelined request served");
                    let d = reply
                        .allocation
                        .splits()
                        .iter()
                        .zip(direct[i].splits())
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0f64, f64::max);
                    assert!(d <= 1e-6, "request {i} diverged from direct: {d:.2e}");
                }
            });
        }
    });

    let stats = daemon.stats();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn drain_time_expiry_is_counted_and_typed() {
    // A request whose budget is spent by drain time must be answered
    // DeadlineExceeded (not served stale) and counted in the `expired`
    // telemetry gauge. A merely-tight deadline is no longer enough to
    // manufacture this: the deadline-capped linger fires the drain at the
    // budget midpoint and rescues it. Only an unmeetably small budget —
    // gone before the shard can even wake — still expires at drain.
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = Arc::new(ServeDaemon::start(
        registry,
        ServeConfig {
            linger: Duration::from_millis(80),
            max_batch: 64,
            ..ServeConfig::default()
        },
    ));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");
    let client = TealClient::connect(server.local_addr()).expect("connect");
    let tm = TrafficMatrix::new(vec![10.0; env.num_demands()]);

    // Pipeline: one doomed request (1ns budget) plus a plain one that
    // keeps the window honest.
    let doomed =
        client.submit(&SubmitRequest::new("b4", tm.clone()).with_deadline(Duration::from_nanos(1)));
    let healthy = client.submit(&SubmitRequest::new("b4", tm.clone()));
    match doomed.wait() {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected drain-time expiry, got {other:?}"),
    }
    healthy.wait().expect("plain request survives the window");

    let stats = daemon.stats();
    assert!(stats.expired >= 1, "expiry not counted: {stats:?}");
    assert_eq!(stats.queue_depth, 0, "expiry leaked the queue gauge");
}

#[test]
fn hostile_demand_hangs_up_one_connection_not_the_server() {
    // A REQUEST whose demand is NaN (or negative) used to reach
    // `TrafficMatrix::new`'s assert inside the decoder and unwind the one
    // event-loop thread every connection shares. It must cost only the
    // connection that sent it.
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    registry.insert("b4", context(&env, 0));
    let daemon = Arc::new(ServeDaemon::with_defaults(registry));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");
    let tm = TrafficMatrix::new(vec![10.0; env.num_demands()]);

    for hostile in [f64::NAN, -1.0] {
        let req = SubmitRequest::new("b4", tm.clone());
        let got = common::send_hostile_demand(server.local_addr(), &req, hostile);
        assert_eq!(got, 0, "server answered a {hostile}-demand request");
        // The loop thread is still alive: a fresh connection is served.
        let client = TealClient::connect(server.local_addr()).expect("connect after hostile frame");
        client
            .allocate_timeout("b4", tm.clone(), Duration::from_secs(30))
            .expect("server still serves after a hostile frame");
    }
    assert_eq!(daemon.stats().completed, 2);
}

#[test]
fn version_mismatch_is_refused_at_handshake() {
    let registry: ModelRegistry<TealModel> = ModelRegistry::new();
    let daemon = Arc::new(ServeDaemon::with_defaults(registry));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");

    use std::io::Read;
    use teal_serve::wire;
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut hello = Vec::new();
    wire::encode_hello(&mut hello);
    let n = hello.len();
    hello[n - 2..].copy_from_slice(&(wire::VERSION + 1).to_le_bytes());
    wire::write_frame(&mut stream, &hello).expect("send bad hello");
    // The server must hang up instead of answering HELLO_OK.
    let mut rest = Vec::new();
    let got = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(got, 0, "server answered a version-mismatched client");
}
